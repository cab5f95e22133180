package bench

import (
	"runtime"
	"testing"

	"pimcache/internal/bench/programs"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/emulator"
	"pimcache/internal/kl1/parser"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
)

// TestLiveSetupAllocation pins the host memory an 8-PE live run spends
// booting its emulator: loading the program and building the engines.
// The per-PE goal and suspension free lists are linked lazily, so boot
// must not touch the record areas' pages (linking them eagerly allocated
// about 10.5 MB of demand-paged memory).
func TestLiveSetupAllocation(t *testing.T) {
	const pes = 8
	b, ok := programs.ByName("Tri")
	if !ok {
		t.Fatal("Tri benchmark missing")
	}
	prog, err := parser.Parse(b.Source(b.DefaultScale))
	if err != nil {
		t.Fatal(err)
	}
	im, err := compile.Compile(prog, word.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{PEs: pes, Layout: Layout(), Cache: BaseCache(cache.OptionsAll()), Timing: bus.DefaultTiming()})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sh, err := emulator.NewShared(im, m.Memory(), pes, emulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range pes {
		if _, err := emulator.NewEngine(sh, i, m.Port(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const limit = 1 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("emulator boot allocated %d bytes", got)
	if got >= limit {
		t.Errorf("emulator boot allocated %d bytes, want under %d", got, limit)
	}
}
