package trace_test

import (
	"bytes"
	"testing"

	"pimcache/internal/bench"
	"pimcache/internal/cache"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/trace"
)

// TestReplayStreamMatchesReplay pins the chunked streaming replay
// (bench.ReplayReader, stats-only) against the materialized
// data-carrying replay on a real recorded workload.
func TestReplayStreamMatchesReplay(t *testing.T) {
	live, tr := trace.TraceCluster(t, trace.SumProgram, 2, cache.OptionsAll())
	mcfg := live.Config()

	m := machine.New(mcfg)
	ports := make([]mem.Accessor, tr.PEs)
	for i := range ports {
		ports[i] = m.Port(i)
	}
	if err := trace.Replay(tr, ports); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bs, cs, n, err := bench.ReplayReader(d, mcfg.Cache, mcfg.Timing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != tr.Len() {
		t.Errorf("streamed %d refs, trace has %d", n, tr.Len())
	}
	if b1 := m.BusStats(); b1 != bs {
		t.Errorf("bus stats diverge\nmaterialized: %+v\nstreamed:     %+v", b1, bs)
	}
	if c1 := m.CacheStats(); c1 != cs {
		t.Errorf("cache stats diverge\nmaterialized: %+v\nstreamed:     %+v", c1, cs)
	}
}
