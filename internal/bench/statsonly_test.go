package bench

import (
	"bytes"
	"strings"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/probe"
	"pimcache/internal/synth"
	"pimcache/internal/trace"

	"pimcache/internal/bench/programs"
)

// eventLog is a probe sink that records the full event stream for
// bit-level comparison.
type eventLog struct{ events []probe.Event }

func (l *eventLog) Emit(e probe.Event) { l.events = append(l.events, e) }

// sameEvents compares two recorded streams event for event.
func sameEvents(t *testing.T, label string, data, statsOnly []probe.Event) {
	t.Helper()
	if len(data) != len(statsOnly) {
		t.Errorf("%s: %d events data-carrying, %d stats-only", label, len(data), len(statsOnly))
		return
	}
	for i := range data {
		if data[i] != statsOnly[i] {
			t.Errorf("%s: event %d diverges\ndata:       %+v\nstats-only: %+v",
				label, i, data[i], statsOnly[i])
			return
		}
	}
}

// statsOnlyProtocols is the replay matrix the stats-only oracle runs.
var statsOnlyProtocols = []struct {
	name  string
	opts  cache.Options
	proto cache.Protocol
}{
	{"pim", cache.OptionsAll(), cache.ProtocolPIM},
	{"illinois", cache.OptionsNone(), cache.ProtocolIllinois},
	{"writethrough", cache.OptionsNone(), cache.ProtocolWriteThrough},
}

// statsOnlyTraces returns the oracle's workloads: one live-recorded
// stream (every op the real runtime issues, including locks) and the
// three synthetic generators.
func statsOnlyTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	b, _ := programs.ByName("Puzzle")
	_, tr, err := RunLive(b, 2, 4, BaseCache(cache.OptionsAll()), true)
	if err != nil {
		t.Fatal(err)
	}
	sc := synth.DefaultConfig()
	sc.PEs = 8
	sc.Events = 30_000
	return map[string]*trace.Trace{
		"puzzle":     tr,
		"orparallel": synth.ORParallel(sc),
		"seqprolog":  synth.SeqProlog(sc),
		"ring":       synth.MessageRing(sc),
	}
}

// TestStatsOnlyEquivalence is the tentpole oracle: replaying any stream
// with the data plane removed must yield bit-identical bus statistics,
// cache statistics, and probe event streams to the data-carrying replay,
// for every protocol.
func TestStatsOnlyEquivalence(t *testing.T) {
	for trName, tr := range statsOnlyTraces(t) {
		tr := tr
		t.Run(trName, func(t *testing.T) {
			t.Parallel()
			for _, p := range statsOnlyProtocols {
				cfg := BaseCache(p.opts)
				cfg.Protocol = p.proto

				var dataLog eventLog
				bsData, csData, err := ReplayConfigProbed(tr, cfg, bus.DefaultTiming(), &dataLog)
				if err != nil {
					t.Fatalf("%s: data-carrying replay: %v", p.name, err)
				}

				so := cfg
				so.StatsOnly = true
				var soLog eventLog
				bsSO, csSO, err := ReplayConfigProbed(tr, so, bus.DefaultTiming(), &soLog)
				if err != nil {
					t.Fatalf("%s: stats-only replay: %v", p.name, err)
				}

				if bsData != bsSO {
					t.Errorf("%s: bus stats diverge\ndata:       %+v\nstats-only: %+v", p.name, bsData, bsSO)
				}
				if csData != csSO {
					t.Errorf("%s: cache stats diverge\ndata:       %+v\nstats-only: %+v", p.name, csData, csSO)
				}
				sameEvents(t, p.name, dataLog.events, soLog.events)
			}
		})
	}
}

// TestStatsOnlyReaderEquivalence pins the streaming path: serializing a
// trace and replaying it straight from the decoder — stats-only, with a
// probe attached — must reproduce the materialized data-carrying replay's
// statistics and event stream.
func TestStatsOnlyReaderEquivalence(t *testing.T) {
	sc := synth.DefaultConfig()
	sc.PEs = 8
	sc.Events = 30_000
	tr := synth.ORParallel(sc)
	cfg := BaseCache(cache.OptionsAll())

	var dataLog eventLog
	bsData, csData, err := ReplayConfigProbed(tr, cfg, bus.DefaultTiming(), &dataLog)
	if err != nil {
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
	so := cfg
	so.StatsOnly = true
	var soLog eventLog
	bs, cs, n, err := ReplayReader(d, so, bus.DefaultTiming(), &soLog)
	if err != nil {
		t.Fatal(err)
	}
	if n != tr.Len() {
		t.Errorf("streamed %d refs, trace has %d", n, tr.Len())
	}
	if bs != bsData {
		t.Errorf("bus stats diverge\nmaterialized: %+v\nstreamed:     %+v", bsData, bs)
	}
	if cs != csData {
		t.Errorf("cache stats diverge\nmaterialized: %+v\nstreamed:     %+v", csData, cs)
	}
	sameEvents(t, "streamed", dataLog.events, soLog.events)
}

// TestStatsOnlySharded pins the sharded replay path in stats-only mode
// against the unsharded data-carrying replay.
func TestStatsOnlySharded(t *testing.T) {
	sc := synth.DefaultConfig()
	sc.PEs = 8
	sc.Events = 30_000
	tr := synth.ORParallel(sc)
	cfg := BaseCache(cache.OptionsAll())
	bsData, csData, err := ReplayConfig(tr, cfg, bus.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	so := cfg
	so.StatsOnly = true
	bs, cs, err := ReplayConfigSharded(tr, so, bus.DefaultTiming(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if bs != bsData {
		t.Errorf("bus stats diverge\nunsharded data:    %+v\nsharded stats-only: %+v", bsData, bs)
	}
	if cs != csData {
		t.Errorf("cache stats diverge\nunsharded data:    %+v\nsharded stats-only: %+v", csData, cs)
	}
}

// TestStatsOnlyWarmed pins the warmed-checkpoint path in stats-only mode:
// a stats-only machine checkpointed mid-replay and resumed must land on
// the data-carrying cold replay's exact statistics.
func TestStatsOnlyWarmed(t *testing.T) {
	sc := synth.DefaultConfig()
	sc.PEs = 4
	sc.Events = 20_000
	tr := synth.ORParallel(sc)
	cfg := BaseCache(cache.OptionsAll())
	bsData, csData, err := ReplayConfig(tr, cfg, bus.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	so := cfg
	so.StatsOnly = true
	wc := NewWarmCache(tr.Len() / 2)
	wc.Register(so, bus.DefaultTiming())
	wc.Register(so, bus.DefaultTiming())
	for i := 0; i < 2; i++ {
		bs, cs, err := wc.Replay(tr, so, bus.DefaultTiming())
		if err != nil {
			t.Fatalf("warmed replay %d: %v", i, err)
		}
		if bs != bsData {
			t.Errorf("replay %d: bus stats diverge\ncold data: %+v\nwarmed:    %+v", i, bsData, bs)
		}
		if cs != csData {
			t.Errorf("replay %d: cache stats diverge\ncold data: %+v\nwarmed:    %+v", i, csData, cs)
		}
	}
}

// TestStatsOnlyCollectRenderAll runs a reduced but structurally complete
// evaluation (live sweep, variants, sweeps, baselines) with replays in
// stats-only warmed mode and requires byte-identical rendered tables:
// the flag must change memory use, never a number.
func TestStatsOnlyCollectRenderAll(t *testing.T) {
	old := quickScales["Puzzle"]
	quickScales["Puzzle"] = 2
	defer func() { quickScales["Puzzle"] = old }()

	o := Options{
		Quick:           true,
		PEs:             4,
		PESweep:         []int{1, 2, 4},
		BlockSizes:      []int{2, 4},
		Capacities:      []int{1 << 10, 4 << 10},
		Associativities: []int{1, 4},
		Benchmarks:      []string{"Puzzle"},
		Jobs:            1,
	}
	data, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	o.StatsOnly = true
	o.WarmedSweeps = true // exercise stats-only checkpoints too
	statsOnly, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	got, want := RenderAll(statsOnly), RenderAll(data)
	if len(want) == 0 {
		t.Fatal("rendered evaluation is empty")
	}
	if got != want {
		t.Errorf("stats-only evaluation differs from data-carrying\n--- data ---\n%s\n--- stats-only ---\n%s", want, got)
	}
}

// TestStatsOnlyLiveRefused pins the guard: a stats-only configuration
// handed to a live run must fail with a clear error, not silently feed
// the program zeros.
func TestStatsOnlyLiveRefused(t *testing.T) {
	b, _ := programs.ByName("Puzzle")
	cfg := BaseCache(cache.OptionsAll())
	cfg.StatsOnly = true
	_, _, err := RunLive(b, 2, 2, cfg, false)
	if err == nil {
		t.Fatal("live run on a stats-only config succeeded")
	}
	if !strings.Contains(err.Error(), "stats-only") {
		t.Errorf("error does not name the cause: %v", err)
	}
}
