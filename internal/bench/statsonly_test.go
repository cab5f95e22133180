package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
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

// statsOnlyCase is one (configuration, timing) point of the stats-only
// oracle's matrix.
type statsOnlyCase struct {
	name   string
	cfg    cache.Config
	timing bus.Timing
}

// statsOnlyCases is the replay matrix the stats-only oracle runs on
// every workload: one configuration per replay-protocol family.
func statsOnlyCases() []statsOnlyCase {
	var cases []statsOnlyCase
	for _, p := range []struct {
		name  string
		opts  cache.Options
		proto cache.Protocol
	}{
		{"pim", cache.OptionsAll(), cache.ProtocolPIM},
		{"illinois", cache.OptionsNone(), cache.ProtocolIllinois},
		{"writethrough", cache.OptionsNone(), cache.ProtocolWriteThrough},
	} {
		cfg := BaseCache(p.opts)
		cfg.Protocol = p.proto
		cases = append(cases, statsOnlyCase{p.name, cfg, bus.DefaultTiming()})
	}
	return cases
}

// collectCases is every configuration Collect replays at its default
// options (the paper's full evaluation): the stats-only oracle runs all
// of them on the live-recorded stream.
func collectCases() []statsOnlyCase {
	var cases []statsOnlyCase
	for i, k := range DefaultOptions().replayKeys() {
		cases = append(cases, statsOnlyCase{fmt.Sprintf("collect-key-%d", i), k.cfg, k.timing})
	}
	return cases
}

// dataReplay is the data-carrying reference the stats-only oracles
// compare against: a machine with the data plane (StatsOnly false)
// driven by trace.Replay. Every public replay entry point is
// stats-only by construction, so this helper is the only place a
// data-carrying replay still runs.
func dataReplay(t testing.TB, tr *trace.Trace, c statsOnlyCase, sink probe.Sink) (bus.Stats, cache.Stats) {
	t.Helper()
	cfg := c.cfg
	cfg.StatsOnly = false
	m := machine.New(machine.Config{PEs: tr.PEs, Layout: tr.Layout, Cache: cfg, Timing: c.timing})
	if sink != nil {
		m.SetProbe(sink)
	}
	ports := make([]mem.Accessor, tr.PEs)
	for i := range ports {
		ports[i] = m.Port(i)
	}
	if err := trace.Replay(tr, ports); err != nil {
		t.Fatalf("%s: data-carrying replay: %v", c.name, err)
	}
	return m.BusStats(), m.CacheStats()
}

// orParallelWorkload is the synthetic stream the single-path oracles
// replay.
func orParallelWorkload(pes, events int) *trace.Trace {
	sc := synth.DefaultConfig()
	sc.PEs = pes
	sc.Events = events
	return synth.ORParallel(sc)
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
// through ReplayConfigProbed, which is stats-only whatever the
// configuration says, must yield bit-identical bus statistics, cache
// statistics and probe event streams to the data-carrying reference,
// for every protocol — and, on the live-recorded stream, for every
// configuration Collect replays.
func TestStatsOnlyEquivalence(t *testing.T) {
	for trName, tr := range statsOnlyTraces(t) {
		trName, tr := trName, tr
		t.Run(trName, func(t *testing.T) {
			t.Parallel()
			cases := statsOnlyCases()
			if trName == "puzzle" {
				cases = append(cases, collectCases()...)
			}
			for _, c := range cases {
				var dataLog eventLog
				bsData, csData := dataReplay(t, tr, c, &dataLog)
				var soLog eventLog
				bsSO, csSO, err := ReplayConfigProbed(tr, c.cfg, c.timing, &soLog)
				if err != nil {
					t.Fatalf("%s: stats-only replay: %v", c.name, err)
				}
				if bsData != bsSO {
					t.Errorf("%s: bus stats diverge\ndata:       %+v\nstats-only: %+v", c.name, bsData, bsSO)
				}
				if csData != csSO {
					t.Errorf("%s: cache stats diverge\ndata:       %+v\nstats-only: %+v", c.name, csData, csSO)
				}
				sameEvents(t, c.name, dataLog.events, soLog.events)
			}
		})
	}
}

// TestStatsOnlyReaderEquivalence pins the streaming path: serializing a
// trace and replaying it straight from the decoder with a probe
// attached must reproduce the data-carrying reference's statistics and
// event stream.
func TestStatsOnlyReaderEquivalence(t *testing.T) {
	tr := orParallelWorkload(8, 30_000)
	c := statsOnlyCases()[0]
	var dataLog eventLog
	bsData, csData := dataReplay(t, tr, c, &dataLog)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var soLog eventLog
	bs, cs, n, err := ReplayReader(d, c.cfg, c.timing, &soLog)
	if err != nil {
		t.Fatal(err)
	}
	if n != tr.Len() {
		t.Errorf("streamed %d refs, trace has %d", n, tr.Len())
	}
	if bs != bsData {
		t.Errorf("bus stats diverge\ndata:     %+v\nstreamed: %+v", bsData, bs)
	}
	if cs != csData {
		t.Errorf("cache stats diverge\ndata:     %+v\nstreamed: %+v", csData, cs)
	}
	sameEvents(t, "streamed", dataLog.events, soLog.events)
}

// TestStatsOnlySharded pins the sharded replay path against the
// unsharded data-carrying reference.
func TestStatsOnlySharded(t *testing.T) {
	tr := orParallelWorkload(8, 30_000)
	c := statsOnlyCases()[0]
	bsData, csData := dataReplay(t, tr, c, nil)
	bs, cs, err := ReplayConfigSharded(tr, c.cfg, c.timing, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bs != bsData {
		t.Errorf("bus stats diverge\nunsharded data: %+v\nsharded:        %+v", bsData, bs)
	}
	if cs != csData {
		t.Errorf("cache stats diverge\nunsharded data: %+v\nsharded:        %+v", csData, cs)
	}
}

// TestStatsOnlyWarmed pins the warmed-checkpoint path: a machine
// checkpointed mid-replay and resumed must land on the data-carrying
// reference's exact statistics, and its checkpoint must carry no
// memory image.
func TestStatsOnlyWarmed(t *testing.T) {
	tr := orParallelWorkload(4, 20_000)
	c := statsOnlyCases()[0]
	bsData, csData := dataReplay(t, tr, c, nil)
	wc := NewWarmCache(tr.Len() / 2)
	wc.Register(c.cfg, c.timing)
	wc.Register(c.cfg, c.timing)
	for i := 0; i < 2; i++ {
		bs, cs, err := wc.Replay(tr, c.cfg, c.timing)
		if err != nil {
			t.Fatalf("warmed replay %d: %v", i, err)
		}
		if i == 0 {
			snap := wc.entries[warmKey{c.cfg, c.timing}].snap
			if snap == nil {
				t.Fatal("first warmed replay published no snapshot")
			}
			if !snap.Config.Cache.StatsOnly || len(snap.Memory) != 0 {
				t.Errorf("warm snapshot carries a data plane (%d memory words)", len(snap.Memory))
			}
		}
		if bs != bsData {
			t.Errorf("replay %d: bus stats diverge\ndata:   %+v\nwarmed: %+v", i, bsData, bs)
		}
		if cs != csData {
			t.Errorf("replay %d: cache stats diverge\ndata:   %+v\nwarmed: %+v", i, csData, cs)
		}
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
