package pimcache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"pimcache/internal/bench"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/obs"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// manifestTrace builds one small synthetic trace and its serialized
// bytes + digest, shared by the manifest determinism tests.
func manifestTrace(t testing.TB) (*trace.Trace, []byte, string) {
	t.Helper()
	sc := synth.DefaultConfig()
	sc.PEs = 8
	sc.Events = 20_000
	sc.Seed = 7
	tr := synth.ORParallel(sc)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return tr, buf.Bytes(), obs.HexDigest(sum[:])
}

// replayToManifest replays the serialized trace in streaming mode under
// ccfg and assembles a manifest exactly the way pimtrace replay does.
func replayToManifest(t *testing.T, data []byte, digest string, ccfg cache.Config, mode string) *obs.Manifest {
	t.Helper()
	d, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	bs, cs, refs, err := bench.ReplayReader(d, ccfg, bus.DefaultTiming(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return newReplayManifest(d.PEs(), d.Layout(), digest, ccfg, mode, 0, refs, bs, cs)
}

// newReplayManifest assembles a replay's manifest the way pimtrace
// replay does.
func newReplayManifest(pes int, layout mem.Layout, digest string, ccfg cache.Config, mode string, shards, refs int, bs bus.Stats, cs cache.Stats) *obs.Manifest {
	man := obs.NewManifest("pimtrace")
	man.Scenario = "matrix"
	man.Config = obs.NewRunConfig(pes, ccfg, bus.DefaultTiming(), "all", mode, shards)
	man.Trace = &obs.TraceInfo{
		SHA256: digest, Refs: uint64(refs), PEs: pes,
		LayoutWords: uint64(layout.TotalWords()),
	}
	man.Stats = obs.NewRunStats(uint64(refs), cs, bs)
	man.Timing.TraceFile = "matrix.trc"
	man.FinishTiming(obs.NewPhases(), obs.NewRegistry(), uint64(refs), 0.1)
	return man
}

// TestManifestDeterminismMatrix is the manifest determinism oracle: two
// replays of the same trace and configuration produce byte-identical
// manifests once the timing block is stripped — across every protocol.
// Subtest names keep their "filtersOff=false" and "statsOnly=true"
// segments, the one value left of each since the bus filters became
// unconditional and replay became stats-only, so results stay
// comparable across versions.
func TestManifestDeterminismMatrix(t *testing.T) {
	_, data, digest := manifestTrace(t)
	protocols := []struct {
		proto cache.Protocol
		opts  cache.Options
	}{
		{cache.ProtocolPIM, cache.OptionsAll()},
		{cache.ProtocolIllinois, cache.OptionsNone()},
		{cache.ProtocolWriteThrough, cache.OptionsNone()},
	}
	for _, pc := range protocols {
		name := fmt.Sprintf("%s/filtersOff=false/statsOnly=true", pc.proto)
		t.Run(name, func(t *testing.T) {
			ccfg := cache.DefaultConfig()
			ccfg.Options = pc.opts
			ccfg.Protocol = pc.proto

			a := replayToManifest(t, data, digest, ccfg, "stream")
			b := replayToManifest(t, data, digest, ccfg, "stream")
			aj, err := a.DeterministicJSON()
			if err != nil {
				t.Fatal(err)
			}
			bj, err := b.DeterministicJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(aj, bj) {
				t.Errorf("two replays produced different deterministic manifests:\n%s\n----\n%s", aj, bj)
			}
			if a.Key() != b.Key() || a.StatsKey() != b.StatsKey() {
				t.Error("repeat runs disagree on manifest keys")
			}
		})
	}
}

// TestManifestStatsKeyAcrossEngineKnobs: the engine knobs that provably
// do not change statistics (set-sharded replay) share a StatsKey with
// the plain streaming run, and their Stats sections agree — so
// pimreport's determinism check binds all engine modes together.
func TestManifestStatsKeyAcrossEngineKnobs(t *testing.T) {
	tr, data, digest := manifestTrace(t)
	base := cache.DefaultConfig()
	base.Options = cache.OptionsAll()

	plain := replayToManifest(t, data, digest, base, "stream")

	const shards = 4
	bs, cs, err := bench.ReplayConfigSharded(tr, base, bus.DefaultTiming(), shards)
	if err != nil {
		t.Fatal(err)
	}
	sharded := newReplayManifest(tr.PEs, tr.Layout, digest, base, "sharded", shards, tr.Len(), bs, cs)
	if sharded.StatsKey() != plain.StatsKey() {
		t.Error("sharded: StatsKey differs from plain run")
	}
	if sharded.Key() == plain.Key() {
		t.Error("sharded: Key should differ from plain run (different engine knobs)")
	}
	// The deterministic JSON differs only in the config knobs; the stats
	// must agree. Compare the stats sections with normalized configs.
	if got, want := statsSection(t, sharded), statsSection(t, plain); !bytes.Equal(got, want) {
		t.Errorf("sharded: stats differ from plain run\nplain:   %s\nsharded: %s", want, got)
	}
}

func statsSection(t *testing.T, m *obs.Manifest) []byte {
	t.Helper()
	c := *m
	c.Config = obs.RunConfig{}
	c.Timing = obs.Timing{}
	b, err := c.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPerPEStatsAcrossReplayModes pins per-PE equivalence, stronger
// than the aggregate oracles: a stats-only machine leaves each
// individual PE cache with the same statistics as a data-carrying one,
// via machine.PerPECacheStats, and the streaming entry point
// (bench.ReplayReader) lands on the same totals.
func TestPerPEStatsAcrossReplayModes(t *testing.T) {
	tr, data, _ := manifestTrace(t)
	timing := bus.DefaultTiming()
	base := cache.DefaultConfig()
	base.Options = cache.OptionsAll()

	replay := func(ccfg cache.Config) *machine.Machine {
		m := machine.New(machine.Config{PEs: tr.PEs, Layout: tr.Layout, Cache: ccfg, Timing: timing})
		ports := make([]mem.Accessor, tr.PEs)
		for i := range ports {
			ports[i] = m.Port(i)
		}
		if err := trace.Replay(tr, ports); err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Reference: replay with the data plane.
	mData := replay(base)
	want := mData.PerPECacheStats()
	if len(want) != tr.PEs {
		t.Fatalf("PerPECacheStats returned %d entries, want %d", len(want), tr.PEs)
	}
	var aggregate cache.Stats
	for i := range want {
		aggregate.Add(&want[i])
	}
	if aggregate != mData.CacheStats() {
		t.Fatal("PerPECacheStats does not sum to CacheStats")
	}

	// Stats-only replay (no data plane).
	soCfg := base
	soCfg.StatsOnly = true
	mSO := replay(soCfg)
	got := mSO.PerPECacheStats()
	for pe := range want {
		if got[pe] != want[pe] {
			t.Errorf("statsonly: PE %d stats differ from data-carrying replay", pe)
		}
	}
	if mSO.BusStats() != mData.BusStats() {
		t.Error("statsonly: bus stats differ from data-carrying replay")
	}

	// Streaming replay from the serialized trace.
	d, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	bs, cs, _, err := bench.ReplayReader(d, base, timing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cs != aggregate || bs != mData.BusStats() {
		t.Error("stream: stats differ from data-carrying replay")
	}
}
