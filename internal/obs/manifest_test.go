package obs

import (
	"bytes"
	"path/filepath"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
)

func testManifest(mode string) *Manifest {
	m := NewManifest("pimtrace")
	m.Scenario = "replay-stream-8pe"
	ccfg := cache.Config{
		SizeWords: 4096, BlockWords: 4, Ways: 4, LockEntries: 4,
		Protocol: cache.ProtocolPIM,
	}
	m.Config = NewRunConfig(8, ccfg, bus.DefaultTiming(), "all", mode, 0)
	m.Trace = &TraceInfo{SHA256: "ab12", Refs: 1000, PEs: 8, LayoutWords: 65536}
	cs := cache.Stats{}
	bs := bus.Stats{}
	m.Stats = NewRunStats(1000, cs, bs)
	return m
}

// TestDeterministicJSONStripsTiming: two manifests for the same run,
// produced at different times on conceptually different hosts, render
// byte-identical deterministic JSON.
func TestDeterministicJSONStripsTiming(t *testing.T) {
	a := testManifest("stream")
	b := testManifest("stream")
	// Make the volatile halves maximally different.
	a.Timing.Host = "host-a"
	a.Timing.WallSeconds = 1.23
	a.Timing.MrefsPerSec = 20
	b.Timing.Host = "host-b"
	b.Timing.WallSeconds = 9.87
	b.Timing.Metrics = []Metric{{Name: "x", Kind: "counter", Value: 1}}

	aj, err := a.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("deterministic JSON differs:\n%s\n----\n%s", aj, bj)
	}
	if bytes.Contains(aj, []byte("host-a")) {
		t.Fatal("deterministic JSON leaked a Timing field")
	}
}

// TestKeyAndStatsKey: Key distinguishes scenarios and engine modes;
// StatsKey erases exactly the knobs that cannot change statistics.
func TestKeyAndStatsKey(t *testing.T) {
	stream := testManifest("stream")
	sharded := testManifest("sharded")
	sharded.Scenario = "replay-sharded-8pe"
	sharded.Config.Shards = 2

	if stream.Key() == sharded.Key() {
		t.Fatal("different scenario/mode must produce different Keys")
	}
	if stream.StatsKey() != sharded.StatsKey() {
		t.Fatal("mode/shards/scenario must not affect StatsKey")
	}

	// A genuinely different machine must split the StatsKey.
	other := testManifest("stream")
	other.Config.CacheWords = 8192
	if stream.StatsKey() == other.StatsKey() {
		t.Fatal("different cache size must change StatsKey")
	}
	// ...and a different trace too.
	tr := testManifest("stream")
	tr.Trace.SHA256 = "cd34"
	if stream.StatsKey() == tr.StatsKey() {
		t.Fatal("different trace must change StatsKey")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")

	m := testManifest("stream")
	m.FinishTiming(nil, nil, 1000, 0.5)
	if m.Timing.MrefsPerSec != 0.002 {
		t.Fatalf("MrefsPerSec = %v, want 0.002", m.Timing.MrefsPerSec)
	}
	if m.Timing.GC == nil {
		t.Fatal("FinishTiming must fill GC stats")
	}
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "pimtrace" || got.Scenario != m.Scenario {
		t.Fatalf("round trip lost identity: %+v", got)
	}
	if got.Key() != m.Key() || got.StatsKey() != m.StatsKey() {
		t.Fatal("round trip changed keys")
	}
	gj, _ := got.DeterministicJSON()
	mj, _ := m.DeterministicJSON()
	if !bytes.Equal(gj, mj) {
		t.Fatal("round trip changed deterministic JSON")
	}
}

func TestReadManifestRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	m := testManifest("stream")
	m.Schema = 999
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifestFile(path); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
}

func TestFinishTimingWithPhasesAndMetrics(t *testing.T) {
	ph := NewPhases()
	ph.Start("replay").End()
	reg := NewRegistry()
	reg.Counter("refs").Add(1000)

	m := testManifest("stream")
	m.FinishTiming(ph, reg, 1000, 1.0)
	if len(m.Timing.Phases) != 1 || m.Timing.Phases[0].Path != "replay" {
		t.Fatalf("phases not captured: %+v", m.Timing.Phases)
	}
	if len(m.Timing.Metrics) != 1 || m.Timing.Metrics[0].Name != "refs" {
		t.Fatalf("metrics not captured: %+v", m.Timing.Metrics)
	}
}
