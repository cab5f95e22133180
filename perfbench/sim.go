package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
)

// protoRun is the simulated outcome of one machine run or replay.
type protoRun struct {
	Protocol string
	Cache    cache.Stats
	Bus      bus.Stats
}

// simResult is everything an operation simulated: deterministic, so a
// digest of it pins the simulator's output bit for bit.
type simResult struct {
	Runs   []protoRun
	Answer string `json:",omitempty"` // live runs: the program's output
}

// refs counts the simulated references over every run.
func (s *simResult) refs() uint64 {
	var n uint64
	for i := range s.Runs {
		n += s.Runs[i].Cache.TotalRefs()
	}
	return n
}

func (s *simResult) digest() string {
	b, err := json.Marshal(s)
	if err != nil {
		// simResult holds only integers, arrays and strings.
		panic(fmt.Sprintf("perfbench: marshal stats: %v", err))
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:12])
}

// counts derives the simulated per-layer counts of the cache and bus.
// Counts are summed over every run of the operation; bus cycles are also
// reported per protocol.
func (s *simResult) counts(m map[string]float64) {
	var cs cache.Stats
	var bs bus.Stats
	for i := range s.Runs {
		r := &s.Runs[i]
		cs.Add(&r.Cache)
		bs.Add(&r.Bus)
		m["bus.cycles."+r.Protocol] += float64(r.Bus.TotalCycles)
	}
	var hits, misses uint64
	for op := range cs.Hits {
		hits += cs.Hits[op]
		misses += cs.Misses[op]
	}
	refs := cs.TotalRefs()
	applied := cs.DWApplied + cs.ERInval + cs.ERPurge + cs.RPApplied + cs.RIApplied
	degraded := cs.DWDegraded + cs.ERDegraded + cs.RPDegraded + cs.RIDegraded
	m["cache.refs"] = float64(refs)
	m["cache.hits"] = float64(hits)
	m["cache.misses"] = float64(misses)
	m["cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["cache.swapouts"] = float64(cs.SwapOuts)
	m["cache.invalidations"] = float64(cs.Invalidations)
	m["cache.updates_received"] = float64(cs.UpdatesReceived)
	m["cache.busy_waits"] = float64(cs.BusyWaits)
	m["cache.opt_applied"] = float64(applied)
	m["cache.opt_degraded"] = float64(degraded)
	m["cache.opt_applied_ratio"] = ratio(float64(applied), float64(applied+degraded))
	m["cache.lr_exclusive_ratio"] = ratio(float64(cs.LRHitExclusive), float64(cs.LRTotal()))

	var txns uint64
	for _, n := range bs.CountByPattern {
		txns += n
	}
	m["bus.cycles"] = float64(bs.TotalCycles)
	m["bus.txns"] = float64(txns)
	m["bus.c2c"] = float64(bs.CountByPattern[bus.PatC2C] + bs.CountByPattern[bus.PatC2CSwapOut])
	m["bus.invalidates"] = float64(bs.CountByPattern[bus.PatInval])
	m["bus.mem_busy_cycles"] = float64(bs.MemBusyCycles)
	m["bus.txns_per_kref"] = ratio(1000*float64(txns), float64(refs))
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digestPath holds the committed digests, keyed by digestKey. A change
// that deliberately alters simulated statistics regenerates them with
// `run.py --regen-digests`.
const digestPath = "perfbench/digests.json"

func digestKey(w *workload, sz size, seed int64) string {
	if w.seeded {
		return fmt.Sprintf("%s/%s/seed=%d", w.name, sz.name, seed)
	}
	return fmt.Sprintf("%s/%s", w.name, sz.name)
}

func loadDigests() (map[string]string, error) {
	b, err := os.ReadFile(digestPath)
	if err != nil {
		return nil, fmt.Errorf("reading committed digests: %w", err)
	}
	m := map[string]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", digestPath, err)
	}
	return m, nil
}

func saveDigests(m map[string]string) error {
	b, err := json.MarshalIndent(m, "", "  ") // encoding/json sorts map keys
	if err != nil {
		return err
	}
	return os.WriteFile(digestPath, append(b, '\n'), 0o644)
}
