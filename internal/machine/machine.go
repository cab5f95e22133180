// Package machine composes the simulated PIM cluster: N processing
// elements, each behind a private PIM cache, sharing one bus and one
// global memory module.
//
// Execution is deterministic: the machine steps runnable PEs round-robin
// at abstract-instruction granularity, and the bus serializes coherence
// traffic in arrival order. The paper's simulator synchronized PEs at
// every bus request; instruction-level interleaving is at least that
// fine, so bus contention behaviour is preserved while every run of the
// same program and configuration produces identical cycle counts.
package machine

import (
	"fmt"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
)

// Status is the result of one processor step.
type Status uint8

const (
	// StatusRunning: the PE did useful work and has more.
	StatusRunning Status = iota
	// StatusIdle: the PE has no local work right now but may receive
	// some (e.g. a stolen goal); it continues to be stepped so it can
	// poll its mailbox.
	StatusIdle
	// StatusHalted: the PE is permanently done (global termination).
	StatusHalted
	// StatusFailed: the program failed; the run aborts.
	StatusFailed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusIdle:
		return "idle"
	case StatusHalted:
		return "halted"
	case StatusFailed:
		return "failed"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Processor is one PE's execution engine (the KL1 reduction engine, a
// trace replayer, or a synthetic workload). Step executes one abstract
// instruction; all of its simulated memory accesses flow through the
// cache port the processor was constructed with.
type Processor interface {
	Step() Status
}

// Config parameterizes a cluster.
type Config struct {
	PEs    int
	Layout mem.Layout
	Cache  cache.Config
	Timing bus.Timing
}

// DefaultConfig is the paper's base system: eight PEs, 4Kword 4-way
// caches with 4-word blocks, one-word bus, eight-cycle memory.
func DefaultConfig() Config {
	return Config{
		PEs:    8,
		Layout: mem.DefaultLayout(),
		Cache:  cache.DefaultConfig(),
		Timing: bus.DefaultTiming(),
	}
}

// Machine is the composed cluster.
type Machine struct {
	cfg    Config
	memory *mem.Memory
	bus    *bus.Bus
	caches []*cache.Cache
	procs  []Processor
	steps  uint64
	rounds uint64
	probe  probe.Sink
}

// New builds the memory, bus and caches. Processors attach afterwards.
func New(cfg Config) *Machine {
	if cfg.PEs < 1 {
		panic("machine: need at least one PE")
	}
	var m *mem.Memory
	if cfg.Cache.StatsOnly {
		// Stats-only replay: no data plane anywhere. The memory keeps its
		// layout and Size (the bus presence table is sized from it) but
		// stores nothing.
		m = mem.NewStatsOnly(cfg.Layout)
	} else {
		m = mem.New(cfg.Layout)
	}
	b := bus.New(bus.Config{
		Timing:          cfg.Timing,
		BlockWords:      cfg.Cache.BlockWords,
		PoisonFetchData: cfg.Cache.PoisonBusData,
		StatsOnly:       cfg.Cache.StatsOnly,
	}, m)
	caches := make([]*cache.Cache, cfg.PEs)
	for i := range caches {
		caches[i] = cache.New(cfg.Cache, i, b)
	}
	return &Machine{
		cfg:    cfg,
		memory: m,
		bus:    b,
		caches: caches,
		procs:  make([]Processor, cfg.PEs),
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Memory returns the shared memory module.
func (m *Machine) Memory() *mem.Memory { return m.memory }

// Bus returns the common bus.
func (m *Machine) Bus() *bus.Bus { return m.bus }

// Cache returns PE i's cache.
func (m *Machine) Cache(i int) *cache.Cache { return m.caches[i] }

// Port returns PE i's memory port (its cache).
func (m *Machine) Port(i int) mem.Accessor { return m.caches[i] }

// Attach installs PE i's processor.
func (m *Machine) Attach(i int, p Processor) { m.procs[i] = p }

// SetProbe attaches one telemetry sink to the whole cluster: the bus
// (transactions and the probe clock), every cache (references, misses,
// state transitions, locks) and the machine itself (PE scheduler
// status). Pass nil to detach; a nil sink restores the exact disabled
// behaviour everywhere.
func (m *Machine) SetProbe(s probe.Sink) {
	m.probe = s
	m.bus.SetProbe(s)
	for _, c := range m.caches {
		c.SetProbe(s)
	}
}

// Steps reports how many processor steps have executed.
func (m *Machine) Steps() uint64 { return m.steps }

// Rounds reports how many round-robin sweeps have executed. Because every
// runnable PE steps once per round, rounds approximate elapsed wall time
// on the simulated cluster and are the basis for speedup figures.
func (m *Machine) Rounds() uint64 { return m.rounds }

// RunResult summarizes a run.
type RunResult struct {
	// Steps is the number of processor steps executed.
	Steps uint64
	// Failed is true when a processor reported program failure.
	Failed bool
	// HitStepLimit is true when the run stopped at maxSteps without
	// reaching global termination.
	HitStepLimit bool
	// Rounds counts round-robin sweeps (a wall-clock proxy).
	Rounds uint64
}

// Run steps the processors round-robin until every one reports Halted,
// a processor reports Failed, or maxSteps is exceeded (0 means no
// limit). PEs busy-waiting on a remote lock are skipped, as the paper
// specifies that busy-wait cycles generate no bus traffic; if every
// non-halted PE is busy-waiting the lock protocol has deadlocked, which
// the KL1 runtime's address-ordered locking is supposed to prevent, so
// Run panics.
func (m *Machine) Run(maxSteps uint64) RunResult {
	if m.cfg.Cache.StatsOnly {
		// Live processors read values back (unification, dereferencing);
		// a stats-only machine would silently feed them zeros. Refuse
		// loudly — stats-only machines exist for trace replay, which
		// drives the cache ports directly and never calls Run.
		panic("machine: Run on a stats-only machine: live execution consumes data values; use a data-carrying config (stats-only supports trace replay only)")
	}
	for i, p := range m.procs {
		if p == nil {
			panic(fmt.Sprintf("machine: PE %d has no processor", i))
		}
	}
	halted := make([]bool, len(m.procs))
	nHalted := 0
	// Scheduler-status tracking for the probe: one last-reported status
	// per PE, emitted only on change. Live-only telemetry — a trace
	// replay has no scheduler — so it never affects replay identity.
	var pstat []uint8
	if m.probe != nil {
		pstat = make([]uint8, len(m.procs))
		for i := range pstat {
			pstat[i] = 0xFF
		}
	}
	var res RunResult
	for nHalted < len(m.procs) {
		m.rounds++
		res.Rounds++
		progressed := false
		for i, p := range m.procs {
			if halted[i] {
				continue
			}
			if m.caches[i].Blocked() {
				if pstat != nil {
					m.emitStatus(pstat, i, probe.StatusSpinning)
				}
				continue // busy-waiting: no bus traffic, no step
			}
			progressed = true
			m.steps++
			res.Steps++
			st := p.Step()
			if pstat != nil {
				// Status values mirror probe's numerically (asserted by
				// the cross-package name test).
				m.emitStatus(pstat, i, uint8(st))
			}
			switch st {
			case StatusHalted:
				halted[i] = true
				nHalted++
			case StatusFailed:
				res.Failed = true
				return res
			}
			if maxSteps > 0 && res.Steps >= maxSteps {
				res.HitStepLimit = true
				return res
			}
		}
		if !progressed {
			panic("machine: all non-halted PEs busy-waiting: lock deadlock")
		}
	}
	return res
}

// emitStatus reports PE i's scheduler status when it changed.
func (m *Machine) emitStatus(pstat []uint8, i int, s uint8) {
	if pstat[i] == s {
		return
	}
	pstat[i] = s
	m.probe.Emit(probe.Event{
		Kind: probe.KindPEStatus, Cycle: m.bus.ProbeClock(), PE: int16(i), A: s,
	})
}

// FlushAll writes every dirty cached block back to memory and empties all
// caches. Call after a run to verify results directly in memory, or
// around a garbage collection.
func (m *Machine) FlushAll() {
	for _, c := range m.caches {
		c.Flush()
	}
}

// BusStats returns the bus statistics.
func (m *Machine) BusStats() bus.Stats { return m.bus.Stats() }

// CacheStats aggregates all PE cache statistics.
func (m *Machine) CacheStats() cache.Stats {
	var total cache.Stats
	for _, c := range m.caches {
		st := c.Stats()
		total.Add(&st)
	}
	return total
}

// PerPECacheStats returns each PE cache's statistics individually
// (index = PE). The manifest determinism oracle uses it to pin that
// every replay engine produces identical per-PE stats, not merely an
// identical aggregate.
func (m *Machine) PerPECacheStats() []cache.Stats {
	out := make([]cache.Stats, len(m.caches))
	for i, c := range m.caches {
		out[i] = c.Stats()
	}
	return out
}

// ResetStats zeroes bus and cache statistics (e.g. after a warm-up).
func (m *Machine) ResetStats() {
	m.bus.ResetStats()
	for _, c := range m.caches {
		c.ResetStats()
	}
}

// VerifyCoherence checks the protocol invariants for the block containing
// each given address: at most one exclusive holder (and then no others),
// at most one dirty copy, and identical data in all valid copies. It
// returns the first violation found, or nil. Tests call it; it models
// nothing.
func (m *Machine) VerifyCoherence(addrs []word.Addr) error {
	bw := m.cfg.Cache.BlockWords
	for _, a := range addrs {
		base := a &^ word.Addr(bw-1)
		holders, exclusive, dirty := 0, 0, 0
		var ref []word.Word
		var refPE int
		for pe, c := range m.caches {
			st := c.StateOf(base)
			if !st.Valid() {
				continue
			}
			holders++
			if st.Exclusive() {
				exclusive++
			}
			if st.Dirty() {
				dirty++
			}
			data := make([]word.Word, bw)
			for i := 0; i < bw; i++ {
				data[i], _ = c.PeekWord(base + word.Addr(i))
			}
			if ref == nil {
				ref, refPE = data, pe
				continue
			}
			for i := range ref {
				if ref[i] != data[i] {
					return fmt.Errorf("block %#x word %d: PE%d has %v, PE%d has %v",
						base, i, refPE, ref[i], pe, data[i])
				}
			}
		}
		if exclusive > 0 && holders > 1 {
			return fmt.Errorf("block %#x: exclusive copy among %d holders", base, holders)
		}
		if dirty > 1 {
			return fmt.Errorf("block %#x: %d dirty copies", base, dirty)
		}
	}
	return nil
}
