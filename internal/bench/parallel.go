package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/par"
	"pimcache/internal/trace"

	"pimcache/internal/bench/programs"
)

// Parallel evaluation engine.
//
// The evaluation is embarrassingly parallel: every live run builds its
// own machine.Machine, and every replay builds its own machine and shares
// only a read-only *trace.Trace with its siblings. collectParallel turns
// Collect into an explicit job graph executed on a bounded worker pool:
//
//   - one live-run job per (benchmark, PE count) of the PE sweep;
//   - the live run at Options.PEs is the record job: it additionally
//     captures the benchmark's reference stream, and on completion
//     submits that benchmark's replay jobs (Table 4 variants, Figure 1/2
//     sweeps, associativity ablation, two-word bus, Illinois and
//     write-through baselines) — replay jobs are gated on the trace
//     existing, never blocked waiting for it inside a worker;
//   - each replay job writes its result into a slot addressed by job
//     identity (benchmark × configuration index), so the assembled Data
//     is deterministic and byte-identical to the serial path regardless
//     of completion order;
//   - a per-benchmark consumer count releases the trace as soon as its
//     last replay finishes, preserving the serial path's bounded-memory
//     property (traces do not accumulate for the whole run).
type benchState struct {
	bench programs.Benchmark
	scale int
	bd    *BenchData

	// live results, indexed by position in Options.PESweep.
	live []*RunData

	// opt replay results, indexed by position in OptVariants.
	optBus   []bus.Stats
	optCache []cache.Stats

	// trace lifetime management.
	mu        sync.Mutex
	tr        *trace.Trace
	consumers atomic.Int32

	// rep routes this benchmark's replays (cold or through a shared warm
	// cache); set by the record job before any replay is submitted.
	rep *replayer
}

// traceDone records one finished replay; the last consumer drops the
// trace so its memory can be reclaimed while other benchmarks still run.
func (st *benchState) traceDone() {
	if st.consumers.Add(-1) == 0 {
		st.mu.Lock()
		st.tr = nil
		st.mu.Unlock()
	}
}

func (st *benchState) trace() *trace.Trace {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tr
}

// replayConsumers counts the replay jobs that will read a trace.
func replayConsumers(o Options) int {
	n := len(OptVariants)
	if !o.SkipSweeps {
		n += len(o.BlockSizes) + len(o.Capacities) + len(o.Associativities)
		n += 3 // two-word bus, Illinois, write-through
		n += len(altProtocols())
	}
	return n
}

// collectParallel executes the evaluation's job graph on a worker pool of
// par.Jobs(o.Jobs) simulations.
func collectParallel(o Options) (*Data, error) {
	pw := newProgressLog(o.Progress)
	selected := selectedBenchmarks(o)

	// The record job is the root of each benchmark's graph; without it no
	// replay can run, so reject the configuration upfront (the serial
	// path discovers this after the sweep; the error is the same).
	recordIdx := -1
	for i, pes := range o.PESweep {
		if pes == o.PEs {
			recordIdx = i
			break
		}
	}
	if recordIdx < 0 && len(selected) > 0 {
		return nil, fmt.Errorf("%s: PESweep %v does not include PEs=%d",
			selected[0].Name, o.PESweep, o.PEs)
	}

	data := &Data{Options: o}
	states := make([]*benchState, len(selected))
	pool := par.NewCtx(o.ctx(), o.Jobs)
	for i, b := range selected {
		st := &benchState{
			bench: b,
			scale: o.ScaleFor(b),
			bd: &BenchData{
				Name:      b.Name,
				Scale:     o.ScaleFor(b),
				Lines:     b.Lines(),
				LiveByPEs: map[int]*RunData{},
				OptBus:    map[string]bus.Stats{},
				OptCache:  map[string]cache.Stats{},
			},
			live:     make([]*RunData, len(o.PESweep)),
			optBus:   make([]bus.Stats, len(OptVariants)),
			optCache: make([]cache.Stats, len(OptVariants)),
		}
		if !o.SkipSweeps {
			st.bd.BlockSweep = make([]SweepPoint, len(o.BlockSizes))
			st.bd.CapSweep = make([]SweepPoint, len(o.Capacities))
			st.bd.WaySweep = make([]SweepPoint, len(o.Associativities))
			// One slot per extra protocol: jobs write by index, so the
			// assembled slice is deterministic and race-free.
			st.bd.AltBus = make([]ProtocolStats, len(altProtocols()))
		}
		st.consumers.Store(int32(replayConsumers(o)))
		states[i] = st
		data.Benches = append(data.Benches, st.bd)
		submitLiveJobs(pool, pw, o, st, recordIdx)
	}
	if err := pool.Wait(); err != nil {
		return nil, err
	}
	// Deterministic assembly: maps are populated in canonical order from
	// the per-job slots, never from completion order.
	for _, st := range states {
		for i, pes := range o.PESweep {
			st.bd.LiveByPEs[pes] = st.live[i]
		}
		for i, v := range OptVariants {
			st.bd.OptBus[v.Name] = st.optBus[i]
			st.bd.OptCache[v.Name] = st.optCache[i]
		}
	}
	return data, nil
}

// submitLiveJobs enqueues one live run per PE-sweep point. The record run
// (pes == Options.PEs) chains the benchmark's replay jobs.
func submitLiveJobs(pool *par.Pool, pw *progressLog, o Options, st *benchState, recordIdx int) {
	for i, pes := range o.PESweep {
		i, pes := i, pes
		record := i == recordIdx
		pool.Go(func() error {
			pw.Printf(st.bench.Name, "live run on %d PEs (scale %d)", pes, st.scale)
			sp := o.Phases.Start("live/" + st.bench.Name)
			rd, tr, err := RunLive(st.bench, st.scale, pes, BaseCache(cache.OptionsAll()), record)
			sp.End()
			if err != nil {
				return err
			}
			o.Metrics.Counter("bench.live.runs").Inc()
			st.live[i] = rd
			if record {
				st.bd.Refs = rd.Cache
				st.mu.Lock()
				st.tr = tr
				st.mu.Unlock()
				st.rep = o.newReplayer(tr.Len())
				submitReplayJobs(pool, pw, o, st)
			}
			return nil
		})
	}
}

// submitReplayJobs fans a benchmark's replays out as independent jobs.
// Called from inside the record job, so the trace is already available;
// Pool.Go never blocks the calling worker.
func submitReplayJobs(pool *par.Pool, pw *progressLog, o Options, st *benchState) {
	name := st.bench.Name
	replay := func(label string, job func(tr *trace.Trace) error) {
		pool.Go(func() error {
			defer st.traceDone()
			tr := st.trace()
			if tr == nil {
				return fmt.Errorf("%s/%s: trace released early", name, label)
			}
			pw.Printf(name, "replay %s (%d refs)", label, tr.Len())
			sp := o.Phases.Start("replay/" + name)
			err := job(tr)
			sp.End()
			return err
		})
	}
	for i, v := range OptVariants {
		i, v := i, v
		replay(v.Name, func(tr *trace.Trace) error {
			bs, cs, err := st.rep.Replay(tr, BaseCache(v.Opts), bus.DefaultTiming())
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, v.Name, err)
			}
			st.optBus[i], st.optCache[i] = bs, cs
			return nil
		})
	}
	if o.SkipSweeps {
		return
	}
	for i, bw := range o.BlockSizes {
		i, bw := i, bw
		replay(fmt.Sprintf("block=%d", bw), func(tr *trace.Trace) error {
			cfg := BaseCache(cache.OptionsAll())
			cfg.BlockWords = bw
			bs, cs, err := st.rep.Replay(tr, cfg, bus.DefaultTiming())
			if err != nil {
				return fmt.Errorf("%s/block%d: %w", name, bw, err)
			}
			st.bd.BlockSweep[i] = SweepPoint{
				Param: bw, MissRatio: cs.MissRatio(), BusCycles: bs.TotalCycles,
				DirectoryBits: cfg.DirectoryBits(),
			}
			return nil
		})
	}
	for i, size := range o.Capacities {
		i, size := i, size
		replay(fmt.Sprintf("capacity=%d", size), func(tr *trace.Trace) error {
			cfg := BaseCache(cache.OptionsAll())
			cfg.SizeWords = size
			bs, cs, err := st.rep.Replay(tr, cfg, bus.DefaultTiming())
			if err != nil {
				return fmt.Errorf("%s/size%d: %w", name, size, err)
			}
			st.bd.CapSweep[i] = SweepPoint{
				Param: size, MissRatio: cs.MissRatio(), BusCycles: bs.TotalCycles,
				DirectoryBits: cfg.DirectoryBits(),
			}
			return nil
		})
	}
	for i, ways := range o.Associativities {
		i, ways := i, ways
		replay(fmt.Sprintf("ways=%d", ways), func(tr *trace.Trace) error {
			cfg := BaseCache(cache.OptionsAll())
			cfg.Ways = ways
			bs, cs, err := st.rep.Replay(tr, cfg, bus.DefaultTiming())
			if err != nil {
				return fmt.Errorf("%s/ways%d: %w", name, ways, err)
			}
			st.bd.WaySweep[i] = SweepPoint{
				Param: ways, MissRatio: cs.MissRatio(), BusCycles: bs.TotalCycles,
			}
			return nil
		})
	}
	replay("two-word bus", func(tr *trace.Trace) error {
		bs, _, err := st.rep.Replay(tr, BaseCache(cache.OptionsAll()),
			bus.Timing{MemCycles: 8, WidthWords: 2})
		if err != nil {
			return err
		}
		st.bd.Width2 = bs
		return nil
	})
	replay("Illinois", func(tr *trace.Trace) error {
		cfg := BaseCache(cache.OptionsNone())
		cfg.Protocol = cache.ProtocolIllinois
		bs, _, err := st.rep.Replay(tr, cfg, bus.DefaultTiming())
		if err != nil {
			return err
		}
		st.bd.Illinois = bs
		return nil
	})
	replay("write-through", func(tr *trace.Trace) error {
		cfg := BaseCache(cache.OptionsNone())
		cfg.Protocol = cache.ProtocolWriteThrough
		bs, _, err := st.rep.Replay(tr, cfg, bus.DefaultTiming())
		if err != nil {
			return err
		}
		st.bd.WriteThrough = bs
		return nil
	})
	for i, ap := range altProtocols() {
		i, ap := i, ap
		replay(ap.String(), func(tr *trace.Trace) error {
			cfg := BaseCache(cache.OptionsNone())
			cfg.Protocol = ap
			bs, _, err := st.rep.Replay(tr, cfg, bus.DefaultTiming())
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, ap, err)
			}
			st.bd.AltBus[i] = ProtocolStats{Name: ap.String(), Bus: bs}
			return nil
		})
	}
}
