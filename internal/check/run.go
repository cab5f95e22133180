package check

import (
	"fmt"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
)

// RunConfig selects one protocol/optimization/bus configuration for a
// checked run.
type RunConfig struct {
	Label    string
	Protocol cache.Protocol
	Options  cache.Options
	// StatsOnly runs the configuration without a data plane. Value
	// predictions (model reads, the flushed-memory image) cannot be
	// checked — there are no values — but every state-derived check
	// still runs, and RunAll requires the stats-only twin's statistics
	// to match the data-carrying run bit for bit.
	StatsOnly bool
}

// configLabel shortens a protocol name for matrix labels (the historic
// "wt" shorthand keeps existing repro corpora and log greps valid).
func configLabel(p cache.CoherenceProtocol) string {
	if p.ID() == cache.ProtocolWriteThrough {
		return "wt"
	}
	return p.Name()
}

// Configs is the differential matrix: every registered protocol with the
// optimized commands off and on. Enumerating the cache package's
// protocol registry means a newly registered FSM joins the matrix — and
// the fuzzer, the mutation gate and the equivalence twins built on it —
// with no change here. The generator's software contracts make every
// configuration agree with the flat model, so they transitively agree
// with each other.
func Configs() []RunConfig {
	var out []RunConfig
	for _, p := range cache.Protocols() {
		out = append(out,
			RunConfig{Label: configLabel(p) + "/none", Protocol: p.ID(), Options: cache.OptionsNone()},
			RunConfig{Label: configLabel(p) + "/all", Protocol: p.ID(), Options: cache.OptionsAll()},
		)
	}
	return out
}

// Result is the observable outcome of a run; it is comparable with ==,
// which is how the data-carrying and stats-only twins are required to
// match bit for bit.
type Result struct {
	Cache cache.Stats
	Bus   bus.Stats
}

// Failure describes one checker violation, with enough context to
// pinpoint the offending operation.
type Failure struct {
	Config  string
	OpIndex int // index into Seq.Ops, -1 for end-of-run checks
	Op      string
	Msg     string
}

// Error formats the failure on one line.
func (f *Failure) Error() string {
	if f.OpIndex < 0 {
		return fmt.Sprintf("[%s] at quiescence: %s", f.Config, f.Msg)
	}
	return fmt.Sprintf("[%s] op %d (%s): %s", f.Config, f.OpIndex, f.Op, f.Msg)
}

// harness is one machine under check: the real bus+caches, the flat
// model, and the per-PE op queues the round-robin scheduler drains.
type harness struct {
	cfg    RunConfig
	mem    *mem.Memory
	bus    *bus.Bus
	caches []*cache.Cache
	md     *model
	audit  *cycleAudit
}

func newHarness(pes int, rc RunConfig) *harness {
	var m *mem.Memory
	if rc.StatsOnly {
		// No data plane: seeding (and any later value check) is
		// impossible, which is fine — coherence decisions never read
		// values, the property the stats-only twin exists to pin.
		m = mem.NewStatsOnly(Layout())
	} else {
		m = mem.New(Layout())
		seedMemory(m)
	}
	b := bus.New(bus.Config{
		Timing:          bus.DefaultTiming(),
		BlockWords:      BlockWords,
		PoisonFetchData: !rc.StatsOnly,
		StatsOnly:       rc.StatsOnly,
	}, m)
	ccfg := cache.Config{
		SizeWords:     CacheWords,
		BlockWords:    BlockWords,
		Ways:          1,
		LockEntries:   4,
		Options:       rc.Options,
		Protocol:      rc.Protocol,
		VerifyDW:      true,
		PoisonBusData: !rc.StatsOnly,
		StatsOnly:     rc.StatsOnly,
	}
	if err := ccfg.Validate(); err != nil {
		panic(err)
	}
	caches := make([]*cache.Cache, pes)
	for i := range caches {
		caches[i] = cache.New(ccfg, i, b)
	}
	h := &harness{cfg: rc, mem: m, bus: b, caches: caches,
		md: newModel(), audit: &cycleAudit{}}
	b.SetProbe(h.audit)
	return h
}

// RunSeq executes s on one configuration, checking the model prediction
// of every read and lock grant, and the full invariant set after every
// operation. It returns the run's observable statistics and the first
// failure (nil when the run is clean).
func RunSeq(s *Seq, rc RunConfig) (Result, *Failure) {
	h := newHarness(s.PEs, rc)

	// Split the schedule into per-PE programs; the round-robin scheduler
	// below recreates the machine's deterministic interleaving, skipping
	// busy-waiting PEs exactly as machine.Run does.
	queues := make([][]int, s.PEs)
	for i, op := range s.Ops {
		queues[op.PE] = append(queues[op.PE], i)
	}
	remaining := len(s.Ops)
	maxRounds := 8*len(s.Ops) + 64
	for round := 0; remaining > 0; round++ {
		if round > maxRounds {
			return Result{}, &Failure{Config: rc.Label, OpIndex: -1,
				Msg: fmt.Sprintf("no quiescence after %d rounds: livelock or lost unlock broadcast", round)}
		}
		for pe := 0; pe < s.PEs; pe++ {
			if len(queues[pe]) == 0 || h.caches[pe].Blocked() {
				continue
			}
			idx := queues[pe][0]
			advanced, f := h.exec(idx, s.Ops[idx])
			if f != nil {
				return Result{}, f
			}
			if advanced {
				queues[pe] = queues[pe][1:]
				remaining--
			}
			if f := h.checkInvariants(idx, s.Ops[idx]); f != nil {
				return Result{}, f
			}
		}
	}
	if f := h.quiesce(); f != nil {
		return Result{}, f
	}
	var tot cache.Stats
	for _, c := range h.caches {
		st := c.Stats()
		tot.Add(&st)
	}
	return Result{Cache: tot, Bus: h.bus.Stats()}, nil
}

// exec runs one operation against the real cache and the model.
// advanced is false when an LR drew a lock hit and the PE must retry
// after the unlock broadcast. Panics from the cache layer (protocol
// assertions, DW contract checks, slice faults from poisoned buffers)
// are converted into failures.
func (h *harness) exec(idx int, op Op) (advanced bool, f *Failure) {
	defer func() {
		if r := recover(); r != nil {
			f = h.fail(idx, op, fmt.Sprintf("panic: %v", r))
		}
	}()
	c := h.caches[op.PE]
	switch op.Kind {
	case cache.OpR, cache.OpER, cache.OpRP, cache.OpRI:
		var got word.Word
		switch op.Kind {
		case cache.OpR:
			got = c.Read(op.Addr)
		case cache.OpER:
			got = c.ExclusiveRead(op.Addr)
		case cache.OpRP:
			got = c.ReadPurge(op.Addr)
		case cache.OpRI:
			got = c.ReadInvalidate(op.Addr)
		}
		if want := h.md.read(op.Addr); !h.cfg.StatsOnly && got != want {
			return false, h.fail(idx, op, fmt.Sprintf("read %v, model says %v", got, want))
		}
	case cache.OpW:
		c.Write(op.Addr, word.Int(op.Val))
		h.md.write(op.Addr, word.Int(op.Val))
	case cache.OpDW:
		c.DirectWrite(op.Addr, word.Int(op.Val))
		h.md.write(op.Addr, word.Int(op.Val))
	case cache.OpLR:
		wantBlocked := h.md.lockedByOther(op.PE, op.Addr)
		got, ok := c.LockRead(op.Addr)
		if ok == wantBlocked {
			return false, h.fail(idx, op, fmt.Sprintf(
				"lock grant=%v, model owner map says blocked=%v", ok, wantBlocked))
		}
		if !ok {
			if !c.Blocked() {
				return false, h.fail(idx, op, "LR denied but cache not busy-waiting")
			}
			return false, nil // retry after the unlock broadcast
		}
		if want := h.md.read(op.Addr); !h.cfg.StatsOnly && got != want {
			return false, h.fail(idx, op, fmt.Sprintf("locked read %v, model says %v", got, want))
		}
		if err := h.md.acquire(op.PE, op.Addr); err != nil {
			return false, h.fail(idx, op, err.Error())
		}
	case cache.OpUW:
		c.UnlockWrite(op.Addr, word.Int(op.Val))
		h.md.write(op.Addr, word.Int(op.Val))
		if err := h.md.release(op.PE, op.Addr); err != nil {
			return false, h.fail(idx, op, err.Error())
		}
	case cache.OpU:
		c.Unlock(op.Addr)
		if err := h.md.release(op.PE, op.Addr); err != nil {
			return false, h.fail(idx, op, err.Error())
		}
	default:
		return false, h.fail(idx, op, "unknown op kind")
	}
	return true, nil
}

// quiesce runs the end-of-run checks: no lock or busy-wait survives the
// schedule, flushed memory equals the model image word for word, and
// the probe-observed bus spans sum to the accounted cycle totals.
func (h *harness) quiesce() *Failure {
	for pe, c := range h.caches {
		if c.Blocked() {
			return h.failEnd(fmt.Sprintf("PE%d still busy-waiting on %#x", pe, c.BlockedOn()))
		}
		if n := c.LocksInUse(); n != 0 {
			return h.failEnd(fmt.Sprintf("PE%d still holds %d locks", pe, n))
		}
	}
	if n := h.bus.TotalLockCount(); n != 0 {
		return h.failEnd(fmt.Sprintf("bus lock filter counts %d held locks at quiescence", n))
	}
	if n := len(h.md.locks); n != 0 {
		return h.failEnd(fmt.Sprintf("model still holds %d locks (generator bug)", n))
	}
	for _, c := range h.caches {
		c.Flush()
	}
	if !h.cfg.StatsOnly {
		for _, base := range PoolBlocks() {
			for i := 0; i < BlockWords; i++ {
				a := base + word.Addr(i)
				if got, want := h.mem.Read(a), h.md.read(a); got != want {
					return h.failEnd(fmt.Sprintf(
						"memory[%#x] = %v after flush, model says %v", a, got, want))
				}
			}
		}
	}
	if err := h.audit.verify(h.bus.Stats()); err != nil {
		return h.failEnd(err.Error())
	}
	return nil
}

func (h *harness) fail(idx int, op Op, msg string) *Failure {
	return &Failure{Config: h.cfg.Label, OpIndex: idx, Op: op.String(), Msg: msg}
}

func (h *harness) failEnd(msg string) *Failure {
	return &Failure{Config: h.cfg.Label, OpIndex: -1, Msg: msg}
}

// RunAll runs s under the full configuration matrix, then re-runs every
// configuration with the data plane removed (stats-only), requiring
// bit-identical statistics. It returns the first failure. The bus
// presence and lock filters need no twin: the invariant checks compare
// them with a ground-truth scan after every operation.
func RunAll(s *Seq) *Failure {
	results := make(map[string]Result)
	for _, rc := range Configs() {
		res, f := RunSeq(s, rc)
		if f != nil {
			return f
		}
		results[rc.Label] = res
	}
	// Stats-only twins: coherence decisions must never depend on data
	// values, so removing the data plane entirely must leave every
	// statistic untouched. This is the equivalence DESIGN.md §11 argues
	// and the replay engine's fast path relies on.
	for _, rc := range Configs() {
		so := rc
		so.Label = rc.Label + "/statsonly"
		so.StatsOnly = true
		res, f := RunSeq(s, so)
		if f != nil {
			return f
		}
		if res != results[rc.Label] {
			return &Failure{Config: so.Label, OpIndex: -1, Msg: fmt.Sprintf(
				"data-carrying and stats-only runs diverge:\ndata:       %+v\nstats-only: %+v",
				results[rc.Label], res)}
		}
	}
	return nil
}

// Check decodes raw fuzz bytes and runs the full matrix; nil input (too
// short to decode) passes vacuously.
func Check(data []byte) *Failure {
	s := Decode(data)
	if s == nil {
		return nil
	}
	return RunAll(s)
}
