package obs

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Watchdog detects stalled runs. The driving loop calls Pet on every
// unit of progress (a replayed chunk, a finished job); if no Pet
// arrives for the stall window, the watchdog writes a diagnosis to w —
// every goroutine's stack plus the phase timers — so a hung run
// explains itself instead of sitting silent until someone kills it.
// One dump per stall episode: after dumping, the watchdog re-arms only
// once progress resumes.
//
// A nil *Watchdog discards everything, so callers wire it
// unconditionally: NewWatchdog returns nil when the writer is nil or
// the window is not positive.
type Watchdog struct {
	w      io.Writer
	label  string
	stall  time.Duration
	phases *Phases

	pets  atomic.Uint64
	dumps atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewWatchdog makes a watchdog that dumps to w after stall without
// progress. phases may be nil (the dump then has no phase section).
// Returns nil — a disabled watchdog — when w is nil or stall is not
// positive.
func NewWatchdog(w io.Writer, label string, stall time.Duration, ph *Phases) *Watchdog {
	if w == nil || stall <= 0 {
		return nil
	}
	return &Watchdog{w: w, label: label, stall: stall, phases: ph, stop: make(chan struct{})}
}

// Pet records progress. Nil-safe, allocation-free — call it from hot
// loops.
func (d *Watchdog) Pet() {
	if d != nil {
		d.pets.Add(1)
	}
}

// Dumps reports how many stall dumps have fired. Nil-safe.
func (d *Watchdog) Dumps() uint64 {
	if d == nil {
		return 0
	}
	return d.dumps.Load()
}

// Start launches the monitoring goroutine and returns d for chaining.
// Nil-safe.
func (d *Watchdog) Start() *Watchdog {
	if d == nil {
		return nil
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		// Sample at a fraction of the window so a stall is detected
		// within ~1.25 windows worst case.
		period := d.stall / 4
		if period <= 0 {
			period = d.stall
		}
		t := time.NewTicker(period)
		defer t.Stop()
		var lastPets uint64
		var idle time.Duration
		armed := true
		for {
			select {
			case <-t.C:
				pets := d.pets.Load()
				if pets != lastPets {
					lastPets = pets
					idle = 0
					armed = true
					continue
				}
				idle += period
				if armed && idle >= d.stall {
					d.dump(idle)
					armed = false
				}
			case <-d.stop:
				return
			}
		}
	}()
	return d
}

// Stop halts the monitoring goroutine. Nil-safe and idempotent.
func (d *Watchdog) Stop() {
	if d == nil {
		return
	}
	d.stopOnce.Do(func() {
		close(d.stop)
		d.wg.Wait()
	})
}

// dump writes the stall diagnosis: what stalled, for how long, the
// phase timers so far, and every goroutine's stack. The dump is counted
// only once it is fully written, so a caller that sees Dumps advance can
// read the whole diagnosis.
func (d *Watchdog) dump(idle time.Duration) {
	fmt.Fprintf(d.w, "\n=== watchdog: %s stalled for %s (no progress) ===\n", d.label, idle.Round(time.Millisecond))
	if sum := d.phases.Summary(); len(sum) > 0 {
		fmt.Fprintf(d.w, "--- phase timers ---\n")
		for _, p := range sum {
			fmt.Fprintf(d.w, "  %-24s %8.3fs ×%d\n", p.Path, p.Seconds, p.Count)
		}
	}
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	fmt.Fprintf(d.w, "--- goroutine stacks ---\n%s\n=== end watchdog dump ===\n", buf)
	d.dumps.Add(1)
}
