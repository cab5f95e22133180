// Command perfbench is the simulator's benchmark: it times three
// workloads end to end in host time and, in a separate traced run,
// attributes that time to the simulator's layers. README.md lists the
// workloads and metrics; run.py builds and runs it:
//
//	python3 perfbench/run.py --workload replay-or8 --seed 1 --seconds 10 --trace 0
//	python3 perfbench/run.py --selftest
//	python3 perfbench/run.py --regen-digests
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd metrics come from untraced operations; all are host-side.
// Times are at the reference speed (refspeed.go).
var endToEnd = []metricDef{
	{"mrefs_per_s", "Mrefs/s"}, // simulated references per host second, set-up included
	{"run_s", "s"},             // one operation, from set-up to final stats
	{"setup_s", "s"},           // until the first reference is simulated
	{"peak_rss_mb", "MB"},      // peak resident memory of the process during one operation
	{"alloc_mb", "MB"},         // Go heap bytes allocated by one operation
}

// perLayer metrics come from the traced run. Times are host wall
// seconds, not scaled to the reference speed;
// cache and bus counts are simulated and must not move under a change
// that only speeds the simulator up. A layer that does no work on a
// workload reads 0 there.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"trace.read_s", "s"}, {"trace.decode_s", "s"}, {"trace.load_s", "s"},
		{"trace.chunks", "count"}, {"trace.bytes", "bytes"}, {"trace.mb_per_s", "MB/s"},
		{"machine.new_s", "s"}, {"machine.step_s", "s"}, {"machine.step_ns_per_ref", "ns"},
		{"machine.rounds", "count"},
		{"kl1.parse_s", "s"}, {"kl1.compile_s", "s"}, {"emulator.new_s", "s"},
		{"emulator.self_s", "s"}, {"emulator.self_ns_per_reduction", "ns"},
		{"emulator.reductions", "count"}, {"emulator.suspensions", "count"}, {"emulator.goals_stolen", "count"},
		{"cache.refs", "count"}, {"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.hit_ratio", "ratio"},
		{"cache.swapouts", "count"}, {"cache.invalidations", "count"}, {"cache.updates_received", "count"},
		{"cache.busy_waits", "count"}, {"cache.opt_applied", "count"}, {"cache.opt_degraded", "count"},
		{"cache.opt_applied_ratio", "ratio"}, {"cache.lr_exclusive_ratio", "ratio"},
		{"bus.cycles", "cycles"}, {"bus.txns", "count"}, {"bus.c2c", "count"}, {"bus.invalidates", "count"},
		{"bus.mem_busy_cycles", "cycles"}, {"bus.txns_per_kref", "count"},
		{"tracing.overhead_s", "s"},
	}
	for _, p := range sweepProtocols {
		m = append(m, metricDef{"machine.step_s." + p, "s"}, metricDef{"bus.cycles." + p, "cycles"})
	}
	return m
}()

// workDir holds generated inputs (inputDir) and span files. Like every
// path here it is relative to the repository root, where run.py starts
// perfbench.
const (
	workDir  = ".bench_build/perfbench"
	inputDir = workDir + "/inputs"
)

// defaultSeed is the seed the committed digests and the self-test use.
const defaultSeed = 1

// minOps is the fewest timed operations of each kind a run makes, even
// when they outlast --seconds.
const minOps = 3

func main() {
	var (
		name     = flag.String("workload", "", "workload: replay-or8, sweep-puzzle8 or live-tri8")
		seed     = flag.Int64("seed", defaultSeed, "input seed")
		seconds  = flag.Int("seconds", 30, "measuring time per run")
		traceRun = flag.Int("trace", 0, "1: traced run, reporting per-layer metrics")
		gen      = flag.Bool("gen", false, "only generate the workload's inputs for the seed")
		self     = flag.Bool("selftest", false, "check the harness at tiny sizes")
		regen    = flag.Bool("regen-digests", false, "recompute the committed simulated-stats digests")
	)
	flag.Parse()
	var err error
	switch {
	case *self:
		err = selftest()
	case *regen:
		err = regenDigests()
	default:
		var w *workload
		if w, err = workloadByName(*name); err != nil {
			break
		}
		if *gen {
			err = w.gen(inputDir, full, *seed)
			break
		}
		if *traceRun != 0 && *traceRun != 1 {
			err = fmt.Errorf("-trace must be 0 or 1")
			break
		}
		err = runBenchmark(w, *seed, time.Duration(*seconds)*time.Second, *traceRun == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runBenchmark(w *workload, seed int64, dur time.Duration, traced bool) error {
	r, err := w.open(inputDir, full, seed)
	if err != nil {
		return err
	}
	want, err := expectedDigest(w, r, full, seed)
	if err != nil {
		return err
	}
	h := &harness{r: r, want: want}
	res, err := h.measure(dur, traced)
	if err != nil {
		return err
	}
	if traced {
		path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := h.t.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %s (%d)\n", path, len(h.t.spans))
	}
	return printResult(res)
}

// expectedDigest is the committed digest for the inputs, or, for a seed
// with none, the digest of one untimed traced operation: every timed
// operation then still has to agree with the other replay path.
func expectedDigest(w *workload, r runner, sz size, seed int64) (string, error) {
	committed, err := loadDigests()
	if err != nil {
		return "", err
	}
	key := digestKey(w, sz, seed)
	if d, ok := committed[key]; ok {
		fmt.Printf("digest: %s (committed, %s)\n", d, key)
		return d, nil
	}
	o, err := r.traced(newTracer())
	if err != nil {
		return "", fmt.Errorf("reference operation: %w", err)
	}
	d := o.sim.digest()
	fmt.Printf("digest: %s (no committed digest for %s; reference from the traced path)\n", d, key)
	return d, nil
}

// harness runs operations one at a time and checks each against the
// expected simulated-stats digest.
type harness struct {
	r       runner
	want    string
	perturb bool // self-test: corrupt every result before it is checked
	t       *tracer

	attempted, failed int
	plain, traced     []*record
	last              *record // the latest operation, until the next kernel sample closes it
	err               error   // the harness itself failed; no result
}

// record is one successful timed operation.
type record struct {
	run, setup     float64 // wall seconds
	refs           float64 // simulated references
	allocMB, rssMB float64
	before, after  time.Duration      // reference kernel samples around the operation
	layers         map[string]float64 // traced operations only
}

// Times and throughput of the operation at the reference speed.
func (r *record) refRun() float64   { return r.run * refFactor(r.before, r.after) }
func (r *record) refSetup() float64 { return r.setup * refFactor(r.before, r.after) }
func (r *record) refMrefs() float64 { return r.refs / 1e6 / r.refRun() }

// sampleSpeed times the reference kernel; the sample closes the previous
// operation and opens the next one.
func (h *harness) sampleSpeed() time.Duration {
	k := refKernel()
	if h.last != nil {
		h.last.after = k
		h.last = nil
	}
	return k
}

// do runs one operation; keep=false makes it a warm-up, checked but not
// counted in the metrics.
func (h *harness) do(traced, keep bool) {
	// Every operation starts from a collected heap returned to the OS,
	// as in a fresh process: garbage left by the previous operation is
	// not charged to it, and its peak RSS is its own.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		h.err = err
		return
	}
	speed := h.sampleSpeed()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var o outcome
	var err error
	var first int
	if traced {
		first = h.t.startOp(h.attempted)
		o, err = h.r.traced(h.t)
	} else {
		o, err = h.r.run()
	}
	runtime.ReadMemStats(&after)
	rss, rssErr := peakRSS()
	if rssErr != nil {
		h.err = rssErr
		return
	}
	h.attempted++
	if err == nil {
		if h.perturb {
			o.sim.Runs[0].Cache.SwapOuts++
		}
		if got := o.sim.digest(); got != h.want {
			err = fmt.Errorf("simulated-stats digest %s, want %s", got, h.want)
		}
	}
	if err != nil {
		h.failed++
		fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %v\n", h.attempted-1, err)
		return
	}
	if !keep {
		return
	}
	rec := &record{
		run:     o.total.Seconds(),
		setup:   o.setup.Seconds(),
		refs:    float64(o.sim.refs()),
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		rssMB:   rss,
		before:  speed,
	}
	h.last = rec
	if traced {
		rec.layers = layerMetrics(o, h.t, first)
		h.traced = append(h.traced, rec)
	} else {
		h.plain = append(h.plain, rec)
	}
}

// measure runs warm-up operations, then operations until dur has passed.
// A traced run alternates untraced and traced operations: the untraced
// ones give tracing.overhead_s its base.
func (h *harness) measure(dur time.Duration, traced bool) (*result, error) {
	if traced {
		h.t = newTracer()
	}
	h.do(false, false)
	if traced {
		h.do(true, false)
	}
	deadline := time.Now().Add(dur)
	for i := 0; h.err == nil && (i < minOps || time.Now().Before(deadline)); i++ {
		h.do(false, true)
		if traced {
			h.do(true, true)
		}
	}
	h.sampleSpeed()
	if h.err != nil {
		return nil, h.err
	}
	res := &result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: map[string]metric{}}
	fmt.Printf("error_rate: %g (%d of %d operations failed)\n", float64(h.failed)/float64(h.attempted), h.failed, h.attempted)
	if len(h.plain) == 0 || (traced && len(h.traced) == 0) {
		return nil, fmt.Errorf("every operation failed")
	}
	if !traced {
		vals := map[string]float64{
			"mrefs_per_s": median(h.plain, (*record).refMrefs),
			"run_s":       median(h.plain, (*record).refRun),
			"setup_s":     median(h.plain, (*record).refSetup),
			"peak_rss_mb": median(h.plain, func(r *record) float64 { return r.rssMB }),
			"alloc_mb":    median(h.plain, func(r *record) float64 { return r.allocMB }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		fmt.Printf("%d operations measured, medians reported; times at the reference speed\n", len(h.plain))
		fmt.Printf("wall time: run_s %.6f s, setup_s %.6f s; reference kernel %.6f s (nominal %.3f s)\n",
			median(h.plain, func(r *record) float64 { return r.run }),
			median(h.plain, func(r *record) float64 { return r.setup }),
			median(h.plain, func(r *record) float64 { return r.before.Seconds() }),
			refNominal.Seconds())
		return res, nil
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{median(h.traced, func(r *record) float64 { return r.layers[m.name] }), m.unit}
	}
	overhead := median(h.traced, func(r *record) float64 { return r.run }) -
		median(h.plain, func(r *record) float64 { return r.run })
	res.Metrics["tracing.overhead_s"] = metric{overhead, "s"}
	fmt.Printf("%d traced and %d untraced operations measured, medians reported\n", len(h.traced), len(h.plain))
	return res, nil
}

// layerMetrics turns one traced operation's spans and counts into the
// per-layer metrics.
func layerMetrics(o outcome, t *tracer, first int) map[string]float64 {
	total, self := t.spanTimes(first)
	m := map[string]float64{}
	for k, v := range o.layer {
		m[k] = v
	}
	o.sim.counts(m)
	m["trace.read_s"] = total["trace.read"]
	m["trace.decode_s"] = self["trace.Next"] + self["trace.load"]
	m["trace.load_s"] = total["trace.load"]
	m["trace.bytes"] = float64(t.bytes)
	m["trace.mb_per_s"] = ratio(float64(t.bytes)/1e6, m["trace.read_s"]+m["trace.decode_s"])
	m["machine.new_s"] = total["machine.New"]
	step := sumPrefix(total, "machine.step.")
	m["machine.step_s"] = step
	for _, p := range sweepProtocols {
		m["machine.step_s."+p] = total["machine.step."+p]
	}
	m["machine.step_ns_per_ref"] = ratio(step*1e9, float64(o.sim.refs()))
	m["kl1.parse_s"] = total["kl1.parse"]
	m["kl1.compile_s"] = total["kl1.compile"]
	m["emulator.new_s"] = total["emulator.New"]
	if run, ok := total["emulator.run"]; ok {
		m["emulator.self_s"] = run - step
	}
	m["emulator.self_ns_per_reduction"] = ratio(m["emulator.self_s"]*1e9, m["emulator.reductions"])
	return m
}

func median(rs []*record, f func(*record) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// resetPeakRSS sets the process's resident-memory high-water mark to
// its current resident size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the process's resident-memory high-water mark in MB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) == 3 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// printResult prints every metric readably, then the JSON result line.
func printResult(res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		fmt.Printf("  %-34s %16.6f %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
