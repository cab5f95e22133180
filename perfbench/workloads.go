package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"pimcache/internal/bench"
	"pimcache/internal/bench/programs"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/emulator"
	"pimcache/internal/kl1/parser"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// pes is the cluster size of every workload (the paper's 8-PE cluster).
const pes = 8

// chunkRefs is the trace format's chunk length: a buffer this long
// receives each checksummed chunk straight from the decoder.
const chunkRefs = 4096

// size scales the inputs. The timed runs use full; the self-test uses
// tiny so it finishes in seconds.
type size struct {
	name        string
	orRefs      int // replay-or8: synthetic references
	puzzleScale int // sweep-puzzle8: Puzzle scale
	triScale    int // live-tri8: Tri scale
}

var (
	full = size{"full", 4_000_000, programs.Puzzle().DefaultScale, programs.Tri().DefaultScale}
	tiny = size{"tiny", 50_000, programs.Puzzle().SmallScale, programs.Tri().SmallScale}
)

// sweepProtocols is pinned, not read from the protocol registry, so a
// newly registered protocol does not change the sweep's work.
var sweepProtocols = []string{"pim", "illinois", "writethrough", "moesi", "dragon", "adaptive"}

// outcome is one operation as perfbench saw it.
type outcome struct {
	setup, total time.Duration // host time to the first simulated reference, and to final stats
	sim          simResult
	layer        map[string]float64 // counts the layers report: chunks, emulator statistics
}

// runner performs operations on one workload's generated inputs. Each
// operation starts from a fresh machine, so the simulated caches start
// cold every time.
type runner interface {
	run() (outcome, error)             // untraced: the end-to-end path
	traced(t *tracer) (outcome, error) // spans around each call into a layer
}

// workload is one set of generated inputs and the operation run on
// them. Why each exists is in README.md.
type workload struct {
	name   string
	seeded bool // inputs depend on the seed
	gen    func(dir string, sz size, seed int64) error
	open   func(dir string, sz size, seed int64) (runner, error)
}

var workloads = []*workload{
	{
		name:   "replay-or8",
		seeded: true,
		gen:    genOR,
		open:   openOR,
	},
	{
		name: "sweep-puzzle8",
		gen:  genPuzzle,
		open: openPuzzle,
	},
	{
		name: "live-tri8",
		gen:  genTri,
		open: openTri,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// replayConfig is the replay workloads' cache: the paper's base cache,
// all optimized commands, stats-only as in `pimtrace replay -statsonly`.
func replayConfig() cache.Config {
	cfg := bench.BaseCache(cache.OptionsAll())
	cfg.StatsOnly = true
	return cfg
}

func protoName(cfg cache.Config) string { return cache.Protocols()[cfg.Protocol].Name() }

func ports(m *machine.Machine, n int) []mem.Accessor {
	p := make([]mem.Accessor, n)
	for i := range p {
		p[i] = m.Port(i)
	}
	return p
}

// writeInput creates path atomically through write, unless it exists.
func writeInput(path string, write func(w io.Writer) error) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return os.Rename(tmp, path)
}

// --- replay-or8 --------------------------------------------------------

func orPath(dir string, sz size, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("or8-%d-seed%d.trc", sz.orRefs, seed))
}

func genOR(dir string, sz size, seed int64) error {
	return writeInput(orPath(dir, sz, seed), func(w io.Writer) error {
		c := synth.DefaultConfig()
		c.PEs, c.Events, c.Seed = pes, sz.orRefs, seed
		return synth.ORParallel(c).Write(w)
	})
}

type replayOR struct {
	path string
	ccfg cache.Config
}

func openOR(dir string, sz size, seed int64) (runner, error) {
	path := orPath(dir, sz, seed)
	if _, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("input missing (generate it first): %w", err)
	}
	return &replayOR{path: path, ccfg: replayConfig()}, nil
}

// run is `pimtrace replay -statsonly`: trace.NewReader over a buffered
// file, then bench.ReplayReader.
func (w *replayOR) run() (outcome, error) {
	start := time.Now()
	f, err := os.Open(w.path)
	if err != nil {
		return outcome{}, err
	}
	defer f.Close()
	mark := &firstRead{r: bufio.NewReaderSize(f, 1<<20)}
	d, err := trace.NewReader(mark)
	if err != nil {
		return outcome{}, err
	}
	mark.armed = true
	bs, cs, _, err := bench.ReplayReader(d, w.ccfg, bus.DefaultTiming(), nil)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{sim: simResult{Runs: []protoRun{{protoName(w.ccfg), cs, bs}}}}
	o.total = time.Since(start)
	o.setup = mark.at.Sub(start)
	return o, nil
}

// traced drives the same replay layer by layer: Reader.Next over a
// timed reader, then ChunkReplayer.Replay, one span pair per chunk. Its
// stats must equal run's bit for bit (both are checked against the same
// digest).
func (w *replayOR) traced(t *tracer) (outcome, error) {
	start := time.Now()
	root := t.begin("replay-or8")
	s := t.begin("trace.open")
	f, err := os.Open(w.path)
	if err != nil {
		return outcome{}, err
	}
	defer f.Close()
	d, err := trace.NewReader(t.reader(bufio.NewReaderSize(f, 1<<20)))
	if err != nil {
		return outcome{}, err
	}
	t.end(s)
	s = t.begin("machine.New")
	m := machine.New(machine.Config{PEs: d.PEs(), Layout: d.Layout(), Cache: w.ccfg, Timing: bus.DefaultTiming()})
	cr, err := trace.NewChunkReplayer(d.PEs(), ports(m, d.PEs()))
	if err != nil {
		return outcome{}, err
	}
	t.end(s)
	setup := time.Since(start)

	step := "machine.step." + protoName(w.ccfg)
	buf := make([]trace.Ref, chunkRefs)
	done := 0
	for {
		s = t.begin("trace.Next")
		n, err := d.Next(buf)
		t.end(s)
		if n > 0 {
			s = t.begin(step)
			rerr := cr.Replay(buf[:n], done)
			t.end(s)
			if rerr != nil {
				return outcome{}, rerr
			}
			done += n
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return outcome{}, err
		}
	}
	o := outcome{setup: setup, sim: simResult{Runs: []protoRun{{protoName(w.ccfg), m.CacheStats(), m.BusStats()}}}}
	o.total = time.Since(start)
	t.end(root)
	o.layer = map[string]float64{"trace.chunks": float64(d.Chunks())}
	return o, nil
}

// --- sweep-puzzle8 -----------------------------------------------------

func puzzlePath(dir string, sz size) string {
	return filepath.Join(dir, fmt.Sprintf("puzzle-%d-%dpe.trc", sz.puzzleScale, pes))
}

func genPuzzle(dir string, sz size, _ int64) error {
	return writeInput(puzzlePath(dir, sz), func(w io.Writer) error {
		_, tr, err := bench.RunLive(programs.Puzzle(), sz.puzzleScale, pes, bench.BaseCache(cache.OptionsAll()), true)
		if err != nil {
			return err
		}
		return tr.Write(w)
	})
}

type sweepPuzzle struct {
	path  string
	cfgs  []cache.Config
	spans []string // span name of each protocol's replay
}

func openPuzzle(dir string, sz size, _ int64) (runner, error) {
	w := &sweepPuzzle{path: puzzlePath(dir, sz)}
	if _, err := os.Stat(w.path); err != nil {
		return nil, fmt.Errorf("input missing (generate it first): %w", err)
	}
	for _, name := range sweepProtocols {
		p, ok := cache.ProtocolByName(name)
		if !ok {
			return nil, fmt.Errorf("protocol %q is not registered", name)
		}
		cfg := replayConfig()
		cfg.Protocol = p
		w.cfgs = append(w.cfgs, cfg)
		w.spans = append(w.spans, "machine.step."+name)
	}
	return w, nil
}

func (w *sweepPuzzle) run() (outcome, error) { return w.op(nil) }

func (w *sweepPuzzle) traced(t *tracer) (outcome, error) { return w.op(t) }

// op loads the whole trace with trace.Read, then replays it through
// bench.ReplayConfig once per protocol.
func (w *sweepPuzzle) op(t *tracer) (outcome, error) {
	start := time.Now()
	root := t.begin("sweep-puzzle8")
	s := t.begin("trace.load")
	tr, err := loadTrace(w.path, t)
	if err != nil {
		return outcome{}, err
	}
	t.end(s)
	setup := time.Since(start)
	var sim simResult
	for i, cfg := range w.cfgs {
		s = t.begin(w.spans[i])
		bs, cs, err := bench.ReplayConfig(tr, cfg, bus.DefaultTiming())
		t.end(s)
		if err != nil {
			return outcome{}, err
		}
		sim.Runs = append(sim.Runs, protoRun{sweepProtocols[i], cs, bs})
	}
	o := outcome{setup: setup, sim: sim}
	o.total = time.Since(start)
	t.end(root)
	return o, nil
}

func loadTrace(path string, t *tracer) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(t.reader(bufio.NewReaderSize(f, 1<<20)))
}

// --- live-tri8 ---------------------------------------------------------

func triPaths(dir string, sz size) (src, want string) {
	base := filepath.Join(dir, fmt.Sprintf("tri-%d", sz.triScale))
	return base + ".fghc", base + ".expected"
}

func genTri(dir string, sz size, _ int64) error {
	src, want := triPaths(dir, sz)
	b := programs.Tri()
	if err := writeInput(src, func(w io.Writer) error {
		_, err := io.WriteString(w, b.Source(sz.triScale))
		return err
	}); err != nil {
		return err
	}
	return writeInput(want, func(w io.Writer) error {
		_, err := io.WriteString(w, b.Expected(sz.triScale))
		return err
	})
}

type liveTri struct {
	src    string
	want   string
	ccfg   cache.Config
	stream *trace.Trace // recorded by the first traced operation, untimed
}

func openTri(dir string, sz size, _ int64) (runner, error) {
	src, wantPath := triPaths(dir, sz)
	if _, err := os.Stat(src); err != nil {
		return nil, fmt.Errorf("input missing (generate it first): %w", err)
	}
	want, err := os.ReadFile(wantPath)
	if err != nil {
		return nil, err
	}
	return &liveTri{src: src, want: string(want), ccfg: bench.BaseCache(cache.OptionsAll())}, nil
}

func (w *liveTri) run() (outcome, error) { return w.live(nil, nil) }

// traced times the live run's set-up calls and splits its run by
// difference: the recorded stream of the same program is replayed
// data-carrying on a fresh machine, that replay is the machine's time,
// and the rest of the live run is the emulator's own time. Per-access
// timing would cost about as much as an access, so there is none.
func (w *liveTri) traced(t *tracer) (outcome, error) {
	if w.stream == nil {
		rec := trace.NewRecorder(pes, bench.Layout())
		if _, err := w.live(nil, rec); err != nil {
			return outcome{}, err
		}
		w.stream = rec.Trace()
	}
	o, err := w.live(t, nil)
	if err != nil {
		return o, err
	}
	m := machine.New(machine.Config{PEs: pes, Layout: w.stream.Layout, Cache: w.ccfg, Timing: bus.DefaultTiming()})
	root := t.begin("attribution")
	s := t.begin("machine.step." + protoName(w.ccfg))
	err = trace.Replay(w.stream, ports(m, pes))
	t.end(s)
	t.end(root)
	if err != nil {
		return o, err
	}
	if got := (protoRun{protoName(w.ccfg), m.CacheStats(), m.BusStats()}); got != o.sim.Runs[0] {
		return o, fmt.Errorf("replay of the recorded stream disagrees with the live run's cache/bus stats")
	}
	return o, nil
}

// live is bench.RunLive split at its layer boundaries: parse, compile,
// machine.New, emulator set-up, then the cluster run. A non-nil rec
// records the reference stream.
func (w *liveTri) live(t *tracer, rec *trace.Recorder) (outcome, error) {
	start := time.Now()
	root := t.begin("live-tri8")
	s := t.begin("kl1.parse")
	src, err := os.ReadFile(w.src)
	if err != nil {
		return outcome{}, err
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		return outcome{}, fmt.Errorf("parse: %w", err)
	}
	t.end(s)
	s = t.begin("kl1.compile")
	im, err := compile.Compile(prog, word.NewTable())
	if err != nil {
		return outcome{}, fmt.Errorf("compile: %w", err)
	}
	t.end(s)
	s = t.begin("machine.New")
	m := machine.New(machine.Config{PEs: pes, Layout: bench.Layout(), Cache: w.ccfg, Timing: bus.DefaultTiming()})
	t.end(s)
	s = t.begin("emulator.New")
	sh, err := emulator.NewShared(im, m.Memory(), pes, emulator.DefaultConfig())
	if err != nil {
		return outcome{}, err
	}
	cl := &emulator.Cluster{Machine: m, Shared: sh}
	for i := 0; i < pes; i++ {
		port := mem.Accessor(m.Port(i))
		if rec != nil {
			port = rec.Port(i, port)
		}
		e, err := emulator.NewEngine(sh, i, port)
		if err != nil {
			return outcome{}, err
		}
		cl.Engines = append(cl.Engines, e)
		m.Attach(i, e)
	}
	t.end(s)
	setup := time.Since(start)
	s = t.begin("emulator.run")
	res := cl.Run(0)
	t.end(s)
	o := outcome{setup: setup, sim: simResult{
		Runs:   []protoRun{{protoName(w.ccfg), m.CacheStats(), m.BusStats()}},
		Answer: res.Output,
	}}
	o.total = time.Since(start)
	t.end(root)
	if res.Failed {
		return o, fmt.Errorf("program failed: %s", res.FailReason)
	}
	if res.Output != w.want {
		return o, fmt.Errorf("wrong answer %q (want %q)", res.Output, w.want)
	}
	o.layer = map[string]float64{
		"machine.rounds":        float64(res.Rounds),
		"emulator.reductions":   float64(res.Emu.Reductions),
		"emulator.suspensions":  float64(res.Emu.Suspensions),
		"emulator.goals_stolen": float64(res.Emu.GoalsStolen),
	}
	return o, nil
}
