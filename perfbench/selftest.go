package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// selfTestRun is how long each self-test measurement lasts; minOps
// still applies.
const selfTestRun = 200 * time.Millisecond

// mayReadZero lists the per-layer metrics that may read 0 on every
// workload.
var mayReadZero = map[string]bool{
	"cache.busy_waits":   true, // no stream makes a PE busy-wait on a held lock
	"tracing.overhead_s": true, // a difference of two medians
}

// selftest checks the harness on tiny inputs: BENCHMARK.json declares
// exactly the metrics perfbench emits, with the same units; every run
// emits every metric and passes its digest check; each per-layer metric
// reads nonzero on some workload (a misspelt name never would); and an
// injected stats mismatch fails every operation.
func selftest() error {
	if err := checkDeclared("BENCHMARK.json"); err != nil {
		return err
	}
	committed, err := loadDigests()
	if err != nil {
		return err
	}
	nonzero := map[string]bool{}
	for _, w := range workloads {
		if err := w.gen(inputDir, tiny, defaultSeed); err != nil {
			return err
		}
		r, err := w.open(inputDir, tiny, defaultSeed)
		if err != nil {
			return err
		}
		want, ok := committed[digestKey(w, tiny, defaultSeed)]
		if !ok {
			return fmt.Errorf("%s: no committed digest for %s", w.name, digestKey(w, tiny, defaultSeed))
		}
		for _, traced := range []bool{false, true} {
			h := &harness{r: r, want: want}
			res, err := h.measure(selfTestRun, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if res.Failed != 0 {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if err := checkEmitted(res, defs, !traced); err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.name, traced, err)
			}
			for n, m := range res.Metrics {
				if m.Value != 0 {
					nonzero[n] = true
				}
			}
		}
		h := &harness{r: r, want: want, perturb: true}
		res, err := h.measure(selfTestRun, false)
		if err == nil || res != nil {
			return fmt.Errorf("%s: injected stats mismatch went undetected", w.name)
		}
		if h.failed != h.attempted || h.attempted == 0 {
			return fmt.Errorf("%s: injected stats mismatch failed %d of %d operations", w.name, h.failed, h.attempted)
		}
		fmt.Printf("selftest: %s ok (digest %s; injected mismatch failed %d of %d operations)\n",
			w.name, want, h.failed, h.attempted)
	}
	for _, m := range perLayer {
		if !nonzero[m.name] && !mayReadZero[m.name] {
			return fmt.Errorf("per-layer metric %s reads 0 on every workload", m.name)
		}
	}
	fmt.Println("selftest: ok")
	return nil
}

// checkEmitted checks that res holds exactly defs, each with its unit
// and a finite value, positive where positive is required.
func checkEmitted(res *result, defs []metricDef, positive bool) error {
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s not emitted", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case positive && !(m.Value > 0):
			return fmt.Errorf("metric %s = %v, want > 0", d.name, m.Value)
		}
	}
	return nil
}

// checkDeclared compares BENCHMARK.json's metric lists with perfbench's.
func checkDeclared(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, c := range []struct {
		key      string
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			return fmt.Errorf("%s: %s declares %d metrics, perfbench emits %d", path, c.key, len(c.declared), len(c.defs))
		}
		units := map[string]string{}
		for _, d := range c.defs {
			units[d.name] = d.unit
		}
		for _, d := range c.declared {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				return fmt.Errorf("%s: %s metric %s (%s) is not emitted with that unit", path, c.key, d.Name, d.Unit)
			}
		}
	}
	return nil
}

// regenDigests recomputes the committed digests at the default seed,
// for the full and the tiny inputs. Each digest is taken from both the
// untraced and the traced path, which must agree.
func regenDigests() error {
	m := map[string]string{}
	for _, sz := range []size{full, tiny} {
		for _, w := range workloads {
			if err := w.gen(inputDir, sz, defaultSeed); err != nil {
				return err
			}
			r, err := w.open(inputDir, sz, defaultSeed)
			if err != nil {
				return err
			}
			o, err := r.run()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			ot, err := r.traced(newTracer())
			if err != nil {
				return fmt.Errorf("%s traced: %w", w.name, err)
			}
			d := o.sim.digest()
			if dt := ot.sim.digest(); dt != d {
				return fmt.Errorf("%s: untraced digest %s, traced digest %s", w.name, d, dt)
			}
			key := digestKey(w, sz, defaultSeed)
			m[key] = d
			fmt.Printf("%s %s\n", key, d)
		}
	}
	return saveDigests(m)
}
