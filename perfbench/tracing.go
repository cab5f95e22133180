package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// caller's side of the call. Spans of one operation share Op; Parent is
// the ID of the enclosing span, or -1 for an operation's root span.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory until the run ends.
// A nil *tracer records nothing, so one operation body serves both the
// untraced and the traced run. perfbench runs on one goroutine, so spans
// nest strictly and the enclosing span is simply the innermost open one.
type tracer struct {
	epoch time.Time
	op    int
	cur   int // innermost open span, -1 outside any
	spans []span
	bytes uint64 // bytes delivered by readers wrapped with reader
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1} }

// startOp opens operation op and reports the index of its first span.
func (t *tracer) startOp(op int) int {
	t.op, t.cur, t.bytes = op, -1, 0
	return len(t.spans)
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: t.cur, Name: name, Start: int64(time.Since(t.epoch))})
	t.cur = id
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.cur = t.spans[id].Parent
}

// reader wraps r so each Read is a "trace.read" span under the caller's
// innermost open span. With a nil tracer r is returned unchanged.
func (t *tracer) reader(r io.Reader) io.Reader {
	if t == nil {
		return r
	}
	return &timedReader{r: r, t: t}
}

type timedReader struct {
	r io.Reader
	t *tracer
}

func (tr *timedReader) Read(p []byte) (int, error) {
	id := tr.t.begin("trace.read")
	n, err := tr.r.Read(p)
	tr.t.end(id)
	tr.t.bytes += uint64(n)
	return n, err
}

// spanTimes sums, per span name, the total and the self time (duration
// minus the part covered by child spans) of spans[from:].
func (t *tracer) spanTimes(from int) (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	children := map[int]float64{}
	for _, s := range t.spans[from:] {
		if s.Parent >= from {
			children[s.Parent] += float64(s.End - s.Start)
		}
	}
	for _, s := range t.spans[from:] {
		d := float64(s.End - s.Start)
		total[s.Name] += d / 1e9
		self[s.Name] += (d - children[s.ID]) / 1e9
	}
	return total, self
}

// sumPrefix adds the values of every name starting with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var v float64
	for k, x := range m {
		if strings.HasPrefix(k, prefix) {
			v += x
		}
	}
	return v
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// firstRead records when the first Read after arm happens: wrapped
// between trace.Reader and its source, that is the moment the replay
// asks for its first chunk, so everything before it is set-up.
type firstRead struct {
	r     io.Reader
	armed bool
	at    time.Time
}

func (f *firstRead) Read(p []byte) (int, error) {
	if f.armed {
		f.at, f.armed = time.Now(), false
	}
	return f.r.Read(p)
}
