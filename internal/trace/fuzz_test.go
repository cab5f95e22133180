package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// FuzzTraceReader is the coverage-guided check of the trace decoder,
// the one parser that reads untrusted bytes. Every input must yield
// either a labeled error or a trace that survives a re-encode/re-decode
// round trip unchanged, and the streaming Reader must agree with Read
// on which it is. No input may panic, and Read's allocation must stay
// within the bound TestReadAllocationTracksVerifiedData pins: the
// header-sized first slice plus at most four times the references
// that actually arrived.
//
// The fuzzed skip target drives the checkpoint-resume seek: SkipTo
// then Next must either fail with a labeled error or deliver exactly
// the suffix of the references Read decodes.
func FuzzTraceReader(f *testing.F) {
	var buf bytes.Buffer
	tr := smallTrace()
	if err := tr.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	n := uint64(tr.Len())
	f.Add(valid, uint64(0))
	f.Add(valid, n/2)
	f.Add(valid, n)
	f.Add(valid, n+1)
	f.Add(valid[:len(valid)-5], n/2)
	f.Add(legacyV2(tr), uint64(0))
	f.Add(poked(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[hdrOff:], 0) }), uint64(0))
	f.Add(poked(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[hdrOff+4:], 0xFFFFFFFF) }), uint64(0))
	f.Add(poked(valid, pokeWrappingLayout), uint64(0))
	f.Add(poked(valid, func(b []byte) { b[ref0Off] = 9 }), n/2)
	f.Add(poked(valid, func(b []byte) { b[ref0Off+1] = 0xEE }), uint64(1))
	f.Add(poked(valid, func(b []byte) { binary.LittleEndian.PutUint64(b[hdrOff+24:], 1<<40) }), n+1)
	// Two chunks, skipping across the chunk boundary.
	long := &Trace{PEs: tr.PEs, Layout: tr.Layout}
	for i := 0; i < refsPerChunk+100; i++ {
		long.Refs = append(long.Refs, tr.Refs[i%tr.Len()])
	}
	var longBuf bytes.Buffer
	if err := long.Write(&longBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(longBuf.Bytes(), uint64(refsPerChunk+10))

	f.Fuzz(func(t *testing.T, raw []byte, skip uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Read(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)

		streamed, serr := streamAll(raw)
		if (err == nil) != (serr == nil) {
			t.Fatalf("Read error %v, streaming Reader error %v", err, serr)
		}
		if n, bound := after.TotalAlloc-before.TotalAlloc, allocBound(raw, len(streamed)); n > bound {
			t.Fatalf("decoding %d verified refs allocated %d bytes, bound %d", len(streamed), n, bound)
		}
		target, suffix, kerr := skipAndDrain(raw, skip)
		if kerr != nil && !strings.HasPrefix(kerr.Error(), "trace: ") {
			t.Fatalf("SkipTo(%d): unlabeled error %q", target, kerr)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "trace: ") {
				t.Fatalf("unlabeled error %q", err)
			}
			if kerr == nil {
				t.Fatalf("SkipTo(%d) then Next accepted a stream Read rejects: %v", target, err)
			}
			return
		}
		if !sameRefs(streamed, got.Refs) {
			t.Fatal("streaming Reader and Read decoded different refs")
		}
		switch {
		case target > uint64(got.Len()):
			if kerr == nil {
				t.Fatalf("SkipTo(%d) past the %d-ref stream succeeded", target, got.Len())
			}
		case kerr != nil:
			t.Fatalf("SkipTo(%d) on a valid %d-ref stream: %v", target, got.Len(), kerr)
		case !sameRefs(suffix, got.Refs[target:]):
			t.Fatalf("SkipTo(%d) then Next delivered %d refs, not the %d-ref suffix Read decoded",
				target, len(suffix), got.Len()-int(target))
		}

		var re bytes.Buffer
		if err := got.Write(&re); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := Read(&re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if again.PEs != got.PEs || again.Layout != got.Layout || !sameRefs(again.Refs, got.Refs) {
			t.Fatal("decoded trace changed across a re-encode/re-decode round trip")
		}
	})
}

// allocBound is Read's allocation bound for raw when verified refs
// arrived intact: the first slice, sized from the header's declared
// count but capped at maxPrealloc; doublings totalling at most four
// times the verified refs; and the Reader's fixed chunk and pending
// buffers.
func allocBound(raw []byte, verified int) uint64 {
	var declared uint64
	if len(raw) >= hdrOff+headerBytes {
		declared = binary.LittleEndian.Uint64(raw[hdrOff+24:])
	}
	ref := uint64(unsafe.Sizeof(Ref{}))
	fixed := uint64(frameBytes+refBytes*refsPerChunk) + refsPerChunk*ref + 8<<10
	return (min(declared, maxPrealloc)+4*uint64(verified))*ref + fixed
}

// streamAll decodes raw through the streaming Reader, returning the
// refs delivered before any error alongside it.
func streamAll(raw []byte) ([]Ref, error) {
	d, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var out []Ref
	dst := make([]Ref, 1000)
	for {
		n, err := d.Next(dst)
		out = append(out, dst[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// skipAndDrain seeks a fresh Reader over raw with SkipTo, then drains
// it with Next: the path a checkpoint resume takes. The fuzzed skip is
// reduced modulo the declared count plus two, so in-range targets and
// one past the end both occur; the reduced target is returned.
func skipAndDrain(raw []byte, skip uint64) (uint64, []Ref, error) {
	d, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		return skip, nil, err
	}
	target := skip % (min(d.Len(), math.MaxUint64-2) + 2)
	if err := d.SkipTo(target); err != nil {
		return target, nil, err
	}
	var out []Ref
	dst := make([]Ref, 1000)
	for {
		n, err := d.Next(dst)
		out = append(out, dst[:n]...)
		if err == io.EOF {
			return target, out, nil
		}
		if err != nil {
			return target, out, err
		}
	}
}

func sameRefs(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
