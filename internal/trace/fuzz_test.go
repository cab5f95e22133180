package trace

import (
	"bytes"
	"encoding/binary"
	"io"
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
func FuzzTraceReader(f *testing.F) {
	var buf bytes.Buffer
	tr := smallTrace()
	if err := tr.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(legacyV2(tr))
	f.Add(poked(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[hdrOff:], 0) }))
	f.Add(poked(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[hdrOff+4:], 0xFFFFFFFF) }))
	f.Add(poked(valid, func(b []byte) { b[ref0Off] = 9 }))
	f.Add(poked(valid, func(b []byte) { b[ref0Off+1] = 0xEE }))
	f.Add(poked(valid, func(b []byte) { binary.LittleEndian.PutUint64(b[hdrOff+24:], 1<<40) }))

	f.Fuzz(func(t *testing.T, raw []byte) {
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
		if err != nil {
			if !strings.HasPrefix(err.Error(), "trace: ") {
				t.Fatalf("unlabeled error %q", err)
			}
			return
		}
		if !sameRefs(streamed, got.Refs) {
			t.Fatal("streaming Reader and Read decoded different refs")
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
