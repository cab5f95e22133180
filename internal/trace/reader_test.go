package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
)

// encodeTrace serializes tr in the current format (v3) and returns the
// raw bytes for mutation.
func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Byte offsets into an encoded stream: the header, and the first
// reference of the first chunk ([PE, op, addr x4]).
const (
	hdrOff  = magicLen
	ref0Off = magicLen + headerBytes + 4 + frameBytes
)

// reseal recomputes the header CRC and every chunk CRC of a stream a
// test has poked, so the poke gets past the checksums and reaches the
// field validations behind them.
func reseal(raw []byte) []byte {
	hdr := raw[hdrOff : hdrOff+headerBytes]
	binary.LittleEndian.PutUint32(raw[hdrOff+headerBytes:], crc32.Checksum(hdr, castagnoli))
	for off := hdrOff + headerBytes + 4; off+frameBytes <= len(raw); {
		plen := int(binary.LittleEndian.Uint32(raw[off:]))
		payload := raw[off+frameBytes : min(off+frameBytes+plen, len(raw))]
		binary.LittleEndian.PutUint32(raw[off+4:], crc32.Checksum(payload, castagnoli))
		off += frameBytes + plen
	}
	return raw
}

// poked returns a resealed copy of raw with f applied.
func poked(raw []byte, f func(b []byte)) []byte {
	b := append([]byte(nil), raw...)
	f(b)
	return reseal(b)
}

// readErr runs both decoders (materializing Read and streaming Reader)
// over raw and requires each to fail with a message containing want.
func readErr(t *testing.T, label string, raw []byte, want string) {
	t.Helper()
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Errorf("%s: Read accepted corrupt stream", label)
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: Read error %q does not mention %q", label, err, want)
	}
	d, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: NewReader error %q does not mention %q", label, err, want)
		}
		return
	}
	buf := make([]Ref, 4096)
	for {
		_, err := d.Next(buf)
		if err == io.EOF {
			t.Errorf("%s: Reader accepted corrupt stream", label)
			return
		}
		if err != nil {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: Next error %q does not mention %q", label, err, want)
			}
			return
		}
	}
}

// smallTrace is a valid 4-PE stream for corruption tests.
func smallTrace() *Trace {
	tr := &Trace{PEs: 4, Layout: mem.Layout{InstWords: 16, HeapWords: 64, GoalWords: 16, SuspWords: 8, CommWords: 8}}
	for i := 0; i < 100; i++ {
		tr.Refs = append(tr.Refs, Ref{
			PE:   uint8(i % 4),
			Op:   cache.Op(i % int(cache.NumOps)),
			Addr: word.Addr(i * 3),
		})
	}
	return tr
}

// TestReaderRejectsCorruptHeader covers the header validations: a PE
// count of zero or above the bus limit, and a layout wider than the
// 32-bit address space. Each poke is resealed, so it passes the header
// CRC (TestV3HeaderChecksum covers an unsealed poke).
func TestReaderRejectsCorruptHeader(t *testing.T) {
	base := encodeTrace(t, smallTrace())

	zeroPE := poked(base, func(b []byte) { binary.LittleEndian.PutUint32(b[hdrOff:], 0) })
	readErr(t, "pe=0", zeroPE, "PE count")

	bigPE := poked(base, func(b []byte) { binary.LittleEndian.PutUint32(b[hdrOff:], 200) })
	readErr(t, "pe=200", bigPE, "PE count")

	hugeLayout := poked(base, func(b []byte) {
		for off := 4; off <= 20; off += 4 {
			binary.LittleEndian.PutUint32(b[hdrOff+off:], 0xFFFFFFFF)
		}
	})
	readErr(t, "huge layout", hugeLayout, "address space")

	readErr(t, "wrapping layout", poked(base, pokeWrappingLayout), "address space")
}

// pokeWrappingLayout writes a layout whose five areas total less than
// 2^32 words but whose bounds, after the 16 reserved words, wrap the
// address space: HeapBase lands at 2^31+16 but GoalBase = End = 8, so a
// replay would classify every heap address as AreaNone.
func pokeWrappingLayout(b []byte) {
	binary.LittleEndian.PutUint32(b[hdrOff+4:], 1<<31)
	binary.LittleEndian.PutUint32(b[hdrOff+8:], 1<<31-8)
	for off := 12; off <= 20; off += 4 {
		binary.LittleEndian.PutUint32(b[hdrOff+off:], 0)
	}
}

// TestWriteRejectsWrappingLayout pins the writer side of the layout
// check: a trace whose layout wraps the address space is refused before
// a byte is written, so no stream the reader rejects is ever produced.
func TestWriteRejectsWrappingLayout(t *testing.T) {
	tr := smallTrace()
	tr.Layout = mem.Layout{InstWords: 1 << 31, HeapWords: 1<<31 - 8}
	var buf bytes.Buffer
	err := tr.Write(&buf)
	if err == nil || !strings.HasPrefix(err.Error(), "trace: layout: ") || !strings.Contains(err.Error(), "address space") {
		t.Fatalf("Write error %v, want a labeled address-space error", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("Write emitted %d bytes before failing", buf.Len())
	}
}

// TestReaderRejectsCorruptRefs covers the per-reference validations: a
// PE byte at or above the header's count, and an unknown op byte. The
// chunk CRC is resealed over each poke.
func TestReaderRejectsCorruptRefs(t *testing.T) {
	base := encodeTrace(t, smallTrace())

	badPE := poked(base, func(b []byte) { b[ref0Off] = 9 }) // header says 4 PEs
	readErr(t, "bad ref PE", badPE, "out of range")

	badOp := poked(base, func(b []byte) { b[ref0Off+1] = 0xEE })
	readErr(t, "bad ref op", badOp, "unknown op")
}

// TestReadHugeDeclaredCount pins the preallocation guard: a header
// declaring 2^40 references over a one-chunk body must fail with a
// truncation error without first attempting a multi-terabyte
// allocation.
func TestReadHugeDeclaredCount(t *testing.T) {
	raw := poked(encodeTrace(t, smallTrace()), func(b []byte) {
		binary.LittleEndian.PutUint64(b[hdrOff+24:], 1<<40)
	})
	readErr(t, "huge count", raw, "truncated")
}

// TestReadAllocationTracksVerifiedData pins the bound behind that
// guard on a stream longer than maxPrealloc. Read's slice grows only
// when it is full of verified references, and at most doubles, never
// past the declared count. An intact stream therefore allocates under
// twice its references, and a header declaring 2^40 references over the
// same body fails with the labeled truncation error after allocating
// under four times the references that actually arrived.
func TestReadAllocationTracksVerifiedData(t *testing.T) {
	tr := &Trace{PEs: 4, Layout: smallTrace().Layout, Refs: make([]Ref, maxPrealloc+maxPrealloc/2)}
	for i := range tr.Refs {
		tr.Refs[i] = Ref{PE: uint8(i % 4), Op: cache.Op(i % int(cache.NumOps)), Addr: word.Addr(i % 100)}
	}
	raw := encodeTrace(t, tr)
	refsBytes := uint64(len(tr.Refs)) * uint64(unsafe.Sizeof(Ref{}))
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	var got *Trace
	var err error
	n := allocated(func() { got, err = Read(bytes.NewReader(raw)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Refs) != len(tr.Refs) {
		t.Fatalf("Read returned %d refs, want %d", len(got.Refs), len(tr.Refs))
	}
	if n > 2*refsBytes {
		t.Errorf("reading %d refs (%d bytes) allocated %d bytes, want at most twice that", len(tr.Refs), refsBytes, n)
	}

	huge := poked(raw, func(b []byte) { binary.LittleEndian.PutUint64(b[hdrOff+24:], 1<<40) })
	n = allocated(func() { _, err = Read(bytes.NewReader(huge)) })
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Read of a stream declaring 2^40 refs: err = %v, want a truncation error", err)
	}
	if n > 4*refsBytes {
		t.Errorf("corrupt count: %d verified refs (%d bytes) cost %d bytes of allocation, want at most four times that",
			len(tr.Refs), refsBytes, n)
	}
}

// TestReaderTruncatedMidStream checks both decoders report the cut
// position instead of returning a short stream.
func TestReaderTruncatedMidStream(t *testing.T) {
	rawV3 := encodeTrace(t, smallTrace())
	readErr(t, "v3 torn payload", rawV3[:len(rawV3)-5], "torn chunk")
	readErr(t, "v3 missing chunk", rawV3[:len(magicV3)+headerBytes+4], "next chunk missing")
	readErr(t, "v3 torn frame", rawV3[:len(magicV3)+headerBytes+4+3], "torn chunk frame")
}

// TestV3HeaderChecksum pins the v3 header CRC: any header mutation is
// caught before its fields are even interpreted.
func TestV3HeaderChecksum(t *testing.T) {
	raw := encodeTrace(t, smallTrace())
	for _, off := range []int{0, 4, 24, 31} {
		bad := append([]byte(nil), raw...)
		bad[len(magicV3)+off] ^= 0x01
		readErr(t, "header bit flip", bad, "header checksum mismatch")
	}
}

// TestV3ChunkChecksum is the fault class that motivates v3: a single
// flipped bit anywhere in a chunk payload — even in an address byte a
// v2 decoder would swallow silently — must fail with a checksum error
// naming the byte offset.
func TestV3ChunkChecksum(t *testing.T) {
	raw := encodeTrace(t, largeSyntheticTrace(refsPerChunk+200))
	body := len(magicV3) + headerBytes + 4
	for _, off := range []int{
		body + frameBytes + 2,            // address byte, first ref, first chunk
		body + frameBytes + refBytes*100, // PE byte mid-chunk
		len(raw) - 1,                     // final byte of final chunk
		body + frameBytes + refBytes*refsPerChunk + frameBytes, // first byte of second chunk
	} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x10
		readErr(t, "payload bit flip", bad, "checksum mismatch")
	}
	// A flipped frame: either the length check or the CRC catches it.
	badFrame := append([]byte(nil), raw...)
	badFrame[body] ^= 0x40
	readErr(t, "frame bit flip", badFrame, "chunk")
}

// TestV3RejectsOversizedChunk covers the frame-length validations: a
// length that is zero, not a multiple of the ref size, beyond the
// chunk cap, or larger than the refs remaining in the stream.
func TestV3RejectsOversizedChunk(t *testing.T) {
	raw := encodeTrace(t, smallTrace())
	frame := len(magicV3) + headerBytes + 4
	for _, plen := range []uint32{0, 7, refBytes*refsPerChunk + refBytes, refBytes * 101} {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(bad[frame:], plen)
		readErr(t, "bad frame length", bad, "corrupt chunk frame")
	}
}

// legacyV2 encodes tr in the retired PIMTRACE2 layout: magic, header,
// then a flat run of unchecksummed refs.
func legacyV2(tr *Trace) []byte {
	raw := append([]byte("PIMTRACE2\n"), tr.header()...)
	for i := range tr.Refs {
		raw = encodeRef(raw, &tr.Refs[i])
	}
	return raw
}

// TestBothVersionsRoundTrip pins that the written format (v3) reads back
// identically, and that a stream in the retired v2 format, which has no
// checksums, is rejected at the magic instead of decoded.
func TestBothVersionsRoundTrip(t *testing.T) {
	tr := largeSyntheticTrace(refsPerChunk*2 + 33)
	got, err := Read(bytes.NewReader(encodeTrace(t, tr)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.PEs != tr.PEs || got.Len() != tr.Len() || got.Layout != tr.Layout {
		t.Fatalf("header mismatch: %d/%d %+v", got.PEs, got.Len(), got.Layout)
	}
	for i := range tr.Refs {
		if got.Refs[i] != tr.Refs[i] {
			t.Fatalf("ref %d: %+v != %+v", i, got.Refs[i], tr.Refs[i])
		}
	}

	readErr(t, "v2 stream", legacyV2(tr), "bad magic")
	if _, err := Verify(bytes.NewReader(legacyV2(tr))); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("Verify of a v2 stream: %v, want bad magic", err)
	}
}

// TestReaderSmallDst checks Next with a destination smaller than a
// chunk: the pending buffer must deliver every ref exactly once.
func TestReaderSmallDst(t *testing.T) {
	tr := largeSyntheticTrace(refsPerChunk + 77)
	d, err := NewReader(bytes.NewReader(encodeTrace(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	var got []Ref
	dst := make([]Ref, 100) // not a divisor of refsPerChunk
	for {
		n, err := d.Next(dst)
		got = append(got, dst[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	if len(got) != tr.Len() {
		t.Fatalf("delivered %d refs, want %d", len(got), tr.Len())
	}
	for i := range got {
		if got[i] != tr.Refs[i] {
			t.Fatalf("ref %d: %+v != %+v", i, got[i], tr.Refs[i])
		}
	}
}

// TestSkipTo pins the resume seek: skipping to an arbitrary position
// delivers exactly the suffix, skipped chunks are still CRC-verified,
// and rewinds or beyond-count targets are rejected.
func TestSkipTo(t *testing.T) {
	tr := largeSyntheticTrace(refsPerChunk*2 + 50)
	raw := encodeTrace(t, tr)
	for _, target := range []uint64{0, 1, 100, refsPerChunk, refsPerChunk + 1, uint64(tr.Len()) - 1, uint64(tr.Len())} {
		d, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SkipTo(target); err != nil {
			t.Fatalf("SkipTo(%d): %v", target, err)
		}
		if d.Replayed() != target {
			t.Fatalf("SkipTo(%d): Replayed() = %d", target, d.Replayed())
		}
		var got []Ref
		dst := make([]Ref, 333)
		for {
			n, err := d.Next(dst)
			got = append(got, dst[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("SkipTo(%d) then Next: %v", target, err)
			}
		}
		want := tr.Refs[target:]
		if len(got) != len(want) {
			t.Fatalf("SkipTo(%d): %d refs after skip, want %d", target, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("SkipTo(%d): ref %d: %+v != %+v", target, i, got[i], want[i])
			}
		}
	}

	d, _ := NewReader(bytes.NewReader(raw))
	if err := d.SkipTo(10); err != nil {
		t.Fatal(err)
	}
	if err := d.SkipTo(5); err == nil || !strings.Contains(err.Error(), "rewind") {
		t.Errorf("rewind accepted: %v", err)
	}
	if err := d.SkipTo(uint64(tr.Len()) + 1); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Errorf("beyond-count skip accepted: %v", err)
	}
}

// TestSkipToDetectsCorruption: a resume seek must not glide over
// damage in the skipped region.
func TestSkipToDetectsCorruption(t *testing.T) {
	raw := encodeTrace(t, largeSyntheticTrace(refsPerChunk*2))
	bad := append([]byte(nil), raw...)
	bad[len(magicV3)+headerBytes+4+frameBytes+10] ^= 0x04 // inside chunk 0
	d, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	err = d.SkipTo(refsPerChunk + 5) // target inside chunk 1
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("SkipTo over corrupt chunk: %v, want checksum mismatch", err)
	}
}

// TestVerify pins the stream validator: a clean stream yields its
// summary, a corrupt one the same offset-labeled error a replay gets.
func TestVerify(t *testing.T) {
	tr := largeSyntheticTrace(refsPerChunk + 9)
	raw := encodeTrace(t, tr)
	info, err := Verify(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Verify clean stream: %v", err)
	}
	if info.PEs != tr.PEs || info.Refs != uint64(tr.Len()) || info.Chunks != 2 || info.Bytes != int64(len(raw)) {
		t.Errorf("VerifyInfo %+v (stream: %d refs, %d bytes)", info, tr.Len(), len(raw))
	}

	bad := append([]byte(nil), raw...)
	bad[len(bad)-3] ^= 0x80
	if _, err := Verify(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("Verify corrupt stream: %v", err)
	}

	torn := raw[:len(raw)-4]
	if _, err := Verify(bytes.NewReader(torn)); err == nil || !strings.Contains(err.Error(), "torn chunk") {
		t.Errorf("Verify torn stream: %v", err)
	}
}

// TestReaderHeader checks the streaming decoder surfaces the header
// verbatim.
func TestReaderHeader(t *testing.T) {
	tr := smallTrace()
	d, err := NewReader(bytes.NewReader(encodeTrace(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if d.PEs() != tr.PEs || d.Layout() != tr.Layout || d.Len() != uint64(tr.Len()) {
		t.Errorf("header mismatch: %d PEs, %+v, %d refs", d.PEs(), d.Layout(), d.Len())
	}
}
