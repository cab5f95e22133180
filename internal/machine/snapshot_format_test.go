package machine_test

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/chaos"
	"pimcache/internal/machine"
	"pimcache/internal/safeio"
	"pimcache/internal/trace"
)

// formatSnapshot builds a small real snapshot for format tests.
func formatSnapshot(t *testing.T) *machine.Snapshot {
	t.Helper()
	tr := checkpointWorkload()
	ccfg := cache.DefaultConfig()
	m, ports := replayMachine(tr, ccfg)
	if err := trace.ReplayRange(tr, ports, 0, 2000); err != nil {
		t.Fatal(err)
	}
	snap := m.Checkpoint()
	snap.RefsReplayed = 2000
	return snap
}

// restoreOK round-trips snap through a decode and a Restore into a
// fresh machine, failing the test on any mismatch.
func restoreOK(t *testing.T, snap *machine.Snapshot, raw []byte) {
	t.Helper()
	got, err := machine.DecodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.RefsReplayed != snap.RefsReplayed || got.Steps != snap.Steps || got.Config != snap.Config {
		t.Fatalf("decoded snapshot differs: %d/%d refs, %d/%d steps",
			got.RefsReplayed, snap.RefsReplayed, got.Steps, snap.Steps)
	}
	m := machine.New(machine.Config{
		PEs: snap.Config.PEs, Layout: snap.Config.Layout,
		Cache: snap.Config.Cache, Timing: bus.DefaultTiming(),
	})
	if err := m.Restore(got); err != nil {
		t.Fatalf("restore decoded snapshot: %v", err)
	}
}

// TestSnapshotV1Rejected pins that the unchecksummed legacy PIMCKPT1
// format (magic + bare gob) is no longer decoded: it fails the magic
// check before gob sees a byte.
func TestSnapshotV1Rejected(t *testing.T) {
	snap := formatSnapshot(t)
	var buf bytes.Buffer
	buf.WriteString("PIMCKPT1\n")
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := machine.DecodeSnapshot(&buf); err == nil ||
		!strings.Contains(err.Error(), "bad checkpoint magic") {
		t.Errorf("PIMCKPT1 stream: %v, want bad checkpoint magic", err)
	}
}

// TestSnapshotV2DetectsCorruption pins the integrity frame: any
// flipped payload bit, torn tail or mangled length fails with a
// labeled error instead of reaching gob.
func TestSnapshotV2DetectsCorruption(t *testing.T) {
	snap := formatSnapshot(t)
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if !bytes.HasPrefix(raw, []byte(machine.SnapshotMagic)) {
		t.Fatalf("Encode wrote magic %q, want %q", raw[:9], machine.SnapshotMagic)
	}
	restoreOK(t, snap, raw)

	for _, off := range []int{len(machine.SnapshotMagic) + 12, len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x20
		if _, err := machine.DecodeSnapshot(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("bit flip at %d: %v, want checksum mismatch", off, err)
		}
	}

	torn := raw[:len(raw)-37]
	if _, err := machine.DecodeSnapshot(bytes.NewReader(torn)); err == nil ||
		!strings.Contains(err.Error(), "torn") {
		t.Errorf("torn payload: %v, want torn error", err)
	}

	tornFrame := raw[:len(machine.SnapshotMagic)+5]
	if _, err := machine.DecodeSnapshot(bytes.NewReader(tornFrame)); err == nil ||
		!strings.Contains(err.Error(), "torn") {
		t.Errorf("torn frame: %v, want torn error", err)
	}

	hugeLen := append([]byte(nil), raw...)
	for i := 0; i < 8; i++ {
		hugeLen[len(machine.SnapshotMagic)+i] = 0xFF
	}
	if _, err := machine.DecodeSnapshot(bytes.NewReader(hugeLen)); err == nil ||
		!strings.Contains(err.Error(), "payload length") {
		t.Errorf("huge length: %v, want length error", err)
	}
}

// TestSnapshotWriteFileAtomic pins the crash-safety contract of the
// checkpoint file: a write that dies mid-stream leaves the previous
// checkpoint byte-identical and decodable.
func TestSnapshotWriteFileAtomic(t *testing.T) {
	snap := formatSnapshot(t)
	path := filepath.Join(t.TempDir(), "resume.ckpt")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := machine.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.RefsReplayed != snap.RefsReplayed {
		t.Fatalf("round trip lost RefsReplayed: %d != %d", got.RefsReplayed, snap.RefsReplayed)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A later checkpoint write that tears must not damage this one.
	snap2 := formatSnapshot(t)
	snap2.RefsReplayed = 9999
	err = writeSnapshotTorn(path, snap2)
	if err == nil {
		t.Fatal("torn write reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("torn checkpoint write damaged the previous checkpoint")
	}
	if got, err := machine.ReadSnapshotFile(path); err != nil || got.RefsReplayed != snap.RefsReplayed {
		t.Fatalf("previous checkpoint unreadable after torn write: %v", err)
	}
}

// writeSnapshotTorn simulates a crash mid-checkpoint-write using the
// chaos writer inside the same atomic-write seam WriteFile uses.
func writeSnapshotTorn(path string, snap *machine.Snapshot) error {
	var full bytes.Buffer
	if err := snap.Encode(&full); err != nil {
		return err
	}
	tear := chaos.Fault{Kind: chaos.TornWrite, Offset: int64(full.Len() / 2)}
	return safeio.WriteFile(path, func(w io.Writer) error {
		return snap.Encode(chaos.NewWriter(w, tear))
	})
}
