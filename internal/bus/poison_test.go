package bus

import (
	"testing"

	"pimcache/internal/kl1/word"
)

// newPoisonBus builds a 2-PE bus with PoisonFetchData on.
func newPoisonBus(t *testing.T) (*Bus, []*fakeSnooper) {
	t.Helper()
	b := New(Config{Timing: DefaultTiming(), BlockWords: 4, PoisonFetchData: true}, testMemory())
	snoops := make([]*fakeSnooper, 2)
	for i := range snoops {
		snoops[i] = &fakeSnooper{bus: b, pe: i, data: make([]word.Word, 4)}
		b.Attach(i, snoops[i], &fakeLockUnit{bus: b, pe: i, locked: map[word.Addr]bool{}})
	}
	return b, snoops
}

// TestPoisonScribblesRetainedFetchData pins that poison mode actually
// enforces the FetchResult.Data contract: the aliased buffer is dead at
// the start of the next transaction. Without this, the machine-level
// poison-equivalence test could pass vacuously.
func TestPoisonScribblesRetainedFetchData(t *testing.T) {
	b, _ := newPoisonBus(t)
	base := b.Memory().Bounds().HeapBase
	b.Memory().Write(base+1, word.Int(44))

	res := b.Fetch(0, base+1, false, false, false)
	if res.Data[1] != word.Int(44) {
		t.Fatalf("fetched %v, want 44", res.Data[1])
	}
	// Next transaction: the retained slice must now read as poison.
	b.Invalidate(1, base+32, false)
	for i, w := range res.Data {
		if want := PoisonWord | word.Word(i); w != want {
			t.Fatalf("retained Data[%d] = %#x, want poison %#x", i, w, want)
		}
	}
}

// TestPoisonSparesSameTransactionWriteBack pins the other half of the
// contract: the fetched data stays valid across the same transaction's
// hidden victim write-back, which happens after Fetch returns but
// before the requester copies the block out.
func TestPoisonSparesSameTransactionWriteBack(t *testing.T) {
	b, _ := newPoisonBus(t)
	base := b.Memory().Bounds().HeapBase
	b.Memory().Write(base+2, word.Int(77))

	res := b.Fetch(0, base+2, false, true, false)
	victim := []word.Word{word.Int(1), word.Int(2), word.Int(3), word.Int(4)}
	b.SwapOutHidden(base+64, victim) // hidden write-back of the dirty victim
	if res.Data[2] != word.Int(77) {
		t.Fatalf("Data[2] = %v after hidden write-back, want 77", res.Data[2])
	}
	if got := b.Memory().Read(base + 65); got != word.Int(2) {
		t.Fatalf("victim word = %v, want 2", got)
	}
}
