package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"pimcache/internal/kl1/word"
)

// eagerFreeList is the reference model for FreeList: the list as the
// paper describes it, every record linked through memory at boot, in
// ascending address order.
type eagerFreeList struct {
	recordWords int
	head        word.Addr
	free        int
}

func newEagerFreeList(m *Memory, base, limit word.Addr, recordWords int) *eagerFreeList {
	n := int(limit-base) / recordWords
	fl := &eagerFreeList{recordWords: recordWords, head: word.NilAddr, free: n}
	for i := n - 1; i >= 0; i-- {
		rec := base + word.Addr(i*recordWords)
		m.Write(rec, word.Free(fl.head))
		fl.head = rec
	}
	return fl
}

func (fl *eagerFreeList) Alloc(acc Accessor) (word.Addr, bool) {
	if fl.head == word.NilAddr {
		return 0, false
	}
	a := fl.head
	link := acc.Read(a)
	if link.Tag() != word.TagFree {
		panic(fmt.Sprintf("eager free list corrupted at %#x: %v", a, link))
	}
	fl.head = link.Addr()
	fl.free--
	return a, true
}

func (fl *eagerFreeList) Push(acc Accessor, a word.Addr) {
	acc.Write(a, word.Free(fl.head))
	fl.head = a
	fl.free++
}

// recordingAccessor logs the address of every read and the address and
// word of every write it forwards to memory.
type recordingAccessor struct {
	DirectAccessor
	log []string
}

func (r *recordingAccessor) Read(a word.Addr) word.Word {
	r.log = append(r.log, fmt.Sprintf("R %#x", a))
	return r.DirectAccessor.Read(a)
}

func (r *recordingAccessor) Write(a word.Addr, w word.Word) {
	r.log = append(r.log, fmt.Sprintf("W %#x %v", a, w))
	r.DirectAccessor.Write(a, w)
}

// TestFreeListMatchesEagerModel drives the lazy list and the eagerly
// linked model through the same seeded sequences of allocations, pushes
// of own and migrated records, and exhaustion. Both must hand out the
// same records, report the same Free(), and issue the same memory
// references with the same written words.
func TestFreeListMatchesEagerModel(t *testing.T) {
	const (
		lists       = 3
		recordWords = 8
		perList     = 6
	)
	layout := Layout{InstWords: 64, HeapWords: 64, GoalWords: lists * perList * recordWords, SuspWords: 8, CommWords: 8}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mLazy, mEager := New(layout), New(layout)
		accLazy := &recordingAccessor{DirectAccessor: DirectAccessor{mLazy}}
		accEager := &recordingAccessor{DirectAccessor: DirectAccessor{mEager}}
		base := mLazy.Bounds().GoalBase
		var lazy [lists]*FreeList
		var eager [lists]*eagerFreeList
		for i := range lists {
			lo := base + word.Addr(i*perList*recordWords)
			hi := lo + word.Addr(perList*recordWords)
			lazy[i] = NewFreeList(mLazy, lo, hi, recordWords)
			eager[i] = newEagerFreeList(mEager, lo, hi, recordWords)
		}
		var live []word.Addr
		alloc := func(step, i int) bool {
			a, ok := lazy[i].Alloc(accLazy)
			b, okB := eager[i].Alloc(accEager)
			if a != b || ok != okB {
				t.Fatalf("seed %d step %d: list %d Alloc = %#x,%v; eager model %#x,%v", seed, step, i, a, ok, b, okB)
			}
			if ok {
				live = append(live, a)
			}
			return ok
		}
		for step := range 300 {
			i := rng.Intn(lists)
			switch op := rng.Intn(10); {
			case op < 5:
				alloc(step, i)
			case op < 9 && len(live) > 0:
				// Push a live record to its own list or, as a migrated
				// goal is, to another PE's list.
				k := rng.Intn(len(live))
				a := live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				if op < 7 {
					i = int(a-base) / (perList * recordWords)
				}
				lazy[i].Push(accLazy, a)
				eager[i].Push(accEager, a)
			case op == 9:
				for alloc(step, i) {
				}
			}
			for j := range lists {
				if lazy[j].Free() != eager[j].free {
					t.Fatalf("seed %d step %d: list %d Free = %d, eager model %d", seed, step, j, lazy[j].Free(), eager[j].free)
				}
			}
		}
		if len(accLazy.log) != len(accEager.log) {
			t.Fatalf("seed %d: %d references, eager model %d", seed, len(accLazy.log), len(accEager.log))
		}
		for k := range accLazy.log {
			if accLazy.log[k] != accEager.log[k] {
				t.Fatalf("seed %d: reference %d is %q, eager model %q", seed, k, accLazy.log[k], accEager.log[k])
			}
		}
	}
}

func TestNewFreeListAllocatesNoPage(t *testing.T) {
	m := New(Layout{InstWords: 64, HeapWords: 64, GoalWords: 3 * pageWords, SuspWords: 8, CommWords: 8})
	b := m.Bounds()
	fl := NewFreeList(m, b.GoalBase, b.SuspBase, 8)
	if fl.Capacity() != 3*pageWords/8 {
		t.Fatalf("capacity = %d", fl.Capacity())
	}
	if n := allocatedPages(m); n != 0 {
		t.Errorf("NewFreeList allocated %d pages, want 0", n)
	}
}

func TestFreeListUntouchedRecordMustReadZero(t *testing.T) {
	m := New(smallLayout())
	base := m.Bounds().GoalBase
	fl := NewFreeList(m, base, base+32, 8)
	acc := DirectAccessor{m}
	m.Write(base+8, word.Int(7))
	if a, ok := fl.Alloc(acc); !ok || a != base {
		t.Fatalf("first alloc = %#x,%v; want %#x", a, ok, base)
	}
	mustPanic(t, "Alloc of a never-allocated record with a nonzero link", "free list corrupted", func() { fl.Alloc(acc) })
}
