package mem

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pimcache/internal/kl1/word"
)

func smallLayout() Layout {
	return Layout{InstWords: 64, HeapWords: 256, GoalWords: 128, SuspWords: 64, CommWords: 32}
}

func TestLayoutBounds(t *testing.T) {
	l := smallLayout()
	b := l.Bounds()
	if b.InstBase != reservedWords {
		t.Fatalf("InstBase = %d", b.InstBase)
	}
	if b.HeapBase != b.InstBase+64 || b.GoalBase != b.HeapBase+256 ||
		b.SuspBase != b.GoalBase+128 || b.CommBase != b.SuspBase+64 ||
		b.End != b.CommBase+32 {
		t.Fatalf("unexpected bounds %+v", b)
	}
	if l.TotalWords() != int(b.End) {
		t.Errorf("TotalWords = %d, want %d", l.TotalWords(), b.End)
	}
}

func TestLayoutValidate(t *testing.T) {
	ok := []Layout{
		{},
		DefaultLayout(),
		{InstWords: maxTotalWords},
		{InstWords: maxTotalWords - 4, CommWords: 4},
	}
	for _, l := range ok {
		if err := l.Validate(); err != nil {
			t.Errorf("%+v: %v", l, err)
		}
		if b := l.Bounds(); b.End < b.CommBase || b.CommBase < b.InstBase {
			t.Errorf("%+v passes Validate but its bounds %+v wrap", l, b)
		}
	}
	bad := []Layout{
		{HeapWords: -1},
		{InstWords: maxTotalWords + 1},
		{InstWords: maxTotalWords - 4, CommWords: 5},
		{InstWords: 1 << 31, HeapWords: 1<<31 - 8},
		{InstWords: math.MaxInt, HeapWords: math.MaxInt},
	}
	for _, l := range bad {
		err := l.Validate()
		if err == nil {
			t.Errorf("%+v: Validate accepted it", l)
			continue
		}
		if l.HeapWords >= 0 && !strings.Contains(err.Error(), "address space") {
			t.Errorf("%+v: error %q does not mention the address space", l, err)
		}
	}
}

func TestAreaOf(t *testing.T) {
	b := smallLayout().Bounds()
	cases := []struct {
		a    word.Addr
		want Area
	}{
		{0, AreaNone},
		{reservedWords - 1, AreaNone},
		{b.InstBase, AreaInst},
		{b.HeapBase - 1, AreaInst},
		{b.HeapBase, AreaHeap},
		{b.GoalBase - 1, AreaHeap},
		{b.GoalBase, AreaGoal},
		{b.SuspBase, AreaSusp},
		{b.CommBase, AreaComm},
		{b.End - 1, AreaComm},
		{b.End, AreaNone},
		{b.End + 1000, AreaNone},
	}
	for _, tc := range cases {
		if got := b.AreaOf(tc.a); got != tc.want {
			t.Errorf("AreaOf(%d) = %v, want %v", tc.a, got, tc.want)
		}
	}
}

func TestAreaOfExhaustiveProperty(t *testing.T) {
	// Every address below End maps to exactly the area whose range
	// contains it, and area boundaries are contiguous.
	b := smallLayout().Bounds()
	prev := AreaNone
	transitions := 0
	for a := word.Addr(0); a < b.End; a++ {
		ar := b.AreaOf(a)
		if ar != prev {
			transitions++
			prev = ar
		}
	}
	if transitions != 5 { // none->inst->heap->goal->susp->comm
		t.Errorf("expected 5 area transitions, got %d", transitions)
	}
}

func TestAreaString(t *testing.T) {
	if AreaHeap.String() != "heap" || AreaComm.String() != "comm" {
		t.Error("unexpected area names")
	}
	if Area(99).String() != "area(99)" {
		t.Error("out-of-range area name")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := New(smallLayout())
	a := m.Bounds().HeapBase
	m.Write(a, word.Int(7))
	if got := m.Read(a); got.IntVal() != 7 {
		t.Errorf("read back %v", got)
	}
}

func TestMemoryBlockOps(t *testing.T) {
	m := New(smallLayout())
	base := m.Bounds().HeapBase
	src := []word.Word{word.Int(1), word.Int(2), word.Int(3), word.Int(4)}
	m.WriteBlock(base, src)
	dst := make([]word.Word, 4)
	m.ReadBlock(base, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("block word %d = %v, want %v", i, dst[i], src[i])
		}
	}
}

func TestBumpAlloc(t *testing.T) {
	b := NewBump(100, 110)
	a1, ok := b.Alloc(4)
	if !ok || a1 != 100 {
		t.Fatalf("first alloc = %d,%v", a1, ok)
	}
	a2, ok := b.Alloc(4)
	if !ok || a2 != 104 {
		t.Fatalf("second alloc = %d,%v", a2, ok)
	}
	if b.Used() != 8 || b.Free() != 2 {
		t.Errorf("Used=%d Free=%d", b.Used(), b.Free())
	}
	if _, ok := b.Alloc(4); ok {
		t.Error("allocation past limit succeeded")
	}
	// Exact fit must succeed.
	if a3, ok := b.Alloc(2); !ok || a3 != 108 {
		t.Errorf("exact-fit alloc = %d,%v", a3, ok)
	}
	b.Reset()
	if b.Used() != 0 {
		t.Error("Reset did not rewind")
	}
}

func TestBumpAllocAligned(t *testing.T) {
	b := NewBump(101, 200)
	a, ok := b.AllocAligned(4, 4)
	if !ok || a != 104 {
		t.Fatalf("aligned alloc = %d,%v; want 104", a, ok)
	}
	// Already aligned: no padding.
	a, ok = b.AllocAligned(4, 4)
	if !ok || a != 108 {
		t.Fatalf("second aligned alloc = %d, want 108", a)
	}
}

func TestBumpAllocAlignedProperty(t *testing.T) {
	f := func(start uint16, n, align uint8) bool {
		al := 1 << (align % 5) // 1,2,4,8,16
		b := NewBump(word.Addr(start), word.Addr(start)+1<<20)
		a, ok := b.AllocAligned(int(n)+1, al)
		return ok && int(a)%al == 0 && a >= word.Addr(start)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreeListAllocFree(t *testing.T) {
	m := New(smallLayout())
	base := m.Bounds().GoalBase
	fl := NewFreeList(m, base, base+32, 8)
	if fl.Capacity() != 4 || fl.Free() != 4 {
		t.Fatalf("capacity=%d free=%d", fl.Capacity(), fl.Free())
	}
	acc := DirectAccessor{m}
	a1, ok := fl.Alloc(acc)
	if !ok || a1 != base {
		t.Fatalf("first alloc = %#x,%v; want %#x", a1, ok, base)
	}
	a2, _ := fl.Alloc(acc)
	if a2 != base+8 {
		t.Fatalf("second alloc = %#x, want %#x", a2, base+8)
	}
	fl.Push(acc, a1)
	if fl.Free() != 3 {
		t.Errorf("free = %d, want 3", fl.Free())
	}
	a3, _ := fl.Alloc(acc)
	if a3 != a1 {
		t.Errorf("LIFO violated: got %#x, want %#x", a3, a1)
	}
}

func TestFreeListExhaustion(t *testing.T) {
	m := New(smallLayout())
	base := m.Bounds().SuspBase
	fl := NewFreeList(m, base, base+8, 4)
	acc := DirectAccessor{m}
	if _, ok := fl.Alloc(acc); !ok {
		t.Fatal("alloc 1 failed")
	}
	if _, ok := fl.Alloc(acc); !ok {
		t.Fatal("alloc 2 failed")
	}
	if _, ok := fl.Alloc(acc); ok {
		t.Error("alloc from empty list succeeded")
	}
}

func TestFreeListCrossListFree(t *testing.T) {
	// A record allocated from one PE's list may be freed to another's,
	// as happens when goals migrate during load balancing.
	m := New(smallLayout())
	base := m.Bounds().GoalBase
	acc := DirectAccessor{m}
	flA := NewFreeList(m, base, base+16, 8)
	flB := NewFreeList(m, base+16, base+32, 8)
	a, _ := flA.Alloc(acc)
	flB.Push(acc, a)
	if flB.Free() != 3 {
		t.Fatalf("flB.Free = %d, want 3", flB.Free())
	}
	got, _ := flB.Alloc(acc)
	if got != a {
		t.Errorf("expected migrated record back, got %#x", got)
	}
}

func TestFreeListAllocFreeInvariant(t *testing.T) {
	// Property: after any interleaving of allocs and frees, the number of
	// live records plus Free() equals Capacity(), and no record is handed
	// out twice.
	m := New(smallLayout())
	base := m.Bounds().GoalBase
	fl := NewFreeList(m, base, base+96, 8)
	acc := DirectAccessor{m}
	live := make(map[word.Addr]bool)
	seq := []byte{1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1}
	for i, op := range seq {
		if op == 1 {
			a, ok := fl.Alloc(acc)
			if !ok {
				continue
			}
			if live[a] {
				t.Fatalf("step %d: record %#x double-allocated", i, a)
			}
			live[a] = true
		} else {
			for a := range live {
				fl.Push(acc, a)
				delete(live, a)
				break
			}
		}
		if len(live)+fl.Free() != fl.Capacity() {
			t.Fatalf("step %d: live %d + free %d != cap %d", i, len(live), fl.Free(), fl.Capacity())
		}
	}
}

func TestDirectAccessor(t *testing.T) {
	m := New(smallLayout())
	acc := DirectAccessor{m}
	a := m.Bounds().HeapBase
	acc.Write(a, word.Int(1))
	acc.DirectWrite(a+1, word.Int(2))
	acc.UnlockWrite(a+2, word.Int(3))
	if acc.Read(a).IntVal() != 1 || acc.ExclusiveRead(a+1).IntVal() != 2 ||
		acc.ReadPurge(a+2).IntVal() != 3 || acc.ReadInvalidate(a).IntVal() != 1 {
		t.Error("direct accessor round trip failed")
	}
	if w, ok := acc.LockRead(a); !ok || w.IntVal() != 1 {
		t.Error("LockRead failed")
	}
	acc.Unlock(a) // no-op, must not panic
}

func TestSemispaceFlip(t *testing.T) {
	b := NewSemispace(100, 300)
	if !b.Semispace() {
		t.Fatal("not marked semispace")
	}
	if b.Base != 100 || b.Limit != 200 || b.OtherBase() != 200 || b.OtherLimit() != 300 {
		t.Fatalf("halves wrong: %+v", b)
	}
	a, ok := b.Alloc(50)
	if !ok || a != 100 {
		t.Fatalf("alloc %d,%v", a, ok)
	}
	b.Flip()
	if b.Base != 200 || b.Limit != 300 || b.Next != 200 || b.Scan != 200 {
		t.Fatalf("post-flip state: %+v", b)
	}
	if b.OtherBase() != 100 || b.OtherLimit() != 200 {
		t.Fatalf("other half wrong after flip: %+v", b)
	}
	// Allocation proceeds in the new half.
	a, ok = b.Alloc(10)
	if !ok || a != 200 {
		t.Fatalf("post-flip alloc %d,%v", a, ok)
	}
	// Flipping back restores the original half, empty.
	b.Flip()
	if b.Base != 100 || b.Next != 100 {
		t.Fatalf("second flip: %+v", b)
	}
}

func TestFlipOnPlainBumpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Flip on plain bump did not panic")
		}
	}()
	NewBump(0, 10).Flip()
}
