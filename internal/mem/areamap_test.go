package mem

import (
	"math"
	"math/rand"
	"testing"

	"pimcache/internal/kl1/word"
)

// checkAreaMap compares m.Of with b.AreaOf on every address in [lo, hi].
func checkAreaMap(t *testing.T, b Bounds, m *AreaMap, lo, hi uint64) {
	t.Helper()
	for a := lo; a <= hi && a <= math.MaxUint32; a++ {
		if got, want := m.Of(word.Addr(a)), b.AreaOf(word.Addr(a)); got != want {
			t.Fatalf("bounds %+v: Of(%d) = %v, AreaOf = %v", b, a, got, want)
		}
	}
}

// boundaryAddrs lists the addresses where a classification error would
// show first: each bound, its neighbours, both ends of every granule
// and both ends of the address space.
func boundaryAddrs(b Bounds, m *AreaMap) []word.Addr {
	var out []word.Addr
	add := func(a uint64) {
		for _, d := range []uint64{0, 1, 2} {
			if a >= d && a-d <= math.MaxUint32 {
				out = append(out, word.Addr(a-d))
			}
			if a+d <= math.MaxUint32 {
				out = append(out, word.Addr(a+d))
			}
		}
	}
	for _, x := range []word.Addr{b.InstBase, b.HeapBase, b.GoalBase, b.SuspBase, b.CommBase, b.End} {
		add(uint64(x))
	}
	for i := uint64(0); i <= areaMapLen; i++ {
		add(uint64(b.InstBase) + i<<m.shift)
	}
	add(0)
	add(math.MaxUint32)
	return out
}

// TestAreaMapExhaustive compares the table with the compare chain on
// every address from 0 to End+64 of small layouts, including zero-size
// areas, the 1-5-word areas of the trace tests, and layouts just over
// the table's 256 words, whose granules straddle area boundaries.
func TestAreaMapExhaustive(t *testing.T) {
	layouts := []Layout{
		{},
		{InstWords: 1, HeapWords: 2, GoalWords: 3, SuspWords: 4, CommWords: 5},
		{InstWords: 0, HeapWords: 5, GoalWords: 0, SuspWords: 3, CommWords: 0},
		{InstWords: 7},
		{CommWords: 9},
		{InstWords: 64, HeapWords: 256, GoalWords: 256, SuspWords: 64, CommWords: 64},
		{InstWords: 16, HeapWords: 64, GoalWords: 16, SuspWords: 8, CommWords: 8},
		{InstWords: 1, HeapWords: 300, GoalWords: 1, SuspWords: 1, CommWords: 1},
		{InstWords: 100, HeapWords: 0, GoalWords: 57, SuspWords: 3, CommWords: 1},
		{InstWords: 3, HeapWords: 4093, GoalWords: 5, SuspWords: 0, CommWords: 7},
		smallLayout(),
	}
	for _, l := range layouts {
		b := l.Bounds()
		m := NewAreaMap(b)
		checkAreaMap(t, b, &m, 0, uint64(b.End)+64)
		for _, a := range boundaryAddrs(b, &m) {
			checkAreaMap(t, b, &m, uint64(a), uint64(a))
		}
	}
}

// TestAreaMapBundledLayouts pins the fast case: the default layout
// (which the benchmarks use) classifies every address exactly and has
// no straddling granule, so no in-layout reference takes the compare
// chain.
func TestAreaMapBundledLayouts(t *testing.T) {
	for _, l := range []Layout{DefaultLayout(), {InstWords: 16 << 10, HeapWords: 1 << 20, GoalWords: 256 << 10, SuspWords: 64 << 10, CommWords: 64 << 10}} {
		b := l.Bounds()
		m := NewAreaMap(b)
		checkAreaMap(t, b, &m, 0, uint64(b.End)+64)
		used := int((uint64(b.End-b.InstBase) + 1<<m.shift - 1) >> m.shift)
		for i := 0; i < used; i++ {
			if m.tab[i] == areaStraddle {
				t.Errorf("layout %+v: granule %d of %d straddles an area boundary", l, i, used)
			}
		}
	}
}

// TestAreaMapRandomLayouts is the property test: over random layouts,
// from tiny to ones that end just short of the address space, the table
// agrees with AreaOf on every boundary address and on random ones.
func TestAreaMapRandomLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	size := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Intn(8)
		case 2:
			return rng.Intn(1 << 16)
		default:
			return rng.Intn(maxTotalWords / 5)
		}
	}
	for n := 0; n < 2000; n++ {
		l := Layout{InstWords: size(), HeapWords: size(), GoalWords: size(), SuspWords: size(), CommWords: size()}
		b := l.Bounds()
		m := NewAreaMap(b)
		for _, a := range boundaryAddrs(b, &m) {
			checkAreaMap(t, b, &m, uint64(a), uint64(a))
		}
		for k := 0; k < 200; k++ {
			a := uint64(rng.Int63n(int64(b.End) + 1024))
			checkAreaMap(t, b, &m, a, a)
		}
	}
}

// TestAreaMapWrappedBounds covers bounds that are not monotonic, as a
// layout past the 32-bit address space gives: AreaOf still gives each
// area one interval, so the table still agrees with it.
func TestAreaMapWrappedBounds(t *testing.T) {
	l := Layout{InstWords: 1 << 31, HeapWords: 1<<31 - 8}
	if l.Validate() == nil {
		t.Fatal("Validate accepted a layout whose bounds wrap")
	}
	b := l.Bounds()
	if b.GoalBase >= b.HeapBase {
		t.Fatalf("bounds %+v do not wrap", b)
	}
	m := NewAreaMap(b)
	for _, a := range boundaryAddrs(b, &m) {
		checkAreaMap(t, b, &m, uint64(a), uint64(a))
	}
}

// FuzzAreaMap checks that the table agrees with AreaOf for any layout
// (valid or wrapping) and any address, and at every boundary address of
// that layout.
func FuzzAreaMap(f *testing.F) {
	f.Add(uint32(1), uint32(2), uint32(3), uint32(4), uint32(5), uint32(20))
	f.Add(uint32(64<<10), uint32(8<<20), uint32(1<<20), uint32(256<<10), uint32(64<<10), uint32(9<<20))
	f.Add(uint32(1), uint32(300), uint32(1), uint32(1), uint32(1), uint32(317))
	f.Add(uint32(1<<31), uint32(1<<31-8), uint32(0), uint32(0), uint32(0), uint32(1<<31+20))
	f.Add(uint32(maxTotalWords), uint32(0), uint32(0), uint32(0), uint32(0), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, inst, heap, goal, susp, comm, a uint32) {
		l := Layout{InstWords: int(inst), HeapWords: int(heap), GoalWords: int(goal), SuspWords: int(susp), CommWords: int(comm)}
		b := l.Bounds()
		m := NewAreaMap(b)
		checkAreaMap(t, b, &m, uint64(a), uint64(a))
		for _, x := range boundaryAddrs(b, &m) {
			checkAreaMap(t, b, &m, uint64(x), uint64(x))
		}
	})
}
