package mem

import (
	"math/rand"
	"strings"
	"testing"

	"pimcache/internal/kl1/word"
)

// pagedLayout spans a few pages and ends partway through the last one,
// so the page table's final page extends past Size.
func pagedLayout() Layout {
	return Layout{InstWords: 100, HeapWords: 4 * pageWords, GoalWords: 500, SuspWords: 64, CommWords: 7}
}

func allocatedPages(m *Memory) int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("%s panicked with %v, want a message containing %q", what, r, want)
		}
	}()
	f()
}

func TestPagedUnwrittenReadsZero(t *testing.T) {
	m := New(pagedLayout())
	if m.Size()%pageWords == 0 {
		t.Fatal("layout must end partway through a page")
	}
	for _, a := range []word.Addr{0, pageWords - 1, pageWords, 2*pageWords + 17, word.Addr(m.Size() - 1)} {
		if got := m.Read(a); got != 0 {
			t.Errorf("Read(%d) of a never-written page = %v, want 0", a, got)
		}
	}
	dst := []word.Word{1, 2, 3, 4, 5, 6}
	m.ReadBlock(pageWords-3, dst)
	for i, w := range dst {
		if w != 0 {
			t.Errorf("ReadBlock word %d of never-written pages = %v, want 0", i, w)
		}
	}
	if n := allocatedPages(m); n != 0 {
		t.Errorf("reads allocated %d pages, want 0", n)
	}

	// A write allocates its page only; neighbours still read zero.
	m.Write(pageWords+5, word.Int(9))
	if n := allocatedPages(m); n != 1 {
		t.Errorf("one write allocated %d pages, want 1", n)
	}
	if got := m.Read(pageWords + 4); got != 0 {
		t.Errorf("unwritten word on a written page = %v, want 0", got)
	}
	if got := m.Read(pageWords + 5); got != word.Int(9) {
		t.Errorf("Read back %v, want %v", got, word.Int(9))
	}
}

func TestPagedBlockOpsAcrossPages(t *testing.T) {
	m := New(pagedLayout())
	size := m.Size()
	cases := []struct {
		name string
		base word.Addr
		n    int
	}{
		{"within one page", pageWords + 8, 4},
		{"across a page boundary", pageWords - 3, 8},
		{"spanning a whole page", pageWords - 1, pageWords + 2},
		{"into the last, partial page", word.Addr(size - size%pageWords - 2), 5},
		{"ending at Size", word.Addr(size - 6), 6},
	}
	for k, tc := range cases {
		src := make([]word.Word, tc.n)
		for i := range src {
			src[i] = word.Int(int64(1000*k + i + 1))
		}
		m.WriteBlock(tc.base, src)
		dst := make([]word.Word, tc.n)
		m.ReadBlock(tc.base, dst)
		for i := range src {
			if dst[i] != src[i] {
				t.Fatalf("%s: block word %d = %v, want %v", tc.name, i, dst[i], src[i])
			}
			if got := m.Read(tc.base + word.Addr(i)); got != src[i] {
				t.Fatalf("%s: Read(%d) = %v, want %v", tc.name, tc.base+word.Addr(i), got, src[i])
			}
		}
	}
}

func TestPagedOutOfRangePanics(t *testing.T) {
	m := New(pagedLayout())
	end := word.Addr(m.Size())
	// end lies on the last page, which extends past Size: only the
	// explicit bound check stops these accesses.
	if int(end>>pageShift) >= len(m.pages) {
		t.Fatal("layout must end partway through a page")
	}
	const want = "mem: access to words"
	mustPanic(t, "Read(Size)", want, func() { m.Read(end) })
	mustPanic(t, "Write(Size)", want, func() { m.Write(end, 1) })
	mustPanic(t, "Read past the page table", want, func() { m.Read(end + 10*pageWords) })
	mustPanic(t, "ReadBlock over the end", want, func() { m.ReadBlock(end-2, make([]word.Word, 4)) })
	mustPanic(t, "WriteBlock over the end", want, func() { m.WriteBlock(end-2, make([]word.Word, 4)) })
}

func TestStatsOnlyDataAccessPanics(t *testing.T) {
	m := NewStatsOnly(pagedLayout())
	if !m.StatsOnly() {
		t.Fatal("NewStatsOnly memory does not report StatsOnly")
	}
	if New(pagedLayout()).StatsOnly() {
		t.Fatal("data-carrying memory reports StatsOnly")
	}
	const want = "stats-only memory"
	mustPanic(t, "Read", want, func() { m.Read(20) })
	mustPanic(t, "Write", want, func() { m.Write(20, 1) })
	mustPanic(t, "ReadBlock", want, func() { m.ReadBlock(20, make([]word.Word, 4)) })
	mustPanic(t, "WriteBlock", want, func() { m.WriteBlock(20, make([]word.Word, 4)) })
	if s := m.Snapshot(); s != nil {
		t.Errorf("stats-only Snapshot has %d words, want nil", len(s))
	}
	if err := m.Restore(nil); err != nil {
		t.Errorf("stats-only Restore(nil): %v", err)
	}
	if err := m.Restore(make([]word.Word, m.Size())); err == nil {
		t.Error("stats-only memory accepted a data snapshot")
	}
}

func TestPagedSnapshotRestoreRoundTrip(t *testing.T) {
	l := pagedLayout()
	size := l.TotalWords()
	dense := make([]word.Word, size)
	src := New(l)
	rng := rand.New(rand.NewSource(1))
	// Scatter writes over pages 1 and 3 and the last, partial page;
	// leave page 0 unwritten and page 2 written with zeros only.
	last := size - size%pageWords
	for i := 0; i < 200; i++ {
		for _, base := range []int{pageWords, 3 * pageWords, last} {
			a := base + rng.Intn(min(pageWords, size-base))
			w := word.Int(rng.Int63n(1 << 40))
			src.Write(word.Addr(a), w)
			dense[a] = w
		}
	}
	src.WriteBlock(2*pageWords, make([]word.Word, 64))

	snap := src.Snapshot()
	if len(snap) != size {
		t.Fatalf("Snapshot has %d words, want %d", len(snap), size)
	}
	for a := range dense {
		if snap[a] != dense[a] {
			t.Fatalf("Snapshot word %d = %v, want %v", a, snap[a], dense[a])
		}
	}

	dst := New(l)
	dst.Write(10, word.Int(5))            // stale: page 0 is zero in the snapshot
	dst.Write(2*pageWords+1, word.Int(6)) // stale: page 2 is zero in the snapshot
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, want := allocatedPages(dst), 3; got != want {
		t.Errorf("restored memory has %d pages allocated, want %d (zero pages stay unallocated)", got, want)
	}
	if dst.pages[0] != nil || dst.pages[2] != nil {
		t.Error("all-zero snapshot pages were allocated")
	}
	again := dst.Snapshot()
	for a := range dense {
		if again[a] != dense[a] {
			t.Fatalf("restored word %d = %v, want %v", a, again[a], dense[a])
		}
	}
	if err := dst.Restore(snap[:size-1]); err == nil {
		t.Error("Restore accepted a snapshot of the wrong size")
	}
}
