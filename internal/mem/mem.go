// Package mem models the shared global memory of the simulated PIM
// cluster: a word-addressed space partitioned into the five KL1
// storage areas (instruction, heap, goal, suspension, communication), the
// shared-memory module backing it, and the allocators the KL1 runtime
// uses inside those areas (bump allocation for the heap, free lists for
// the record areas).
package mem

import (
	"fmt"
	"math"

	"pimcache/internal/kl1/word"
)

// Area identifies one of the KL1 storage areas. The paper's evaluation
// (Tables 2 and 4) attributes memory references and bus cycles to these
// areas, and the optimized cache commands are enabled per area.
type Area uint8

const (
	// AreaNone is returned for addresses outside every area (including
	// the reserved null page).
	AreaNone Area = iota
	// AreaInst holds compiled abstract-machine code.
	AreaInst
	// AreaHeap holds terms: variables, lists, structures.
	AreaHeap
	// AreaGoal holds goal records (free-list managed).
	AreaGoal
	// AreaSusp holds suspension records (free-list managed).
	AreaSusp
	// AreaComm holds inter-PE message buffers (free-list managed).
	AreaComm

	// NumAreas counts the identifiers above (including AreaNone) and
	// sizes per-area statistics arrays.
	NumAreas
)

var areaNames = [NumAreas]string{"none", "inst", "heap", "goal", "susp", "comm"}

// String returns the area's short name as used in the paper's tables.
func (a Area) String() string {
	if int(a) < len(areaNames) {
		return areaNames[a]
	}
	return fmt.Sprintf("area(%d)", uint8(a))
}

// Layout describes the sizes, in words, of the five areas. The areas are
// placed contiguously after a one-word reserved null page so that address
// zero is never a valid cell.
type Layout struct {
	InstWords int
	HeapWords int
	GoalWords int
	SuspWords int
	CommWords int
}

// DefaultLayout returns a layout comfortably sized for the bundled
// benchmarks: the heap dominates, as in the paper (over 80% of shared
// memory for large programs).
func DefaultLayout() Layout {
	return Layout{
		InstWords: 64 << 10,
		HeapWords: 8 << 20,
		GoalWords: 1 << 20,
		SuspWords: 256 << 10,
		CommWords: 64 << 10,
	}
}

const reservedWords = 16 // null page: addresses 0..15 are never valid cells

// Bounds give the half-open address ranges of each area.
type Bounds struct {
	InstBase, HeapBase, GoalBase, SuspBase, CommBase, End word.Addr
}

// Bounds computes the area base addresses for the layout.
func (l Layout) Bounds() Bounds {
	var b Bounds
	b.InstBase = reservedWords
	b.HeapBase = b.InstBase + word.Addr(l.InstWords)
	b.GoalBase = b.HeapBase + word.Addr(l.HeapWords)
	b.SuspBase = b.GoalBase + word.Addr(l.GoalWords)
	b.CommBase = b.SuspBase + word.Addr(l.SuspWords)
	b.End = b.CommBase + word.Addr(l.CommWords)
	return b
}

// TotalWords reports the size of the whole simulated address space.
func (l Layout) TotalWords() int { return int(l.Bounds().End) }

// maxTotalWords is the largest sum of area sizes whose Bounds fit in
// word.Addr: End, one past the last word, must itself be an address.
const maxTotalWords = math.MaxUint32 - reservedWords

// Validate reports whether the layout's areas are non-negative and its
// Bounds fit in word.Addr. A layout that fails it would wrap the
// address space: its area bases would not be monotonic, and addresses
// of a whole area would classify as AreaNone.
func (l Layout) Validate() error {
	sizes := [...]int{l.InstWords, l.HeapWords, l.GoalWords, l.SuspWords, l.CommWords}
	var total uint64
	for i, n := range sizes {
		if n < 0 {
			return fmt.Errorf("%s area has negative size %d", Area(i+1), n)
		}
		if uint64(n) > maxTotalWords {
			return fmt.Errorf("%s area of %d words exceeds the 32-bit address space", Area(i+1), n)
		}
		total += uint64(n)
	}
	if total > maxTotalWords {
		return fmt.Errorf("areas total %d words; after the %d reserved words their end exceeds the 32-bit address space",
			total, reservedWords)
	}
	return nil
}

// AreaOf classifies an address with a compare chain. It is the
// reference classification; AreaMap gives the same answer with one
// table load.
func (b Bounds) AreaOf(a word.Addr) Area {
	switch {
	case a < b.InstBase:
		return AreaNone
	case a < b.HeapBase:
		return AreaInst
	case a < b.GoalBase:
		return AreaHeap
	case a < b.SuspBase:
		return AreaGoal
	case a < b.CommBase:
		return AreaSusp
	case a < b.End:
		return AreaComm
	default:
		return AreaNone
	}
}

// Memory is the shared global memory module. It stores data only; timing
// (the eight-cycle access latency, bus occupancy) is modelled by the bus
// package. Memory is not safe for concurrent use: the machine serializes
// all accesses, mirroring the single shared bus.
//
// The store is demand-paged: a table of fixed pageWords-word pages, each
// allocated on its first write. A word on a page never written reads as
// zero, exactly as it would in a zeroed flat store, so paging is
// invisible to the simulation. A KL1 run touches a small fraction of
// the address space the default layouts reserve, so a machine costs
// memory in proportion to what its program writes, not to its layout.
type Memory struct {
	pages []*page // nil for a stats-only memory
	size  int
	areas AreaMap
}

// pageShift fixes the page size at 4096 words (32 KB). It is a constant,
// not a knob: only allocation granularity depends on it, never a
// simulated statistic.
const (
	pageShift = 12
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

type page [pageWords]word.Word

// New builds an all-zero memory for the layout. No page is allocated
// until it is first written.
func New(l Layout) *Memory {
	size := l.TotalWords()
	return &Memory{
		pages: make([]*page, (size+pageWords-1)>>pageShift),
		size:  size,
		areas: NewAreaMap(l.Bounds()),
	}
}

// NewStatsOnly builds a memory with no word store for stats-only trace
// replay: the layout, bounds and Size are those of a real memory (the bus
// sizes its presence table from Size), but no data is ever stored. Every
// data access panics — coherence decisions never depend on values, so in
// a correctly gated stats-only machine none of these methods is reached;
// a panic here means a data-plane gate is missing, not that the caller
// should tolerate zeros.
func NewStatsOnly(l Layout) *Memory {
	return &Memory{size: l.TotalWords(), areas: NewAreaMap(l.Bounds())}
}

// StatsOnly reports whether this memory carries no word store.
func (m *Memory) StatsOnly() bool { return m.pages == nil && m.size > 0 }

// Bounds returns the area ranges.
func (m *Memory) Bounds() Bounds { return m.areas.Bounds() }

// Areas returns the area classification table, built once per memory.
// Per-reference classifiers (the caches, the bus) keep a copy of it.
func (m *Memory) Areas() AreaMap { return m.areas }

// AreaOf classifies an address against this memory's layout.
func (m *Memory) AreaOf(a word.Addr) Area { return m.areas.Of(a) }

// Size reports the total number of words.
func (m *Memory) Size() int { return m.size }

// check panics unless [a, a+n) is a data access inside the memory. The
// explicit bound matters: the last page can extend past Size.
func (m *Memory) check(a word.Addr, n int) {
	if m.pages == nil || int(a)+n > m.size {
		m.badAccess(a, n)
	}
}

func (m *Memory) badAccess(a word.Addr, n int) {
	if m.StatsOnly() {
		panic("mem: data access on a stats-only memory (missing data-plane gate)")
	}
	panic(fmt.Sprintf("mem: access to words [%d, %d) of a %d-word memory", a, int(a)+n, m.size))
}

// writable returns page i, allocating it on first use.
func (m *Memory) writable(i word.Addr) *page {
	p := m.pages[i]
	if p == nil {
		p = new(page)
		m.pages[i] = p
	}
	return p
}

// Read returns the word at a. It panics on out-of-range addresses: the
// simulated machine's address arithmetic is supposed to be correct, so a
// wild address is a simulator bug.
func (m *Memory) Read(a word.Addr) word.Word {
	m.check(a, 1)
	if p := m.pages[a>>pageShift]; p != nil {
		return p[a&pageMask]
	}
	return 0
}

// Write stores w at a.
func (m *Memory) Write(a word.Addr, w word.Word) {
	m.check(a, 1)
	m.writable(a >> pageShift)[a&pageMask] = w
}

// ReadBlock copies the block of len(dst) words starting at base into dst.
func (m *Memory) ReadBlock(base word.Addr, dst []word.Word) {
	m.check(base, len(dst))
	for len(dst) > 0 {
		off := int(base & pageMask)
		n := min(len(dst), pageWords-off)
		if p := m.pages[base>>pageShift]; p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		base += word.Addr(n)
	}
}

// WriteBlock stores src at base.
func (m *Memory) WriteBlock(base word.Addr, src []word.Word) {
	m.check(base, len(src))
	for len(src) > 0 {
		off := int(base & pageMask)
		n := copy(m.writable(base >> pageShift)[off:], src)
		src = src[n:]
		base += word.Addr(n)
	}
}

// Snapshot returns a copy of the full word store as one dense slice (nil
// for a stats-only memory), for machine-level checkpoints. The dense form
// keeps the checkpoint format independent of the page size.
func (m *Memory) Snapshot() []word.Word {
	if m.pages == nil {
		return nil
	}
	words := make([]word.Word, m.size)
	for i, p := range m.pages {
		if p != nil {
			copy(words[i<<pageShift:], p[:])
		}
	}
	return words
}

// Restore overwrites the word store from a snapshot of a memory with the
// same layout. Pages that are all zero in the snapshot are left
// unallocated, so a restored memory is as sparse as its contents.
func (m *Memory) Restore(words []word.Word) error {
	want := m.size
	if m.pages == nil {
		want = 0
	}
	if len(words) != want {
		return fmt.Errorf("mem: snapshot has %d words, memory has %d", len(words), want)
	}
	for i := range m.pages {
		src := words[i<<pageShift:]
		src = src[:min(len(src), pageWords)]
		if allZero(src) {
			m.pages[i] = nil
			continue
		}
		copy(m.writable(word.Addr(i))[:], src)
	}
	return nil
}

func allZero(ws []word.Word) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

// Accessor is the simulated-memory access interface used by the KL1
// runtime. It is implemented by each PE's cache port; every call may
// generate cache and bus activity. The optimized operations degrade to
// plain reads/writes exactly as the paper specifies when their
// preconditions do not hold or when they are disabled for an area.
type Accessor interface {
	// Read performs a normal read (R).
	Read(a word.Addr) word.Word
	// Write performs a normal write (W) with fetch-on-write allocation.
	Write(a word.Addr, w word.Word)
	// LockRead (LR) acquires the word lock and returns the word. ok is
	// false when the word is locked by another PE: the caller must undo
	// any locks it already holds and retry the whole operation after the
	// machine delivers the unlock broadcast (busy wait costs no bus
	// cycles).
	LockRead(a word.Addr) (w word.Word, ok bool)
	// UnlockWrite (UW) writes the word and releases the lock.
	UnlockWrite(a word.Addr, w word.Word)
	// Unlock (U) releases the lock without writing.
	Unlock(a word.Addr)
	// DirectWrite (DW) writes without fetch-on-write. Callers must only
	// use it on fresh memory no remote cache can hold.
	DirectWrite(a word.Addr, w word.Word)
	// ExclusiveRead (ER) reads and purges/invalidates block copies that
	// are dead after the read (write-once/read-once data).
	ExclusiveRead(a word.Addr) word.Word
	// ReadPurge (RP) reads and forcibly purges the block.
	ReadPurge(a word.Addr) word.Word
	// ReadInvalidate (RI) reads, taking the block exclusively so an
	// immediately following write needs no invalidate bus command.
	ReadInvalidate(a word.Addr) word.Word
}

// DirectAccessor adapts a Memory to the Accessor interface with no cache
// or timing model. It is used for loading programs, by tests, and as the
// "infinitely fast memory" baseline. Lock operations always succeed; the
// adapter tracks no lock state.
type DirectAccessor struct{ M *Memory }

// Read implements Accessor.
func (d DirectAccessor) Read(a word.Addr) word.Word { return d.M.Read(a) }

// Write implements Accessor.
func (d DirectAccessor) Write(a word.Addr, w word.Word) { d.M.Write(a, w) }

// LockRead implements Accessor; it always succeeds.
func (d DirectAccessor) LockRead(a word.Addr) (word.Word, bool) { return d.M.Read(a), true }

// UnlockWrite implements Accessor.
func (d DirectAccessor) UnlockWrite(a word.Addr, w word.Word) { d.M.Write(a, w) }

// Unlock implements Accessor.
func (d DirectAccessor) Unlock(word.Addr) {}

// DirectWrite implements Accessor.
func (d DirectAccessor) DirectWrite(a word.Addr, w word.Word) { d.M.Write(a, w) }

// ExclusiveRead implements Accessor.
func (d DirectAccessor) ExclusiveRead(a word.Addr) word.Word { return d.M.Read(a) }

// ReadPurge implements Accessor.
func (d DirectAccessor) ReadPurge(a word.Addr) word.Word { return d.M.Read(a) }

// ReadInvalidate implements Accessor.
func (d DirectAccessor) ReadInvalidate(a word.Addr) word.Word { return d.M.Read(a) }
