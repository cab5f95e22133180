package bus

import (
	"testing"

	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
)

func testMemory() *mem.Memory {
	return mem.New(mem.Layout{InstWords: 64, HeapWords: 256, GoalWords: 64, SuspWords: 32, CommWords: 32})
}

// TestPaperCycleCounts pins the six access-pattern costs to the values in
// Section 4.2 for the base parameters: four-word blocks, one-word bus,
// eight-cycle memory.
func TestPaperCycleCounts(t *testing.T) {
	tm := DefaultTiming()
	cases := []struct {
		p    Pattern
		want uint64
	}{
		{PatSwapInMem, 13},
		{PatSwapInMemSwapOut, 13},
		{PatC2CSwapOut, 10},
		{PatC2C, 7},
		{PatSwapOutOnly, 5},
		{PatInval, 2},
		{PatUnlock, 2},
	}
	for _, tc := range cases {
		if got := tm.Cycles(tc.p, 4); got != tc.want {
			t.Errorf("Cycles(%v, 4) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// TestTwoWordBus checks that doubling the bus width reduces per-transfer
// cycles in the direction Section 4.4 reports (overall traffic falling to
// 62-75% of the one-word bus).
func TestTwoWordBus(t *testing.T) {
	one := Timing{MemCycles: 8, WidthWords: 1}
	two := Timing{MemCycles: 8, WidthWords: 2}
	if got := two.Cycles(PatC2C, 4); got != 5 {
		t.Errorf("two-word c2c = %d, want 5", got)
	}
	if got := two.Cycles(PatSwapInMem, 4); got != 11 {
		t.Errorf("two-word swap-in = %d, want 11", got)
	}
	// Invalidation is a broadcast: width-insensitive.
	if one.Cycles(PatInval, 4) != two.Cycles(PatInval, 4) {
		t.Error("invalidation cost should not depend on bus width")
	}
	// The cache-to-cache ratio 5/7 = 0.71 falls inside the paper's
	// reported 62-75% band.
	ratio := float64(two.Cycles(PatC2C, 4)) / float64(one.Cycles(PatC2C, 4))
	if ratio < 0.62 || ratio > 0.75 {
		t.Errorf("c2c width ratio %.2f outside paper band", ratio)
	}
}

func TestTransferRoundsUp(t *testing.T) {
	tm := Timing{MemCycles: 8, WidthWords: 2}
	// A 1-word block still needs one bus cycle.
	if got := tm.Cycles(PatSwapOutOnly, 1); got != 2 {
		t.Errorf("1-word swap-out on 2-word bus = %d, want 2", got)
	}
}

func TestPatternAndCommandNames(t *testing.T) {
	if PatC2C.String() != "c2c" || PatInval.String() != "invalidate" {
		t.Error("unexpected pattern names")
	}
	if CmdF.String() != "F" || CmdFI.String() != "FI" || CmdLH.String() != "LH" {
		t.Error("unexpected command names")
	}
	if Pattern(200).String() == "" || Command(200).String() == "" {
		t.Error("out-of-range names must not be empty")
	}
}

// fakeSnooper is a scriptable cache stand-in holding at most one block.
// hold installs it and snoop invalidations drop it, each notifying the
// bus presence filter as the real cache does.
type fakeSnooper struct {
	bus        *Bus
	pe         int
	data       []word.Word
	holds      bool
	dirty      bool
	retainOnF  bool
	snoopCount int
	invalCount int
}

func (f *fakeSnooper) hold(base word.Addr) {
	f.holds = true
	f.bus.BlockInstalled(f.pe, base)
}

func (f *fakeSnooper) drop(addr word.Addr) {
	f.holds = false
	f.bus.BlockDropped(f.pe, f.bus.blockBase(addr))
}

func (f *fakeSnooper) SnoopFetch(addr word.Addr, inval bool) ([]word.Word, bool, bool, bool, bool) {
	f.snoopCount++
	if !f.holds {
		return nil, false, false, false, false
	}
	retained := !inval && f.retainOnF
	if inval {
		f.drop(addr)
	}
	return f.data, true, true, f.dirty, retained
}

func (f *fakeSnooper) SnoopUpdate(word.Addr, word.Word) (bool, bool) {
	return f.holds, f.holds
}

func (f *fakeSnooper) SnoopInvalidate(addr word.Addr) bool {
	f.invalCount++
	wasDirty := f.holds && f.dirty
	if f.holds {
		f.drop(addr)
	}
	return wasDirty
}
func (f *fakeSnooper) Holds(word.Addr) bool { return f.holds }

type fakeLockUnit struct {
	bus      *Bus
	pe       int
	locked   map[word.Addr]bool
	waiters  int
	unlocked []word.Addr
}

// lock records a held lock on a and notifies the bus lock filter.
func (f *fakeLockUnit) lock(a word.Addr) {
	f.locked[a] = true
	f.bus.LockAcquired(f.pe)
}

func (f *fakeLockUnit) CheckLocked(a word.Addr) bool {
	if f.locked[a] {
		f.waiters++
		return true
	}
	return false
}
func (f *fakeLockUnit) LocksInBlock(base word.Addr, words int) bool {
	for a := range f.locked {
		if a >= base && a < base+word.Addr(words) {
			return true
		}
	}
	return false
}
func (f *fakeLockUnit) ObserveUnlock(a word.Addr) { f.unlocked = append(f.unlocked, a) }

func newTestBus(t *testing.T, peers int) (*Bus, []*fakeSnooper, []*fakeLockUnit) {
	t.Helper()
	b := New(Config{Timing: DefaultTiming(), BlockWords: 4}, testMemory())
	snoops := make([]*fakeSnooper, peers)
	locks := make([]*fakeLockUnit, peers)
	for i := 0; i < peers; i++ {
		snoops[i] = &fakeSnooper{bus: b, pe: i, data: make([]word.Word, 4)}
		locks[i] = &fakeLockUnit{bus: b, pe: i, locked: map[word.Addr]bool{}}
		b.Attach(i, snoops[i], locks[i])
	}
	return b, snoops, locks
}

func TestFetchFromMemory(t *testing.T) {
	b, _, _ := newTestBus(t, 2)
	base := b.Memory().Bounds().HeapBase
	b.Memory().Write(base+1, word.Int(99))
	res := b.Fetch(0, base+1, false, false, false)
	if res.LockHit || res.FromCache || res.Shared {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.Data[1].IntVal() != 99 {
		t.Errorf("data[1] = %v", res.Data[1])
	}
	st := b.Stats()
	if st.TotalCycles != 13 || st.CountByPattern[PatSwapInMem] != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.CyclesByArea[mem.AreaHeap] != 13 {
		t.Errorf("heap cycles = %d", st.CyclesByArea[mem.AreaHeap])
	}
	if st.Commands[CmdF] != 1 {
		t.Errorf("F count = %d", st.Commands[CmdF])
	}
}

func TestFetchCacheToCache(t *testing.T) {
	b, snoops, _ := newTestBus(t, 3)
	base := b.Memory().Bounds().HeapBase
	snoops[1].hold(base)
	snoops[1].dirty = true
	snoops[1].retainOnF = true
	snoops[1].data[0] = word.Int(7)
	res := b.Fetch(0, base, false, false, false)
	if !res.FromCache || !res.SupplierDirty || !res.Shared {
		t.Fatalf("result %+v", res)
	}
	if res.Data[0].IntVal() != 7 {
		t.Errorf("data = %v", res.Data[0])
	}
	// PIM: memory must NOT have been updated by the transfer.
	if b.Memory().Read(base).IntVal() == 7 {
		t.Error("dirty transfer leaked to memory")
	}
	st := b.Stats()
	if st.CountByPattern[PatC2C] != 1 || st.TotalCycles != 7 {
		t.Errorf("stats %+v", st)
	}
	if st.Commands[CmdH] != 1 {
		t.Errorf("H count = %d", st.Commands[CmdH])
	}
}

func TestFetchInvalidateSupplier(t *testing.T) {
	b, snoops, _ := newTestBus(t, 2)
	base := b.Memory().Bounds().HeapBase
	snoops[1].hold(base)
	res := b.Fetch(0, base, true, false, false)
	if snoops[1].holds {
		t.Error("FI did not invalidate the supplier")
	}
	if res.Shared {
		t.Error("FI result should be exclusive")
	}
	if b.Stats().Commands[CmdFI] != 1 {
		t.Error("FI not counted")
	}
}

func TestFetchWithVictimSwapOutPattern(t *testing.T) {
	b, snoops, _ := newTestBus(t, 2)
	base := b.Memory().Bounds().HeapBase
	// Memory-sourced with dirty victim: 13 cycles under the with-swap-out
	// pattern.
	b.Fetch(0, base, false, true, false)
	if b.Stats().CountByPattern[PatSwapInMemSwapOut] != 1 {
		t.Error("swap-in+swap-out pattern not used")
	}
	// Cache-sourced with dirty victim: 10 cycles.
	snoops[1].hold(base + 64)
	snoops[1].retainOnF = true
	b.Fetch(0, base+64, false, true, false)
	st := b.Stats()
	if st.CountByPattern[PatC2CSwapOut] != 1 {
		t.Error("c2c+swap-out pattern not used")
	}
	if st.TotalCycles != 13+10 {
		t.Errorf("total cycles = %d, want 23", st.TotalCycles)
	}
}

func TestLockHitAbortsFetch(t *testing.T) {
	b, snoops, locks := newTestBus(t, 2)
	base := b.Memory().Bounds().HeapBase
	locks[1].lock(base + 2)
	snoops[1].hold(base)
	res := b.Fetch(0, base+2, false, false, false)
	if !res.LockHit || res.Data != nil {
		t.Fatalf("expected aborted fetch, got %+v", res)
	}
	if snoops[1].snoopCount != 0 {
		t.Error("snoop ran despite LH")
	}
	if locks[1].waiters != 1 {
		t.Error("waiter not registered (LCK -> LWAIT)")
	}
	if b.Stats().Commands[CmdLH] != 1 {
		t.Error("LH not counted")
	}
	// FetchForced bypasses the lock poll.
	res = b.FetchForced(0, base+2, false, false)
	if res.LockHit || res.Data == nil {
		t.Fatalf("forced fetch failed: %+v", res)
	}
}

func TestLockDeniesExclusiveGrant(t *testing.T) {
	b, _, locks := newTestBus(t, 2)
	base := b.Memory().Bounds().HeapBase
	locks[1].lock(base + 3)
	// Fetching a DIFFERENT word of the same block must succeed but be
	// granted shared.
	res := b.Fetch(0, base+1, false, false, false)
	if res.LockHit {
		t.Fatal("fetch of unlocked word aborted")
	}
	if !res.Shared {
		t.Error("block containing a remote lock granted exclusively")
	}
	// Same applies to FI.
	res = b.Fetch(0, base+1, true, false, false)
	if !res.Shared {
		t.Error("FI of block containing a remote lock granted exclusively")
	}
	if !b.RemoteLockInBlock(0, base+1) {
		t.Error("RemoteLockInBlock missed the lock")
	}
	if b.RemoteLockInBlock(1, base+1) {
		t.Error("requester's own lock must not count")
	}
}

func TestInvalidate(t *testing.T) {
	b, snoops, locks := newTestBus(t, 3)
	base := b.Memory().Bounds().HeapBase
	snoops[1].hold(base)
	snoops[2].hold(base)
	if ok, _ := b.Invalidate(0, base, false); !ok {
		t.Fatal("invalidate aborted unexpectedly")
	}
	if snoops[1].invalCount != 1 || snoops[2].invalCount != 1 {
		t.Error("not all snoopers invalidated")
	}
	st := b.Stats()
	if st.TotalCycles != 2 || st.CountByPattern[PatInval] != 1 {
		t.Errorf("stats %+v", st)
	}
	// A locked word blocks the invalidation.
	locks[1].lock(base + 8)
	if ok, _ := b.Invalidate(0, base+8, true); ok {
		t.Error("invalidate of locked word succeeded")
	}
	b.ForceInvalidate(0, base+8) // must not consult locks
}

func TestSwapOutWritesMemory(t *testing.T) {
	b, _, _ := newTestBus(t, 1)
	base := b.Memory().Bounds().HeapBase
	data := []word.Word{word.Int(1), word.Int(2), word.Int(3), word.Int(4)}
	b.SwapOut(0, base, data)
	if b.Memory().Read(base+3).IntVal() != 4 {
		t.Error("swap-out did not reach memory")
	}
	st := b.Stats()
	if st.CountByPattern[PatSwapOutOnly] != 1 || st.TotalCycles != 5 {
		t.Errorf("stats %+v", st)
	}
}

func TestUnlockBroadcast(t *testing.T) {
	b, _, locks := newTestBus(t, 3)
	base := b.Memory().Bounds().HeapBase
	b.Unlock(0, base+5)
	if len(locks[1].unlocked) != 1 || locks[1].unlocked[0] != base+5 {
		t.Error("UL not delivered to PE 1")
	}
	if len(locks[0].unlocked) != 0 {
		t.Error("UL delivered to the requester itself")
	}
	st := b.Stats()
	if st.Commands[CmdUL] != 1 || st.CountByPattern[PatUnlock] != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestMemBusyAccounting(t *testing.T) {
	b, snoops, _ := newTestBus(t, 2)
	base := b.Memory().Bounds().HeapBase
	b.Fetch(0, base, false, false, false) // memory fetch: 8
	if got := b.Stats().MemBusyCycles; got != 8 {
		t.Fatalf("mem busy after fetch = %d", got)
	}
	snoops[1].hold(base + 64)
	snoops[1].retainOnF = true
	b.Fetch(0, base+64, false, false, false) // c2c: memory idle
	if got := b.Stats().MemBusyCycles; got != 8 {
		t.Fatalf("c2c transfer occupied memory: %d", got)
	}
	b.MemoryWriteBack(base, make([]word.Word, 4)) // Illinois reflection: 8
	if got := b.Stats().MemBusyCycles; got != 16 {
		t.Fatalf("mem busy after write-back = %d", got)
	}
}

func TestRemoteHolder(t *testing.T) {
	b, snoops, _ := newTestBus(t, 3)
	base := b.Memory().Bounds().HeapBase
	if b.RemoteHolder(0, base) {
		t.Error("no one holds the block yet")
	}
	snoops[2].hold(base)
	if !b.RemoteHolder(0, base) {
		t.Error("holder not seen")
	}
	if b.RemoteHolder(2, base) {
		t.Error("requester's own copy counted as remote")
	}
}

func TestAttachOutOfOrderPanics(t *testing.T) {
	b := New(Config{Timing: DefaultTiming(), BlockWords: 4}, testMemory())
	defer func() {
		if recover() == nil {
			t.Error("out-of-order attach did not panic")
		}
	}()
	b.Attach(1, &fakeSnooper{}, &fakeLockUnit{})
}

func TestStatsAdd(t *testing.T) {
	var a, b Stats
	a.TotalCycles = 5
	a.CyclesByArea[mem.AreaHeap] = 5
	a.Commands[CmdF] = 1
	b.TotalCycles = 7
	b.MemBusyCycles = 3
	a.Add(&b)
	if a.TotalCycles != 12 || a.MemBusyCycles != 3 || a.Commands[CmdF] != 1 {
		t.Errorf("merged stats %+v", a)
	}
}
