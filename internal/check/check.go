// Package check is the coherence model checker and differential fuzzer
// for the simulated memory system (bus + caches + lock directories).
//
// It closes the gap the example-based protocol tests leave open: those
// tests verify transitions the author thought of, while check verifies
// that *no reachable interleaving* of the software memory operations
// (R/W/DW/ER/RP/RI/LR/UW/U across 1-4 PEs, under tiny direct-mapped
// caches that force constant eviction churn) can violate the protocol.
// Three layers of oracle run on every generated schedule:
//
//  1. A flat sequential reference memory model. The machine's
//     round-robin scheduling is deterministic, so the interleaving of
//     operations is a sequence; applying that same sequence to a flat
//     word array plus a lock map predicts every read value, every lock
//     grant/denial, and the exact memory image at quiescence
//     (post-flush). Any deviation is a coherence bug.
//  2. Per-transition invariant oracles, checked after every single
//     operation: at most one dirty owner per block; an exclusive (EC/EM)
//     copy implies no other copy anywhere; all valid copies of a block
//     hold identical data; with no dirty owner every copy equals shared
//     memory; the bus snoop-filter holder masks equal the ground-truth
//     holder sets; per-PE lock-filter counts equal the lock directories;
//     at most one PE holds any word lock (and it is the PE the model
//     says); no remote cache holds a locked word's block exclusively;
//     and the bus cycle total equals the sum of per-transaction spans
//     reported by the probe layer.
//  3. Differential runs: the same schedule is executed under every
//     protocol x optimization configuration (the optimized commands are
//     value-preserving under the software contracts the generator
//     respects, so all configurations must agree with the model), and
//     every configuration's stats-only twin must produce bit-identical
//     statistics.
//
// Inputs are raw byte strings (fuzz-friendly); Decode turns any bytes
// into a *legal* schedule, enforcing the software contracts the paper
// assumes (DW only on fresh blocks, ER/RP purges only on read-only
// data, address-ordered lock acquisition so schedules cannot deadlock).
// Shrink minimizes a failing input to a small replayable repro, stored
// in the textual format of WriteRepro under testdata/repro/.
package check

import (
	"fmt"
	"strings"

	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
)

// Geometry of the checked system: caches are kept tiny and direct-mapped
// so that every few operations evict something, and the address pools
// are a few times larger than a cache so blocks constantly migrate
// between caches and memory.
const (
	// BlockWords is the cache block size used by every checked config.
	BlockWords = 4
	// CacheWords gives 8 one-way sets: a 40-block working set over 8
	// frames per PE maximizes conflict-eviction churn.
	CacheWords = 32
	// MaxPEs bounds the generated schedules.
	MaxPEs = 4

	heapBlocks   = 20             // total heap blocks the checker watches
	heapRWBlocks = 8              // shared read/write/lock portion of the heap
	dwPerPE      = 2              // PE-private direct-write blocks (heap blocks 8..15)
	recycleBase  = 16             // per-PE free-list recycle blocks (16..19): see recycle
	goalROBlocks = 8              // initialized, never written: ER/RP roam freely
	goalRWBlocks = 8              // written: ER restricted to non-last words
	commBlocks   = 8              // read/write/RI arena
	lockWords    = 2 * BlockWords // lock pool: the first two heap blocks
	maxHeldLocks = 2              // per PE, well under LockEntries=4
)

// Layout returns the tiny memory layout every checked machine uses.
func Layout() mem.Layout {
	return mem.Layout{InstWords: 64, HeapWords: 256, GoalWords: 256,
		SuspWords: 64, CommWords: 256}
}

// Op is one software memory operation in a schedule.
type Op struct {
	PE   int
	Kind cache.Op
	Addr word.Addr
	Val  int64 // stored payload for W/UW/DW (ignored for reads)
}

func (o Op) String() string {
	if o.Kind.IsWrite() {
		return fmt.Sprintf("PE%d %-2s %#x <- %d", o.PE, o.Kind, o.Addr, o.Val)
	}
	return fmt.Sprintf("PE%d %-2s %#x", o.PE, o.Kind, o.Addr)
}

// Seq is a decoded, contract-legal schedule.
type Seq struct {
	PEs int
	Ops []Op
}

// String renders the schedule one op per line.
func (s *Seq) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d PEs, %d ops\n", s.PEs, len(s.Ops))
	for i, o := range s.Ops {
		fmt.Fprintf(&b, "%4d: %s\n", i, o)
	}
	return b.String()
}

// pools derives the arena base addresses from the layout.
type pools struct {
	heap, goalRO, goalRW, comm word.Addr
}

func arenas() pools {
	b := Layout().Bounds()
	return pools{
		heap:   b.HeapBase,
		goalRO: b.GoalBase,
		goalRW: b.GoalBase + goalROBlocks*BlockWords,
		comm:   b.CommBase,
	}
}

// PoolBlocks lists every block base the generator can touch; the
// invariant oracles scan exactly this set.
func PoolBlocks() []word.Addr {
	p := arenas()
	var out []word.Addr
	add := func(base word.Addr, n int) {
		for i := 0; i < n; i++ {
			out = append(out, base+word.Addr(i*BlockWords))
		}
	}
	add(p.heap, heapBlocks)
	add(p.goalRO, goalROBlocks)
	add(p.goalRW, goalRWBlocks)
	add(p.comm, commBlocks)
	return out
}

// lockPool lists the word addresses LR may target.
func lockPool() []word.Addr {
	p := arenas()
	out := make([]word.Addr, lockWords)
	for i := range out {
		out[i] = p.heap + word.Addr(i)
	}
	return out
}

// decoder state enforcing the software contracts while translating raw
// wish bytes into legal operations.
type decoder struct {
	seq     *Seq
	pool    pools
	touched map[word.Addr]bool // block base -> any op has referenced it
	held    [][]word.Addr      // per PE, ascending lock addresses
}

// Decode turns arbitrary bytes into a legal schedule, or nil when the
// input is too short to contain a header and at least one op group.
// The first byte selects the PE count; each following 3-byte group
// (selector, slot, value) is decoded into at most one operation. The
// mapping is total: every byte string decodes deterministically, and
// contract-violating wishes degrade to plain reads or writes, so fuzzers
// can mutate freely. Trailing lock releases are appended so schedules
// end at quiescence with no lock held.
func Decode(data []byte) *Seq {
	if len(data) < 4 {
		return nil
	}
	d := &decoder{
		seq:     &Seq{PEs: 1 + int(data[0]&3)},
		pool:    arenas(),
		touched: make(map[word.Addr]bool),
		held:    make([][]word.Addr, 4),
	}
	for g := 1; g+2 < len(data); g += 3 {
		d.group(data[g], data[g+1], data[g+2])
	}
	// Release every lock still held so the schedule quiesces; alternate
	// UW (write-and-unlock) and U (plain unlock) deterministically.
	for pe := 0; pe < d.seq.PEs; pe++ {
		for len(d.held[pe]) > 0 {
			a := d.held[pe][len(d.held[pe])-1]
			if a%2 == 1 {
				d.emit(pe, cache.OpUW, a, int64(pe)*1000+999)
			} else {
				d.emit(pe, cache.OpU, a, 0)
			}
		}
	}
	if len(d.seq.Ops) == 0 {
		return nil
	}
	return d.seq
}

func (d *decoder) emit(pe int, k cache.Op, a word.Addr, v int64) {
	d.touched[a&^word.Addr(BlockWords-1)] = true
	switch k {
	case cache.OpLR:
		d.held[pe] = append(d.held[pe], a)
	case cache.OpUW, cache.OpU:
		for i, h := range d.held[pe] {
			if h == a {
				d.held[pe] = append(d.held[pe][:i], d.held[pe][i+1:]...)
				break
			}
		}
	}
	d.seq.Ops = append(d.seq.Ops, Op{PE: pe, Kind: k, Addr: a, Val: v})
}

// blockAddr picks word slot within the n-block arena at base.
func blockAddr(base word.Addr, nBlocks int, slot byte) word.Addr {
	return base + word.Addr(int(slot)%(nBlocks*BlockWords))
}

// group decodes one 3-byte wish. sel picks the op class and PE, slot the
// address, val the written payload.
func (d *decoder) group(sel, slot, val byte) {
	pe := int(sel>>4) % d.seq.PEs
	v := int64(pe)*1000 + int64(val)
	switch sel % 16 {
	case 0, 1: // R anywhere
		d.emit(pe, cache.OpR, d.anyAddr(slot), 0)
	case 2, 3: // W in a writable arena
		d.emit(pe, cache.OpW, d.writableAddr(slot), v)
	case 4, 5, 13: // LR on the lock pool (address-ordered)
		d.lockRead(pe, slot)
	case 6, 15: // UW: release the newest held lock, writing
		d.release(pe, slot, true, v)
	case 7: // U: release without writing
		d.release(pe, slot, false, 0)
	case 8: // DW: fresh-block allocation, or free-list record recycling
		if slot&0x80 != 0 {
			d.recycle(pe, slot, v)
		} else {
			d.directWrite(pe, slot, v)
		}
	case 9: // ER: free in goalRO, non-last-word in goalRW
		if slot%2 == 0 {
			d.emit(pe, cache.OpER, blockAddr(d.pool.goalRO, goalROBlocks, slot), 0)
		} else {
			a := d.pool.goalRW + word.Addr(int(slot)%(goalRWBlocks*BlockWords))
			if a&(BlockWords-1) == BlockWords-1 {
				a-- // never the last word: its purge would drop live dirty data
			}
			d.emit(pe, cache.OpER, a, 0)
		}
	case 10: // RP only on the read-only arena (its purge discards dirty data)
		d.emit(pe, cache.OpRP, blockAddr(d.pool.goalRO, goalROBlocks, slot), 0)
	case 11: // RI in the communication arena
		d.emit(pe, cache.OpRI, blockAddr(d.pool.comm, commBlocks, slot), 0)
	case 12: // W concentrated on the lock-pool blocks: drives the SM/EM
		// grant decision against concurrently held locks
		d.emit(pe, cache.OpW, d.pool.heap+word.Addr(int(slot)%lockWords), v)
	case 14: // R on the lock-pool blocks: keeps shared copies around
		d.emit(pe, cache.OpR, d.pool.heap+word.Addr(int(slot)%lockWords), 0)
	}
}

// anyAddr spreads plain reads over every shared arena (the PE-private
// direct-write blocks stay private: see directWrite).
func (d *decoder) anyAddr(slot byte) word.Addr {
	switch slot % 4 {
	case 0:
		return blockAddr(d.pool.heap, heapRWBlocks, slot/4)
	case 1:
		return blockAddr(d.pool.goalRO, goalROBlocks, slot/4)
	case 2:
		return blockAddr(d.pool.goalRW, goalRWBlocks, slot/4)
	default:
		return blockAddr(d.pool.comm, commBlocks, slot/4)
	}
}

// writableAddr spreads plain writes over the writable arenas (goalRO is
// read-only by contract: ER/RP purge there).
func (d *decoder) writableAddr(slot byte) word.Addr {
	switch slot % 3 {
	case 0:
		return blockAddr(d.pool.heap, heapRWBlocks, slot/3)
	case 1:
		return blockAddr(d.pool.goalRW, goalRWBlocks, slot/3)
	default:
		return blockAddr(d.pool.comm, commBlocks, slot/3)
	}
}

// lockRead emits an LR respecting the deadlock-freedom discipline: a PE
// only ever waits for an address greater than every lock it holds, and
// never re-locks an address it already holds. Illegal wishes degrade to
// a plain read of the same word.
func (d *decoder) lockRead(pe int, slot byte) {
	a := d.pool.heap + word.Addr(int(slot)%lockWords)
	held := d.held[pe]
	if len(held) >= maxHeldLocks || (len(held) > 0 && a <= held[len(held)-1]) {
		d.emit(pe, cache.OpR, a, 0)
		return
	}
	d.emit(pe, cache.OpLR, a, 0)
}

// release frees the newest lock this PE holds (release order does not
// affect deadlock freedom; acquisition order does). With nothing held
// the wish degrades to a read.
func (d *decoder) release(pe int, slot byte, write bool, v int64) {
	held := d.held[pe]
	if len(held) == 0 {
		d.emit(pe, cache.OpR, d.pool.heap+word.Addr(int(slot)%lockWords), 0)
		return
	}
	a := held[len(held)-1]
	if write {
		d.emit(pe, cache.OpUW, a, v)
	} else {
		d.emit(pe, cache.OpU, a, 0)
	}
}

// directWrite emits a DW honouring the software contract ("fresh memory
// no remote cache can hold"). DW candidate blocks are PE-private — heap
// blocks 8..15, two per PE, touched by no other selector — because the
// round-robin scheduler reorders ops across PEs: a shared fresh block
// could see another PE's access execute before the DW that decode order
// placed first. Within one PE program order is preserved, so decode-time
// first-touch equals execution-time first-touch. The applied form is
// emitted only on the boundary word of a block this PE never referenced;
// later wishes exercise the degraded mid-block and already-resident
// forms (both plain fetch-on-write, value-equal on zero memory).
func (d *decoder) directWrite(pe int, slot byte, v int64) {
	blk := heapRWBlocks + pe*dwPerPE + int(slot/2)%dwPerPE
	base := d.pool.heap + word.Addr(blk*BlockWords)
	if d.touched[base] {
		d.emit(pe, cache.OpW, base+word.Addr(slot%BlockWords), v)
		return
	}
	if slot%4 == 3 {
		// Mid-block DW on a fresh block: degrades to fetch-on-write.
		d.emit(pe, cache.OpDW, base+1+word.Addr(int(slot)%(BlockWords-1)), v)
		return
	}
	d.emit(pe, cache.OpDW, base, v)
}

// recycle emits the real runtime's free-list record-recycling pattern
// (mem.FreeList): a remote PE caches a record block, the owner rewrites
// the record, loses its own copy to a same-set conflict eviction, and
// re-creates the record with an applied DW. A guard lock serializes the
// two sections, so no remote access can land between the owner's store
// and its DW — the one interleaving the DW software contract forbids —
// while the remote copy itself legally survives into the DW under the
// write-update protocols, whose stores refresh remote copies instead of
// killing them. That surviving copy forces directWrite's update-protocol
// invalidate; Faults.SkipDWUpdateInval suppresses it and must be caught
// here (this generator gap is how the original live-machine bug slipped
// past the matrix). The owner rewrites every word after the DW because
// the flat model does not see the applied DW's zero-fill — the same
// "whole record written before use" contract real software honours. The
// wish degrades to a plain read when either PE already holds a lock:
// each section must hold the guard alone, which keeps schedules
// deadlock-free (a single-lock holder never blocks, so every wait chain
// terminates).
func (d *decoder) recycle(pe int, slot byte, v int64) {
	reader := (pe + 1) % d.seq.PEs
	if reader == pe || len(d.held[pe]) > 0 || len(d.held[reader]) > 0 {
		d.emit(pe, cache.OpR, d.anyAddr(slot), 0)
		return
	}
	guard := d.pool.heap + word.Addr(lockWords-1)
	base := d.pool.heap + word.Addr((recycleBase+pe)*BlockWords)
	// A goalRO block in base's cache set: reading it evicts the owner's
	// copy (the checked cache is direct-mapped), standing in for the
	// capacity eviction between a record's free and its reallocation.
	sets := CacheWords / BlockWords
	diff := int(base/BlockWords) - int(d.pool.goalRO/BlockWords)
	conflict := d.pool.goalRO + word.Addr((((diff%sets)+sets)%sets)*BlockWords)
	off := word.Addr(slot % BlockWords)

	d.emit(reader, cache.OpLR, guard, 0)
	d.emit(reader, cache.OpR, base+off, 0)
	d.emit(reader, cache.OpU, guard, 0)

	d.emit(pe, cache.OpLR, guard, 0)
	d.emit(pe, cache.OpW, base+off, v)
	d.emit(pe, cache.OpR, conflict, 0)
	d.emit(pe, cache.OpDW, base, v+1)
	for i := 1; i < BlockWords; i++ {
		d.emit(pe, cache.OpW, base+word.Addr(i), v+1+int64(i))
	}
	d.emit(pe, cache.OpU, guard, 0)
}
