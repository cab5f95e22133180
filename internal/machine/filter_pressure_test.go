package machine

import (
	"fmt"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// smallSynthLayout keeps the synthetic streams inside a footprint a few
// hundred times the cache size, maximizing conflict misses in the tiny
// direct-mapped caches below.
func smallSynthLayout() mem.Layout {
	return mem.Layout{InstWords: 1 << 10, HeapWords: 16 << 10,
		GoalWords: 4 << 10, SuspWords: 1 << 10, CommWords: 1 << 10}
}

// applyRef drives one recorded reference through its PE's cache.
func applyRef(c *cache.Cache, r trace.Ref) error {
	switch r.Op {
	case cache.OpR:
		c.Read(r.Addr)
	case cache.OpW:
		c.Write(r.Addr, 0)
	case cache.OpLR:
		if _, ok := c.LockRead(r.Addr); !ok {
			return fmt.Errorf("LR %#x blocked", r.Addr)
		}
	case cache.OpUW:
		c.UnlockWrite(r.Addr, 0)
	case cache.OpU:
		c.Unlock(r.Addr)
	case cache.OpDW:
		c.DirectWrite(r.Addr, 0)
	case cache.OpER:
		c.ExclusiveRead(r.Addr)
	case cache.OpRP:
		c.ReadPurge(r.Addr)
	case cache.OpRI:
		c.ReadInvalidate(r.Addr)
	default:
		return fmt.Errorf("unknown op %d", r.Op)
	}
	return nil
}

// TestFilterBookkeepingUnderEvictionPressure replays conflict-heavy
// synthetic streams through tiny direct-mapped caches and cross-checks
// the bus presence filter against the ground-truth scan after every single
// operation: the holder mask of the touched block must always equal the
// ground-truth poll of every cache, and the per-PE lock counts must
// always equal each lock directory's in-use count. A periodic full sweep
// covers blocks evicted as conflict victims (which the touched-block
// check alone would miss going stale).
func TestFilterBookkeepingUnderEvictionPressure(t *testing.T) {
	sc := synth.Config{
		Layout: smallSynthLayout(),
		PEs:    8,
		Events: 40_000,
		Seed:   7,
	}
	if testing.Short() {
		sc.Events = 8_000
	}
	streams := []struct {
		name string
		gen  func(synth.Config) *trace.Trace
	}{
		{"ORParallel", synth.ORParallel},
		{"MessageRing", synth.MessageRing},
		{"SeqProlog", func(c synth.Config) *trace.Trace { c.PEs = 1; return synth.SeqProlog(c) }},
	}
	for _, s := range streams {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			tr := s.gen(sc)
			m := New(Config{
				PEs:    sc.PEs,
				Layout: sc.Layout,
				Cache: cache.Config{
					SizeWords: 64, BlockWords: 4, Ways: 1, LockEntries: 4,
					Options: cache.OptionsAll(), VerifyDW: true,
				},
				Timing: bus.DefaultTiming(),
			})
			b := m.Bus()
			bases := map[word.Addr]struct{}{}
			for i, ref := range tr.Refs {
				if err := applyRef(m.Cache(int(ref.PE)), ref); err != nil {
					t.Fatalf("ref %d: %v", i, err)
				}
				base := ref.Addr &^ 3
				bases[base] = struct{}{}
				if got, want := b.HolderMask(base), b.ScanHolders(base); got != want {
					t.Fatalf("ref %d (%v %#x): HolderMask = %b, ScanHolders = %b",
						i, ref.Op, ref.Addr, got, want)
				}
				total := 0
				for pe := 0; pe < sc.PEs; pe++ {
					inUse := m.Cache(pe).LocksInUse()
					if got := b.LockCount(pe); got != inUse {
						t.Fatalf("ref %d: PE %d lock count %d, directory holds %d", i, pe, got, inUse)
					}
					total += inUse
				}
				if got := b.TotalLockCount(); got != total {
					t.Fatalf("ref %d: total lock count %d, directories hold %d", i, got, total)
				}
				// Conflict evictions drop blocks other than the touched
				// one; sweep every block the stream has ever referenced.
				if i%512 == 511 || i == len(tr.Refs)-1 {
					for bb := range bases {
						if got, want := b.HolderMask(bb), b.ScanHolders(bb); got != want {
							t.Fatalf("ref %d: sweep: HolderMask(%#x) = %b, ScanHolders = %b",
								i, bb, got, want)
						}
					}
				}
			}
		})
	}
}
