package bench

import (
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/trace"

	"pimcache/internal/bench/programs"
)

// equivScales are the smallest workloads that still touch every op and
// both lock outcomes; the equivalence oracle cares about exactness, not
// statistics.
var equivScales = map[string]int{"Tri": 6, "Semi": 64, "Puzzle": 2, "Pascal": 3}

// checkedReplay replays tr under ccfg one reference at a time and
// checks the bus presence filters against ground truth after each:
// the touched block's holder mask must equal a scan of every cache,
// and every PE's lock count must equal its lock directory. A final
// sweep covers blocks that left a cache as conflict victims.
func checkedReplay(t *testing.T, tr *trace.Trace, ccfg cache.Config) (bus.Stats, cache.Stats) {
	t.Helper()
	m := machine.New(machine.Config{PEs: tr.PEs, Layout: tr.Layout, Cache: ccfg, Timing: bus.DefaultTiming()})
	ports := make([]mem.Accessor, tr.PEs)
	for i := range ports {
		ports[i] = m.Port(i)
	}
	cr, err := trace.NewChunkReplayer(tr.PEs, ports)
	if err != nil {
		t.Fatal(err)
	}
	b := m.Bus()
	touched := map[word.Addr]struct{}{}
	for i, ref := range tr.Refs {
		if err := cr.Replay(tr.Refs[i:i+1], i); err != nil {
			t.Fatal(err)
		}
		touched[ref.Addr&^word.Addr(ccfg.BlockWords-1)] = struct{}{}
		if got, want := b.HolderMask(ref.Addr), b.ScanHolders(ref.Addr); got != want {
			t.Fatalf("ref %d (%v %#x): HolderMask = %b, ScanHolders = %b", i, ref.Op, ref.Addr, got, want)
		}
		total := 0
		for pe := 0; pe < tr.PEs; pe++ {
			inUse := m.Cache(pe).LocksInUse()
			if got := b.LockCount(pe); got != inUse {
				t.Fatalf("ref %d: PE %d lock count %d, directory holds %d", i, pe, got, inUse)
			}
			total += inUse
		}
		if got := b.TotalLockCount(); got != total {
			t.Fatalf("ref %d: total lock count %d, directories hold %d", i, got, total)
		}
	}
	for base := range touched {
		if got, want := b.HolderMask(base), b.ScanHolders(base); got != want {
			t.Fatalf("final sweep: HolderMask(%#x) = %b, ScanHolders = %b", base, got, want)
		}
	}
	return m.BusStats(), m.CacheStats()
}

// TestFilterEquivalence is the presence-filter correctness oracle on the
// benchmark programs: each runs live at 1–16 PEs, and its recorded
// stream is replayed under all three protocols with the filters checked
// against ground truth after every reference (checkedReplay). While the
// holder masks and lock counts are exact, a snoop or lock poll the
// filters skip would have visited a unit with nothing to report, so
// filtering cannot change a statistic. The PIM replay must reproduce
// the live run's statistics, which ties the checked stream to the live
// machine.
func TestFilterEquivalence(t *testing.T) {
	pesList := []int{1, 2, 4, 8, 16}
	if testing.Short() {
		pesList = []int{1, 4, 16}
	}
	protocols := []struct {
		name  string
		opts  cache.Options
		proto cache.Protocol
	}{
		{"pim", cache.OptionsAll(), cache.ProtocolPIM},
		{"illinois", cache.OptionsNone(), cache.ProtocolIllinois},
		{"writethrough", cache.OptionsNone(), cache.ProtocolWriteThrough},
	}
	for _, b := range programs.All() {
		b := b
		scale, ok := equivScales[b.Name]
		if !ok {
			scale = b.SmallScale
		}
		if testing.Short() && b.Name == "Semi" {
			continue // the largest stream; the other three cover every op
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, pes := range pesList {
				live, tr, err := RunLive(b, scale, pes, BaseCache(cache.OptionsAll()), true)
				if err != nil {
					t.Fatalf("live run at %d PEs: %v", pes, err)
				}
				for _, p := range protocols {
					cfg := BaseCache(p.opts)
					cfg.Protocol = p.proto
					bs, cs := checkedReplay(t, tr, cfg)
					if p.proto != cache.ProtocolPIM {
						continue
					}
					if bs != live.Bus {
						t.Errorf("%d PEs: bus stats diverge\nlive:   %+v\nreplay: %+v", pes, live.Bus, bs)
					}
					if cs != live.Cache {
						t.Errorf("%d PEs: cache stats diverge\nlive:   %+v\nreplay: %+v", pes, live.Cache, cs)
					}
				}
			}
		})
	}
}
