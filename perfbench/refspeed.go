package main

import "time"

// On a host shared with other guests, speed drifts with their load, by
// up to 1.7× over minutes on a 2-vCPU KVM guest, and a run median drifts
// with it. perfbench therefore times a fixed reference kernel
// just before every operation and reports the operation's time at the
// reference speed:
//
//	time × refNominal / mean(kernel time before, kernel time after)
//
// The kernel is perfbench's own code, so a change to the simulator does
// not change it. It is a miniature of the simulator's hot path: 8
// direct-mapped tag arrays and a presence table, driven by a xorshift
// address stream, first over a small address range (tables resident
// close to the core) and then over a large one (a 2 MB presence table,
// as on the miss path). A slow spell of the host slows it and the
// simulator alike, and the ratio of the two stays put.

// refNominal is the kernel's median time on the host where it was set:
// a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest, Go 1.24. Times at
// the reference speed read as seconds on that host at its usual speed.
const refNominal = 40 * time.Millisecond

// refSteps is the number of addresses in each of the kernel's two
// phases.
const refSteps = 2_000_000

const (
	refPEs       = 8
	refSets      = 4096
	refSmallMask = 1<<15 - 1
	refLargeMask = 1<<21 - 1
)

var (
	refTags     = make([]uint32, refPEs*refSets)
	refPresence = make([]uint8, refLargeMask+1)
	refSink     int
)

// refKernel runs the reference kernel once and returns its wall time.
// Every call starts from cleared tables, so every call does the same
// work. It allocates nothing.
func refKernel() time.Duration {
	start := time.Now()
	clear(refTags)
	clear(refPresence)
	hits := refPhase(refSmallMask) + refPhase(refLargeMask)
	refSink += hits
	return time.Since(start)
}

func refPhase(mask uint32) int {
	x := uint64(88172645463325252)
	hits := 0
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pe := x & (refPEs - 1)
		addr := uint32(x>>3) & mask
		slot := pe*refSets + uint64(addr&(refSets-1))
		if refTags[slot] == addr {
			hits++
			continue
		}
		refPresence[refTags[slot]] &^= 1 << pe
		refPresence[addr] |= 1 << pe
		refTags[slot] = addr
	}
	return hits
}

// refFactor is the factor that takes a time measured between kernel
// samples before and after to the reference speed.
func refFactor(before, after time.Duration) float64 {
	return 2 * refNominal.Seconds() / (before + after).Seconds()
}
