package mem

import (
	"math"

	"pimcache/internal/kl1/word"
)

// areaMapLen is the number of granules an AreaMap covers. One byte per
// entry keeps the whole table within about four host cache lines.
const areaMapLen = 256

// areaStraddle marks a granule that holds addresses of more than one
// area (or that wraps the address space); lookups in it take the
// compare chain.
const areaStraddle Area = 0xFF

// AreaMap classifies addresses with one table load instead of the
// compare chain of Bounds.AreaOf, which it matches on every address.
//
// The table splits [InstBase, InstBase+areaMapLen<<shift) into
// areaMapLen granules of 1<<shift words each, with shift the smallest
// that covers the whole layout. A granule lying inside one area holds
// that area. A granule that an area boundary cuts (at most one per
// boundary) holds areaStraddle, and only addresses in it pay for the
// compare chain, as do addresses outside the table (the extra last
// entry, always areaStraddle, catches them). The bundled layouts size
// every area in multiples of the granule, so they have no straddling
// granule at all.
type AreaMap struct {
	base  word.Addr
	shift uint8
	tab   [areaMapLen + 1]Area
	// lim holds InstBase, HeapBase, GoalBase, SuspBase, CommBase and
	// End: the bounds in the order AreaOf compares them.
	lim [6]word.Addr
}

// NewAreaMap builds the table for b. A granule's entry is the area of
// its first and last address when the two agree, which is exact because
// AreaOf gives each area one interval of addresses, whatever the
// bounds: the first case of its chain that holds picks the area, so
// area k covers [max of the bounds before it, its own bound), and
// AreaNone above InstBase covers [max of all bounds, 2^32). A granule
// that runs past 2^32 would also hold the addresses below InstBase, so
// it stays areaStraddle.
func NewAreaMap(b Bounds) AreaMap {
	m := AreaMap{
		base: b.InstBase,
		lim:  [6]word.Addr{b.InstBase, b.HeapBase, b.GoalBase, b.SuspBase, b.CommBase, b.End},
	}
	for i := range m.tab {
		m.tab[i] = areaStraddle
	}
	span := uint64(b.End - b.InstBase)
	for span > uint64(areaMapLen)<<m.shift {
		m.shift++
	}
	for i := range areaMapLen {
		lo := uint64(b.InstBase) + uint64(i)<<m.shift
		hi := lo + 1<<m.shift - 1
		if hi > math.MaxUint32 {
			break // this granule and all later ones wrap word.Addr
		}
		if first := b.AreaOf(word.Addr(lo)); first == b.AreaOf(word.Addr(hi)) {
			m.tab[i] = first
		}
	}
	return m
}

// Of classifies a, exactly as Bounds.AreaOf does. It makes no call, so
// it inlines into the per-reference paths.
func (m *AreaMap) Of(a word.Addr) Area {
	// An address below InstBase wraps to a large index and lands on the
	// extra last entry, as does one past the table.
	ar := m.tab[min(uint32(a-m.base)>>(m.shift&31), areaMapLen)]
	if ar != areaStraddle {
		return ar
	}
	// AreaOf's compare chain as a loop (a call here would push Of over
	// the inlining budget): the area is the index of the first bound
	// above a, and an address past End wraps round to AreaNone.
	j := 0
	for j < len(m.lim) && a >= m.lim[j] {
		j++
	}
	return Area(j % len(m.lim))
}

// Bounds returns the area ranges the table was built from.
func (m *AreaMap) Bounds() Bounds {
	return Bounds{m.lim[0], m.lim[1], m.lim[2], m.lim[3], m.lim[4], m.lim[5]}
}
