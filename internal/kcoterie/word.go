package kcoterie

import (
	"fmt"
	"math/bits"
	"strings"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
)

var (
	_ analysis.WordAvailability = (*KMajority)(nil)
	_ analysis.CacheKeyer       = (*KMajority)(nil)
	_ analysis.WordAvailability = (*Partitioned)(nil)
	_ analysis.CacheKeyer       = (*Partitioned)(nil)
)

// AvailableWord is Available on a single-word live mask.
func (s *KMajority) AvailableWord(live uint64) bool {
	return bits.OnesCount64(live) >= s.q
}

// CacheKey implements analysis.CacheKeyer.
func (s *KMajority) CacheKey() string {
	return fmt.Sprintf("kmaj:n%d:q%d", s.n, s.q)
}

// wordSub is the sub-coterie word view precomputed by NewPartitioned:
// shift/mask extract the slice, and fast is non-nil when the sub-coterie
// has its own word path.
type wordSub struct {
	shift uint
	mask  uint64
	fast  analysis.WordAvailability
}

// AvailableWord is Available on a single-word live mask. A sub-coterie
// with its own word path answers on its slice of the word; one without
// (the h-grid family, Composite) answers through Available on its
// extracted slice. It panics when the combined universe exceeds 64.
func (p *Partitioned) AvailableWord(live uint64) bool {
	if p.wordSubs == nil {
		panic(fmt.Sprintf("kcoterie: AvailableWord needs a universe of at most 64 processes (have %d)", p.n))
	}
	for i := range p.wordSubs {
		w := &p.wordSubs[i]
		slice := (live >> w.shift) & w.mask
		var ok bool
		if w.fast != nil {
			ok = w.fast.AvailableWord(slice)
		} else {
			ok = p.subs[i].Available(bitset.FromWord(p.subs[i].Universe(), slice))
		}
		if ok {
			return true
		}
	}
	return false
}

// CacheKey implements analysis.CacheKeyer: the concatenation of the
// sub-coterie keys in slice order, or "" (uncacheable) when any sub-coterie
// lacks a key.
func (p *Partitioned) CacheKey() string {
	var b strings.Builder
	b.WriteString("kpart:")
	for i, sub := range p.subs {
		k, ok := sub.(analysis.CacheKeyer)
		if !ok {
			return ""
		}
		key := k.CacheKey()
		if key == "" {
			return ""
		}
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(key)
	}
	return b.String()
}
