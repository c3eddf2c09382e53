package interest

import (
	"math"
	"math/bits"
	"time"

	"dtnsim/internal/ident"
)

// refRound is the two-phase exchange round that Round.Exchange replaced,
// kept as a test oracle: it scores both sides without writing either table
// (eviction sets, shared masks, staged growth and acquisition lists), then
// applies each side in turn. Side b's shared mask substitutes a's
// post-sweep membership for a's live rows.
type refRound struct {
	a, b refSide
}

type refSide struct {
	shared, evictSet bitset
	evicted          int
	swept            bool
	sweepDeath       time.Duration
	growIDs, acqIDs  []int32
	growW, acqW      []float64
}

func (r *refRound) run(a, b *Table, aID, bID ident.NodeID, aPeers, bPeers []*Table, now, dt time.Duration) {
	r.a.score(a, now, aPeers, nil, nil)
	r.b.score(b, now, bPeers, a, &r.a)
	refGrowth(&r.a, &r.b, a, b, dt)
	sec := dt.Seconds()
	r.a.acquisitions(a, &r.b, b, now, a.params.GrowthRate, sec)
	r.b.acquisitions(b, &r.a, a, now, b.params.GrowthRate, sec)
	r.a.apply(a, bID, now)
	r.b.apply(b, aID, now)
}

func (p *refSide) score(t *Table, now time.Duration, peers []*Table, partner *Table, partnerPlan *refSide) {
	nw := len(t.present)
	p.shared = p.shared.reset(nw)
	p.evictSet = p.evictSet.reset(nw)
	p.evicted = 0
	p.growIDs, p.growW = p.growIDs[:0], p.growW[:0]
	p.acqIDs, p.acqW = p.acqIDs[:0], p.acqW[:0]
	for wi := 0; wi < nw; wi++ {
		var u uint64
		for _, peer := range peers {
			pw := peer.present.word(wi)
			if peer == partner {
				pw &^= partnerPlan.evictSet.word(wi)
			}
			u |= pw
		}
		p.shared[wi] = t.present[wi] & u
	}
	p.swept = t.params.PruneBelow > 0 && now >= t.nextDeath
	if !p.swept {
		return
	}
	p.sweepDeath = noDeath
	for wi := 0; wi < nw; wi++ {
		m := t.present[wi] &^ t.direct.word(wi) &^ p.shared[wi]
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			id := int32(wi<<6 + b)
			if t.deadRow(id, now) {
				p.evictSet[wi] |= 1 << uint(b)
				p.evicted++
			} else if d := t.deathBound(t.weights[id], t.lastShared[id]); d < p.sweepDeath {
				p.sweepDeath = d
			}
		}
	}
}

func refGrowth(aPlan, bPlan *refSide, a, b *Table, dt time.Duration) {
	sec := dt.Seconds()
	nw := min(len(a.present), len(b.present))
	for wi := 0; wi < nw; wi++ {
		g := a.present[wi] & b.present[wi] &^ aPlan.evictSet.word(wi) &^ bPlan.evictSet.word(wi)
		for g != 0 {
			bit := uint(bits.TrailingZeros64(g))
			g &= g - 1
			id := int32(wi<<6) + int32(bit)
			aw, bw := a.weights[id], b.weights[id]
			aDirBit, bDirBit := a.direct.word(wi)>>bit&1, b.direct.word(wi)>>bit&1
			if aw != MaxWeight {
				aPlan.growIDs = append(aPlan.growIDs, id)
				aPlan.growW = append(aPlan.growW, clampWeight(aw+growthDeltaIdx(bw*a.params.GrowthRate*sec, aDirBit<<1|bDirBit)))
			}
			if bw != MaxWeight {
				bPlan.growIDs = append(bPlan.growIDs, id)
				bPlan.growW = append(bPlan.growW, clampWeight(bw+growthDeltaIdx(aw*b.params.GrowthRate*sec, bDirBit<<1|aDirBit)))
			}
		}
	}
}

func (p *refSide) acquisitions(t *Table, partner *refSide, pt *Table, now time.Duration, rate, sec float64) {
	for wi := 0; wi < len(pt.present); wi++ {
		m := pt.present[wi] &^ partner.evictSet.word(wi) &^ (t.present.word(wi) &^ p.evictSet.word(wi))
		for m != 0 {
			bit := uint(bits.TrailingZeros64(m))
			m &= m - 1
			id := int32(wi<<6) + int32(bit)
			dirBit := pt.direct.word(wi) >> bit & 1
			src := pt.weights[id]
			if partner.shared.word(wi)>>bit&1 == 0 {
				src, _ = decayedWeight(pt.params, src, dirBit != 0, now-pt.lastShared[id])
			}
			p.acqIDs = append(p.acqIDs, id)
			p.acqW = append(p.acqW, clampWeight(growthDeltaIdx(src*rate*sec, dirBit)))
		}
	}
}

func (p *refSide) apply(t *Table, from ident.NodeID, now time.Duration) {
	for wi, w := range p.evictSet {
		for w != 0 {
			t.removeRow(int32(wi<<6 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	for wi, w := range p.shared {
		for w != 0 {
			t.lastShared[int32(wi<<6+bits.TrailingZeros64(w))] = now
			w &= w - 1
		}
	}
	for i, id := range p.growIDs {
		t.weights[id] = p.growW[i]
		if p.growW[i] == MaxWeight {
			t.sat.set(id)
		}
	}
	if p.swept {
		t.nextDeath = p.sweepDeath
		minW := math.Inf(1)
		for wi, w := range p.shared {
			m := w &^ t.direct.word(wi)
			for m != 0 {
				id := int32(wi<<6 + bits.TrailingZeros64(m))
				m &= m - 1
				minW = math.Min(minW, t.weights[id])
			}
		}
		if !math.IsInf(minW, 1) {
			t.mergeDeath(minW, now)
		}
	}
	for i, id := range p.acqIDs {
		t.insertRow(id, p.acqW[i], false, now, from)
	}
	if p.evicted > 0 {
		t.maybeCompact()
	}
}
