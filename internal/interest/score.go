package interest

import (
	"math"
	"math/bits"
	"time"

	"dtnsim/internal/ident"
)

// This file holds the pairwise RTSR exchange round over the lazy
// struct-of-arrays tables: Round.Exchange runs one contact's round — eviction
// sweeps, shared-row refreshes, growth, acquisitions — as a single in-place
// pass over both tables.
//
// Under lazy decay a round never rewrites unshared rows: their stored
// anchors already encode the decayed value (readers materialize it), so the
// round touches only rows whose anchor actually moves — shared rows
// (refresh), mutually-held rows (growth), partner-only rows (acquisition) —
// plus the eviction sweep when the table's nextDeath deadline has passed.
// The historical eager round rewrote every row of both tables and probed
// every (row, peer) pair; this one is bitset algebra plus O(touched rows).
//
// Writing in place keeps the eager round's ordering rules explicit:
//
//   - a's shared mask sees every peer's membership (b's included) before
//     either sweep; a's sweep then evicts in place, so b's shared mask sees
//     a's post-sweep membership.
//   - growth reads both sides' anchor weights for a row before it writes
//     either.
//   - acquisitions are judged against both sides' post-sweep membership and
//     collected for both sides before any acquired row is inserted (an
//     insert may cap-evict a row the partner would otherwise acquire).
//   - each side's writes land in the order evictions, refresh, growth,
//     deadline rebuild, inserts, compaction.

// Round is the reusable scratch of the pairwise exchange round; the zero
// value is ready. Not safe for concurrent use.
type Round struct {
	a, b side
}

// side is one endpoint's per-round state.
type side struct {
	// shared marks the rows held by at least one connected peer; their
	// anchor time is refreshed to now.
	shared bitset
	// swept is whether the eviction sweep ran (the table's nextDeath
	// deadline had passed) and evicted how many rows it removed.
	// sweepDeath is the min death bound of the sweep's surviving
	// candidates, folded into the rebuilt table deadline — the sweep walk
	// computes it in passing so no separate recompute pass is needed.
	swept      bool
	evicted    int
	sweepDeath time.Duration
	// acqIDs/acqW are the partner-only rows acquired this round with their
	// first-growth weights, ascending by ID.
	acqIDs []int32
	acqW   []float64
}

// Exchange runs the pairwise RTSR exchange for a contact that has lasted dt
// since its previous exchange: sweep dead rows and refresh shared anchors
// in both tables (against all of their respective connected peers), then
// grow both from the other's anchor weights, acquiring unknown keywords as
// transient interests. Both tables must share Params and an Interner (the
// engine builds every node from one Config). aPeers/bPeers are the full
// connected-peer table lists for a and b; each must include the partner.
func (r *Round) Exchange(a, b *Table, aID, bID ident.NodeID, aPeers, bPeers []*Table, now, dt time.Duration) {
	r.a.sweep(a, now, aPeers)
	r.b.sweep(b, now, bPeers)
	r.a.refresh(a, now)
	r.b.refresh(b, now)
	sec := dt.Seconds()
	grow(a, b, sec)
	r.a.rebuildDeadline(a, now)
	r.b.rebuildDeadline(b, now)
	r.a.collectAcquisitions(a, &r.b, b, now, a.params.GrowthRate, sec)
	r.b.collectAcquisitions(b, &r.a, a, now, b.params.GrowthRate, sec)
	r.a.insertAcquisitions(a, bID, now)
	r.b.insertAcquisitions(b, aID, now)
}

// Evictions reports how many rows the last round's sweeps evicted.
func (r *Round) Evictions() int { return r.a.evicted + r.b.evicted }

// Sweeps reports how many of the two endpoints ran an eviction sweep in the
// last round (0–2).
func (r *Round) Sweeps() int {
	n := 0
	if r.a.swept {
		n++
	}
	if r.b.swept {
		n++
	}
	return n
}

// sweep computes the endpoint's shared mask from its peers' current
// membership and, when the table's eviction deadline has passed, evicts
// its dead rows in place.
func (s *side) sweep(t *Table, now time.Duration, peers []*Table) {
	nw := len(t.present)
	s.shared = s.shared.reset(nw)
	s.evicted = 0

	// shared = t.present ∩ (∪ peers.present), 64 rows per word. Algorithm
	// 1's "if a device with I is connected": these rows hold their weight
	// and refresh T_l; everything else keeps decaying lazily.
	for wi := 0; wi < nw; wi++ {
		var u uint64
		for _, peer := range peers {
			u |= peer.present.word(wi)
		}
		s.shared[wi] = t.present[wi] & u
	}

	// Eviction sweep, only when a transient row could have died since the
	// last sweep. Candidates are unshared transient rows — shared rows are
	// held regardless of weight, exactly as the eager round held them —
	// and deadRow is the same formula the eager prune used, so the sweep
	// evicts exactly the rows the eager per-round pass would have.
	s.swept = t.params.PruneBelow > 0 && now >= t.nextDeath
	if !s.swept {
		return
	}
	s.sweepDeath = noDeath
	for wi := 0; wi < nw; wi++ {
		m := t.present[wi] &^ t.direct.word(wi) &^ s.shared[wi]
		for m != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(m))
			m &= m - 1
			if t.deadRow(id, now) {
				t.removeRow(id)
				s.evicted++
			} else if d := t.deathBound(t.weights[id], t.lastShared[id]); d < s.sweepDeath {
				// Survivors keep their stored (w, T_l) through the round —
				// they are by construction unshared, not grown, not
				// acquired — so their bounds fold into the new deadline
				// here, in the walk that already visits them.
				s.sweepDeath = d
			}
		}
	}
}

// refresh re-anchors the shared rows at now. Converged tables share whole
// words of rows, which take a plain fill instead of a bit walk.
func (s *side) refresh(t *Table, now time.Duration) {
	for wi, w := range s.shared {
		if w == ^uint64(0) {
			ls := t.lastShared[wi<<6 : wi<<6+64]
			for i := range ls {
				ls[i] = now
			}
			continue
		}
		for w != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			t.lastShared[id] = now
		}
	}
}

// grow applies growth to every row alive on both sides, each side growing
// from the other side's anchor weight — mutually-held rows are shared on
// both sides, so their anchors are exactly the eager round's
// decayed-and-refreshed values — reproducing the eager
// growthDeltas+applyDeltas arithmetic bit for bit.
func grow(a, b *Table, sec float64) {
	nw := min(len(a.present), len(b.present))
	aRate, bRate := a.params.GrowthRate, b.params.GrowthRate
	for wi := 0; wi < nw; wi++ {
		// Rows saturated on both sides can only stay at MaxWeight (the
		// per-bit skip below); the sat bitsets mark exactly those rows, so
		// whole words of them drop here without loading a single weight —
		// the dominant case once a dense network's tables have converged.
		g := a.present[wi] & b.present[wi] &^ (a.sat.word(wi) & b.sat.word(wi))
		if g == 0 {
			continue
		}
		aDirW, bDirW := a.direct.word(wi), b.direct.word(wi)
		base := int32(wi << 6)
		for g != 0 {
			bit := uint(bits.TrailingZeros64(g))
			g &= g - 1
			id := base + int32(bit)
			aw, bw := a.weights[id], b.weights[id]
			// A row exactly at MaxWeight can only stay there: deltas are
			// ≥ 0 and clamped, so clampWeight(MaxWeight+Δ) == MaxWeight and
			// the write would be a no-op. Skipping it drops the dominant
			// per-row cost (two float divisions) once the weight-saturation
			// dynamic (DESIGN.md) has pushed dense-network tables to 1.0.
			// Out-of-range weights (!= rather than >=) still take the full
			// compute-and-clamp path, matching the eager arithmetic.
			aDirBit, bDirBit := aDirW>>bit&1, bDirW>>bit&1
			if aw != MaxWeight {
				a.setGrown(id, clampWeight(aw+growthDeltaIdx(bw*aRate*sec, aDirBit<<1|bDirBit)))
			}
			if bw != MaxWeight {
				b.setGrown(id, clampWeight(bw+growthDeltaIdx(aw*bRate*sec, bDirBit<<1|aDirBit)))
			}
		}
	}
}

// setGrown writes a grown weight. The row was unsaturated before the write
// (the caller skips saturated rows), so only the clear→set transition of
// the sat bit can happen here.
func (t *Table) setGrown(id int32, w float64) {
	t.weights[id] = w
	if w == MaxWeight {
		t.sat.set(id)
	}
}

// rebuildDeadline, when a sweep ran, rebuilds the table deadline piecewise
// to the value a full recompute would give: the surviving candidates' min
// bound was collected during the sweep walk (sweepDeath), and the refreshed
// shared transient rows are folded in here, after growth, so their bounds
// use the post-growth weights the recompute would have seen; acquisitions
// merge themselves on insert. Without a sweep the old deadline stays —
// refreshes and growth only push true death times later, so it remains a
// valid conservative bound.
func (s *side) rebuildDeadline(t *Table, now time.Duration) {
	if !s.swept {
		return
	}
	t.nextDeath = s.sweepDeath
	// All refreshed rows share the anchor time now, and the death bound is
	// monotone non-decreasing in the weight at a fixed anchor, so the min
	// bound over the shared transient rows is the bound of their minimum
	// weight — found with plain compares, one bound conversion at the end.
	minW := math.Inf(1)
	for wi, w := range s.shared {
		m := w &^ t.direct.word(wi)
		for m != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(m))
			m &= m - 1
			if w := t.weights[id]; w < minW {
				minW = w
			}
		}
	}
	if !math.IsInf(minW, 1) {
		t.mergeDeath(minW, now)
	}
}

// collectAcquisitions collects the rows alive in the partner's table that
// this side does not hold, at first-growth weight. The source weight is
// the partner's observed value this round: its anchor when the partner
// refreshed the row (some device shares it with the partner), its
// materialized decayed value otherwise — exactly the post-decay weight the
// eager round exposed to acquisition.
func (s *side) collectAcquisitions(t *Table, partner *side, pt *Table, now time.Duration, rate, sec float64) {
	s.acqIDs, s.acqW = s.acqIDs[:0], s.acqW[:0]
	for wi, pw := range pt.present {
		m := pw &^ t.present.word(wi)
		if m == 0 {
			continue
		}
		dirW, sharedW := pt.direct.word(wi), partner.shared.word(wi)
		base := int32(wi << 6)
		for m != 0 {
			bit := uint(bits.TrailingZeros64(m))
			m &= m - 1
			id := base + int32(bit)
			dirBit := dirW >> bit & 1
			src := pt.weights[id]
			if sharedW>>bit&1 == 0 {
				src, _ = decayedWeight(pt.params, src, dirBit != 0, now-pt.lastShared[id])
			}
			s.acqIDs = append(s.acqIDs, id)
			s.acqW = append(s.acqW, clampWeight(growthDeltaIdx(src*rate*sec, dirBit)))
		}
	}
}

// insertAcquisitions inserts the collected rows, then compacts the storage
// if the sweep emptied its tail.
func (s *side) insertAcquisitions(t *Table, from ident.NodeID, now time.Duration) {
	for i, id := range s.acqIDs {
		t.insertRow(id, s.acqW[i], false, now, from)
	}
	if s.evicted > 0 {
		t.maybeCompact()
	}
}

// psiInv holds 1/ψ for the exactly-representable cases. Dividing by 1, 2,
// or 4 is an exact power-of-two scaling, so multiplying by the reciprocal
// yields the bit-identical IEEE754 result; only ψ = 3 needs a true divide.
var psiInv = [5]float64{0, 1, 0.5, 0, 0.25}

// growthDelta computes x/ψ with the division strength-reduced to a multiply
// wherever that is exact. ψ = 3 (local transient, peer direct) keeps the
// divide: 1/3 is not representable and the product would round differently.
func growthDelta(x float64, psi int) float64 {
	if psi == 3 {
		return x / 3
	}
	return x * psiInv[psi]
}

// psiInvIdx is psiInv reindexed by the direct-bit pair localDirect<<1 |
// peerDirect, so the growth inner loop maps raw mask bits straight to the
// multiplier without materializing bools or running psiCase's switch:
// 0b11→ψ1, 0b10→ψ2, 0b01→ψ3 (true divide, slot unused), 0b00→ψ4.
var psiInvIdx = [4]float64{0.25, 0, 0.5, 1}

// growthDeltaIdx is growthDelta over the direct-bit pair index; identical
// arithmetic, cheaper dispatch.
func growthDeltaIdx(x float64, k uint64) float64 {
	if k == 0b01 {
		return x / 3
	}
	return x * psiInvIdx[k]
}

func clampWeight(w float64) float64 {
	if w > MaxWeight {
		return MaxWeight
	}
	return w
}
