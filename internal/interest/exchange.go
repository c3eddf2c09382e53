package interest

import (
	"math/bits"
	"time"
)

// DecayAgainst applies the decay algorithm eagerly at time now, treating as
// "connected" every keyword held by any of the peers (Algorithm 1's "if a
// device with I is connected": shared entries refresh T_l, the rest are
// re-anchored at their materialized weight, pruned when dead). The peers
// list must contain every currently connected device's table, not just the
// exchange partner — a transient interest learned from one neighbour must
// not decay while that neighbour is still attached. It is the eager
// reference the equivalence tests lock Round.Exchange (score.go) against.
func (t *Table) DecayAgainst(now time.Duration, peers ...*Table) {
	prune := t.pruneScratch[:0]
	for wi, w := range t.present {
		m := w
		for m != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(m))
			m &= m - 1
			shared := false
			for _, peer := range peers {
				if peer.present.test(id) {
					shared = true
					break
				}
			}
			if shared {
				t.lastShared[id] = now
				continue
			}
			if t.reanchor(id, now) {
				prune = append(prune, id)
			}
		}
	}
	for _, id := range prune {
		t.removeRow(id)
	}
	t.pruneScratch = prune
	if len(prune) > 0 {
		t.maybeCompact()
	}
}
