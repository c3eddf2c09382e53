package interest

import (
	"fmt"
	"math/bits"
	"testing"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/sim"
)

// cloneTable deep-copies a table onto the same interner, preserving rows,
// weights, flags, counters, and the eviction deadline.
func cloneTable(t *Table) *Table {
	return &Table{
		params:       t.params,
		in:           t.in,
		weights:      append([]float64(nil), t.weights...),
		lastShared:   append([]time.Duration(nil), t.lastShared...),
		source:       append([]ident.NodeID(nil), t.source...),
		present:      append(bitset(nil), t.present...),
		direct:       append(bitset(nil), t.direct...),
		sat:          append(bitset(nil), t.sat...),
		count:        t.count,
		nextDeath:    t.nextDeath,
		invBeta:      t.invBeta,
		invBetaTheta: t.invBetaTheta,
		capRows:      t.capRows,
	}
}

// randomTable builds a table with a random mix of direct and transient
// rows over the first nKeywords interned keywords. LastShared values spread
// far enough back that decay, pruning, and the div < 1 clamp all trigger.
func randomTable(rng *sim.RNG, params Params, in *Interner, nKeywords int, now time.Duration) *Table {
	t, err := NewTable(params, in)
	if err != nil {
		panic(err)
	}
	for k := 0; k < nKeywords; k++ {
		if rng.Coin(0.45) {
			continue
		}
		kw := fmt.Sprintf("kw%d", k)
		age := time.Duration(rng.Range(0, float64(2*time.Minute)))
		if rng.Coin(0.3) {
			t.DeclareDirect(kw, now-age)
			t.SetWeight(kw, rng.Range(InitialWeight, MaxWeight))
		} else {
			t.Acquire(kw, ident.NodeID(rng.Intn(50)), now-age)
			t.SetWeight(kw, rng.Range(0, MaxWeight))
		}
	}
	return t
}

func requireTablesEqual(t *testing.T, label string, got, want *Table) {
	t.Helper()
	if got.count != want.count {
		t.Fatalf("%s: %d rows, want %d\n got  %v\n want %v", label, got.count, want.count, got.Keywords(), want.Keywords())
	}
	for wi, w := range want.present {
		for w != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			if !got.present.test(id) {
				t.Fatalf("%s: row %q missing", label, want.in.Word(id))
			}
			if got.weights[id] != want.weights[id] ||
				got.direct.test(id) != want.direct.test(id) ||
				got.lastShared[id] != want.lastShared[id] ||
				got.source[id] != want.source[id] {
				t.Fatalf("%s: row %q = (w=%v d=%v t=%v from=%v), want (w=%v d=%v t=%v from=%v)",
					label, want.in.Word(id),
					got.weights[id], got.direct.test(id), got.lastShared[id], got.source[id],
					want.weights[id], want.direct.test(id), want.lastShared[id], want.source[id])
			}
		}
	}
}

// TestRoundMatchesScoreApplyReference pins the fused in-place round
// against the two-phase reference it replaced (refRound: score both sides
// read-only, then apply each side), over randomized multi-peer contacts with
// and without a row cap. One Round is reused across all trials, as the
// engine reuses its scratch, so state leaking between rounds shows too.
func TestRoundMatchesScoreApplyReference(t *testing.T) {
	rng := sim.NewRNG(42)
	params := DefaultParams()
	var r Round
	for trial := 0; trial < 400; trial++ {
		in := NewInterner()
		now := 10 * time.Minute
		dt := time.Duration(rng.Range(float64(time.Second), float64(90*time.Second)))
		nKw := 4 + rng.Intn(150)

		a := randomTable(rng, params, in, nKw, now)
		b := randomTable(rng, params, in, nKw, now)
		if trial%2 == 1 {
			a.SetCap(1 + rng.Intn(nKw))
			b.SetCap(1 + rng.Intn(nKw))
		}
		// Half the trials start with passed deadlines, so both sweeps run.
		if rng.Coin(0.5) {
			a.nextDeath, b.nextDeath = 0, 0
		}
		aPeers := []*Table{b}
		bPeers := []*Table{a}
		for p := rng.Intn(3); p > 0; p-- {
			aPeers = append(aPeers, randomTable(rng, params, in, nKw, now))
		}
		for p := rng.Intn(3); p > 0; p-- {
			bPeers = append(bPeers, randomTable(rng, params, in, nKw, now))
		}

		aRef, bRef := cloneTable(a), cloneTable(b)
		aPeersRef := append([]*Table{bRef}, aPeers[1:]...)
		bPeersRef := append([]*Table{aRef}, bPeers[1:]...)

		var ref refRound
		ref.run(aRef, bRef, 1, 2, aPeersRef, bPeersRef, now, dt)
		r.Exchange(a, b, 1, 2, aPeers, bPeers, now, dt)

		requireTablesEqual(t, fmt.Sprintf("trial %d table a", trial), a, aRef)
		requireTablesEqual(t, fmt.Sprintf("trial %d table b", trial), b, bRef)
		for _, p := range []struct {
			name     string
			got, ref *Table
		}{{"a", a, aRef}, {"b", b, bRef}} {
			if p.got.nextDeath != p.ref.nextDeath || p.got.capEvictions != p.ref.capEvictions ||
				p.got.compactions != p.ref.compactions || len(p.got.present) != len(p.ref.present) {
				t.Fatalf("trial %d table %s: (deadline %v, cap evictions %d, compactions %d, words %d), want (%v, %d, %d, %d)",
					trial, p.name, p.got.nextDeath, p.got.capEvictions, p.got.compactions, len(p.got.present),
					p.ref.nextDeath, p.ref.capEvictions, p.ref.compactions, len(p.ref.present))
			}
		}
		if r.Evictions() != ref.a.evicted+ref.b.evicted {
			t.Fatalf("trial %d: %d evictions, want %d", trial, r.Evictions(), ref.a.evicted+ref.b.evicted)
		}
	}
}

// TestLazyExchangeMatchesEagerReference is the tentpole equivalence lock:
// one lazy round, starting from a freshly anchored population,
// must be bit-identical to the historical eager sequence — DecayAgainst
// both sides (a first, exactly as the old ExchangeGrow ordered it), exchange
// decayed snapshots, Grow both — on membership, direct flags, provenance,
// and weights observed at the exchange time. Weights compare with ==, not a
// tolerance: the lazy path must reproduce the eager float operations
// exactly. 250 randomized trials cover decay, the div < 1 clamp,
// prune-at-threshold eviction, re-acquisition of just-pruned rows, growth
// clamping, and multi-peer refresh holds.
func TestLazyExchangeMatchesEagerReference(t *testing.T) {
	rng := sim.NewRNG(7)
	params := DefaultParams()
	var r Round
	for trial := 0; trial < 250; trial++ {
		in := NewInterner()
		now := 10 * time.Minute
		dt := time.Duration(rng.Range(float64(time.Second), float64(90*time.Second)))
		nKw := 4 + rng.Intn(24)

		a := randomTable(rng, params, in, nKw, now)
		b := randomTable(rng, params, in, nKw, now)
		aPeers := []*Table{b}
		bPeers := []*Table{a}
		for p := rng.Intn(3); p > 0; p-- {
			aPeers = append(aPeers, randomTable(rng, params, in, nKw, now))
		}
		for p := rng.Intn(3); p > 0; p-- {
			bPeers = append(bPeers, randomTable(rng, params, in, nKw, now))
		}

		aRef, bRef := cloneTable(a), cloneTable(b)
		aPeersRef := []*Table{bRef}
		for _, p := range aPeers[1:] {
			aPeersRef = append(aPeersRef, cloneTable(p))
		}
		bPeersRef := []*Table{aRef}
		for _, p := range bPeers[1:] {
			bPeersRef = append(bPeersRef, cloneTable(p))
		}

		// Eager reference: decay a first (so b's sweep sees a post-prune,
		// matching the scored round's ordering), exchange snapshots, grow.
		aRef.DecayAgainst(now, aPeersRef...)
		bRef.DecayAgainst(now, bPeersRef...)
		snapA := aRef.Snapshot()
		snapB := bRef.Snapshot()
		aRef.Grow(now, []PeerView{{Peer: 2, ConnectedFor: dt, Weights: snapB}})
		bRef.Grow(now, []PeerView{{Peer: 1, ConnectedFor: dt, Weights: snapA}})

		r.Exchange(a, b, 1, 2, aPeers, bPeers, now, dt)

		check := func(label string, lazy, ref *Table) {
			t.Helper()
			if lazy.Len() != ref.Len() {
				t.Fatalf("trial %d %s: %d rows, want %d\n lazy %v\n ref  %v",
					trial, label, lazy.Len(), ref.Len(), lazy.Keywords(), ref.Keywords())
			}
			for _, kw := range ref.Keywords() {
				lr, ok := lazy.Row(kw)
				if !ok {
					t.Fatalf("trial %d %s: row %q missing", trial, label, kw)
				}
				rr, _ := ref.Row(kw)
				if lr.Direct != rr.Direct || lr.AcquiredFrom != rr.AcquiredFrom {
					t.Fatalf("trial %d %s: row %q flags = %+v, want %+v", trial, label, kw, lr, rr)
				}
				// The eager reference re-anchored every row at now, so its
				// stored weight is the observed weight; the lazy table must
				// materialize to the identical bits.
				if got, want := lazy.WeightAt(kw, now), ref.Weight(kw); got != want {
					t.Fatalf("trial %d %s: row %q weight = %v, want %v", trial, label, kw, got, want)
				}
			}
		}
		check("table a", a, aRef)
		check("table b", b, bRef)
	}
}
