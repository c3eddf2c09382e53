package routing

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"dtnsim/internal/interest"
	"dtnsim/internal/message"
	"dtnsim/internal/sim"
)

// oracleEligible is the per-message offer precondition the routers used
// before candidates came from the resident-index merge: the hop-path scan,
// then the buffer probe.
func oracleEligible(m *message.Message, v NodeView) bool {
	for _, hop := range m.Path {
		if hop == v.ID() {
			return false
		}
	}
	return !v.Buffer().Has(m.ID)
}

// oracleRole is each router's per-message rule as it stood in that loop.
func oracleRole(r Router, m *message.Message, u, v NodeView) PeerRole {
	switch r := r.(type) {
	case ChitChat:
		return ClassifyPeer(m, u, v)
	case Direct:
		if ClassifyPeer(m, u, v) == RoleDestination {
			return RoleDestination
		}
		return RoleNone
	case Epidemic:
		if ClassifyPeer(m, u, v) == RoleDestination {
			return RoleDestination
		}
		return RoleRelay
	case TwoHop:
		if v.Interests().HasDirectAnyID(KeywordIDs(m, u.Interests().Interner())) {
			return RoleDestination
		}
		if m.Source == u.ID() {
			return RoleRelay
		}
		return RoleNone
	case *SprayAndWait:
		if m.CopiesLeft == 0 {
			m.CopiesLeft = r.L
		}
		switch {
		case ClassifyPeer(m, u, v) == RoleDestination:
			return RoleDestination
		case m.CopiesLeft > 1:
			return RoleRelay
		}
		return RoleNone
	case *Prophet:
		if v.Interests().HasDirectAnyID(KeywordIDs(m, u.Interests().Interner())) {
			return RoleDestination
		}
		if r.deliveryScore(v.ID(), m) > r.deliveryScore(u.ID(), m) {
			return RoleRelay
		}
		return RoleNone
	}
	panic(fmt.Sprintf("no oracle for %T", r))
}

// oracleOffers is the router loop the resident-index merge replaced: walk
// u's residents in insertion order, keep the eligible ones the router's
// rule gives a role, and order them with the sort.SliceStable comparator.
func oracleOffers(r Router, u, v NodeView) []Offer {
	var offers []Offer
	for _, m := range u.Buffer().Messages() {
		if !oracleEligible(m, v) {
			continue
		}
		if role := oracleRole(r, m, u, v); role != RoleNone {
			offers = append(offers, Offer{Msg: m, Role: role})
		}
	}
	sort.SliceStable(offers, func(i, j int) bool {
		a, b := offers[i].Msg, offers[j].Msg
		if offers[i].Role != offers[j].Role {
			return offers[i].Role > offers[j].Role
		}
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		if a.Quality != b.Quality {
			return a.Quality > b.Quality
		}
		if a.CreatedAt != b.CreatedAt {
			return a.CreatedAt < b.CreatedAt
		}
		return a.ID < b.ID
	})
	return offers
}

// randomNetwork builds n nodes with random interests and spreads messages
// over their buffers: each message starts at its source, is copied along
// random hops, and some copies are then dropped — so receivers appear in
// hop paths of messages they no longer hold.
func randomNetwork(t *testing.T, rng *sim.RNG, n int) []*fakeNode {
	t.Helper()
	h := newHarness()
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	nodes := make([]*fakeNode, n)
	for i := range nodes {
		nodes[i] = h.node(t, i+1)
		for _, kw := range words {
			switch {
			case rng.Coin(0.15):
				nodes[i].table.DeclareDirect(kw, 0)
			case rng.Coin(0.3):
				nodes[i].table.Acquire(kw, 99, 0)
				nodes[i].table.SetWeight(kw, rng.Range(0, interest.MaxWeight))
			}
		}
	}
	prios := []message.Priority{message.PriorityHigh, message.PriorityMedium, message.PriorityLow}
	for k := 0; k < 12*n; k++ {
		src := nodes[rng.Intn(n)]
		kws := []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]}
		created := time.Duration(rng.Intn(5)) * time.Second
		m := h.msg(t, src, prios[rng.Intn(len(prios))], float64(1+rng.Intn(4))/4, created, kws...)
		m.CopiesLeft = rng.Intn(4)
		holders := []*fakeNode{src}
		for hops := rng.Intn(4); hops > 0; hops-- {
			from := holders[rng.Intn(len(holders))]
			to := nodes[rng.Intn(n)]
			if to.buf.Has(m.ID) {
				continue
			}
			if err := to.buf.Add(from.buf.Get(m.ID).CopyFor(to.id)); err != nil {
				t.Fatal(err)
			}
			holders = append(holders, to)
		}
		for _, x := range holders {
			if rng.Coin(0.25) {
				x.buf.Remove(m.ID)
			}
		}
	}
	return nodes
}

// TestRoutersMatchOracle checks every router's SelectOffers against the
// per-message loop it replaced, over randomized buffers and for every
// ordered pair of nodes: the same offers, roles and order, appended after
// whatever dst already held. The path-only rejection (v dropped a copy it
// once held) never occurs on the paper workload, so this test is what
// covers it.
func TestRoutersMatchOracle(t *testing.T) {
	rng := sim.NewRNG(11)
	spray, err := NewSprayAndWait(4)
	if err != nil {
		t.Fatal(err)
	}
	prophet := NewProphet()
	routers := []Router{NewChitChat(), NewDirect(), NewEpidemic(), NewTwoHop(), spray, prophet}
	pathOnly := 0
	for trial := 0; trial < 30; trial++ {
		nodes := randomNetwork(t, rng, 6)
		for e := 0; e < 10; e++ {
			prophet.OnContact(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], time.Duration(e)*time.Minute)
		}
		for _, u := range nodes {
			for _, v := range nodes {
				if u == v {
					continue
				}
				for _, m := range u.buf.Messages() {
					if !v.buf.Has(m.ID) && !oracleEligible(m, v) {
						pathOnly++
					}
				}
				for _, r := range routers {
					copies := make([]int, 0, u.buf.Len())
					for _, m := range u.buf.Messages() {
						copies = append(copies, m.CopiesLeft)
					}
					want := oracleOffers(r, u, v)
					for i, m := range u.buf.Messages() {
						m.CopiesLeft = copies[i]
					}
					prefix := Offer{Msg: &message.Message{ID: "prefix"}, Role: RoleRelay}
					got := r.SelectOffers([]Offer{prefix}, u, v)
					if len(got) == 0 || got[0] != prefix {
						t.Fatalf("trial %d %s %v→%v: dst prefix lost", trial, r.Name(), u.id, v.id)
					}
					got = got[1:]
					if len(got) != len(want) {
						t.Fatalf("trial %d %s %v→%v: %d offers, oracle %d", trial, r.Name(), u.id, v.id, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("trial %d %s %v→%v: offer %d = %s/%v, oracle %s/%v",
								trial, r.Name(), u.id, v.id, i, got[i].Msg.ID, got[i].Role, want[i].Msg.ID, want[i].Role)
						}
					}
				}
			}
		}
	}
	if pathOnly == 0 {
		t.Fatal("no message was rejected by its hop path alone; the randomized buffers do not cover that case")
	}
}

// TestSelectOffersReusedDstAllocFree asserts that every router appends into
// a reused dst without allocating.
func TestSelectOffersReusedDstAllocFree(t *testing.T) {
	rng := sim.NewRNG(12)
	nodes := randomNetwork(t, rng, 4)
	spray, err := NewSprayAndWait(4)
	if err != nil {
		t.Fatal(err)
	}
	prophet := NewProphet()
	prophet.OnContact(nodes[0], nodes[1], 0)
	u, v := nodes[0], nodes[1]
	for _, r := range []Router{NewChitChat(), NewDirect(), NewEpidemic(), NewTwoHop(), spray, prophet} {
		dst := r.SelectOffers(make([]Offer, 0, u.buf.Len()), u, v) // warms the keyword-ID caches
		if avg := testing.AllocsPerRun(50, func() {
			dst = r.SelectOffers(dst[:0], u, v)
		}); avg != 0 {
			t.Errorf("%s: SelectOffers into a reused dst allocates %.1f objects, want 0", r.Name(), avg)
		}
	}
}
