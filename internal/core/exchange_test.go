package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/interest"
	"dtnsim/internal/message"
	"dtnsim/internal/routing"
	"dtnsim/internal/sim"
)

// refSortOffersFIFO is the sort.SliceStable formulation of the FIFO offer
// order; sortOffersFIFO must reproduce it exactly, stability included.
func refSortOffersFIFO(offers []routing.Offer) {
	sort.SliceStable(offers, func(i, j int) bool {
		if offers[i].Role != offers[j].Role {
			return offers[i].Role > offers[j].Role
		}
		if offers[i].Msg.CreatedAt != offers[j].Msg.CreatedAt {
			return offers[i].Msg.CreatedAt < offers[j].Msg.CreatedAt
		}
		return offers[i].Msg.ID < offers[j].Msg.ID
	})
}

// randomOffers builds an offer list dense in duplicate keys so stability is
// actually exercised: few distinct creation times and IDs, duplicate
// triples distinguishable only by *Message pointer identity.
func randomOffers(rng *sim.RNG, n int) []routing.Offer {
	offers := make([]routing.Offer, n)
	for i := range offers {
		role := routing.RoleRelay
		if rng.Coin(0.5) {
			role = routing.RoleDestination
		}
		offers[i] = routing.Offer{
			Role: role,
			Msg: &message.Message{
				ID:        ident.MessageID(fmt.Sprintf("m%d", rng.Intn(4))),
				CreatedAt: time.Duration(rng.Intn(3)) * time.Second,
			},
		}
	}
	return offers
}

// TestSortOffersFIFOMatchesStableSort pins the FIFO offer sort against the
// sort.SliceStable reference over randomized lists: identical order,
// including pointer-identity order among fully equal keys.
func TestSortOffersFIFOMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		offers := randomOffers(rng, rng.Intn(12))
		want := append([]routing.Offer(nil), offers...)
		refSortOffersFIFO(want)
		sortOffersFIFO(offers)
		for i := range want {
			if offers[i] != want[i] {
				t.Fatalf("trial %d: offer %d = %+v, want %+v", trial, i, offers[i], want[i])
			}
		}
	}
}

// TestExchangeScratchAllocFree asserts the per-round scratch paths stay
// allocation-free in steady state: the FIFO offer sort (no closure, no
// slice-header escape) and the gen-checked peer-table gather once the
// node's cached slice has grown to its working size.
func TestExchangeScratchAllocFree(t *testing.T) {
	rng := sim.NewRNG(9)
	offers := randomOffers(rng, 16)
	if avg := testing.AllocsPerRun(100, func() {
		sortOffersFIFO(offers)
	}); avg != 0 {
		t.Errorf("sortOffersFIFO allocates %.1f objects per round, want 0", avg)
	}

	in := interest.NewInterner()
	params := interest.DefaultParams()
	mkNode := func(id ident.NodeID) *Node {
		tab, err := interest.NewTable(params, in)
		if err != nil {
			t.Fatal(err)
		}
		return &Node{id: id, table: tab}
	}
	center := mkNode(0)
	contacts := make([]*contact, 8)
	for i := range contacts {
		contacts[i] = &contact{a: center, b: mkNode(ident.NodeID(i + 1))}
	}
	dst := make([]*interest.Table, 0, len(contacts))
	if avg := testing.AllocsPerRun(100, func() {
		dst = peerTablesInto(dst[:0], contacts, center)
	}); avg != 0 {
		t.Errorf("peerTablesInto allocates %.1f objects per gather, want 0", avg)
	}
	if len(dst) != len(contacts) {
		t.Fatalf("gathered %d peer tables, want %d", len(dst), len(contacts))
	}

	// The engine-level gather: a refresh against an unchanged peerGen is a
	// single generation compare, and even a forced rebuild reuses the
	// node's cached slice.
	e := &Engine{peersOf: [][]*contact{contacts}} // center.id is 0
	center.peerGen = 1
	e.refreshNodePeers(center) // grow the cache once
	if avg := testing.AllocsPerRun(100, func() {
		center.peerTablesGen = 0 // force the rebuild path
		e.refreshNodePeers(center)
	}); avg != 0 {
		t.Errorf("refreshNodePeers allocates %.1f objects per rebuild, want 0", avg)
	}
	if len(center.peerTables) != len(contacts) {
		t.Fatalf("cached %d peer tables, want %d", len(center.peerTables), len(contacts))
	}
}
