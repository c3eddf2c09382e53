// Package routing defines the Router abstraction and the four routing
// algorithms the repository ships: ChitChat (the paper's substrate), plus
// Epidemic, Direct Delivery, and Spray-and-Wait as the classic baselines
// the thesis surveys. A router only *selects* messages to offer during a
// contact; payment, reputation gating, and the actual byte transfer are
// layered on top by the engine, which is what lets the incentive scheme be
// "integrated with any other DTN routing scheme" (Paper I §1).
package routing

import (
	"cmp"
	"slices"
	"time"

	"dtnsim/internal/buffer"
	"dtnsim/internal/ident"
	"dtnsim/internal/interest"
	"dtnsim/internal/message"
)

// NodeView is the read-only slice of node state a router inspects.
type NodeView interface {
	// ID is the node's identity.
	ID() ident.NodeID
	// Interests is the node's RTSR table.
	Interests() *interest.Table
	// Buffer is the node's message store.
	Buffer() *buffer.Store
}

// PeerRole classifies the receiving node for one message, per the paper's
// data-centric definitions: "a destination for a message is defined as a
// device with direct interest in keywords of the message whereas a relay is
// defined as one with acquired interests".
type PeerRole int

// Role values.
const (
	// RoleNone: the peer neither wants nor should carry the message.
	RoleNone PeerRole = iota + 1
	// RoleRelay: the peer is a better carrier (ChitChat: S_v > S_u).
	RoleRelay
	// RoleDestination: the peer has direct interest in the content.
	RoleDestination
)

// String names the role.
func (r PeerRole) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RoleRelay:
		return "relay"
	case RoleDestination:
		return "destination"
	default:
		return "unknown"
	}
}

// Offer is one message a router proposes to hand from u to v.
type Offer struct {
	Msg  *message.Message
	Role PeerRole
}

// Router selects the messages node u should offer node v during a contact.
type Router interface {
	// Name identifies the algorithm in reports.
	Name() string
	// SelectOffers appends the messages u offers v to dst, most urgent
	// first, and returns the extended slice. Callers pass a reused
	// scratch slice, so a round allocates nothing once it has grown.
	SelectOffers(dst []Offer, u, v NodeView) []Offer
}

// ContactAware is implemented by routers that maintain per-encounter state
// (PRoPHET's delivery predictabilities); the engine calls OnContact once
// per contact establishment.
type ContactAware interface {
	OnContact(a, b NodeView, now time.Duration)
}

// KeywordIDs returns the message's tag set in the interned-ID form used by
// the weight-table fast paths, computing and caching it on first use after
// each tag-set change.
func KeywordIDs(m *message.Message, in *interest.Interner) []int32 {
	if m.KwIDs == nil {
		m.KwIDs = in.IDs(make([]int32, 0, len(m.Annotations)), m.Keywords())
	}
	return m.KwIDs
}

// ClassifyPeer applies the ChitChat destination/relay rule for one message:
// destination if v holds a *direct* interest in any of the message's
// keywords; otherwise relay if v's interest-weight sum strictly exceeds
// u's ("If S_v > S_u for message M, then forward message M to device v").
func ClassifyPeer(m *message.Message, u, v NodeView) PeerRole {
	ids := KeywordIDs(m, u.Interests().Interner())
	if v.Interests().HasDirectAnyID(ids) {
		return RoleDestination
	}
	su := u.Interests().SumWeightsIDs(ids)
	sv := v.Interests().SumWeightsIDs(ids)
	if sv > su {
		return RoleRelay
	}
	return RoleNone
}

// sortOffers orders offers by priority (high first), then quality (best
// first), then creation time (oldest first), then ID for determinism. This
// is the transmission-order half of the paper's priority preference
// (Figure 5.6): when a contact is short, high-priority messages go first.
func sortOffers(offers []Offer) {
	slices.SortStableFunc(offers, compareOffers)
}

// compareOffers is sortOffers' ordering.
func compareOffers(x, y Offer) int {
	if x.Role != y.Role {
		// Destinations before relays: deliveries beat replication.
		return cmp.Compare(y.Role, x.Role)
	}
	a, b := x.Msg, y.Msg
	if a.Priority != b.Priority {
		return cmp.Compare(a.Priority, b.Priority)
	}
	if a.Quality != b.Quality {
		return cmp.Compare(b.Quality, a.Quality)
	}
	if a.CreatedAt != b.CreatedAt {
		return cmp.Compare(a.CreatedAt, b.CreatedAt)
	}
	return cmp.Compare(a.ID, b.ID)
}

// appendCandidates appends to dst, as role-less offers, the offer
// candidates for u→v: u's residents that v does not hold, less those whose
// hop path already names v (loop avoidance — the UUID dedup makes
// re-offering to past custodians pure overhead). Both buffers' key-ordered
// indexes merge in one pass, so the messages v already holds — most of a
// contact partner's residents — cost one integer compare each and never
// reach the hop-path scan. Candidates come out in key order; every router
// sorts its offers by a total order that ends in the message ID, so the
// key order never shows in an output.
func appendCandidates(dst []Offer, u, v NodeView) []Offer {
	held := v.Buffer().ByKey()
	vid := v.ID()
	j := 0
outer:
	for _, r := range u.Buffer().ByKey() {
		for j < len(held) && held[j].Less(r) {
			j++
		}
		if j < len(held) && !r.Less(held[j]) {
			continue // v holds a copy
		}
		for _, hop := range r.Msg.Path {
			if hop == vid {
				continue outer
			}
		}
		dst = append(dst, Offer{Msg: r.Msg})
	}
	return dst
}

// selectOffers is the loop every router shares: it gathers the offer
// candidates for u→v, keeps those role classifies as anything but
// RoleNone, and sorts them into transmission order.
func selectOffers(dst []Offer, u, v NodeView, role func(*message.Message) PeerRole) []Offer {
	start := len(dst)
	dst = appendCandidates(dst, u, v)
	n := start
	for _, o := range dst[start:] {
		if r := role(o.Msg); r != RoleNone {
			dst[n] = Offer{Msg: o.Msg, Role: r}
			n++
		}
	}
	dst = dst[:n]
	sortOffers(dst[start:])
	return dst
}
