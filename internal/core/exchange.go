package core

import (
	"cmp"
	"slices"
	"time"

	"dtnsim/internal/interest"
	"dtnsim/internal/routing"
)

// runExchange performs one RTSR + routing round over a contact: the RTSR
// round over both tables (eviction sweeps, shared-row refreshes, growth,
// acquisitions — see interest.Round), then the routing module in both
// directions, enqueueing the negotiated transfers (Paper I §2.2: "the
// ChitChat system first invokes the RTSR module ... then invokes the
// message routing").
//
// grown is the contact age accounted this round (T_c − T_v accrues
// incrementally across periodic exchanges, see interest.Params.GrowthRate).
// The round needs each side's full connected-peer set: an interest shared
// by any live neighbour holds its weight (Algorithm 1).
func (e *Engine) runExchange(c *contact, now, grown time.Duration) {
	c.exchangedAt = now
	e.ctrExchanges.Inc()
	e.refreshNodePeers(c.a)
	e.refreshNodePeers(c.b)
	e.round.Exchange(c.a.table, c.b.table, c.a.id, c.b.id, c.a.peerTables, c.b.peerTables, now, grown)
	if n := e.round.Evictions(); n > 0 {
		e.ctrEvict.Add(uint64(n))
	}
	if n := e.round.Sweeps(); n > 0 {
		e.ctrSweep.Add(uint64(n))
	}

	// Routing phase, both directions.
	e.routeDirection(c, c.a, c.b, now)
	e.routeDirection(c, c.b, c.a, now)
}

// refreshNodePeers rebuilds n's cached peer-table list when its peer set
// changed since the cache was built (Node.peerGen moves on every
// open-contact raise/teardown touching the node). The list lives on the
// node, not the contact, so the rounds of every contact touching a node
// share one list. The round reads only the peers' current membership, so
// the list needs rebuilding only when the peer set itself changes.
func (e *Engine) refreshNodePeers(n *Node) {
	if n.peerTablesGen != n.peerGen {
		n.peerTables = peerTablesInto(n.peerTables[:0], e.peersOf[n.id], n)
		n.peerTablesGen = n.peerGen
	}
}

// sortOffersFIFO reorders offers to destination-first, then message
// creation order, dropping the priority/quality preference. The sort is
// stable and its comparator a plain function, so the per-round routing
// phase stays allocation-free.
func sortOffersFIFO(offers []routing.Offer) {
	slices.SortStableFunc(offers, compareOffersFIFO)
}

// compareOffersFIFO is sortOffersFIFO's ordering: destinations before
// relays (Role descending), then message creation time, then message ID.
func compareOffersFIFO(x, y routing.Offer) int {
	if x.Role != y.Role {
		return cmp.Compare(y.Role, x.Role)
	}
	if x.Msg.CreatedAt != y.Msg.CreatedAt {
		return cmp.Compare(x.Msg.CreatedAt, y.Msg.CreatedAt)
	}
	return cmp.Compare(x.Msg.ID, y.Msg.ID)
}

// peerTablesInto appends the interest tables of all of n's contacts to dst
// (the node's cached scratch slice).
func peerTablesInto(dst []*interest.Table, contacts []*contact, n *Node) []*interest.Table {
	for _, c := range contacts {
		dst = append(dst, c.other(n).table)
	}
	return dst
}

// routeDirection runs the routing module for u→v and enqueues the
// negotiated transfers.
func (e *Engine) routeDirection(c *contact, u, v *Node, now time.Duration) {
	if u.buf.Len() == 0 {
		return
	}
	offers := e.router.SelectOffers(e.offers[:0], u, v)
	e.offers = offers
	if !e.cfg.incentiveActive() {
		// The baseline has no incentive-driven priority machinery:
		// priority-ordered transmission is part of the paper's
		// contribution (Figure 5.6), so plain ChitChat transmits in
		// arrival order (destinations still before relays — that is
		// routing, not prioritisation).
		sortOffersFIFO(offers)
	}
	for _, offer := range offers {
		if c.hasTransfer(offer.Msg, v) {
			continue
		}
		t, ok := e.negotiate(u, v, offer, now)
		if !ok {
			continue
		}
		c.push(t)
	}
}

// gossipRound runs one reputation gossip round over an open contact, in
// both directions.
func (e *Engine) gossipRound(c *contact) {
	e.ctrGossips.Inc()
	e.gossipReputation(c.a, c.b)
	e.gossipReputation(c.b, c.a)
}

// gossipReputation shares src's notable opinions with dst, implementing the
// contact-time "RTSR+DR module shares ... encountered devices' reputations"
// step. Only opinions that have moved away from the prior are worth
// spreading, and the volume is capped per contact.
func (e *Engine) gossipReputation(src, dst *Node) {
	limit := e.cfg.GossipLimit
	if limit == 0 {
		return
	}
	initial := e.cfg.Reputation.InitialRating
	shared := 0
	for i, id := range src.rep.Known() {
		if id == dst.id || id == src.id {
			continue
		}
		r := src.rep.KnownRating(i)
		if diff := r - initial; diff < 0.25 && diff > -0.25 {
			continue
		}
		dst.rep.MergeSecondHand(id, r)
		shared++
		if shared >= limit {
			return
		}
	}
}
