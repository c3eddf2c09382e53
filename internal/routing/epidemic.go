package routing

import "dtnsim/internal/message"

// Epidemic implements Vahdat & Becker's flooding baseline: every contact
// replicates every message the peer does not hold. It achieves the highest
// delivery ratio at maximal overhead, which is the traffic ceiling the
// thesis introduction measures other schemes against.
type Epidemic struct{}

var _ Router = Epidemic{}

// NewEpidemic returns the router.
func NewEpidemic() Epidemic { return Epidemic{} }

// Name implements Router.
func (Epidemic) Name() string { return "epidemic" }

// SelectOffers implements Router.
func (Epidemic) SelectOffers(dst []Offer, u, v NodeView) []Offer {
	return selectOffers(dst, u, v, func(m *message.Message) PeerRole {
		if ClassifyPeer(m, u, v) == RoleDestination {
			return RoleDestination
		}
		// Epidemic replicates regardless of interest strength.
		return RoleRelay
	})
}
