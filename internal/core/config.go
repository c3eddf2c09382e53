// Package core is the paper's primary contribution assembled into a running
// system: a DTN engine that layers the credit-based incentive mechanism, the
// distributed reputation model (DRM), and content enrichment on top of
// ChitChat routing, driven by the discrete-time kernel and the world,
// mobility, radio, and buffer substrates.
//
// The public surface is:
//
//   - Config / NodeSpec — declarative description of a network;
//   - Engine — builds and runs a simulation, producing a metrics.Report;
//   - Device — the §4 operator-function façade (Annotate, Subscribe,
//     ComputeIncentive, RateMessage, Enrich, ...) over a live node.
package core

import (
	"encoding/json"
	"fmt"
	"time"

	"dtnsim/internal/buffer"
	"dtnsim/internal/incentive"
	"dtnsim/internal/interest"
	"dtnsim/internal/obs"
	"dtnsim/internal/radio"
	"dtnsim/internal/reputation"
	"dtnsim/internal/routing"
	"dtnsim/internal/trace"
	"dtnsim/internal/world"
)

// Scheme selects which protocol stack the engine runs.
type Scheme int

// Available schemes.
const (
	// SchemeChitChat runs plain ChitChat routing: no tokens, no
	// reputation, no enrichment. This is the paper's comparison baseline.
	SchemeChitChat Scheme = iota + 1
	// SchemeIncentive runs the full proposal: ChitChat routing plus the
	// credit incentive, the DRM, and content enrichment.
	SchemeIncentive
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeChitChat:
		return "chitchat"
	case SchemeIncentive:
		return "incentive"
	default:
		return fmt.Sprintf("scheme-%d", int(s))
	}
}

// SchemeByName resolves a scheme from its canonical name.
func SchemeByName(name string) (Scheme, error) {
	switch name {
	case "chitchat":
		return SchemeChitChat, nil
	case "incentive":
		return SchemeIncentive, nil
	default:
		return 0, fmt.Errorf("core: unknown scheme %q (want chitchat or incentive)", name)
	}
}

// MarshalJSON encodes the scheme as its canonical name, so serialized run
// descriptions read "incentive" rather than a bare enum ordinal.
func (s Scheme) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts either the canonical name or the numeric ordinal
// (the historical wire form for anyone who serialized the raw int).
func (s *Scheme) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err == nil {
		v, verr := SchemeByName(name)
		if verr != nil {
			return verr
		}
		*s = v
		return nil
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("core: scheme must be a name or ordinal, got %s", b)
	}
	v := Scheme(n)
	if v != SchemeChitChat && v != SchemeIncentive {
		return fmt.Errorf("core: unknown scheme ordinal %d", n)
	}
	*s = v
	return nil
}

// ReputationModel selects the reputation implementation.
type ReputationModel int

// Available reputation models.
const (
	// ReputationDRM is the paper's distributed reputation model.
	ReputationDRM ReputationModel = iota
	// ReputationBeta is the REPSYS-style Bayesian comparator.
	ReputationBeta
)

// String names the model.
func (m ReputationModel) String() string {
	switch m {
	case ReputationDRM:
		return "drm"
	case ReputationBeta:
		return "beta"
	default:
		return fmt.Sprintf("reputation-model-%d", int(m))
	}
}

// Config is the complete engine configuration. DefaultConfig returns the
// Table 5.1 alignment; experiments mutate the copy they get.
type Config struct {
	// Seed drives every random stream in the run.
	Seed int64
	// Workers bounds the intra-run parallelism: the mobility advance and
	// contact-pair detection each shard across up to this many goroutines
	// per tick. Zero or one runs fully serially, and counts above
	// GOMAXPROCS are clamped to it (extra workers can never cut wall-clock
	// time but would forfeit the serial fast paths). Results are
	// byte-identical across worker counts — parallel phases are read-only
	// or write to pre-assigned slots merged in canonical order.
	Workers int
	// Regions shards the world state (see DESIGN.md "Region-sharded
	// world"): the area is tiled into this many regions, each owning its
	// nodes and its own spatial grid over its ghost-inflated tile, and the
	// mobility/detect phases run per region on the Workers pool. Zero or
	// one keeps the single flat grid. Results are byte-identical at every
	// region count — ghost bands are one radio range plus the kinetic skin
	// wide, each in-range pair is credited to exactly one region, and
	// per-region results merge in region-index order before the canonical
	// sort. Region tiles must be at least as wide as the ghost band along
	// every split axis; Validate rejects layouts that are not.
	Regions int
	// ContactSkin tunes kinetic contact detection: the conservative slack,
	// in metres, added to the radio range when the engine snapshots its
	// candidate pair list. The list stays valid until worst-case node
	// displacement (2·maxSpeed·elapsed) reaches the skin, so each tick does
	// only exact distance checks over the candidates instead of a full grid
	// scan — with byte-identical contact events (see DESIGN.md "Kinetic
	// contact detection"). Zero picks the automatic default (a quarter of
	// the radio range); a negative value disables the kinetic path
	// entirely, restoring the per-tick scan. The path also disables itself
	// when any node's mobility model is not mobility.SpeedBounded.
	ContactSkin float64
	// TableCap bounds each node's RTSR interest table to this many live
	// rows (top-k): an insert that pushes a table past the cap immediately
	// evicts its weakest transient row — smallest time-decayed weight, ties
	// to the lowest interned keyword ID — while user-declared direct rows
	// are never evicted (a node subscribed to more than TableCap keywords
	// keeps exactly those). Zero, the default, keeps tables unbounded and is
	// bit-identical to the historical behaviour; a positive cap models the
	// bounded per-device state real DTN hardware gives the RTSR scheme and
	// keeps dense-network tables within a few cache lines. Traces diverge
	// from the unbounded run only when the cap actually evicts a row.
	TableCap int
	// Step is the tick granularity.
	Step time.Duration
	// Duration is the simulated time span (Table 5.1: 24 h).
	Duration time.Duration
	// Area is the world rectangle (Table 5.1: 5 km²).
	Area world.Rect
	// Radio is the link/energy model (Table 5.1: 100 m, 250 kBps).
	Radio radio.Params
	// BufferCapacity is per-node storage (Table 5.1: 250 MB).
	BufferCapacity int64
	// Interest tunes the RTSR model.
	Interest interest.Params
	// Incentive tunes the credit mechanism (Table 5.1: 200 tokens).
	Incentive incentive.Params
	// Reputation tunes the DRM.
	Reputation reputation.Params
	// ReputationModel selects the model implementation; the zero value is
	// the paper's DRM.
	ReputationModel ReputationModel
	// Scheme selects baseline vs full proposal.
	Scheme Scheme
	// Router overrides the routing algorithm; nil means ChitChat. The
	// incentive layer composes with any Router ("our proposed scheme can
	// be integrated with any other DTN routing scheme").
	Router routing.Router
	// EnrichmentEnabled can disable content enrichment within
	// SchemeIncentive for the ablation benches.
	EnrichmentEnabled bool
	// ReputationEnabled can disable the DRM within SchemeIncentive for the
	// ablation benches (awards then use a factor of 1).
	ReputationEnabled bool
	// PriorityBuffers selects the DropLowPriority eviction policy instead
	// of DropOldest.
	PriorityBuffers bool
	// ExchangeInterval is how often connected pairs re-run the RTSR
	// exchange and routing round while a contact lasts.
	ExchangeInterval time.Duration
	// GossipLimit caps how many reputation rows are shared per contact.
	GossipLimit int
	// GossipInterval re-shares reputations over long-lived contacts (the
	// contact-up gossip covers the common short-encounter case).
	GossipInterval time.Duration
	// RatingSampleInterval is the Figure 5.4 sampling period; zero
	// disables sampling.
	RatingSampleInterval time.Duration
	// MessageTTL expires undelivered messages; zero disables expiry.
	MessageTTL time.Duration
	// BatteryJoules is each node's radio energy budget; once a node's
	// cumulative transmit+receive energy reaches it, its radio dies for
	// the rest of the run. Zero means unlimited (the paper's evaluation
	// setting — battery scarcity there motivates *behaviour*, it does not
	// hard-kill radios; the budget enables the battery ablation).
	BatteryJoules float64
	// Workload drives message generation.
	Workload WorkloadConfig
	// Observers subscribe to the run through the unified observer API:
	// every report.Event in emission order (filtered per obs.KindFilter),
	// run start/end, and — when Heartbeat is set — periodic snapshots.
	// With no observers attached the engine keeps the historical nil fast
	// path: events cost one length check and traces stay byte-identical.
	Observers []obs.Observer
	// Heartbeat, when positive, emits an obs.Snapshot to every observer on
	// this wall-clock interval (checked after the tick that crosses it).
	// Zero disables heartbeats.
	Heartbeat time.Duration
	// ContactTrace, when non-nil, replays recorded connectivity instead of
	// deriving contacts from mobility and radio range; node IDs in the
	// trace must exist in the network. Friis distances are not available
	// in trace mode, so the hardware incentive uses the nominal
	// half-range receive power.
	ContactTrace *trace.Schedule
}

// DefaultConfig returns the Table 5.1 paper-scale configuration for the
// incentive scheme.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		Step:                 time.Second,
		Duration:             24 * time.Hour,
		Area:                 world.SquareKm(5),
		Radio:                radio.Default(),
		BufferCapacity:       250 << 20,
		Interest:             interest.DefaultParams(),
		Incentive:            incentive.DefaultParams(),
		Reputation:           reputation.DefaultParams(),
		Scheme:               SchemeIncentive,
		EnrichmentEnabled:    true,
		ReputationEnabled:    true,
		PriorityBuffers:      true,
		ExchangeInterval:     10 * time.Second,
		GossipLimit:          64,
		GossipInterval:       5 * time.Minute,
		RatingSampleInterval: 30 * time.Minute,
		MessageTTL:           0,
	}
}

// Validate checks the configuration end to end.
func (c Config) Validate() error {
	switch {
	case c.Workers < 0:
		return fmt.Errorf("core: workers must be non-negative, got %d", c.Workers)
	case c.Regions < 0:
		return fmt.Errorf("core: regions must be non-negative, got %d", c.Regions)
	case c.TableCap < 0:
		return fmt.Errorf("core: table cap must be non-negative, got %d", c.TableCap)
	case c.Step <= 0:
		return fmt.Errorf("core: step must be positive, got %v", c.Step)
	case c.Duration <= 0:
		return fmt.Errorf("core: duration must be positive, got %v", c.Duration)
	case c.BufferCapacity <= 0:
		return fmt.Errorf("core: buffer capacity must be positive, got %d", c.BufferCapacity)
	case c.Scheme != SchemeChitChat && c.Scheme != SchemeIncentive:
		return fmt.Errorf("core: unknown scheme %d", int(c.Scheme))
	case c.ExchangeInterval <= 0:
		return fmt.Errorf("core: exchange interval must be positive, got %v", c.ExchangeInterval)
	case c.GossipLimit < 0:
		return fmt.Errorf("core: gossip limit must be non-negative, got %d", c.GossipLimit)
	case c.GossipInterval < 0:
		return fmt.Errorf("core: gossip interval must be non-negative, got %v", c.GossipInterval)
	case c.RatingSampleInterval < 0:
		return fmt.Errorf("core: rating sample interval must be non-negative, got %v", c.RatingSampleInterval)
	case c.MessageTTL < 0:
		return fmt.Errorf("core: message TTL must be non-negative, got %v", c.MessageTTL)
	case c.Heartbeat < 0:
		return fmt.Errorf("core: heartbeat interval must be non-negative, got %v", c.Heartbeat)
	case c.Area.Width <= 0 || c.Area.Height <= 0:
		return fmt.Errorf("core: area must have positive size")
	case c.BatteryJoules < 0:
		return fmt.Errorf("core: battery budget must be non-negative, got %v", c.BatteryJoules)
	}
	if err := c.Radio.Validate(); err != nil {
		return err
	}
	if c.Regions > 1 {
		// The tiling itself checks that tiles stay at least one ghost band
		// (radio range + resolved skin) wide along every split axis.
		if _, err := world.NewTiling(c.Area, c.Regions, c.Radio.Range+c.resolvedSkin()); err != nil {
			return err
		}
	}
	if err := c.Interest.Validate(); err != nil {
		return err
	}
	if err := c.Incentive.Validate(); err != nil {
		return err
	}
	if err := c.Reputation.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	return nil
}

// resolvedSkin is the kinetic contact-detection skin after defaulting:
// negative disables the path (zero skin), zero picks the automatic quarter
// of the radio range. The engine may still force the skin to zero at build
// time when a mobility model has no speed bound; the ghost-band margin uses
// this config-level resolution, which is conservative either way.
func (c Config) resolvedSkin() float64 {
	switch {
	case c.ContactSkin < 0:
		return 0
	case c.ContactSkin == 0:
		return c.Radio.Range / 4
	default:
		return c.ContactSkin
	}
}

// bufferPolicy maps the config to an eviction policy. Priority-aware
// eviction is part of the incentive contribution; the ChitChat baseline
// always evicts oldest-first.
func (c Config) bufferPolicy() buffer.Policy {
	if c.PriorityBuffers && c.Scheme == SchemeIncentive {
		return buffer.DropLowPriority{}
	}
	return buffer.DropOldest{}
}

// incentiveActive reports whether the credit mechanism gates transfers.
func (c Config) incentiveActive() bool { return c.Scheme == SchemeIncentive }

// reputationActive reports whether the DRM runs.
func (c Config) reputationActive() bool {
	return c.Scheme == SchemeIncentive && c.ReputationEnabled
}

// enrichmentActive reports whether relays enrich content.
func (c Config) enrichmentActive() bool {
	return c.Scheme == SchemeIncentive && c.EnrichmentEnabled
}
