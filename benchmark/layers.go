package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"dtnsim/internal/core"
	"dtnsim/internal/obs"
)

// layers accumulates the per-layer counters and phase timers of every run
// a workload makes, read from Engine.Snapshot and Engine.Result (engine
// workloads) or from the run_end frame and run status (serve).
type layers struct {
	move, detect, contacts, exchange, events, runner float64

	rebuilds, ups, upsOpen, sweeps, evictions, rowsLive, ticks, nEvents uint64

	transfers, aborted, refusedNoTokens, refusedReputation, refusedRadioOff int

	incentiveS, chitchatS float64

	// Exchange seconds per simulated second in each run's first and last
	// slice, summed over runs.
	firstExchange, lastExchange float64
}

// addSnapshot folds a run's final snapshot into the totals.
func (l *layers) addSnapshot(s obs.Snapshot) {
	l.move += s.Phase("move")
	l.detect += s.Phase("detect")
	l.contacts += s.Phase("contacts")
	l.exchange += s.Phase("exchange")
	l.events += s.Phase("events")
	l.rebuilds += s.Counter("candidate_rebuilds")
	l.ups += s.Counter("contacts_up")
	l.upsOpen += s.Counter("contacts_up_open")
	l.sweeps += s.Counter("interest_sweeps")
	l.evictions += s.Counter("interest_evictions")
	l.rowsLive += s.Counter("table_rows_live")
	l.ticks += s.Steps
	l.nEvents += s.Events
}

// addResult folds a run's result into the totals; wall is the run's
// Build-to-Result time, charged to its scheme.
func (l *layers) addResult(r core.Result, wall float64) {
	l.transfers += r.Transfers
	l.aborted += r.AbortedTransfers
	l.refusedNoTokens += r.RefusedNoTokens
	l.refusedReputation += r.RefusedReputation
	l.refusedRadioOff += r.RefusedRadioOff
	if r.Scheme == core.SchemeChitChat {
		l.chitchatS += wall
	} else {
		l.incentiveS += wall
	}
}

// addSlices folds the exchange cost of a run's first and last slice.
func (l *layers) addSlices(first, last float64) {
	l.firstExchange += first
	l.lastExchange += last
}

// emit writes the engine-side per-layer metrics.
func (l *layers) emit(m metrics) {
	m.set("mobility.move_s", l.move, "s")
	m.set("world.detect_s", l.detect, "s")
	m.set("world.candidate_rebuilds", float64(l.rebuilds), "count")
	m.set("core.contacts_s", l.contacts, "s")
	m.set("core.contacts_up", float64(l.ups), "count")
	m.set("core.contacts_open_ratio", ratio(float64(l.upsOpen), float64(l.ups)), "ratio")
	m.set("core.exchange_s", l.exchange, "s")
	m.set("core.exchange_late_early", ratio(l.lastExchange, l.firstExchange), "ratio")
	m.set("interest.sweeps", float64(l.sweeps), "count")
	m.set("interest.evictions", float64(l.evictions), "count")
	m.set("interest.rows_live", float64(l.rowsLive), "count")
	m.set("routing.transfers", float64(l.transfers), "count")
	m.set("routing.aborted", float64(l.aborted), "count")
	refusals := l.refusedNoTokens + l.refusedReputation + l.refusedRadioOff
	m.set("routing.transfer_yield", ratio(float64(l.transfers), float64(l.transfers+refusals)), "ratio")
	m.set("incentive.refused_no_tokens", float64(l.refusedNoTokens), "count")
	m.set("reputation.refused", float64(l.refusedReputation), "count")
	m.set("core.run_incentive_s", l.incentiveS, "s")
	m.set("core.run_chitchat_s", l.chitchatS, "s")
	m.set("sim.events_s", l.events, "s")
	m.set("sim.runner_s", l.runner, "s")
	m.set("core.ticks", float64(l.ticks), "count")
	m.set("core.events", float64(l.nEvents), "count")
}

// phaseSum is the total of a snapshot's five phase timers.
func phaseSum(s obs.Snapshot) float64 {
	var sum float64
	for _, p := range s.Phases {
		sum += p.Seconds
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// checkRun is the correctness gate every engine run passes, whichever
// path drove it: tokens are conserved, no message is delivered that was
// not created, the contact lifecycle balances, and the serial engine
// discards no exchange plan.
func checkRun(r core.Result, s obs.Snapshot, initialTokens float64) error {
	if math.Abs(r.TokensMean-initialTokens) > 1e-9*initialTokens {
		return fmt.Errorf("token conservation: mean %v, want %v", r.TokensMean, initialTokens)
	}
	if r.Delivered > r.Created {
		return fmt.Errorf("delivered %d exceeds created %d", r.Delivered, r.Created)
	}
	if up, down, live := s.Counter("contacts_up"), s.Counter("contacts_down"), s.Counter("contacts_live"); up-down != live {
		return fmt.Errorf("contact balance: up %d - down %d != live %d", up, down, live)
	}
	if stale := s.Counter("stale_plans"); stale != 0 {
		return fmt.Errorf("stale_plans = %d at workers=1", stale)
	}
	return nil
}

// fingerprint hashes a result so two runs can be compared exactly.
func fingerprint(r core.Result) string {
	raw, err := json.Marshal(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
