package experiment

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/message"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/scenario"
)

// updateKernelGolden regenerates testdata/kernel_default.golden from the
// current engine. The committed golden was recorded from the pre-refactor
// polling kernel; the event-driven kernel must reproduce it byte for byte.
var updateKernelGolden = flag.Bool("update-kernel-golden", false,
	"rewrite the kernel determinism golden from the current engine")

// kernelGoldenSpec is the default scenario at the default step (1 s): the
// Table 5.1 density and behaviour mix, shrunk to an hour at 60 nodes so the
// guard runs in test time. Everything the figure tables read — delivery and
// traffic counters, the rating time series, the token economy — plus a hash
// of the complete event trace is rendered into the golden.
func kernelGoldenSpec(scheme core.Scheme) scenario.Spec {
	spec := scenario.Default(scheme)
	spec.Nodes = 60
	spec.AreaKm2 = 0.6
	spec.Duration = time.Hour
	spec.MeanMessageInterval = 15 * time.Minute
	spec.SelfishPercent = 20
	spec.MaliciousPercent = 10
	spec.Seed = 1
	return spec
}

// renderKernelGolden runs one scheme with the given worker count, region
// count (≤1 = the single flat grid), and contact skin (0 = the automatic
// kinetic default, negative = kinetic detection off) and formats every
// figure-feeding observable deterministically. Neither the worker count,
// the region count, nor the skin appears in the output: any combination
// must reproduce the same bytes. Extra no-op observers may be attached;
// they must never change the bytes either.
func renderKernelGolden(t *testing.T, scheme core.Scheme, workers, regions int, skin float64, extra ...obs.Observer) string {
	t.Helper()
	spec := kernelGoldenSpec(scheme)
	cfg, nodes, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	cfg.Regions = regions
	cfg.ContactSkin = skin
	var trace report.Buffer
	cfg.Observers = append([]obs.Observer{obs.Record(&trace)}, extra...)
	eng, err := core.NewEngine(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s nodes=%d duration=%s step=%s seed=%d\n",
		scheme, spec.Nodes, cfg.Duration, cfg.Step, cfg.Seed)
	fmt.Fprintf(&b, "created=%d delivered=%d mdr=%.6f latency=%s\n",
		res.Created, res.Delivered, res.MDR, res.MeanLatency)
	fmt.Fprintf(&b, "transfers=%d relay=%d aborted=%d\n",
		res.Transfers, res.RelayTransfers, res.AbortedTransfers)
	fmt.Fprintf(&b, "refused: tokens=%d reputation=%d radio=%d\n",
		res.RefusedNoTokens, res.RefusedReputation, res.RefusedRadioOff)
	fmt.Fprintf(&b, "tags: added=%d relevant=%d irrelevant=%d\n",
		res.TagsAdded, res.RelevantTags, res.IrrelevantTags)
	for p := message.PriorityHigh; p <= message.PriorityLow; p++ {
		fmt.Fprintf(&b, "priority %d: created=%d delivered=%d\n",
			int(p), res.CreatedByPriority[p], res.DeliveredByPriority[p])
	}
	for _, s := range res.RatingSeries {
		fmt.Fprintf(&b, "rating @%s = %.9f\n", s.At, s.MeanMaliciousRating)
	}
	fmt.Fprintf(&b, "tokens: min=%.6f max=%.6f mean=%.6f exhausted=%d\n",
		res.TokensMin, res.TokensMax, res.TokensMean, res.ExhaustedNodes)
	fmt.Fprintf(&b, "ledger: transfers=%d volume=%.6f\n",
		res.LedgerTransfers, res.LedgerVolume)
	fmt.Fprintf(&b, "energy=%.6f dead-radios=%d\n", res.EnergyJoules, res.DeadRadios)

	// The event trace pins the exact interleaving, not just the totals: any
	// reordering of contacts, exchanges, transfers, or payments shows up as
	// a different stream hash.
	h := fnv.New64a()
	for _, ev := range trace.Events {
		fmt.Fprintf(h, "%d|%d|%d|%d|%s|%g|%s|%t\n",
			ev.At, ev.Kind, ev.A, ev.B, ev.Msg, ev.Tokens, ev.Keyword, ev.Relevant)
	}
	fmt.Fprintf(&b, "events=%d trace-fnv=%016x\n", len(trace.Events), h.Sum64())
	return b.String()
}

// TestKernelByteIdenticalToPollingSeed is the refactor's determinism guard:
// the event-scheduled kernel must reproduce the recorded polling-kernel
// output byte for byte for the default scenario at the default step, for
// both the incentive scheme and the ChitChat baseline.
func TestKernelByteIdenticalToPollingSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour determinism run skipped in -short mode")
	}
	var b strings.Builder
	for _, scheme := range []core.Scheme{core.SchemeIncentive, core.SchemeChitChat} {
		b.WriteString(renderKernelGolden(t, scheme, 1, 1, 0))
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", "kernel_default.golden")
	if *updateKernelGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-kernel-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("kernel output diverged from the recorded polling-kernel golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestParallelWorkersByteIdentical is the parallel pipeline's determinism
// guard: running the golden scenario with 2 and 8 workers must reproduce
// the same recorded golden, byte for byte, that the serial engine produces
// — sharded mobility and sharded pair detection included. (Both worker counts matter: 2 exercises shard-boundary
// merging, 8 oversubscribes the 60-node contact set.)
func TestParallelWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour determinism runs skipped in -short mode")
	}
	goldenPath := filepath.Join("testdata", "kernel_default.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-kernel-golden): %v", err)
	}
	// Lift GOMAXPROCS past the largest worker count so sim.NewWorkers'
	// clamp doesn't quietly serialize the runs on a small CI host. The
	// parent's Cleanup runs only after both parallel subtests finish.
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	for _, workers := range []int{2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			var b strings.Builder
			for _, scheme := range []core.Scheme{core.SchemeIncentive, core.SchemeChitChat} {
				b.WriteString(renderKernelGolden(t, scheme, workers, 1, 0))
			}
			if got := b.String(); got != string(want) {
				t.Errorf("workers=%d output diverged from the serial golden\n--- got ---\n%s\n--- want ---\n%s", workers, got, want)
			}
		})
	}
}

// TestKineticContactsByteIdentical is kinetic contact detection's
// determinism guard: the golden scenario with the kinetic path forced on
// (an explicit, non-default 40 m skin) and forced off (negative skin — the
// historical per-tick scan), each at workers 1, 2, and 8, must reproduce
// the recorded serial golden byte for byte — all six traces. The candidate
// list is a conservative superset filtered by the same inclusive distance
// checks the full scan runs, so no contact-up or contact-down instant may
// shift by even one tick.
func TestKineticContactsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour determinism runs skipped in -short mode")
	}
	goldenPath := filepath.Join("testdata", "kernel_default.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-kernel-golden): %v", err)
	}
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	for _, tc := range []struct {
		name string
		skin float64
	}{
		{"kinetic-on", 40},
		{"kinetic-off", -1},
	} {
		for _, workers := range []int{1, 2, 8} {
			tc, workers := tc, workers
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				t.Parallel()
				var b strings.Builder
				for _, scheme := range []core.Scheme{core.SchemeIncentive, core.SchemeChitChat} {
					b.WriteString(renderKernelGolden(t, scheme, workers, 1, tc.skin))
				}
				if got := b.String(); got != string(want) {
					t.Errorf("%s workers=%d output diverged from the serial golden\n--- got ---\n%s\n--- want ---\n%s",
						tc.name, workers, got, want)
				}
			})
		}
	}
}

// TestRegionShardedByteIdentical is the region-sharded world's determinism
// guard: the golden scenario partitioned into 2, 4, and 9 region tiles —
// strip, square, and 3×3 layouts, each at 1 and 4 workers — must reproduce
// the recorded single-grid golden byte for byte. Every in-range pair is
// credited to exactly one region and per-region results merge in
// region-index order before the canonical sort, so no contact, exchange
// round, or payment may shift by even one tick at any region count.
func TestRegionShardedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour determinism runs skipped in -short mode")
	}
	goldenPath := filepath.Join("testdata", "kernel_default.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-kernel-golden): %v", err)
	}
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	for _, regions := range []int{1, 2, 4, 9} {
		for _, workers := range []int{1, 4} {
			regions, workers := regions, workers
			t.Run(fmt.Sprintf("regions=%d/workers=%d", regions, workers), func(t *testing.T) {
				t.Parallel()
				var b strings.Builder
				for _, scheme := range []core.Scheme{core.SchemeIncentive, core.SchemeChitChat} {
					b.WriteString(renderKernelGolden(t, scheme, workers, regions, 0))
				}
				if got := b.String(); got != string(want) {
					t.Errorf("regions=%d workers=%d output diverged from the single-grid golden\n--- got ---\n%s\n--- want ---\n%s",
						regions, workers, got, want)
				}
			})
		}
	}
}

// TestBatchedExchangeByteIdentical is the exchange rounds' determinism
// guard across the worker × region matrix: the rounds due at a tick run in
// contact-creation order whatever the worker or region count, so the run
// must reproduce the recorded serial golden byte for byte — no exchange
// outcome, payment, or transfer may shift by even one tick.
func TestBatchedExchangeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour determinism runs skipped in -short mode")
	}
	goldenPath := filepath.Join("testdata", "kernel_default.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-kernel-golden): %v", err)
	}
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	for _, workers := range []int{1, 2, 8} {
		for _, regions := range []int{1, 4} {
			workers, regions := workers, regions
			t.Run(fmt.Sprintf("workers=%d/regions=%d", workers, regions), func(t *testing.T) {
				t.Parallel()
				var b strings.Builder
				for _, scheme := range []core.Scheme{core.SchemeIncentive, core.SchemeChitChat} {
					b.WriteString(renderKernelGolden(t, scheme, workers, regions, 0))
				}
				if got := b.String(); got != string(want) {
					t.Errorf("workers=%d regions=%d output diverged from the serial golden\n--- got ---\n%s\n--- want ---\n%s",
						workers, regions, got, want)
				}
			})
		}
	}
}

// countingObserver subscribes to the full lifecycle and every event kind
// (nil Kinds ⇒ all) but never touches engine state.
type countingObserver struct {
	obs.Base
	events, lifecycle int
}

func (c *countingObserver) RunStart(obs.Meta)      { c.lifecycle++ }
func (c *countingObserver) Event(report.Event)     { c.events++ }
func (c *countingObserver) RunEnd(obs.Snapshot)    { c.lifecycle++ }
func (c *countingObserver) Heartbeat(obs.Snapshot) { c.lifecycle++ }

// TestObserverLeavesGoldenByteIdentical is the observer API's overhead
// guard: attaching a passive observer — one that receives every event and
// lifecycle signal — must leave the golden event trace byte-identical to
// the recorded no-observer run. Observation may never perturb simulation.
func TestObserverLeavesGoldenByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour determinism run skipped in -short mode")
	}
	goldenPath := filepath.Join("testdata", "kernel_default.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-kernel-golden): %v", err)
	}
	var passive countingObserver
	var b strings.Builder
	for _, scheme := range []core.Scheme{core.SchemeIncentive, core.SchemeChitChat} {
		b.WriteString(renderKernelGolden(t, scheme, 1, 1, 0, &passive))
	}
	if got := b.String(); got != string(want) {
		t.Errorf("attaching a no-op observer changed the golden output\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if passive.events == 0 {
		t.Error("passive observer saw no events — it was not actually attached")
	}
	if passive.lifecycle < 4 {
		t.Errorf("passive observer saw %d lifecycle signals, want ≥4 (RunStart+RunEnd per scheme)", passive.lifecycle)
	}
}
