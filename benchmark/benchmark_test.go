package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"dtnsim/internal/obs"
)

// tiny sizes keep every workload's test under a few seconds while still
// crossing every layer the full size crosses.
var tiny = map[string]size{
	// paper's slice does not divide its span, so the last slice is short.
	"paper":     {units: 1, nodes: 100, area: 1, sim: 8 * time.Minute, slice: 45 * time.Second},
	"sparse20k": {units: 1, nodes: 400, area: 40, sim: 2 * time.Minute, slice: 30 * time.Second},
	"serve":     {units: 4, nodes: 30, area: 0.3, sim: 10 * time.Minute},
}

func runTiny(t *testing.T, name string, seed int64, traced bool) (result, *tracer) {
	t.Helper()
	w, err := newWorkload(name, seed, tiny[name], t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var tr *tracer
	want := endToEnd
	if traced {
		tr, want = newTracer(), perLayer
	}
	res, failures, err := w.run(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", name, res.Correct, res.Attempted, res.Failed, failures)
	}
	if err := complete(res.Metrics, want); err != nil {
		t.Fatal(err)
	}
	return res, tr
}

// TestEveryMetricHasAUnit runs each workload in both modes and checks
// that the output names exactly the catalogue, each metric with its unit,
// and that no end-to-end metric reads zero.
func TestEveryMetricHasAUnit(t *testing.T) {
	for _, name := range []string{"paper", "sparse20k", "serve"} {
		for _, traced := range []bool{false, true} {
			res, _ := runTiny(t, name, 1, traced)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, catalogue has %d", name, traced, len(res.Metrics), len(want))
			}
			for metricName, unit := range want {
				got, ok := res.Metrics[metricName]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", name, traced, metricName)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", name, traced, metricName, got.Unit, unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, metricName, got.Value)
				}
			}
		}
	}
}

// TestTracedPhasesAddUp checks that every RunFor span carries the five
// phases plus the runner remainder, and that they sum to the span.
func TestTracedPhasesAddUp(t *testing.T) {
	_, tr := runTiny(t, "paper", 2, true)
	var slices int
	for _, s := range tr.spans {
		if s.Name != "core.Engine.RunFor" {
			continue
		}
		slices++
		if len(s.Phases) != int(obs.NumPhases)+1 {
			t.Fatalf("slice span has phases %v", s.Phases)
		}
		var sum float64
		for _, v := range s.Phases {
			sum += v
		}
		if s.Phases["runner"] < 0 || math.Abs(sum-s.seconds()) > 1e-9 {
			t.Errorf("slice phases sum %.9f, span %.9f, runner %.9f", sum, s.seconds(), s.Phases["runner"])
		}
	}
	if want := 2 * 11; slices != want { // two schemes, eleven slices each
		t.Errorf("%d RunFor spans, want %d", slices, want)
	}
}

// TestCountersRepeat checks that the counts a later change may rest on
// repeat exactly across two runs of the same seed. Heap allocation
// repeats only to within a fraction of a percent: the runtime seeds every
// map's hash at random, so map growth differs slightly from run to run.
func TestCountersRepeat(t *testing.T) {
	a, _ := runTiny(t, "paper", 3, true)
	b, _ := runTiny(t, "paper", 3, true)
	for _, name := range []string{"core.events", "routing.transfers", "core.ticks", "core.contacts_up", "interest.sweeps"} {
		if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
			t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	x, _ := runTiny(t, "paper", 3, false)
	y, _ := runTiny(t, "paper", 3, false)
	if ax, ay := x.Metrics["alloc_mb"].Value, y.Metrics["alloc_mb"].Value; math.Abs(ax-ay) > 0.005*ax {
		t.Errorf("alloc_mb %v then %v, more than 0.5%% apart", ax, ay)
	}
}

// TestSeedChangesInputs checks that the seed reaches every generated spec.
func TestSeedChangesInputs(t *testing.T) {
	a, _ := runTiny(t, "paper", 4, true)
	b, _ := runTiny(t, "paper", 5, true)
	if a.Metrics["core.events"].Value == b.Metrics["core.events"].Value {
		t.Errorf("seeds 4 and 5 gave the same event count %v", a.Metrics["core.events"].Value)
	}
}

// TestServeGateRejectsCorruptOutput drives real daemon runs, then
// corrupts what the client saw and checks that the gate fails.
func TestServeGateRejectsCorruptOutput(t *testing.T) {
	w, err := newWorkload("serve", 6, tiny["serve"], t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := w.(serveWorkload)
	client := newClient(1)
	d, err := sw.startDaemon(context.Background(), client)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	sw.specs = sw.specs[:1]
	runs := drive(context.Background(), d, client, sw.specs, 0, nil)
	good := runs[0]
	if good.err != nil {
		t.Fatal(good.err)
	}
	tokens := initialTokens(sw.specs[0])
	for _, c := range []struct {
		name    string
		corrupt func(r *serveRun)
		want    string
	}{
		{"truncated trace", func(r *serveRun) { r.traceLines-- }, "trace has"},
		{"tokens minted", func(r *serveRun) { r.result.TokensMean += 1 }, "token conservation"},
		{"phantom delivery", func(r *serveRun) { r.result.Delivered = r.result.Created + 1 }, "exceeds created"},
		{"missing run_start", func(r *serveRun) { r.runStart = time.Time{} }, "run_start"},
		{"contact imbalance", func(r *serveRun) { bumpCounter(&r.final, "contacts_down") }, "contact balance"},
		{"stale plan", func(r *serveRun) { bumpCounter(&r.final, "stale_plans") }, "stale_plans"},
	} {
		r := good
		r.final.Counters = append([]obs.CounterValue(nil), good.final.Counters...)
		c.corrupt(&r)
		if err := r.check(tokens); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: gate returned %v, want an error about %q", c.name, err, c.want)
		}
	}
}

func bumpCounter(s *obs.Snapshot, name string) {
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			s.Counters[i].Value++
			return
		}
	}
	s.Counters = append(s.Counters, obs.CounterValue{Name: name, Value: 1})
}

// TestBestOfOrderAndMinimum checks that a zero budget makes exactly
// minPasses passes, that the passes alternate direction, and that each
// unit keeps its least wall and CPU seconds.
func TestBestOfOrderAndMinimum(t *testing.T) {
	var order []int
	samples := map[int][]float64{0: {3, 1, 2}, 1: {5, 6, 4}}
	wall, cpu, passes := bestOf(2, 0, func(i int) (float64, float64) {
		order = append(order, i)
		v := samples[i][0]
		samples[i] = samples[i][1:]
		return v, 10 - v
	})
	if passes != minPasses {
		t.Fatalf("%d passes, want %d", passes, minPasses)
	}
	if got, want := fmt.Sprint(order), "[0 1 1 0 0 1]"; got != want {
		t.Errorf("unit order %s, want %s", got, want)
	}
	if wall[0] != 1 || wall[1] != 4 || cpu[0] != 7 || cpu[1] != 4 {
		t.Errorf("wall %v cpu %v, want [1 4] and [7 4]", wall, cpu)
	}
}
