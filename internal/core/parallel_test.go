package core_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/mobility"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/scenario"
	"dtnsim/internal/sim"
	"dtnsim/internal/world"
)

// runTrace executes the spec with the given worker count and returns the
// full event trace. GOMAXPROCS is lifted to the worker count so the clamp
// in sim.NewWorkers doesn't serialize the very concurrency under test on a
// small CI host.
func runTrace(t *testing.T, spec scenario.Spec, workers int, mutate func([]core.NodeSpec)) []report.Event {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < workers {
		runtime.GOMAXPROCS(workers)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	cfg, specs, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	if mutate != nil {
		mutate(specs)
	}
	var buf report.Buffer
	cfg.Observers = []obs.Observer{obs.Record(&buf)}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return buf.Events
}

func requireSameTrace(t *testing.T, label string, got, want []report.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestEngineParallelTraceEquality is the core-level determinism contract:
// the complete event trace — contacts, exchanges, transfers, payments — is
// identical whatever Config.Workers says. This is also the test that puts
// the sharded mobility and pair detection under the race detector in this
// package's -race CI run.
func TestEngineParallelTraceEquality(t *testing.T) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 40
	spec.AreaKm2 = 0.4
	spec.Duration = 20 * time.Minute
	spec.MeanMessageInterval = 5 * time.Minute
	spec.SelfishPercent = 20
	spec.MaliciousPercent = 10
	spec.Seed = 9

	want := runTrace(t, spec, 1, nil)
	if len(want) == 0 {
		t.Fatal("serial run produced no events; scenario too sparse to test anything")
	}
	for _, workers := range []int{2, 4} {
		got := runTrace(t, spec, workers, nil)
		requireSameTrace(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// TestEngineParallelWithGroupMobility pins the ParallelAdvance gate: a
// network containing one GroupMember — whose Advance reads its leader's
// live position — must keep the mobility phase serial, and the run must
// still match the fully serial trace with workers enabled (pair detection
// still shards).
func TestEngineParallelWithGroupMobility(t *testing.T) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 30
	spec.AreaKm2 = 0.3
	spec.Duration = 15 * time.Minute
	spec.MeanMessageInterval = 5 * time.Minute
	spec.Seed = 4

	// Node 1 follows node 0. mutate is called once per run with identical
	// deterministic inputs, so both runs get identically constructed models.
	mutate := func(specs []core.NodeSpec) {
		bounds := world.SquareKm(spec.AreaKm2)
		rng := sim.NewRNG(spec.Seed).Fork("group-test")
		leader, err := mobility.NewRandomWaypoint(mobility.DefaultPedestrian(bounds), rng.Fork("leader"))
		if err != nil {
			t.Fatal(err)
		}
		member, err := mobility.NewGroupMember(mobility.DefaultGroup(), leader, bounds, rng.Fork("member"))
		if err != nil {
			t.Fatal(err)
		}
		specs[0].Mobility = leader
		specs[1].Mobility = member
	}

	want := runTrace(t, spec, 1, mutate)
	got := runTrace(t, spec, 4, mutate)
	requireSameTrace(t, "group mobility workers=4", got, want)
}
