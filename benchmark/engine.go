package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/obs"
	"dtnsim/internal/scenario"
)

// engineWorkload is a fixed list of units, each one or more engine runs
// driven through scenario.Build → core.NewEngine → Engine.Run, the path
// cmd/dtnsim takes. A unit is one operation as a user sees it: one seed
// of a figure point (both schemes) on paper, one run on sparse20k.
type engineWorkload struct {
	units [][]scenario.Spec
	// slice is the simulated span of one RunFor call in the traced run.
	slice time.Duration
	// budget is the untraced measuring time; see bestOf.
	budget time.Duration
}

// engineRun is the outcome of one engine run.
type engineRun struct {
	setup, wall float64 // Build+NewEngine, and Build through Result, in seconds
	res         core.Result
	snap        obs.Snapshot
	err         error
}

// runEngine is the untraced path: exactly the calls cmd/dtnsim makes.
func runEngine(ctx context.Context, spec scenario.Spec) engineRun {
	var r engineRun
	t0 := time.Now()
	cfg, specs, err := scenario.Build(spec)
	if err != nil {
		r.err = err
		return r
	}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		r.err = err
		return r
	}
	r.setup = time.Since(t0).Seconds()
	res, err := eng.Run(ctx)
	r.wall = time.Since(t0).Seconds()
	if err != nil {
		r.err = err
		return r
	}
	r.res, r.snap = res, eng.Snapshot()
	r.err = checkRun(r.res, r.snap, cfg.Incentive.InitialTokens)
	return r
}

// tracedRun is the outcome of one engine run driven in RunFor slices.
type tracedRun struct {
	engineRun
	runner                      float64 // Σ over slices of RunFor span − Σ phase deltas
	firstExchange, lastExchange float64 // exchange s per sim-s, first and last slice
}

// runEngineTraced drives the same run in fixed simulated slices, with a
// span around every call into the program and a snapshot between slices.
func runEngineTraced(ctx context.Context, spec scenario.Spec, slice time.Duration, tr *tracer, run string) tracedRun {
	var r tracedRun
	root := tr.begin("op", run, 0)
	defer tr.end(root)
	t0 := time.Now()
	id := tr.begin("scenario.Build", run, root)
	cfg, specs, err := scenario.Build(spec)
	tr.end(id)
	if err != nil {
		r.err = err
		return r
	}
	id = tr.begin("core.NewEngine", run, root)
	eng, err := core.NewEngine(cfg, specs)
	tr.end(id)
	if err != nil {
		r.err = err
		return r
	}
	r.setup = time.Since(t0).Seconds()
	snapshot := func() obs.Snapshot {
		id := tr.begin("core.Engine.Snapshot", run, root)
		s := eng.Snapshot()
		tr.end(id)
		return s
	}
	prev := snapshot()
	for first := true; eng.Now() < cfg.Duration; first = false {
		step := min(slice, cfg.Duration-eng.Now())
		id := tr.begin("core.Engine.RunFor", run, root)
		err := eng.RunFor(ctx, step)
		span := tr.end(id).seconds()
		if err != nil {
			r.err = err
			return r
		}
		cur := snapshot()
		phases := make(map[string]float64, len(cur.Phases)+1)
		var sum float64
		for _, p := range cur.Phases {
			d := p.Seconds - prev.Phase(p.Name)
			phases[p.Name] = d
			sum += d
		}
		if sum > span {
			r.err = fmt.Errorf("slice at %v: phases %.6fs exceed the RunFor span %.6fs", eng.Now(), sum, span)
			return r
		}
		phases["runner"] = span - sum
		tr.spans[id-1].Phases = phases
		r.runner += span - sum
		perSim := phases["exchange"] / (cur.SimSeconds - prev.SimSeconds)
		if first {
			r.firstExchange = perSim
		}
		r.lastExchange = perSim
		prev = cur
	}
	id = tr.begin("core.Engine.Result", run, root)
	r.res = eng.Result()
	tr.end(id)
	r.wall = time.Since(t0).Seconds()
	r.snap = prev
	r.err = checkRun(r.res, r.snap, cfg.Incentive.InitialTokens)
	return r
}

// outcome is what a workload reports besides its metrics.
type outcome struct {
	attempted, failed int
	failures          []string
}

func (o *outcome) record(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

func runLabel(spec scenario.Spec) string {
	return fmt.Sprintf("%s-seed%d", spec.Scheme, spec.Seed)
}

// run measures the workload untraced, or traced when tr is non-nil.
func (w engineWorkload) run(ctx context.Context, tr *tracer) (result, []string, error) {
	if tr != nil {
		m, o := w.trace(ctx, tr)
		return toResult(m, o), o.failures, nil
	}
	m, o, err := w.measure(ctx)
	if err != nil {
		return result{}, nil, err
	}
	return toResult(m, o), o.failures, nil
}

// measure runs the workload untraced and returns the end-to-end metrics.
// Every run is timed on its own, once per pass; wall_s and cpu_s add up
// each run's best pass (see bestOf), and alloc_mb is the heap allocated
// per pass.
func (w engineWorkload) measure(ctx context.Context) (metrics, outcome, error) {
	var specs []scenario.Spec
	for _, unit := range w.units {
		specs = append(specs, unit...)
	}
	var o outcome
	var setups []float64
	resetPeakRSS()
	alloc0 := allocatedMB()
	walls, cpus, passes := bestOf(len(specs), w.budget, func(i int) (float64, float64) {
		var r engineRun
		wall, cpu := timed(func() { r = runEngine(ctx, specs[i]) })
		o.record(runLabel(specs[i]), r.err)
		setups = append(setups, r.setup)
		// Each run starts from a collected heap, as a fresh dtnsim
		// process would.
		runtime.GC()
		return wall, cpu
	})
	alloc := allocatedMB() - alloc0
	peak, err := peakRSSMB()
	if err != nil {
		return nil, o, err
	}
	m := metrics{}
	m.set("setup_s", quantile(setups, 0.5), "s")
	m.set("wall_s", sum(walls), "s")
	m.set("cpu_s", sum(cpus), "s")
	m.set("peak_rss_mb", peak, "MB")
	m.set("alloc_mb", alloc/float64(passes), "MB")
	return m, o, nil
}

// trace runs every run twice, untraced and in slices, checks that both
// give the same result, and returns the per-layer metrics of the sliced
// runs.
func (w engineWorkload) trace(ctx context.Context, tr *tracer) (metrics, outcome) {
	var o outcome
	var l layers
	var firstFrames, latencies []float64
	var untracedWall, tracedWall float64
	for _, unit := range w.units {
		var latency float64
		for _, spec := range unit {
			label := runLabel(spec)
			u := runEngine(ctx, spec)
			runtime.GC()
			t := runEngineTraced(ctx, spec, w.slice, tr, label)
			runtime.GC()
			err := u.err
			if err == nil {
				err = t.err
			}
			if err == nil && fingerprint(u.res) != fingerprint(t.res) {
				err = fmt.Errorf("sliced run result differs from the untraced run")
			}
			o.record(label, err)
			untracedWall += u.wall
			tracedWall += t.wall
			latency += t.wall
			// run_start fires on entry to Engine.Run, so a run's first
			// frame is due once set-up returns.
			firstFrames = append(firstFrames, t.setup)
			l.addSnapshot(t.snap)
			l.addResult(t.res, t.wall)
			l.addSlices(t.firstExchange, t.lastExchange)
			l.runner += t.runner
		}
		latencies = append(latencies, latency)
	}
	m := metrics{}
	l.emit(m)
	m.set("scenario.build_s", tr.total("scenario.Build"), "s")
	m.set("core.new_engine_s", tr.total("core.NewEngine"), "s")
	m.set("obs.snapshot_s", tr.total("core.Engine.Snapshot"), "s")
	m.set("runs_per_s", float64(o.attempted)/untracedWall, "1/s")
	m.set("run_latency_p50_s", quantile(latencies, 0.5), "s")
	m.set("run_latency_p90_s", quantile(latencies, 0.9), "s")
	m.set("first_frame_p50_s", quantile(firstFrames, 0.5), "s")
	m.set("first_frame_p90_s", quantile(firstFrames, 0.9), "s")
	m.set("bench.trace_overhead_s", tracedWall-untracedWall, "s")
	return m, o
}
