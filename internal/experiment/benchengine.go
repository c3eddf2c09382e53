package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/obs"
	"dtnsim/internal/scenario"
)

// This file holds the engine-throughput bench runner behind
// `dtnexp -exp bench-engine`: the same workload as BenchmarkEngineScale
// (bench_test.go), but run as a plain program so the numbers land in a
// committed BENCH_engine.json instead of scrolling past in test output.
// DESIGN.md's "Parallel step pipeline" section quotes the recorded grid.

// EngineBenchPoint is one measured (nodes × workers × regions)
// configuration.
type EngineBenchPoint struct {
	Nodes   int `json:"nodes"`
	Workers int `json:"workers"`
	// Regions is the world-sharding region count (core.Config Regions);
	// 1 is the single flat grid.
	Regions int `json:"regions"`
	// EffectiveWorkers is the worker count after the GOMAXPROCS clamp —
	// what the engine actually ran with on the measurement host. Points
	// with equal effective counts are the same configuration.
	EffectiveWorkers int `json:"effective_workers"`
	// SimSeconds is how much virtual time the measured window covered.
	SimSeconds float64 `json:"sim_seconds"`
	// MsPerSimSecond is wall milliseconds spent per simulated second —
	// lower is faster; 1000 means real time.
	MsPerSimSecond float64 `json:"ms_per_sim_second"`
	// BytesPerSimSecond is heap allocation per simulated second.
	BytesPerSimSecond float64 `json:"bytes_per_sim_second"`
	// PhaseMsPerSimSecond maps each tick phase (move, detect, contacts,
	// exchange, events) to wall milliseconds spent per simulated second
	// over the measured window — the per-phase decomposition of
	// MsPerSimSecond, taken from the engine's obs.Snapshot timers.
	PhaseMsPerSimSecond map[string]float64 `json:"phase_ms_per_sim_second"`
	// CandidateRebuilds counts kinetic contact-detection candidate-list
	// rebuilds during the whole run (warmup included); 0 means the kinetic
	// path was disabled. When the world is region-sharded each region's
	// rebuild counts separately.
	CandidateRebuilds uint64 `json:"candidate_rebuilds"`
	// RegionHandoffs counts node ownership transfers across region borders
	// during the whole run; always 0 at Regions ≤ 1.
	RegionHandoffs uint64 `json:"region_handoffs"`
	// GoMaxProcs and GoVersion identify the measurement host's schedulable
	// CPU count and toolchain: grids recorded on different machines are not
	// comparable, and these fields make a foreign grid recognisable.
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// EngineBenchGrid is the default measurement grid: the BenchmarkEngineScale
// node counts crossed with the worker axis on the flat grid, plus the
// region-sharding axis — region variants at the 5000-node knee and
// large-population rows (20k and 50k nodes) where state sharding is the
// lever. The large rows run a capped measured window (see EngineBench) so
// regenerating the grid stays a minutes-scale job.
func EngineBenchGrid() []EngineBenchPoint {
	var grid []EngineBenchPoint
	for _, nodes := range []int{500, 2000, 5000} {
		for _, workers := range []int{1, 2, 4, 8} {
			grid = append(grid, EngineBenchPoint{Nodes: nodes, Workers: workers, Regions: 1})
		}
	}
	grid = append(grid,
		EngineBenchPoint{Nodes: 5000, Workers: 4, Regions: 4},
		EngineBenchPoint{Nodes: 5000, Workers: 8, Regions: 9},
		EngineBenchPoint{Nodes: 20000, Workers: 1, Regions: 1},
		EngineBenchPoint{Nodes: 20000, Workers: 8, Regions: 1},
		EngineBenchPoint{Nodes: 20000, Workers: 8, Regions: 9},
		EngineBenchPoint{Nodes: 50000, Workers: 1, Regions: 1},
		EngineBenchPoint{Nodes: 50000, Workers: 8, Regions: 1},
		EngineBenchPoint{Nodes: 50000, Workers: 8, Regions: 16},
	)
	return grid
}

// benchWindowCap bounds the measured window for very large populations: a
// 50k-node step costs two orders of magnitude more wall time than a
// 500-node one, and the window only needs enough ticks to average over the
// exchange cadence, not the full default minute.
func benchWindowCap(nodes, simSeconds int) int {
	if nodes >= 20000 && simSeconds > 20 {
		return 20
	}
	return simSeconds
}

// EngineBench measures each grid point: build the paper-density network,
// warm up two simulated minutes (buffers, contacts, periodic schedule),
// then time simSeconds simulated seconds and record wall time and
// allocation per simulated second. Each point is measured repeat times
// from a fresh engine and the fastest run is kept: the measured windows
// are a few hundred wall-milliseconds, short enough that one scheduler or
// hypervisor hiccup on a shared host distorts a single shot by tens of
// percent, and the minimum is the standard low-noise estimator for a
// deterministic workload (the simulation itself is identical run to run).
func EngineBench(ctx context.Context, grid []EngineBenchPoint, simSeconds, repeat int, log io.Writer) ([]EngineBenchPoint, error) {
	if simSeconds <= 0 {
		return nil, fmt.Errorf("experiment: bench window must be positive, got %d", simSeconds)
	}
	if repeat <= 0 {
		repeat = 1
	}
	out := make([]EngineBenchPoint, 0, len(grid))
	for _, pt := range grid {
		best := pt
		for rep := 0; rep < repeat; rep++ {
			got, err := engineBenchRun(ctx, pt, benchWindowCap(pt.Nodes, simSeconds))
			if err != nil {
				return nil, err
			}
			if rep == 0 || got.MsPerSimSecond < best.MsPerSimSecond {
				best = got
			}
		}
		out = append(out, best)
		if log != nil {
			fmt.Fprintf(log, "bench-engine nodes=%d workers=%d(eff %d) regions=%d: %.2f ms/sim-s (exchange %.2f), %.0f B/sim-s\n",
				best.Nodes, best.Workers, best.EffectiveWorkers, best.Regions, best.MsPerSimSecond,
				best.PhaseMsPerSimSecond["exchange"], best.BytesPerSimSecond)
		}
	}
	return out, nil
}

// engineBenchRun performs one warmup-and-measure pass for a grid point on a
// freshly built engine.
func engineBenchRun(ctx context.Context, pt EngineBenchPoint, simSeconds int) (EngineBenchPoint, error) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = pt.Nodes
	spec.AreaKm2 = float64(pt.Nodes) / 100
	spec.Duration = 24 * time.Hour // never reached; windows driven manually
	spec.SelfishPercent = 20
	spec.MaliciousPercent = 10
	spec.MeanMessageInterval = 30 * time.Minute
	spec.Workers = pt.Workers
	spec.Regions = pt.Regions
	cfg, pop, err := scenario.Build(spec)
	if err != nil {
		return pt, err
	}
	cfg.MessageTTL = 30 * time.Minute
	applyObservation(ctx, &cfg)
	eng, err := core.NewEngine(cfg, pop)
	if err != nil {
		return pt, err
	}
	if err := eng.RunFor(ctx, 2*time.Minute); err != nil {
		return pt, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm := eng.Snapshot()
	start := time.Now()
	if err := eng.RunFor(ctx, time.Duration(simSeconds)*time.Second); err != nil {
		return pt, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	window := eng.Snapshot().Sub(warm)

	pt.EffectiveWorkers = eng.Workers()
	pt.SimSeconds = float64(simSeconds)
	pt.MsPerSimSecond = float64(wall) / float64(time.Millisecond) / pt.SimSeconds
	pt.BytesPerSimSecond = float64(after.TotalAlloc-before.TotalAlloc) / pt.SimSeconds
	pt.PhaseMsPerSimSecond = phaseColumns(window, pt.SimSeconds)
	pt.CandidateRebuilds = eng.ContactRebuilds()
	pt.RegionHandoffs = eng.Snapshot().Counter("region_handoffs")
	pt.GoMaxProcs = runtime.GOMAXPROCS(0)
	pt.GoVersion = runtime.Version()
	return pt, nil
}

// phaseColumns renders a measured window's per-phase timers as wall
// milliseconds per simulated second, the unit the bench grids record.
func phaseColumns(window obs.Snapshot, simSeconds float64) map[string]float64 {
	cols := make(map[string]float64, len(window.Phases))
	for _, p := range window.Phases {
		cols[p.Name] = p.Seconds * 1000 / simSeconds
	}
	return cols
}

// WriteEngineBench renders the measured grid as the committed
// BENCH_engine.json format: indented JSON with a stable field order.
func WriteEngineBench(w io.Writer, points []EngineBenchPoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(points)
}
