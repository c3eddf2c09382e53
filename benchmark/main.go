// Command benchmark measures dtnsim end to end on three workloads, through
// the entry points a user goes through: scenario.Build → core.NewEngine →
// Engine.Run (what cmd/dtnsim and cmd/dtnexp run) and serve.NewStore +
// serve.NewServer (what cmd/dtnserved runs). It checks every run's output
// and prints one JSON result line; see README.md for the metric catalogue.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash benchmark/run.sh --workload paper --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/scenario"
)

// endToEnd and perLayer name every metric the benchmark prints, with its
// unit. An untraced run prints exactly the first set and a traced run
// exactly the second; a layer a workload does not reach reads 0.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"wall_s":      "s",
	"cpu_s":       "s",
	"peak_rss_mb": "MB",
	"alloc_mb":    "MB",
}

var perLayer = map[string]string{
	"scenario.build_s":            "s",
	"core.new_engine_s":           "s",
	"mobility.move_s":             "s",
	"world.detect_s":              "s",
	"world.candidate_rebuilds":    "count",
	"core.contacts_s":             "s",
	"core.contacts_up":            "count",
	"core.contacts_open_ratio":    "ratio",
	"core.exchange_s":             "s",
	"core.exchange_late_early":    "ratio",
	"interest.sweeps":             "count",
	"interest.evictions":          "count",
	"interest.rows_live":          "count",
	"routing.transfers":           "count",
	"routing.aborted":             "count",
	"routing.transfer_yield":      "ratio",
	"incentive.refused_no_tokens": "count",
	"reputation.refused":          "count",
	"core.run_incentive_s":        "s",
	"core.run_chitchat_s":         "s",
	"sim.events_s":                "s",
	"sim.runner_s":                "s",
	"core.ticks":                  "count",
	"core.events":                 "count",
	"obs.snapshot_s":              "s",
	"serve.create_p50_s":          "s",
	"serve.start_p50_s":           "s",
	"serve.stream_frames":         "count",
	"serve.dropped_frames":        "count",
	"serve.engine_s":              "s",
	"experiment.queue_wait_p50_s": "s",
	"report.trace_lines":          "count",
	"report.trace_bytes":          "bytes",
	"report.trace_download_p50_s": "s",
	"runs_per_s":                  "1/s",
	"run_latency_p50_s":           "s",
	"run_latency_p90_s":           "s",
	"first_frame_p50_s":           "s",
	"first_frame_p90_s":           "s",
	"bench.trace_overhead_s":      "s",
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "paper, sparse20k or serve")
	seed := fs.Int64("seed", 1, "seed every generated spec derives from")
	seconds := fs.Int("seconds", 40, "measuring time of the untraced run; also sizes the work of one pass")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	w, err := newWorkload(*workload, *seed, sizeFor(*workload, *seconds), ".bench_build")
	if err != nil {
		return err
	}
	h := hostRecord()
	if err := json.NewEncoder(stdout).Encode(map[string]host{"host": h}); err != nil {
		return err
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	res, failures, err := w.run(context.Background(), tr)
	if err != nil {
		return err
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "benchmark: failed:", f)
	}
	if tr != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed))
		if err := tr.write(path, h); err != nil {
			return err
		}
	}
	want := endToEnd
	if tr != nil {
		want = perLayer
	}
	if err := complete(res.Metrics, want); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// complete fills the layers a workload does not reach with 0 and rejects
// any metric that is not in the catalogue or has the wrong unit.
func complete(m metrics, want map[string]string) error {
	for name, v := range m {
		if unit, ok := want[name]; !ok || unit != v.Unit {
			return fmt.Errorf("metric %s (%s) is not in the catalogue", name, v.Unit)
		}
	}
	for name, unit := range want {
		if _, ok := m[name]; !ok {
			m.set(name, 0, unit)
		}
	}
	return nil
}

// workload is one runnable benchmark workload.
type workload interface {
	run(ctx context.Context, tr *tracer) (result, []string, error)
}

// size is the work of one invocation: the units of one pass, and the
// time the untraced run spends repeating them.
type size struct {
	units  int // paper: figure-point seeds; sparse20k: runs; serve: runs per pass
	nodes  int
	area   float64
	sim    time.Duration // simulated span of each run
	slice  time.Duration // traced RunFor slice (engine workloads)
	budget time.Duration // untraced measuring time; see bestOf
}

const (
	// minPasses is the fewest passes the untraced run makes over its
	// units, however slow the host; see bestOf.
	minPasses = 3
	// targetPasses is how many passes fit in the budget on a 2-vCPU host
	// that no other tenant slows.
	targetPasses = 5
)

// sizeFor maps --seconds to the units of one pass, so that targetPasses
// passes take about that long on a 2-vCPU host, and to the measuring
// budget. The units depend only on the arguments, so two invocations with
// the same arguments run the same specs; only how often the untraced run
// repeats them follows the host's speed.
func sizeFor(workload string, seconds int) size {
	budget := time.Duration(seconds) * time.Second
	// units is how many units of unitSeconds each fit in targetPasses
	// passes.
	units := func(unitSeconds float64) int {
		return max(1, int(math.Round(float64(seconds)/(unitSeconds*targetPasses))))
	}
	switch workload {
	case "paper":
		// One figure-point seed (incentive + ChitChat, 20 sim-min) takes
		// about 1.65 s.
		return size{units: units(1.65), nodes: 500, area: 5, sim: 20 * time.Minute, slice: 5 * time.Minute, budget: budget}
	case "sparse20k":
		// One 10 sim-min run, set-up included, takes about 3 s.
		return size{units: units(3), nodes: 20000, area: 2000, sim: 10 * time.Minute, slice: 2 * time.Minute, budget: budget}
	case "serve":
		// One client completes a block of 10 runs of 30 sim-min in about
		// 2.2 s; a pass is a whole number of blocks.
		return size{units: serveBlock * units(2.2), nodes: 100, area: 1, sim: 30 * time.Minute, budget: budget}
	default:
		return size{} // newWorkload rejects the name
	}
}

// subSeed derives the i-th run's seed from the benchmark seed
// (splitmix64), so every spec follows from --seed alone.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// mixedSpec is the paper's population: Table 5.1 defaults with 20 %
// selfish and 10 % malicious nodes, no observers, workers=1, regions=1.
func mixedSpec(scheme core.Scheme, sz size, seed int64) scenario.Spec {
	s := scenario.Default(scheme)
	s.Nodes = sz.nodes
	s.AreaKm2 = sz.area
	s.Duration = sz.sim
	s.SelfishPercent = 20
	s.MaliciousPercent = 10
	s.MaliciousLowQuality = true
	s.Seed = seed
	return s
}

// newWorkload builds the named workload; out holds its scratch files.
func newWorkload(name string, seed int64, sz size, out string) (workload, error) {
	switch name {
	case "paper":
		w := engineWorkload{slice: sz.slice, budget: sz.budget}
		for i := 0; i < sz.units; i++ {
			s := subSeed(seed, i)
			w.units = append(w.units, []scenario.Spec{
				mixedSpec(core.SchemeIncentive, sz, s),
				mixedSpec(core.SchemeChitChat, sz, s),
			})
		}
		return w, nil
	case "sparse20k":
		w := engineWorkload{slice: sz.slice, budget: sz.budget}
		for i := 0; i < sz.units; i++ {
			s := scenario.Default(core.SchemeIncentive)
			s.Nodes, s.AreaKm2, s.Duration, s.Seed = sz.nodes, sz.area, sz.sim, subSeed(seed, i)
			w.units = append(w.units, []scenario.Spec{s})
		}
		return w, nil
	case "serve":
		spool, err := filepath.Abs(filepath.Join(out, "spool"))
		if err != nil {
			return nil, err
		}
		w := serveWorkload{spoolRoot: spool, budget: sz.budget}
		for i := 0; i < sz.units; i++ {
			s := mixedSpec(core.SchemeIncentive, sz, subSeed(seed, i))
			// The quick profile's generation interval and tick.
			s.MeanMessageInterval = 45 * time.Minute
			s.Step = 2 * time.Second
			s.Heartbeat = 20 * time.Millisecond
			w.specs = append(w.specs, s)
		}
		return w, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want paper, sparse20k or serve)", name)
	}
}

func toResult(m metrics, o outcome) result {
	return result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}
