package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's named measurements.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// allocatedMB is the heap the process has allocated so far, in MB.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS lowers the kernel's resident-set high-water mark to the
// current RSS, so the peak read later covers only the measured part and
// not the garbage of earlier set-ups.
func resetPeakRSS() {
	runtime.GC()
	// Best effort: without clear_refs the peak covers the whole process.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// bestOf runs each of n units once per pass, in forward order on even
// passes and in reverse order on odd ones, and returns each unit's least
// wall-clock and least CPU seconds and the number of passes made; unit
// returns the seconds of the part it times (see timed). It makes at
// least minPasses passes, and more while the next pass, as long as the
// last one, still ends within budget. A burst in which other tenants slow
// the shared host inflates some of a unit's samples but rarely all of
// them, so sums of these minima follow the program more than the host; a
// slow stretch as long as the whole run is not removed (README, Noise).
func bestOf(n int, budget time.Duration, unit func(i int) (wall, cpu float64)) (wall, cpu []float64, passes int) {
	wall, cpu = make([]float64, n), make([]float64, n)
	t0 := time.Now()
	var last time.Duration
	for ; passes < minPasses || time.Since(t0)+last <= budget; passes++ {
		t := time.Now()
		for j := 0; j < n; j++ {
			i := j
			if passes%2 == 1 {
				i = n - 1 - j
			}
			dw, dc := unit(i)
			if passes == 0 || dw < wall[i] {
				wall[i] = dw
			}
			if passes == 0 || dc < cpu[i] {
				cpu[i] = dc
			}
		}
		last = time.Since(t)
	}
	return wall, cpu, passes
}

// timed runs f and returns its wall-clock and process CPU seconds.
func timed(f func()) (wall, cpu float64) {
	t, c := time.Now(), cpuTime()
	f()
	return time.Since(t).Seconds(), (cpuTime() - c).Seconds()
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Phases map[string]float64 `json:"phases,omitempty"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (IDs start at 1; 0 means no parent).
func (t *tracer) begin(name, run string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: time.Since(t.t0).Seconds(),
	})
	return len(t.spans)
}

// end closes span id and returns it.
func (t *tracer) end(id int) *span {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	return s
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.seconds()
		}
	}
	return sum
}

// write stores the spans as JSON lines, preceded by the host record.
func (t *tracer) write(path string, h host) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(map[string]host{"host": h}); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// host records the machine a run measured on. It is printed beside the
// result, not among the metrics: it describes the host, not the program.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// CalibrationSeconds times a fixed integer loop at the start of the
	// run. A set of runs that disagrees with another can be traced to a
	// slower core by comparing it.
	CalibrationSeconds float64 `json:"calibration_s"`
}

func hostRecord() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
	t := time.Now()
	calibrationSink = calibrationLoop(50_000_000)
	h.CalibrationSeconds = time.Since(t).Seconds()
	return h
}

var calibrationSink uint64

// calibrationLoop is a fixed xorshift chain: pure ALU work with no memory
// traffic, so its time tracks the core's speed and share alone.
func calibrationLoop(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
