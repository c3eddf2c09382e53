package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/obs"
	"dtnsim/internal/scenario"
	"dtnsim/internal/serve"
)

// serveWorkload drives an in-process dtnserved (serve.NewStore +
// serve.NewServer on a loopback listener, what cmd/dtnserved builds) from
// a closed loop of clients: each client sends its next run only after the
// previous one has finished and its trace is downloaded. The clients
// never sleep or poll, so the wall clock measures the daemon, not the
// load generator.
type serveWorkload struct {
	specs     []scenario.Spec // one pass
	spoolRoot string
	budget    time.Duration // untraced measuring time; see bestOf
}

const (
	// serveClients is the number of closed-loop clients, and serveSlots
	// the daemon's concurrent-run limit. One client keeps one engine busy
	// and leaves the second vCPU of the 2-vCPU reference host to the HTTP
	// handlers, the trace writer and the collector; two clients on two
	// vCPUs timed the host's scheduler more than the daemon.
	serveClients = 1
	serveSlots   = 2
	// serveBlock is how many runs the untraced run times as one unit.
	serveBlock = 10
	// serveSetups is how many extra daemons the untraced run starts and
	// stops before each block, so that set-up is sampled all through the
	// run; setup_s is the median over these and the blocks' own daemons.
	serveSetups = 16
	// runTimeout bounds one session so a stuck run fails instead of
	// hanging the benchmark.
	runTimeout = time.Minute
)

// daemon is one running control plane.
type daemon struct {
	base  string
	store *serve.Store
	srv   *http.Server
	done  chan error
	spool string
	// setup is the seconds from NewStore until /healthz answered; the
	// spool directory, which the benchmark and not the daemon creates, is
	// made before it.
	setup float64
}

// startDaemon builds the store, the server and the listener, and returns
// once /healthz answers.
func (w serveWorkload) startDaemon(ctx context.Context, client *http.Client) (*daemon, error) {
	if err := os.MkdirAll(w.spoolRoot, 0o755); err != nil {
		return nil, fmt.Errorf("spool dir: %w", err)
	}
	spool, err := os.MkdirTemp(w.spoolRoot, "spool-")
	if err != nil {
		return nil, fmt.Errorf("spool dir: %w", err)
	}
	t := time.Now()
	store := serve.NewStore(serveSlots, spool)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		os.RemoveAll(spool)
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		base:  "http://" + ln.Addr().String(),
		store: store,
		srv:   &http.Server{Handler: serve.NewServer(store)},
		done:  make(chan error, 1),
		spool: spool,
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	var health struct {
		Status string `json:"status"`
	}
	if err := getJSON(ctx, client, d.base+"/healthz", &health); err != nil || health.Status != "ok" {
		d.stop()
		return nil, fmt.Errorf("healthz: status %q, err %v", health.Status, err)
	}
	d.setup = time.Since(t).Seconds()
	return d, nil
}

// stop shuts the server down, cancels and waits for every run, and
// removes the spool.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.store.Close()
	if rerr := os.RemoveAll(d.spool); err == nil {
		err = rerr
	}
	return err
}

// serveRun is what the client saw of one run.
type serveRun struct {
	index int
	id    string
	err   error

	// Client-side timestamps of the session's steps, in order.
	created, createResp, startSent, startResp, runStart, end, statusDone, traceDone time.Time

	frames      int
	final       obs.Snapshot
	heartbeats  []obs.Snapshot
	result      core.Result
	traceLines  int
	traceBytes  int
	fingerprint string
}

// drive runs every spec through d from serveClients closed-loop clients and
// returns the runs in spec order; first is the index of specs[0].
func drive(ctx context.Context, d *daemon, client *http.Client, specs []scenario.Spec, first int, tr *tracer) []serveRun {
	runs := make([]serveRun, len(specs))
	var next atomic.Int64
	var mu sync.Mutex // guards tr
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				rctx, cancel := context.WithTimeout(ctx, runTimeout)
				runs[i] = oneRun(rctx, d, client, specs[i], first+i)
				cancel()
				if tr != nil {
					mu.Lock()
					runs[i].addSpans(tr)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return runs
}

// oneRun is one user's session: create, open the stream, start, read the
// stream to its end frame, fetch the status and download the trace.
func oneRun(ctx context.Context, d *daemon, client *http.Client, spec scenario.Spec, index int) serveRun {
	r := serveRun{index: index}
	r.err = r.session(ctx, d, client, spec)
	if r.err == nil {
		r.err = r.check(initialTokens(spec))
	}
	return r
}

func (r *serveRun) session(ctx context.Context, d *daemon, client *http.Client, spec scenario.Spec) error {
	body, err := json.Marshal(map[string]any{"spec": spec, "trace": true})
	if err != nil {
		return err
	}
	t0 := time.Now()
	var created struct {
		ID string `json:"id"`
	}
	if err := postJSON(ctx, client, d.base+"/runs", body, http.StatusCreated, &created); err != nil {
		return fmt.Errorf("create: %w", err)
	}
	r.created, r.createResp, r.id = t0, time.Now(), created.ID

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/runs/"+r.id+"/stream", nil)
	if err != nil {
		return err
	}
	stream, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: status %d", stream.StatusCode)
	}
	streamErr := make(chan error, 1)
	go func() { streamErr <- r.readStream(stream.Body) }()

	r.startSent = time.Now()
	if err := postJSON(ctx, client, d.base+"/runs/"+r.id+"/start", nil, http.StatusAccepted, nil); err != nil {
		stream.Body.Close()
		<-streamErr
		return fmt.Errorf("start: %w", err)
	}
	r.startResp = time.Now()
	if err := <-streamErr; err != nil {
		return fmt.Errorf("stream: %w", err)
	}

	var status serve.Status
	if err := getJSON(ctx, client, d.base+"/runs/"+r.id, &status); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	if status.Result == nil {
		return fmt.Errorf("status of finished run %s has no result", r.id)
	}
	r.result = *status.Result
	r.statusDone = time.Now()

	trace, err := get(ctx, client, d.base+"/runs/"+r.id+"/trace")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	r.traceDone = time.Now()
	r.traceBytes = len(trace)
	r.traceLines = bytes.Count(trace, []byte{'\n'})
	return nil
}

// readStream parses the SSE stream until the server closes it after the
// end frame.
func (r *serveRun) readStream(body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	var event string
	var ended bool
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		r.frames++
		switch event {
		case "run_start":
			r.runStart = time.Now()
		case "heartbeat", "run_end":
			var s obs.Snapshot
			if err := json.Unmarshal([]byte(data), &s); err != nil {
				return fmt.Errorf("%s frame: %w", event, err)
			}
			if event == "run_end" {
				r.final = s
			} else {
				r.heartbeats = append(r.heartbeats, s)
			}
		case "end":
			r.end = time.Now()
			var st struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return fmt.Errorf("end frame: %w", err)
			}
			if st.State != string(serve.StateDone) {
				return fmt.Errorf("run ended in state %q", st.State)
			}
			ended = true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !ended {
		return fmt.Errorf("stream closed without an end frame")
	}
	return nil
}

// check is the serve correctness gate: the stream carried run_start and
// run_end, the run passes the engine gate, and the downloaded trace holds
// one line per event the engine counted.
func (r *serveRun) check(tokens float64) error {
	if r.runStart.IsZero() {
		return fmt.Errorf("no run_start frame")
	}
	if r.final.Steps == 0 {
		return fmt.Errorf("no run_end frame")
	}
	if err := checkRun(r.result, r.final, tokens); err != nil {
		return err
	}
	if uint64(r.traceLines) != r.final.Events {
		return fmt.Errorf("trace has %d lines, run_end counted %d events", r.traceLines, r.final.Events)
	}
	r.fingerprint = fingerprint(r.result)
	return nil
}

// initialTokens is every node's starting balance under spec.
func initialTokens(spec scenario.Spec) float64 {
	if spec.InitialTokens > 0 {
		return spec.InitialTokens
	}
	return core.DefaultConfig().Incentive.InitialTokens
}

// addSpans records the session's steps as spans under one root span.
func (r *serveRun) addSpans(tr *tracer) {
	if r.created.IsZero() {
		return
	}
	root := len(tr.spans) + 1
	steps := []struct {
		name       string
		start, end time.Time
	}{
		{"op", r.created, r.traceDone},
		{"serve.create", r.created, r.createResp},
		{"serve.stream_open", r.createResp, r.startSent},
		{"serve.start", r.startSent, r.startResp},
		{"experiment.queue_wait", r.startResp, r.runStart},
		{"serve.stream", r.runStart, r.end},
		{"serve.status", r.end, r.statusDone},
		{"report.trace_download", r.statusDone, r.traceDone},
	}
	for i, s := range steps {
		// A run that started before its start response arrived waited
		// for no slot and gets no queue span.
		if s.start.IsZero() || s.end.IsZero() || s.end.Before(s.start) {
			continue
		}
		parent := root
		if i == 0 {
			parent = 0
		}
		tr.spans = append(tr.spans, span{
			ID: len(tr.spans) + 1, Parent: parent, Run: r.id, Name: s.name,
			Start: s.start.Sub(tr.t0).Seconds(), End: s.end.Sub(tr.t0).Seconds(),
		})
	}
}

// run measures the workload untraced, or traced when tr is non-nil.
func (w serveWorkload) run(ctx context.Context, tr *tracer) (result, []string, error) {
	var m metrics
	var o outcome
	var err error
	if tr == nil {
		m, o, err = w.measure(ctx)
	} else {
		m, o, err = w.trace(ctx, tr)
	}
	if err != nil {
		return result{}, nil, err
	}
	return toResult(m, o), o.failures, nil
}

// measure runs the workload untraced and returns the end-to-end metrics.
// The specs are timed in blocks of serveBlock runs, every block once per
// pass on a daemon of its own, so the finished runs the daemon retains
// are one block's; wall_s and cpu_s add up each block's best pass (see
// bestOf), and alloc_mb is the heap allocated per pass, daemon start and
// stop included.
func (w serveWorkload) measure(ctx context.Context) (metrics, outcome, error) {
	client := newClient(serveClients)
	defer client.CloseIdleConnections()
	var setups []float64
	start := func() (*daemon, error) {
		d, err := w.startDaemon(ctx, client)
		if err == nil {
			setups = append(setups, d.setup)
		}
		return d, err
	}
	var o outcome
	var daemonErr error
	blocks := (len(w.specs) + serveBlock - 1) / serveBlock
	resetPeakRSS()
	alloc0 := allocatedMB()
	walls, cpus, passes := bestOf(blocks, w.budget, func(b int) (float64, float64) {
		for i := 0; i < serveSetups && daemonErr == nil; i++ {
			d, err := start()
			if err != nil {
				daemonErr = err
			} else if err := d.stop(); err != nil {
				daemonErr = fmt.Errorf("daemon shutdown: %w", err)
			}
		}
		if daemonErr != nil {
			return 0, 0
		}
		d, err := start()
		if err != nil {
			daemonErr = err
			return 0, 0
		}
		lo, hi := b*serveBlock, min((b+1)*serveBlock, len(w.specs))
		var runs []serveRun
		wall, cpu := timed(func() { runs = drive(ctx, d, client, w.specs[lo:hi], lo, nil) })
		if err := d.stop(); err != nil {
			daemonErr = fmt.Errorf("daemon shutdown: %w", err)
		}
		for _, r := range runs {
			o.record(fmt.Sprintf("run %d", r.index), r.err)
		}
		return wall, cpu
	})
	alloc := allocatedMB() - alloc0
	if daemonErr != nil {
		return nil, outcome{}, daemonErr
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, outcome{}, err
	}
	m := metrics{}
	m.set("setup_s", quantile(setups, 0.5), "s")
	m.set("wall_s", sum(walls), "s")
	m.set("cpu_s", sum(cpus), "s")
	m.set("peak_rss_mb", peak, "MB")
	m.set("alloc_mb", alloc/float64(passes), "MB")
	return m, o, nil
}

// trace runs the loop untraced and then traced on fresh daemons, checks
// that every run gives the same result both times, and returns the
// per-layer metrics of the traced loop.
func (w serveWorkload) trace(ctx context.Context, tr *tracer) (metrics, outcome, error) {
	client := newClient(serveClients)
	defer client.CloseIdleConnections()
	loop := func(tr *tracer) ([]serveRun, float64, uint64, error) {
		d, err := w.startDaemon(ctx, client)
		if err != nil {
			return nil, 0, 0, err
		}
		t := time.Now()
		runs := drive(ctx, d, client, w.specs, 0, tr)
		wall := time.Since(t).Seconds()
		var health struct {
			Dropped uint64 `json:"serve_dropped_frames"`
		}
		herr := getJSON(ctx, client, d.base+"/healthz", &health)
		if err := d.stop(); err != nil {
			return nil, 0, 0, fmt.Errorf("daemon shutdown: %w", err)
		}
		return runs, wall, health.Dropped, herr
	}
	plain, plainWall, _, err := loop(nil)
	if err != nil {
		return nil, outcome{}, err
	}
	runs, wall, dropped, err := loop(tr)
	if err != nil {
		return nil, outcome{}, err
	}

	var o outcome
	var l layers
	var creates, starts, waits, downloads, latencies, firstFrames []float64
	var frames, traceLines, traceBytes int
	var engine float64
	for i, r := range runs {
		err := plain[i].err
		if err == nil {
			err = r.err
		}
		if err == nil && r.fingerprint != plain[i].fingerprint {
			err = fmt.Errorf("traced run result differs from the untraced run")
		}
		o.record(fmt.Sprintf("run %d", i), err)
		if r.err != nil {
			continue
		}
		creates = append(creates, r.createResp.Sub(r.created).Seconds())
		starts = append(starts, r.startResp.Sub(r.startSent).Seconds())
		// The run can start before the start response reaches the
		// client; it then waited for no slot.
		waits = append(waits, max(0, r.runStart.Sub(r.startResp).Seconds()))
		downloads = append(downloads, r.traceDone.Sub(r.statusDone).Seconds())
		latencies = append(latencies, r.end.Sub(r.created).Seconds())
		firstFrames = append(firstFrames, r.runStart.Sub(r.startSent).Seconds())
		frames += r.frames
		traceLines += r.traceLines
		traceBytes += r.traceBytes
		sum := phaseSum(r.final)
		engine += sum
		l.runner += r.final.WallSeconds - sum
		l.addSnapshot(r.final)
		l.addResult(r.result, r.end.Sub(r.startSent).Seconds())
		first, last := heartbeatExchange(r.heartbeats, r.final)
		l.addSlices(first, last)
	}
	m := metrics{}
	l.emit(m)
	m.set("serve.create_p50_s", quantile(creates, 0.5), "s")
	m.set("serve.start_p50_s", quantile(starts, 0.5), "s")
	m.set("serve.stream_frames", float64(frames), "count")
	m.set("serve.dropped_frames", float64(dropped), "count")
	m.set("serve.engine_s", engine, "s")
	m.set("experiment.queue_wait_p50_s", quantile(waits, 0.5), "s")
	m.set("report.trace_lines", float64(traceLines), "count")
	m.set("report.trace_bytes", float64(traceBytes), "bytes")
	m.set("report.trace_download_p50_s", quantile(downloads, 0.5), "s")
	m.set("runs_per_s", float64(len(latencies))/plainWall, "1/s")
	m.set("run_latency_p50_s", quantile(latencies, 0.5), "s")
	m.set("run_latency_p90_s", quantile(latencies, 0.9), "s")
	m.set("first_frame_p50_s", quantile(firstFrames, 0.5), "s")
	m.set("first_frame_p90_s", quantile(firstFrames, 0.9), "s")
	m.set("bench.trace_overhead_s", wall-plainWall, "s")
	return m, o, nil
}

// heartbeatExchange returns exchange seconds per simulated second over a
// run's first heartbeat window and its last window (last heartbeat to
// run_end); heartbeats fall on wall-clock ticks, so the windows are
// uneven. Both are zero without a heartbeat.
func heartbeatExchange(hb []obs.Snapshot, final obs.Snapshot) (first, last float64) {
	hb = append(hb[:len(hb):len(hb)], final)
	if len(hb) < 2 || hb[0].SimSeconds <= 0 {
		return 0, 0
	}
	first = hb[0].Phase("exchange") / hb[0].SimSeconds
	a, b := hb[len(hb)-2], hb[len(hb)-1]
	if b.SimSeconds > a.SimSeconds {
		last = (b.Phase("exchange") - a.Phase("exchange")) / (b.SimSeconds - a.SimSeconds)
	}
	return first, last
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * conns,
		DisableCompression:  true,
	}}
}

func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(client, req, http.StatusOK)
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	raw, err := get(ctx, client, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func postJSON(ctx context.Context, client *http.Client, url string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	raw, err := do(client, req, want)
	if err != nil || v == nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func do(client *http.Client, req *http.Request, want int) ([]byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return raw, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}
