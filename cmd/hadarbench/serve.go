package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/web"
)

// serveRates are the open-loop request rates (req/s), run one step
// after another. All three sit below saturation: on a 2-vCPU Xeon no
// request is refused and the generator's median lateness stays under
// a millisecond.
var serveRates = []int{50, 100, 200}

// serveSetups is how many times a run builds the stack; setup_s is the
// median, and the last stack built serves the load.
const serveSetups = 15

// maxConns bounds the client's connections. With group commit a verdict
// waits a few milliseconds, so 200 req/s needs several requests in
// flight; two connections made the client, not the service, the
// bottleneck at 200 req/s.
const maxConns = 16

// spanHeader carries the client's submit span ID to the handler
// middleware, which records its web.handler span as that span's child.
const spanHeader = "X-Hadarbench-Span"

// stack is the hadard serving stack built in-process with hadard's
// defaults: the Hadar scheduler on the 60-GPU simulated cluster behind
// service.New (oracle on, queue depth 64, group-commit journal) and
// web.NewLiveServer on a loopback listener.
type stack struct {
	svc    *service.Service
	ic     invariant.InconsistencyCounter
	srv    *http.Server
	served chan error
	url    string
	dir    string
	simOps sim.Options
	frames atomic.Int64
	bytes  atomic.Int64
}

func startStack(scratch string, rec *recorder) (*stack, error) {
	dir, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, served: make(chan error, 1), simOps: sim.DefaultOptions()}
	st.simOps.Validate = true
	sch, ic := newScheduler(rec)
	st.ic = ic
	svc, err := service.New(experiments.SimCluster(), sch, service.Options{
		Sim:        st.simOps,
		QueueDepth: 64,
		// hadard -clock wall: one boundary per 50 ms tick. The virtual
		// clock steps as fast as the host allows, so how much simulated
		// time passes between two requests, and with it the queue, the
		// history and every latency, depends on host speed.
		Clock:         service.WallClock,
		RoundInterval: 50 * time.Millisecond,
		WAL: &service.WALConfig{
			Dir:    dir,
			Policy: wal.SyncGroup,
			// Counts frames and bytes and always lets the write proceed.
			FailPoint: func(_ int64, frame []byte) int {
				st.frames.Add(1)
				st.bytes.Add(int64(len(frame)))
				return -1
			},
		},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	st.svc = svc
	svc.Start()
	h := web.NewLiveServer(svc).Handler()
	if rec != nil {
		h = traceHandler(h, rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_, _ = svc.Stop() // the listener error is the one to report
		os.RemoveAll(dir)
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

// close shuts the HTTP server down, waits for it, and stops the
// service, returning the service's final error.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := st.srv.Shutdown(ctx)
	if err := <-st.served; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	_, serr := st.svc.Stop()
	return errors.Join(serr, herr)
}

// traceHandler is the benchmark's middleware around the live server:
// it records a web.handler span, tagged with the response status, as
// the child of the client span named in spanHeader.
func traceHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		start := now()
		h.ServeHTTP(sw, r)
		rec.add(0, parent, "web.handler", start, now(), strconv.Itoa(sw.status))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// submission is one generated request: its body and when it is due.
type submission struct {
	body []byte
	due  time.Duration // offset from the start of its rate step
}

// sample is one request's outcome.
type sample struct {
	due, sent, done time.Time
	status          int
	id              int
	err             error
}

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusAccepted }

// demandScale shrinks each job's GPU-hours. The wall clock compresses
// time 7200-fold (a 360 s round per 50 ms tick), so the 60-GPU cluster
// serves 120 GPU-hours per wall second, while the trace's mix averages
// about 29 GPU-hours a job: unscaled, 50 req/s is twelve times the
// cluster's capacity and the backlog, and every latency with it, grows
// for as long as the run lasts. Scaled, 200 req/s offers about half the
// capacity, so each step measures a steady state.
const demandScale = 0.01

// genInputs builds each rate step's requests from the seed: catalog
// models with the Philly gang mix and the trace's GPU-hour range, scaled
// by demandScale (trace.Generate's job mix), at Poisson due times. Every
// step has the same number of requests, so each rate's percentiles rest
// on the same sample count.
func genInputs(seed int64, perStep int) ([][]submission, error) {
	tc := trace.DefaultConfig()
	tc.Seed = seed
	tc.NumJobs = perStep * len(serveRates)
	jobs, err := trace.Generate(tc)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRand(seed)
	steps := make([][]submission, len(serveRates))
	for k, rate := range serveRates {
		at := 0.0
		for i := 0; i < perStep; i++ {
			j := jobs[k*perStep+i]
			_, best, _ := j.BestType()
			body, err := json.Marshal(map[string]any{
				"model":     j.Model,
				"workers":   j.Workers,
				"gpu_hours": demandScale * j.TotalIters() / (3600 * best),
			})
			if err != nil {
				return nil, err
			}
			at += rng.Exponential(float64(rate))
			steps[k] = append(steps[k], submission{body: body, due: time.Duration(at * float64(time.Second))})
		}
	}
	return steps, nil
}

// client sends submissions over at most maxConns connections.
type client struct {
	http *http.Client
	url  string
	rec  *recorder
}

func newClient(url string, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: time.Minute}, url: url, rec: rec}
}

// runStep drives one rate step open loop: each request is handed to a
// sender when it is due, whether or not earlier ones have returned. With
// every connection busy the hand-off waits, and the request is late;
// latency is always counted from the due time. Refused requests are not
// retried.
func (c *client) runStep(subs []submission, tag string) []sample {
	out := make([]sample, len(subs))
	type item struct {
		i   int
		due time.Time
	}
	work := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				out[it.i] = c.send(subs[it.i].body, it.due, tag)
			}
		}()
	}
	start := now()
	for i, s := range subs {
		due := start.Add(s.due)
		time.Sleep(due.Sub(now()))
		work <- item{i, due}
	}
	close(work)
	wg.Wait()
	return out
}

func (c *client) send(body []byte, due time.Time, tag string) sample {
	s := sample{due: due}
	req, err := http.NewRequest(http.MethodPost, c.url+"/api/jobs", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	id := 0
	if c.rec != nil {
		id = c.rec.reserve()
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	s.sent = now()
	resp, err := c.http.Do(req)
	if err != nil {
		s.err = err
		s.done = now()
		return s
	}
	var reply struct {
		ID int `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reply)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	s.done = now()
	s.status, s.id, s.err = resp.StatusCode, reply.ID, err
	if c.rec != nil {
		c.rec.add(id, 0, "submit", s.sent, s.done, tag)
	}
	return s
}

// loadResult is one stack's load phase.
type loadResult struct {
	steps    [][]sample
	duration time.Duration
	heapLive float64
	mem      memUse
}

// latencies returns each step's latencies, timed from the due time.
func (l loadResult) latencies() [][]time.Duration {
	var byStep [][]time.Duration
	for _, step := range l.steps {
		ds := make([]time.Duration, len(step))
		for i, s := range step {
			ds[i] = s.done.Sub(s.due)
		}
		byStep = append(byStep, ds)
	}
	return byStep
}

func drive(st *stack, steps [][]submission, rec *recorder) loadResult {
	c := newClient(st.url, rec)
	defer c.http.CloseIdleConnections()
	var res loadResult
	before := readMem()
	start := now()
	for k, subs := range steps {
		res.steps = append(res.steps, c.runStep(subs, fmt.Sprintf("r%d", serveRates[k])))
	}
	res.duration = now().Sub(start)
	res.mem.add(before, readMem())
	return res
}

// runServe runs the serve-http workload.
func runServe(seed int64, seconds int, traced bool, scratch string, out *report) {
	// Equal request counts per step: n/50 + n/100 + n/200 seconds of
	// load fill --seconds.
	perStep := max(1, int(float64(seconds)/(1/50.0+1/100.0+1/200.0)))
	var (
		st     *stack
		steps  [][]submission
		setups []time.Duration
	)
	for i := 0; i < serveSetups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				out.check(false, "serve-http: stop of a set-up stack: %v", err)
			}
			os.RemoveAll(st.dir)
		}
		start := now()
		var err error
		if steps, err = genInputs(seed, perStep); err == nil {
			st, err = startStack(scratch, nil)
		}
		if err != nil {
			out.check(false, "serve-http: set-up: %v", err)
			return
		}
		setups = append(setups, now().Sub(start))
	}
	defer os.RemoveAll(st.dir)

	load := drive(st, steps, nil)
	stopErr := st.close()
	load.heapLive = liveHeapMB() // with the stopped service's final state still referenced
	byStep := load.latencies()
	out.e2e("setup_s", quantile(setups, 0.5).Seconds())
	out.e2e("op_p50_ms", ms(segmentMedian(byStep, 0.50)))
	out.e2e("heap_live_mb", load.heapLive)
	checkServe(st, load, stopErr, out)

	for k, rate := range serveRates {
		sfx := fmt.Sprintf(".r%d", rate)
		out.layer("submit_p50_ms"+sfx, ms(quantile(byStep[k], 0.50)))
		out.layer("submit_p99_ms"+sfx, ms(quantile(byStep[k], 0.99)))
		var late []time.Duration
		for _, s := range load.steps[k] {
			late = append(late, s.sent.Sub(s.due))
		}
		out.layer("gen.late_p50_ms"+sfx, ms(quantile(late, 0.50)))
		out.layer("gen.late_p99_ms"+sfx, ms(quantile(late, 0.99)))
	}
	ss := st.svc.Stats()
	out.layer("service.accepted", float64(ss.Accepted))
	out.layer("service.rejected_busy", float64(ss.RejectedBusy))
	out.layer("service.rejected_invalid", float64(ss.RejectedInvalid))
	out.layer("service.rounds", float64(ss.Rounds))
	out.layer("service.rounds_per_s", float64(ss.Rounds)/load.duration.Seconds())
	frames, walBytes := float64(st.frames.Load()), float64(st.bytes.Load())
	out.layer("wal.frames", frames)
	out.layer("wal.bytes", walBytes)
	if ss.Accepted > 0 {
		out.layer("wal.frames_per_submit", frames/float64(ss.Accepted))
		out.layer("wal.bytes_per_submit", walBytes/float64(ss.Accepted))
	}
	out.layer("gen.sent", float64(out.attempted))
	load.mem.report(out)

	if !traced {
		return
	}
	rec := newRecorder()
	tst, err := startStack(scratch, rec)
	if err != nil {
		out.check(false, "serve-http: traced set-up: %v", err)
		return
	}
	defer os.RemoveAll(tst.dir)
	tload := drive(tst, steps, rec)
	terr := tst.close()
	out.check(terr == nil, "serve-http: traced service stop: %v", terr)
	out.check(tst.ic.Inconsistencies() == 0, "serve-http: traced scheduler inconsistencies: %d", tst.ic.Inconsistencies())
	traced50 := segmentMedian(tload.latencies(), 0.5)
	out.layer("trace.overhead_pct", 100*(float64(traced50)/float64(segmentMedian(byStep, 0.5))-1))
	coreLayer(rec, out)
	webLayer(rec, out)
	out.spans = rec
}

// checkServe checks the untraced run's outputs: every 202 is one
// accepted job with a unique ID, no request fails at the two lower
// rates, the oracle-on service stops cleanly, and the journal replays
// from a fresh engine with every round digest matching.
func checkServe(st *stack, load loadResult, stopErr error, out *report) {
	out.check(stopErr == nil, "serve-http: service stop: %v", stopErr)
	violations := 0
	if stopErr != nil {
		violations = 1
	}
	out.layer("invariant.violations", float64(violations))
	ids := map[int]bool{}
	accepted, failed := 0, 0
	byStep := load.latencies()
	for k, step := range load.steps {
		stepFailed := 0
		for _, s := range step {
			out.attempted++
			if !s.ok() {
				stepFailed++
				continue
			}
			accepted++
			out.check(!ids[s.id], "serve-http: job ID %d accepted twice", s.id)
			ids[s.id] = true
		}
		failed += stepFailed
		if serveRates[k] <= 100 {
			out.check(stepFailed == 0, "serve-http: %d of %d requests failed at %d req/s",
				stepFailed, len(step), serveRates[k])
		}
		lat := byStep[k]
		out.line("serve-http r%d: %d requests, %d failed, latency p50 %.3f ms, p95 %.3f ms",
			serveRates[k], len(step), stepFailed, ms(quantile(lat, 0.5)), ms(quantile(lat, 0.95)))
	}
	out.failed += failed
	out.layer("submit_fail_ratio", float64(failed)/float64(max(out.attempted, 1)))
	ss := st.svc.Stats()
	out.check(int64(accepted) == ss.Accepted, "serve-http: %d responses were 202, service accepted %d",
		accepted, ss.Accepted)
	n := st.ic.Inconsistencies()
	out.check(n == 0, "serve-http: %d scheduler inconsistencies", n)
	out.layer("core.inconsistencies", float64(n))

	start := now()
	res, err := service.VerifyWAL(experiments.SimCluster(), core.New(core.DefaultOptions()), st.simOps, st.dir)
	out.layer("wal.replay_s", now().Sub(start).Seconds())
	if err != nil {
		out.check(false, "serve-http: journal replay: %v", err)
		return
	}
	final := st.svc.Snapshot().Digest
	out.check(res.Digest == final, "serve-http: journal replays to digest %016x, service ended at %016x",
		res.Digest, final)
	out.check(res.Submitted == accepted, "serve-http: journal holds %d submits, %d were accepted",
		res.Submitted, accepted)
	out.line("serve-http: journal replayed %d records, %d rounds, digest %016x", res.Records, res.Rounds, res.Digest)
}

// webLayer derives the web metrics from the middleware's spans and
// their client parents.
func webLayer(rec *recorder, out *report) {
	handlers := rec.named("web.handler")
	clients := map[int]span{}
	for _, s := range rec.named("submit") {
		clients[s.ID] = s
	}
	var gaps []time.Duration
	status := map[string]int{}
	for _, h := range handlers {
		status[h.Tag]++
		if c, ok := clients[h.Parent]; ok {
			gaps = append(gaps, c.dur()-h.dur())
		}
	}
	ds := durations(handlers)
	out.layer("web.handler.p50_ms", ms(quantile(ds, 0.50)))
	out.layer("web.handler.p99_ms", ms(quantile(ds, 0.99)))
	out.layer("web.handler.busy_s", sum(ds).Seconds())
	out.layer("web.status_429", float64(status["429"]))
	out.layer("web.status_503", float64(status["503"]))
	out.layer("web.status_409", float64(status["409"]))
	out.layer("web.client_gap_p50_ms", ms(quantile(gaps, 0.50)))
}
