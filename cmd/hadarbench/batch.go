package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// batchConfig describes a batch workload: a trace submitted up front to
// a sim.Engine that is then stepped boundary by boundary.
type batchConfig struct {
	name    string
	cluster func() *cluster.Cluster
	numJobs int
	// traces is how many independent traces one run simulates. Trace i
	// uses seed + i*traceStride, so trace 0 is the paper run for the
	// seed itself.
	traces int
	// rounds bounds each pass; 0 steps until the engine drains.
	rounds int
	// replays is how many times a timed pass steps its window of
	// rounds: first on the engine the set-up built, then on engines
	// restored from a checkpoint taken right after admission, so every
	// replay repeats the same work and host noise during one replay
	// moves one sample of the median.
	replays int
}

// traceStride separates the seeds of the traces one run simulates from
// those of runs with nearby seeds.
const traceStride = 1_000_003

// paperStatic is `hadarsim -jobs 480`: the paper's 480-job static trace
// on the 60-GPU simulated cluster, run to completion. One trace takes
// about two seconds on a 2-vCPU Xeon, so a run simulates one trace per
// four seconds of --seconds (timed plus validated pass).
func paperStatic(seconds int) batchConfig {
	return batchConfig{
		name:    "paper-static",
		cluster: experiments.SimCluster,
		numJobs: trace.DefaultConfig().NumJobs,
		traces:  max(1, seconds/4),
		replays: 1,
	}
}

// warehouse5k is a 5,000-node (20k-GPU) cluster with a 10k-job backlog,
// two jobs per node as in ScaleRound/prop. Boundary cost falls as the
// backlog drains (about 60 ms on a 2-vCPU Xeon at first, 15 ms 400
// boundaries later), so the median over a long pass would sit on that
// slope and move with the seed's drain rate. A run instead replays the
// first 25 boundaries after admission once per two seconds of
// --seconds, each replay taking about 1.5 s.
func warehouse5k(seconds int) batchConfig {
	const nodes = 5000
	return batchConfig{
		name:    "warehouse-5k",
		cluster: func() *cluster.Cluster { return experiments.ScaleCluster(nodes) },
		numJobs: 2 * nodes,
		traces:  1,
		rounds:  25,
		replays: max(1, seconds/2),
	}
}

// pass is one engine built and loaded, then stepped once per replay.
type pass struct {
	setup time.Duration
	// replays holds each replay's boundary times; rounds is all of
	// them. wall is the median replay's host time from first to last
	// boundary.
	replays [][]time.Duration
	rounds  []time.Duration
	wall    time.Duration
	digest  uint64
	// report is the finished report of a drained pass, nil otherwise.
	report          *metrics.Report
	decisionTime    time.Duration
	heapLive        float64
	inconsistencies int
	err             error
}

// runPass generates the trace, builds the engine and submits every job
// (the set-up), then processes boundaries until the engine drains or
// the round budget is spent, replays times. Replays after the first
// run on engines restored from a checkpoint of the admitted engine and
// must end on the first one's digest. rec non-nil wraps the scheduler
// and every engine call in spans and publishes a Snapshot after each
// boundary, as the service does; rec nil runs the bare hot path.
func runPass(cfg batchConfig, seed int64, validate bool, rec *recorder, rounds, replays int) pass {
	var p pass
	start := now()
	tc := trace.DefaultConfig()
	tc.Seed = seed
	tc.NumJobs = cfg.numJobs
	jobs, err := trace.Generate(tc)
	if err != nil {
		p.err = err
		return p
	}
	opts := sim.DefaultOptions()
	if validate {
		opts = sim.ValidatedOptions()
	}
	s, ic := newScheduler(rec)
	eng, err := sim.NewEngine(cfg.cluster(), s, opts)
	if err != nil {
		p.err = err
		return p
	}
	for _, j := range jobs {
		t0 := now()
		if err := eng.SubmitJob(j); err != nil {
			p.err = err
			return p
		}
		if rec != nil {
			rec.add(0, 0, "sim.submit", t0, now(), "")
		}
	}
	p.setup = now().Sub(start)

	var state []byte
	if replays > 1 {
		if state, p.err = eng.MarshalState(); p.err != nil {
			return p
		}
	}
	var walls []time.Duration
	for r := 0; r < replays; r++ {
		if r > 0 {
			s, ic = newScheduler(rec)
			if eng, p.err = sim.RestoreEngine(cfg.cluster(), s, opts, state); p.err != nil {
				return p
			}
		}
		timed, _ := s.(*timedScheduler)
		var times []time.Duration
		first := now()
		for eng.HasPendingEvents() && (rounds == 0 || len(times) < rounds) {
			id := 0
			if rec != nil {
				id = rec.reserve()
				timed.parent = id
			}
			t0 := now()
			err := eng.ProcessNextEvent()
			t1 := now()
			if err != nil {
				p.err = err
				return p
			}
			times = append(times, t1.Sub(t0))
			if rec != nil {
				rec.add(id, 0, "round", t0, t1, "")
				eng.Snapshot()
				rec.add(0, 0, "sim.snapshot", t1, now(), "")
			}
		}
		walls = append(walls, now().Sub(first))
		p.replays = append(p.replays, times)
		p.rounds = append(p.rounds, times...)
		p.inconsistencies += ic.Inconsistencies()
		p.decisionTime += eng.Snapshot().Report.DecisionTime
		if r == 0 {
			p.digest = eng.Digest()
		} else if d := eng.Digest(); d != p.digest || len(times) != len(p.replays[0]) {
			p.err = fmt.Errorf("replay %d: digest %016x after %d boundaries, first run %016x after %d",
				r, d, len(times), p.digest, len(p.replays[0]))
			return p
		}
	}
	p.wall = quantile(walls, 0.5)
	if !eng.HasPendingEvents() {
		if p.report, p.err = eng.Finish(); p.err != nil {
			return p
		}
	}
	p.heapLive = liveHeapMB()
	runtime.KeepAlive(eng)
	return p
}

// liveHeapMB collects garbage and returns the live heap in MB. The
// second collection frees what the first only moved to sync.Pool victim
// caches (encoding/json keeps its buffers there).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// runBatch runs a batch workload. For every trace it makes a timed pass
// with the bare scheduler and no oracle, then a validated pass over the
// same seed and round count whose digest must match; a traced run then
// repeats each timed pass with every layer wrapped.
func runBatch(cfg batchConfig, seed int64, traced bool, out *report) {
	var (
		setups, rounds []time.Duration
		walls          []time.Duration
		segments       [][]time.Duration
		heaps          []float64
		validatedExtra time.Duration
		violations     int
		inconsistent   int
		firstReport    *metrics.Report
		digests        []uint64
	)
	var mem memUse
	for i := 0; i < cfg.traces; i++ {
		s := seed + int64(i)*traceStride
		before := readMem()
		timed := runPass(cfg, s, false, nil, cfg.rounds, cfg.replays)
		mem.add(before, readMem())
		out.attempted += len(timed.rounds)
		if timed.err != nil {
			out.failed++
			out.check(false, "%s seed %d: timed pass: %v", cfg.name, s, timed.err)
			return
		}
		val := runPass(cfg, s, true, nil, len(timed.replays[0]), 1)
		out.attempted += len(val.rounds)
		if val.err != nil {
			out.failed++
			violations++
		}
		out.check(val.err == nil, "%s seed %d: validated pass: %v", cfg.name, s, val.err)
		out.check(val.digest == timed.digest, "%s seed %d: digest %016x, validated pass %016x",
			cfg.name, s, timed.digest, val.digest)
		inconsistent += timed.inconsistencies + val.inconsistencies
		if cfg.rounds == 0 {
			done := timed.report != nil && len(timed.report.Jobs) == cfg.numJobs
			out.check(done, "%s seed %d: not every job finished", cfg.name, s)
		}
		if i == 0 {
			firstReport = timed.report
		}
		out.line("%s seed %d: digest %016x after %d boundaries x %d replays; set-up %.4f s, wall %.3f s, round p50 %.4f ms, p95 %.4f ms",
			cfg.name, s, timed.digest, len(timed.replays[0]), len(timed.replays), timed.setup.Seconds(),
			timed.wall.Seconds(), ms(quantile(timed.rounds, 0.5)), ms(quantile(timed.rounds, 0.95)))
		digests = append(digests, timed.digest)
		setups = append(setups, timed.setup, val.setup)
		rounds = append(rounds, timed.rounds...)
		segments = append(segments, timed.replays...)
		walls = append(walls, timed.wall)
		heaps = append(heaps, timed.heapLive)
		validatedExtra += val.wall - timed.wall
	}
	out.check(inconsistent == 0, "%s: %d scheduler inconsistencies", cfg.name, inconsistent)

	out.e2e("setup_s", quantile(setups, 0.5).Seconds())
	out.e2e("op_p50_ms", ms(segmentMedian(segments, 0.50)))
	out.e2e("heap_live_mb", quantile(heaps, 0.5))

	out.layer("sim_wall_s", quantile(walls, 0.5).Seconds())
	out.layer("round_p50_ms", ms(quantile(rounds, 0.50)))
	out.layer("round_p99_ms", ms(quantile(rounds, 0.99)))
	if firstReport != nil {
		out.layer("avg_jct_h", firstReport.AvgJCT()/3600)
		out.layer("makespan_h", firstReport.Makespan/3600)
	}
	out.layer("invariant.overhead_s", validatedExtra.Seconds())
	out.layer("invariant.violations", float64(violations))
	out.layer("core.inconsistencies", float64(inconsistent))
	mem.report(out)

	if !traced {
		return
	}
	rec := newRecorder()
	var decision time.Duration
	for i := 0; i < cfg.traces; i++ {
		s := seed + int64(i)*traceStride
		p := runPass(cfg, s, false, rec, cfg.rounds, cfg.replays)
		if p.err != nil {
			out.check(false, "%s seed %d: traced pass: %v", cfg.name, s, p.err)
			return
		}
		decision += p.decisionTime
		out.check(p.digest == digests[i], "%s seed %d: traced digest %016x, bare %016x", cfg.name, s, p.digest, digests[i])
		out.check(p.inconsistencies == 0, "%s seed %d: traced pass: %d inconsistencies", cfg.name, s, p.inconsistencies)
	}
	coreLayer(rec, out)
	steps := durations(rec.named("round"))
	out.layer("sim.step.calls", float64(len(steps)))
	out.layer("sim.step.busy_s", sum(steps).Seconds())
	out.layer("sim.step.self_s", rec.selfTime("round").Seconds())
	submits := durations(rec.named("sim.submit"))
	out.layer("sim.submit.busy_s", sum(submits).Seconds())
	out.layer("sim.submit.p50_us", us(quantile(submits, 0.50)))
	snaps := durations(rec.named("sim.snapshot"))
	out.layer("sim.snapshot.calls", float64(len(snaps)))
	out.layer("sim.snapshot.p50_us", us(quantile(snaps, 0.50)))
	out.layer("sim.snapshot.p99_us", us(quantile(snaps, 0.99)))
	out.layer("sim.decision_time_s", decision.Seconds())
	out.layer("trace.overhead_pct", 100*(float64(sum(steps))/float64(sum(rounds))-1))
	out.spans = rec
}

// coreLayer derives the core.schedule metrics from the wrapper's spans.
func coreLayer(rec *recorder, out *report) {
	calls := rec.named("core.schedule")
	var dp, greedy []time.Duration
	for _, s := range calls {
		if s.Tag == "dp" {
			dp = append(dp, s.dur())
		} else {
			greedy = append(greedy, s.dur())
		}
	}
	all := durations(calls)
	out.layer("core.schedule.calls", float64(len(all)))
	out.layer("core.schedule.busy_s", sum(all).Seconds())
	out.layer("core.schedule.p50_us", us(quantile(all, 0.50)))
	out.layer("core.schedule.p99_us", us(quantile(all, 0.99)))
	out.layer("core.schedule.dp_calls", float64(len(dp)))
	out.layer("core.schedule.dp_busy_s", sum(dp).Seconds())
	out.layer("core.schedule.greedy_busy_s", sum(greedy).Seconds())
}

// memUse is allocation and GC counts: a reading of runtime.MemStats,
// or a sum of differences between readings.
type memUse struct {
	alloc uint64
	gcs   uint32
}

func readMem() memUse {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memUse{alloc: m.TotalAlloc, gcs: m.NumGC}
}

// add accumulates what happened between two readings.
func (d *memUse) add(before, after memUse) {
	d.alloc += after.alloc - before.alloc
	d.gcs += after.gcs - before.gcs
}

// report records the runtime layer.
func (d memUse) report(out *report) {
	out.layer("runtime.alloc_mb", float64(d.alloc)/1e6)
	out.layer("runtime.gc_cycles", float64(d.gcs))
	out.layer("runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
}
