package main

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/invariant"
	"repro/internal/sched"
)

// timedScheduler wraps core.Scheduler for the traced run. It records a
// core.schedule span around every Schedule call and forwards every
// interface the engine, the invariant oracle and the WAL fingerprint
// look for (Name, invariant.PriceReporter, invariant.InconsistencyCounter),
// so wrapping changes timing and nothing else: the validated pass still
// audits the dual prices and a journal written through the wrapper
// replays against a bare scheduler.
type timedScheduler struct {
	inner   *core.Scheduler
	rec     *recorder
	dpLimit int
	// parent is the span ID of the enclosing round; the batch loop
	// sets it before each ProcessNextEvent. Inside the service the
	// round is not visible from outside and parent stays 0.
	parent int
}

var (
	_ sched.Scheduler                = (*timedScheduler)(nil)
	_ invariant.PriceReporter        = (*timedScheduler)(nil)
	_ invariant.InconsistencyCounter = (*timedScheduler)(nil)
)

func newTimedScheduler(rec *recorder) *timedScheduler {
	opts := core.DefaultOptions()
	return &timedScheduler{inner: core.New(opts), rec: rec, dpLimit: opts.DPJobLimit}
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

// Schedule times the inner call. A call whose context holds at most
// DPJobLimit jobs takes core's exact DP path; larger ones take greedy.
func (t *timedScheduler) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	path := "greedy"
	if len(ctx.Jobs) <= t.dpLimit {
		path = "dp"
	}
	start := now()
	out := t.inner.Schedule(ctx)
	t.rec.add(0, t.parent, "core.schedule", start, now(), path)
	return out
}

func (t *timedScheduler) PriceBounds() (umin, umax []float64) { return t.inner.PriceBounds() }

func (t *timedScheduler) PriceAt(ty gpu.Type, utilization float64) float64 {
	return t.inner.PriceAt(ty, utilization)
}

func (t *timedScheduler) Inconsistencies() int { return t.inner.Inconsistencies() }

// newScheduler returns the bare Hadar scheduler for an untraced run and
// the timing wrapper for a traced one, plus the inconsistency counter
// both expose.
func newScheduler(rec *recorder) (sched.Scheduler, invariant.InconsistencyCounter) {
	if rec == nil {
		s := core.New(core.DefaultOptions())
		return s, s
	}
	s := newTimedScheduler(rec)
	return s, s
}
