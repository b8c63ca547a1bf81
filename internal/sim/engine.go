package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/eventq"
	"repro/internal/gpu"
	"repro/internal/invariant"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// JobPhase is the engine-tracked lifecycle stage of a submitted job.
type JobPhase int

// Lifecycle stages: a job is Pending from submission until its arrival
// event is admitted at a round boundary, Active while the scheduler can
// see it (allocated or queued), and terminally Finished or Cancelled.
const (
	JobPending JobPhase = iota
	JobActive
	JobFinished
	JobCancelled
)

// String names the phase.
func (p JobPhase) String() string {
	switch p {
	case JobPending:
		return "pending"
	case JobActive:
		return "active"
	case JobFinished:
		return "finished"
	case JobCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("JobPhase(%d)", int(p))
}

// arriveEvent admits a submitted job into the active set at the first
// round boundary at or after its time.
type arriveEvent struct{ st *sched.JobState }

// withdrawEvent removes a job (pending or active) from the simulation.
type withdrawEvent struct{ id int }

// Engine is the steppable core of the round-based simulator. It owns
// the virtual clock, the arrival/withdrawal event queue, the scheduler
// under test, per-round validation, and the metrics report, but —
// unlike the batch Run wrapper — it advances only when told to:
//
//	eng, _ := NewEngine(cluster, scheduler, opts)
//	eng.SubmitJob(j)                  // any time, including mid-run
//	for eng.HasPendingEvents() {
//	    eng.ProcessNextEvent()        // one round boundary per call
//	}
//	report, err := eng.Finish()
//
// The step contract (HasPendingEvents / PeekNextEventTime /
// ProcessNextEvent) lets a caller interleave the engine with other
// work: submit jobs between steps, read Snapshot() mid-run, or drive
// several engines under one shared clock by always stepping the engine
// whose PeekNextEventTime is earliest.
//
// An Engine is not safe for concurrent use; a long-lived service wraps
// it in a single goroutine (see internal/service) and publishes
// immutable Snapshots for readers.
type Engine struct {
	c         *cluster.Cluster
	s         sched.Scheduler
	opts      Options
	report    *metrics.Report
	log       *eventLogger
	chk       *invariant.Checker
	rateModel func(j *job.Job, a cluster.Alloc) float64
	freeState *cluster.State
	totalGPUs int
	// totalOfType caches Cluster.TotalOfType per type for SubmitJob's
	// placeability check; capacities never change after construction.
	totalOfType [gpu.NumTypes]int

	queue           eventq.EventQueue
	pendingArrivals int
	cancelRequested map[int]bool
	phase           map[int]JobPhase
	all             []*job.Job
	active          []*sched.JobState
	prevDown        map[int]bool
	now             float64
	round           int
	stalled         int
	cancelled       int
	digest          uint64
	err             error
}

// NewEngine builds an engine over the cluster with the given scheduler
// and options. The engine starts empty at t=0; submit jobs with
// SubmitJob.
func NewEngine(c *cluster.Cluster, s sched.Scheduler, opts Options) (*Engine, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	e := &Engine{
		c:         c,
		s:         s,
		opts:      opts,
		report:    &metrics.Report{Scheduler: s.Name(), TotalGPUs: c.TotalGPUs()},
		log:       newEventLogger(opts.EventLog),
		freeState: cluster.NewState(c),
		totalGPUs: c.TotalGPUs(),

		cancelRequested: make(map[int]bool),
		phase:           make(map[int]JobPhase),
		prevDown:        map[int]bool{},
	}
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		e.totalOfType[t] = c.TotalOfType(t)
	}
	// Correctness oracle, enabled by Options.Validate: observes every
	// round's decisions and progress accounting and fails the run on
	// the first violated invariant. Rates are checked against the same
	// bottleneck model the simulator charges (full cluster, so node
	// straggler factors apply).
	if opts.Validate {
		e.chk = invariant.NewChecker(c)
		e.rateModel = func(j *job.Job, a cluster.Alloc) float64 { return sched.Rate(j, c, a) }
	}
	return e, nil
}

// SubmitJob validates the job and enqueues its arrival event at
// max(j.Arrival, now); the job enters the scheduler's view at the
// first round boundary at or after that time. Jobs may be submitted at
// any point of the engine's lifetime, which is what makes the
// simulator an online system: an idle engine picks the work back up on
// the next ProcessNextEvent.
func (e *Engine) SubmitJob(j *job.Job) error {
	if e.err != nil {
		return e.err
	}
	if err := j.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	usable := 0
	for _, t := range sched.UsableTypes(j) {
		usable += e.totalOfType[t]
	}
	if usable < j.Workers {
		return fmt.Errorf("sim: %v can never be placed (needs %d workers, %d usable devices)",
			j, j.Workers, usable)
	}
	if _, ok := e.phase[j.ID]; ok {
		return fmt.Errorf("sim: duplicate job ID %d", j.ID)
	}
	st := &sched.JobState{
		Job:          j,
		Remaining:    j.TotalIters(),
		RoundsByType: make(map[gpu.Type]float64),
	}
	e.phase[j.ID] = JobPending
	e.all = append(e.all, j)
	arrival := j.Arrival
	if arrival < e.now {
		arrival = e.now
	}
	e.queue.Push(arrival, arriveEvent{st: st})
	e.pendingArrivals++
	return nil
}

// CancelJob enqueues a withdrawal event for the job at the current
// time: at the next processed boundary the job leaves the simulation,
// whether it was still pending or already running (a running job's
// devices free at that boundary, exactly like a completion). Cancelling
// an unknown, finished, or already-cancelled job is an error.
func (e *Engine) CancelJob(id int) error {
	if e.err != nil {
		return e.err
	}
	phase, ok := e.phase[id]
	if !ok {
		return fmt.Errorf("sim: cancel of unknown job %d", id)
	}
	switch {
	case phase == JobFinished:
		return fmt.Errorf("sim: cancel of finished job %d", id)
	case phase == JobCancelled || e.cancelRequested[id]:
		return fmt.Errorf("sim: job %d already cancelled", id)
	}
	e.cancelRequested[id] = true
	e.queue.Push(e.now, withdrawEvent{id: id})
	return nil
}

// HasPendingEvents reports whether the engine still has work: active
// jobs to schedule or queued arrival/withdrawal events. A false result
// is not terminal — SubmitJob re-arms the engine.
func (e *Engine) HasPendingEvents() bool {
	return e.err == nil && (len(e.active) > 0 || e.queue.Len() > 0)
}

// PeekNextEventTime returns the simulated time at which the next
// ProcessNextEvent call will act: the upcoming round boundary while
// jobs are active, or the boundary the engine will fast-forward to for
// the earliest queued event while idle. ok is false when the engine has
// nothing to do. A multi-cluster driver steps whichever engine reports
// the earliest time, giving N engines one shared clock.
func (e *Engine) PeekNextEventTime() (t float64, ok bool) {
	if !e.HasPendingEvents() {
		return 0, false
	}
	if len(e.active) > 0 {
		return e.now, true
	}
	return e.fastForwardTarget(), true
}

// fastForwardTarget is the round boundary at or after the earliest
// queued event (strictly after now).
func (e *Engine) fastForwardTarget() float64 {
	arr := e.queue.Peek().Time
	skip := math.Ceil(arr/e.opts.RoundLength) * e.opts.RoundLength
	if skip <= e.now {
		skip = e.now + e.opts.RoundLength
	}
	return skip
}

// Step processes the next event if there is one, reporting whether it
// did any work. It is the drive-to-completion primitive:
//
//	for {
//	    if ok, err := eng.Step(); err != nil { ... } else if !ok { break }
//	}
func (e *Engine) Step() (bool, error) {
	if !e.HasPendingEvents() {
		return false, e.err
	}
	if err := e.ProcessNextEvent(); err != nil {
		return false, err
	}
	return true, nil
}

// ProcessNextEvent advances the engine by exactly one round boundary:
// admit due arrivals and withdrawals, then either run one scheduling
// round (active jobs exist) or fast-forward the clock to the boundary
// of the earliest queued event (cluster idle). Errors — scheduler
// protocol violations, oracle violations, event-log failures — are
// sticky: the engine refuses further work after the first one.
func (e *Engine) ProcessNextEvent() error {
	if e.err != nil {
		return e.err
	}
	if e.round >= e.opts.MaxRounds {
		return e.fail(fmt.Errorf("sim: exceeded %d rounds with %d jobs unfinished",
			e.opts.MaxRounds, len(e.active)+e.pendingArrivals))
	}
	// Admit arrivals and withdrawals up to now.
	if err := e.admitDue(); err != nil {
		return e.fail(err)
	}
	if len(e.active) == 0 {
		if e.queue.Len() == 0 {
			return nil // idle: nothing to schedule, nothing queued
		}
		// Fast-forward to the round boundary at or after the next
		// arrival.
		e.now = e.fastForwardTarget()
		e.round++
		return nil
	}
	if err := e.runRound(); err != nil {
		return e.fail(err)
	}
	e.now += e.opts.RoundLength
	e.round++
	return nil
}

// fail records the first error and poisons the engine.
func (e *Engine) fail(err error) error {
	if e.err == nil {
		e.err = err
	}
	return e.err
}

// admitDue pops every event due at or before now. Arrivals append to
// the active set in (time, submission-order) order — identical to the
// batch simulator's sorted-trace admission; withdrawals remove the job
// from wherever it is.
func (e *Engine) admitDue() error {
	for e.queue.Len() > 0 && e.queue.Peek().Time <= e.now {
		ev := e.queue.Pop()
		switch p := ev.Payload.(type) {
		case arriveEvent:
			e.pendingArrivals--
			id := p.st.Job.ID
			if e.phase[id] == JobCancelled {
				continue // withdrawn before arrival
			}
			e.phase[id] = JobActive
			e.active = append(e.active, p.st)
			if err := e.log.emit(Event{Time: ev.Time, Round: e.round,
				Type: EventArrive, Job: id, Node: -1}); err != nil {
				return err
			}
		case withdrawEvent:
			delete(e.cancelRequested, p.id)
			if e.phase[p.id] == JobFinished {
				continue // finished before the withdrawal took effect
			}
			if e.phase[p.id] == JobActive {
				for i, st := range e.active {
					if st.Job.ID == p.id {
						e.active = append(e.active[:i], e.active[i+1:]...)
						break
					}
				}
			}
			e.phase[p.id] = JobCancelled
			e.cancelled++
			if err := e.log.emit(Event{Time: ev.Time, Round: e.round,
				Type: EventCancel, Job: p.id, Node: -1}); err != nil {
				return err
			}
		}
	}
	return nil
}

// runRound executes one full scheduling round at the current boundary:
// failure bookkeeping, the scheduler call, joint-decision validation
// against the persistent free state, and per-job progress accounting.
// This is the former body of the batch Run loop, unchanged.
func (e *Engine) runRound() error {
	// Failure handling: schedulers see nodes that are down *now*
	// (they cannot foresee an outage beginning mid-round), while
	// progress accounting uses any outage overlapping the round.
	viewDown := downNodes(e.opts.Failures, e.now, 1e-9)
	surpriseDown := downNodes(e.opts.Failures, e.now, e.opts.RoundLength)
	viewCluster := e.c
	if len(viewDown) > 0 {
		viewCluster = e.c.Without(viewDown)
	}
	for _, n := range sortedNodeIDs(viewDown) {
		if !e.prevDown[n] {
			e.report.Faults.NodeDown++
			if err := e.log.emit(Event{Time: e.now, Round: e.round, Type: EventNodeDown, Job: -1, Node: n}); err != nil {
				return err
			}
		}
	}
	for _, n := range sortedNodeIDs(e.prevDown) {
		if !viewDown[n] {
			e.report.Faults.NodeUp++
			if err := e.log.emit(Event{Time: e.now, Round: e.round, Type: EventNodeUp, Job: -1, Node: n}); err != nil {
				return err
			}
		}
	}
	e.prevDown = viewDown
	if e.prevDown == nil {
		e.prevDown = map[int]bool{}
	}

	ctx := &sched.Context{
		Now:         e.now,
		Round:       e.round,
		RoundLength: e.opts.RoundLength,
		Horizon:     horizon(e.now, e.active, e.opts.RoundLength),
		Cluster:     viewCluster,
		Jobs:        append([]*sched.JobState(nil), e.active...),
	}
	//lint:ignore wallclock DecisionTime reports the scheduler's real compute latency; it never feeds back into simulated time
	start := time.Now()
	decisions := e.s.Schedule(ctx)
	//lint:ignore wallclock real solver latency for the report, not simulated time
	e.report.DecisionTime += time.Since(start)
	e.report.Decisions++
	e.report.Rounds++
	e.foldDigest(ctx.Round, decisions)

	// Validate the joint decision.
	activeByID := make(map[int]*sched.JobState, len(e.active))
	for _, st := range e.active {
		activeByID[st.Job.ID] = st
	}
	// Validate against the persistent state: down nodes keep their
	// capacity there (the schedulers saw them with zero capacity via
	// viewCluster), so placements on them are rejected explicitly.
	sp := e.freeState.Savepoint()
	decisionIDs := make([]int, 0, len(decisions))
	for id := range decisions {
		decisionIDs = append(decisionIDs, id)
	}
	sort.Ints(decisionIDs)
	for _, id := range decisionIDs {
		alloc := decisions[id]
		st, ok := activeByID[id]
		if !ok {
			if alloc.Workers() > 0 {
				return fmt.Errorf("sim: %s allocated to unknown or inactive job %d", e.s.Name(), id)
			}
			continue
		}
		if err := sched.Validate(st.Job, alloc); err != nil {
			return fmt.Errorf("sim: %s: %w", e.s.Name(), err)
		}
		if alloc.Workers() > 0 {
			for _, p := range alloc {
				if p.Count > 0 && e.prevDown[p.Node] {
					return fmt.Errorf("sim: %s over-allocated: node %d is down, has 0 free %s, need %d",
						e.s.Name(), p.Node, p.Type, p.Count)
				}
			}
			if err := e.freeState.Allocate(alloc); err != nil {
				return fmt.Errorf("sim: %s over-allocated: %w", e.s.Name(), err)
			}
		}
	}
	e.freeState.Rollback(sp)

	// Apply decisions. First pass: detect reallocations and, when
	// contention modeling is on, count how many reallocated jobs
	// checkpoint through each node this round.
	type appliedJob struct {
		st      *sched.JobState
		alloc   cluster.Alloc
		prev    cluster.Alloc
		changed bool
	}
	applied := make([]appliedJob, 0, len(e.active))
	var nodeCheckpoints map[int]int
	if e.opts.CheckpointContention {
		// Only allocated when contention modeling is on: the common
		// no-contention round never touches the map.
		nodeCheckpoints = map[int]int{}
	}
	for _, st := range e.active {
		newAlloc := decisions[st.Job.ID].Canonical()
		prev := st.Alloc
		changed := !newAlloc.Equal(prev)
		st.Alloc = newAlloc
		applied = append(applied, appliedJob{st: st, alloc: newAlloc, prev: prev, changed: changed})
		if e.opts.CheckpointContention && changed {
			for _, p := range prev.Canonical() {
				nodeCheckpoints[p.Node]++
			}
			for _, p := range newAlloc {
				nodeCheckpoints[p.Node]++
			}
		}
	}

	// Second pass: advance each allocated job.
	anyAllocated := false
	heldThisRound := 0
	var stillActive []*sched.JobState
	var obs []invariant.JobRound
	observe := func(st *sched.JobState, alloc cluster.Alloc, before, window float64, killed bool) {
		obs = append(obs, invariant.JobRound{
			Job: st.Job, Alloc: alloc,
			RemainingBefore: before, RemainingAfter: st.Remaining,
			Window: window, Killed: killed,
		})
	}
	for _, aj := range applied {
		st, newAlloc, prev, changed := aj.st, aj.alloc, aj.prev, aj.changed
		remBefore := st.Remaining
		w := newAlloc.Workers()
		if w == 0 {
			if prev.Workers() > 0 {
				if err := e.log.emit(Event{Time: e.now, Round: e.round, Type: EventPause,
					Job: st.Job.ID, Node: -1}); err != nil {
					return err
				}
			}
			if e.chk != nil {
				observe(st, nil, remBefore, 0, false)
			}
			stillActive = append(stillActive, st)
			continue
		}
		anyAllocated = true
		if !st.Started {
			st.Started = true
			st.StartTime = e.now
			if err := e.log.emit(Event{Time: e.now, Round: e.round, Type: EventStart,
				Job: st.Job.ID, Node: -1, Alloc: newAlloc.String()}); err != nil {
				return err
			}
		}
		e.report.JobRoundAllocs++
		// Accumulates within the conservation oracle's tolerance
		// (invariant.Tol); checked against busy time per round.
		e.report.HeldGPUSeconds += float64(w) * e.opts.RoundLength
		heldThisRound += w
		realloc := changed && prev.Workers() > 0
		if realloc {
			e.report.JobRoundReallocs++
			st.Reallocations++
			if err := e.log.emit(Event{Time: e.now, Round: e.round, Type: EventRealloc,
				Job: st.Job.ID, Node: -1, Alloc: newAlloc.String()}); err != nil {
				return err
			}
		}

		delay := stallFor(st.Job.Model, changed, e.opts)
		if e.opts.CheckpointContention && changed {
			factor := 1
			for _, p := range append(newAlloc.Canonical(), prev.Canonical()...) {
				if n := nodeCheckpoints[p.Node]; n > factor {
					factor = n
				}
			}
			delay *= float64(factor)
		}
		if delay >= e.opts.RoundLength {
			delay = e.opts.RoundLength
		}
		window := e.opts.RoundLength - delay
		rate := sched.Rate(st.Job, e.c, newAlloc)
		// A node failing during the round kills the gang's progress
		// for the whole round: the work since the last checkpoint is
		// lost and the job re-places at the next boundary.
		if len(surpriseDown) > 0 {
			killed := false
			for _, p := range newAlloc {
				if surpriseDown[p.Node] {
					killed = true
					break
				}
			}
			if killed {
				lost := rate * window
				if lost > st.Remaining {
					lost = st.Remaining
				}
				// Accumulates within the oracle's tolerance (invariant.Tol).
				e.report.Faults.LostIterations += lost
				e.report.Faults.Recoveries++
				if e.chk != nil {
					observe(st, newAlloc, remBefore, window, true)
				}
				stillActive = append(stillActive, st)
				continue
			}
		}
		st.Rounds++
		for _, t := range newAlloc.Types() {
			st.RoundsByType[t]++
		}

		if rate <= 0 {
			// Allocated but cannot progress (validated types make
			// this unreachable, but stay safe).
			if e.chk != nil {
				observe(st, newAlloc, remBefore, window, false)
			}
			stillActive = append(stillActive, st)
			continue
		}
		if st.Remaining <= rate*window {
			// Finishes within this round.
			tau := st.Remaining / rate
			st.Remaining = 0
			// Both accumulate within invariant.Tol tolerance; the
			// invariant oracle re-derives them each round.
			st.Attained += float64(w) * tau
			e.report.BusyGPUSeconds += float64(w) * tau
			finish := e.now + delay + tau
			if e.opts.QuantizeCompletions {
				finish = e.now + e.opts.RoundLength
			}
			e.report.Jobs = append(e.report.Jobs, jobResult(st, finish, len(e.all), e.totalGPUs))
			e.phase[st.Job.ID] = JobFinished
			if err := e.log.emit(Event{Time: finish, Round: e.round, Type: EventFinish,
				Job: st.Job.ID, Node: -1}); err != nil {
				return err
			}
			if finish > e.report.Makespan {
				e.report.Makespan = finish
			}
			if e.chk != nil {
				observe(st, newAlloc, remBefore, window, false)
			}
			// Job leaves the active set; its GPUs are free from the
			// next boundary on (the simulator rebuilds allocations
			// each round).
			continue
		}
		// All three accumulate within invariant.Tol tolerance; the
		// oracle checks conservation of work to that tolerance each round.
		st.Remaining -= rate * window
		st.Attained += float64(w) * window
		e.report.BusyGPUSeconds += float64(w) * window
		if e.chk != nil {
			observe(st, newAlloc, remBefore, window, false)
		}
		stillActive = append(stillActive, st)
	}
	e.active = stillActive
	if e.chk != nil {
		e.chk.CheckRound(invariant.Round{
			Index: e.round, Now: e.now, Length: e.opts.RoundLength,
			Down: e.prevDown, Jobs: obs, Scheduler: e.s, Rate: e.rateModel,
		})
		// Fail fast so the offending round is the one in the error.
		if err := e.chk.Err(); err != nil {
			return fmt.Errorf("sim: %s: %w", e.s.Name(), err)
		}
	}
	e.report.RoundHeld = append(e.report.RoundHeld, heldThisRound)
	e.report.RoundStarts = append(e.report.RoundStarts, e.now)

	if !anyAllocated && len(e.active) > 0 {
		e.stalled++
		if e.stalled >= e.opts.StallLimit {
			return fmt.Errorf("sim: %s stalled for %d rounds with %d active jobs at t=%.0fs",
				e.s.Name(), e.stalled, len(e.active), e.now)
		}
	} else {
		e.stalled = 0
	}
	return nil
}

// foldDigest chains this round's canonical decisions into the engine's
// running schedule digest: an FNV-64a hash of the round index and each
// allocated job's ID and sorted (node, type, count) placements, chained
// across rounds so reordering cannot cancel out. The scheme is
// identical to the golden-digest recorder in determinism_test.go; only
// integer decision data enters the hash, so the digest is stable across
// platforms and Go versions as long as the schedule itself is. Recovery
// uses it as its oracle: a journal replay must reproduce the digest
// recorded after every round, byte for byte.
func (e *Engine) foldDigest(round int, decisions map[int]cluster.Alloc) {
	h := fnv.New64a()
	write := func(v int) {
		var b [8]byte
		u := uint64(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	write(round)
	ids := make([]int, 0, len(decisions))
	for id := range decisions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if decisions[id].Workers() == 0 {
			continue
		}
		write(id)
		for _, p := range decisions[id].Canonical() {
			write(p.Node)
			write(int(p.Type))
			write(p.Count)
		}
	}
	e.digest = e.digest*1099511628211 + h.Sum64()
}

// Digest returns the chained per-round schedule digest over every
// scheduling round executed so far (idle fast-forward rounds do not
// contribute). Two engines that processed identical operation sequences
// have identical digests.
func (e *Engine) Digest() uint64 { return e.digest }

// Finish sorts the report and, when the oracle is enabled, validates
// it against every submitted job. Finish does not stop the engine: more
// jobs may be submitted and processed afterwards, and Finish called
// again.
func (e *Engine) Finish() (*metrics.Report, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.report.SortJobsByID()
	if e.chk != nil {
		e.chk.CheckReport(e.report, e.all)
		if err := e.chk.Err(); err != nil {
			return nil, e.fail(fmt.Errorf("sim: %s: %w", e.s.Name(), err))
		}
	}
	return e.report, nil
}

// Now returns the engine's current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// ActiveJobs returns the number of admitted, unfinished jobs the
// scheduler currently sees. Together with PendingJobs it is the
// engine's queue depth, which inter-cluster routers read on every
// submission — hence an O(1) accessor instead of a full Snapshot.
func (e *Engine) ActiveJobs() int { return len(e.active) }

// PendingJobs returns submitted jobs whose arrival event has not yet
// been admitted at a round boundary.
func (e *Engine) PendingJobs() int { return e.pendingArrivals }

// HeldGPUs returns the number of devices held in the most recently
// executed scheduling round (0 before the first round).
func (e *Engine) HeldGPUs() int {
	if n := len(e.report.RoundHeld); n > 0 {
		return e.report.RoundHeld[n-1]
	}
	return 0
}

// Round returns the next round index (rounds consumed so far,
// including idle fast-forwards).
func (e *Engine) Round() int { return e.round }

// Err returns the sticky error that poisoned the engine, if any.
func (e *Engine) Err() error { return e.err }

// Phase reports the lifecycle stage of a submitted job.
func (e *Engine) Phase(id int) (JobPhase, bool) {
	p, ok := e.phase[id]
	return p, ok
}
