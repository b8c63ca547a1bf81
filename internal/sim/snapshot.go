package sim

import (
	"repro/internal/metrics"
)

// JobSnapshot is the frozen state of one unfinished job at snapshot
// time. Every field is a value or a deep copy: holding a JobSnapshot
// never aliases engine-owned memory.
type JobSnapshot struct {
	ID      int     `json:"id"`
	Model   string  `json:"model"`
	Workers int     `json:"workers"`
	Arrival float64 `json:"arrival_s"`
	// Remaining and TotalIters track training progress.
	Remaining  float64 `json:"remaining_iters"`
	TotalIters float64 `json:"total_iters"`
	// Running reports whether the job held an allocation in the last
	// round; Alloc is that allocation (nil when paused or pending).
	Running bool   `json:"running"`
	Alloc   string `json:"alloc,omitempty"`
	// Started and StartTime record the first allocation.
	Started       bool    `json:"started"`
	StartTime     float64 `json:"start_s"`
	Reallocations int     `json:"reallocations"`
	// Phase is the lifecycle stage ("pending" or "active" — terminal
	// jobs appear in the report, not the snapshot).
	Phase string `json:"phase"`
}

// Snapshot is an immutable point-in-time view of an Engine, built by
// copy-on-publish: Engine.Snapshot deep-copies everything a reader
// could see, so a published *Snapshot can be read from any goroutine
// without synchronization while the engine keeps stepping. A long-lived
// service publishes one per round through an atomic pointer; dashboard
// and API readers therefore never contend with the scheduler.
type Snapshot struct {
	// Now is the simulated time (seconds); Round the next round index.
	Now   float64 `json:"now_s"`
	Round int     `json:"round"`
	// Scheduler is the policy name.
	Scheduler string `json:"scheduler"`
	// TotalGPUs is the cluster size; HeldGPUs the devices held in the
	// most recent executed round (0 before the first round).
	TotalGPUs int `json:"total_gpus"`
	HeldGPUs  int `json:"held_gpus"`
	// Pending counts submitted jobs not yet admitted at a boundary;
	// Active lists every admitted, unfinished job; Completed and
	// Cancelled count terminal jobs.
	Pending   int           `json:"pending"`
	Active    []JobSnapshot `json:"active"`
	Completed int           `json:"completed"`
	Cancelled int           `json:"cancelled"`
	// Digest is the engine's chained per-round schedule digest (see
	// Engine.Digest); the crash-recovery chaos harness compares it
	// against an uninterrupted replay of the journal.
	Digest uint64 `json:"digest"`
	// Phases maps every submitted job ID to its lifecycle stage
	// ("pending", "active", "finished", "cancelled"), so status queries
	// resolve against the snapshot instead of the engine.
	Phases map[int]string `json:"phases,omitempty"`
	// Report is a deep copy of the metrics accumulated so far
	// (completed jobs, utilization series, fault counters).
	Report *metrics.Report `json:"-"`
}

// FreeGPUs is the devices not held in the most recent round.
func (s *Snapshot) FreeGPUs() int { return s.TotalGPUs - s.HeldGPUs }

// FindJob resolves a job ID against the snapshot: the job's lifecycle
// phase, its live detail when active, and its final result when
// finished. ok is false for IDs the engine never accepted.
func (s *Snapshot) FindJob(id int) (phase string, js *JobSnapshot, res *metrics.JobResult, ok bool) {
	phase, ok = s.Phases[id]
	if !ok {
		return "", nil, nil, false
	}
	for i := range s.Active {
		if s.Active[i].ID == id {
			js = &s.Active[i]
			break
		}
	}
	for i := range s.Report.Jobs {
		if s.Report.Jobs[i].ID == id {
			res = &s.Report.Jobs[i]
			break
		}
	}
	return phase, js, res, true
}

// Snapshot publishes an immutable view of the engine's current state.
// It must be called from the goroutine driving the engine (between
// steps); the returned value may then be shared freely.
func (e *Engine) Snapshot() *Snapshot {
	snap := &Snapshot{
		Now:       e.now,
		Round:     e.round,
		Scheduler: e.s.Name(),
		TotalGPUs: e.totalGPUs,
		Pending:   e.pendingArrivals,
		Completed: len(e.report.Jobs),
		Cancelled: e.cancelled,
		Digest:    e.digest,
		Report:    e.report.Clone(),
	}
	if n := len(e.report.RoundHeld); n > 0 {
		snap.HeldGPUs = e.report.RoundHeld[n-1]
	}
	// Iterate the submission-ordered slice, not the phase map, so the
	// copy is deterministic.
	snap.Phases = make(map[int]string, len(e.all))
	for _, j := range e.all {
		snap.Phases[j.ID] = e.phase[j.ID].String()
	}
	snap.Active = make([]JobSnapshot, 0, len(e.active))
	for _, st := range e.active {
		js := JobSnapshot{
			ID:            st.Job.ID,
			Model:         st.Job.Model,
			Workers:       st.Job.Workers,
			Arrival:       st.Job.Arrival,
			Remaining:     st.Remaining,
			TotalIters:    st.Job.TotalIters(),
			Running:       st.Running(),
			Started:       st.Started,
			StartTime:     st.StartTime,
			Reallocations: st.Reallocations,
			Phase:         JobActive.String(),
		}
		if st.Running() {
			js.Alloc = st.Alloc.String()
		}
		snap.Active = append(snap.Active, js)
	}
	return snap
}
