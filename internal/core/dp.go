package core

import (
	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// pick is one (job, allocation) decision of the DP.
type pick struct {
	id    int
	alloc cluster.Alloc
}

// dpResult is the best total payoff achievable from a DP position plus
// the picks realizing it.
type dpResult struct {
	payoff float64
	picks  []pick
}

// dpMemoKey memoizes on (queue index, free-state hash): the DP's value
// is a deterministic function of the position.
type dpMemoKey struct {
	idx  int
	hash uint64
}

// dpSearch is one round's memoized search over the queue, probing
// through the scheduler's probe bound to the state rec mutates.
type dpSearch struct {
	s        *Scheduler
	ctx      *sched.Context
	queue    []*sched.JobState
	jobTypes [][]gpu.Type
	skip     []bool
	memo     map[dpMemoKey]dpResult
}

// rec is Algorithm 2's recursion: branch on "allocate the best
// candidate" vs "skip", memoized on (idx, state hash). Branches mutate
// the probe's shared State under a savepoint and roll it back, so the
// search allocates nothing per visited node beyond the memo entries
// themselves. The skip branch is computed first and the allocate branch
// wins only on strictly greater total payoff.
func (d *dpSearch) rec(idx int, free *cluster.State) dpResult {
	if idx >= len(d.queue) || free.TotalFree() == 0 {
		return dpResult{}
	}
	key := dpMemoKey{idx: idx, hash: free.Hash()}
	if r, ok := d.memo[key]; ok {
		return r
	}
	// Branch 1: skip this job.
	best := d.rec(idx+1, free)
	// Branch 2: allocate this job at its best candidate. The prescreen
	// flag only suppresses probes whose payoff bound already failed the
	// mu_j > 0 filter below.
	st := d.queue[idx]
	if st.Remaining > 0 && !d.skip[idx] {
		if cand, ok := d.s.probe.findAlloc(st, d.ctx, d.jobTypes[idx]); ok && cand.payoff > 0 {
			sp := free.Savepoint()
			if err := free.Allocate(cand.alloc); err != nil {
				d.s.noteInconsistency(err)
			} else {
				sub := d.rec(idx+1, free)
				total := cand.payoff + sub.payoff
				if total > best.payoff {
					picks := make([]pick, 0, len(sub.picks)+1)
					picks = append(picks, pick{st.Job.ID, cand.alloc})
					picks = append(picks, sub.picks...)
					best = dpResult{payoff: total, picks: picks}
				}
			}
			free.Rollback(sp)
		}
	}
	d.memo[key] = best
	return best
}

// dpAllocate is Algorithm 2's dynamic program: for each job in order,
// branch on "allocate its best candidate" vs "skip", memoizing on
// (queue index, free-state hash), and keep the branch with the larger
// total payoff (equivalently, minimum cost for the chosen utility).
func (s *Scheduler) dpAllocate(ctx *sched.Context, queue []*sched.JobState, jobTypes [][]gpu.Type, skip []bool, pt *priceTable, out map[int]cluster.Alloc) {
	root := cluster.NewState(ctx.Cluster)
	s.probe.bind(&s.opts, pt, root)
	d := &dpSearch{
		s: s, ctx: ctx, queue: queue, jobTypes: jobTypes, skip: skip,
		memo: make(map[dpMemoKey]dpResult, 64),
	}
	for _, p := range d.rec(0, root).picks {
		out[p.id] = p.alloc
	}
}
