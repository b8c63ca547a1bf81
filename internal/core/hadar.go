package core

import (
	"math"
	"sort"

	"repro/internal/bug"
	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// PanicOnInconsistency, when true, turns internal allocation
// inconsistencies (a candidate that no longer fits the free state the
// scheduler itself maintains) into panics instead of silently skipped
// decisions. Tests enable it so placement bugs fail loudly; production
// keeps it off and reads Scheduler.Inconsistencies instead.
var PanicOnInconsistency bool

// Options configures the Hadar scheduler. The zero value is not valid;
// use DefaultOptions.
type Options struct {
	// Utility is the per-job utility U_j(.) the dual subroutine
	// maximizes. Swapping it expresses other scheduling policies
	// (Section III.A, "Expressing other scheduling policies").
	Utility Utility
	// Eta is the price scaling factor of Eq. 7; 0 derives the
	// theorem-compatible default from the workload.
	Eta float64
	// CommCost is the relative cost surcharge per additional server an
	// allocation spans (Algorithm 2 line 27 adds a communication cost to
	// non-consolidated allocations).
	CommCost float64
	// Stickiness is the cost discount applied to a job's existing
	// allocation, suppressing needless checkpoint-restart churn. The
	// paper observes only ~30% of rounds change an average job's
	// allocation.
	Stickiness float64
	// DPJobLimit bounds the queue size for the exact memoized DP
	// (Algorithm 2); larger queues fall back to the greedy
	// payoff-density pass, preserving Fig. 7's scalability.
	DPJobLimit int
	// TaskLevel enables mixed-accelerator-type gangs (Hadar's core
	// feature). Disabling it yields a job-level heterogeneity-aware
	// scheduler for the DESIGN.md ablation.
	TaskLevel bool
	// ExponentialPrice selects Eq. 5's exponential price function; false
	// uses a linear price (ablation).
	ExponentialPrice bool
	// Backfill makes the scheduler work-conserving: after the
	// positive-payoff primal-dual pass, leftover devices are offered to
	// the remaining jobs in priority order even when their payoff is
	// non-positive. This matches the high GPU utilization the paper
	// reports for Hadar (Fig. 4) without affecting who wins the
	// contended devices.
	Backfill bool
	// Aging boosts a job's queue priority by (1 + age/Aging), in
	// seconds, so long-pending large jobs eventually claim fast devices.
	// This bounds the completion-time tail (the paper's Fig. 8 shows a
	// tight min-max JCT band for Hadar). 0 disables aging.
	Aging float64
	// NameSuffix distinguishes ablation variants in reports.
	NameSuffix string
}

// DefaultOptions returns the configuration used for the paper's JCT
// experiments.
func DefaultOptions() Options {
	return Options{
		Utility:          InverseJCT{},
		CommCost:         0.1,
		Stickiness:       0.3,
		DPJobLimit:       10,
		TaskLevel:        true,
		ExponentialPrice: true,
		Backfill:         true,
	}
}

// Scheduler is Hadar (Algorithm 1): at every round it recomputes dual
// prices from the live workload and runs the DP/greedy dual subroutine
// to admit and place jobs with positive payoff. It implements
// sched.Scheduler and is not safe for concurrent use.
type Scheduler struct {
	opts       Options
	lastAlpha  float64
	lastPrices *priceTable
	// inconsistencies counts internal allocation failures: decisions the
	// dual subroutine produced that did not fit the free state it was
	// itself tracking. Always 0 unless there is a placement bug.
	inconsistencies int
	// probe is the FIND_ALLOC working set of every pass (DP, greedy,
	// backfill), reused across rounds (the scheduler is documented as
	// not safe for concurrent use).
	probe probe
	// Per-round scratch, all recycled between rounds: the
	// density-ordered queue and its sort entries, the per-job usable
	// type lists carved from one arena, and the payoff-prescreen flags.
	queueScratch []*sched.JobState
	entScratch   []queueEntry
	typesArena   []gpu.Type
	typesScratch [][]gpu.Type
	skipScratch  []bool
}

// New builds a Hadar scheduler. It panics on invalid options so
// misconfiguration fails fast at construction.
func New(opts Options) *Scheduler {
	if err := validateUtility(opts.Utility); err != nil {
		bug.Failf("core: %v", err)
	}
	if opts.CommCost < 0 || opts.Stickiness < 0 || opts.Stickiness >= 1 {
		bug.Failf("core: invalid CommCost %v / Stickiness %v", opts.CommCost, opts.Stickiness)
	}
	if opts.DPJobLimit < 0 {
		bug.Failf("core: negative DPJobLimit %d", opts.DPJobLimit)
	}
	return &Scheduler{opts: opts}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "hadar" + s.opts.NameSuffix }

// LastAlpha returns the competitive-ratio factor alpha (Theorem 2) of
// the most recent round's price bounds; Hadar is 2*alpha competitive.
func (s *Scheduler) LastAlpha() float64 { return s.lastAlpha }

// PriceBounds returns the most recent round's per-type utility bounds
// U_min^r / U_max^r (Eq. 6-7), indexed by gpu.Type. Types no active job
// can use report U_max = 0. It implements invariant.PriceReporter so
// the correctness oracle can audit the dual price state every round.
func (s *Scheduler) PriceBounds() (umin, umax []float64) {
	if s.lastPrices == nil {
		return nil, nil
	}
	return s.lastPrices.umin[:], s.lastPrices.umax[:]
}

// PriceAt evaluates the most recent round's marginal price function k^r
// (Eq. 5) for type t at the given utilization fraction in [0, 1]. It
// implements invariant.PriceReporter.
func (s *Scheduler) PriceAt(t gpu.Type, utilization float64) float64 {
	if s.lastPrices == nil || !t.Valid() {
		return 0
	}
	return s.lastPrices.at(t, utilization)
}

// Inconsistencies returns how many internal allocation failures the
// scheduler has swallowed across its lifetime. Nonzero values indicate
// a placement bug: a candidate won the dual subroutine but no longer
// fit the very free state the subroutine priced it against.
func (s *Scheduler) Inconsistencies() int { return s.inconsistencies }

// noteInconsistency records (or, under PanicOnInconsistency, raises) an
// internal allocation failure.
func (s *Scheduler) noteInconsistency(err error) {
	s.inconsistencies++
	if PanicOnInconsistency {
		bug.Failf("core: inconsistent allocation decision: %v", err)
	}
}

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := make(map[int]cluster.Alloc)
	if len(ctx.Jobs) == 0 {
		return out
	}
	pt := newPriceTable(ctx, s.opts.Utility, s.opts.Eta, s.opts.ExponentialPrice)
	s.lastAlpha = pt.alpha()
	s.lastPrices = pt

	queue := s.orderQueue(ctx)
	// Usable-type lists are a function of the immutable job alone;
	// compute them once per round instead of once per FIND_ALLOC call.
	jobTypes := s.usableTypes(queue)
	skip := s.payoffPrescreen(ctx, queue, jobTypes, pt)
	if len(queue) <= s.opts.DPJobLimit {
		s.dpAllocate(ctx, queue, jobTypes, skip, pt, out)
	} else {
		s.greedyAllocate(ctx, queue, jobTypes, skip, pt, out)
	}
	if s.opts.Backfill {
		s.backfill(ctx, queue, jobTypes, pt, out)
	}
	return out
}

// usableTypes fills the per-job usable-type lists for the round,
// carving every list from one reused arena so the whole round costs at
// most one allocation here.
func (s *Scheduler) usableTypes(queue []*sched.JobState) [][]gpu.Type {
	if want := len(queue) * int(gpu.NumTypes); cap(s.typesArena) < want {
		s.typesArena = make([]gpu.Type, 0, want)
	}
	arena := s.typesArena[:0]
	lists := s.typesScratch[:0]
	for _, st := range queue {
		mark := len(arena)
		arena = sched.AppendUsableTypes(arena, st.Job)
		lists = append(lists, arena[mark:len(arena):len(arena)])
	}
	s.typesArena, s.typesScratch = arena, lists
	return lists
}

// payoffPrescreen flags, once per round, the queued jobs whose payoff
// upper bound is safely non-positive: the admission filter mu_j > 0
// would reject every candidate FIND_ALLOC could produce, so the DP and
// greedy passes skip the probe outright. The bound pairs the highest
// utility any allocation can reach — the full gang on the job's fastest
// usable type at the cluster's best straggler factor, i.e. the minimum
// completion duration; Utility is positive and non-increasing in
// duration by contract — with the lowest cost any candidate can be
// charged: every device costs at least U_min of some usable type (Eq.
// 5's curve never dips below U_min) and the only discount ever applied
// is the stickiness factor. A small relative margin absorbs
// floating-point rounding in the bound itself, so near-zero payoffs
// still fall through to the exact probe and the schedule is
// bit-identical with and without the screen. The backfill pass ignores
// the payoff filter and therefore never consults these flags.
func (s *Scheduler) payoffPrescreen(ctx *sched.Context, queue []*sched.JobState, jobTypes [][]gpu.Type, pt *priceTable) []bool {
	if cap(s.skipScratch) < len(queue) {
		s.skipScratch = make([]bool, len(queue))
	}
	skip := s.skipScratch[:len(queue)]
	maxSpeed := 0.0
	for _, n := range ctx.Cluster.Nodes() {
		if n.Speed > maxSpeed {
			maxSpeed = n.Speed
		}
	}
	for i, st := range queue {
		skip[i] = false
		j := st.Job
		if st.Remaining <= 0 {
			continue // the passes skip these before probing anyway
		}
		_, best, ok := j.BestType()
		if !ok || best*maxSpeed <= 0 {
			continue
		}
		minU := math.Inf(1)
		for _, t := range jobTypes[i] {
			if pt.umax[t] > 0 && pt.umin[t] < minU {
				minU = pt.umin[t]
			}
		}
		age := ctx.Now - j.Arrival
		if age < 0 {
			age = 0
		}
		durMin := age + st.Remaining/(float64(j.Workers)*best*maxSpeed)
		uMax := s.opts.Utility.Value(j, st.Remaining, durMin)
		costLB := (1 - s.opts.Stickiness) * float64(j.Workers) * minU
		ub := uMax - costLB
		margin := costLB
		if math.IsInf(margin, 1) {
			margin = 0
		}
		if ub < -1e-9*(math.Abs(uMax)+margin+1) {
			skip[i] = true
		}
	}
	return skip
}

// backfill offers leftover devices to jobs the payoff filter rejected,
// in the same priority order, making the schedule work-conserving.
func (s *Scheduler) backfill(ctx *sched.Context, queue []*sched.JobState, jobTypes [][]gpu.Type, pt *priceTable, out map[int]cluster.Alloc) {
	free := cluster.NewState(ctx.Cluster)
	// Replay prior decisions in job-ID order so that, if the pass below
	// ever produced jointly infeasible decisions, the same one is blamed
	// on every run.
	ids := make([]int, 0, len(out))
	for id := range out {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := free.Allocate(out[id]); err != nil {
			// The primal-dual pass produced jointly infeasible decisions;
			// surface the bug and leave the decisions as-is.
			s.noteInconsistency(err)
			return
		}
	}
	s.probe.bind(&s.opts, pt, free)
	for i, st := range queue {
		if free.TotalFree() == 0 {
			break // nothing left to offer anyone
		}
		if st.Remaining <= 0 {
			continue
		}
		if _, ok := out[st.Job.ID]; ok {
			continue
		}
		if free.TotalFree() < st.Job.Workers {
			continue
		}
		cand, ok := s.probe.findAlloc(st, ctx, jobTypes[i])
		if !ok {
			continue
		}
		if err := free.Allocate(cand.alloc); err != nil {
			s.noteInconsistency(err)
			continue
		}
		out[st.Job.ID] = cand.alloc
	}
}

// queueEntry pairs a job with its queue-ordering density for the
// closure-free sort.
type queueEntry struct {
	st      *sched.JobState
	density float64
}

// queueByDensity orders entries by descending density, ties by
// ascending job ID. Job IDs are unique, so the order is total and
// sort.Sort (unstable) produces the same permutation a stable sort
// would.
type queueByDensity []queueEntry

func (q queueByDensity) Len() int      { return len(q) }
func (q queueByDensity) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q queueByDensity) Less(i, j int) bool {
	if q[i].density > q[j].density {
		return true
	}
	if q[i].density < q[j].density {
		return false
	}
	return q[i].st.Job.ID < q[j].st.Job.ID
}

// orderQueue sorts jobs by descending payoff density: the utility of an
// immediate full-speed completion per requested worker. This is the
// order both the greedy pass and the DP consider jobs in. The entry and
// queue slices are reused across rounds; callers must not retain the
// returned slice past the round.
func (s *Scheduler) orderQueue(ctx *sched.Context) []*sched.JobState {
	ents := s.entScratch[:0]
	for _, st := range ctx.Jobs {
		j := st.Job
		_, best, ok := j.BestType()
		if !ok || st.Remaining <= 0 {
			ents = append(ents, queueEntry{st: st})
			continue
		}
		age := ctx.Now - j.Arrival
		if age < 0 {
			age = 0
		}
		dur := age + st.Remaining/(float64(j.Workers)*best)
		d := s.opts.Utility.Value(j, st.Remaining, dur) / float64(j.Workers)
		if s.opts.Aging > 0 {
			d *= 1 + age/s.opts.Aging
		}
		ents = append(ents, queueEntry{st: st, density: d})
	}
	sort.Sort(queueByDensity(ents))
	queue := s.queueScratch[:0]
	for _, e := range ents {
		queue = append(queue, e.st)
	}
	s.entScratch, s.queueScratch = ents, queue
	return queue
}

// greedyAllocate is the large-queue path: one pass in payoff-density
// order, allocating each positive-payoff job at its best candidate and
// repricing as capacity fills.
func (s *Scheduler) greedyAllocate(ctx *sched.Context, queue []*sched.JobState, jobTypes [][]gpu.Type, skip []bool, pt *priceTable, out map[int]cluster.Alloc) {
	free := cluster.NewState(ctx.Cluster)
	s.probe.bind(&s.opts, pt, free)
	for i, st := range queue {
		if free.TotalFree() == 0 {
			break // every further probe would come back empty-handed
		}
		if st.Remaining <= 0 || skip[i] {
			continue // skip: the payoff bound already failed mu_j > 0
		}
		cand, ok := s.probe.findAlloc(st, ctx, jobTypes[i])
		if !ok || cand.payoff <= 0 {
			continue // admission filter mu_j > 0
		}
		if err := free.Allocate(cand.alloc); err != nil {
			s.noteInconsistency(err)
			continue
		}
		out[st.Job.ID] = cand.alloc
	}
}
