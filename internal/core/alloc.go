package core

import (
	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// candidate is one allocation option produced by FIND_ALLOC together
// with its primal-dual economics.
type candidate struct {
	alloc  cluster.Alloc
	rate   float64 // iterations/second under this allocation
	cost   float64 // sum of dual prices (+ communication surcharge)
	payoff float64 // mu_j = utility - cost
}

// probe is the free-state-bound working set of one allocation pass (the
// greedy sweep, the DP search, or the backfill sweep): the state it
// prices against and every scratch buffer FIND_ALLOC recycles between
// calls. The scheduler reuses one probe across passes and rounds.
type probe struct {
	opts *Options
	pt   *priceTable
	free *cluster.State
	// uniformSpeed caches Cluster.UniformSpeed for the pass: combined
	// with a uniform per-node capacity it licenses fillType's price-free
	// scan order.
	uniformSpeed bool

	// FIND_ALLOC working storage: fillScratch is the node-scan buffer
	// fillType's fallback path selects candidate nodes in, candArena is
	// the backing store candidate placements are carved from, and
	// candScratch is the candidate list itself. All are recycled on
	// every findAlloc call. retain backs the winning allocations the
	// pass hands out: it only grows within a pass (so carved winners
	// stay valid for the whole round) and is re-based by bind, keeping a
	// pass at O(log n) heap allocations instead of one per probe.
	fillScratch []fillOption
	candArena   []cluster.Placement
	candScratch []cluster.Alloc
	retain      []cluster.Placement
}

// bind points the probe at a pass's options, price table, and free
// state. The retain arena is re-based (not truncated): allocations
// carved during the previous pass may have escaped into that round's
// decision map, so their backing array must never be overwritten.
func (p *probe) bind(opts *Options, pt *priceTable, free *cluster.State) {
	p.opts, p.pt, p.free = opts, pt, free
	p.uniformSpeed = free.Cluster().UniformSpeed()
	p.retain = nil
}

// findAlloc is the paper's FIND_ALLOC subroutine (Algorithm 2, lines
// 22-34): generate consolidated ("packed") and consolidation-independent
// allocations over the GPU types sorted by the job's throughput (the
// caller passes sched.UsableTypes(j), precomputed once per round), price
// each against the current dual prices (adding a communication surcharge
// for multi-server allocations), and return the highest-payoff option.
// ok is false only when no feasible allocation exists at all; the
// admission filter mu_j > 0 is applied by the caller (the backfill pass
// deliberately ignores it).
//
// This is the per-round hot path: Hadar's DP calls it once per visited
// search node. Candidate placements are built in the probe's arena and
// candidate list, duplicate candidates are pruned before pricing (on
// uniform clusters the cheapest-node and most-consolidated scans often
// coincide, and a duplicate can never win: the winner is the first
// index attaining the best payoff), and the winner is carved from the
// grow-only retain arena, so a call performs no steady-state heap
// allocation at all.
func (p *probe) findAlloc(st *sched.JobState, ctx *sched.Context, types []gpu.Type) (candidate, bool) {
	j := st.Job
	cands := p.candScratch[:0]
	arena := p.candArena[:0]

	// Single-type allocations: one candidate per usable type, on the
	// cheapest nodes; plus the maximally consolidated variant.
	for _, t := range types {
		if a, ok := p.fillOneType(&arena, j.Workers, t); ok {
			cands = appendCand(cands, a)
		}
		if a, ok := appendSingleType(&arena, p.free, t, j.Workers); ok {
			cands = appendCand(cands, a)
		}
	}
	// Task-level mixed allocations: growing prefixes of the
	// descending-throughput type list. This is the capability Gavel
	// lacks: a gang can straddle accelerator types when no single type
	// has enough free devices (or when mixing is simply cheaper).
	if p.opts.TaskLevel {
		for k := 2; k <= len(types); k++ {
			if a, ok := p.fillTypes(&arena, j.Workers, types[:k]); ok {
				cands = appendCand(cands, a)
			}
		}
	}
	// Stickiness: re-offer the job's current allocation (it is feasible
	// by construction: the simulator freed nothing mid-round, and this
	// round's state starts fully free) at a discounted cost, so
	// unchanged allocations win ties and checkpoint churn stays low.
	current := -1
	if st.Running() && p.free.CanAllocate(st.Alloc) {
		current = len(cands)
		cands = append(cands, st.Alloc)
	}
	p.candScratch = cands
	p.candArena = arena

	bestIdx := -1
	var best candidate
	for i, a := range cands {
		rate := sched.Rate(j, ctx.Cluster, a)
		if rate <= 0 {
			continue
		}
		age := ctx.Now - j.Arrival
		if age < 0 {
			age = 0
		}
		duration := age + st.Remaining/rate
		utility := p.opts.Utility.Value(j, st.Remaining, duration)
		// Cost and node count read the raw placement list: candidate
		// generators emit at most one placement per (node, type) and no
		// zero counts, and both quantities are additive over duplicates
		// anyway, so skipping Canonical here cannot change them.
		cost := 0.0
		for _, pl := range a {
			cost += p.pt.price(p.free, pl.Node, pl.Type) * float64(pl.Count)
		}
		if n := distinctNodes(a); n > 1 {
			cost *= 1 + p.opts.CommCost*float64(n-1)
		}
		if i == current {
			cost *= 1 - p.opts.Stickiness
		}
		payoff := utility - cost
		if bestIdx < 0 || payoff > best.payoff {
			best = candidate{rate: rate, cost: cost, payoff: payoff}
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return candidate{}, false
	}
	// The winner leaves the candidate arena as a canonical copy carved
	// from the retain arena; the candidate arena itself is recycled by
	// the next call.
	best.alloc = p.retainCanonical(cands[bestIdx])
	return best, true
}

// appendCand adds a to the candidate list unless an identical placement
// list is already present. Dropping payoff-equal duplicates before the
// pricing loop cannot change the winner: identical placements price
// identically, and the first index attaining the best payoff wins.
func appendCand(cands []cluster.Alloc, a cluster.Alloc) []cluster.Alloc {
	for _, b := range cands {
		if rawEqual(b, a) {
			return cands
		}
	}
	return append(cands, a)
}

// rawEqual reports whether two placement lists are identical entry by
// entry (no canonicalization: candidate generators emit deterministic
// orders, so duplicates really are elementwise equal).
func rawEqual(a, b cluster.Alloc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// distinctNodes counts the distinct nodes of a placement list without
// allocating (allocations span few placements, so the quadratic scan is
// cheaper than a map).
func distinctNodes(a cluster.Alloc) int {
	n := 0
	for i, p := range a {
		if p.Count == 0 {
			continue
		}
		seen := false
		for _, q := range a[:i] {
			if q.Count > 0 && q.Node == p.Node {
				seen = true
				break
			}
		}
		if !seen {
			n++
		}
	}
	return n
}

// retainCanonical copies a into the pass's retain arena in canonical
// form — zero counts dropped, same-(node,type) entries merged, sorted
// by (node, type) — and returns the carved copy. It matches
// Alloc.Canonical for the non-negative placement lists the candidate
// generators emit, without the intermediate map or the per-call heap
// allocation: the arena grows geometrically, and earlier carves stay
// valid because the arena is never truncated below them within a pass.
func (p *probe) retainCanonical(a cluster.Alloc) cluster.Alloc {
	mark := len(p.retain)
	for _, pl := range a {
		if pl.Count > 0 {
			p.retain = append(p.retain, pl)
		}
	}
	out := p.retain[mark:]
	// Insertion sort by (node, type): placement lists are short.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && (out[k].Node < out[k-1].Node ||
			(out[k].Node == out[k-1].Node && out[k].Type < out[k-1].Type)); k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	// Merge adjacent duplicates in place, then give the freed tail back
	// to the arena.
	w := 0
	for _, pl := range out {
		if w > 0 && out[w-1].Node == pl.Node && out[w-1].Type == pl.Type {
			out[w-1].Count += pl.Count
			continue
		}
		out[w] = pl
		w++
	}
	p.retain = p.retain[:mark+w]
	return cluster.Alloc(p.retain[mark : mark+w : mark+w])
}

// fillOption is one candidate node in fillType's price-ordered fallback
// scan.
type fillOption struct {
	node  int
	price float64
	speed float64
	avail int
}

// appendSingleType is sched.PlaceSingleType building its placements in
// the shared arena: the returned Alloc aliases arena storage and is
// only valid until the arena is recycled. The state's bucket index
// already maintains the consolidation order (free descending, node
// ascending), so the scan touches at most w nodes and never sorts.
func appendSingleType(arena *[]cluster.Placement, free *cluster.State, t gpu.Type, w int) (cluster.Alloc, bool) {
	if free.FreeOfType(t) < w {
		return nil, false
	}
	mark := len(*arena)
	nodes := free.AppendFreeNodesByFreeDesc(t, w, free.Scratch())
	need := w
	for _, n := range nodes {
		take := n.Free
		if take > need {
			take = need
		}
		*arena = append(*arena, cluster.Placement{Node: n.Node, Type: t, Count: take})
		if need -= take; need == 0 {
			break
		}
	}
	return carve(arena, mark), true
}

// carve returns the arena's tail beyond mark as an independent-length
// allocation. The full slice expression caps it so later arena appends
// can never write through it.
func carve(arena *[]cluster.Placement, mark int) cluster.Alloc {
	a := *arena
	return cluster.Alloc(a[mark:len(a):len(a)])
}

// fillOneType is fillTypes for a single type, avoiding the one-element
// slice the multi-type signature would need.
func (p *probe) fillOneType(arena *[]cluster.Placement, workers int, t gpu.Type) (cluster.Alloc, bool) {
	mark := len(*arena)
	if need := p.fillType(arena, workers, t); need > 0 {
		*arena = (*arena)[:mark]
		return nil, false
	}
	return carve(arena, mark), true
}

// fillTypes builds an allocation of exactly workers devices drawn from
// the given types (earlier types preferred), choosing nodes by ascending
// dual price, then descending node speed, then descending free count.
// ok is false if the types jointly lack free capacity. Placements land
// in the shared arena; the fallback node scan sorts in the probe's
// scratch buffer, reused across all FIND_ALLOC calls of a round.
func (p *probe) fillTypes(arena *[]cluster.Placement, workers int, types []gpu.Type) (cluster.Alloc, bool) {
	mark := len(*arena)
	need := workers
	for _, t := range types {
		if need = p.fillType(arena, need, t); need == 0 {
			break
		}
	}
	if need > 0 {
		*arena = (*arena)[:mark]
		return nil, false
	}
	return carve(arena, mark), true
}

// fillType appends up to need devices of type t in price order and
// returns the unmet need.
//
// When every node holding t has the same capacity and every node runs
// at the same speed, the price order needs no prices at all: Eq. 5's
// curve is monotone non-decreasing in utilization, so "cheapest first"
// is "most free first", and every tiebreak the full comparator would
// consult (price ties -> equal speed -> descending free -> ascending
// node ID) collapses to the bucket index's native order (free
// descending, node ascending). That equivalence holds even where the
// curve plateaus (rounded-equal prices, or the +Inf price of a type no
// job uses), because the free-count tiebreak takes over exactly there.
// Heterogeneous capacities or straggler speeds fall back to the exact
// priced scan, now a top-k selection: consuming need devices touches at
// most need nodes, so only the first need entries of the sorted order
// are ever read, and the comparator's ascending-node-ID tail makes that
// prefix unique.
func (p *probe) fillType(arena *[]cluster.Placement, need int, t gpu.Type) int {
	if need == 0 || p.free.FreeOfType(t) == 0 {
		return need
	}
	if p.uniformSpeed && p.free.UniformCap(t) > 0 {
		nodes := p.free.AppendFreeNodesByFreeDesc(t, need, p.free.Scratch())
		for _, n := range nodes {
			take := n.Free
			if take > need {
				take = need
			}
			*arena = append(*arena, cluster.Placement{Node: n.Node, Type: t, Count: take})
			if need -= take; need == 0 {
				break
			}
		}
		return need
	}
	opts := p.fillScratch[:0]
	c := p.free.Cluster()
	for _, n := range p.free.FreeNodes(t, p.free.Scratch()) {
		opts = append(opts, fillOption{
			node:  n.Node,
			price: p.pt.price(p.free, n.Node, t),
			speed: c.Speed(n.Node),
			avail: n.Free,
		})
	}
	p.fillScratch = opts
	k := need
	if k > len(opts) {
		k = len(opts)
	}
	selectCheapest(opts, k)
	for _, o := range opts[:k] {
		if need == 0 {
			break
		}
		take := o.avail
		if take > need {
			take = need
		}
		*arena = append(*arena, cluster.Placement{Node: o.node, Type: t, Count: take})
		need -= take
	}
	return need
}

// fillLess is fillType's fallback ordering: ascending dual price, then
// descending node speed, then descending free count, then ascending
// node ID. The node-ID tail makes it a strict total order, so every
// sorted prefix is unique. It is a package-level function, not a
// closure, so sorting allocates nothing.
func fillLess(a, b fillOption) bool {
	if a.price < b.price {
		return true
	}
	if a.price > b.price {
		return false
	}
	if a.speed > b.speed {
		return true
	}
	if a.speed < b.speed {
		return false
	}
	if a.avail != b.avail {
		return a.avail > b.avail
	}
	return a.node < b.node
}

// selectCheapest moves the k smallest options (by fillLess) to opts[:k]
// in sorted order: a partial selection sort, O(k*n) instead of a full
// sort's O(n log n) — and k (the device need) is tiny next to n (nodes
// holding the type) at warehouse scale.
func selectCheapest(opts []fillOption, k int) {
	for i := 0; i < k && i < len(opts); i++ {
		minIdx := i
		for j := i + 1; j < len(opts); j++ {
			if fillLess(opts[j], opts[minIdx]) {
				minIdx = j
			}
		}
		opts[i], opts[minIdx] = opts[minIdx], opts[i]
	}
}
