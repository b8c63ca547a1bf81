package core

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// priceTable holds the per-round dual price state: the per-type utility
// bounds U_max^r / U_min^r (Eq. 6-7) and the marginal price function
// k_h^r(gamma) (Eq. 5), evaluated against the current free state.
type priceTable struct {
	c           *cluster.Cluster
	umax, umin  [gpu.NumTypes]float64
	exponential bool
	// curve[t][cap][used] caches at(t, used/cap) for every distinct
	// per-node capacity of type t present in the cluster, evaluated once
	// per round in newPriceTable with the exact same expression price
	// would use, so the per-probe hot path indexes two slices instead of
	// calling math.Pow. Immutable after construction.
	curve [gpu.NumTypes][][]float64
}

// newPriceTable computes the round's utility bounds from the active job
// set, following Eq. 6-8 with remaining work substituted for total work
// (the online algorithm recomputes the bounds "based on the current
// workload of the cluster").
func newPriceTable(ctx *sched.Context, u Utility, eta float64, exponential bool) *priceTable {
	pt := &priceTable{c: ctx.Cluster, exponential: exponential}
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		pt.umax[t] = 0
		pt.umin[t] = math.Inf(1)
	}
	if eta <= 0 {
		eta = defaultEta(ctx)
	}
	for _, st := range ctx.Jobs {
		j := st.Job
		w := float64(j.Workers)
		_, best, ok := j.BestType()
		if !ok {
			continue
		}
		_, worst, _ := j.WorstType()
		rem := st.Remaining
		if rem <= 0 {
			continue
		}
		tmin := rem / (w * best)
		tmax := rem / (w * worst)
		age := ctx.Now - j.Arrival
		if age < 0 {
			age = 0
		}
		// Highest utility: finish as fast as possible from now.
		uBest := u.Value(j, rem, age+tmin) / w
		// Lowest utility: finish only at the horizon T.
		horizonDur := ctx.Horizon - j.Arrival
		if horizonDur < age+tmax {
			horizonDur = age + tmax
		}
		uWorst := u.Value(j, rem, horizonDur) / (4 * eta * tmax * w)
		for _, t := range sched.UsableTypes(j) {
			if uBest > pt.umax[t] {
				pt.umax[t] = uBest
			}
			if uWorst < pt.umin[t] {
				pt.umin[t] = uWorst
			}
		}
	}
	// Normalize degenerate bounds: the price function needs
	// 0 < umin < umax on every type any job can use.
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if pt.umax[t] <= 0 {
			continue // no job uses this type this round
		}
		if math.IsInf(pt.umin[t], 1) || pt.umin[t] <= 0 {
			pt.umin[t] = pt.umax[t] / (4 * eta)
		}
		if pt.umin[t] >= pt.umax[t] {
			pt.umin[t] = pt.umax[t] / math.E
		}
	}
	pt.fillCurves()
	return pt
}

// fillCurves evaluates the marginal price function once per (type,
// distinct node capacity, used count): the per-probe price lookup then
// reduces to two slice indexes. Each entry is computed with exactly the
// expression price would evaluate lazily, so cached and direct values
// are bit-identical.
func (pt *priceTable) fillCurves() {
	for node := 0; node < pt.c.NumNodes(); node++ {
		for t := gpu.Type(0); t < gpu.NumTypes; t++ {
			cap := pt.c.Capacity(node, t)
			if cap == 0 {
				continue
			}
			if len(pt.curve[t]) <= cap {
				grown := make([][]float64, cap+1)
				copy(grown, pt.curve[t])
				pt.curve[t] = grown
			}
			if pt.curve[t][cap] != nil {
				continue
			}
			row := make([]float64, cap+1)
			for used := 0; used <= cap; used++ {
				row[used] = pt.at(t, float64(used)/float64(cap))
			}
			pt.curve[t][cap] = row
		}
	}
}

// defaultEta returns the scaling factor eta keeping the initial dual
// objective bounded (Theorem 2's proof requires
// 1/eta <= t_max_j * W_j / total capacity for all jobs).
func defaultEta(ctx *sched.Context) float64 {
	total := float64(ctx.Cluster.TotalGPUs())
	eta := 1.0
	for _, st := range ctx.Jobs {
		j := st.Job
		_, worst, ok := j.WorstType()
		if !ok || st.Remaining <= 0 {
			continue
		}
		tmax := st.Remaining / (float64(j.Workers) * worst)
		if need := total / (tmax * float64(j.Workers)); need > eta {
			eta = need
		}
	}
	return eta
}

// price returns k_h^r evaluated at the node's current utilization, read
// from the free state: gamma = capacity - free (Eq. 5). Nodes without
// the type price at +Inf so they are never selected. The value comes
// from the precomputed curve, indexed by the node's capacity and used
// count, both read from the state's flat tables.
func (pt *priceTable) price(free *cluster.State, node int, t gpu.Type) float64 {
	cap := free.Capacity(node, t)
	if cap == 0 {
		return math.Inf(1)
	}
	return pt.curve[t][cap][cap-free.Free(node, t)]
}

// at evaluates the marginal price function k^r for type t at the given
// utilization fraction in [0, 1] (Eq. 5). Because Umin <= Umax after
// normalization, the curve is monotone non-decreasing in utilization —
// the property Theorem 2's charging argument needs and the invariant
// checker verifies each round.
func (pt *priceTable) at(t gpu.Type, frac float64) float64 {
	if pt.umax[t] <= 0 {
		return math.Inf(1)
	}
	if pt.exponential {
		return pt.umin[t] * math.Pow(pt.umax[t]/pt.umin[t], frac)
	}
	return pt.umin[t] + (pt.umax[t]-pt.umin[t])*frac
}

// alpha returns the competitive-ratio factor
// alpha = max_r max(1, ln(Umax^r/Umin^r)) of Theorem 2 for the current
// bounds.
func (pt *priceTable) alpha() float64 {
	a := 1.0
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if pt.umax[t] <= 0 || pt.umin[t] <= 0 {
			continue
		}
		if l := math.Log(pt.umax[t] / pt.umin[t]); l > a {
			a = l
		}
	}
	return a
}
