package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
)

// dpCluster is large enough that a 12-job DP tree has real contention:
// not every job fits, so allocate-vs-skip branching matters. Its mixed
// per-node capacities send fillType down the priced scan.
func dpCluster() *cluster.Cluster {
	return cluster.New(
		gpu.Fleet{gpu.V100: 4},
		gpu.Fleet{gpu.V100: 2, gpu.P100: 2},
		gpu.Fleet{gpu.P100: 4},
		gpu.Fleet{gpu.K80: 4},
		gpu.Fleet{gpu.T4: 2, gpu.K80: 2},
	)
}

// dpQueue builds a deterministic 12-job queue with varied worker counts,
// throughput profiles, and partial progress, so the DP sees heterogeneous
// payoffs, mixed-type candidates, and ties.
func dpQueue() []*sched.JobState {
	var states []*sched.JobState
	for i := 0; i < 12; i++ {
		w := 1 + i%4
		j := &job.Job{
			ID: i, Model: "dp-test", Workers: w,
			Epochs: 4000 + 700*i, ItersPerEpoch: 1,
			Throughput: map[gpu.Type]float64{
				gpu.V100: 8 + float64(i%5),
				gpu.P100: 4 + float64(i%3),
				gpu.K80:  1 + float64(i%2),
				gpu.T4:   3,
			},
		}
		st := newState(j)
		// Stagger progress so remaining work (and hence prices) differ.
		st.Remaining -= float64(200 * i)
		states = append(states, st)
	}
	return states
}

// TestDPHeterogeneousQueuePin runs the whole 12-job queue through the
// DP on the mixed-capacity cluster and pins the round's decisions,
// recorded when the DP could still fan out across workers.
func TestDPHeterogeneousQueuePin(t *testing.T) {
	PanicOnInconsistency = true
	opts := DefaultOptions()
	opts.DPJobLimit = 12
	out := New(opts).Schedule(mkCtx(dpCluster(), dpQueue()...))
	ids := make([]int, 0, len(out))
	for id := range out {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var got strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&got, "%d: %v\n", id, out[id])
	}
	const want = `1: [n1:V100x2]
2: [n2:P100x3]
3: [n0:V100x4]
5: [n4:K80x2]
6: [n1:P100x2 n2:P100x1]
9: [n4:T4x2]
11: [n3:K80x4]
`
	if got.String() != want {
		t.Errorf("DP decisions changed:\n%swant:\n%s", got.String(), want)
	}
}
