package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// deepDPDigest is the engine's chained schedule digest after the 96-job
// seed trace runs under hadar with DPJobLimit = 20, recorded when the DP
// could still fan out across workers (with one worker, i.e. the same
// sequential search that remains). 553 of that run's 1,622 rounds have
// 11-20 active jobs: the default limit sends them to the greedy pass,
// this one to the DP. The value equals the default-limit golden digest,
// because on this trace the DP picks the same allocations greedy does.
const deepDPDigest = 0x21dcfe1575c93546

// TestDeepDPDigestPin pushes whole realistic queues through the exact
// DP (Algorithm 2) under the invariant oracle and pins the resulting
// schedule against a cross-commit constant. The golden digests run the
// default DPJobLimit, where long queues take the greedy path; this pin
// keeps the deep-DP path under the same byte-identical guarantee.
func TestDeepDPDigestPin(t *testing.T) {
	core.PanicOnInconsistency = true
	opts := core.DefaultOptions()
	opts.DPJobLimit = 20
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 96
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(experiments.SimCluster(), core.New(opts), sim.ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := eng.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	for eng.HasPendingEvents() {
		if err := eng.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Digest(); got != deepDPDigest {
		t.Errorf("deep-DP schedule digest %#x, pinned %#x — the DP's decisions changed", got, deepDPDigest)
	}
}
