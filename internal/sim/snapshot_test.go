package sim

import (
	"encoding/json"
	"testing"
)

// TestSnapshotImmutableUnderStepping takes a mid-run snapshot and
// checks it does not change while the engine keeps advancing — the
// copy-on-publish contract concurrent readers rely on.
func TestSnapshotImmutableUnderStepping(t *testing.T) {
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(simpleJob(0, 2, 20000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(simpleJob(1, 1, 50000, 700)); err != nil {
		t.Fatal(err)
	}
	if err := e.ProcessNextEvent(); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Now != 360 || snap.Round != 1 {
		t.Fatalf("snapshot at now=%v round=%d, want 360/1", snap.Now, snap.Round)
	}
	if len(snap.Active) != 1 || snap.Active[0].ID != 0 {
		t.Fatalf("active = %+v, want job 0 only", snap.Active)
	}
	if !snap.Active[0].Running || snap.Active[0].Alloc == "" {
		t.Errorf("job 0 should be running with an allocation, got %+v", snap.Active[0])
	}
	if snap.Pending != 1 {
		t.Errorf("pending = %d, want 1 (job 1 arrives at t=700)", snap.Pending)
	}
	if snap.HeldGPUs != 2 || snap.FreeGPUs() != snap.TotalGPUs-2 {
		t.Errorf("held = %d free = %d of %d, want 2 held", snap.HeldGPUs, snap.FreeGPUs(), snap.TotalGPUs)
	}

	// Freeze the observable state, keep stepping, re-compare.
	before, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	reportJobs := len(snap.Report.Jobs)
	driveEngine(t, e)
	after, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("snapshot mutated while engine ran:\nbefore: %s\nafter:  %s", before, after)
	}
	if len(snap.Report.Jobs) != reportJobs {
		t.Errorf("snapshot report grew from %d to %d jobs", reportJobs, len(snap.Report.Jobs))
	}
	if final := e.Snapshot(); final.Completed != 2 || len(final.Active) != 0 || final.Pending != 0 {
		t.Errorf("final snapshot = %d completed, %d active, %d pending; want 2/0/0",
			final.Completed, len(final.Active), final.Pending)
	}
}

// TestSnapshotFindJob resolves jobs in every lifecycle stage: live
// detail for an admitted job, the final result for a finished one,
// neither for a pending one, and ok false for an unknown ID.
func TestSnapshotFindJob(t *testing.T) {
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(simpleJob(0, 2, 20000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(simpleJob(1, 1, 50000, 700)); err != nil {
		t.Fatal(err)
	}
	if err := e.ProcessNextEvent(); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if phase, js, res, ok := snap.FindJob(0); !ok || phase != "active" || js == nil || js.ID != 0 || res != nil {
		t.Errorf("FindJob(0) = (%q, %v, %v, %v), want active with live detail", phase, js, res, ok)
	}
	if phase, js, res, ok := snap.FindJob(1); !ok || phase != "pending" || js != nil || res != nil {
		t.Errorf("FindJob(1) = (%q, %v, %v, %v), want pending without detail", phase, js, res, ok)
	}
	if _, _, _, ok := snap.FindJob(99); ok {
		t.Error("FindJob resolved an unknown ID")
	}
	driveEngine(t, e)
	if phase, js, res, ok := e.Snapshot().FindJob(0); !ok || phase != "finished" || js != nil || res == nil || res.ID != 0 {
		t.Errorf("finished FindJob(0) = (%q, %v, %v, %v), want the final result", phase, js, res, ok)
	}
}
