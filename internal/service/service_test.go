package service

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// fifo is a minimal gang scheduler for driving the service in tests:
// keep running jobs where they are, then place queued jobs first-fit.
type fifo struct{}

func (fifo) Name() string { return "test-fifo" }

func (fifo) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := make(map[int]cluster.Alloc)
	free := cluster.NewState(ctx.Cluster)
	for _, st := range ctx.Jobs {
		if st.Running() && free.Allocate(st.Alloc) == nil {
			out[st.Job.ID] = st.Alloc
		}
	}
	for _, st := range ctx.Jobs {
		if _, ok := out[st.Job.ID]; ok {
			continue
		}
		if a, ok := sched.PlaceAnyType(free, sched.UsableTypes(st.Job), st.Job.Workers); ok {
			if err := free.Allocate(a); err == nil {
				out[st.Job.ID] = a
			}
		}
	}
	return out
}

func simpleJob(id, workers int, iters float64) *job.Job {
	return &job.Job{
		ID: id, Name: "j", Model: "unit-test", Workers: workers,
		Epochs: int(iters), ItersPerEpoch: 1,
		Throughput: map[gpu.Type]float64{gpu.V100: 10, gpu.K80: 2},
	}
}

func twoNodeCluster() *cluster.Cluster {
	return cluster.New(gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.V100: 4, gpu.K80: 2})
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	if !opts.Sim.Validate {
		opts.Sim = sim.ValidatedOptions()
	}
	svc, err := New(twoNodeCluster(), fifo{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// newTestFedService builds a federated service over n two-node test
// clusters, each with its own fifo scheduler and validated engine,
// behind the least-queue router.
func newTestFedService(t *testing.T, n int, opts Options) *FedService {
	t.Helper()
	members := make([]federation.MemberConfig, n)
	for i := range members {
		members[i] = federation.MemberConfig{
			Name:      fmt.Sprintf("region%d", i),
			Cluster:   twoNodeCluster(),
			Scheduler: fifo{},
			Sim:       sim.ValidatedOptions(),
		}
	}
	router, err := federation.NewRouter("least-queue")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.New(members, router, federation.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewFed(fed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// waitFor polls the snapshot until cond holds or the deadline passes.
func waitFor(t *testing.T, svc *Service, what string, cond func(*sim.Snapshot) bool) *sim.Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := svc.Snapshot()
		if cond(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; snapshot: now=%v round=%d pending=%d active=%d completed=%d",
				what, snap.Now, snap.Round, snap.Pending, len(snap.Active), snap.Completed)
		}
		time.Sleep(time.Millisecond)
	}
}

// rig is the mode-agnostic view of a service under test, so the loop's
// tests run unchanged over both constructors.
type rig struct {
	svc interface {
		Start()
		Submit(j *job.Job) error
		SubmitKeyed(key string, j *job.Job) (int, bool, error)
		Cancel(id int) error
		NextID() int
		Stats() Stats
		Order() []string
		Report(name string) (*metrics.Report, bool)
	}
	// progress reads the latest snapshot's terminal-job counts and the
	// phase of one job ("" when unknown).
	progress func(id int) (completed, cancelled int, phase string)
	// stop stops the service and returns its (merged) report and the
	// names of the reports it folds: one per member, or the scheduler.
	stop func() (*metrics.Report, []string, error)
	// queued is the number of requests parked in the admission queue.
	queued func() int
}

func engineRig(t *testing.T, opts Options) *rig {
	svc := newTestService(t, opts)
	return &rig{
		svc: svc,
		progress: func(id int) (int, int, string) {
			s := svc.Snapshot()
			return s.Completed, s.Cancelled, s.Phases[id]
		},
		stop: func() (*metrics.Report, []string, error) {
			rep, err := svc.Stop()
			if rep == nil {
				return nil, nil, err
			}
			return rep, []string{rep.Scheduler}, err
		},
		queued: func() int { return len(svc.reqs) },
	}
}

func fedRig(t *testing.T, members int, opts Options) *rig {
	svc := newTestFedService(t, members, opts)
	return &rig{
		svc: svc,
		progress: func(id int) (int, int, string) {
			s := svc.Snapshot()
			_, phase, _, _, _ := s.FindJob(id)
			return s.Completed, s.Cancelled, phase
		},
		stop: func() (*metrics.Report, []string, error) {
			rep, err := svc.Stop()
			if rep == nil {
				return nil, nil, err
			}
			var names []string
			for _, m := range rep.Members {
				names = append(names, m.Name)
			}
			return rep.Merged, names, err
		},
		queued: func() int { return len(svc.reqs) },
	}
}

// mode is one constructor the loop's tests run over.
type mode struct {
	name string
	rig  func(t *testing.T, opts Options) *rig
}

var modes = []mode{
	{name: "engine", rig: engineRig},
	{name: "federation", rig: func(t *testing.T, opts Options) *rig { return fedRig(t, 2, opts) }},
}

// forEachMode runs body once per constructor, as a subtest.
func forEachMode(t *testing.T, body func(t *testing.T, m mode)) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) { body(t, m) })
	}
}

// await polls the rig until cond holds on its progress for job id.
func (r *rig) await(t *testing.T, what string, id int, cond func(completed, cancelled int, phase string) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, x, p := r.progress(id)
		if cond(c, x, p) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: completed=%d cancelled=%d phase(%d)=%q", what, c, x, id, p)
		}
		time.Sleep(time.Millisecond)
	}
}

// completions waits until n jobs have completed.
func (r *rig) completions(t *testing.T, n int) {
	t.Helper()
	r.await(t, fmt.Sprintf("%d completions", n), -1, func(c, _ int, _ string) bool { return c == n })
}

func TestServiceRunsJobsToCompletion(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		r := m.rig(t, Options{})
		r.svc.Start()
		for i := 0; i < 6; i++ {
			if err := r.svc.Submit(simpleJob(i, 1+i%2, 5000)); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		r.completions(t, 6)
		report, parts, err := r.stop()
		if err != nil {
			t.Fatalf("stop: %v", err)
		}
		if len(report.Jobs) != 6 {
			t.Errorf("report has %d jobs, want 6", len(report.Jobs))
		}
		if want := len(r.svc.Order()); len(parts) != want {
			t.Errorf("report folds %d reports (%v), want %d", len(parts), parts, want)
		}
		st := r.svc.Stats()
		if st.Accepted != 6 || st.RejectedInvalid != 0 || st.Rounds == 0 {
			t.Errorf("stats = %+v, want 6 accepted, 0 invalid, >0 rounds", st)
		}
		// A second Stop returns the same result.
		again, _, err := r.stop()
		if err != nil || again != report {
			t.Errorf("second Stop = (%p, %v), want the same report", again, err)
		}
	})
}

func TestServiceValidationErrorsReachCaller(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		r := m.rig(t, Options{})
		r.svc.Start()
		defer r.stop()

		if err := r.svc.Submit(simpleJob(0, 1, 100)); err != nil {
			t.Fatal(err)
		}
		if err := r.svc.Submit(simpleJob(0, 1, 100)); err == nil {
			t.Error("duplicate ID accepted")
		}
		if err := r.svc.Submit(simpleJob(1, 99, 100)); err == nil {
			t.Error("unplaceable gang accepted")
		}
		if err := r.svc.Cancel(42); err == nil {
			t.Error("cancel of unknown job accepted")
		}
		if st := r.svc.Stats(); st.Accepted != 1 || st.RejectedInvalid != 2 {
			t.Errorf("stats = %+v, want 1 accepted, 2 invalid", st)
		}
	})
}

func TestServiceCancelReflectedInSnapshot(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		r := m.rig(t, Options{})
		r.svc.Start()
		// A job far too long to complete within the test: the virtual
		// clock burns rounds in microseconds, so anything finite enough
		// to finish can race past the poller's "active" observation
		// window.
		if err := r.svc.Submit(simpleJob(0, 2, 1e12)); err != nil {
			t.Fatal(err)
		}
		r.await(t, "job 0 active", 0, func(_, _ int, p string) bool { return p == "active" })
		if err := r.svc.Cancel(0); err != nil {
			t.Fatalf("cancel: %v", err)
		}
		r.await(t, "job 0 cancelled", 0, func(_, _ int, p string) bool { return p == "cancelled" })
		if c, x, _ := r.progress(0); x != 1 || c != 0 {
			t.Errorf("snapshot counts = %d cancelled %d completed, want 1/0", x, c)
		}
		if _, _, err := r.stop(); err != nil {
			t.Fatalf("stop after cancel: %v", err)
		}
		if st := r.svc.Stats(); st.Cancelled != 1 {
			t.Errorf("stats.Cancelled = %d, want 1", st.Cancelled)
		}
	})
}

// TestServiceBackpressure fills the admission queue of an unstarted
// service (requests park in the channel awaiting the loop) and checks
// the overflow call bounces with a retry hint instead of blocking. The
// federation row paces rounds an hour apart, so the parked requests
// must be handled between ticks.
func TestServiceBackpressure(t *testing.T) {
	rows := []struct {
		mode
		opts Options
	}{
		{modes[0], Options{QueueDepth: 2, RetryAfter: 7 * time.Millisecond}},
		{modes[1], Options{QueueDepth: 2, RetryAfter: 7 * time.Millisecond, Clock: WallClock, RoundInterval: time.Hour}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := row.rig(t, row.opts)
			replies := make(chan error, 2)
			go func() { replies <- r.svc.Submit(simpleJob(0, 1, 100)) }()
			go func() { replies <- r.svc.Submit(simpleJob(1, 1, 100)) }()
			deadline := time.Now().Add(5 * time.Second)
			for r.queued() < 2 {
				if time.Now().After(deadline) {
					t.Fatal("queue never filled")
				}
				time.Sleep(time.Millisecond)
			}

			err := r.svc.Submit(simpleJob(2, 1, 100))
			var busy *BusyError
			if !errors.As(err, &busy) {
				t.Fatalf("overflow submit returned %v, want *BusyError", err)
			}
			if busy.RetryAfter != 7*time.Millisecond {
				t.Errorf("RetryAfter = %v, want 7ms", busy.RetryAfter)
			}
			if st := r.svc.Stats(); st.RejectedBusy != 1 {
				t.Errorf("RejectedBusy = %d, want 1", st.RejectedBusy)
			}

			// Starting the loop drains the parked requests successfully.
			r.svc.Start()
			for i := 0; i < 2; i++ {
				if err := <-replies; err != nil {
					t.Errorf("parked submit %d failed: %v", i, err)
				}
			}
			if _, _, err := r.stop(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestServiceStoppedRejectsRequests(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		r := m.rig(t, Options{})
		r.svc.Start()
		if _, _, err := r.stop(); err != nil {
			t.Fatal(err)
		}
		if err := r.svc.Submit(simpleJob(0, 1, 100)); !errors.Is(err, ErrStopped) {
			t.Errorf("submit after stop = %v, want ErrStopped", err)
		}
		if err := r.svc.Cancel(0); !errors.Is(err, ErrStopped) {
			t.Errorf("cancel after stop = %v, want ErrStopped", err)
		}
		// Stop is idempotent.
		if _, _, err := r.stop(); err != nil {
			t.Errorf("second stop: %v", err)
		}
	})
}

func TestServiceWallClock(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		r := m.rig(t, Options{Clock: WallClock, RoundInterval: time.Millisecond})
		r.svc.Start()
		for i := 0; i < 4; i++ {
			if err := r.svc.Submit(simpleJob(i, 1+i%2, 2000)); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		r.completions(t, 4)
		report, _, err := r.stop()
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Jobs) != 4 {
			t.Errorf("report has %d jobs, want 4", len(report.Jobs))
		}
	})
}

// TestServiceIdempotencyLedger: resubmitting a key answers with the
// original ID without touching the engine.
func TestServiceIdempotencyLedger(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		r := m.rig(t, Options{})
		r.svc.Start()
		defer r.stop()
		id1, dedup1, err := r.svc.SubmitKeyed("key-a", simpleJob(10, 1, 1000))
		if err != nil || dedup1 {
			t.Fatalf("first keyed submit = (%d, %v, %v)", id1, dedup1, err)
		}
		id2, dedup2, err := r.svc.SubmitKeyed("key-a", simpleJob(11, 1, 1000))
		if err != nil || !dedup2 || id2 != id1 {
			t.Fatalf("retried keyed submit = (%d, %v, %v), want (%d, true, nil)", id2, dedup2, err, id1)
		}
		if st := r.svc.Stats(); st.Deduped != 1 || st.Accepted != 1 {
			t.Errorf("stats = %+v, want 1 accepted, 1 deduped", st)
		}
	})
}

// TestServiceProvider checks the web dashboard Provider view of a live
// service: one scheduler for an engine, one entry per member (in
// member order) for a federation.
func TestServiceProvider(t *testing.T) {
	rows := []struct {
		name  string
		rig   func(t *testing.T) *rig
		order []string
	}{
		{"engine", func(t *testing.T) *rig { return engineRig(t, Options{}) }, []string{"test-fifo"}},
		{"federation", func(t *testing.T) *rig { return fedRig(t, 3, Options{}) }, []string{"region0", "region1", "region2"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := row.rig(t)
			r.svc.Start()
			defer r.stop()
			if err := r.svc.Submit(simpleJob(0, 1, 1000)); err != nil {
				t.Fatal(err)
			}
			r.completions(t, 1)
			order := r.svc.Order()
			if !slices.Equal(order, row.order) {
				t.Fatalf("Order() = %v, want %v", order, row.order)
			}
			jobs := 0
			for _, name := range order {
				rep, ok := r.svc.Report(name)
				if !ok || rep == nil {
					t.Fatalf("Report(%q) = (%v, %v)", name, rep, ok)
				}
				jobs += len(rep.Jobs)
			}
			if jobs != 1 {
				t.Errorf("reports hold %d jobs, want 1", jobs)
			}
			if _, ok := r.svc.Report("nonexistent"); ok {
				t.Error("Report accepted an unknown name")
			}
		})
	}
}

func TestServiceNextIDFresh(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		r := m.rig(t, Options{})
		a, b := r.svc.NextID(), r.svc.NextID()
		if a == b || a < 1<<20 || b < 1<<20 {
			t.Errorf("NextID() = %d, %d; want distinct IDs in the service range", a, b)
		}
	})
}

// TestNewFedRefusesJournal: a federation has no write-ahead journal.
func TestNewFedRefusesJournal(t *testing.T) {
	router, err := federation.NewRouter("round-robin")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.New([]federation.MemberConfig{{Cluster: twoNodeCluster(), Scheduler: fifo{}, Sim: sim.DefaultOptions()}},
		router, federation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFed(fed, Options{WAL: &WALConfig{Dir: t.TempDir()}}); err == nil {
		t.Error("NewFed accepted a WAL configuration")
	}
}
