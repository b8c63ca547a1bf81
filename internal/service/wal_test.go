package service

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wal"
)

func walOptions(dir string, cfg WALConfig) Options {
	cfg.Dir = dir
	return Options{Sim: sim.ValidatedOptions(), WAL: &cfg}
}

func newWALService(t *testing.T, dir string, cfg WALConfig) *Service {
	t.Helper()
	svc, err := New(twoNodeCluster(), fifo{}, walOptions(dir, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestServiceWALKillAndRecover is the core durability contract: every
// submission acknowledged before a crash survives recovery, the
// recovered engine's schedule digest matches an uninterrupted replay of
// the journal, and the idempotency ledger still answers retried keys.
func TestServiceWALKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	svc := newWALService(t, dir, WALConfig{Policy: wal.SyncOff})
	svc.Start()

	acked := make(map[string]int)
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("key-%d", i)
		id, deduped, err := svc.SubmitKeyed(key, simpleJob(i, 1+i%2, 1e8))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if deduped {
			t.Fatalf("fresh key %q reported deduped", key)
		}
		acked[key] = id
	}
	if err := svc.Cancel(acked["key-3"]); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitFor(t, svc, "some rounds and the cancel applied", func(s *sim.Snapshot) bool {
		return s.Round >= 3 && s.Phases[acked["key-3"]] == "cancelled"
	})

	svc.Kill()
	if _, err := svc.Stop(); !errors.Is(err, ErrKilled) {
		t.Fatalf("Stop after Kill = %v, want ErrKilled", err)
	}

	rec := newWALService(t, dir, WALConfig{Policy: wal.SyncOff, Recover: true})
	info := rec.Recovery()
	if info == nil {
		t.Fatal("recovered service has no Recovery info")
	}
	if info.Replayed == 0 && info.CheckpointSeq == 0 {
		t.Errorf("recovery info %+v shows nothing restored; journal should not be empty", info)
	}
	snap := rec.Snapshot()
	for key, id := range acked {
		if _, ok := snap.Phases[id]; !ok {
			t.Errorf("acked job %d (%s) lost by recovery", id, key)
		}
	}
	if phase := snap.Phases[acked["key-3"]]; phase != "cancelled" {
		t.Errorf("cancelled job recovered in phase %q", phase)
	}

	// Retrying an acked key after the crash must dedup, not duplicate.
	rec.Start()
	id, deduped, err := rec.SubmitKeyed("key-0", simpleJob(0, 1, 1e8))
	if err != nil || !deduped || id != acked["key-0"] {
		t.Errorf("retried key-0 = (%d, %v, %v), want (%d, true, nil)", id, deduped, err, acked["key-0"])
	}
	if st := rec.Stats(); st.Deduped != 1 {
		t.Errorf("Stats.Deduped = %d, want 1", st.Deduped)
	}

	// Withdraw the (effectively immortal) jobs so the recovered run
	// drains quickly; the cancels are journaled ops like any other.
	for key, jobID := range acked {
		if key == "key-3" {
			continue // already cancelled before the crash
		}
		if err := rec.Cancel(jobID); err != nil {
			t.Fatalf("cancel %s after recovery: %v", key, err)
		}
	}
	waitFor(t, rec, "recovered run drains", func(s *sim.Snapshot) bool {
		return s.Pending == 0 && len(s.Active) == 0
	})
	if _, err := rec.Stop(); err != nil {
		t.Fatalf("stop recovered service: %v", err)
	}

	// The journal is the canonical operation sequence; replaying it on
	// a fresh engine is the uninterrupted run. Its digest must equal
	// the crashed-and-recovered service's final digest.
	res, err := VerifyWAL(twoNodeCluster(), fifo{}, sim.ValidatedOptions(), dir)
	if err != nil {
		t.Fatalf("VerifyWAL: %v", err)
	}
	if got := rec.Snapshot().Digest; res.Digest != got {
		t.Errorf("uninterrupted replay digest %#x, recovered service %#x", res.Digest, got)
	}
	if res.Submitted != len(acked) {
		t.Errorf("journal has %d submissions, want %d", res.Submitted, len(acked))
	}
	for key, id := range acked {
		if res.Jobs[key] != id {
			t.Errorf("journal ledger %q = %d, want %d", key, res.Jobs[key], id)
		}
	}
}

// TestServiceWALCheckpointBoundsReplay forces a checkpoint after every
// record and checks recovery starts from it instead of replaying the
// whole journal.
func TestServiceWALCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	svc := newWALService(t, dir, WALConfig{Policy: wal.SyncAlways, CheckpointEvery: 1})
	svc.Start()
	for i := 0; i < 4; i++ {
		if err := svc.Submit(simpleJob(i, 1, 20000)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, svc, "rounds with checkpoints", func(s *sim.Snapshot) bool { return s.Round >= 5 })
	svc.Kill()
	svc.Stop()

	rec := newWALService(t, dir, WALConfig{Policy: wal.SyncAlways, Recover: true})
	info := rec.Recovery()
	if info.CheckpointSeq == 0 {
		t.Error("recovery did not use the checkpoint")
	}
	snap := rec.Snapshot()
	for i := 0; i < 4; i++ {
		if _, ok := snap.Phases[i]; !ok {
			t.Errorf("job %d lost across checkpointed recovery", i)
		}
	}
	rec.Start()
	waitFor(t, rec, "drain", func(s *sim.Snapshot) bool { return s.Pending == 0 && len(s.Active) == 0 })
	if _, err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	res, err := VerifyWAL(twoNodeCluster(), fifo{}, sim.ValidatedOptions(), dir)
	if err != nil {
		t.Fatalf("VerifyWAL: %v", err)
	}
	if got := rec.Snapshot().Digest; res.Digest != got {
		t.Errorf("replay digest %#x != recovered digest %#x", res.Digest, got)
	}
}

// TestServiceWALTornTailRecovery damages the journal tail the way a
// kill mid-write would and checks recovery truncates and resumes.
func TestServiceWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	svc := newWALService(t, dir, WALConfig{Policy: wal.SyncOff})
	svc.Start()
	for i := 0; i < 3; i++ {
		if err := svc.Submit(simpleJob(i, 1, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, svc, "work", func(s *sim.Snapshot) bool { return s.Round >= 2 })
	svc.Kill()
	svc.Stop()

	// Simulate a torn final frame: half a frame header plus garbage.
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec := newWALService(t, dir, WALConfig{Policy: wal.SyncOff, Recover: true})
	if rec.Recovery().TruncatedBytes == 0 {
		t.Error("recovery did not report the torn tail")
	}
	snap := rec.Snapshot()
	for i := 0; i < 3; i++ {
		if _, ok := snap.Phases[i]; !ok {
			t.Errorf("job %d lost to the torn tail", i)
		}
	}
	rec.Start()
	waitFor(t, rec, "drain", func(s *sim.Snapshot) bool { return s.Pending == 0 && len(s.Active) == 0 })
	if _, err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceWALCorruptCheckpointFallsBack flips a checkpoint byte and
// checks recovery falls back to a full-journal replay.
func TestServiceWALCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	svc := newWALService(t, dir, WALConfig{Policy: wal.SyncAlways, CheckpointEvery: 1})
	svc.Start()
	for i := 0; i < 3; i++ {
		if err := svc.Submit(simpleJob(i, 1, 20000)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, svc, "checkpointed rounds", func(s *sim.Snapshot) bool { return s.Round >= 3 })
	svc.Kill()
	svc.Stop()

	data, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(checkpointPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := newWALService(t, dir, WALConfig{Policy: wal.SyncAlways, Recover: true})
	info := rec.Recovery()
	if !info.CheckpointCorrupt {
		t.Error("recovery did not flag the corrupt checkpoint")
	}
	if info.CheckpointSeq != 0 {
		t.Errorf("CheckpointSeq = %d after corrupt checkpoint, want 0", info.CheckpointSeq)
	}
	snap := rec.Snapshot()
	for i := 0; i < 3; i++ {
		if _, ok := snap.Phases[i]; !ok {
			t.Errorf("job %d lost despite full replay", i)
		}
	}
	rec.Stop()
}

// TestServiceWALFailPointCrash injects a crash mid-append: the caller
// whose record tore gets an error (never a false ack), the loop dies
// like a crashed process, and recovery preserves every acked job.
func TestServiceWALFailPointCrash(t *testing.T) {
	dir := t.TempDir()
	var appends int
	fp := func(offset int64, frame []byte) int {
		// Tear the frame once the journal has a few records; count
		// only mutation-sized frames so the test stays robust.
		appends++
		if appends == 4 {
			return len(frame) / 3
		}
		return -1
	}
	svc, err := New(twoNodeCluster(), fifo{}, walOptions(dir, WALConfig{Policy: wal.SyncOff, FailPoint: fp}))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	var acked []int
	var crashed bool
	for i := 0; i < 10; i++ {
		err := svc.Submit(simpleJob(i, 1, 50000))
		if err == nil {
			acked = append(acked, i)
			continue
		}
		if errors.Is(err, wal.ErrCrashInjected) || strings.Contains(err.Error(), "journal") || errors.Is(err, ErrStopped) {
			crashed = true
			break
		}
		t.Fatalf("submit %d: unexpected error %v", i, err)
	}
	if !crashed {
		t.Fatal("fail point never fired")
	}
	if _, err := svc.Stop(); err == nil {
		t.Error("Stop after an injected crash reported success")
	}

	rec := newWALService(t, dir, WALConfig{Policy: wal.SyncOff, Recover: true})
	if rec.Recovery().TruncatedBytes == 0 {
		t.Error("torn frame left no truncated tail")
	}
	snap := rec.Snapshot()
	for _, id := range acked {
		if _, ok := snap.Phases[id]; !ok {
			t.Errorf("acked job %d lost after injected crash", id)
		}
	}
	rec.Stop()
}

// TestServiceWALGroupCommit exercises the deferred-verdict path: under
// SyncGroup every verdict waits for a batch fsync but still arrives.
func TestServiceWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	svc := newWALService(t, dir, WALConfig{Policy: wal.SyncGroup, GroupInterval: time.Millisecond})
	svc.Start()
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		i := i
		go func() { errs <- svc.Submit(simpleJob(i, 1, 5000)) }()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("group-commit submit: %v", err)
		}
	}
	waitFor(t, svc, "completion", func(s *sim.Snapshot) bool { return s.Completed == 8 })
	if _, err := svc.Stop(); err != nil {
		t.Fatal(err)
	}
	res, err := VerifyWAL(twoNodeCluster(), fifo{}, sim.ValidatedOptions(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 8 {
		t.Errorf("journal has %d submissions, want 8", res.Submitted)
	}
}

// TestServiceWALRefusesExistingJournal: without Recover, New must not
// silently clobber a journal left by a previous run.
func TestServiceWALRefusesExistingJournal(t *testing.T) {
	dir := t.TempDir()
	svc := newWALService(t, dir, WALConfig{Policy: wal.SyncOff})
	svc.Start()
	if err := svc.Submit(simpleJob(0, 1, 100)); err != nil {
		t.Fatal(err)
	}
	svc.Stop()
	if _, err := New(twoNodeCluster(), fifo{}, walOptions(dir, WALConfig{Policy: wal.SyncOff})); err == nil {
		t.Fatal("New overwrote an existing journal without Recover")
	}
}

// TestServiceWALRecoverFreshDir: Recover on an empty directory is a
// fresh start, so operators can always pass -recover.
func TestServiceWALRecoverFreshDir(t *testing.T) {
	dir := t.TempDir()
	svc := newWALService(t, dir, WALConfig{Policy: wal.SyncAlways, Recover: true})
	svc.Start()
	if err := svc.Submit(simpleJob(0, 1, 1000)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, svc, "completion", func(s *sim.Snapshot) bool { return s.Completed == 1 })
	if _, err := svc.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceWALCleanShutdownResume: a graceful Stop checkpoints, and a
// later Recover resumes without replaying anything.
func TestServiceWALCleanShutdownResume(t *testing.T) {
	dir := t.TempDir()
	svc := newWALService(t, dir, WALConfig{Policy: wal.SyncAlways})
	svc.Start()
	if err := svc.Submit(simpleJob(0, 2, 1e7)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, svc, "progress", func(s *sim.Snapshot) bool { return s.Round >= 2 })
	if _, err := svc.Stop(); err != nil {
		t.Fatal(err)
	}

	rec := newWALService(t, dir, WALConfig{Policy: wal.SyncAlways, Recover: true})
	if got := rec.Recovery().Replayed; got != 0 {
		t.Errorf("clean shutdown still replayed %d records", got)
	}
	if _, ok := rec.Snapshot().Phases[0]; !ok {
		t.Error("job 0 lost across clean shutdown")
	}
	rec.Start()
	if err := rec.Cancel(0); err != nil {
		t.Fatalf("cancel after resume: %v", err)
	}
	waitFor(t, rec, "cancelled", func(s *sim.Snapshot) bool { return s.Phases[0] == "cancelled" })
	if _, err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceStopBeforeStart(t *testing.T) {
	svc := newTestService(t, Options{})
	if _, err := svc.Stop(); err != nil {
		t.Fatalf("stop before start: %v", err)
	}
	if _, err := svc.Stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// TestServiceDeadError: a wedged engine loop (here: never started)
// must not hang callers past RequestTimeout.
func TestServiceDeadError(t *testing.T) {
	svc := newTestService(t, Options{RequestTimeout: 20 * time.Millisecond})
	err := svc.Submit(simpleJob(0, 1, 100))
	var dead *DeadError
	if !errors.As(err, &dead) {
		t.Fatalf("submit on a wedged service = %v, want *DeadError", err)
	}
	if dead.Waited != 20*time.Millisecond {
		t.Errorf("DeadError.Waited = %v, want 20ms", dead.Waited)
	}
	svc.Stop()
}

func TestServiceSubmitKeyedDedupInMemory(t *testing.T) {
	svc := newTestService(t, Options{})
	svc.Start()
	defer svc.Stop()
	id1, deduped, err := svc.SubmitKeyed("job-a", simpleJob(1, 1, 1e6))
	if err != nil || deduped {
		t.Fatalf("first keyed submit = (%d, %v, %v)", id1, deduped, err)
	}
	id2, deduped, err := svc.SubmitKeyed("job-a", simpleJob(2, 1, 1e6))
	if err != nil || !deduped || id2 != id1 {
		t.Fatalf("second keyed submit = (%d, %v, %v), want (%d, true, nil)", id2, deduped, err, id1)
	}
	// The duplicate's job was never admitted.
	if _, ok := svc.Snapshot().Phases[2]; ok {
		t.Error("deduped submission still admitted job 2")
	}
}

// TestServiceNextIDClearsRecoveredIDs: after recovery NextID must not
// collide with journaled IDs from the service range.
func TestServiceNextIDClearsRecoveredIDs(t *testing.T) {
	dir := t.TempDir()
	svc := newWALService(t, dir, WALConfig{Policy: wal.SyncAlways})
	svc.Start()
	id := svc.NextID()
	j := simpleJob(id, 1, 1e7)
	if err := svc.Submit(j); err != nil {
		t.Fatal(err)
	}
	svc.Kill()
	svc.Stop()

	rec := newWALService(t, dir, WALConfig{Policy: wal.SyncAlways, Recover: true})
	if next := rec.NextID(); next <= id {
		t.Errorf("NextID after recovery = %d, collides with journaled %d", next, id)
	}
	rec.Stop()
}
