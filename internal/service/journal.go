package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wal"
)

// WALConfig enables the write-ahead journal: every accepted mutation
// (submission, cancellation, round boundary) is appended to a
// CRC-framed journal before the verdict returns to the caller, and the
// engine state is checkpointed periodically so recovery replays a
// bounded tail.
type WALConfig struct {
	// Dir holds the journal (journal.wal) and checkpoint
	// (checkpoint.ckpt) files. It must exist.
	Dir string
	// Policy selects durability: SyncAlways fsyncs before every verdict
	// (survives machine crashes), SyncGroup batches fsyncs across
	// concurrent requests and defers their verdicts until the batch is
	// on disk, SyncOff never fsyncs (survives process kills via the
	// page cache, not machine crashes).
	Policy wal.SyncPolicy
	// GroupInterval bounds how long a SyncGroup verdict may wait for
	// its batch fsync. Default 2ms.
	GroupInterval time.Duration
	// CheckpointEvery is the number of journal records between engine
	// checkpoints. Default 256.
	CheckpointEvery int
	// Recover resumes from existing state in Dir — latest valid
	// checkpoint plus journal tail — and starts fresh when Dir is
	// empty. Without Recover, New refuses a Dir that already has a
	// journal rather than silently overwriting it.
	Recover bool
	// FailPoint, when non-nil, is passed to the journal writer for
	// crash-injection tests (see wal.FailPoint).
	FailPoint wal.FailPoint
}

func (c *WALConfig) normalize() {
	if c.GroupInterval <= 0 {
		c.GroupInterval = 2 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 256
	}
}

func journalPath(dir string) string    { return filepath.Join(dir, "journal.wal") }
func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.ckpt") }

// Journal record types. Submission and cancellation records are
// appended after the engine accepts the mutation and before the caller
// sees the verdict; round records are appended after every processed
// boundary and carry the engine's chained digest so recovery can prove
// the replayed schedule is byte-identical to the original.
const (
	recSubmit = "submit"
	recCancel = "cancel"
	recRound  = "round"
)

// walRecord is the JSON payload of one journal frame.
type walRecord struct {
	Type string `json:"type"`
	// Key is the submission's idempotency key, if any.
	Key string   `json:"key,omitempty"`
	Job *job.Job `json:"job,omitempty"`
	// ID is the cancellation target.
	ID int `json:"id,omitempty"`
	// Round/Now/Digest describe the engine immediately after a
	// processed boundary.
	Round  int     `json:"round,omitempty"`
	Now    float64 `json:"now_s,omitempty"`
	Digest uint64  `json:"digest,omitempty"`
}

// checkpointDoc is the payload of the checkpoint file: the serialized
// engine plus the service-level state that must survive with it.
type checkpointDoc struct {
	// Seq is the number of journal records the checkpointed state
	// embodies; recovery replays the journal from this index.
	Seq int `json:"seq"`
	// Keys is the idempotent-submission ledger (key -> job ID).
	Keys map[string]int `json:"keys,omitempty"`
	// Engine is sim.Engine.MarshalState output.
	Engine json.RawMessage `json:"engine"`
}

// pendingVerdict is a group-commit deferral: the mutation is applied
// and journaled but not yet fsynced, so the caller's verdict waits for
// the batch sync.
type pendingVerdict struct {
	reply chan verdict
	v     verdict
}

// journal is the serving loop's optional durability: the journal
// writer, the engine it journals (round records and checkpoints read
// its round, clock, digest and state), and the group-commit and
// checkpoint cursors. It is owned by the loop goroutine. Every method
// the loop calls is a no-op on a nil *journal, so a service without
// durability runs the same loop.
type journal struct {
	eng *sim.Engine
	cfg WALConfig
	w   *wal.Writer
	// applied counts journal records ever appended or replayed; it is
	// the checkpoint's replay cursor.
	applied   int
	sinceCkpt int
	// pending holds group-commit verdicts awaiting the batch fsync.
	pending       []pendingVerdict
	groupDeadline time.Time
	// err is the sticky journal failure; once set the loop exits and
	// every later request is refused with it.
	err error
}

// openJournal creates the journal in cfg.Dir over a fresh engine or,
// with cfg.Recover, rebuilds the engine and key ledger from the
// journal and checkpoint already there.
func openJournal(c *cluster.Cluster, sch sched.Scheduler, simOpts sim.Options, cfg WALConfig) (*journal, *recoveredState, error) {
	cfg.normalize()
	if !cfg.Recover {
		if _, err := os.Stat(journalPath(cfg.Dir)); err == nil {
			return nil, nil, fmt.Errorf("service: %s already has a journal; pass Recover to resume it or remove it first",
				cfg.Dir)
		}
		eng, err := sim.NewEngine(c, sch, simOpts)
		if err != nil {
			return nil, nil, err
		}
		w, err := wal.Create(journalPath(cfg.Dir), cfg.Policy, cfg.FailPoint)
		if err != nil {
			return nil, nil, fmt.Errorf("service: create journal: %w", err)
		}
		return &journal{eng: eng, cfg: cfg, w: w}, &recoveredState{eng: eng, keys: make(map[string]int)}, nil
	}
	st, err := recoverState(c, sch, simOpts, cfg)
	if err != nil {
		return nil, nil, err
	}
	w, err := wal.OpenAppend(journalPath(cfg.Dir), st.validSize, cfg.Policy, cfg.FailPoint)
	if err != nil {
		return nil, nil, fmt.Errorf("service: reopen journal: %w", err)
	}
	j := &journal{eng: st.eng, cfg: cfg, w: w, applied: st.applied}
	// Re-anchor the checkpoint at the recovered position: this bounds
	// the next crash's replay and, after a checkpoint-ahead-of-journal
	// recovery, realigns the checkpoint sequence with the (restarted)
	// journal frame count.
	if st.applied > 0 || st.info.CheckpointSeq > 0 {
		j.checkpoint(st.keys)
	}
	return j, st, nil
}

// commit makes one accepted mutation durable per the sync policy and
// delivers its verdict. The record is already applied to the engine;
// commit appends it to the journal and either replies immediately
// (SyncAlways fsyncs inside Append; SyncOff trades durability for
// latency) or defers the reply until the next group sync. Without a
// journal the verdict is released at once.
func (l *loop[S, R]) commit(rec walRecord, reply chan verdict, v verdict) {
	if l.journal == nil {
		reply <- v
		return
	}
	if err := l.journal.appendRecord(rec); err != nil {
		reply <- verdict{err: fmt.Errorf("service: journal append: %w", err)}
		return
	}
	if l.journal.w.Policy() == wal.SyncGroup {
		if len(l.journal.pending) == 0 {
			l.journal.groupDeadline = time.Now().Add(l.journal.cfg.GroupInterval)
		}
		l.journal.pending = append(l.journal.pending, pendingVerdict{reply: reply, v: v})
		return
	}
	reply <- v
}

// failure returns the sticky journal error, if any.
func (j *journal) failure() error {
	if j == nil {
		return nil
	}
	return j.err
}

// appendRecord marshals and appends one journal frame, tracking the
// absolute record count for checkpoint addressing. A failed append
// poisons the journal path: err sticks and the run loop exits.
func (j *journal) appendRecord(rec walRecord) error {
	payload, err := json.Marshal(&rec)
	if err != nil {
		j.err = err
		return err
	}
	if err := j.w.Append(payload); err != nil {
		j.err = err
		return err
	}
	j.applied++
	j.sinceCkpt++
	return nil
}

// round journals the boundary the engine just processed. Round records
// need no eager fsync: no caller is waiting on them, and any later
// synced record makes them durable first (the journal is strictly
// sequential). Recovery uses the recorded digest to prove the replayed
// schedule identical.
func (j *journal) round() error {
	if j == nil {
		return nil
	}
	return j.appendRecord(walRecord{Type: recRound, Round: j.eng.Round(), Now: j.eng.Now(), Digest: j.eng.Digest()})
}

// groupTimer returns a channel that fires when the oldest deferred
// verdict's group-commit deadline expires, or nil (blocks forever)
// when nothing is deferred.
func (j *journal) groupTimer() <-chan time.Time {
	if j == nil || len(j.pending) == 0 {
		return nil
	}
	d := time.Until(j.groupDeadline)
	if d < 0 {
		d = 0
	}
	return time.After(d)
}

// flushGroup syncs the journal and releases every deferred verdict.
// With force false it only acts once the group deadline has passed.
func (j *journal) flushGroup(force bool) {
	if j == nil || len(j.pending) == 0 {
		return
	}
	if !force && time.Now().Before(j.groupDeadline) {
		return
	}
	err := j.w.Sync()
	if err != nil {
		j.err = err
		err = fmt.Errorf("service: journal sync: %w", err)
	}
	for _, p := range j.pending {
		if err != nil {
			p.reply <- verdict{err: err}
		} else {
			p.reply <- p.v
		}
	}
	j.pending = j.pending[:0]
}

// maybeCheckpoint writes an engine checkpoint once enough journal
// records have accumulated since the last one. Checkpoint failures are
// not fatal: the journal remains the source of truth and recovery
// simply replays a longer tail.
func (j *journal) maybeCheckpoint(keys map[string]int) {
	if j == nil || j.sinceCkpt < j.cfg.CheckpointEvery {
		return
	}
	j.checkpoint(keys)
}

// checkpoint persists the engine and key ledger at the current journal
// position.
func (j *journal) checkpoint(keys map[string]int) {
	if j == nil {
		return
	}
	state, err := j.eng.MarshalState()
	if err != nil {
		return // a poisoned engine has nothing worth persisting
	}
	doc := checkpointDoc{Seq: j.applied, Keys: keys, Engine: state}
	payload, err := json.Marshal(&doc)
	if err != nil {
		return
	}
	if wal.WriteCheckpoint(checkpointPath(j.cfg.Dir), payload) == nil {
		j.sinceCkpt = 0
	}
}

// abort abandons the journal as a crash would: no flush, no sync.
func (j *journal) abort() {
	if j != nil {
		j.w.Abort()
	}
}

// close flushes and closes the journal after a clean shutdown.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.w.Close()
}
