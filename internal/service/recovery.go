package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wal"
)

// Recovery describes what a WAL recovery did; Service.Recovery exposes
// it for logging and for the chaos harness's assertions.
type Recovery struct {
	// CheckpointSeq is the journal index the loaded checkpoint
	// embodied (0 when recovery started from a fresh engine).
	CheckpointSeq int `json:"checkpoint_seq"`
	// CheckpointCorrupt reports that a checkpoint file existed but
	// failed its integrity check, forcing a full-journal replay.
	CheckpointCorrupt bool `json:"checkpoint_corrupt,omitempty"`
	// Replayed is the number of journal records applied on top of the
	// checkpoint.
	Replayed int `json:"replayed"`
	// RoundsVerified counts replayed round records whose recorded
	// digest matched the engine's — the proof that the recovered
	// schedule is byte-identical to the pre-crash one.
	RoundsVerified int `json:"rounds_verified"`
	// TruncatedBytes is the size of the torn or corrupt journal tail
	// discarded before replay (0 on a clean shutdown).
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// recoveredState is the engine and ledger openJournal hands back to
// New.
type recoveredState struct {
	eng       *sim.Engine
	keys      map[string]int
	applied   int
	validSize int64
	info      *Recovery
}

// recoverState rebuilds the engine from the latest valid checkpoint
// plus the journal tail. Damage tolerated: missing checkpoint (full
// replay), corrupt checkpoint (full replay), torn or corrupt final
// journal record (truncated at the last valid frame), missing journal
// (fresh start). Damage refused: a journal whose valid prefix
// contradicts the recorded round digests, which means the replayed
// schedule would not match what clients observed.
func recoverState(c *cluster.Cluster, s sched.Scheduler, simOpts sim.Options, cfg WALConfig) (*recoveredState, error) {
	scan, err := wal.Scan(journalPath(cfg.Dir))
	if err != nil {
		return nil, fmt.Errorf("service: recover: %w", err)
	}
	info := &Recovery{TruncatedBytes: scan.TruncatedBytes}

	var doc checkpointDoc
	haveCkpt := false
	raw, err := wal.ReadCheckpoint(checkpointPath(cfg.Dir))
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &doc); err != nil {
			info.CheckpointCorrupt = true
		} else {
			haveCkpt = true
		}
	case errors.Is(err, os.ErrNotExist):
		// First boot or checkpoint never written: full replay.
	case errors.Is(err, wal.ErrCorrupt):
		info.CheckpointCorrupt = true
	default:
		return nil, fmt.Errorf("service: recover: %w", err)
	}

	st := &recoveredState{keys: make(map[string]int), validSize: scan.ValidSize, info: info}
	records := scan.Records
	if haveCkpt {
		eng, err := sim.RestoreEngine(c, s, simOpts, doc.Engine)
		if err != nil {
			return nil, fmt.Errorf("service: recover: %w", err)
		}
		st.eng = eng
		//lint:ignore maprange map-to-map copy; no output depends on visit order
		for k, id := range doc.Keys {
			st.keys[k] = id
		}
		info.CheckpointSeq = doc.Seq
		if doc.Seq > len(records) {
			// The checkpoint is ahead of the surviving journal: a
			// machine crash under a lax sync policy lost journaled
			// records that the fsynced checkpoint embodies. Restart
			// journal addressing from zero so frame indices and
			// checkpoint sequence numbers stay aligned. (A restarted
			// journal no longer supports VerifyWAL's full replay.)
			records = nil
			st.validSize = 0
			st.applied = 0
		} else {
			records = records[doc.Seq:]
			st.applied = doc.Seq
		}
	} else {
		eng, err := sim.NewEngine(c, s, simOpts)
		if err != nil {
			return nil, err
		}
		st.eng = eng
	}

	rounds, err := replayRecords(st.eng, st.keys, records)
	if err != nil {
		return nil, fmt.Errorf("service: recover: %w", err)
	}
	st.applied += len(records)
	info.Replayed = len(records)
	info.RoundsVerified = rounds
	return st, nil
}

// replayRecords applies journal records to an engine in order. Every
// record was journaled only after the live engine accepted the same
// mutation against the same state, so replay must accept them too;
// round records additionally carry the digest the live engine computed,
// and a mismatch aborts the replay.
func replayRecords(eng *sim.Engine, keys map[string]int, records [][]byte) (roundsVerified int, err error) {
	for i, payload := range records {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return roundsVerified, fmt.Errorf("record %d: %w", i, err)
		}
		switch rec.Type {
		case recSubmit:
			if rec.Job == nil {
				return roundsVerified, fmt.Errorf("record %d: submit without job", i)
			}
			if err := eng.SubmitJob(rec.Job); err != nil {
				return roundsVerified, fmt.Errorf("record %d: replay submit %d: %w", i, rec.Job.ID, err)
			}
			if rec.Key != "" {
				keys[rec.Key] = rec.Job.ID
			}
		case recCancel:
			if err := eng.CancelJob(rec.ID); err != nil {
				return roundsVerified, fmt.Errorf("record %d: replay cancel %d: %w", i, rec.ID, err)
			}
		case recRound:
			if err := eng.ProcessNextEvent(); err != nil {
				return roundsVerified, fmt.Errorf("record %d: replay round %d: %w", i, rec.Round, err)
			}
			if eng.Round() != rec.Round {
				return roundsVerified, fmt.Errorf("record %d: replay reached round %d, journal recorded %d", i, eng.Round(), rec.Round)
			}
			if eng.Digest() != rec.Digest {
				return roundsVerified, fmt.Errorf("record %d: round %d digest %#x diverges from journal %#x",
					i, rec.Round, eng.Digest(), rec.Digest)
			}
			roundsVerified++
		default:
			return roundsVerified, fmt.Errorf("record %d: unknown type %q", i, rec.Type)
		}
	}
	return roundsVerified, nil
}

// VerifyResult is VerifyWAL's summary of a full-journal replay.
type VerifyResult struct {
	// Records is the total number of valid journal records.
	Records int `json:"records"`
	// Rounds counts round records, every one digest-verified.
	Rounds int `json:"rounds"`
	// Submitted and Cancelled count mutation records.
	Submitted int `json:"submitted"`
	Cancelled int `json:"cancelled"`
	// Digest is the engine's chained digest after replaying the whole
	// journal — the schedule an uninterrupted run would have produced.
	Digest uint64 `json:"digest"`
	// Jobs maps idempotency keys to job IDs, for cross-checking a
	// client-side ledger.
	Jobs map[string]int `json:"jobs,omitempty"`
	// TruncatedBytes is the discarded torn tail, if any.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// VerifyWAL replays the entire journal in dir from a fresh engine —
// ignoring any checkpoint — and digest-verifies every round record.
// The journal is the canonical operation sequence, so this replay IS
// the uninterrupted run; the chaos harness compares its digest against
// the recovered service's to prove crash-and-recover changed nothing.
func VerifyWAL(c *cluster.Cluster, s sched.Scheduler, simOpts sim.Options, dir string) (*VerifyResult, error) {
	scan, err := wal.Scan(journalPath(dir))
	if err != nil {
		return nil, fmt.Errorf("service: verify: %w", err)
	}
	eng, err := sim.NewEngine(c, s, simOpts)
	if err != nil {
		return nil, err
	}
	res := &VerifyResult{
		Records:        len(scan.Records),
		Jobs:           make(map[string]int),
		TruncatedBytes: scan.TruncatedBytes,
	}
	rounds, err := replayRecords(eng, res.Jobs, scan.Records)
	if err != nil {
		return nil, fmt.Errorf("service: verify: %w", err)
	}
	res.Rounds = rounds
	for _, payload := range scan.Records {
		var rec walRecord
		if json.Unmarshal(payload, &rec) == nil {
			switch rec.Type {
			case recSubmit:
				res.Submitted++
			case recCancel:
				res.Cancelled++
			}
		}
	}
	res.Digest = eng.Digest()
	return res, nil
}
