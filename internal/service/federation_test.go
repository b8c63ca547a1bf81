package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/federation"
)

// waitForFed polls the federation snapshot until cond holds or the
// deadline passes.
func waitForFed(t *testing.T, svc *FedService, what string, cond func(*federation.FedSnapshot) bool) *federation.FedSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := svc.Snapshot()
		if cond(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; snapshot: now=%v pending=%d active=%d completed=%d",
				what, snap.Now, snap.Pending, snap.Active, snap.Completed)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFedServiceConcurrentClients is the shared-clock/snapshot race
// test: submitters, cancellers, and snapshot readers hammer the
// federated service from many goroutines while the event loop
// advances members. Run under -race (make race-short / make race) it
// proves the copy-on-publish FedSnapshot path and the single-owner
// federation loop share no unsynchronized state.
func TestFedServiceConcurrentClients(t *testing.T) {
	svc := newTestFedService(t, 2, Options{QueueDepth: 256})
	svc.Start()
	const (
		writers    = 4
		perWriter  = 10
		readers    = 3
		cancellers = 2
	)
	var wg sync.WaitGroup
	// Submitters: disjoint ID ranges, half keyed.
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				var err error
				if i%2 == 0 {
					_, _, err = svc.SubmitKeyed(fmt.Sprintf("w%d-%d", w, i), simpleJob(id, 1, 2000))
				} else {
					err = svc.Submit(simpleJob(id, 1, 2000))
				}
				var busy *BusyError
				if errors.As(err, &busy) {
					time.Sleep(busy.RetryAfter)
					i-- // retry the same submission
					continue
				}
				if err != nil {
					t.Errorf("submit %d: %v", id, err)
					return
				}
			}
		}()
	}
	// Cancellers: best-effort cancels racing the submitters; every
	// verdict (accepted, unknown, already finished) is legal.
	stop := make(chan struct{})
	for c := 0; c < cancellers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				_ = svc.Cancel(i % (writers * perWriter))
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Readers: walk every published snapshot's members and owners.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := svc.Snapshot()
				total := 0
				for i := range snap.Members {
					total += snap.Members[i].Snap.Completed + len(snap.Members[i].Snap.Active)
				}
				if total < 0 {
					t.Error("impossible snapshot")
					return
				}
				for id := range snap.Owners {
					if _, _, _, _, ok := snap.FindJob(id); !ok {
						t.Errorf("owned job %d not resolvable in its own snapshot", id)
						return
					}
				}
				_ = svc.Stats()
			}
		}()
	}
	waitForFed(t, svc, "all terminal", func(s *federation.FedSnapshot) bool {
		return s.Completed+s.Cancelled >= writers*perWriter
	})
	close(stop)
	wg.Wait()
	if _, err := svc.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}
