package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/sched"
)

// TestTimedSchedulerIsFaithful checks that the traced run's wrapper is a
// full stand-in for core.Scheduler: it exposes the interfaces the
// oracle looks for, and on seed 1 of paper-static it produces the same
// schedule digest as the bare scheduler.
func TestTimedSchedulerIsFaithful(t *testing.T) {
	var s sched.Scheduler = newTimedScheduler(newRecorder())
	if _, ok := s.(invariant.PriceReporter); !ok {
		t.Error("timedScheduler does not implement invariant.PriceReporter")
	}
	if _, ok := s.(invariant.InconsistencyCounter); !ok {
		t.Error("timedScheduler does not implement invariant.InconsistencyCounter")
	}
	if s.Name() != "hadar" {
		t.Errorf("Name() = %q, want hadar", s.Name())
	}

	const want = 0x7c16584a99c62b3b
	cfg := paperStatic(4)
	bare := runPass(cfg, 1, false, nil, 0, 1)
	rec := newRecorder()
	wrapped := runPass(cfg, 1, true, rec, 0, 1)
	for name, p := range map[string]pass{"bare": bare, "wrapped+validated": wrapped} {
		if p.err != nil {
			t.Fatalf("%s pass: %v", name, p.err)
		}
		if p.digest != want {
			t.Errorf("%s pass digest = %016x, want %016x", name, p.digest, uint64(want))
		}
	}
	steps, calls := rec.named("round"), rec.named("core.schedule")
	if len(steps) != len(wrapped.rounds) || len(calls) == 0 {
		t.Fatalf("recorded %d round and %d core.schedule spans over %d rounds",
			len(steps), len(calls), len(wrapped.rounds))
	}
	if got := sum(durations(steps)) - rec.selfTime("round"); got != sum(durations(calls)) {
		t.Errorf("round time minus self time = %v, core.schedule busy = %v", got, sum(durations(calls)))
	}
}

// TestCoveredMergesOverlaps checks self-time accounting on overlapping
// and out-of-range children.
func TestCoveredMergesOverlaps(t *testing.T) {
	parent := span{Start: 10, End: 100}
	kids := []span{
		{Start: 50, End: 70},
		{Start: 20, End: 30},
		{Start: 25, End: 40},
		{Start: 90, End: 120}, // clipped to the parent
		{Start: 0, End: 5},    // outside the parent
	}
	if got, want := covered(parent, kids), time.Duration(20+20+10); got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %v, want 0", got)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric lists the program
// prints equal to the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program reports %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's catalogue")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !reflect.DeepEqual(names, got) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, got)
	}
}
