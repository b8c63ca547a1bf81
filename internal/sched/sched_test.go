package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
)

func testJob() *job.Job {
	return &job.Job{
		ID: 1, Model: "LSTM", Workers: 3, Epochs: 10, ItersPerEpoch: 10,
		Throughput: map[gpu.Type]float64{gpu.V100: 10, gpu.P100: 6, gpu.K80: 2},
	}
}

func testCluster() *cluster.Cluster {
	return cluster.New(
		gpu.Fleet{gpu.V100: 2},
		gpu.Fleet{gpu.P100: 2},
		gpu.Fleet{gpu.K80: 2},
	)
}

func TestRateBottleneck(t *testing.T) {
	j := testJob()
	c := testCluster()
	a := cluster.Alloc{
		{Node: 0, Type: gpu.V100, Count: 2},
		{Node: 2, Type: gpu.K80, Count: 1},
	}
	// Bottleneck is K80 at 2 iters/s; 3 workers -> 6 iters/s.
	if got := Rate(j, c, a); got != 6 {
		t.Errorf("Rate = %v, want 6", got)
	}
}

func TestRateEmptyAlloc(t *testing.T) {
	if got := Rate(testJob(), testCluster(), nil); got != 0 {
		t.Errorf("Rate(nil) = %v", got)
	}
}

func TestRateAppliesNodeSpeed(t *testing.T) {
	j := testJob()
	c := testCluster()
	c.SetSpeed(0, 0.5) // straggler node
	a := cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}, {Node: 1, Type: gpu.P100, Count: 1}}
	// V100 on straggler: 10*0.5=5 < P100 6 -> bottleneck 5, x3 workers.
	if got := Rate(j, c, a); got != 15 {
		t.Errorf("Rate with straggler = %v, want 15", got)
	}
}

func TestRateUnusableTypeIsZero(t *testing.T) {
	j := testJob()
	j.Throughput = map[gpu.Type]float64{gpu.V100: 10}
	c := testCluster()
	a := cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}, {Node: 2, Type: gpu.K80, Count: 1}}
	if got := Rate(j, c, a); got != 0 {
		t.Errorf("Rate with unusable type = %v, want 0", got)
	}
}

func TestValidateGang(t *testing.T) {
	j := testJob()
	if err := Validate(j, nil); err != nil {
		t.Errorf("empty alloc rejected: %v", err)
	}
	good := cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}, {Node: 1, Type: gpu.P100, Count: 1}}
	if err := Validate(j, good); err != nil {
		t.Errorf("gang-sized alloc rejected: %v", err)
	}
	bad := cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}}
	if err := Validate(j, bad); err == nil {
		t.Error("partial gang accepted")
	}
}

func TestValidateUnusableType(t *testing.T) {
	j := testJob()
	j.Throughput = map[gpu.Type]float64{gpu.V100: 10}
	a := cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}, {Node: 2, Type: gpu.K80, Count: 1}}
	if err := Validate(j, a); err == nil {
		t.Error("unusable type accepted")
	}
}

func TestPlaceSingleTypeConsolidates(t *testing.T) {
	c := cluster.New(
		gpu.Fleet{gpu.V100: 1},
		gpu.Fleet{gpu.V100: 4},
		gpu.Fleet{gpu.V100: 2},
	)
	st := cluster.NewState(c)
	a, ok := PlaceSingleType(st, gpu.V100, 4)
	if !ok {
		t.Fatal("placement failed")
	}
	if a.NumNodes() != 1 {
		t.Errorf("4 workers should consolidate on node 1: %v", a)
	}
	if a.Workers() != 4 {
		t.Errorf("Workers = %d", a.Workers())
	}
}

func TestPlaceSingleTypeSpills(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.V100: 2})
	st := cluster.NewState(c)
	a, ok := PlaceSingleType(st, gpu.V100, 3)
	if !ok {
		t.Fatal("placement failed")
	}
	if a.Workers() != 3 || a.NumNodes() != 2 {
		t.Errorf("spill placement wrong: %v", a)
	}
}

func TestPlaceSingleTypeInsufficient(t *testing.T) {
	st := cluster.NewState(cluster.New(gpu.Fleet{gpu.V100: 2}))
	if _, ok := PlaceSingleType(st, gpu.V100, 3); ok {
		t.Error("placement succeeded beyond capacity")
	}
	if _, ok := PlaceSingleType(st, gpu.K80, 1); ok {
		t.Error("placement succeeded for absent type")
	}
}

func TestPlaceSingleTypeDoesNotMutate(t *testing.T) {
	st := cluster.NewState(cluster.New(gpu.Fleet{gpu.V100: 2}))
	PlaceSingleType(st, gpu.V100, 2)
	if st.FreeOfType(gpu.V100) != 2 {
		t.Error("PlaceSingleType mutated state")
	}
}

func TestPlaceAnyTypePrefersOrder(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.P100: 2}, gpu.Fleet{gpu.K80: 2})
	st := cluster.NewState(c)
	a, ok := PlaceAnyType(st, []gpu.Type{gpu.V100, gpu.P100, gpu.K80}, 3)
	if !ok {
		t.Fatal("placement failed")
	}
	f := gpu.Fleet{}
	for _, p := range a {
		f[p.Type] += p.Count
	}
	if f[gpu.V100] != 2 || f[gpu.P100] != 1 || f[gpu.K80] != 0 {
		t.Errorf("preference order ignored: %v", f)
	}
}

func TestPlaceAnyTypeInsufficient(t *testing.T) {
	st := cluster.NewState(cluster.New(gpu.Fleet{gpu.V100: 1}))
	if _, ok := PlaceAnyType(st, []gpu.Type{gpu.V100}, 2); ok {
		t.Error("placement succeeded beyond capacity")
	}
}

func TestUsableTypesSortedByThroughput(t *testing.T) {
	types := UsableTypes(testJob())
	want := []gpu.Type{gpu.V100, gpu.P100, gpu.K80}
	if len(types) != 3 {
		t.Fatalf("UsableTypes = %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("UsableTypes = %v, want %v", types, want)
		}
	}
}

func TestJobStateDoneAndRunning(t *testing.T) {
	s := &JobState{Job: testJob(), Remaining: 100}
	if s.Done() || s.Running() {
		t.Error("fresh state reported done or running")
	}
	s.Remaining = 0
	s.Alloc = cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 3}}
	if !s.Done() || !s.Running() {
		t.Error("state transitions wrong")
	}
}

// Property: any successful PlaceSingleType allocation is gang-complete,
// fits within free capacity, and only uses the requested type.
func TestPlaceSingleTypeSoundProperty(t *testing.T) {
	c := cluster.New(
		gpu.Fleet{gpu.V100: 3, gpu.K80: 1},
		gpu.Fleet{gpu.V100: 2},
		gpu.Fleet{gpu.K80: 4},
	)
	prop := func(w uint8, typRaw uint8) bool {
		st := cluster.NewState(c)
		typ := []gpu.Type{gpu.V100, gpu.K80}[typRaw%2]
		want := int(w%8) + 1
		a, ok := PlaceSingleType(st, typ, want)
		if !ok {
			return st.FreeOfType(typ) < want
		}
		if a.Workers() != want {
			return false
		}
		for _, p := range a {
			if p.Type != typ {
				return false
			}
		}
		return st.CanAllocate(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: PlaceAnyType allocations are valid against the state.
func TestPlaceAnyTypeSoundProperty(t *testing.T) {
	c := cluster.New(
		gpu.Fleet{gpu.V100: 2, gpu.P100: 1},
		gpu.Fleet{gpu.K80: 3},
	)
	prop := func(w uint8) bool {
		st := cluster.NewState(c)
		want := int(w%10) + 1
		a, ok := PlaceAnyType(st, []gpu.Type{gpu.V100, gpu.P100, gpu.K80}, want)
		if !ok {
			return want > st.TotalFree()
		}
		return a.Workers() == want && st.CanAllocate(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
