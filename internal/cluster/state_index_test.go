package cluster

import (
	"testing"

	"repro/internal/gpu"
)

// TestUniformCap checks the per-type capacity classification on a
// deliberately mixed cluster.
func TestUniformCap(t *testing.T) {
	// scriptCluster: V100 caps {4, 4} (nodes 0, 1), P100 caps {2, 3},
	// K80 cap {1}, T4 cap {2}, K520 cap {4}.
	s := NewState(scriptCluster())
	cases := []struct {
		t    gpu.Type
		want int
	}{
		{gpu.V100, 4},
		{gpu.P100, -1},
		{gpu.K80, 1},
		{gpu.T4, 2},
		{gpu.K520, 4},
	}
	for _, c := range cases {
		if got := s.UniformCap(c.t); got != c.want {
			t.Errorf("UniformCap(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

// TestCapacityMatchesCluster checks the flat capacity accessor the
// price lookups read against the cluster's fleet maps.
func TestCapacityMatchesCluster(t *testing.T) {
	c := scriptCluster()
	s := NewState(c)
	for node := 0; node < c.NumNodes(); node++ {
		for typ := gpu.Type(0); typ < gpu.NumTypes; typ++ {
			if got, want := s.Capacity(node, typ), c.Capacity(node, typ); got != want {
				t.Errorf("Capacity(%d, %v) = %d, want %d", node, typ, got, want)
			}
		}
	}
}

// TestUniformSpeed covers the straggler classification New/SetSpeed
// feed into the placement fast paths.
func TestUniformSpeed(t *testing.T) {
	c := scriptCluster()
	if !c.UniformSpeed() {
		t.Fatal("freshly built cluster must be uniform speed")
	}
	c.SetSpeed(2, 0.5)
	if c.UniformSpeed() {
		t.Fatal("cluster with a straggler reported uniform speed")
	}
	c.SetSpeed(2, 1.0)
	if !c.UniformSpeed() {
		t.Fatal("restored cluster must be uniform speed again")
	}
}
