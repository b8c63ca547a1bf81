package cluster

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/bug"
	"repro/internal/gpu"
)

// State tracks free accelerators per (node, type) against a cluster's
// capacities. It is the working object schedulers allocate from and the
// simulator validates against.
//
// Free counts live in one flat []int32 indexed by node*gpu.NumTypes+type,
// with cluster-wide per-type and total free counters and a 64-bit
// Zobrist-style hash all maintained incrementally, so the scheduling
// inner loop reads and memoizes allocation state without touching maps
// or allocating.
//
// State additionally offers a transactional API for speculative
// allocation (Hadar's DP branches on allocate-vs-skip thousands of times
// per round): Savepoint opens a transaction, Rollback undoes every
// Allocate/Release since the matching Savepoint, and Commit keeps them.
// Savepoints nest with stack discipline — the most recent open savepoint
// must be rolled back or committed first. A State is not safe for
// concurrent use.
type State struct {
	c      *Cluster
	free   []int32 // node*gpu.NumTypes + type
	cap    []int32 // same layout; immutable after NewState
	byType [gpu.NumTypes]int
	total  int
	hash   uint64

	// nz[t] is a bitmap over node IDs (64 nodes per word, bit order =
	// node order) of the nodes with free[node,t] > 0, and byFree[t][f] is
	// a bitmap of the nodes with exactly f free devices of t
	// (1 <= f <= the type's largest per-node capacity). Together they
	// serve the placement scans — ascending-node free lists and the
	// consolidation order (free descending, node ascending) — without
	// touching nodes that have nothing free and without sorting.
	nz     [gpu.NumTypes][]uint64
	byFree [gpu.NumTypes][][]uint64

	// uniformCap[t] is the common per-node capacity of type t when every
	// node holding the type has the same capacity, -1 when capacities
	// are mixed, and 0 when no node has the type. Immutable after
	// NewState.
	uniformCap [gpu.NumTypes]int32

	// Undo journal, recorded only while at least one savepoint is open.
	journal []journalEntry
	marks   []int // journal length at each open savepoint

	scratch []NodeFree // reusable placement-scan buffer
}

type journalEntry struct {
	cell  int32
	delta int32
}

const stride = int(gpu.NumTypes)

// cellHash returns the Zobrist key of one (cell, count) pair: a
// splitmix64-finalized mix of the flat cell index and its free count.
// The state hash is the XOR of cellHash over all cells, so any single
// count change updates it with two XORs.
func cellHash(cell int, count int32) uint64 {
	x := uint64(cell)<<32 ^ uint64(uint32(count))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewState returns a fully free state for the cluster.
func NewState(c *Cluster) *State {
	n := c.NumNodes() * stride
	s := &State{c: c, free: make([]int32, n), cap: make([]int32, n)}
	var maxCap [gpu.NumTypes]int32
	for i, node := range c.nodes {
		for t := gpu.Type(0); t < gpu.NumTypes; t++ {
			count := node.Capacity[t]
			if count == 0 {
				continue
			}
			cell := i*stride + int(t)
			s.free[cell] = int32(count)
			s.cap[cell] = int32(count)
			s.byType[t] += count
			s.total += count
			if int32(count) > maxCap[t] {
				maxCap[t] = int32(count)
			}
			switch {
			case s.uniformCap[t] == 0:
				s.uniformCap[t] = int32(count)
			case s.uniformCap[t] != int32(count):
				s.uniformCap[t] = -1
			}
		}
	}
	for cell, f := range s.free {
		s.hash ^= cellHash(cell, f)
	}
	words := (c.NumNodes() + 63) / 64
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		if maxCap[t] == 0 {
			continue
		}
		s.nz[t] = make([]uint64, words)
		s.byFree[t] = make([][]uint64, maxCap[t]+1)
		for f := int32(1); f <= maxCap[t]; f++ {
			s.byFree[t][f] = make([]uint64, words)
		}
		for node := 0; node < c.NumNodes(); node++ {
			if f := s.free[node*stride+int(t)]; f > 0 {
				s.nz[t][node>>6] |= 1 << uint(node&63)
				s.byFree[t][f][node>>6] |= 1 << uint(node&63)
			}
		}
	}
	return s
}

// Cluster returns the cluster this state tracks.
func (s *State) Cluster() *Cluster { return s.c }

// Free returns the free accelerator count on node id of type t.
func (s *State) Free(id int, t gpu.Type) int { return int(s.free[id*stride+int(t)]) }

// FreeOfType returns the cluster-wide free count of type t.
func (s *State) FreeOfType(t gpu.Type) int { return s.byType[t] }

// TotalFree returns the cluster-wide free count across all types.
func (s *State) TotalFree() int { return s.total }

// Hash returns the incremental 64-bit signature of the free state. Two
// states over same-shaped clusters with identical free counts hash
// equal; unequal states collide with probability ~2^-64. It replaces
// the string Key as the memoization key in Hadar's DP subroutine.
func (s *State) Hash() uint64 { return s.hash }

// Capacity returns node id's capacity of type t, read from the state's
// flat table rather than the node's fleet map.
func (s *State) Capacity(id int, t gpu.Type) int { return int(s.cap[id*stride+int(t)]) }

// UniformCap returns the common per-node capacity of type t when every
// node holding the type has the same capacity, -1 when capacities are
// mixed, and 0 when no node has the type.
func (s *State) UniformCap(t gpu.Type) int { return int(s.uniformCap[t]) }

// NodeFree pairs a node ID with a free device count, for placement
// scans.
type NodeFree struct {
	Node int
	Free int
}

// FreeNodes appends to buf the nodes holding free devices of type t, in
// ascending node order, and returns the extended slice. Pass a reused
// buffer (or the state's Scratch) to keep scans allocation-free. The
// scan walks the non-zero bitmap, so its cost is proportional to the
// nodes that actually hold the type free, not the cluster size.
func (s *State) FreeNodes(t gpu.Type, buf []NodeFree) []NodeFree {
	if s.byType[t] == 0 {
		return buf
	}
	for w, word := range s.nz[t] {
		base := w << 6
		for word != 0 {
			n := base + bits.TrailingZeros64(word)
			word &= word - 1
			buf = append(buf, NodeFree{Node: n, Free: int(s.free[n*stride+int(t)])})
		}
	}
	return buf
}

// AppendFreeNodesByFreeDesc appends to buf up to maxNodes nodes holding
// free devices of type t in consolidation order — free count
// descending, ties by ascending node ID — and returns the extended
// slice. maxNodes <= 0 means no limit. The scan walks the per-count
// bucket bitmaps from fullest to emptiest, so no sort happens; a
// consumer placing need devices can pass maxNodes = need, because every
// listed node contributes at least one device.
func (s *State) AppendFreeNodesByFreeDesc(t gpu.Type, maxNodes int, buf []NodeFree) []NodeFree {
	if s.byType[t] == 0 {
		return buf
	}
	appended := 0
	buckets := s.byFree[t]
	for f := len(buckets) - 1; f >= 1; f-- {
		for w, word := range buckets[f] {
			base := w << 6
			for word != 0 {
				n := base + bits.TrailingZeros64(word)
				word &= word - 1
				buf = append(buf, NodeFree{Node: n, Free: f})
				if appended++; maxNodes > 0 && appended >= maxNodes {
					return buf
				}
			}
		}
	}
	return buf
}

// Scratch returns the state's internal placement-scan buffer, emptied.
// The buffer is shared: it is invalidated by the next Scratch call on
// this state, so callers must finish with it before handing the state
// to other placement code.
func (s *State) Scratch() []NodeFree {
	if s.scratch == nil {
		s.scratch = make([]NodeFree, 0, s.c.NumNodes())
	}
	return s.scratch[:0]
}

// setFree moves one cell from old to now free devices, maintaining the
// hash and the bitmap indexes. Both apply and undo route through it.
func (s *State) setFree(cell int, old, now int32) {
	s.hash ^= cellHash(cell, old) ^ cellHash(cell, now)
	s.free[cell] = now
	t := cell % stride
	node := cell / stride
	word, bit := node>>6, uint(node&63)
	if old > 0 {
		s.byFree[t][old][word] &^= 1 << bit
	}
	if now > 0 {
		s.byFree[t][now][word] |= 1 << bit
		s.nz[t][word] |= 1 << bit
	} else {
		s.nz[t][word] &^= 1 << bit
	}
}

// apply changes one cell by delta, maintaining the counters, the hash,
// the indexes, and (inside a transaction) the undo journal.
func (s *State) apply(cell int, delta int32) {
	old := s.free[cell]
	s.setFree(cell, old, old+delta)
	s.byType[cell%stride] += int(delta)
	s.total += int(delta)
	if len(s.marks) > 0 {
		s.journal = append(s.journal, journalEntry{cell: int32(cell), delta: delta})
	}
}

// undo reverses one journal entry without re-journaling it.
func (s *State) undo(e journalEntry) {
	cell := int(e.cell)
	old := s.free[cell]
	s.setFree(cell, old, old-e.delta)
	s.byType[cell%stride] -= int(e.delta)
	s.total -= int(e.delta)
}

// Savepoint opens a transaction and returns its token for Rollback or
// Commit. Savepoints nest; close the innermost first.
func (s *State) Savepoint() int {
	s.marks = append(s.marks, len(s.journal))
	return len(s.marks) - 1
}

// Rollback undoes every Allocate/Release since the savepoint and closes
// it (and any savepoint nested inside it). It panics on an already
// closed token, which indicates broken stack discipline.
func (s *State) Rollback(sp int) {
	if sp >= len(s.marks) {
		bug.Failf("cluster: rollback of closed savepoint %d (open: %d)", sp, len(s.marks))
	}
	mark := s.marks[sp]
	for i := len(s.journal) - 1; i >= mark; i-- {
		s.undo(s.journal[i])
	}
	s.journal = s.journal[:mark]
	s.marks = s.marks[:sp]
}

// Commit keeps every change since the savepoint and closes it (and any
// savepoint nested inside it). Changes remain undoable by an enclosing
// savepoint. It panics on an already closed token.
func (s *State) Commit(sp int) {
	if sp >= len(s.marks) {
		bug.Failf("cluster: commit of closed savepoint %d (open: %d)", sp, len(s.marks))
	}
	s.marks = s.marks[:sp]
	if len(s.marks) == 0 {
		s.journal = s.journal[:0]
	}
}

// Allocate removes the allocation's accelerators from the free pool. It
// returns an error (and leaves the state unchanged) if any placement
// exceeds the free count or names an invalid node or type.
func (s *State) Allocate(a Alloc) error {
	sp := s.Savepoint()
	for _, p := range a {
		if p.Count <= 0 {
			continue
		}
		if p.Node < 0 || p.Node >= s.c.NumNodes() {
			s.Rollback(sp)
			return fmt.Errorf("cluster: placement on invalid node %d", p.Node)
		}
		if !p.Type.Valid() {
			s.Rollback(sp)
			return fmt.Errorf("cluster: placement with invalid type %v", p.Type)
		}
		cell := p.Node*stride + int(p.Type)
		if int(s.free[cell]) < p.Count {
			err := fmt.Errorf("cluster: node %d has %d free %s, need %d",
				p.Node, s.free[cell], p.Type, p.Count)
			s.Rollback(sp)
			return err
		}
		s.apply(cell, int32(-p.Count))
	}
	s.Commit(sp)
	return nil
}

// Release returns the allocation's accelerators to the free pool. It
// returns an error (and leaves the state unchanged) if releasing would
// exceed a node's capacity, which indicates double-release.
func (s *State) Release(a Alloc) error {
	sp := s.Savepoint()
	for _, p := range a {
		if p.Count <= 0 {
			continue
		}
		if p.Node < 0 || p.Node >= s.c.NumNodes() {
			s.Rollback(sp)
			return fmt.Errorf("cluster: release on invalid node %d", p.Node)
		}
		if !p.Type.Valid() {
			s.Rollback(sp)
			return fmt.Errorf("cluster: release with invalid type %v", p.Type)
		}
		cell := p.Node*stride + int(p.Type)
		if int(s.free[cell])+p.Count > int(s.cap[cell]) {
			s.Rollback(sp)
			return fmt.Errorf("cluster: release of %d %s on node %d exceeds capacity",
				p.Count, p.Type, p.Node)
		}
		s.apply(cell, int32(p.Count))
	}
	s.Commit(sp)
	return nil
}

// CanAllocate reports whether the allocation fits the current free
// state, without changing it.
func (s *State) CanAllocate(a Alloc) bool {
	sp := s.Savepoint()
	err := s.Allocate(a)
	if err == nil {
		s.Rollback(sp)
	} else {
		s.Commit(sp) // nothing applied; just close the savepoint
	}
	return err == nil
}

// Key returns a compact canonical signature of the free state. Hash is
// the cheaper replacement for hot paths; Key remains for debugging and
// collision-free comparisons.
func (s *State) Key() string {
	var sb strings.Builder
	sb.Grow(len(s.free) + s.c.NumNodes())
	for i, c := range s.free {
		// Free counts are small non-negative ints; a byte-ish varint
		// keeps the key short. Counts >= 250 spill to two bytes.
		if c < 250 {
			sb.WriteByte(byte(c))
		} else {
			sb.WriteByte(250 + byte(c/250))
			sb.WriteByte(byte(c % 250))
		}
		if (i+1)%stride == 0 {
			sb.WriteByte('|')
		}
	}
	return sb.String()
}
