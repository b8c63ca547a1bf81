package federation

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// MemberSnapshot is one member's frozen view inside a FedSnapshot.
type MemberSnapshot struct {
	// Name labels the member; Snap is the member engine's immutable
	// copy-on-publish snapshot.
	Name string        `json:"name"`
	Snap *sim.Snapshot `json:"snapshot"`
}

// FedSnapshot is an immutable point-in-time view of the whole
// federation, built by copy-on-publish from the member snapshots: every
// field is a value or a deep copy, so a published *FedSnapshot can be
// read from any goroutine without synchronization while the federation
// keeps stepping. The aggregate fields are sums/maxima over members;
// the member detail is retained for per-region dashboards.
type FedSnapshot struct {
	// Now is the shared clock (the furthest any member has advanced);
	// Router names the routing policy.
	Now    float64 `json:"now_s"`
	Router string  `json:"router"`
	// Members holds one snapshot per member, in member order.
	Members []MemberSnapshot `json:"members"`
	// TotalGPUs and HeldGPUs aggregate the member fleets and their
	// most recent round's held devices.
	TotalGPUs int `json:"total_gpus"`
	HeldGPUs  int `json:"held_gpus"`
	// Pending, Active, Completed, and Cancelled are federation-wide
	// job counts.
	Pending   int `json:"pending"`
	Active    int `json:"active"`
	Completed int `json:"completed"`
	Cancelled int `json:"cancelled"`
	// Digest is the federation digest: the member engine digests
	// folded in member order (see Federation.Digest).
	Digest uint64 `json:"digest"`
	// Owners maps every submitted job ID to its owning member's name,
	// so status queries route without touching the federation.
	Owners map[int]string `json:"owners,omitempty"`
}

// FreeGPUs is the devices not held in the most recent member rounds.
func (s *FedSnapshot) FreeGPUs() int { return s.TotalGPUs - s.HeldGPUs }

// Member returns the named member's snapshot, or nil.
func (s *FedSnapshot) Member(name string) *sim.Snapshot {
	for i := range s.Members {
		if s.Members[i].Name == name {
			return s.Members[i].Snap
		}
	}
	return nil
}

// FindJob resolves a job ID against the snapshot: the owning member's
// name, the job's lifecycle phase, its live detail when active, and
// its final result when finished. ok is false for IDs the federation
// never accepted.
func (s *FedSnapshot) FindJob(id int) (member, phase string, js *sim.JobSnapshot, res *metrics.JobResult, ok bool) {
	member, ok = s.Owners[id]
	if !ok {
		return "", "", nil, nil, false
	}
	snap := s.Member(member)
	if snap == nil {
		return member, "", nil, nil, true
	}
	phase, js, res, _ = snap.FindJob(id)
	return member, phase, js, res, true
}

// Snapshot publishes an immutable view of the federation. It must be
// called from the goroutine driving the federation (between steps);
// the returned value may then be shared freely.
func (f *Federation) Snapshot() *FedSnapshot {
	snap := &FedSnapshot{
		Now:    f.Now(),
		Router: f.router.Name(),
		Digest: f.Digest(),
	}
	for _, m := range f.members {
		ms := m.eng.Snapshot()
		snap.Members = append(snap.Members, MemberSnapshot{Name: m.name, Snap: ms})
		snap.TotalGPUs += ms.TotalGPUs
		snap.HeldGPUs += ms.HeldGPUs
		snap.Pending += ms.Pending
		snap.Active += len(ms.Active)
		snap.Completed += ms.Completed
		snap.Cancelled += ms.Cancelled
	}
	// Fill owners from the submission-ordered job list, not the owner
	// map, so the copy is deterministic.
	snap.Owners = make(map[int]string, len(f.jobs))
	for _, j := range f.jobs {
		snap.Owners[j.ID] = f.members[f.owner[j.ID]].name
	}
	return snap
}
