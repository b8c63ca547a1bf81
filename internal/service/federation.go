package service

import (
	"errors"

	"repro/internal/federation"
	"repro/internal/metrics"
)

// FedService serves a federation.Federation on the same loop as
// Service: the router picks each submission's owning member at the
// front door, cancels are forwarded to the owner, and readers get
// immutable FedSnapshots. A federation has no journal, so every
// verdict is released as soon as it is applied. Create with NewFed,
// then Start; all exported methods are safe for concurrent use.
type FedService struct {
	loop[federation.FedSnapshot, federation.Report]
}

// NewFed builds a service over fed, which the service owns from here
// on. opts.Sim does not apply (members carry their own engine options)
// and opts.WAL must be nil. The service is inert until Start; requests
// submitted before Start wait in the admission queue.
func NewFed(fed *federation.Federation, opts Options) (*FedService, error) {
	if opts.WAL != nil {
		return nil, errors.New("service: a federation has no write-ahead journal")
	}
	s := &FedService{}
	s.init(fed, opts, make(map[string]int))
	s.nextID.Store(1 << 20)
	s.snap.Store(fed.Snapshot())
	return s, nil
}

// Order implements the web dashboard's Provider interface: one entry
// per member, in member order.
func (s *FedService) Order() []string {
	snap := s.snap.Load()
	names := make([]string, 0, len(snap.Members))
	for i := range snap.Members {
		names = append(names, snap.Members[i].Name)
	}
	return names
}

// Report implements the Provider interface: the named member's
// in-progress report from the latest snapshot.
func (s *FedService) Report(name string) (*metrics.Report, bool) {
	m := s.snap.Load().Member(name)
	if m == nil {
		return nil, false
	}
	return m.Report, true
}
