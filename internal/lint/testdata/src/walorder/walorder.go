// Package walorder exercises the apply->append->reply ordering check
// at journaling sites: an applied request must hit the WAL before its
// reply is sent, with error-branch and nil-journal replies exempt.
package walorder

// Engine is the applied state. An Engine is not safe for concurrent
// use; the service loop owns it.
type Engine struct{ n int }

// Apply mutates the engine.
func (e *Engine) Apply(x int) error {
	e.n += x
	return nil
}

// Journal is the write-ahead log.
type Journal struct{ recs []int }

// Append journals one record.
func (j *Journal) Append(x int) error {
	j.recs = append(j.recs, x)
	return nil
}

// request carries a reply channel.
type request struct {
	x     int
	reply chan error
}

// Server owns the engine and an optional journal.
type Server struct {
	eng     *Engine
	journal *Journal
}

// HandleGood follows the contract: apply, then append, then reply.
// The error replies and the nil-journal reply are the protocol, not
// violations.
func (s *Server) HandleGood(r request) {
	if err := s.eng.Apply(r.x); err != nil {
		r.reply <- err
		return
	}
	if s.journal == nil {
		r.reply <- nil
		return
	}
	if err := s.journal.Append(r.x); err != nil {
		r.reply <- err
		return
	}
	r.reply <- nil
}

// HandleBad acknowledges before the append: after a crash the log
// cannot replay the state the client was told is durable.
func (s *Server) HandleBad(r request) {
	if err := s.eng.Apply(r.x); err != nil {
		r.reply <- err
		return
	}
	r.reply <- nil // want "walorder: reply sent before WAL append"
	_ = s.journal.Append(r.x)
}

// HandleBadHelper hides the premature reply behind a helper; the
// bounded inlining still sees it.
func (s *Server) HandleBadHelper(r request) {
	if err := s.eng.Apply(r.x); err != nil {
		r.reply <- err
		return
	}
	s.ack(r)
	_ = s.journal.Append(r.x)
}

// ack replies on the request's channel.
func (s *Server) ack(r request) {
	r.reply <- nil // want "walorder: reply sent before WAL append"
}

// stepper is the contract a generic serving loop drives; *Engine
// satisfies it, so calls through it apply guarded state.
type stepper interface {
	Apply(x int) error
}

// Loop drives its engine only through the stepper interface.
type Loop[S any] struct {
	eng     stepper
	journal *Journal
	last    *S
}

// HandleGood follows the contract through interface dispatch.
func (l *Loop[S]) HandleGood(r request) {
	if err := l.eng.Apply(r.x); err != nil {
		r.reply <- err
		return
	}
	if l.journal == nil {
		r.reply <- nil
		return
	}
	if err := l.journal.Append(r.x); err != nil {
		r.reply <- err
		return
	}
	r.reply <- nil
}

// HandleBad acknowledges before the append; the apply is a dynamic
// call, resolved to Engine.Apply.
func (l *Loop[S]) HandleBad(r request) {
	if err := l.eng.Apply(r.x); err != nil {
		r.reply <- err
		return
	}
	r.reply <- nil // want "walorder: reply sent before WAL append"
	_ = l.journal.Append(r.x)
}
