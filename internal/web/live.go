package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// NewLiveServer serves the dashboard plus the live control API for a
// running scheduler service — a *service.Service over one engine or a
// *service.FedService over a federation. The Provider-backed pages (/,
// /jobs, /api/summary, SVGs) render the service's latest snapshot, one
// section per member for a federation, and the /api/jobs endpoints
// submit, cancel, and query jobs through the service's bounded
// admission queue. Federated bodies additionally name the job's owning
// member.
func NewLiveServer[S any](svc LiveService[S]) *Server {
	s := NewServerFrom(svc)
	live := &liveAPI[S]{svc: svc}
	s.mux.HandleFunc("GET /api/snapshot", live.handleSnapshot)
	s.mux.HandleFunc("POST /api/jobs", live.handleSubmit)
	s.mux.HandleFunc("GET /api/jobs/{id}", live.handleQuery)
	s.mux.HandleFunc("DELETE /api/jobs/{id}", live.handleCancel)
	return s
}

// LiveService is the service surface the control API drives:
// *service.Service or *service.FedService, whose published snapshot is
// *S (*sim.Snapshot or *federation.FedSnapshot).
type LiveService[S any] interface {
	Provider
	Submit(j *job.Job) error
	SubmitKeyed(key string, j *job.Job) (id int, deduped bool, err error)
	Cancel(id int) error
	NextID() int
	Snapshot() *S
	Stats() service.Stats
}

// liveAPI holds the mutating endpoints' shared state.
type liveAPI[S any] struct {
	svc LiveService[S]
}

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing useful left to do.
		_ = err
	}
}

// writeError maps a service error to an HTTP status: backpressure
// becomes 429 with a Retry-After hint, shutdown 503, anything else
// (validation, duplicate ID, unknown job) 400/404/409 per endpoint.
func writeError(w http.ResponseWriter, err error, fallback int) {
	var busy *service.BusyError
	var dead *service.DeadError
	switch {
	case errors.As(err, &busy):
		secs := int(busy.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.As(err, &dead):
		// The engine loop missed the verdict deadline: the request may
		// or may not have been applied, so the client should retry with
		// an idempotency key.
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case errors.Is(err, service.ErrStopped):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, fallback, map[string]string{"error": err.Error()})
	}
}

// snapshotResponse is the /api/snapshot body: the published snapshot's
// fields plus the service's admission counters under "stats".
type snapshotResponse[S any] struct {
	snap  *S
	stats service.Stats
}

// MarshalJSON splices "stats" into the snapshot's own JSON object.
func (r snapshotResponse[S]) MarshalJSON() ([]byte, error) {
	body, err := json.Marshal(r.snap)
	if err != nil {
		return nil, err
	}
	stats, err := json.Marshal(r.stats)
	if err != nil {
		return nil, err
	}
	body = append(body[:len(body)-1], `,"stats":`...)
	return append(append(body, stats...), '}'), nil
}

func (a *liveAPI[S]) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, snapshotResponse[S]{snap: a.svc.Snapshot(), stats: a.svc.Stats()})
}

// submitSpec is the POST /api/jobs body. The job is built from the
// workload catalog: Model selects the Table II entry, GPUHours the
// aggregate demand, Workers the gang size. ID is optional; omitted IDs
// are assigned from the service's range. Key is an optional
// idempotency key: retrying a submission with the same key — after a
// timeout, a 5xx, or a scheduler restart — returns the original job's
// ID instead of admitting a duplicate.
type submitSpec struct {
	ID       *int    `json:"id"`
	Key      string  `json:"key"`
	Model    string  `json:"model"`
	Workers  int     `json:"workers"`
	GPUHours float64 `json:"gpu_hours"`
}

// lookupModel finds a catalog entry by name.
func lookupModel(name string) (trace.ModelSpec, bool) {
	for _, spec := range trace.Catalog() {
		if spec.Name == name {
			return spec, true
		}
	}
	return trace.ModelSpec{}, false
}

func (a *liveAPI[S]) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec submitSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	model, ok := lookupModel(spec.Model)
	if !ok {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("unknown model %q (see the workload catalog)", spec.Model)})
		return
	}
	id := a.svc.NextID()
	if spec.ID != nil {
		id = *spec.ID
	}
	// Arrival 0 is in the engine's past; it clamps to the current
	// simulated time, i.e. "arrives now".
	j, err := trace.FromDemand(id, model, spec.Workers, spec.GPUHours, 0)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if spec.Key != "" {
		gotID, deduped, err := a.svc.SubmitKeyed(spec.Key, j)
		if err != nil {
			writeError(w, err, http.StatusConflict)
			return
		}
		status := http.StatusAccepted
		if deduped {
			// The key was already accepted (possibly before a crash);
			// report the original admission rather than a new one.
			status = http.StatusOK
		}
		writeJSON(w, status, map[string]any{"id": gotID, "name": j.Name, "deduped": deduped})
		return
	}
	if err := a.svc.Submit(j); err != nil {
		writeError(w, err, http.StatusConflict)
		return
	}
	body := map[string]any{"id": id, "name": j.Name}
	// A federation reports which member the router placed the job on:
	// useful for debugging routing policies from the command line.
	if fs, ok := any(a.svc.Snapshot()).(*federation.FedSnapshot); ok {
		body["member"] = fs.Owners[id]
	}
	writeJSON(w, http.StatusAccepted, body)
}

// queryResponse is the GET /api/jobs/{id} body: the lifecycle phase
// plus whichever detail exists — the live JobSnapshot for admitted
// jobs, the final JobResult for finished ones — and, in a federation,
// the owning member.
type queryResponse struct {
	ID     int                `json:"id"`
	Member string             `json:"member,omitempty"`
	Phase  string             `json:"phase"`
	Job    *sim.JobSnapshot   `json:"job,omitempty"`
	Result *metrics.JobResult `json:"result,omitempty"`
}

func jobID(r *http.Request) (int, error) {
	return strconv.Atoi(r.PathValue("id"))
}

// findJob resolves id against either published snapshot type; member
// is empty for a single engine.
func findJob(snap any, id int) (member, phase string, js *sim.JobSnapshot, res *metrics.JobResult, ok bool) {
	if fs, fed := snap.(*federation.FedSnapshot); fed {
		return fs.FindJob(id)
	}
	phase, js, res, ok = snap.(*sim.Snapshot).FindJob(id)
	return "", phase, js, res, ok
}

func (a *liveAPI[S]) handleQuery(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job id: " + err.Error()})
		return
	}
	member, phase, js, res, ok := findJob(a.svc.Snapshot(), id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown job %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{ID: id, Member: member, Phase: phase, Job: js, Result: res})
}

func (a *liveAPI[S]) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job id: " + err.Error()})
		return
	}
	if err := a.svc.Cancel(id); err != nil {
		writeError(w, err, http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelled": true})
}
