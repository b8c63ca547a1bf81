package web

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/policy"
	"repro/internal/service"
	"repro/internal/sim"
)

// liveMode is one serving mode the HTTP contract is pinned against:
// a single engine, or a 2-member least-queue federation.
type liveMode struct {
	name string
	fed  bool
}

var liveModes = []liveMode{{name: "engine"}, {name: "federation", fed: true}}

// forEachMode runs the test body once per serving mode.
func forEachMode(t *testing.T, body func(t *testing.T, m liveMode)) {
	for _, m := range liveModes {
		t.Run(m.name, func(t *testing.T) { body(t, m) })
	}
}

// serveLive builds the mode's service from opts (with the invariant
// oracle on), starts it unless start is false, and serves its control
// API on a test listener.
func serveLive(t *testing.T, m liveMode, opts service.Options, start bool) *httptest.Server {
	t.Helper()
	opts.Sim = sim.ValidatedOptions()
	var (
		h    http.Handler
		stop func()
	)
	if m.fed {
		svc := newFedService(t, 2, opts)
		if start {
			svc.Start()
		}
		h, stop = NewLiveServer(svc).Handler(), func() { svc.Stop() }
	} else {
		svc, err := service.New(experiments.SimCluster(), policy.New(policy.SRTF, true), opts)
		if err != nil {
			t.Fatal(err)
		}
		if start {
			svc.Start()
		}
		h, stop = NewLiveServer(svc).Handler(), func() { svc.Stop() }
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		stop()
	})
	return ts
}

// newFedService builds a validated least-queue federation of n
// simulated clusters behind a federated service.
func newFedService(t *testing.T, n int, opts service.Options) *service.FedService {
	t.Helper()
	configs := make([]federation.MemberConfig, n)
	for i := range configs {
		configs[i] = federation.MemberConfig{
			Name:      fmt.Sprintf("region%d", i),
			Cluster:   experiments.SimCluster(),
			Scheduler: policy.New(policy.SRTF, true),
			Sim:       sim.ValidatedOptions(),
		}
	}
	router, err := federation.NewRouter("least-queue")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.New(configs, router, federation.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.NewFed(fed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func do(t *testing.T, method, url string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// waitJSON polls GET url until cond holds on the decoded body.
func waitJSON(t *testing.T, url, what string, cond func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, out := do(t, http.MethodGet, url)
		if cond(out) {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; last body %v", what, out)
		}
		time.Sleep(time.Millisecond)
	}
}

// wantKeys asserts a JSON object has exactly the given top-level keys.
func wantKeys(t *testing.T, what string, body map[string]any, keys ...string) {
	t.Helper()
	got := make([]string, 0, len(body))
	for k := range body {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(keys)
	if strings.Join(got, ",") != strings.Join(keys, ",") {
		t.Errorf("%s keys = %v, want %v", what, got, keys)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestLiveSubmitQueryCancel walks a job through submit, query, cancel
// and a second (conflicting) cancel, pinning each body's keys: only a
// federation names the owning member.
func TestLiveSubmitQueryCancel(t *testing.T) {
	forEachMode(t, func(t *testing.T, m liveMode) {
		ts := serveLive(t, m, service.Options{}, true)

		resp, out := postJSON(t, ts.URL+"/api/jobs", `{"model": "ResNet-50", "workers": 2, "gpu_hours": 50000}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d, body %v", resp.StatusCode, out)
		}
		if m.fed {
			wantKeys(t, "submit", out, "id", "name", "member")
		} else {
			wantKeys(t, "submit", out, "id", "name")
		}
		id := int(out["id"].(float64))
		if id < 1<<20 {
			t.Errorf("auto-assigned ID %d not in the service range", id)
		}

		// The engine admits the job at the next boundary; wait for it.
		out = waitJSON(t, ts.URL+"/api/jobs/"+itoa(id), "job active", func(b map[string]any) bool {
			return b["phase"] == "active"
		})
		if m.fed {
			wantKeys(t, "query", out, "id", "member", "phase", "job")
		} else {
			wantKeys(t, "query", out, "id", "phase", "job")
		}

		resp, out = do(t, http.MethodDelete, ts.URL+"/api/jobs/"+itoa(id))
		if resp.StatusCode != http.StatusOK || out["cancelled"] != true {
			t.Fatalf("cancel status = %d, body %v", resp.StatusCode, out)
		}
		wantKeys(t, "cancel", out, "id", "cancelled")
		// Double cancel is a client error.
		resp, out = do(t, http.MethodDelete, ts.URL+"/api/jobs/"+itoa(id))
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("double cancel status = %d, want 409", resp.StatusCode)
		}
		wantKeys(t, "double cancel", out, "error")
	})
}

func TestLiveSubmitRejectsBadSpecs(t *testing.T) {
	forEachMode(t, func(t *testing.T, m liveMode) {
		ts := serveLive(t, m, service.Options{}, true)
		for _, body := range []string{
			`{"model": "NoSuchNet", "workers": 1, "gpu_hours": 1}`,
			`{"model": "ResNet-50", "workers": 0, "gpu_hours": 1}`,
			`not json`,
		} {
			resp, out := postJSON(t, ts.URL+"/api/jobs", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("submit %q status = %d, body %v; want 400", body, resp.StatusCode, out)
			}
			wantKeys(t, "bad submit", out, "error")
		}
		resp, _ := do(t, http.MethodGet, ts.URL+"/api/jobs/999999999")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job query status = %d, want 404", resp.StatusCode)
		}
		resp, _ = do(t, http.MethodGet, ts.URL+"/api/jobs/notanumber")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed id status = %d, want 400", resp.StatusCode)
		}
	})
}

// TestLiveSnapshotAndSummary pins /api/snapshot's keys per mode and
// checks the Provider-backed summary and dashboard serve live reports.
func TestLiveSnapshotAndSummary(t *testing.T) {
	forEachMode(t, func(t *testing.T, m liveMode) {
		ts := serveLive(t, m, service.Options{}, true)
		resp, out := postJSON(t, ts.URL+"/api/jobs", `{"id": 7, "model": "LSTM", "workers": 1, "gpu_hours": 0.05}`)
		if resp.StatusCode != http.StatusAccepted || out["id"].(float64) != 7 {
			t.Fatalf("submit status = %d, body %v", resp.StatusCode, out)
		}
		snap := waitJSON(t, ts.URL+"/api/snapshot", "job 7 completed", func(b map[string]any) bool {
			return b["completed"].(float64) == 1
		})
		common := []string{"now_s", "total_gpus", "held_gpus", "pending", "active", "completed", "cancelled", "digest", "stats"}
		if m.fed {
			wantKeys(t, "snapshot", snap, append(common, "router", "members", "owners")...)
		} else {
			wantKeys(t, "snapshot", snap, append(common, "round", "scheduler", "phases")...)
		}
		stats, ok := snap["stats"].(map[string]any)
		if !ok || stats["accepted"].(float64) != 1 {
			t.Errorf("snapshot stats = %v, want accepted=1", snap["stats"])
		}

		// The Provider-backed summary serves one live report per
		// scheduler: one for an engine, one per member for a federation.
		res, err := http.Get(ts.URL + "/api/summary")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var summary []map[string]any
		if err := json.NewDecoder(res.Body).Decode(&summary); err != nil {
			t.Fatal(err)
		}
		wantEntries := 1
		if m.fed {
			wantEntries = 2
		}
		jobs := 0
		for _, e := range summary {
			jobs += int(e["jobs"].(float64))
		}
		if len(summary) != wantEntries || jobs != 1 {
			t.Errorf("live summary = %v, want %d entries holding one job", summary, wantEntries)
		}

		// The HTML dashboard renders from the same provider.
		res, err = http.Get(ts.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Errorf("live index status = %d", res.StatusCode)
		}
	})
}

// TestLiveSubmitIdempotencyKey: posting the same key twice admits one
// job and answers the retry with the original ID (202, then 200 with
// deduped). Keyed bodies carry no member in either mode.
func TestLiveSubmitIdempotencyKey(t *testing.T) {
	forEachMode(t, func(t *testing.T, m liveMode) {
		ts := serveLive(t, m, service.Options{}, true)
		body := `{"key": "retry-me", "model": "ResNet-50", "workers": 1, "gpu_hours": 50000}`

		resp, out := postJSON(t, ts.URL+"/api/jobs", body)
		if resp.StatusCode != http.StatusAccepted || out["deduped"] != false {
			t.Fatalf("first keyed submit status = %d, body %v", resp.StatusCode, out)
		}
		wantKeys(t, "keyed submit", out, "id", "name", "deduped")
		id := int(out["id"].(float64))

		resp, out = postJSON(t, ts.URL+"/api/jobs", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("retried keyed submit status = %d, want 200; body %v", resp.StatusCode, out)
		}
		if out["deduped"] != true || int(out["id"].(float64)) != id {
			t.Errorf("retry body = %v, want deduped=true id=%d", out, id)
		}
		_, snap := do(t, http.MethodGet, ts.URL+"/api/snapshot")
		stats := snap["stats"].(map[string]any)
		if stats["accepted"].(float64) != 1 || stats["deduped"].(float64) != 1 {
			t.Errorf("stats = %v, want 1 accepted + 1 deduped", stats)
		}
	})
}

// TestLiveBusyMapsTo429WithRetryAfter fills the admission queue of an
// unstarted service and checks backpressure surfaces as HTTP 429 with
// a parseable Retry-After header.
func TestLiveBusyMapsTo429WithRetryAfter(t *testing.T) {
	forEachMode(t, func(t *testing.T, m liveMode) {
		ts := serveLive(t, m, service.Options{
			QueueDepth:     1,
			RetryAfter:     3 * time.Second,
			RequestTimeout: 50 * time.Millisecond,
		}, false)

		// The service is never started, so the first submit occupies
		// the queue's only slot, times out its verdict wait (503), and
		// stays parked in the channel. The next submit then overflows.
		resp, out := postJSON(t, ts.URL+"/api/jobs", `{"model": "LSTM", "workers": 1, "gpu_hours": 1}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("queue-filling submit status = %d, body %v; want 503", resp.StatusCode, out)
		}
		resp, out = postJSON(t, ts.URL+"/api/jobs", `{"model": "LSTM", "workers": 1, "gpu_hours": 1}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow submit status = %d, body %v; want 429", resp.StatusCode, out)
		}
		wantKeys(t, "429", out, "error")
		ra := resp.Header.Get("Retry-After")
		secs, err := strconv.Atoi(ra)
		if err != nil || secs < 1 {
			t.Errorf("Retry-After = %q, want an integer >= 1", ra)
		}
		if secs != 3 {
			t.Errorf("Retry-After = %d, want the service's 3s hint", secs)
		}
	})
}

// TestLiveDeadVerdictMapsTo503: a verdict timeout (wedged engine loop)
// is a retriable server-side failure, not a client error.
func TestLiveDeadVerdictMapsTo503(t *testing.T) {
	forEachMode(t, func(t *testing.T, m liveMode) {
		ts := serveLive(t, m, service.Options{RequestTimeout: 30 * time.Millisecond}, false)
		// Never started: the submit parks until RequestTimeout expires.
		resp, out := postJSON(t, ts.URL+"/api/jobs", `{"model": "LSTM", "workers": 1, "gpu_hours": 1}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("dead verdict status = %d, body %v; want 503", resp.StatusCode, out)
		}
		wantKeys(t, "503", out, "error")
	})
}

// newFedFixture serves a started federation of the given size.
func newFedFixture(t *testing.T, members int) (*service.FedService, *httptest.Server) {
	t.Helper()
	svc := newFedService(t, members, service.Options{})
	svc.Start()
	ts := httptest.NewServer(NewLiveServer(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Stop()
	})
	return svc, ts
}

// TestFedSubmitQueryCancel walks a job through the federated control
// API: submit through the front door, observe it land on a member,
// query it with its owning member in the response, and cancel it.
func TestFedSubmitQueryCancel(t *testing.T) {
	svc, ts := newFedFixture(t, 2)

	resp, out := postJSON(t, ts.URL+"/api/jobs", `{"model": "ResNet-50", "workers": 2, "gpu_hours": 50000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %v", resp.StatusCode, out)
	}
	id := int(out["id"].(float64))
	member, ok := out["member"].(string)
	if !ok || member == "" {
		t.Errorf("submit response missing owning member: %v", out)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, phase, _, _, ok := svc.Snapshot().FindJob(id); ok && phase == "active" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never became active", id)
		}
		time.Sleep(time.Millisecond)
	}

	resp, out = do(t, http.MethodGet, ts.URL+"/api/jobs/"+itoa(id))
	if resp.StatusCode != http.StatusOK || out["phase"] != "active" {
		t.Fatalf("query status = %d, body %v", resp.StatusCode, out)
	}
	if out["member"] != member {
		t.Errorf("query reports member %v, submit reported %v", out["member"], member)
	}
	if out["job"] == nil {
		t.Error("active job query missing live detail")
	}

	resp, out = do(t, http.MethodDelete, ts.URL+"/api/jobs/"+itoa(id))
	if resp.StatusCode != http.StatusOK || out["cancelled"] != true {
		t.Fatalf("cancel status = %d, body %v", resp.StatusCode, out)
	}
	resp, _ = do(t, http.MethodDelete, ts.URL+"/api/jobs/"+itoa(id))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("double cancel status = %d, want 409", resp.StatusCode)
	}
}

// TestFedSnapshotAndDashboard checks the merged snapshot endpoint and
// the Provider-backed dashboard pages over a federation.
func TestFedSnapshotAndDashboard(t *testing.T) {
	_, ts := newFedFixture(t, 2)

	resp, out := postJSON(t, ts.URL+"/api/jobs", `{"model": "ResNet-18", "workers": 1, "gpu_hours": 10}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %v", resp.StatusCode, out)
	}

	resp, snap := do(t, http.MethodGet, ts.URL+"/api/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	members, ok := snap["members"].([]any)
	if !ok || len(members) != 2 {
		t.Fatalf("snapshot members = %v, want 2 entries", snap["members"])
	}
	if snap["router"] != "least-queue" {
		t.Errorf("snapshot router = %v, want least-queue", snap["router"])
	}
	if _, ok := snap["stats"]; !ok {
		t.Error("snapshot missing admission stats")
	}
	if got := int(snap["total_gpus"].(float64)); got != 2*experiments.SimCluster().TotalGPUs() {
		t.Errorf("snapshot total_gpus = %d, want %d", got, 2*experiments.SimCluster().TotalGPUs())
	}

	// The dashboard renders one section per member.
	page, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer page.Body.Close()
	if page.StatusCode != http.StatusOK {
		t.Errorf("dashboard status = %d", page.StatusCode)
	}

	resp, _ = do(t, http.MethodGet, ts.URL+"/api/jobs/999999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job query status = %d, want 404", resp.StatusCode)
	}
}
