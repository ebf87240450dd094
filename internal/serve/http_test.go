package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdkmc/internal/telemetry"
)

// httpServer wires a stub-backed Server behind httptest.
func httpServer(t *testing.T, mut func(*Config)) (*httptest.Server, *Server, *stubRunner) {
	t.Helper()
	s, r := newTestServer(t, mut)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s, r
}

func postJob(t *testing.T, ts *httptest.Server, query string, spec any) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp, st
}

func TestHTTPSubmitStatusList(t *testing.T) {
	ts, s, r := httpServer(t, nil)
	resp, st := postJob(t, ts, "", mdSpec(3, 1))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if st.ID == "" || st.Priority != 3 || st.Tenant != DefaultTenant {
		t.Fatalf("submit echo %+v", st)
	}
	r.finish(st.ID, RunResult{Summary: []byte(`{"steps":100}`)}, nil)
	awaitState(t, s, st.ID, StateDone)

	get, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var got JobStatus
	if err := json.NewDecoder(get.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || string(got.Result) != `{"steps":100}` {
		t.Fatalf("status %+v", got)
	}

	list, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var all []JobStatus
	if err := json.NewDecoder(list.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != st.ID {
		t.Fatalf("list %+v", all)
	}

	if nf, _ := http.Get(ts.URL + "/jobs/job-999999"); nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d", nf.StatusCode)
	}
}

func TestHTTPSubmitRejections(t *testing.T) {
	ts, _, _ := httpServer(t, func(c *Config) { c.Slots = 1; c.QueueDepth = 1; c.TenantMaxActive = 1 })
	// Malformed JSON and unknown fields are 400s.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body accepted: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"type":"md","warp_factor":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", resp.StatusCode)
	}
	// Bad fault plans bounce at submission.
	if resp, _ := postJob(t, ts, "?inject-fault=garbage", mdSpec(0, 1)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fault plan status %d", resp.StatusCode)
	}
	// Quota exhaustion is 429 with Retry-After.
	if resp, _ := postJob(t, ts, "", mdSpec(0, 1)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first job status %d", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, "", mdSpec(0, 1))
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("tenant quota status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestHTTPInjectFaultReachesRunner(t *testing.T) {
	ts, _, r := httpServer(t, nil)
	resp, st := postJob(t, ts, "?inject-fault=md-step:0:10", mdSpec(0, 1))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if rc := nextStarted(t, r); rc.Faults != "md-step:0:10" {
		t.Fatalf("fault plan %q did not reach the runner", rc.Faults)
	}
	r.finish(st.ID, RunResult{}, nil)
}

func TestHTTPEventsStream(t *testing.T) {
	ts, s, r := httpServer(t, nil)
	_, st := postJob(t, ts, "", mdSpec(0, 1))
	nextStarted(t, r)

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	r.finish(st.ID, RunResult{}, nil)
	awaitState(t, s, st.ID, StateDone)

	// The stream replays the backlog (queued, running) and then carries the
	// live done event; the hub closes after terminal states, ending the body.
	var states []State
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if e.Type == "state" {
			states = append(states, e.State)
		}
	}
	want := []State{StateQueued, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("streamed states %v, want %v", states, want)
	}
}

func TestHTTPArtifacts(t *testing.T) {
	ts, s, r := httpServer(t, nil)
	_, st := postJob(t, ts, "", mdSpec(0, 1))
	dir, err := s.JobDir(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), []byte(`{"ok":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/artifacts/result.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != `{"ok":true}` {
		t.Fatalf("artifact fetch %d %q", resp.StatusCode, body)
	}
	// Dotted names (traversal) are rejected; missing artifacts are 404.
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/artifacts/..%2fledger.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traversal name served: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/artifacts/nope.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing artifact status %d", resp.StatusCode)
	}
	r.finish(st.ID, RunResult{}, nil)
}

// telemetryStub is a Runner that registers a real telemetry set (as
// SimRunner does) so /metrics has something to export, then blocks like the
// plain stub.
type telemetryStub struct{ *stubRunner }

func (r telemetryStub) Run(rc RunContext) (RunResult, error) {
	set, err := telemetry.NewSet(1, telemetry.Options{Enabled: true, Job: rc.JobID, OnSet: rc.OnTelemetry})
	if err != nil {
		return RunResult{}, err
	}
	set.Rank(0).Counter("md_steps").Add(42)
	return r.stubRunner.Run(rc)
}

func TestHTTPMetricsPerJobLabels(t *testing.T) {
	inner := newStubRunner()
	s, err := New(Config{Dir: t.TempDir(), Slots: 2, Clock: fixedClock(t0), Runner: telemetryStub{inner}})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, err := s.Submit(mdSpec(0, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(mdSpec(0, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	nextStarted(t, inner)
	nextStarted(t, inner)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`mdkmc_md_steps{job="` + a.ID + `",rank="0"} 42`,
		`mdkmc_md_steps{job="` + b.ID + `",rank="0"} 42`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "# TYPE mdkmc_md_steps") != 1 {
		t.Fatalf("metric family header duplicated:\n%s", text)
	}

	// Finished jobs leave the exposition.
	inner.finish(a.ID, RunResult{}, nil)
	awaitState(t, s, a.ID, StateDone)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), `job="`+a.ID+`"`) {
		t.Fatalf("done job still exported:\n%s", body)
	}
	inner.finish(b.ID, RunResult{}, nil)
	awaitState(t, s, b.ID, StateDone)
}

func TestHTTPHealthAndDrain(t *testing.T) {
	ts, s, r := httpServer(t, func(c *Config) { c.Slots = 1 })
	var health struct {
		Status    string `json:"status"`
		FreeSlots int    `json:"free_slots"`
	}
	getHealth := func() {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
	}
	getHealth()
	if health.Status != "ok" || health.FreeSlots != 1 {
		t.Fatalf("health %+v", health)
	}

	_, st := postJob(t, ts, "", mdSpec(0, 1))
	nextStarted(t, r)
	resp, err := http.Post(ts.URL+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain status %d", resp.StatusCode)
	}
	// The stub honors the eviction; once the hand-back is visible, the
	// drain flag necessarily is too (it was set before the preemption).
	awaitState(t, s, st.ID, StatePreempted)
	getHealth()
	if health.Status != "draining" {
		t.Fatalf("health after drain %+v", health)
	}
	if resp, _ := postJob(t, ts, "", mdSpec(0, 1)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a job: %d", resp.StatusCode)
	}
}

// A ledger write that fails must not be silent: a restart would replay the
// stale ledger. A directory squatting on the temp file fails the write, a
// directory squatting on the ledger fails the rename (and the temp file is
// removed); /healthz reports "degraded" with the error until the next
// transition persists cleanly.
func TestLedgerPersistFailureIsReported(t *testing.T) {
	ts, s, r := httpServer(t, nil)
	ledger := filepath.Join(s.cfg.Dir, ledgerName)
	health := func() map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	wantDegraded := func(fragment string) {
		t.Helper()
		h := health()
		msg, _ := h["ledger_error"].(string)
		if h["status"] != "degraded" || !strings.Contains(msg, fragment) {
			t.Fatalf("health %v, want degraded with a %q ledger_error", h, fragment)
		}
	}
	wantOK := func() {
		t.Helper()
		if h := health(); h["status"] != "ok" || h["ledger_error"] != nil {
			t.Fatalf("health %v, want ok without ledger_error", h)
		}
	}
	squat := func(path string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(path, "squatter"), 0o755); err != nil {
			t.Fatal(err)
		}
	}

	wantOK()
	squat(ledger + ".tmp")
	_, a := postJob(t, ts, "", mdSpec(0, 1))
	nextStarted(t, r)
	wantDegraded("writing ledger")

	if err := os.RemoveAll(ledger + ".tmp"); err != nil {
		t.Fatal(err)
	}
	r.finish(a.ID, RunResult{}, nil)
	awaitState(t, s, a.ID, StateDone)
	wantOK()

	if err := os.Remove(ledger); err != nil {
		t.Fatal(err)
	}
	squat(ledger)
	_, b := postJob(t, ts, "", mdSpec(0, 1))
	nextStarted(t, r)
	wantDegraded("committing ledger")
	if _, err := os.Stat(ledger + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp ledger left behind after a failed rename: %v", err)
	}

	if err := os.RemoveAll(ledger); err != nil {
		t.Fatal(err)
	}
	r.finish(b.ID, RunResult{}, nil)
	awaitState(t, s, b.ID, StateDone)
	wantOK()
	data, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	var lf ledgerFile
	if err := json.Unmarshal(data, &lf); err != nil {
		t.Fatal(err)
	}
	if len(lf.Jobs) != 2 || lf.Jobs[1].State != StateDone {
		t.Fatalf("recovered ledger %+v, want both jobs with the second done", lf.Jobs)
	}
}
