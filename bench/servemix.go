package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mdkmc/internal/rng"
	"mdkmc/internal/serve"
)

// preemptDelay is how long after the victim (re)starts the priority job is
// submitted: long enough that the victim is stepping, not still restoring.
const preemptDelay = 30 * time.Millisecond

// scenarioTimeout bounds one serve-mix scenario; a hang fails the run
// instead of outliving the driver's per-run limit.
const scenarioTimeout = 120 * time.Second

// wallClock is the real clock the server stamps job history with (the
// serve package itself never reads the wall clock).
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// serveWorkload is serve-mix: a real job server driven over HTTP in a closed
// loop. Phase 1: clients × jobsPerClient back-to-back 1-slot jobs cycling
// md / kmc / coupled, completion awaited on each job's SSE stream. Phase 2:
// one low-priority 2-slot OKMC campaign preempted `preempts` times by a
// priority-10 2-slot md job.
type serveWorkload struct {
	seed uint64
	dir  string
	runs int
	sizing

	clients, jobsPerClient, preempts int
	small, kmcCells, wide            [3]int
	mdSteps, kmcCycles               int
	coupledSteps, coupledCycles      int
	victimSteps, victimIters         int
}

func newServeMix(seed uint64, tiny bool, dir string) *serveWorkload {
	w := &serveWorkload{
		seed: seed, dir: dir, sizing: sizingFor(tiny),
		clients: 2, jobsPerClient: 6, preempts: 1,
		small: [3]int{8, 8, 8}, kmcCells: [3]int{10, 10, 10}, wide: [3]int{16, 8, 8},
		mdSteps: 10, kmcCycles: 60, coupledSteps: 10, coupledCycles: 5,
		victimSteps: 40, victimIters: 3,
	}
	if tiny {
		w.jobsPerClient = 3
	}
	return w
}

// baseURL is what the clients address; their transport dials the server's
// socket whatever the host part says.
const baseURL = "http://serve-mix"

// running is one started job server: the scheduler, the HTTP server in
// front of it and a client that reaches it.
//
// The listener is a Unix socket in the scratch directory, not httptest's
// 127.0.0.1:0. Binding port 0 costs 25 µs on a quiet loopback and 0.8–1.6 ms
// while earlier runs' connections sit in TIME_WAIT, so on TCP the set-up
// time measured the runs before this one.
type running struct {
	srv    *serve.Server
	http   *http.Server
	served chan struct{} // closed when http.Serve has returned
	client *http.Client
	state  string
}

// start builds the server and its listener in a fresh state directory.
func (w *serveWorkload) start() (*running, error) {
	w.runs++
	state := filepath.Join(w.dir, fmt.Sprintf("state-%d", w.runs))
	srv, err := serve.New(serve.Config{Dir: state, Slots: 2, Clock: wallClock{}})
	if err != nil {
		return nil, err
	}
	sock := state + ".sock"
	l, err := net.Listen("unix", sock)
	if err != nil {
		srv.Drain()
		os.RemoveAll(state)
		return nil, err
	}
	r := &running{
		srv: srv, http: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}), state: state,
		client: &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				return (&net.Dialer{}).DialContext(ctx, "unix", sock)
			},
		}},
	}
	go func() {
		defer close(r.served)
		r.http.Serve(l) //nolint:errcheck — returns ErrServerClosed from stop
	}()
	return r, nil
}

// stop drains the scheduler before the listener and the state directory go
// (closing the listener removes its socket file).
func (r *running) stop() {
	r.srv.Drain()
	r.http.Close()
	<-r.served
	r.client.CloseIdleConnections()
	os.RemoveAll(r.state)
}

// setup times construction up to the first answered request: serve.New
// (state directory, ledger recovery and first persist), the listener, and one
// GET /healthz.
func (w *serveWorkload) setup() (time.Duration, error) {
	start := time.Now()
	r, err := w.start()
	if err != nil {
		return 0, err
	}
	defer r.stop()
	c := &client{ctx: context.Background(), http: r.client}
	var health struct{ Status string }
	if err := c.getJSON("/healthz", &health); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if health.Status != "ok" {
		return 0, fmt.Errorf("GET /healthz: status %q", health.Status)
	}
	return d, nil
}

// jobMix generates phase 1's specs: the three job types in rotation, in an
// order and with per-job seeds drawn from the workload seed. Element c is
// client c's list.
func (w *serveWorkload) jobMix() [][]serve.JobSpec {
	n := w.clients * w.jobsPerClient
	src := rng.New(w.seed).Derive(saltJobMix)
	order := make([]int, n)
	src.Perm(order)
	mix := make([][]serve.JobSpec, w.clients)
	for i, k := range order {
		spec := serve.JobSpec{Seed: src.Uint64()>>1 | 1, TablePoints: 500}
		switch k % 3 {
		case 0:
			spec.Type, spec.Cells, spec.Steps = serve.TypeMD, w.small, w.mdSteps
		case 1:
			spec.Type, spec.Cells, spec.KMCCycles = serve.TypeKMC, w.kmcCells, w.kmcCycles
		default:
			spec.Type, spec.Cells = serve.TypeCoupled, w.small
			spec.Steps, spec.KMCCycles = w.coupledSteps, w.coupledCycles
		}
		c := i % w.clients
		spec.Tenant = fmt.Sprintf("client-%d", c)
		mix[c] = append(mix[c], spec)
	}
	return mix
}

func (w *serveWorkload) victimSpec() serve.JobSpec {
	return serve.JobSpec{
		Type: serve.TypeCampaign, Tenant: "batch", Slots: 2,
		Cells: w.wide, Steps: w.victimSteps, TablePoints: 500, CheckpointEvery: 25,
		Seed: w.seed | 1,
		Campaign: &serve.CampaignJobSpec{
			Iters: w.victimIters, DoseIncrement: 6.0 / float64(2*w.wide[0]*w.wide[1]*w.wide[2]),
			Energy: 400, OKMC: true,
		},
	}
}

func (w *serveWorkload) urgentSpec(k int) serve.JobSpec {
	return serve.JobSpec{
		Type: serve.TypeMD, Tenant: "urgent", Priority: 10, Slots: 2,
		Cells: w.wide, Steps: w.mdSteps, TablePoints: 500, Seed: w.seed + uint64(2*k+3),
	}
}

// client is one closed-loop HTTP client of the job server.
type client struct {
	ctx  context.Context
	http *http.Client
	tr   *tracer
	rank int // span thread: the client's index

	mu       *sync.Mutex
	rejected *int // 429 / 503 responses, shared by all clients
}

// submit POSTs the spec and returns the admitted job's ID and the round
// trip.
func (c *client) submit(spec serve.JobSpec, parent int) (string, time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, baseURL+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := c.tr.begin("serve.submit", c.rank, parent)
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.tr.fail(id)
		c.tr.end(id)
		return "", 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	c.tr.end(id)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusCreated {
		c.tr.fail(id)
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			c.mu.Lock()
			*c.rejected++
			c.mu.Unlock()
		}
		return "", 0, fmt.Errorf("POST /jobs: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return "", 0, err
	}
	return st.ID, d, nil
}

// stateEvent is one state transition seen on a job's SSE stream, stamped
// on arrival.
type stateEvent struct {
	state serve.State
	at    time.Time
}

// stream follows a job's SSE stream, calling on for every state event,
// until the stream ends (the job reached a terminal state) or on returns
// false.
func (c *client) stream(id string, on func(stateEvent) bool) error {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, baseURL+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e serve.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return fmt.Errorf("decoding SSE event: %w", err)
		}
		if e.Type == "state" && !on(stateEvent{e.State, time.Now()}) {
			return nil
		}
	}
	return sc.Err()
}

// await submits the spec and waits on its SSE stream for the terminal
// event. It returns the job ID, the POST round trip, and POST → terminal.
func (c *client) await(spec serve.JobSpec, parent int) (id string, post, total time.Duration, err error) {
	sp := c.tr.begin("serve.job", c.rank, parent)
	defer c.tr.end(sp)
	start := time.Now()
	id, post, err = c.submit(spec, sp)
	if err != nil {
		c.tr.fail(sp)
		return "", 0, 0, err
	}
	final := serve.StateQueued
	w := c.tr.begin("serve.await_sse", c.rank, sp)
	err = c.stream(id, func(e stateEvent) bool { final = e.state; return true })
	c.tr.end(w)
	total = time.Since(start)
	if err == nil && final != serve.StateDone {
		err = fmt.Errorf("job %s ended %s", id, final)
	}
	if err != nil {
		c.tr.fail(sp)
	}
	return id, post, total, err
}

// scenarioOut is everything one scenario measured.
type scenarioOut struct {
	unitOut
	latencyMS, submitMS      []float64
	resumeS, evictMS         []float64 // per preemption cycle
	requeueMS                []float64
	statusMS, queueMS, runMS []float64 // traced runs only
	ledgerBytes              int64
	rejected                 int
}

// scenario runs both phases against a fresh server. A job that is refused,
// ends in another state than done, or loses its event stream is a failed
// operation of the result; only a server that cannot be started, listed or
// read ends the scenario with an error.
func (w *serveWorkload) scenario(tr *tracer, parent int) (*scenarioOut, error) {
	r, err := w.start()
	if err != nil {
		return nil, err
	}
	defer r.stop()
	ctx, cancel := context.WithTimeout(context.Background(), scenarioTimeout)
	defer cancel()

	out := &scenarioOut{}
	var mu sync.Mutex
	newClient := func(ctx context.Context, rank int) *client {
		return &client{ctx: ctx, http: r.client, tr: tr, rank: rank, mu: &mu, rejected: &out.rejected}
	}
	// Every admitted job is judged once, after the clock stops, on the
	// server's own record of it; a submission the server did not admit is not
	// in that record and is counted where it is refused.
	keys := map[string]string{} // admitted job ID -> stable key, for the digest
	lost := map[string]string{} // admitted job ID -> why its client gave up on it

	// Phase 1: the closed loop.
	mix := w.jobMix()
	jobs := w.clients * w.jobsPerClient
	out.ops = jobs
	p1 := tr.begin("serve.phase1", 0, parent)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range mix {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(ctx, ci)
			for i, spec := range mix[ci] {
				id, post, total, err := c.await(spec, p1)
				mu.Lock()
				switch {
				case id == "":
					out.failed++
					out.problems = append(out.problems, fmt.Sprintf("job %d/%03d not admitted: %v", ci, i, err))
				case err != nil:
					keys[id], lost[id] = fmt.Sprintf("%d/%03d", ci, i), err.Error()
				default:
					keys[id] = fmt.Sprintf("%d/%03d", ci, i)
					out.latencyMS = append(out.latencyMS, ms(total))
					out.submitMS = append(out.submitMS, ms(post))
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	phase1 := time.Since(start)
	tr.end(p1)

	// Phase 2: preempt / resume cycles on one victim.
	p2 := tr.begin("serve.phase2", 0, parent)
	out.ops += 1 + w.preempts
	admitted, err := w.preemptCycles(ctx, newClient, tr, p2, keys, out)
	if err != nil {
		tr.fail(p2)
		out.failed += 1 + w.preempts - admitted
		out.problems = append(out.problems, fmt.Sprintf("phase 2 stopped with %d of %d jobs admitted: %v", admitted, 1+w.preempts, err))
	}
	out.wall = time.Since(start)
	tr.end(p2)
	out.work = float64(jobs)
	out.rate = float64(jobs) / phase1.Seconds()

	// After the clock stops: every job's final record, for the gate and the
	// digest (and, in a traced run, the per-job history timings).
	c := newClient(ctx, 0)
	var list []serve.JobStatus
	if err := c.getJSON("/jobs", &list); err != nil {
		return nil, err
	}
	if len(list) != len(keys) {
		return nil, fmt.Errorf("server lists %d jobs, %d were admitted", len(list), len(keys))
	}
	var dig digester
	byKey := map[string]serve.JobStatus{}
	sort.Slice(list, func(i, j int) bool { return keys[list[i].ID] < keys[list[j].ID] })
	for _, st := range list {
		key := keys[st.ID]
		byKey[key] = st
		bad := ""
		switch {
		case st.State != serve.StateDone:
			bad = fmt.Sprintf("ended %s: %s", st.State, st.Error)
		case lost[st.ID] != "":
			bad = lost[st.ID]
		case key == "victim" && st.Attempts != w.preempts+1:
			bad = fmt.Sprintf("ran %d attempts, want %d", st.Attempts, w.preempts+1)
		}
		if bad != "" {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("job %s %s", key, bad))
		}
		dig.add("%s %s", key, st.State)
		if st.State == serve.StateDone { // any other state carries no result document
			if err := digestJob(&dig, st); err != nil {
				return nil, err
			}
		}
		if tr != nil {
			q, r := historyTimes(st)
			out.queueMS, out.runMS = append(out.queueMS, q...), append(out.runMS, r...)
			var one serve.JobStatus
			id := tr.begin("serve.status", 0, parent)
			t0 := time.Now()
			err := c.getJSON("/jobs/"+st.ID, &one)
			out.statusMS = append(out.statusMS, ms(time.Since(t0)))
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
	}
	out.digest = dig.sum()
	var urgent []serve.JobStatus
	for k := 0; k < w.preempts; k++ {
		urgent = append(urgent, byKey[urgentKey(k)])
	}
	out.evictMS, out.requeueMS = preemptTimes(byKey["victim"], urgent)
	if out.rejected > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d submissions were refused with 429/503", out.rejected))
	}
	if info, err := os.Stat(filepath.Join(r.state, "ledger.json")); err == nil {
		out.ledgerBytes = info.Size()
	}
	return out, nil
}

func urgentKey(k int) string { return fmt.Sprintf("urgent/%d", k) }

// preemptCycles is phase 2: it submits the victim, then w.preempts times a
// priority-10 job that evicts it, following the victim's event stream. It
// records every admitted job in keys and returns how many there were; an
// error means the script could not be followed to its end.
func (w *serveWorkload) preemptCycles(ctx context.Context, newClient func(context.Context, int) *client,
	tr *tracer, p2 int, keys map[string]string, out *scenarioOut) (admitted int, err error) {
	c := newClient(ctx, 0)
	victim, _, err := c.submit(w.victimSpec(), p2)
	if err != nil {
		return admitted, err
	}
	keys[victim] = "victim"
	admitted++

	// The watcher streams every state the victim passes through (4 per
	// cycle) until the victim ends or this function returns.
	wctx, stopWatching := context.WithCancel(ctx)
	events := make(chan stateEvent)
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- newClient(wctx, 1).stream(victim, func(e stateEvent) bool {
			select {
			case events <- e:
				return true
			case <-wctx.Done():
				return false
			}
		})
		close(events)
	}()
	defer func() {
		stopWatching()
		for range events {
		}
	}()
	// next waits for the victim to enter `want`; any terminal state first
	// is an error (the victim outran its preemptions, or failed).
	next := func(want serve.State) (time.Time, error) {
		for e := range events {
			if e.state == want {
				return e.at, nil
			}
			if e.state.Terminal() {
				return time.Time{}, fmt.Errorf("victim reached %s while waiting for %s", e.state, want)
			}
		}
		return time.Time{}, fmt.Errorf("victim stream ended while waiting for %s: %v", want, <-streamErr)
	}
	if _, err := next(serve.StateRunning); err != nil {
		return admitted, err
	}
	for k := 0; k < w.preempts; k++ {
		time.Sleep(preemptDelay)
		cyc := tr.begin("serve.preempt_cycle", 0, p2)
		posted := time.Now()
		urgent, _, err := c.submit(w.urgentSpec(k), cyc)
		if err == nil {
			keys[urgent] = urgentKey(k)
			admitted++
			_, err = next(serve.StatePreempted)
		}
		if err == nil {
			// The urgent job's end state is judged with every other job's.
			err = c.stream(urgent, func(stateEvent) bool { return true })
		}
		var resumed time.Time
		if err == nil {
			resumed, err = next(serve.StateRunning)
		}
		tr.end(cyc)
		if err != nil {
			tr.fail(cyc)
			return admitted, err
		}
		out.resumeS = append(out.resumeS, resumed.Sub(posted).Seconds())
	}
	_, err = next(serve.StateDone)
	return admitted, err
}

func (c *client) getJSON(path string, v any) error {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, baseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// digestJob folds the deterministic part of one finished job's result: the
// physics, never the timings or comm counters a result document also holds.
func digestJob(d *digester, st serve.JobStatus) error {
	var r struct {
		Kinetic, Potential, MCTime      float64
		Vacancies, Events               int
		VacanciesMD, KMCEvents, MDSteps int
		Dose                            float64
		Recoils, Iterations, AtomCount  int
		Ledger                          []struct{ Population, Events, NewVacancies int }
	}
	if err := json.Unmarshal(st.Result, &r); err != nil {
		return fmt.Errorf("job %s result: %w", st.ID, err)
	}
	d.add("%s", st.Type)
	d.float(r.Kinetic)
	d.float(r.Potential)
	d.float(r.MCTime)
	d.float(r.Dose)
	for _, v := range []int{r.Vacancies, r.Events, r.VacanciesMD, r.KMCEvents, r.MDSteps, r.Recoils, r.Iterations, r.AtomCount} {
		d.int(v)
	}
	for _, row := range r.Ledger {
		d.int(row.Population)
		d.int(row.Events)
		d.int(row.NewVacancies)
	}
	return nil
}

// preemptTimes reads the server's own transition stamps of the victim and
// of the urgent jobs (in submission order): per cycle, urgent submitted →
// victim preempted, and urgent done → victim running again.
func preemptTimes(victim serve.JobStatus, urgent []serve.JobStatus) (evictMS, requeueMS []float64) {
	var preempted, resumed []time.Time
	for i, tr := range victim.History {
		switch {
		case tr.State == serve.StatePreempted:
			preempted = append(preempted, tr.At)
		case tr.State == serve.StateRunning && i > 0 && tr.Attempt > 1:
			resumed = append(resumed, tr.At)
		}
	}
	for k, u := range urgent {
		if k >= len(preempted) || k >= len(resumed) || len(u.History) == 0 {
			break
		}
		evictMS = append(evictMS, ms(preempted[k].Sub(u.SubmittedAt)))
		requeueMS = append(requeueMS, ms(resumed[k].Sub(u.History[len(u.History)-1].At)))
	}
	return evictMS, requeueMS
}

// historyTimes reads a job's recorded transitions: the time spent waiting
// (queued or preempted → running) and running (running → the next state),
// one sample per attempt.
func historyTimes(st serve.JobStatus) (queueMS, runMS []float64) {
	for i := 1; i < len(st.History); i++ {
		prev, cur := st.History[i-1], st.History[i]
		d := ms(cur.At.Sub(prev.At))
		switch {
		case cur.State == serve.StateRunning:
			queueMS = append(queueMS, d)
		case prev.State == serve.StateRunning:
			runMS = append(runMS, d)
		}
	}
	return queueMS, runMS
}

func (w *serveWorkload) unit() (unitOut, error) {
	out, err := w.scenario(nil, -1)
	if err != nil {
		return unitOut{}, err
	}
	return out.unitOut, nil
}

func (w *serveWorkload) traced(tr *tracer, ref func() error) (map[string]float64, []string, error) {
	vals := map[string]float64{}
	root := tr.begin("bench.traced", 0, -1)
	defer tr.end(root)
	// w.reps scenarios: their samples pool (so the percentiles rest on
	// that many times the jobs), the fastest one's rates are kept.
	var out scenarioOut
	var digests []string
	for i := 0; i < w.reps; i++ {
		if err := ref(); err != nil {
			return nil, nil, err
		}
		id := tr.begin("serve.scenario", 0, root)
		one, err := w.scenario(tr, id)
		tr.end(id)
		if err != nil {
			tr.fail(id)
			return nil, nil, err
		}
		if one.failed > 0 {
			// The failed span makes the run incorrect; the scenario's digest
			// (which folds every job's end state) and serve.rejected say how.
			tr.fail(id)
		}
		digests = append(digests, one.digest)
		if i == 0 || one.wall < out.wall {
			out.unitOut = one.unitOut
		}
		out.rate = math.Max(out.rate, one.rate)
		out.latencyMS = append(out.latencyMS, one.latencyMS...)
		out.submitMS = append(out.submitMS, one.submitMS...)
		out.resumeS = append(out.resumeS, one.resumeS...)
		out.evictMS = append(out.evictMS, one.evictMS...)
		out.requeueMS = append(out.requeueMS, one.requeueMS...)
		out.statusMS = append(out.statusMS, one.statusMS...)
		out.queueMS = append(out.queueMS, one.queueMS...)
		out.runMS = append(out.runMS, one.runMS...)
		out.ledgerBytes = one.ledgerBytes
		out.rejected += one.rejected
	}
	vals["traced_wall_s"] = out.wall.Seconds()
	vals["serve.jobs_per_s"] = out.rate
	vals["serve.job_latency_p50_ms"] = median(out.latencyMS)
	vals["serve.job_latency_p95_ms"] = quantile(out.latencyMS, 0.95)
	vals["serve.preempt_resume_s"] = median(out.resumeS)
	vals["serve.submit_ms_p50"] = median(out.submitMS)
	vals["serve.status_ms_p50"] = median(out.statusMS)
	vals["serve.queue_wait_ms_p50"] = median(out.queueMS)
	vals["serve.run_ms_p50"] = median(out.runMS)
	vals["serve.evict_ms_p50"] = median(out.evictMS)
	vals["serve.requeue_ms_p50"] = median(out.requeueMS)
	vals["serve.ledger_bytes"] = float64(out.ledgerBytes)
	vals["serve.rejected"] = float64(out.rejected)
	if err := probeOKMC(tr, root, vals, w.seed, okmcEvents/w.probeDiv); err != nil {
		return nil, nil, err
	}
	return vals, digests, nil
}
