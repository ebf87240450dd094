package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"mdkmc/internal/serve"
)

// benchmarkFile is BENCHMARK.json as the acceptance driver reads it.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []listedMetric `json:"end_to_end"`
	PerLayer   []listedMetric `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to the contract's limits and to
// exactly the workloads and metrics the binary prints with -list.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}

	list := currentListing()
	if !reflect.DeepEqual(bf.Workloads, list.Workloads) {
		t.Errorf("workloads differ from -list:\n file %v\n list %v", bf.Workloads, list.Workloads)
	}
	sameMetrics(t, "end_to_end", bf.EndToEnd, list.EndToEnd)
	sameMetrics(t, "per_layer", bf.PerLayer, list.PerLayer)

	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the naming rule", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bf.Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		check("metric", m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		check("metric", m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

func sameMetrics(t *testing.T, kind string, file, list []listedMetric) {
	t.Helper()
	if len(file) != len(list) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, -list prints %d", kind, len(file), len(list))
		return
	}
	for i := range file {
		f, l := file[i], list[i]
		if f.Name != l.Name || f.Unit != l.Unit || f.Better != l.Better ||
			(f.Bound == nil) != (l.Bound == nil) || (f.Bound != nil && *f.Bound != *l.Bound) {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, -list prints %+v", kind, i, f, l)
		}
	}
}

// TestTinyRuns drives every workload through the real code path at the tiny
// sizes: one untraced run and two traced runs. Every declared metric must
// come out exactly once and finite, the runs must be correct, and the
// counts marked exact must repeat exactly.
func TestTinyRuns(t *testing.T) {
	scratch := t.TempDir()
	for _, wl := range workloadSpecs {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			opt := runOptions{workload: wl.Name, seed: 7, seconds: 0, tiny: true, scratch: scratch}
			plain, err := runWorkload(opt)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, plain, endToEnd, wl.Name)
			for _, m := range endToEnd {
				if v := plain.Metrics[m.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, v)
				}
			}

			opt.trace = true
			first, err := runWorkload(opt)
			if err != nil {
				t.Fatal(err)
			}
			second, err := runWorkload(opt)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, first, perLayer, wl.Name)
			checkRun(t, second, perLayer, wl.Name)
			if first.Digest != plain.Digest || second.Digest != plain.Digest {
				t.Errorf("digests differ: untraced %s, traced %s and %s", plain.Digest, first.Digest, second.Digest)
			}
			for _, m := range perLayer {
				a, b := first.Metrics[m.Name].Value, second.Metrics[m.Name].Value
				if m.Exact && a != b {
					t.Errorf("exact count %s: %v then %v", m.Name, a, b)
				}
				if m.measuredOn(wl.Name) && m.Exact && a == 0 && m.Name != "fail_share" && m.Name != "serve.rejected" {
					t.Errorf("exact count %s is 0 on a workload that measures it", m.Name)
				}
			}
			if len(first.Layers) == 0 {
				t.Error("traced run recorded no spans")
			}
			// The MD workloads never enter the kmc layer.
			if wl.Name == wlMDBulk || wl.Name == wlMDCascade {
				for _, row := range first.Layers {
					if layerOf(row.Name) == "kmc" {
						t.Errorf("span %s in the trace of %s", row.Name, wl.Name)
					}
				}
			}
		})
	}
}

func checkRun(t *testing.T, r *runResult, specs []metricSpec, wl string) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", wl, r.Correct, r.Attempted, r.Failed, r.Problems)
	}
	if len(r.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d declared", wl, len(r.Metrics), len(specs))
	}
	for _, m := range specs {
		v, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", wl, m.Name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %v", wl, m.Name, v.Value)
		}
		if v.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", wl, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestServeMixCountsFailedJobs: a job the server refuses is a failed
// operation of the scenario's result, counted once — not an error that
// leaves the run without a result.
func TestServeMixCountsFailedJobs(t *testing.T) {
	kmcJobs := func(w *serveWorkload) int {
		n := 0
		for _, specs := range w.jobMix() {
			for _, spec := range specs {
				if spec.Type == serve.TypeKMC {
					n++
				}
			}
		}
		return n
	}
	cases := []struct {
		name     string
		sabotage func(w *serveWorkload)
		failed   func(w *serveWorkload) int
	}{
		{"phase 1 refuses every kmc job", func(w *serveWorkload) { w.kmcCells[2] = -1 }, kmcJobs},
		{"phase 2 refuses the victim", func(w *serveWorkload) { w.wide[2] = -1 }, func(w *serveWorkload) int { return 1 + w.preempts }},
	}
	for _, c := range cases {
		w := newServeMix(7, true, t.TempDir())
		c.sabotage(w)
		out, err := w.scenario(nil, -1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ops := w.clients*w.jobsPerClient + 1 + w.preempts
		if want := c.failed(w); out.failed != want || out.ops != ops {
			t.Errorf("%s: %d of %d operations failed, want %d of %d: %v", c.name, out.failed, out.ops, want, ops, out.problems)
		}
		if len(out.problems) == 0 {
			t.Errorf("%s: the failed scenario names no problem", c.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	if q1, q3 := quartiles([]float64{10, 20, 30}); q1 != 10 || q3 != 30 {
		t.Errorf("quartiles = %v, %v; want 10, 30", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestLayerTableSelfTime(t *testing.T) {
	spans := []span{
		{Name: "a.outer", StartNS: 0, EndNS: 100e6, Parent: -1},
		{Name: "b.inner", StartNS: 10e6, EndNS: 40e6, Parent: 0},
		{Name: "b.inner", StartNS: 50e6, EndNS: 60e6, Parent: 0, Failed: true},
	}
	rows := layerTable(spans)
	want := []layerRow{
		{Name: "a.outer", Count: 1, BusyMS: 100, SelfMS: 60},
		{Name: "b.inner", Count: 2, BusyMS: 40, SelfMS: 40, Failures: 1},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("layerTable = %+v, want %+v", rows, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(better string, vals ...float64) metricSummary {
		return summarize(metricSpec{Name: "m", Better: better}, vals)
	}
	steadyA := mk("lower", 10, 10.1, 9.9, 10, 10.05)
	cases := []struct {
		name string
		a, b metricSummary
		want string
	}{
		{"same", steadyA, mk("lower", 10.2, 10.1, 10.3, 10.2, 10.25), verdictOK},
		{"slower", steadyA, mk("lower", 12, 12.1, 11.9, 12, 12.05), verdictRegressed},
		{"faster", steadyA, mk("lower", 8, 8.1, 7.9, 8, 8.05), verdictOK},
		{"noisy", steadyA, mk("lower", 9, 14, 10, 16, 8), verdictUnresolved},
		{"noisy but always better", steadyA, mk("lower", 5, 8, 6, 9, 4), verdictOK},
		{"rate dropped", mk("higher", 100, 101, 99, 100, 100), mk("higher", 80, 81, 79, 80, 80), verdictRegressed},
	}
	for _, c := range cases {
		if got := verdict(0.10, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareJudgesCorrectness(t *testing.T) {
	steady := []metricSummary{summarize(endToEnd[1], []float64{10, 10.1, 9.9, 10, 10.05})}
	set := func(ws ...workloadSummary) *results { return &results{Seed: 1, Seconds: 15, Workloads: ws} }
	good := workloadSummary{Workload: "w", Correct: true, Attempted: 100, Digest: "d1", EndToEnd: steady}
	incorrect, failing, drifted, bare := good, good, good, good
	incorrect.Correct, incorrect.Problems = false, []string{"energy drift"}
	failing.Failed = 1
	drifted.Digest = "d2"
	bare.EndToEnd = nil
	otherSeed := set(drifted)
	otherSeed.Seed = 2
	cases := []struct {
		name string
		b    *results
		want int
	}{
		{"same", set(good), 0},
		{"incorrect", set(incorrect), 1},
		{"more failures", set(failing), 1},
		{"another digest for the same seed", set(drifted), 1},
		{"another digest for another seed", otherSeed, 0},
		{"metric missing", set(bare), 0}, // unresolved, not regressed
		{"workload missing", set(), 0},   // unresolved, not regressed
	}
	for _, c := range cases {
		if got := compareResults(set(good), c.b, "a"); got != c.want {
			t.Errorf("%s: exit status %d, want %d", c.name, got, c.want)
		}
	}
}
