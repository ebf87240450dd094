package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runSetOptions configures the run-set mode.
type runSetOptions struct {
	seed     uint64
	seconds  float64
	reps     int
	trace    bool
	out      string
	traceOut string
}

// metricSummary is one metric over the runs of one workload.
type metricSummary struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Exact  bool      `json:"exact,omitempty"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(m metricSpec, values []float64) metricSummary {
	q1, q3 := quartiles(values)
	return metricSummary{
		Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Exact: m.Exact,
		N: len(values), Median: median(values), Q1: q1, Q3: q3, Values: values,
	}
}

// workloadSummary is one workload's part of a results file.
type workloadSummary struct {
	Workload  string          `json:"workload"`
	Why       string          `json:"why"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Digest    string          `json:"digest"`
	Problems  []string        `json:"problems,omitempty"`
	EndToEnd  []metricSummary `json:"end_to_end"`
	PerLayer  []metricSummary `json:"per_layer,omitempty"`
	Layers    []layerRow      `json:"layers,omitempty"`
}

// results is the run-set's results file. Claim stays last and null: this
// benchmark measures; a change that claims a gain says so in its own issue.
type results struct {
	GoVersion string            `json:"go_version"`
	GOOS      string            `json:"goos"`
	GOARCH    string            `json:"goarch"`
	NumCPU    int               `json:"num_cpu"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Reps      int               `json:"reps"`
	Workloads []workloadSummary `json:"workloads"`
	FailShare float64           `json:"fail_share"`
	Claim     *string           `json:"claim"`
}

// child runs this binary once for one workload in a fresh process — clean
// heap, clean GC state, its own peak RSS — and parses the result it prints.
func child(opt runOptions, traceOut string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", opt.workload,
		"-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
	}
	if opt.trace {
		args = append(args, "-trace", "1")
	}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: child run: %w", opt.workload, err)
	}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			var res runResult
			if err := json.Unmarshal([]byte(data), &res); err != nil {
				return nil, fmt.Errorf("%s: child result: %w", opt.workload, err)
			}
			return &res, nil
		}
	}
	return nil, fmt.Errorf("%s: child printed no result", opt.workload)
}

// runSet runs every workload reps times untraced (and once traced with
// -trace 1), checks the digests agree, prints every metric and writes the
// results file.
func runSet(opt runSetOptions) int {
	if opt.reps < 3 {
		fmt.Fprintln(os.Stderr, "bench: -reps must be at least 3")
		return 2
	}
	res := results{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		Seed: opt.seed, Seconds: opt.seconds, Reps: opt.reps,
	}
	ok := true
	attempted, failed := 0, 0
	var traceParts []string
	for _, wl := range workloadSpecs {
		sum := workloadSummary{Workload: wl.Name, Why: wl.Why, Correct: true}
		ro := runOptions{workload: wl.Name, seed: opt.seed, seconds: opt.seconds}
		values := map[string][]float64{}
		absorb := func(r *runResult, label string) {
			sum.Attempted += r.Attempted
			sum.Failed += r.Failed
			for _, p := range r.Problems {
				sum.Problems = append(sum.Problems, label+": "+p)
			}
			switch {
			case sum.Digest == "":
				sum.Digest = r.Digest
			case r.Digest != sum.Digest:
				sum.Problems = append(sum.Problems, fmt.Sprintf("%s: digest %s differs from the first run's %s", label, r.Digest, sum.Digest))
				sum.Failed++
			}
			for _, specs := range [][]metricSpec{endToEnd, perLayer} {
				for _, m := range specs {
					if v, ok := r.Metrics[m.Name]; ok {
						values[m.Name] = append(values[m.Name], v.Value)
					}
				}
			}
		}
		for rep := 0; rep < opt.reps; rep++ {
			fmt.Fprintf(os.Stderr, "bench: %s rep %d/%d\n", wl.Name, rep+1, opt.reps)
			r, err := child(ro, "")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			absorb(r, fmt.Sprintf("rep %d", rep+1))
		}
		for _, m := range endToEnd {
			sum.EndToEnd = append(sum.EndToEnd, summarize(m, values[m.Name]))
		}
		if opt.trace {
			fmt.Fprintf(os.Stderr, "bench: %s traced run\n", wl.Name)
			ro.trace = true
			part := ""
			if opt.traceOut != "" {
				part = opt.traceOut + "." + wl.Name + ".part"
				traceParts = append(traceParts, part)
			}
			r, err := child(ro, part)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			absorb(r, "traced run")
			sum.Layers = r.Layers
			for _, m := range perLayer {
				if m.measuredOn(wl.Name) { // the rest are printed as 0: layer not exercised
					sum.PerLayer = append(sum.PerLayer, summarize(m, values[m.Name]))
				}
			}
		}
		sum.Correct = len(sum.Problems) == 0 && sum.Failed == 0
		ok = ok && sum.Correct
		attempted += sum.Attempted
		failed += sum.Failed
		printSummary(sum)
		res.Workloads = append(res.Workloads, sum)
	}
	res.FailShare = float64(failed) / float64(attempted)
	fmt.Printf("fail_share %d/%d = %g\n", failed, attempted, res.FailShare)

	if len(traceParts) > 0 {
		if err := mergeTraces(opt.traceOut, traceParts); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(opt.out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("results written to %s\n", opt.out)
	if !ok {
		return 1
	}
	return 0
}

func printSummary(s workloadSummary) {
	state := "correct"
	if !s.Correct {
		state = "INCORRECT"
	}
	fmt.Printf("\n%s: %s, digest %s, %d/%d operations failed\n", s.Workload, state, s.Digest, s.Failed, s.Attempted)
	for _, p := range s.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	fmt.Printf("  %-32s %-6s %-6s %3s %14s %14s %14s\n", "metric", "unit", "better", "n", "median", "q1", "q3")
	for _, group := range [][]metricSummary{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			fmt.Printf("  %-32s %-6s %-6s %3d %14.6g %14.6g %14.6g\n", m.Name, m.Unit, m.Better, m.N, m.Median, m.Q1, m.Q3)
		}
	}
	if len(s.Layers) > 0 {
		printLayerTable(os.Stdout, s.Workload, s.Layers)
	}
}

// mergeTraces joins the per-workload Chrome trace documents into one, one
// process per workload, and removes the parts.
func mergeTraces(out string, parts []string) error {
	type doc struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	merged := doc{DisplayTimeUnit: "ms"}
	for i, part := range parts {
		data, err := os.ReadFile(part)
		if err != nil {
			return err
		}
		var d doc
		if err := json.Unmarshal(data, &d); err != nil {
			return fmt.Errorf("%s: %w", part, err)
		}
		for _, e := range d.TraceEvents {
			e.PID = i + 1
			merged.TraceEvents = append(merged.TraceEvents, e)
		}
		os.Remove(part)
	}
	data, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}
