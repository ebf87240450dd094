// Command bench is the repository's one benchmark: five workloads over the
// whole stack, end-to-end metrics from untraced runs, per-layer metrics from
// a traced run, and a correctness gate inside the same command. README.md in
// this directory says why each workload exists and how to read the output;
// BENCHMARK.json at the repository root is the contract the acceptance
// driver reads.
//
// Modes:
//
//	bench -workload W [-seed N] [-seconds S] [-trace 0|1]
//	    one run of one workload; the last line of standard output is one
//	    JSON object {correct, attempted, failed, metrics}.
//	bench [-reps R] [-trace 1] [-out F] [-trace-out F]
//	    a run-set: every workload R times, each in a fresh child process,
//	    plus one traced run per workload with -trace 1.
//	bench -compare a.json b.json
//	    two run-sets against the bounds in BENCHMARK.json.
//	bench -list
//	    the workloads and metrics, as BENCHMARK.json must list them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and print its result as the last line")
	seed := fs.Uint64("seed", 1, "workload seed: Config.Seed, PKA direction, job-mix order")
	seconds := fs.Float64("seconds", 10, "how long the units of one untraced run take; the set-up repetitions between them add 15 %")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	reps := fs.Int("reps", 5, "run-set: untraced runs per workload (at least 3)")
	out := fs.String("out", "bench_results.json", "run-set: results file")
	traceOut := fs.String("trace-out", "", "write the traced runs' spans here as Chrome trace-event JSON")
	compare := fs.Bool("compare", false, "compare the two run-set results files given as arguments")
	list := fs.Bool("list", false, "print the workloads and metrics as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		return printList()
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench -compare needs two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case *workload != "":
		return runOne(runOptions{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0}, *traceOut)
	}
	return runSet(runSetOptions{seed: *seed, seconds: *seconds, reps: *reps, trace: *trace != 0, out: *out, traceOut: *traceOut})
}

// lastLine is the object the acceptance driver parses from the last line of
// standard output.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detailPrefix starts the line, before the last one, on which a run prints
// its whole result for the run-set parent.
const detailPrefix = "bench-detail: "

// runOne performs one run and prints its result; a run that could not
// produce a result prints none and exits non-zero.
func runOne(opt runOptions, traceOut string) int {
	res, err := runWorkload(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench: problem:", p)
	}
	if opt.trace {
		printLayerTable(os.Stdout, opt.workload, res.Layers)
		if traceOut != "" {
			if err := writeSpans(traceOut, res.spans); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	detail, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s%s\n", detailPrefix, detail)
	line, err := json.Marshal(lastLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// listing is what -list prints: the names BENCHMARK.json must repeat.
type listing struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []listedMetric `json:"end_to_end"`
	PerLayer  []listedMetric `json:"per_layer"`
}

type listedMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func currentListing() listing {
	l := listing{Workloads: workloadSpecs}
	for _, m := range endToEnd {
		b := m.Bound
		l.EndToEnd = append(l.EndToEnd, listedMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		l.PerLayer = append(l.PerLayer, listedMetric{m.Name, m.Unit, m.Better, nil})
	}
	return l
}

func printList() int {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(currentListing()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}
