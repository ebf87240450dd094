package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
)

// Verdicts of one workload × end-to-end metric pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worseBy is how much b's median is worse than a's, as a share of a's
// (negative when b is better).
func worseBy(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every value of b reads better than every value
// of a.
func allBetter(better string, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// verdict applies the benchmark's rule: a median worse by more than the
// bound is a regression; where either side's inter-quartile spread exceeds
// the bound the pairing is unresolved, unless every run of b beats every run
// of a.
func verdict(bound float64, a, b metricSummary) string {
	if spread(a.Values) > bound || spread(b.Values) > bound {
		if allBetter(a.Better, a.Values, b.Values) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worseBy(a.Better, a.Median, b.Median) > bound {
		return verdictRegressed
	}
	return verdictOK
}

// correctnessLoss lists the ways run-set b's workload is less correct than
// a's. Each is a regression whatever the timings say: fail_share's bound is
// 0.
func correctnessLoss(a, b workloadSummary, sameSeed bool) []string {
	var why []string
	if !b.Correct {
		why = append(why, fmt.Sprintf("b is incorrect %v", b.Problems))
	}
	if b.Failed*a.Attempted > a.Failed*b.Attempted {
		why = append(why, fmt.Sprintf("b failed %d of %d operations, a %d of %d", b.Failed, b.Attempted, a.Failed, a.Attempted))
	}
	if sameSeed && a.Digest != b.Digest {
		why = append(why, fmt.Sprintf("b's digest %s is not a's %s for the same seed", b.Digest, a.Digest))
	}
	return why
}

// compareFiles prints, per workload × end-to-end metric, both medians and
// quartiles, the ratio with its base, and the verdict against the bound
// (spec.go's, which bench_test.go holds equal to BENCHMARK.json's). A
// workload or metric of a that b lacks is unresolved; a workload on which b
// is less correct than a is regressed. It also lists every exact count that
// differs. Exit status 1 on a regression.
func compareFiles(pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(a, b, pathA)
}

func compareResults(a, b *results, baseName string) int {
	if a.Seconds != b.Seconds {
		fmt.Printf("warning: the run-sets measured for different times (%g s, %g s)\n", a.Seconds, b.Seconds)
	}
	byName := map[string]workloadSummary{}
	for _, w := range b.Workloads {
		byName[w.Workload] = w
	}
	bounds := map[string]float64{}
	for _, m := range endToEnd {
		bounds[m.Name] = m.Bound
	}
	counts := map[string]int{}
	fmt.Printf("%-14s %-12s %12s %25s %12s %25s %18s %6s  %s\n",
		"workload", "metric", "a.median", "a.[q1,q3]", "b.median", "b.[q1,q3]", "b/a (base "+baseName+")", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			fmt.Printf("%-14s missing from the second file  %s\n", wa.Workload, verdictUnresolved)
			counts[verdictUnresolved]++
			continue
		}
		mb := map[string]metricSummary{}
		for _, m := range wb.EndToEnd {
			mb[m.Name] = m
		}
		for _, ma := range wa.EndToEnd {
			m, ok := mb[ma.Name]
			if !ok {
				fmt.Printf("%-14s %-12s missing from the second file  %s\n", wa.Workload, ma.Name, verdictUnresolved)
				counts[verdictUnresolved]++
				continue
			}
			v := verdict(bounds[ma.Name], ma, m)
			counts[v]++
			fmt.Printf("%-14s %-12s %12.6g %25s %12.6g %25s %18.4f %6.2f  %s\n",
				wa.Workload, ma.Name, ma.Median, fmt.Sprintf("[%.6g, %.6g]", ma.Q1, ma.Q3),
				m.Median, fmt.Sprintf("[%.6g, %.6g]", m.Q1, m.Q3), m.Median/ma.Median, bounds[ma.Name], v)
		}
		for _, why := range correctnessLoss(wa, wb, a.Seed == b.Seed) {
			fmt.Printf("%-14s correctness: %s  %s\n", wa.Workload, why, verdictRegressed)
			counts[verdictRegressed]++
		}
		pb := map[string]metricSummary{}
		for _, m := range wb.PerLayer {
			pb[m.Name] = m
		}
		for _, ma := range wa.PerLayer {
			if m, ok := pb[ma.Name]; ok && ma.Exact && m.Median != ma.Median {
				fmt.Printf("%-14s exact count %s differs: %v -> %v\n", wa.Workload, ma.Name, ma.Median, m.Median)
				counts["exact-differs"]++
			}
		}
	}
	fmt.Printf("%d ok, %d regressed, %d unresolved, %d exact counts differ\n",
		counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved], counts["exact-differs"])
	if counts[verdictRegressed] > 0 {
		return 1
	}
	return 0
}
