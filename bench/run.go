package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workDirName is the scratch directory, under the current directory, that
// holds checkpoint and job-server state while a run is in flight. The
// benchmark reads and writes nothing outside the checkout it runs in.
const workDirName = ".bench_work"

// unitOut is what one unit — one whole public call, or one scripted
// serve-mix scenario — reports.
type unitOut struct {
	wall   time.Duration
	work   float64 // units of work done: atom-steps, events, iterations, jobs
	rate   float64 // work per second when it is not work/wall (serve-mix: phase 1 only)
	ops    int     // operations attempted: steps, cycles, iterations, jobs
	failed int     // operations that failed (a failed check fails the unit's ops)
	digest string  // result digest; identical for every unit of one seed

	problems []string // why the correctness gate failed, if it did
}

// gate records a failed correctness gate: every operation of the unit counts
// as failed.
func (u *unitOut) gate(problems []string) {
	if len(problems) > 0 {
		u.problems = append(u.problems, problems...)
		u.failed = u.ops
	}
}

// workload is one benchmark workload at one size. Every method receives only
// configs and specs generated from the seed.
type workload interface {
	// setup performs the workload's construction once (md.NewRank /
	// kmc.NewState across the world, serve.New + listener) and returns how
	// long it took.
	setup() (time.Duration, error)
	// unit runs the workload's public entry point once with tracing off.
	unit() (unitOut, error)
	// traced runs the per-layer pass: the unit again with spans and the
	// program's own telemetry on, plus the layer probes attached to this
	// workload. ref runs one untraced reference unit; traced calls it before
	// every telemetry-on repetition of the whole call, so that the two sides
	// of telemetry.overhead_share alternate and a slow spell of the host
	// lands on both. It returns the measured per-layer metrics and the
	// digests of every traced repetition of the unit.
	traced(tr *tracer, ref func() error) (map[string]float64, []string, error)
}

// newWorkload builds the named workload from the seed. tiny selects the
// second-scale sizes bench_test.go runs.
func newWorkload(name string, seed uint64, tiny bool, dir string) (workload, error) {
	switch name {
	case wlMDBulk:
		return newMDBulk(seed, tiny), nil
	case wlMDCascade:
		return newMDCascade(seed, tiny, dir), nil
	case wlKMCAnneal:
		return newKMCAnneal(seed, tiny), nil
	case wlCampaign:
		return newCampaign(seed, tiny, dir), nil
	case wlServeMix:
		return newServeMix(seed, tiny, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", name)
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the outcome of one run of one workload: the object printed
// as the last line of standard output (correct, attempted, failed, metrics)
// plus what the run-set mode collects from its child processes.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Units     int                    `json:"units"`
	Digest    string                 `json:"digest"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Layers    []layerRow             `json:"layers,omitempty"`

	spans []span
}

func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// absorb adds one untraced unit to the run's failure accounting and holds
// its digest against the run's first.
func (r *runResult) absorb(label string, u unitOut) {
	r.Attempted += u.ops
	r.Failed += u.failed
	for _, p := range u.problems {
		r.problem("%s: %s", label, p)
	}
	switch {
	case r.Digest == "":
		r.Digest = u.digest
	case u.digest != r.Digest:
		r.problem("%s: digest %s differs from the first unit's %s", label, u.digest, r.Digest)
		if u.failed == 0 {
			r.Failed += u.ops
		}
	}
}

// runOptions selects what one run does.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // second-scale sizes; no flag sets it, only bench_test.go
	scratch  string // parent of the run's scratch directory; "" = workDirName
}

// Set-up repetitions: after every unit, construction (and the teardown after
// it, which is not timed) repeats for setupShare of that unit's wall, so a
// 20 s run spends 3 s more on about 155 set-ups of md-bulk (18 ms each) and
// 2,000 of serve-mix. They sit between the units, not in one window after
// them, because the host's slow spells last seconds to minutes: the fastest
// construction of a single 3 s window read 20–40 % high whenever that window
// fell into one, and once 172 ms against 5 ms (campaign-ckpt, 1 s window).
const (
	minSetupReps = 5
	setupShare   = 0.15
)

// procsFor is the GOMAXPROCS of a run. An untraced run has one: ranks, server
// slots and clients take turns on a single thread, so wall_s is the work of
// all of them and no thread ever parks. With two, every Recv that blocks halts
// a vCPU of this shared 2-vCPU guest, and how soon the host runs it again is
// what the 2-rank workloads then measured (spreads of 0.27 and 0.30 over ten
// runs of one commit). The traced run keeps two, so that the waits between
// ranks it reports are waits; its metrics carry no bound.
func procsFor(trace bool) int {
	if trace {
		return min(2, runtime.NumCPU())
	}
	return 1
}

// runWorkload performs one run: set-up repetitions, then either untraced
// units for opt.seconds (end-to-end metrics) or the traced pass (per-layer
// metrics).
func runWorkload(opt runOptions) (*runResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procsFor(opt.trace)))
	if opt.scratch == "" {
		opt.scratch = workDirName
	}
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		return nil, fmt.Errorf("bench: scratch dir: %w", err)
	}
	dir, err := os.MkdirTemp(opt.scratch, opt.workload+"-")
	if err != nil {
		return nil, fmt.Errorf("bench: scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(opt.workload, opt.seed, opt.tiny, dir)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: opt.workload, Seed: opt.seed, Trace: opt.trace,
		Correct: true, Metrics: map[string]metricValue{},
	}
	if opt.trace {
		return res, runTraced(w, opt, res)
	}

	var walls, rates, setups []float64
	// Every unit and every construction starts from a collected heap, as a
	// caller's one call does: otherwise where the collector's cycles fall
	// among the garbage of earlier repetitions decides the peak (md-bulk read
	// 63–106 MB), and the constructions' garbage would count towards it.
	setup := func() error {
		runtime.GC()
		d, err := w.setup()
		if err != nil {
			return fmt.Errorf("%s: setup: %w", opt.workload, err)
		}
		setups = append(setups, d.Seconds())
		return nil
	}
	total := opt.seconds * (1 + setupShare)
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < total {
		runtime.GC()
		u, err := w.unit()
		if err != nil {
			return nil, fmt.Errorf("%s: unit %d: %w", opt.workload, len(walls), err)
		}
		res.absorb(fmt.Sprintf("unit %d", len(walls)), u)
		fmt.Printf("unit %d: wall %.4f s, %g units of work, digest %s\n", len(walls), u.wall.Seconds(), u.work, u.digest)
		walls = append(walls, u.wall.Seconds())
		if u.rate == 0 {
			u.rate = u.work / u.wall.Seconds()
		}
		rates = append(rates, u.rate)
		if opt.tiny {
			continue
		}
		for begin := time.Now(); time.Since(begin) < time.Duration(setupShare*float64(u.wall)); {
			if err := setup(); err != nil {
				return nil, err
			}
		}
	}
	res.Units = len(walls)
	for len(setups) < minSetupReps {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	rss := peakRSSMB()
	fmt.Printf("%d units, %d set-ups\n", len(walls), len(setups))

	vals := map[string]float64{
		"setup_s":     slices.Min(setups),
		"wall_s":      slices.Min(walls),
		"work_per_s":  slices.Max(rates),
		"peak_rss_mb": rss,
	}
	for _, m := range endToEnd {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			res.problem("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// sizing is what the traced pass scales with the workload size. reps is how
// often it repeats each timed whole call (untraced reference, telemetry on,
// the campaign's no-checkpoint contrast), keeping the fastest as the
// untraced runs do; probeDiv divides the layer probes' loop lengths.
type sizing struct {
	reps     int
	probeDiv int
}

func sizingFor(tiny bool) sizing {
	if tiny {
		return sizing{reps: 1, probeDiv: 16}
	}
	return sizing{reps: 3, probeDiv: 1}
}

// fastest runs call reps times inside spans named name and returns the
// fastest repetition's result and wall, plus every repetition's digest.
// before, when not nil, runs ahead of every repetition, outside its span.
func fastest[T any](tr *tracer, name string, parent, reps int, before func() error, call func() (T, string, error)) (T, time.Duration, []string, error) {
	var best T
	var wall time.Duration
	var digests []string
	for i := 0; i < reps; i++ {
		if before != nil {
			if err := before(); err != nil {
				return best, 0, nil, err
			}
		}
		id := tr.begin(name, 0, parent)
		start := time.Now()
		r, digest, err := call()
		d := time.Since(start)
		tr.end(id)
		if err != nil {
			tr.fail(id)
			return best, 0, nil, fmt.Errorf("%s: %w", name, err)
		}
		digests = append(digests, digest)
		if i == 0 || d < wall {
			best, wall = r, d
		}
	}
	return best, wall, digests, nil
}

// runTraced performs the per-layer pass and fills every per-layer metric;
// those the workload does not measure are reported as 0.
func runTraced(w workload, opt runOptions, res *runResult) error {
	tr := newTracer(opt.workload)
	// The untraced reference units: the fastest one's wall is the base of
	// telemetry.overhead_share, and their digest is what every traced
	// repetition must reproduce.
	var base unitOut
	refs := 0
	ref := func() error {
		u, err := w.unit()
		if err != nil {
			return fmt.Errorf("untraced reference unit: %w", err)
		}
		res.absorb(fmt.Sprintf("reference unit %d", refs), u)
		if refs == 0 || u.wall < base.wall {
			base = u
		}
		refs++
		return nil
	}
	vals, digests, err := w.traced(tr, ref)
	if err == nil && refs == 0 {
		err = fmt.Errorf("no reference unit ran")
	}
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", opt.workload, err)
	}
	for i, d := range digests {
		res.Attempted += base.ops
		if d != res.Digest {
			res.problem("traced repetition %d: digest %s differs from the untraced %s", i, d, res.Digest)
			res.Failed += base.ops
		}
	}
	res.Units = refs + len(digests)
	if tw, ok := vals["traced_wall_s"]; ok {
		vals["telemetry.overhead_share"] = tw/base.wall.Seconds() - 1
		delete(vals, "traced_wall_s")
	}
	vals["fail_share"] = float64(res.Failed) / float64(res.Attempted)
	for _, m := range perLayer {
		v, ok := vals[m.Name]
		if m.measuredOn(opt.workload) != ok {
			res.problem("metric %s: measured=%v, declared for this workload=%v", m.Name, ok, m.measuredOn(opt.workload))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("metric %s is %v", m.Name, v)
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(vals, m.Name)
	}
	for name := range vals {
		res.problem("metric %s is measured but not declared in spec.go", name)
	}
	res.spans = tr.spans
	for _, s := range tr.spans {
		if s.Failed {
			res.problem("span %s failed", s.Name)
		}
	}
	res.Layers = layerTable(tr.spans)
	return nil
}

// peakRSSMB is this process's peak resident set size so far, in MB. Each run
// is its own process, so the figure covers exactly one workload.
//
// It is VmHWM of /proc/self/status, the high-water mark of this program's
// own address space, and not getrusage's ru_maxrss: that one starts from the
// resident size of whatever forked this process, so under `go run` a workload
// smaller than the go command (kmc-anneal, serve-mix) would report the go
// command's 20–30 MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// digester accumulates a result digest from exact values: float bit
// patterns and integers, never formatted decimals.
type digester struct{ h [sha256.Size]byte }

func (d *digester) add(format string, args ...any) {
	sum := sha256.Sum256(append(d.h[:], fmt.Sprintf(format, args...)...))
	d.h = sum
}

func (d *digester) float(v float64) { d.add("f%016x", math.Float64bits(v)) }
func (d *digester) int(v int)       { d.add("i%d", v) }
func (d *digester) sum() string     { return hex.EncodeToString(d.h[:8]) }

// dirBytes returns the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
