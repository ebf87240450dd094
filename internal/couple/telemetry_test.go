package couple

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mdkmc/internal/telemetry"
)

// TestTelemetryDoesNotPerturbRun is the zero-perturbation gate of the
// telemetry subsystem: a 2-rank coupled run with full telemetry (spans,
// counters, periodic JSONL flushes, end-of-run aggregation) must produce a
// trajectory, comm-counter state, and on-disk checkpoint file set that are
// byte-identical to the same run with telemetry disabled.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	cfg := coupledConfig()
	cfg.MD.Cells = [3]int{22, 11, 11}
	cfg.MD.Grid = [3]int{2, 1, 1}

	dirOff := t.TempDir()
	cfg.Checkpoint = Checkpoint{Dir: dirOff, Every: 20}
	off, err := Run(cfg)
	if err != nil {
		t.Fatalf("telemetry-off run: %v", err)
	}
	if off.Telemetry != nil {
		t.Fatal("disabled run still produced a telemetry report")
	}

	dirOn := t.TempDir()
	jsonl := filepath.Join(t.TempDir(), "run.jsonl")
	cfg.Checkpoint.Dir = dirOn
	cfg.Telemetry = telemetry.Options{Enabled: true, JSONLPath: jsonl, FlushEvery: 25}
	on, err := Run(cfg)
	if err != nil {
		t.Fatalf("telemetry-on run: %v", err)
	}
	if on.Telemetry == nil {
		t.Fatal("enabled run produced no telemetry report")
	}

	sameTrajectory(t, off, on)
	// The instrumented comm counters must also be untouched: telemetry's own
	// aggregation traffic happens after the stats are captured.
	if off.CommStats != on.CommStats {
		t.Errorf("comm stats perturbed: off %+v, on %+v", off.CommStats, on.CommStats)
	}
	sameCheckpointDirs(t, dirOff, dirOn)
	validateJSONL(t, jsonl, on.Telemetry)
}

// sameCheckpointDirs asserts two checkpoint directories hold the same
// committed snapshots with byte-identical manifests and rank files.
func sameCheckpointDirs(t *testing.T, a, b string) {
	t.Helper()
	pathsA, pathsB := listFiles(t, a), listFiles(t, b)
	if len(pathsA) == 0 {
		t.Fatal("reference run committed no checkpoint files")
	}
	if len(pathsA) != len(pathsB) {
		t.Fatalf("checkpoint file sets differ: %v vs %v", pathsA, pathsB)
	}
	for i, rel := range pathsA {
		if rel != pathsB[i] {
			t.Fatalf("checkpoint file sets differ: %v vs %v", pathsA, pathsB)
		}
		da, err := os.ReadFile(filepath.Join(a, rel))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Errorf("checkpoint file %s differs between telemetry-off and -on runs", rel)
		}
	}
}

func listFiles(t *testing.T, root string) []string {
	t.Helper()
	var rels []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			rels = append(rels, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rels
}

// validateJSONL checks the -metrics-out artifact end to end: every line
// parses, snapshots cover every rank, exactly one final report exists and it
// matches the in-memory report, and the major phase spans and symmetric comm
// counters the ISSUE promises are all present.
func validateJSONL(t *testing.T, path string, want *telemetry.Report) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	type line struct {
		Type    string `json:"type"`
		Rank    int    `json:"rank"`
		Ranks   int    `json:"ranks"`
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	var snapshots, reports int
	ranks := map[int]bool{}
	reportNames := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<22), 1<<22)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("JSONL line does not parse: %v", err)
		}
		switch l.Type {
		case "snapshot":
			snapshots++
			ranks[l.Rank] = true
		case "report":
			reports++
			if l.Ranks != want.Ranks {
				t.Errorf("report line has %d ranks, in-memory report has %d", l.Ranks, want.Ranks)
			}
			for _, m := range l.Metrics {
				reportNames[m.Name] = true
			}
		default:
			t.Fatalf("unknown JSONL line type %q", l.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if reports != 1 {
		t.Fatalf("JSONL holds %d report lines, want 1", reports)
	}
	if snapshots == 0 || !ranks[0] || !ranks[1] {
		t.Fatalf("JSONL snapshots do not cover both ranks (%d lines, ranks %v)", snapshots, ranks)
	}
	for _, name := range []string{
		"md/step", "md/force", "md/density", "md/ghost/pos/pack", "md/ghost/pos/wait",
		"md/ghost/migrate", "md/ghost/migrate/wait",
		"kmc/cycle", "kmc/sector", "kmc/ghost/dirty-bytes", "kmc/events",
		"kmc/ghost/flush", "kmc/ghost/flush/pack", "kmc/ghost/flush/wait", "kmc/ghost/flush/unpack",
		"couple/md-stage", "couple/kmc-stage", "couple/checkpoint",
		"mpi/msgs-sent", "mpi/bytes-sent", "mpi/bytes-recv",
	} {
		if !reportNames[name] {
			t.Errorf("report is missing metric %q", name)
		}
	}
	for _, m := range want.Metrics {
		if !reportNames[m.Name] {
			t.Errorf("in-memory report metric %q absent from the JSONL report line", m.Name)
		}
	}
	// The symmetric accounting satellite, read off the measured report: the
	// global bytes sent must equal the global bytes received.
	if s, r := want.CounterSum("mpi/bytes-sent"), want.CounterSum("mpi/bytes-recv"); s != r {
		t.Errorf("global comm asymmetric in the report: sent %d bytes, received %d", s, r)
	}
}
