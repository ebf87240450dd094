package cliutil

import (
	"flag"
	"testing"
)

// TestRunFlags pins what the three simulation CLIs get from the shared
// registration: the parameterised help strings, the implied -metrics, and
// the -restart-ranks rule.
func TestRunFlags(t *testing.T) {
	f := RegisterRunFlags("prog", "KMC cycles", 10, "kmc-cycle, checkpoint-commit")
	for name, usage := range map[string]string{
		"checkpoint-every": "snapshot cadence in KMC cycles",
		"metrics-every":    "periodic JSONL flush cadence in KMC cycles (0 = final only)",
		"inject-fault":     `fault plan "point:rank:step,..." (points: kmc-cycle, checkpoint-commit)`,
	} {
		if got := flag.Lookup(name).Usage; got != usage {
			t.Errorf("-%s usage %q, want %q", name, got, usage)
		}
	}
	if ck := f.Checkpoint(); ck.Every != 10 || ck.Dir != "" || ck.Restart {
		t.Errorf("default checkpoint policy %+v", ck)
	}
	if f.Telemetry().Enabled {
		t.Error("telemetry enabled with no metrics flag set")
	}
	set := func(name, value string) {
		t.Helper()
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
	}
	set("metrics-out", "m.jsonl")
	if tel := f.Telemetry(); !tel.Enabled || tel.JSONLPath != "m.jsonl" {
		t.Errorf("-metrics-out did not imply -metrics: %+v", tel)
	}

	grid, cells := [3]int{2, 1, 1}, [3]int{12, 12, 12}
	if g, err := f.Grid(grid, cells, 3); err != nil || g != grid {
		t.Errorf("without -restart-ranks: grid %v, err %v", g, err)
	}
	set("restart-ranks", "4")
	if _, err := f.Grid(grid, cells, 3); err == nil || err.Error() != "prog: -restart-ranks requires -restart" {
		t.Errorf("-restart-ranks without -restart: err %v", err)
	}
	set("restart", "true")
	g, err := f.Grid(grid, cells, 3)
	if err != nil || g[0]*g[1]*g[2] != 4 {
		t.Errorf("-restart -restart-ranks 4: grid %v, err %v", g, err)
	}
	if _, err := f.Grid(grid, cells, 7); err == nil {
		t.Error("a 4-rank grid with 7-cell slabs over 12 cells was accepted")
	}
}
