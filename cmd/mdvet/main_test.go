package main

import (
	"testing"

	"mdkmc/internal/analysis"
)

// TestTreeIsClean runs the full mdvet suite over every package of the
// module: the contracts the analyzers encode must hold in the tree itself,
// so any finding here is a regression (or needs a reasoned
// //mdvet:ignore).
func TestTreeIsClean(t *testing.T) {
	pkgs, err := analysis.Load("mdkmc/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	diags, stats, err := analysis.CheckStats(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	// The reasoned exemptions in force are pinned, not just printed by
	// `make lint`: a new //mdvet:ignore is a decision that has to show up
	// here (and in DESIGN.md §12).
	wantSuppressed := map[string]int{"preemptpoll": 1, "errpanic": 14}
	for _, s := range stats {
		if s.Suppressed != wantSuppressed[s.Analyzer] {
			t.Errorf("%s: %d suppressed findings, want %d", s.Analyzer, s.Suppressed, wantSuppressed[s.Analyzer])
		}
	}
}
