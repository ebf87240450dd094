package couple

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdkmc/internal/md"
)

// restartMD is a 1-rank 8³ MD run for the restart-rule tests.
func restartMD(steps int) md.Config {
	cfg := contractMD()
	cfg.Cells = [3]int{8, 8, 8}
	cfg.Steps = steps
	return cfg
}

// TestRestartRejectsManifestStepMismatch: the resume step comes from the
// restored rank files, and a manifest that disagrees with them is refused
// with both values named — not resumed silently into a different run.
func TestRestartRejectsManifestStepMismatch(t *testing.T) {
	cfg := restartMD(30)
	dir := t.TempDir()
	if _, err := RunMD(cfg, Checkpoint{Dir: dir, Every: 10}); err != nil {
		t.Fatal(err)
	}
	man, err := Latest(dir, cfg.Hash())
	if err != nil || man == nil || man.Step != 20 {
		t.Fatalf("newest snapshot %+v, %v; want one at step 20", man, err)
	}
	man.Step = 10
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(man.dir, manifestName), data, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = RunMD(cfg, Checkpoint{Dir: dir, Restart: true})
	if err == nil {
		t.Fatal("restart from a manifest at step 10 over rank files at step 20 was accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "step 10") || !strings.Contains(msg, "step 20") {
		t.Errorf("error %q does not name both steps", msg)
	}
}

// TestStrayFileIsNotASnapshot: a committed snapshot is a ckpt-<seq>
// directory, for Latest, for the coordinator's numbering and for pruning
// alike. A regular file of that name neither advances the sequence nor is
// pruned when its number falls out of the retention window.
func TestStrayFileIsNotASnapshot(t *testing.T) {
	cfg := restartMD(12)
	stray := func(dir string) string {
		t.Helper()
		path := filepath.Join(dir, "ckpt-000009")
		if err := os.WriteFile(path, []byte("not a snapshot"), 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := func(dir string, every, wantSeq int) {
		t.Helper()
		if _, err := RunMD(cfg, Checkpoint{Dir: dir, Every: every}); err != nil {
			t.Fatal(err)
		}
		if man, err := Latest(dir, cfg.Hash()); err != nil || man == nil || man.Seq != wantSeq {
			t.Errorf("newest snapshot %+v, %v; want sequence %d", man, err, wantSeq)
		}
	}
	survives := func(path string) {
		t.Helper()
		if fi, err := os.Stat(path); err != nil || !fi.Mode().IsRegular() {
			t.Errorf("the stray file was pruned or replaced: %v", err)
		}
	}

	// Numbering: the file is the highest ckpt- name in the directory, yet the
	// snapshots after steps 5 and 10 are sequence 1 and 2.
	dir := t.TempDir()
	path := stray(dir)
	run(dir, 5, 2)
	survives(path)

	// Pruning: snapshots after steps 1..11 are sequence 1..11 (10 and 11
	// kept); a second run commits 12..22, and every prune from then on
	// covers sequence 9.
	dir = t.TempDir()
	run(dir, 1, 11)
	path = stray(dir)
	run(dir, 1, 22)
	survives(path)
}
