package couple

import (
	"bytes"
	"encoding/json"
	"log"
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

// TestLatestSkipsGobEraSnapshots: a manifest of version 2 or 3 promises
// gob rank files, which no engine reads any more. Latest skips such a
// snapshot, and logs why, before a restart reaches its rank files: here it
// falls back from a version-3 snapshot to the older version-4 one, then,
// with that one marked version 2 as well, finds none.
func TestLatestSkipsGobEraSnapshots(t *testing.T) {
	cfg := restartMD(30)
	dir := t.TempDir()
	if _, err := RunMD(cfg, Checkpoint{Dir: dir, Every: 10}); err != nil {
		t.Fatal(err)
	}
	mark := func(version int) {
		t.Helper()
		man, err := Latest(dir, cfg.Hash())
		if err != nil || man == nil {
			t.Fatalf("no snapshot to mark: %v", err)
		}
		man.Version = version
		data, err := json.MarshalIndent(man, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(man.dir, manifestName), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(prev)

	mark(3)
	if man, err := Latest(dir, cfg.Hash()); err != nil || man == nil || man.Step != 10 {
		t.Errorf("Latest past a version-3 snapshot: %+v, %v; want the version-4 one at step 10", man, err)
	}
	mark(2)
	if man, err := Latest(dir, cfg.Hash()); err != nil || man != nil {
		t.Errorf("Latest over gob-era snapshots only: %+v, %v; want none", man, err)
	}
	for _, want := range []string{"ckpt-000002: couple: manifest version 3, want 4", "ckpt-000001: couple: manifest version 2, want 4"} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("log does not say %q:\n%s", want, logged.String())
		}
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
