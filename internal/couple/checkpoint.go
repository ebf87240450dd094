package couple

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// This file implements the fault-tolerance layer for long coupled runs: at
// the paper's headline scale (19.2 simulated days on 6.6M cores) rank
// failure is the norm, so the driver periodically snapshots all ranks of
// the active stage into a versioned on-disk file set and can resume from
// the newest valid snapshot with a bit-identical continued trajectory.
//
// On-disk layout (one snapshot per committed directory):
//
//	<dir>/ckpt-000007/manifest.json   stage, step, seed hash, rank count
//	<dir>/ckpt-000007/rank-000.ckpt   per-rank gob stream (md.Rank / kmc.State)
//	<dir>/ckpt-000007/rank-001.ckpt
//	<dir>/.tmp-ckpt/                  in-flight snapshot, ignored by Latest
//
// The commit point is a single os.Rename of the staging directory onto its
// final ckpt-<seq> name, performed by rank 0 after every rank file and the
// manifest are fully written — a crash at any earlier point leaves only the
// staging directory behind, so the previous committed snapshot stays
// loadable (the atomic-commit test injects exactly that crash).

// Checkpoint configures periodic snapshots and restart for a run.
type Checkpoint struct {
	// Dir is the snapshot directory; empty disables checkpointing.
	Dir string
	// Every is the snapshot cadence in MD steps / KMC cycles; <= 0 writes
	// no periodic snapshots (restart from an existing Dir still works).
	Every int
	// Restart resumes from the newest valid snapshot in Dir (fresh start
	// when Dir holds none).
	Restart bool
	// Keep bounds how many committed snapshots are retained (oldest pruned
	// after each commit); <= 0 means the default of 2.
	Keep int
}

// Stage names recorded in manifests.
const (
	StageMD       = "md"
	StageKMC      = "kmc"
	StageCampaign = "campaign"
)

// Version history: 1 carried (Seq, Stage, Step, Ranks, ConfigHash, MD);
// 2 adds the source topology (Grid, Cuts) so a snapshot can be re-sharded
// onto a different rank count or slab layout at restart (DESIGN.md §14);
// 3 adds the campaign block — iteration count, dose ledger, spectrum-RNG
// cursor, defect population — for dose-accumulation campaigns (DESIGN.md
// §15). Readers accept 2 and 3, so pre-campaign snapshots stay loadable.
const (
	manifestVersion    = 3
	minManifestVersion = 2
	manifestName       = "manifest.json"
	tmpDirName         = ".tmp-ckpt"
	defaultKeep        = 2
)

// MDSummary carries the MD stage's contribution to the coupled result
// through a KMC-stage manifest, so a run resumed after the handoff never
// re-runs MD.
type MDSummary struct {
	Vacancies   int
	BeforeSites []lattice.Coord
}

// Topology records the Cartesian decomposition that wrote a snapshot: the
// process grid and, when the repartitioner had shifted slab boundaries away
// from the uniform split, the explicit cuts. It is what the re-shard loader
// needs to interpret the per-rank shard files.
type Topology struct {
	Grid [3]int
	Cuts [3][]int `json:",omitempty"`
}

// SourceGrid rebuilds the decomposition over lattice l.
func (t Topology) SourceGrid(l *lattice.Lattice) (*lattice.Grid, error) {
	g, err := lattice.NewGridCuts(l, t.Grid[0], t.Grid[1], t.Grid[2], t.Cuts)
	if err != nil {
		return nil, fmt.Errorf("couple: manifest topology invalid: %w", err)
	}
	return g, nil
}

// Manifest describes one committed snapshot.
type Manifest struct {
	Version    int
	Seq        int
	Stage      string // StageMD or StageKMC
	Step       int    // MD steps / KMC cycles completed at the snapshot
	Ranks      int
	Topology   Topology // decomposition that wrote the rank files
	ConfigHash string
	MD         *MDSummary     `json:",omitempty"` // present on KMC-stage coupled snapshots
	Campaign   *CampaignState `json:",omitempty"` // present on campaign-stage snapshots

	dir string // committed directory, set when loaded
}

// Open returns the rank's state stream inside the snapshot.
func (m *Manifest) Open(rank int) (io.ReadCloser, error) {
	f, err := os.Open(filepath.Join(m.dir, rankFileName(rank)))
	if err != nil {
		return nil, fmt.Errorf("couple: opening checkpoint rank file: %w", err)
	}
	return f, nil
}

func rankFileName(rank int) string { return fmt.Sprintf("rank-%03d.ckpt", rank) }

var ckptDirRe = regexp.MustCompile(`^ckpt-(\d{6})$`)

// Latest returns the newest valid snapshot manifest in dir, or (nil, nil)
// when dir holds none. A snapshot is valid when its manifest decodes and
// every rank file it promises exists; newer corrupt directories are skipped
// in favor of older complete ones, and every rejection is logged with its
// reason — silent fallback once hid real data loss from operators. A
// manifest whose ConfigHash differs from hash is an error: resuming under a
// diverging configuration would silently change the trajectory.
func Latest(dir, hash string) (*Manifest, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("couple: reading checkpoint dir: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		if m := ckptDirRe.FindStringSubmatch(e.Name()); m != nil && e.IsDir() {
			n, _ := strconv.Atoi(m[1])
			seqs = append(seqs, n)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	for _, seq := range seqs {
		name := fmt.Sprintf("ckpt-%06d", seq)
		man, err := loadManifest(filepath.Join(dir, name))
		if err != nil {
			// Damaged snapshot; fall back to an older one, but say so — the
			// operator should know a committed snapshot went bad.
			log.Printf("couple: skipping damaged snapshot %s: %v", name, err)
			continue
		}
		if man.ConfigHash != hash {
			return nil, fmt.Errorf("couple: checkpoint %d was written by config %s, current config is %s",
				man.Seq, man.ConfigHash, hash)
		}
		return man, nil
	}
	return nil, nil
}

// loadManifest decodes and validates one committed snapshot directory.
func loadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("couple: decoding manifest: %w", err)
	}
	if man.Version < minManifestVersion || man.Version > manifestVersion {
		return nil, fmt.Errorf("couple: manifest version %d, want %d..%d",
			man.Version, minManifestVersion, manifestVersion)
	}
	switch man.Stage {
	case StageMD, StageKMC:
	case StageCampaign:
		camp := man.Campaign
		if camp == nil {
			return nil, fmt.Errorf("couple: campaign manifest has no campaign block")
		}
		if camp.Iter < 0 || camp.Dose < 0 || camp.Recoils < 0 || camp.Skipped < 0 {
			return nil, fmt.Errorf("couple: campaign block has negative counters: %+v", camp)
		}
	default:
		return nil, fmt.Errorf("couple: manifest has unknown stage %q", man.Stage)
	}
	if man.Ranks <= 0 {
		return nil, fmt.Errorf("couple: manifest has %d ranks", man.Ranks)
	}
	if man.Step < 0 {
		return nil, fmt.Errorf("couple: manifest has negative step %d", man.Step)
	}
	g := man.Topology.Grid
	if g[0]*g[1]*g[2] != man.Ranks {
		return nil, fmt.Errorf("couple: manifest topology %v does not yield %d ranks", g, man.Ranks)
	}
	for d := 0; d < 3; d++ {
		if cs := man.Topology.Cuts[d]; cs != nil && len(cs) != g[d]+1 {
			return nil, fmt.Errorf("couple: manifest dim %d has %d cut values for %d slabs",
				d, len(cs), g[d])
		}
	}
	for r := 0; r < man.Ranks; r++ {
		if _, err := os.Stat(filepath.Join(dir, rankFileName(r))); err != nil {
			return nil, fmt.Errorf("couple: snapshot missing rank file: %w", err)
		}
	}
	man.dir = dir
	return &man, nil
}

// Coordinator drives collective snapshots. Its mutable fields (the next
// sequence number) are touched only by rank 0, whose snapshot calls are
// serialized by the surrounding barriers, so the shared struct needs no
// lock.
type Coordinator struct {
	dir   string
	every int
	keep  int
	hash  string

	nextSeq int // rank 0 only

	// set, when non-nil, provides the per-rank registries the snapshot
	// save/commit spans record into (telemetry.Set is nil-safe throughout).
	set *telemetry.Set
}

// AttachTelemetry wires the run's telemetry set into the coordinator so
// Snapshot can time its save and commit phases per rank. Safe on a nil
// coordinator or a nil set.
func (co *Coordinator) AttachTelemetry(set *telemetry.Set) {
	if co != nil {
		co.set = set
	}
}

// NewCoordinator prepares a coordinator writing into ck.Dir. The sequence
// counter continues after the newest directory already present, so a
// restarted run never reuses a committed name.
func NewCoordinator(ck Checkpoint, hash string) (*Coordinator, error) {
	if err := os.MkdirAll(ck.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("couple: creating checkpoint dir: %w", err)
	}
	keep := ck.Keep
	if keep <= 0 {
		keep = defaultKeep
	}
	co := &Coordinator{dir: ck.Dir, every: ck.Every, keep: keep, hash: hash, nextSeq: 1}
	entries, err := os.ReadDir(ck.Dir)
	if err != nil {
		return nil, fmt.Errorf("couple: reading checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if m := ckptDirRe.FindStringSubmatch(e.Name()); m != nil {
			if n, _ := strconv.Atoi(m[1]); n >= co.nextSeq {
				co.nextSeq = n + 1
			}
		}
	}
	return co, nil
}

// Due reports whether the cadence calls for a snapshot after the given
// step/cycle. Every rank computes the same answer, keeping Snapshot
// collective.
func (co *Coordinator) Due(step int) bool {
	return co != nil && co.every > 0 && step > 0 && step%co.every == 0
}

// Snapshot collectively writes one snapshot of the active stage: every rank
// streams its state through save into the shared staging directory, then
// rank 0 writes the manifest — recording the decomposition topo that the
// rank files were sliced by — and commits with an atomic rename. It must be
// entered by all ranks with identical (stage, step, topo).
func (co *Coordinator) Snapshot(c *mpi.Comm, stage string, step int, topo Topology, md *MDSummary, save func(io.Writer) error) error {
	return co.snapshot(c, stage, step, topo, md, nil, save)
}

// snapshot is Snapshot with the campaign block: a campaign-stage snapshot's
// rank files carry the MD rank state (the only distributed state a campaign
// resumes from; the KMC hand-off is recomputed deterministically) and its
// manifest carries the campaign ledger.
func (co *Coordinator) snapshot(c *mpi.Comm, stage string, step int, topo Topology, md *MDSummary, camp *CampaignState, save func(io.Writer) error) error {
	reg := co.set.Rank(c.Rank())
	snap := reg.Timer("couple/checkpoint").Begin()
	defer snap.End()
	tmp := filepath.Join(co.dir, tmpDirName)
	if c.Rank() == 0 {
		// A leftover staging dir from a crashed attempt is dead weight.
		if err := os.RemoveAll(tmp); err != nil {
			return fmt.Errorf("couple: clearing checkpoint staging dir: %w", err)
		}
		if err := os.MkdirAll(tmp, 0o777); err != nil {
			return fmt.Errorf("couple: creating checkpoint staging dir: %w", err)
		}
	}
	c.Barrier() // staging dir exists before anyone writes into it

	sp := reg.Timer("couple/checkpoint/save").Begin()
	if err := co.writeRankFile(c, tmp, save); err != nil {
		return err
	}
	sp.End()
	c.Barrier() // every rank file complete before the commit

	if c.Rank() == 0 {
		commit := reg.Timer("couple/checkpoint/commit").Begin()
		// The armed crash window of the atomic-commit guarantee: rank files
		// are on disk, the manifest rename has not happened.
		c.FaultPoint(mpi.PointCheckpointCommit, step)
		seq := co.nextSeq
		man := Manifest{
			Version:    manifestVersion,
			Seq:        seq,
			Stage:      stage,
			Step:       step,
			Ranks:      c.Size(),
			Topology:   topo,
			ConfigHash: co.hash,
			MD:         md,
			Campaign:   camp,
		}
		data, err := json.MarshalIndent(&man, "", "  ")
		if err != nil {
			return fmt.Errorf("couple: encoding manifest: %w", err)
		}
		if err := os.WriteFile(filepath.Join(tmp, manifestName), data, 0o666); err != nil {
			return fmt.Errorf("couple: writing manifest: %w", err)
		}
		final := filepath.Join(co.dir, fmt.Sprintf("ckpt-%06d", seq))
		if err := os.Rename(tmp, final); err != nil {
			return fmt.Errorf("couple: committing checkpoint: %w", err)
		}
		co.nextSeq = seq + 1
		co.prune(seq)
		commit.End()
	}
	c.Barrier() // commit visible before any rank can start the next snapshot
	return nil
}

// writeRankFile streams this rank's state into the staging directory.
func (co *Coordinator) writeRankFile(c *mpi.Comm, tmp string, save func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(tmp, rankFileName(c.Rank())))
	if err != nil {
		return fmt.Errorf("couple: creating checkpoint rank file: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := save(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("couple: writing checkpoint rank file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("couple: closing checkpoint rank file: %w", err)
	}
	return nil
}

// prune removes committed snapshots older than the retention window. Rank 0
// only; removal failures are ignored (stale snapshots waste space, nothing
// else).
func (co *Coordinator) prune(latest int) {
	entries, err := os.ReadDir(co.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if m := ckptDirRe.FindStringSubmatch(e.Name()); m != nil {
			if n, _ := strconv.Atoi(m[1]); n <= latest-co.keep {
				os.RemoveAll(filepath.Join(co.dir, e.Name()))
			}
		}
	}
}
