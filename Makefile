# Development gates. `make check` is the tier-1 verification plus vet and
# the race detector — the md force pool and ghost-exchange paths, the mpi
# rank-panic wakeup paths, and the KMC incremental bookkeeping are
# concurrency-sensitive and must stay clean under -race.

GO ?= go

# Pinned third-party analyzer versions (installed on demand — CI has
# network; offline dev boxes use `make lint`, which is stdlib-only).
STATICCHECK_VERSION ?= 2023.1.7
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: check fmt-check p2p-owner determinism no-env one-codec docs-check no-fma build test vet lint staticcheck govulncheck race recovery cover bench bench-compare bench-kmc bench-md bench-smoke smoke smoke-telemetry smoke-campaign smoke-serve fuzz fuzz-manifest fuzz-rankfile fuzz-spectrum fuzz-jobspec fuzz-journal figures figures-smoke

check: fmt-check p2p-owner determinism no-env one-codec no-fma vet lint build race

# gofmt gate: any unformatted file fails. The analyzer fixtures under
# testdata/ are exempt (some are unformatted on purpose).
fmt-check:
	@out=$$(gofmt -l . | grep -v '/testdata/' || true); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# Message-loop ownership gate (DESIGN.md §18): internal/halo owns every
# point-to-point call on the mpi runtime. Exempt are the
# runtime itself, bench/ (its mpi.pingpong probe) and internal/analysis
# (whose sig.Recv() is go/types, not a message).
p2p-owner:
	@out=$$(grep -rnE '\.(Send|Recv)\(' --include='*.go' . | grep -v '_test\.go:' | grep -v '/testdata/' | \
		grep -vE '^\./(internal/halo|internal/mpi|internal/analysis|bench)/' || true); \
	if [ -n "$$out" ]; then echo "message calls outside internal/halo:"; echo "$$out"; exit 1; fi

# Determinism gate (DESIGN.md §7, §12): a trajectory is a pure function of
# its seed, so no non-test code under internal/ reads the wall clock or
# imports math/rand; randomness comes from internal/rng streams. Exempt are
# internal/telemetry, the one sanctioned clock (its readings land in a
# registry and never feed simulation state), and internal/analysis.
determinism:
	@out=$$(grep -rnE '\btime\.(Now|Since|Until)\b|"math/rand' --include='*.go' internal | grep -v '_test\.go:' | grep -v '/testdata/' | \
		grep -vE '^internal/(telemetry|analysis)/' || true); \
	if [ -n "$$out" ]; then echo "wall-clock reads or math/rand outside internal/telemetry:"; echo "$$out"; exit 1; fi

# Environment gate (DESIGN.md §10): a run is described by its flags,
# config and Checkpoint value alone, so no non-test code anywhere in the
# module reads an environment variable. The analyzer fixtures under
# testdata/ are exempt.
no-env:
	@out=$$(grep -rnE '\bos\.(Getenv|LookupEnv|Environ)\b' --include='*.go' . | grep -v '_test\.go:' | grep -v '/testdata/' || true); \
	if [ -n "$$out" ]; then echo "environment reads in non-test code:"; echo "$$out"; exit 1; fi

# Codec gate (DESIGN.md §10): every byte the program writes for itself —
# ghost, migrant and site messages, both engines' rank files — goes through
# the one bounds-checked halo codec, so no non-test code imports
# encoding/gob. Tests may, to build files of the gob era.
one-codec:
	@out=$$(grep -rn '"encoding/gob"' --include='*.go' . | grep -v '_test\.go:' | grep -v '/testdata/' || true); \
	if [ -n "$$out" ]; then echo "encoding/gob imported by non-test code:"; echo "$$out"; exit 1; fi

# Docs gate: every Test…, Benchmark… or Fuzz… identifier that DESIGN.md,
# README.md or the verify skill cites must be a prefix of a defined Go
# function (a `-run` pattern cites a prefix), so a renamed or deleted test
# cannot leave a recipe pointing at nothing. Grep only: nothing compiles.
DOCS_CITING = DESIGN.md README.md .claude/skills/verify/SKILL.md
docs-check:
	@bad=0; \
	for id in $$(grep -ohE '\b(Test|Benchmark|Fuzz)[A-Z_][A-Za-z0-9_]*' $(DOCS_CITING) | sort -u); do \
		grep -rqE "^func $$id" --include='*.go' . || { echo "docs-check: $$id is cited but no function name starts with it"; bad=1; }; \
	done; \
	exit $$bad

# FMA gate (DESIGN.md §13): on arm64 Go fuses a*b + c into one FMADDD, one
# rounding instead of two, so a fused vec.V.MulAdd would differ from the
# rounded force vector the pair round stores, and the kernels would stop
# being bit-identical there. internal/vec rounds each product explicitly;
# the first check fails when its arm64 assembly holds a fused op (or is
# missing). The table arithmetic — the segment kernel every evaluation path
# of internal/eam shares, per call and in blocks — and pairScalar, which
# both sides of a pair share, round theirs explicitly too: the second check
# fails when a fused op in the arm64 build of internal/eam or internal/md,
# in whatever function the code was inlined into, comes from the source
# lines of one of NOFMA_FUNCS (file:func), or when one of them is missing.
# It also fails on a fused op anywhere in the compiled body of one of them
# or of its closures, code inlined into it included: the MD trajectory
# routines (relink and migration, recoils, initial velocities, thermostat)
# fuse only through inlined vec and lattice helpers, whose lines are not
# theirs.
NOFMA_FUNCS = internal/eam/table.go:nodeDeriv internal/eam/table.go:centralDeriv \
	internal/eam/table.go:evalSeg internal/eam/table.go:innerSeg internal/eam/table.go:edgeSeg \
	internal/eam/table.go:hermite internal/md/forces.go:pairScalar \
	internal/md/sim.go:route internal/md/sim.go:relink internal/md/sim.go:placeLocal \
	internal/md/sim.go:ApplyRecoil internal/md/sim.go:initVelocities \
	internal/md/sim.go:applyThermostat internal/md/forces.go:KineticEnergy

no-fma:
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/vec 2>&1) || { echo "$$asm"; exit 1; }; \
	if ! echo "$$asm" | grep -q 'vec\.V\.MulAdd'; then echo "no arm64 assembly for internal/vec"; exit 1; fi; \
	out=$$(echo "$$asm" | grep -E '\bFN?M(ADD|SUB)[SD]\b' || true); \
	if [ -n "$$out" ]; then echo "fused multiply-adds in internal/vec on arm64:"; echo "$$out"; exit 1; fi
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/eam ./internal/md 2>&1) || { echo "$$asm"; exit 1; }; \
	for fn in $(NOFMA_FUNCS); do \
		file=$${fn%%:*}; name=$${fn##*:}; \
		span=$$(awk -v n="$$name" '$$0 ~ "^func (\\([^)]*\\) )?" n "\\(" { s = NR } s && /^}/ { print s, NR; exit }' $$file); \
		if [ -z "$$span" ]; then echo "no-fma: no func $$name in $$file"; exit 1; fi; \
		lines=$$(echo "$$asm" | awk -v f="/$$file:" -v s="$${span% *}" -v e="$${span#* }" \
			'{ i = index($$0, f); if (i == 0) next; l = substr($$0, i + length(f)) + 0; if (l >= s && l <= e) print }'); \
		if [ -z "$$lines" ]; then echo "no arm64 assembly for $$name ($$file)"; exit 1; fi; \
		out=$$(echo "$$lines" | grep -E '\bFN?M(ADD|SUB)[SD]\b' || true); \
		if [ -n "$$out" ]; then echo "fused multiply-adds from $$name ($$file) on arm64:"; echo "$$out"; exit 1; fi; \
		body=$$(echo "$$asm" | awk -v p="mdkmc/$${file%/*}." -v n="$$name" \
			'/^[^ \t]/ { s = $$1; on = / STEXT / && index(s, p) == 1 && substr(s, length(p) + 1) ~ ("^(\\([^)]*\\)\\.)?" n "(\\.func[0-9.]+)?$$") } on'); \
		if [ -z "$$body" ]; then echo "no arm64 body for $$name ($$file)"; exit 1; fi; \
		out=$$(echo "$$body" | grep -E '\bFN?M(ADD|SUB)[SD]\b' || true); \
		if [ -n "$$out" ]; then echo "fused multiply-adds in the body of $$name ($$file) on arm64:"; echo "$$out"; exit 1; fi; \
	done

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-specific static analysis (DESIGN.md §12): the five mdvet analyzers
# enforce the map-order, collective-symmetry, span, preemption and
# error-return contracts that need one (the clock/rand rule is
# `determinism` above; hash coverage and kernel allocations are tests).
# Driving it through `go vet -vettool` covers _test.go files too
# and caches per package; the standalone -stats pass then prints the
# per-analyzer reported/suppressed table (suppressed = reasoned //mdvet
# exemptions in force, so exemption growth is visible in every lint run).
bin/mdvet: $(wildcard cmd/mdvet/*.go internal/analysis/*.go internal/analysis/*/*.go)
	$(GO) build -o bin/mdvet ./cmd/mdvet

lint: bin/mdvet
	$(GO) vet -vettool=$(CURDIR)/bin/mdvet ./...
	./bin/mdvet -stats ./...

# Third-party analyzers, pinned. These download the tool on first use, so
# they are CI-only gates (the offline dev image cannot fetch them); new
# findings fail the build.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

test:
	$(GO) test -shuffle=on ./...

# The hot concurrent packages run first with -count=1 so the race detector
# always re-executes them (a cached "ok" proves nothing); internal/couple
# joins the list because the checkpoint coordinator and fault-injection
# recovery tests exercise the rank-abort paths across goroutines,
# internal/kmc because its incremental rate cache is updated by the ghost
# exchanges of every multi-rank world its tests run, and internal/eam
# because every rank of a world fills its process-wide potential cache at
# once, and internal/halo because its exchanges run across rank goroutines
# and its list construction is rebuilt from per-axis slab sets. The full suite then runs under -race as well. Both passes shuffle test and subtest
# order so latent ordering assumptions surface instead of calcifying (the
# seed is printed on failure for replay with -shuffle=<seed>).
# The explicit -timeout lifts the 10m per-package default: internal/couple
# alone (recovery + elastic + campaign suites) runs well past it under the
# race detector.
race:
	$(GO) test -race -count=1 -shuffle=on -timeout 45m ./internal/md ./internal/mpi ./internal/couple ./internal/telemetry ./internal/kmc ./internal/eam ./internal/halo
	$(GO) test -race -shuffle=on -timeout 45m ./...

# The fault-injection recovery gate on its own: crash a coupled run at an
# armed point, restart from the newest snapshot, demand bit-identical
# results (plus the atomic-commit guarantee, the refusal of a manifest that
# disagrees with its rank files, and the one committed-snapshot rule); and
# each engine's restart calls: exact onto the writer's own grid, bit-identical
# resumes, the MD re-shard opening only the shards it overlaps, every
# corrupt or gob-era rank file refused at the decoder, every truncated or
# bit-flipped one refused by its length or checksum, and gob-era snapshots
# skipped by Latest.
recovery:
	$(GO) test -race -count=1 -run 'TestRecovery|TestAtomicCommit|TestRestartRejectsManifestStepMismatch|TestStrayFileIsNotASnapshot|TestLatestSkipsGobEraSnapshots' ./internal/couple
	$(GO) test -race -count=1 -run '^(TestReshardOntoOwnGridIsExact|TestCheckpointResumeIdentical|TestCheckpointResumeIdenticalParallel|TestRestoreDoesNotReinjectPKA|TestRestoreRejectsCorruptSnapshot|TestRestoreRefusesVersion1File|TestReshardOpensOnlyOverlappingShards|TestRankFileIntegrity)$$' ./internal/md
	$(GO) test -race -count=1 -run '^(TestReshardOntoOwnGridIsExact|TestRestoreRejectsCorruptCheckpoint|TestRankFileIntegrity)$$' ./internal/kmc

# Per-package coverage with enforced floors on internal/couple — the
# restart-correctness core (checkpoint coordinator, re-shard loaders,
# repartitioner) — and on internal/analysis, the mdvet framework and
# analyzer suite (a contract checker with untested branches silently stops
# checking the contract). The merged profile (cover.out) and the per-floor
# profiles are uploaded as CI artifacts.
COUPLE_COVER_FLOOR ?= 80
ANALYSIS_COVER_FLOOR ?= 80

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) test -coverprofile=cover_couple.out ./internal/couple
	@pct=$$($(GO) tool cover -func=cover_couple.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "internal/couple coverage: $$pct% (floor $(COUPLE_COVER_FLOOR)%)"; \
	awk -v p=$$pct -v f=$(COUPLE_COVER_FLOOR) 'BEGIN {exit (p+0 < f) ? 1 : 0}' || \
	{ echo "FAIL: internal/couple coverage $$pct% is below the $(COUPLE_COVER_FLOOR)% floor"; exit 1; }
	$(GO) test -coverprofile=cover_analysis.out -coverpkg=./internal/analysis/... ./internal/analysis/... ./cmd/mdvet
	@pct=$$($(GO) tool cover -func=cover_analysis.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "internal/analysis coverage: $$pct% (floor $(ANALYSIS_COVER_FLOOR)%)"; \
	awk -v p=$$pct -v f=$(ANALYSIS_COVER_FLOOR) 'BEGIN {exit (p+0 < f) ? 1 : 0}' || \
	{ echo "FAIL: internal/analysis coverage $$pct% is below the $(ANALYSIS_COVER_FLOOR)% floor"; exit 1; }

# The repository's benchmark (bench/README.md, BENCHMARK.json): a run-set of
# all five workloads into OUT, and the comparison of two run-sets against
# the BENCHMARK.json bounds (make bench-compare A=parent.json B=change.json).
OUT ?= bench_results.json

bench:
	$(GO) run ./bench -out $(OUT)

bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# The incremental-vs-rescan KMC cycle contrast (EXPERIMENTS.md), with B/op
# and allocs/op (the benchmark calls ReportAllocs); the zero-allocation
# promise of the rate kernel itself is a tier-1 test,
# TestRateKernelDoesNotAllocate. Then the per-event cost of one rank at
# 16³, 64³ and 96³ cells (ROADMAP item 21): µs, ΔE evaluations and
# rate-cache visits per executed event.
bench-kmc:
	$(GO) test -run '^$$' -bench 'BenchmarkKMCCycle' -benchtime 20x ./internal/kmc
	$(GO) test -run '^$$' -bench 'BenchmarkKMCEventCost' ./internal/kmc

# The serial-vs-pooled MD step contrast on a 20^3 box (EXPERIMENTS.md).
bench-md:
	$(GO) test -run '^$$' -bench 'BenchmarkMDStep' -benchtime 5x -benchmem ./internal/md

# Every Go benchmark of the two engines, of the potential's table layouts and
# of the root package (one per paper figure, plus the ablations) runs once
# (CI gate): `go vet` only compiles them, so a benchmark that panics or
# reports a broken metric would otherwise rot unrun.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/md ./internal/kmc ./internal/eam .

# Every example must run to completion (CI smoke gate).
smoke:
	set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d > /dev/null; done

# End-to-end telemetry smoke: a 2-rank coupled run through the real CLI
# writes a JSONL metrics stream, which must hold exactly one aggregated
# report line. (What the stream must contain — every line parses, every
# rank snapshots, the promised phase spans and comm counters — is asserted
# in tier-1 by validateJSONL, internal/couple/telemetry_test.go.)
smoke-telemetry:
	$(GO) run ./cmd/mdkmc -cells 12 -gx 2 -md-steps 60 -kmc-cycles 10 -metrics-every 20 -metrics-out /tmp/mdkmc-metrics.jsonl > /dev/null
	test "$$(grep -c '"type":"report"' /tmp/mdkmc-metrics.jsonl)" = 1
	rm -f /tmp/mdkmc-metrics.jsonl

# End-to-end campaign smoke with a crash/restart in the middle: a 2-rank,
# 2-iteration spectrum-driven campaign is killed mid-iteration by an
# injected fault, then restarted from its checkpoint and must run to
# completion. The ! guard asserts the crashing run really failed. First, the
# pre-flight check through the CLI: a grid whose slabs are thinner than the
# KMC ghost (11 cells over 4 ranks) must fail before the MD stage, leaving no
# committed snapshot behind.
smoke-campaign:
	rm -rf /tmp/mdkmc-campaign-ckpt /tmp/mdkmc-thin-ckpt
	! $(GO) run ./cmd/mdkmc -cells 11 -gx 4 -md-steps 300 -checkpoint-dir /tmp/mdkmc-thin-ckpt -checkpoint-every 10 > /dev/null 2>&1
	! ls -d /tmp/mdkmc-thin-ckpt/ckpt-* > /dev/null 2>&1
	rm -rf /tmp/mdkmc-thin-ckpt
	printf '150 3\n300 1\n1000 0.2\n' > /tmp/mdkmc-campaign.spectrum
	! $(GO) run ./cmd/mdkmc -cells 16 -gx 2 -md-steps 80 -kmc-cycles 10 \
		-campaign-iters 2 -dose-increment 2e-3 -spectrum /tmp/mdkmc-campaign.spectrum \
		-checkpoint-dir /tmp/mdkmc-campaign-ckpt -checkpoint-every 30 \
		-inject-fault md-step:0:110 > /dev/null 2>&1
	$(GO) run ./cmd/mdkmc -cells 16 -gx 2 -md-steps 80 -kmc-cycles 10 \
		-campaign-iters 2 -dose-increment 2e-3 -spectrum /tmp/mdkmc-campaign.spectrum \
		-checkpoint-dir /tmp/mdkmc-campaign-ckpt -checkpoint-every 30 -restart > /dev/null
	rm -rf /tmp/mdkmc-campaign-ckpt /tmp/mdkmc-campaign.spectrum

# End-to-end job-server smoke (DESIGN.md §16): start the real mdserve
# binary, submit a campaign, preempt it with a high-priority MD job, watch
# it resume and finish with an exactly-conserved dose ledger, SIGTERM-drain
# the server, restart on the same state dir, and demand the recovered
# campaign completes. -count=1 because a cached "ok" proves nothing about
# a server that forks processes and binds ports.
smoke-serve:
	$(GO) test -count=1 -run TestServeSmoke -v ./cmd/mdserve

# Every fuzz target of the module in turn (CI runs it with FUZZTIME=10s):
# each `func Fuzz*` in a _test.go file gets FUZZTIME of its own, found by
# name so a new target joins without an edit here. Minimizing a new input is
# capped at 5 s, as in fuzz-rankfile (the 60 s default outlasts a short pass).
FUZZTIME ?= 30s

fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' . | grep -v '/testdata/' | sort); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "== $$t $$(dirname $$f)"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 5s $$(dirname $$f); \
		done; \
	done

# Short fuzz pass over the checkpoint manifest loader: damaged restart
# metadata must yield descriptive couple: errors and be skipped by Latest,
# never panic (seeds start from manifests a real run committed).
fuzz-manifest:
	$(GO) test -run '^$$' -fuzz 'FuzzManifest' -fuzztime 30s ./internal/couple

# Short fuzz pass over each engine's rank-file decoder, the trust boundary
# of a restart: any bytes must make Restore and RestoreResharded return an
# md:/kmc: error or succeed, never panic, and a rejected Restore must leave
# the engine untouched (seeds start from real Save output; each input is
# also decoded re-sealed, so it reaches the value checks past the checksum).
# go test fuzzes one package at a time, so each engine gets its own 30 s
# pass; a rank file seed is tens of KB (an MD one ~11 KB), so minimizing a
# new input is capped at 5 s (the 60 s default would eat the whole pass).
fuzz-rankfile:
	$(GO) test -run '^$$' -fuzz 'FuzzRankFile' -fuzztime 30s -fuzzminimizetime 5s ./internal/md
	$(GO) test -run '^$$' -fuzz 'FuzzRankFile' -fuzztime 30s -fuzzminimizetime 5s ./internal/kmc

# Short fuzz pass over the PKA spectrum parser: arbitrary input must parse
# or error, never panic, and accepted spectra must sample within their own
# entry set.
fuzz-spectrum:
	$(GO) test -run '^$$' -fuzz 'FuzzSpectrum' -fuzztime 30s ./internal/couple

# Short fuzz pass over job admission (DESIGN.md §16): any JSON body must
# make JobSpec.Validate return, never panic, and every slot count the
# scheduler can grant an admitted spec must build a configuration that
# passes its own Validate.
fuzz-jobspec:
	$(GO) test -run '^$$' -fuzz 'FuzzJobSpec' -fuzztime 30s ./internal/serve

# Short fuzz pass over job-ledger recovery (DESIGN.md §16): truncated and
# bit-flipped journals, and records re-sealed with a valid checksum, must
# replay a prefix and never panic (seeds are a journal a stub-runner server
# recorded, a few KB, so minimizing is capped as in fuzz-rankfile).
fuzz-journal:
	$(GO) test -run '^$$' -fuzz '^FuzzJournal$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/serve

figures:
	$(GO) run ./cmd/figures

# The capacity lines of Figures 11 (MD atoms, from md.Rank.MemoryBytes) and
# 15 (KMC sites, from kmc.State.MemoryBytes) are computed from measured
# footprints; both figures run and each line must be printed (CI smoke gate).
figures-smoke:
	$(GO) run ./cmd/figures -quick -fig 11 | grep 'capacity on 102,400 CGs'
	$(GO) run ./cmd/figures -quick -fig 15 | grep 'KMC capacity on 102,400 cores'
