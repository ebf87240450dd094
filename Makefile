# Development gates. `make check` is the tier-1 verification plus vet and
# the race detector — the md force pool and ghost-exchange paths, the mpi
# rank-panic wakeup paths, and the KMC incremental bookkeeping are
# concurrency-sensitive and must stay clean under -race.

GO ?= go

# Pinned third-party analyzer versions (installed on demand — CI has
# network; offline dev boxes use `make lint`, which is stdlib-only).
STATICCHECK_VERSION ?= 2023.1.7
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: check fmt-check p2p-owner determinism build test vet lint staticcheck govulncheck race recovery cover bench bench-compare bench-kmc bench-md bench-smoke smoke smoke-telemetry smoke-campaign smoke-serve fuzz-manifest fuzz-spectrum figures

check: fmt-check p2p-owner determinism vet lint build race

# gofmt gate: any unformatted file fails. The analyzer fixtures under
# testdata/ are exempt (some are unformatted on purpose).
fmt-check:
	@out=$$(gofmt -l . | grep -v '/testdata/' || true); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# Message-loop ownership gate (DESIGN.md §18): internal/halo owns every
# point-to-point and one-sided call on the mpi runtime. Exempt are the
# runtime itself, bench/ (its mpi.pingpong probe) and internal/analysis
# (whose sig.Recv() is go/types, not a message).
p2p-owner:
	@out=$$(grep -rnE '\.(Send|Recv|Put|Fence)\(' --include='*.go' . | grep -v '_test\.go:' | grep -v '/testdata/' | \
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
# recovery tests exercise the rank-abort paths across goroutines. The full
# suite then runs under -race as well. Both passes shuffle test and subtest
# order so latent ordering assumptions surface instead of calcifying (the
# seed is printed on failure for replay with -shuffle=<seed>).
# The explicit -timeout lifts the 10m per-package default: internal/couple
# alone (recovery + elastic + campaign suites) runs well past it under the
# race detector.
race:
	$(GO) test -race -count=1 -shuffle=on -timeout 45m ./internal/md ./internal/mpi ./internal/couple ./internal/telemetry
	$(GO) test -race -shuffle=on -timeout 45m ./...

# The fault-injection recovery gate on its own: crash a coupled run at an
# armed point, restart from the newest snapshot, demand bit-identical
# results (plus the atomic-commit guarantee).
recovery:
	$(GO) test -race -count=1 -run 'TestRecovery|TestAtomicCommit' ./internal/couple

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
# TestRateKernelDoesNotAllocate.
bench-kmc:
	$(GO) test -run '^$$' -bench 'BenchmarkKMCCycle' -benchtime 20x ./internal/kmc

# The serial-vs-pooled MD step contrast on a 20^3 box (EXPERIMENTS.md).
bench-md:
	$(GO) test -run '^$$' -bench 'BenchmarkMDStep' -benchtime 5x -benchmem ./internal/md

# Every Go benchmark of the two engines runs once (CI gate): `go vet` only
# compiles them, so a benchmark that panics or reports a broken metric would
# otherwise rot unrun.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/md ./internal/kmc

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
# completion. The ! guard asserts the crashing run really failed.
smoke-campaign:
	rm -rf /tmp/mdkmc-campaign-ckpt
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

# Short fuzz pass over the checkpoint manifest loader: damaged restart
# metadata must yield descriptive couple: errors and be skipped by Latest,
# never panic (seeds start from manifests a real run committed).
fuzz-manifest:
	$(GO) test -run '^$$' -fuzz 'FuzzManifest' -fuzztime 30s ./internal/couple

# Short fuzz pass over the PKA spectrum parser: arbitrary input must parse
# or error, never panic, and accepted spectra must sample within their own
# entry set.
fuzz-spectrum:
	$(GO) test -run '^$$' -fuzz 'FuzzSpectrum' -fuzztime 30s ./internal/couple

figures:
	$(GO) run ./cmd/figures
