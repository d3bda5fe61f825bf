GO ?= go
FUZZTIME ?= 10s
BENCHTIME ?= 5x
CHAOS_SEEDS ?= 20

.PHONY: all build test vet fmt race-test lint golden-check golden-costdiff check fuzz-smoke fault-suite chaos-smoke chaos-poison bench bench-smoke fleet-smoke cache-smoke trace-smoke profile profile-fleet profile-warm

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails if any file needs reformatting (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race-test:
	$(GO) test -race ./...

# Project-specific static analysis; see docs/static-analysis.md.
# LINTFLAGS passes extra driver flags (CI sets -sarif for code scanning).
lint:
	$(GO) run ./cmd/modlint $(LINTFLAGS) ./...

# Golden staleness guard: regenerate each analyzer's fixture golden into a
# scratch directory (MODLINT_GOLDEN_DIR redirects the -update write) and
# fail if a committed golden differs — catches analyzer message or ordering
# drift committed without rerunning `go test -run Golden -update`.
golden-check:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	MODLINT_GOLDEN_DIR="$$dir" $(GO) test -count=1 -run Golden \
		./internal/lint/moddet ./internal/lint/modsafe ./internal/lint/modown -update || exit 1; \
	rc=0; \
	for f in internal/lint/moddet/testdata/detmod.golden \
	         internal/lint/modsafe/testdata/safemod.golden \
	         internal/lint/modown/testdata/ownmod.golden; do \
		cmp -s "$$f" "$$dir/$$(basename $$f)" || { echo "stale golden: $$f (regenerate with: $(GO) test -run Golden -update ./$$(dirname $$(dirname $$f)))"; rc=1; }; \
	done; \
	exit $$rc

# Masked diff of the scanner and pool-report goldens against GOLDEN_BASE
# (default HEAD), for a change to the simulated cost model: every
# simulated time is masked (scanner "simulated_ms", the four stage "*_ms"
# fields and "in ...ms simulated"; the pool report's timing fields and
# "timing:" lines), and any difference left (a verdict, an alert, a budget
# cut, a health transition) fails. Run it after regenerating the goldens
# with -update, before committing them.
GOLDEN_BASE ?= HEAD
golden-costdiff:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	mask='s/"(simulated|list|fetch|digest|compare|searcher|parser|checker|total|elapsed)_ms": [0-9.e+-]+/"\1_ms": ~/; s/ in [^ ]+ simulated/ in ~ simulated/; s/^timing: .*/timing: ~/'; \
	rc=0; \
	for f in testdata/scanner_golden.txt testdata/poolreport.golden; do \
		git show "$(GOLDEN_BASE):$$f" | sed -E "$$mask" > "$$dir/base" || exit 1; \
		sed -E "$$mask" "$$f" > "$$dir/tree"; \
		diff -u --label "$(GOLDEN_BASE):$$f" --label "$$f" "$$dir/base" "$$dir/tree" || rc=1; \
	done; \
	exit $$rc

# The full local gate, mirrored by .github/workflows/ci.yml.
check: build vet fmt race-test lint golden-check

# Focused run of the fault-injection suite under the race detector; the
# CI step "Fault suite (race detector)" runs this target, so robustness
# regressions fail fast.
fault-suite:
	$(GO) test -race -run 'Fault|Torn|Quarantine|Retry|Sweep|Health|Destroy|Epoch|Regroup|Memo|TestModuleTable' . ./internal/faults ./internal/vmi ./internal/hypervisor ./internal/core ./internal/mm

# Seeded chaos soak under the race detector: $(CHAOS_SEEDS) randomized
# fault plans over a 15-VM pool, each run twice and required to converge,
# produce no false ALTERED verdicts, and replay byte-identically.
chaos-smoke:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 -timeout 20m ./internal/stress/chaos

# One seeded chaos plan under the modpoison build tag: every recycled fetch,
# scratch, and VMI shadow buffer is scribbled with 0xDB on its way back to
# the pool, so a use-after-put anywhere in the sweep surfaces as garbage
# digests or a torn-read verdict instead of silently reading stale bytes.
chaos-poison:
	CHAOS_SEEDS=1 $(GO) test -race -count=1 -timeout 10m -tags modpoison ./internal/stress/chaos

# The paper's Figure 7/8 runtime curves, the Section V-B detection
# scenarios, the Fig7Sweep15 legacy-vs-pipeline headline pair, the fleet
# and cached-sweep curves, and the loaded-module-list walk, printed as go
# test benchmark lines (host ns/op and B/op beside sim-ms/op, ptwalks/op
# and per-phase sim times).
# The host-time record is perfbench (bash perfbench/run.sh; see
# docs/performance.md), not this target.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFig7Sweep15|BenchmarkFig7RuntimeIdle|BenchmarkFig8RuntimeLoaded|BenchmarkDetect' \
		-benchtime $(BENCHTIME) -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkFleetSweep' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkScannerSweep' -benchtime $(BENCHTIME) -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkCachedSweep' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkSearcherListModules' -benchtime $(BENCHTIME) -benchmem .

# benchcheck runs one go test benchmark invocation ($(1) holds its flags),
# prints its output, and fails when go test fails or prints no benchmark
# result line: a -bench pattern that matches nothing exits 0 without one.
benchcheck = out="$$($(GO) test -run '^$$' $(1))"; rc=$$?; echo "$$out"; [ $$rc -eq 0 ] || exit $$rc; \
	echo "$$out" | grep -q '^Benchmark.*ns/op' || { echo "no benchmark result line"; exit 1; }

# One-iteration bench sanity run for CI: fails on benchmark errors (a sweep
# that flags a clean pool, a broken metric) or when no benchmark ran, not
# on performance regressions.
bench-smoke:
	@$(call benchcheck,-bench 'BenchmarkFig7Sweep15' -benchtime 1x -benchmem .)

# One-iteration 1000-VM fleet sweep, checker and scanner legs (-short skips
# the 10k/100k curve), plus one 100000-VM dedup scanner sweep: fails if the
# copy-on-write fleet path or the fleet-scale scanner path errors or flags a
# clean pool, or if a leg runs no benchmark, not on performance. The full
# scaling curve ships with `make bench`.
fleet-smoke:
	@$(call benchcheck,-bench '^BenchmarkFleetSweep/vms=1000$$' -benchtime 1x -benchmem -short .)
	@$(call benchcheck,-bench '^BenchmarkScannerSweep/vms=1000$$' -benchtime 1x -benchmem -short .)
	@$(call benchcheck,-bench '^BenchmarkScannerSweep/vms=100000$$' -benchtime 1x -benchmem .)

# The digest-cache gate: the cached-vs-uncached differential suite (cold
# byte-identity, warm equivalence, invalidation, budget/resume), the module
# tables kept per content token (differentials against walked tables and
# staleness), the persistent-tier reopen test, and the same differentials
# again under the modpoison build tag, which scribbles every recycled
# fetch/scratch buffer to surface use-after-put bugs as garbage digests.
cache-smoke:
	$(GO) test -count=1 -run 'TestCached|TestTargetIdentity|TestResumeResamplesIdentity|TestModuleTable' .
	$(GO) test -count=1 ./internal/cas
	$(GO) test -count=1 -tags modpoison -run 'TestCached|TestSweep|TestSharded|TestLean|TestModuleTable' . ./internal/core

# Traced 15-VM sweep through the CLI, validated by cmd/tracecheck: the
# Chrome trace export must stay structurally loadable (Perfetto) and
# (ts, seq)-ordered. Mirrored as a CI step.
trace-smoke:
	$(GO) run ./cmd/modchecker -vms 15 -watch 1 -parallel -trace trace-smoke.json > /dev/null
	$(GO) run ./cmd/tracecheck trace-smoke.json
	@rm -f trace-smoke.json

# CPU/heap profile of the traced headline sweep. Stage workers inherit the
# caller's pprof labels, and their frames name the stage (fetchVM,
# digestAgainst, compare), so break profiles down with e.g.
#   go tool pprof -top cpu.prof
#   go tool pprof -http=: cpu.prof
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkFig7Sweep15/traced' -benchtime $(BENCHTIME) \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof and mem.prof (inspect: go tool pprof -top cpu.prof)"

# CPU/heap profile of the 100000-VM dedup scanner sweep (sweep + WriteJSON,
# the fleet100k-dedup shape): where a fleet sweep's host time and
# allocation go. The timed sweeps carry the pprof label phase=sweep, so
#   go tool pprof -tagfocus phase=sweep cpu.prof
# leaves out building the 100k-VM cloud. See docs/performance.md
# sections 9 and 11.
profile-fleet:
	$(GO) test -run '^$$' -bench '^BenchmarkScannerSweep/vms=100000$$' -benchtime 20x -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof and mem.prof (inspect: go tool pprof -tagfocus phase=sweep cpu.prof; go tool pprof -sample_index=alloc_space mem.prof)"

# CPU/heap profile of warm cached sweeps over 1000 copy-on-write clones
# (the fleet256-warm shape at fleet scale): where a steady-state sweep that
# reads almost no guest memory spends its host time. The timed sweeps carry
# the pprof label phase=sweep, so
#   go tool pprof -tagfocus phase=sweep cpu.prof
# leaves out building the cloud and the cold sweep. See docs/performance.md
# section 17.
profile-warm:
	$(GO) test -run '^$$' -bench '^BenchmarkCachedSweep/vms=1000$$' -benchtime 300x -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof and mem.prof (inspect: go tool pprof -tagfocus phase=sweep cpu.prof; go tool pprof -sample_index=alloc_space mem.prof)"

# Short smoke run of every fuzz target: catches gross parser regressions
# without the cost of a real campaign. Go allows only one -fuzz pattern
# per invocation, hence one line per target.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParseModule$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzNormalizePair$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzDigestMemo$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzNameTableDecode$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/pe
	$(GO) test -run='^$$' -fuzz='^FuzzParseRelocTable$$' -fuzztime=$(FUZZTIME) ./internal/pe
	$(GO) test -run='^$$' -fuzz='^FuzzParseImports$$' -fuzztime=$(FUZZTIME) ./internal/pe
	$(GO) test -run='^$$' -fuzz='^FuzzFaultSchedule$$' -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz='^FuzzControlPlanePlan$$' -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz='^FuzzModdetTaint$$' -fuzztime=$(FUZZTIME) ./internal/lint/moddet
	$(GO) test -run='^$$' -fuzz='^FuzzModsafeLockorder$$' -fuzztime=$(FUZZTIME) ./internal/lint/modsafe
	$(GO) test -run='^$$' -fuzz='^FuzzModown$$' -fuzztime=$(FUZZTIME) ./internal/lint/modown
