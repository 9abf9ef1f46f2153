# Development targets. `make ci` is the full gate: formatting, vet,
# build, the darwin and windows builds, race tests, a single-iteration
# benchmark smoke, and a short fuzz smoke on every fuzz target.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build cross fmt-check vet test race gridd-race short bench-smoke fuzz-smoke golden profile-figures profile-scale profile-ftsh loc ci

all: build

build:
	$(GO) build ./...

# The platform splits build: the wall-clock monitor (the live engine's
# and the daemon's host) has a linux and a !linux file
# (internal/live/monitor_*.go), as internal/proc has unix and !unix
# ones. bench/ is left out of the Windows build: it reads /proc and
# Rusage by design.
cross:
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./cmd/... ./internal/... ./examples/...

fmt-check:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# Every test in the tree under the race detector. The per-subsystem
# suites (differential, reservation, flight recorder, channel faults,
# engine scale, gridd) are -run subsets of this; the docs give the
# direct `go test -race ./pkg -run Pattern` line for each.
race:
	$(GO) test -race ./...

# The gridd suites alone under the race detector: the daemon, the
# wall-clock monitor it hosts on (internal/live), its one client, the
# daemon's CLI, the one scenario that crosses a real socket (gridbench
# -gridd-addr), then the differentials and chaos cells that drive the
# daemon through its codec on the simulator. A subset of race, so not
# in ci.
gridd-race:
	$(GO) test -race -count=1 ./internal/gridd ./internal/live ./internal/griddclient ./cmd/gridd
	$(GO) test -race -count=1 ./cmd/gridbench -run TestGriddBackendFigure3
	$(GO) test -race -count=1 ./internal/expt -run 'TestDiff(SubmitOrdering|LeaseNoStarvation)/gridd|TestGridd|TestTripper'

# Run every benchmark exactly once: keeps the harnesses compiling and
# passing — the engine hot-path, interpreter and flight-recorder
# benchmarks — without paying for real measurement in CI.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# A brief run of each fuzz target: catches regressions in the corpus
# and keeps the harnesses themselves compiling and passing.
fuzz-smoke:
	$(GO) test -run FuzzLex -fuzz FuzzLex -fuzztime $(FUZZTIME) ./internal/ftsh/lexer
	$(GO) test -run FuzzParse -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/ftsh/parser
	$(GO) test -run FuzzInterp -fuzz FuzzInterp -fuzztime $(FUZZTIME) ./internal/ftsh/interp
	$(GO) test -run FuzzTimerWheel -fuzz FuzzTimerWheel -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run FuzzWire -fuzz FuzzWire -fuzztime $(FUZZTIME) ./internal/gridd

# Rewrite the gridbench golden files after an intentional output change.
golden:
	$(GO) test ./cmd/gridbench -run TestGolden -update

# Where a figure's time goes: one CPU and one heap profile per member of
# the benchmark's sim-figures bundle that runs long enough to sample
# (figs 6 and 7 finish in a few milliseconds), run exactly as the bundle
# runs them. Per member it prints the GC cycles the run took
# (GODEBUG=gctrace=1) and the bytes it allocated with their top-10 sites
# (alloc_space); then the CPU profiles merged into one cumulative top-40.
# Writes only under the git-ignored .bench_build/. Not part of ci: it
# measures, it gates nothing.
PROFILE_DIR := .bench_build/profile

profile-figures:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/gridbench ./cmd/gridbench
	set -e; for member in "1 -scale 0.1" "4 -scale 0.1" "res -scale 0.1" "la -scale 0.1" "net -scale 0.1" 2 3; do \
		name=$${member%% *}; \
		GODEBUG=gctrace=1 $(PROFILE_DIR)/gridbench -parallel 1 -seed 1 -cpuprofile $(PROFILE_DIR)/cpu.$$name.pprof \
			-memprofile $(PROFILE_DIR)/mem.$$name.pprof -fig $$member >/dev/null 2>$(PROFILE_DIR)/gc.$$name.txt; \
		echo "== -fig $$member: $$(grep -c '^gc ' $(PROFILE_DIR)/gc.$$name.txt) GC cycles"; \
		$(GO) tool pprof -sample_index=alloc_space -top -nodecount=10 $(PROFILE_DIR)/gridbench $(PROFILE_DIR)/mem.$$name.pprof 2>/dev/null | sed -n '/^Showing nodes/,$$p'; \
	done
	$(GO) tool pprof -top -cum -nodecount=40 $(PROFILE_DIR)/gridbench $(PROFILE_DIR)/cpu.*.pprof

# Where the scale figure's time goes: ten CPU profiles of the run the
# benchmark's sim-scale workload times (one run is too short to sample
# well), merged into one cumulative top-30. Same rules as
# profile-figures: writes only under .bench_build/, gates nothing.
profile-scale:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/gridbench ./cmd/gridbench
	set -e; for i in 1 2 3 4 5 6 7 8 9 10; do \
		$(PROFILE_DIR)/gridbench -parallel 1 -seed 1 -cpuprofile $(PROFILE_DIR)/scale.$$i.pprof -fig scale -scale 0.1 >/dev/null; \
	done
	$(GO) tool pprof -top -cum -nodecount=30 $(PROFILE_DIR)/gridbench $(PROFILE_DIR)/scale.*.pprof

# Where a script's time goes: CPU and allocation profiles of the
# interpreter's benchmarks — the counting loop and the conformance
# corpus, which between them are the benchmark's ftsh-corpus workload,
# plus a 150-level recursion — each printed as a cumulative top-40. The
# corpus runs whole (ConformancePass/pass) and member by member, so the
# benchmark lines above the profiles are the per-script split. Beside
# them, what the engine charges every script: a fresh engine with one
# process (BenchmarkFreshEngineSpawn) and one 800 Go frames deep
# (BenchmarkDeepProcess). Same rules as profile-figures: writes only
# under .bench_build/, gates nothing.
profile-ftsh:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -c -o $(PROFILE_DIR)/interp.test ./internal/ftsh/interp
	cd internal/ftsh/interp && $(CURDIR)/$(PROFILE_DIR)/interp.test -test.run NONE \
		-test.bench 'BenchmarkInterpLoop|BenchmarkConformancePass|BenchmarkRecursion' -test.benchtime 1s -test.benchmem \
		-test.cpuprofile $(CURDIR)/$(PROFILE_DIR)/cpu.ftsh.pprof -test.memprofile $(CURDIR)/$(PROFILE_DIR)/mem.ftsh.pprof
	$(GO) test -run NONE -bench 'BenchmarkFreshEngineSpawn|BenchmarkDeepProcess' -benchtime 1s -benchmem ./internal/sim
	$(GO) tool pprof -top -cum -nodecount=40 $(PROFILE_DIR)/interp.test $(PROFILE_DIR)/cpu.ftsh.pprof
	$(GO) tool pprof -sample_index=alloc_objects -top -cum -nodecount=40 $(PROFILE_DIR)/interp.test $(PROFILE_DIR)/mem.ftsh.pprof

# Non-test Go lines per package (the files `go build` compiles on this
# platform), then the total: the line counts the docs quote come from
# here. It measures, it gates nothing, so it is not in ci.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}{{range .GoFiles}} {{.}}{{end}}' ./... | \
		while read pkg dir files; do \
			[ -n "$$files" ] || continue; \
			printf '%7d %s\n' "$$(cd "$$dir" && cat $$files | wc -l)" "$$pkg"; \
		done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'

ci: fmt-check vet build cross race bench-smoke fuzz-smoke
