GO ?= go

.PHONY: all build test race vet lint lint-graph microbench sweep bench fuzz chaos chaos-search overload failover flight scenarios energy reprobench-output check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint: vet
	$(GO) run ./cmd/reprolint ./...

# lint-graph prints the analyzers' deterministic whole-program call graph
# as sorted DOT (pipe to `dot -Tsvg` or diff two revisions byte-for-byte).
lint-graph:
	$(GO) run ./cmd/reprolint -graph ./...

microbench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/flight/ ./internal/sim/ ./internal/energy/

# sweep runs every ablation matrix through the parallel sweep engine with
# the content-hash cache warm across invocations.
sweep:
	$(GO) run ./cmd/reprobench -exp ablation-latency -cache .sweepcache
	$(GO) run ./cmd/reprobench -exp ablation-mechanisms -cache .sweepcache
	$(GO) run ./cmd/reprobench -exp ablation-threshold -cache .sweepcache
	$(GO) run ./cmd/reprobench -exp ablation-interrupt -cache .sweepcache
	$(GO) run ./cmd/reprobench -exp ablation-loss -cache .sweepcache
	$(GO) run ./cmd/reprobench -exp ablation-faults -cache .sweepcache
	$(GO) run ./cmd/reprobench -exp ablation-overload -cache .sweepcache
	$(GO) run ./cmd/reprobench -exp ablation-scenarios -cache .sweepcache
	$(GO) run ./cmd/reprobench -exp ablation-energy -cache .sweepcache
	$(GO) run ./cmd/reprobench -exp ablation-failover -cache .sweepcache

# bench is the regression guard: rerun the pinned sweep and compare against
# the committed BENCH_sweep.json — exact on simulated metrics, ±10% on
# trial throughput. Refresh the baseline with:
#   go run ./cmd/reprobench -exp sweep-bench -json BENCH_sweep.json
bench:
	$(GO) run ./cmd/reprobench -exp sweep-bench -json /tmp/BENCH_sweep.json -baseline BENCH_sweep.json

# fuzz gives the reliability-protocol, checkpoint-decoder, fault-plan-
# generator and scenario-spec (parse-compile-run and parse-compile)
# fuzzers a short budget each; CI and local
# smoke runs share the checked-in corpus under testdata. -fuzzminimizetime
# caps the minimization of each new input at 100 runs, so the budget goes
# to searching.
fuzz:
	$(GO) test -run FuzzReliableEndpoint -fuzz FuzzReliableEndpoint -fuzztime 30s -fuzzminimizetime 100x ./internal/core/
	$(GO) test -run FuzzCheckpoint -fuzz FuzzCheckpoint -fuzztime 30s -fuzzminimizetime 100x ./internal/core/
	$(GO) test -run FuzzFaultPlanGen -fuzz FuzzFaultPlanGen -fuzztime 30s -fuzzminimizetime 100x ./internal/chaos/
	$(GO) test -run '^FuzzScenario$$' -fuzz '^FuzzScenario$$' -fuzztime 30s -fuzzminimizetime 100x .
	$(GO) test -run '^FuzzScenarioCompile$$' -fuzz '^FuzzScenarioCompile$$' -fuzztime 30s -fuzzminimizetime 100x .

# chaos runs the fault-injection suites: the root RUBiS chaos tests plus
# the coordination-plane protocol tests under the race detector.
chaos:
	$(GO) test -run 'TestChaos' .
	$(GO) test -race ./internal/core/... ./internal/pcie/... ./internal/sweep/...

# chaos-search pins the property-guided search plane: the generator/
# shrinker/search engine under the race detector, the root acceptance
# tests (worker-count determinism, planted-violation shrinking, corruption
# containment), a small fixed-budget seeded search via the CLI, and a
# replay of every committed corpus entry — each testdata/chaos/*.json
# must still pass its oracle. See docs/chaos-search.md.
chaos-search:
	$(GO) test -race ./internal/chaos/
	$(GO) test -run 'TestChaosSearchDeterminism|TestChaosShrinkPlantedViolation|TestChaosCorruptionContainment|TestChaosCorpusReplay' .
	$(GO) run ./cmd/reprochaos search -seed 1 -budget 4 -duration 8s -warmup 2s
	$(GO) run ./cmd/reprochaos replay testdata/chaos/*.json

# failover pins the controller-availability contract under the race
# detector: a mid-run primary crash costs at most the election bound
# (TestChaosControllerCrash), a failover run record/replays
# byte-identically, the failover matrix is deterministic across sweep
# worker counts, and the replication/checkpoint/bounded-buffer unit
# layer holds.
failover:
	$(GO) test -race -run 'TestChaosControllerCrash|TestChaosFailoverReplay|TestFailoverMatrixParallelDeterminism' .
	$(GO) test -race -run 'TestFailover|TestCheckpoint|TestSnapshotRestore|TestReliableOutstandingBounded|TestReliableReorderBufferBounded|TestReliableFlushStale|TestWatchdogFlapHysteresis' ./internal/core/

# overload exercises the overload-control plane: the admission/breaker
# unit+property tests under the race detector, the overload chaos suites,
# and the quick ablation matrix (simulated metrics are machine-independent,
# so no wall-clock comparison is involved).
overload:
	$(GO) test -race ./internal/overload/
	$(GO) test -run 'TestChaosOverload|TestBoundedQueues|TestCoordinatedOverload' . ./internal/rubis/
	$(GO) run ./cmd/reprobench -exp ablation-overload -quick

# flight exercises the flight recorder end-to-end on a short saturated
# RUBiS run: record the log, replay it (divergence fails the target),
# re-record it, diff the two recordings byte-for-event, then give the
# format decoder a short fuzz budget over the checked-in corpus.
flight:
	$(GO) run ./cmd/reproflight record -o /tmp/ci.flight -seed 7 -duration 10s -warmup 2s -load 3 -overload
	$(GO) run ./cmd/reproflight replay /tmp/ci.flight
	$(GO) run ./cmd/reproflight record -o /tmp/ci2.flight -seed 7 -duration 10s -warmup 2s -load 3 -overload
	$(GO) run ./cmd/reproflight diff /tmp/ci.flight /tmp/ci2.flight
	$(GO) run ./cmd/reproflight inspect /tmp/ci.flight
	$(GO) test -run FuzzFlightDecoder -fuzz FuzzFlightDecoder -fuzztime 10s -fuzzminimizetime 100x ./internal/flight/

# scenarios runs the trace-driven workload conformance suite under the
# race detector: the .wtrace format golden/round-trip/fuzz-seed tests,
# the generator property tests, the trace-driven client, scenario
# validation, worker-count determinism of the scenario matrix, and
# flight record/replay of a trace-driven run — then smokes the reproscn
# CLI end to end (generate must be deterministic: diff exits 1 on any
# divergence between two same-seed traces; two runs of the paper's RUBiS
# spec must print byte-identical results).
scenarios:
	$(GO) test -race ./internal/scenario/
	$(GO) test -race -run 'TestResolveTrace|TestTrace|TestScaleTraceTimes' ./internal/rubis/
	$(GO) test -race -run 'TestScenario|TestParseScenario' .
	$(GO) run ./cmd/reproscn generate -kind flash-crowd -o /tmp/ci-a.wtrace -duration 20s -seed 7
	$(GO) run ./cmd/reproscn generate -kind flash-crowd -o /tmp/ci-b.wtrace -duration 20s -seed 7
	$(GO) run ./cmd/reproscn diff /tmp/ci-a.wtrace /tmp/ci-b.wtrace
	$(GO) run ./cmd/reproscn inspect /tmp/ci-a.wtrace
	$(GO) run ./cmd/reproscn run -coordinated bench/specs/paper-rubis.json > /tmp/ci-rubis-a.txt
	$(GO) run ./cmd/reproscn run -coordinated bench/specs/paper-rubis.json > /tmp/ci-rubis-b.txt
	cmp /tmp/ci-rubis-a.txt /tmp/ci-rubis-b.txt

# energy pins the energy subsystem's contracts under the race detector:
# the DVFS/meter/governor unit and property layer, the energy-matrix
# worker-count determinism and flight record/replay acceptance tests, the
# conservation and power-cap oracles, and the quick energy ablation —
# whose headline line asserts coordinated ≥10% fewer joules than ondemand
# at equal QoS at the calibrated 1x load.
energy:
	$(GO) test -race ./internal/energy/
	$(GO) test -race -run 'TestEnergy|TestPowerCap|ExampleRunPowerCap' .
	$(GO) run ./cmd/reprobench -exp ablation-energy -quick

# reprobench-output regenerates the published evaluation output from
# reprobench's stdout (progress goes to stderr). It runs every experiment
# at full length: about 10 minutes on 2 vCPUs.
reprobench-output:
	$(GO) run ./cmd/reprobench -exp all > docs/reprobench-output.txt.tmp
	mv docs/reprobench-output.txt.tmp docs/reprobench-output.txt

# check is the full tier-1 gate: what CI runs on every push.
check: build test lint
