# Development entry points. CI (.github/workflows/ci.yml) runs `make check`.

GO ?= go
FUZZTIME ?= 15s

.PHONY: all build test race vet androne-vet vet-ip vet-effects vet-locks vet-smoke vet-stale sim telemetry fleet equivalence fleet10k-smoke scale-smoke cloud-smoke load-smoke planner-smoke perfbench-smoke fuzz cover check clean

all: build

build:
	$(GO) build ./...

# Unit tests (tier 1).
test:
	$(GO) test ./...

# Full test suite under the race detector.
race:
	$(GO) test -race ./...

# Standard go vet plus the repository's custom analyzer suite.
vet: androne-vet
	$(GO) vet ./...

# The androne-specific static-analysis suite: lock discipline, binder
# namespace isolation, VFC whitelist boundary, service-plane deadlines,
# timer hygiene, the interprocedural security analyzers, the
# effect-summary contract analyzers (detguard, hotpath), and the
# concurrency-liveness pair (lockorder, waitleak). The committed
# VET_BASELINE.json gates total wall-clock at 3x, and the stale-allows
# audit fails on suppressions nothing fires on anymore. See DESIGN.md
# "Static analysis & concurrency invariants".
androne-vet:
	$(GO) run ./cmd/androne-vet -budget-file VET_BASELINE.json ./...

# Suppression audit: every //vet:allow must still have an active analyzer
# firing on its line — dead suppressions are removed, not accumulated.
vet-stale:
	$(GO) run ./cmd/androne-vet -stale-allows ./...

# The effect-summary contract subset alone: determinism of //vet:detpath
# call trees (detguard) and allocation/lock freedom of //vet:hotpath call
# trees (hotpath). See DESIGN.md "Effect summaries & contract analyzers".
vet-effects:
	$(GO) run ./cmd/androne-vet -ctxtimeout=false -errflow=false \
		-lockorder=false -locksafe=false -nsguard=false -permguard=false \
		-sendertaint=false -tickleak=false -waitleak=false \
		-whitelistguard=false ./...

# The concurrency-liveness pair alone, built on the lock-set engine:
# deadlock freedom plus the flight-critical blocking contract (lockorder)
# and goroutines that can block forever (waitleak). See DESIGN.md "Lock
# ordering & goroutine liveness".
vet-locks:
	$(GO) run ./cmd/androne-vet -ctxtimeout=false -detguard=false \
		-errflow=false -hotpath=false -locksafe=false -nsguard=false \
		-permguard=false -sendertaint=false -tickleak=false \
		-whitelistguard=false ./...

# Sabotage smoke for the contract analyzers: the fixture suites carry
# deliberately broken packages whose expected findings ("// want"
# comments) must all be produced — an analyzer that goes blind fails the
# test rather than silently passing the repo.
vet-smoke:
	$(GO) test -count=1 -run 'TestDetGuard|TestHotPath|TestLockOrder|TestWaitLeak' \
		./internal/analysis/detguard ./internal/analysis/hotpath \
		./internal/analysis/lockorder ./internal/analysis/waitleak

# The interprocedural subset alone (whole-program call graph + dataflow):
# permission-dominance (permguard), sender-identity taint (sendertaint),
# and security-relevant error propagation (errflow). See DESIGN.md
# "Interprocedural analyses".
vet-ip:
	$(GO) run ./cmd/androne-vet -ctxtimeout=false -lockorder=false \
		-locksafe=false -nsguard=false -tickleak=false -waitleak=false \
		-whitelistguard=false ./...

# End-to-end scenario harness (internal/simharness): every builtin scenario
# through the CLI, the JSON examples, and proof that a sabotaged enforcement
# layer makes the run exit non-zero. See DESIGN.md "Scenario harness & fault
# injection".
sim: build
	@for s in survey-baseline multi-tenant breach-loiter motor-degraded \
	          squall lossy-gcs revoked-midflight save-restore duty-cycle; do \
		$(GO) run ./cmd/androne-sim -quiet -scenario $$s || exit 1; \
		echo "scenario $$s: invariants held"; \
	done
	$(GO) run ./cmd/androne-sim -quiet -file examples/breach-loiter.json
	@echo "example breach-loiter.json: invariants held"
	@if $(GO) run ./cmd/androne-sim -quiet -file examples/broken-whitelist.json 2>/dev/null; then \
		echo "sabotaged scenario did NOT fail"; exit 1; \
	else echo "example broken-whitelist.json: violation detected (expected)"; fi

# Telemetry gate: the deterministic black-box replay tests (a sabotaged
# scenario's FlightRecord must contain the injected fault, the VFC's
# rejection, and the VDC decision, bit-identical across replays), plus
# proof that a sabotaged run writes violation FlightRecords to
# telemetry-records/ for inspection with androne-trace. See DESIGN.md
# "Telemetry & flight recorder".
telemetry: build
	$(GO) test -run 'TestFlightRecord' ./internal/simharness
	@rm -rf telemetry-records
	@if $(GO) run ./cmd/androne-sim -quiet -scenario sabotage-whitelist -record-dir telemetry-records 2>/dev/null; then \
		echo "sabotaged scenario did NOT fail"; exit 1; \
	else ls telemetry-records/*violation* >/dev/null 2>&1 || { echo "no violation FlightRecord written"; exit 1; }; \
	echo "telemetry: violation black box recorded"; fi

# Fleet determinism replay under the race detector: the same fleet run
# serially and across a worker pool must yield bit-identical per-drone
# trace hashes. FLEET_DRONES scales the fleet (CI default 16; acceptance
# runs use 256). See DESIGN.md "Fleet scaling & hot-path concurrency".
FLEET_DRONES ?= 16
fleet:
	ANDRONE_FLEET_DRONES=$(FLEET_DRONES) $(GO) test -race -count=1 \
		-run 'TestFleetDeterminism|TestFleetModeEquivalence' ./internal/fleet

# Differential equivalence suite: every builtin and sabotaged scenario in
# event-driven mode must produce bit-identical traces, violations, and
# tick counts to the lockstep oracle, across seed variants; the pinned
# trace hashes of every builtin and sabotaged scenario in both modes; plus
# the bit-exactness test behind the scheduler's bulk leaps. See DESIGN.md
# "Event-driven scheduling".
equivalence:
	$(GO) test -count=1 -run 'TestEventMode' ./internal/simharness
	$(GO) test -count=1 -run 'TestTraceHashesPinned' ./internal/simharness
	$(GO) test -count=1 -run 'TestBulkAdvance' ./internal/core
	$(GO) test -count=1 ./internal/sched

# Reduced fleet10k gate: event-driven fleet throughput vs lockstep on the
# one-hour-hold duty-cycle scenario. Enforces the >= 10x per-drone
# speedup gate and cross-mode trace-hash equality at CI size.
fleet10k-smoke: build
	$(GO) run ./cmd/androne-bench -exp fleet10k -fleet10k-smoke

# Abbreviated perf gate for the lock-free hot paths: parallel binder
# transact at GOMAXPROCS 1 vs 8. On hosts with >= 8 CPUs the 8-CPU run
# must beat the 1-CPU run; on smaller hosts the numbers print but the
# gate is skipped (oversubscribed goroutines cannot show real scaling).
scale-smoke: build
	$(GO) run ./cmd/androne-bench -exp scale -scale-smoke

# Reduced cloud service-plane gate: the multi-tenant load workload through
# the admission-controlled portal at CI size, with the real SLO gates —
# zero errors/violations, p99 under budget, dedup >= 2x on checkpoint
# churn. BENCH_cloud.json at the repo root is the committed full-size run.
cloud-smoke: build
	$(GO) run ./cmd/androne-bench -exp cloud -cloud-smoke

# Reduced planner kernel gate: the incremental annealing kernel against the
# cloning baseline at CI sizes (>= 25x ns/move), bit-level incremental-vs-
# naive cost parity, bit-identical restart winners at workers=1 vs a
# parallel pool, and the planner-to-fleet campaign loop with its sabotage
# negative control. BENCH_planner.json at the repo root is the committed
# full-size run.
planner-smoke: build
	$(GO) run ./cmd/androne-bench -exp planner -planner-smoke

# A tiny androne-load run end to end through the CLI: proves the traffic
# harness itself works (flags, in-process service boot, JSON output).
load-smoke: build
	$(GO) run ./cmd/androne-load -tenants 2 -orders 1 -browse 3 -churn 2 -json >/dev/null
	@echo "androne-load: smoke run completed"

# The benchmark module (perfbench/, declared by BENCHMARK.json) is a Go
# module of its own, so `go test ./...` never compiles it. Run its tests
# and a one-second pass of each workload, so an API change it depends on
# fails here rather than in the benchmark run.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
	@for w in fleet-survey fleet-dutycycle portal-mixed; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# Fuzz smoke: each native fuzz target for FUZZTIME (default 15s) on top of
# its checked-in seed corpus (testdata/fuzz/).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/mavlink
	$(GO) test -run='^$$' -fuzz=FuzzTunnelOpen -fuzztime=$(FUZZTIME) ./internal/netem
	$(GO) test -run='^$$' -fuzz=FuzzVFCStateMachine -fuzztime=$(FUZZTIME) ./internal/mavproxy
	$(GO) test -run='^$$' -fuzz=FuzzQueueOps -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run='^$$' -fuzz=FuzzPlannerPlan -fuzztime=$(FUZZTIME) ./internal/planner

# Coverage ratchet: total statement coverage must not drop below the floor
# recorded in coverage-baseline.txt. Raise the floor when coverage grows.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat coverage-baseline.txt); \
	echo "coverage: $$total% (floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }' || \
		{ echo "total coverage $$total% fell below the $$floor% floor"; exit 1; }

# Everything CI enforces, in CI's order.
check: build vet vet-ip vet-locks vet-stale test race sim telemetry equivalence fleet fleet10k-smoke scale-smoke cloud-smoke planner-smoke load-smoke perfbench-smoke fuzz

clean:
	$(GO) clean ./...
