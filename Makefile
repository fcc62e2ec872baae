# Development entry points. CI (.github/workflows/ci.yml) runs `make check`.

GO ?= go
FUZZTIME ?= 15s

.PHONY: all build fmt-check test race vet androne-vet vet-smoke sim telemetry fleet equivalence bench-smoke load-smoke perfbench-smoke fuzz cover check clean

all: build

build:
	$(GO) build ./...

# Formatting gate: every Go file in the tree, analyzer fixtures under
# testdata/ included, must be exactly as gofmt writes it.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt would reformat:"; echo "$$out"; exit 1; fi

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
# concurrency-liveness pair (lockorder, waitleak). One run fails on any
# finding and on any stale //vet:allow (a suppression no analyzer fires on
# anymore), and the committed VET_BASELINE.json gates total wall-clock at
# 3x. See DESIGN.md "Static analysis & concurrency invariants".
androne-vet:
	$(GO) run ./cmd/androne-vet -budget-file VET_BASELINE.json ./...

# Sabotage smoke for the contract analyzers: the fixture suites carry
# deliberately broken packages whose expected findings ("// want"
# comments) must all be produced — an analyzer that goes blind fails the
# test rather than silently passing the repo.
vet-smoke:
	$(GO) test -count=1 -run 'TestDetGuard|TestHotPath|TestLockOrder|TestWaitLeak' \
		./internal/analysis/detguard ./internal/analysis/hotpath \
		./internal/analysis/lockorder ./internal/analysis/waitleak

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
# the bit-exactness tests behind event mode's bulk leaps, per layer (the
# controller's estimator replay, the parked physics, the closed-form
# accumulator) and for the whole drone. See DESIGN.md "Event-driven
# scheduling".
equivalence:
	$(GO) test -count=1 -run 'TestEventMode' ./internal/simharness
	$(GO) test -count=1 -run 'TestTraceHashesPinned' ./internal/simharness
	$(GO) test -count=1 -run 'TestBulkAdvance' ./internal/core
	$(GO) test -count=1 -run 'TestAdvanceDisarmed' ./internal/flight
	$(GO) test -count=1 -run 'TestAdvanceParkedBitExact' ./internal/sitl
	$(GO) test -count=1 -run 'TestRepeatAdd' ./internal/detmath

# Every measured experiment at CI size, in one invocation, with the gates
# of the full runs: baseline (the checkpoint cycle alone, retaining <= 256
# B of live heap per cycle), scale (cpu8 > cpu1 on >= 8-CPU hosts,
# vfc-send at 0 allocs/op, fleet trace hashes identical at 1/8/64/256
# drones), fleet10k (event mode >= 10x lockstep per drone, cross-mode
# trace hashes, every drone passing), cloud (zero errors and violations,
# p99 <= 250 ms, churn dedup >= 2x) and planner (kernel >= 25x the cloning
# baseline's ns/move, bit-level cost parity, bit-identical restarts, the
# campaign within tolerance, the sabotage control tripped). Each
# experiment writes its record into a fresh bench-out/ before its gates
# decide the exit status. The BENCH_*.json records at the repo root are
# the committed full-size runs (see cmd/androne-bench).
bench-smoke: build
	@rm -rf bench-out
	$(GO) run ./cmd/androne-bench -exp baseline,scale,fleet10k,cloud,planner -smoke -out bench-out

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
	$(GO) test -run='^$$' -fuzz=FuzzPlannerPlan -fuzztime=$(FUZZTIME) ./internal/planner
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./internal/devices
	$(GO) test -run='^$$' -fuzz=FuzzSincosTan -fuzztime=$(FUZZTIME) ./internal/detmath
	$(GO) test -run='^$$' -fuzz=FuzzRepeatAdd -fuzztime=$(FUZZTIME) ./internal/detmath
	$(GO) test -run='^$$' -fuzz=FuzzAppendOrderJSON -fuzztime=$(FUZZTIME) ./internal/cloud
	$(GO) test -run='^$$' -fuzz=FuzzVDRRoundTrip -fuzztime=$(FUZZTIME) ./internal/cloud
	$(GO) test -run='^$$' -fuzz=FuzzRecorderArchive -fuzztime=$(FUZZTIME) ./internal/telemetry

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
check: build fmt-check vet test race sim telemetry equivalence fleet bench-smoke load-smoke perfbench-smoke fuzz

clean:
	$(GO) clean ./...
