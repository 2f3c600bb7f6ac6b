# Standard targets; no dependencies beyond the Go toolchain.

.PHONY: all build vet test test-shuffle race test-race fuzz fuzz-short bench experiments profile pprof guard guard-race allocgate cachegate vmgate obsgate servegate storegate benchbuild examples check clean

all: build vet test

# Everything a PR should pass: build, vet, tests, the allocation,
# cache-hit, VM, flight-recorder and serving regression gates, the
# race-enabled guard suite, the full race suite, a shuffled-order test
# pass, the benchmark module's build and tests, and a short fuzz session
# per target.
check: all allocgate cachegate vmgate obsgate servegate storegate benchbuild guard-race test-race test-shuffle fuzz-short

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# The suite in randomized test order: catches tests that only pass by
# riding state (a warm shared cache, a populated plan cache, a built
# index) left behind by an earlier test.
test-shuffle:
	go test -shuffle=on ./...

race:
	go test -race ./internal/eval/parallel/ -run . && go test -race -run TestIntegrationConcurrent .

# The full test suite under the race detector (EvalBatch, concurrent
# index builds, plan-cache contention).
test-race:
	go test -race ./...

# Short fuzz sessions over the two parsers (regression seeds always run
# as part of 'test').
fuzz:
	go test -fuzz=FuzzParse -fuzztime=30s ./internal/xpath/parser/
	go test -fuzz=FuzzParse -fuzztime=30s ./internal/xmltree/

# 30s per fuzz target: both parsers plus the cross-engine differential
# suite (five engines, warm-vs-cold byte equality).
fuzz-short:
	go test -fuzz=FuzzParse -fuzztime=30s ./internal/xpath/parser/
	go test -fuzz=FuzzParse -fuzztime=30s ./internal/xmltree/
	go test -fuzz=FuzzDifferentialEngines -fuzztime=30s .

bench:
	go test -bench=. -benchmem ./...

# The machine-independent experiment suite reproducing every figure and
# table of the paper (see EXPERIMENTS.md).
experiments:
	go run ./cmd/xbench

# The observability experiment alone: naive-vs-cvt visit growth with the
# full metrics/trace layer enabled; writes BENCH_OBS.json (see
# docs/OBSERVABILITY.md and the EXP-OBS entry in EXPERIMENTS.md).
profile:
	go run ./cmd/xbench -run profile

# The resource-governance experiment alone: the same op budget kills the
# naive engine where cvt completes, plus a deadline row; writes
# BENCH_GUARD.json (see docs/ROBUSTNESS.md and EXP-GUARD in
# EXPERIMENTS.md).
guard:
	go run ./cmd/xbench -run guard

# Cancellation, budget and fallback tests under the race detector:
# concurrent batch cancellation, the parallel engine's shared guard, and
# the bytecode VM's shared-program/private-state seam.
guard-race:
	go test -race -run 'TestGuard|TestEvalBatch|TestVM' .

# The allocation regression gate: warm compiled-query evaluations must
# stay under the checked-in allocs-per-op ceilings of
# alloc_gate_test.go, then the alloc experiment reports the current
# steady-state numbers and refreshes BENCH_ALLOC.json (see
# docs/PERFORMANCE.md and EXP-ALLOC in EXPERIMENTS.md).
allocgate:
	go test -run TestAllocGate -count=1 .
	go run ./cmd/xbench -run alloc

# The bytecode-VM regression gate: warm VM evaluations must stay under
# the vm_gate_test.go allocs-per-op ceilings, then the VM experiment
# reports corelinear-vs-vm warm wall-clock and refreshes BENCH_VM.json
# (see docs/VM.md and EXP-VM in EXPERIMENTS.md).
vmgate:
	go test -run TestVMAllocGate -count=1 .
	go run ./cmd/xbench -run vm

# The cache-hit allocation gate: serving a cached result must stay under
# the cache_gate_test.go ceiling, then the cache experiment reports the
# uncached-vs-hit numbers and refreshes BENCH_CACHE.json (see
# docs/CACHING.md and EXP-CACHE in EXPERIMENTS.md).
cachegate:
	go test -run TestCacheGate -count=1 .
	go run ./cmd/xbench -run cache

# The flight-recorder overhead gate: attaching EvalOptions.Flight on
# the disabled and sampled-out paths must add at most the
# obs_gate_test.go allocs-per-op delta, then the obs2 experiment reports
# disabled-vs-sampled-vs-capture-all overhead and refreshes
# BENCH_OBS2.json (see docs/OBSERVABILITY.md and EXP-OBS2 in
# EXPERIMENTS.md).
obsgate:
	go test -run TestObsGate -count=1 .
	go run ./cmd/xbench -run obs2

# The serving gate: the xpathd daemon suite (admission, registry,
# tenancy, shedding — internal/server) plus the serve experiment's
# quick mode against a live in-process daemon, which must complete
# within the timeout, shed under saturation and expose the shed counter
# on /metrics. Writes a scratch BENCH_SERVE.quick.json (gitignored);
# the checked-in BENCH_SERVE.json comes from the full `xbench -run
# serve` (see docs/SERVING.md and EXP-SERVE in EXPERIMENTS.md).
servegate:
	go test -run 'TestServe|TestTenant|TestBudgetHeaders|TestCeilingClamp|TestEval|TestDocument|TestConcurrentTenants|TestHealthz|TestRegistry|TestFingerprint|TestLoadBackendSelection' -timeout 120s -count=1 ./internal/server/
	XBENCH_SERVE_QUICK=1 XBENCH_SERVE_OUT=BENCH_SERVE.quick.json go run ./cmd/xbench -run serve

# The storage backend gate: the columnar encoding must stay >=2x
# smaller than the pointer tree, and evaluating through a columnar
# document's hydrated view must match the pointer backend's warm
# allocs/op and stay within 10% of its wall time (store_gate_test.go).
# Then the store experiment reports the footprint and overhead tables
# and refreshes BENCH_STORE.json (see docs/STORAGE.md and EXP-STORE in
# EXPERIMENTS.md).
storegate:
	go test -run 'TestStoreGate' -count=1 .
	go run ./cmd/xbench -run store

# The xpathd benchmark (xpathdbench/) is a Go module of its own that
# replaces the root module, so the root `go test ./...` skips it: vet
# and test it here, offline, so a facade change that breaks the
# benchmark build fails `make check` instead of the benchmark run.
benchbuild:
	cd xpathdbench && export GOFLAGS= GOPROXY=off && go vet ./... && go test ./...

# CPU + heap profiles of the hot evaluation paths, via the alloc
# experiment's warm workloads. Inspect with `go tool pprof cpu.out`
# (or mem.out); `top`, `list evalPath`, and `web` are good first moves.
pprof:
	go run ./cmd/xbench -run alloc -cpuprofile cpu.out -memprofile mem.out

examples:
	go run ./examples/quickstart
	go run ./examples/circuitsolver
	go run ./examples/reachability
	go run ./examples/bookstore
	go run ./examples/streaming

clean:
	go clean ./...
