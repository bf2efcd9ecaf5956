.DEFAULT_GOAL := build

PKG      ?= ./...
PROFDIR  ?= prof
BENCHEXP ?= fig6b

.PHONY: build
build:
	go build ./...

.PHONY: test
test:
	go test $(PKG)

.PHONY: test-race
test-race:
	go test -race $(PKG)

.PHONY: vet
vet:
	go vet ./...

# bench-smoke compiles and runs every benchmark exactly once, so the
# exporter and PMU hot paths can't silently break or panic under the
# benchmark harness without failing CI.
.PHONY: bench-smoke
bench-smoke:
	go test -bench=. -benchtime=1x -run='^$$' $(PKG)

# bench-json runs the core match benchmarks (one match per iteration)
# and converts the output to BENCH_daemon.json: name, iterations,
# ns/op, allocs/op, and the domain throughput matches_per_sec. The
# DaemonShards rows carry the sharding acceptance (shards-4 at >= 2x
# the shards-1 pairs/sec). It also regenerates BENCH_hotpath.json via
# bench-json-hotpath.
BENCHJSON ?= BENCH_daemon.json
.PHONY: bench-json
bench-json: bench-json-hotpath
	go test -run='^$$' -bench='BenchmarkNativeSearch|BenchmarkStructures|BenchmarkDaemonShards' \
		-benchmem . | tee bench.out
	go run ./cmd/spco-benchjson -in bench.out -out $(BENCHJSON)
	rm -f bench.out
	@echo wrote $(BENCHJSON)

# bench-json-hotpath measures the zero-allocation batched hot path
# (engine and wire, scalar vs. batch x {8,64,512}; one matched pair per
# iteration) into BENCH_hotpath.json. The allocs/op column must stay 0
# on every row — the engine rows and, since the wire path encodes into
# and decodes out of the connection's own buffers, the wire/* rows too:
# `spco-benchjson -diff` flags any growth from zero regardless of the
# percentage threshold.
BENCHHOTPATH ?= BENCH_hotpath.json
.PHONY: bench-json-hotpath
bench-json-hotpath:
	go test -run='^$$' -bench='BenchmarkHotPath' -benchtime=2s \
		-benchmem . | tee bench_hotpath.out
	go run ./cmd/spco-benchjson -in bench_hotpath.out -out $(BENCHHOTPATH)
	rm -f bench_hotpath.out
	@echo wrote $(BENCHHOTPATH)

# daemon-smoke is the serving-mode acceptance gate: it starts a daemon
# on loopback ports, drives it with >= 4 concurrent audited client
# connections through a lossy ingress wire, scrapes /metrics live,
# fetches and verifies the /debug/profile zip (pprof set + non-empty
# simulated perf-stat), then drains and checks live-vs-flushed metric
# name parity. Self-contained: no curl, unzip, or fixed ports.
SMOKE_MSGS ?= 5000
.PHONY: daemon-smoke
daemon-smoke:
	go run ./cmd/spco-daemon smoke -conns 4 -messages $(SMOKE_MSGS)

# chaos-smoke runs the fixed-seed fault-injection soak over every
# matchlist kind: 1% drop, 0.5% dup, 2% reorder, with the exactly-once /
# FIFO / cycle-conservation invariants checked at the end of each run.
CHAOS_MSGS ?= 20000
.PHONY: chaos-smoke
chaos-smoke:
	go run ./cmd/spco-chaos -messages $(CHAOS_MSGS) -fault-seed 1 \
		-fault-drop 0.01 -fault-dup 0.005 -fault-reorder 0.02

# trace-smoke is the causal-spine acceptance gate: a seeded lossy chaos
# run exports its full Chrome trace, and spco-trace check validates the
# span trees and requires at least one message to show the complete
# causal chain (client send -> dropped + delivered wire attempts ->
# engine span -> match).
TRACE_OUT ?= chaos_trace.json
.PHONY: trace-smoke
trace-smoke:
	go run ./cmd/spco-chaos -list lla -messages 5000 -fault-seed 7 \
		-fault-drop 0.05 -trace-out $(TRACE_OUT) -trace-keep-all -trace-cap 8192
	go run ./cmd/spco-trace check -in $(TRACE_OUT) -require-chain -require-fault
	rm -f $(TRACE_OUT)

# bench-diff compares a fresh benchmark run against the committed
# BENCH_daemon.json and fails past BENCH_THRESHOLD percent regression.
# Advisory in CI (shared runners are noisy); authoritative locally.
BENCH_THRESHOLD ?= 25
.PHONY: bench-diff
bench-diff:
	go test -run='^$$' -bench='BenchmarkNativeSearch|BenchmarkStructures|BenchmarkDaemonShards' \
		-benchmem . | go run ./cmd/spco-benchjson -out bench_new.json
	go run ./cmd/spco-benchjson -threshold $(BENCH_THRESHOLD) \
		-diff BENCH_daemon.json bench_new.json; status=$$?; rm -f bench_new.json; exit $$status

# hotpath-gate is the zero-allocation hot path's CI gate: the
# AllocsPerRun assertions (0 allocs/op steady state on the pooled
# engine), the batch-vs-scalar differential across every matchlist
# kind, the pooled bit-identity checks, the daemon batch-frame parity
# tests, and a one-iteration benchmark smoke so the suite can't rot.
# It also holds the cache model's own hot path: 0 allocs per Access
# at every serving level and per attributed eviction with the PMU
# sampling and residency tracking on, 0 allocs per profiler sample, and
# a one-iteration smoke of BenchmarkHierarchyAccess. And the serving
# wire path: 0 allocs per codec call on bufio buffers and per journal
# Append, 0 allocs per 64-pair batch window and per scalar pair through
# a live Client <-> serveConn (Collector + PMU attached), the frame and
# record byte goldens, big frames, and what a traced pair records.
# `go vet ./bench` is here so that drifting a signature the untouched
# benchmark calls fails in seconds, not at benchmark time.
.PHONY: hotpath-gate
hotpath-gate:
	go vet ./bench
	go test ./internal/engine/ -run 'ZeroAlloc|BatchMatchesScalar|PoolingIsBitIdentical|PoolStats'
	go test ./internal/daemon/ -run 'Batch|ZeroAlloc|TracedPairSpans'
	go test ./internal/mpi/ -run 'Wire'
	go test ./internal/recov/ -run 'ZeroAlloc|Golden'
	go test ./internal/cache/ ./internal/perf/ -run 'ZeroAlloc'
	go test -run='^$$' -bench='BenchmarkHotPath' -benchtime=1x -benchmem .
	go test -run='^$$' -bench='BenchmarkHierarchyAccess' -benchtime=1x -benchmem ./internal/cache/

# sim-gate holds the simulator's modeled results still while its host
# cost changes. Three goldens recorded before the cache model's hit
# fast path must reproduce byte for byte: the -quick output of the 21
# scheduler-independent experiments, a digest of cycles + cache.Stats +
# every PMU counter + profiler samples + eviction matrix over seeded
# streams on every profile variant, and the (addr, size) sequence the
# LLA reports to its accessor. Beside them run the K=8 fill arithmetic
# held through counters, the detached-instrument / pooling /
# batch-vs-scalar bit-identity differentials, the telemetry exporter
# goldens and the paper-shape claims.
.PHONY: sim-gate
sim-gate:
	go test -count=1 ./internal/cache/ ./internal/matchlist/ -run 'SimGate'
	go test -count=1 ./internal/engine/ -run 'K8|DisabledIsBitIdentical|PoolingIsBitIdentical|BatchMatchesScalar|PublishEvictionMatrix'
	go test -count=1 ./internal/telemetry/ -run 'Golden|Deterministic'
	go test -count=1 ./internal/experiments/ -run 'SimGate|Fig4bShape|HotCacheSignFlip|NetCacheClaims'

# bench-quick smoke-runs every workload of the repository benchmark
# (BENCHMARK.json, bench/) with its full verification; the numbers of a
# -quick run are not comparable. bench-agree runs every workload twice,
# interleaved, and fails when an end-to-end metric disagrees with
# itself beyond its bound (~4 min): run it before and after a change
# that claims a gain.
.PHONY: bench-quick
bench-quick:
	go run ./bench -workload all -quick

.PHONY: bench-agree
bench-agree:
	go run ./bench -agree

# shard-gate is the sharded daemon's CI gate: the sharded-vs-dedicated
# per-context differential across all seven matchlist kinds, the credit
# window and decode-error tests, the serving-path race regressions, and
# the entire daemon suite rerun at Shards=4 under the race detector
# (SPCO_TEST_SHARDS reroutes every test's server through four lanes).
.PHONY: shard-gate
shard-gate:
	go test ./internal/daemon/ -run 'Shard|CreditWindow|Windowed|LateRegister|ActiveGauge|TraceClock|Truncated|BadKind|CleanClose'
	go test ./internal/mpi/ -run 'Wire'
	SPCO_TEST_SHARDS=4 go test -race ./internal/daemon/

# recovery-gate is the crash-safety CI gate: the snapshot/journal codec
# and backoff tests, the daemon recovery suite (journal-replay
# differential across all matchlist kinds, snapshot+tail recovery,
# session resume across a restart, resilient-client reconnect,
# snapshot-vs-load race, watchdog, slow-loris), short fuzz passes over
# the wire-frame and snapshot/journal decoders, and a real
# kill-and-restart storm: spco-chaos -crash SIGKILLs a live spco-daemon
# subprocess 3 times mid-load, restarts it with -recover each time, and
# audits exactly-once delivery and counter conservation, with the
# daemon sharded 4 ways.
RECOVERY_KILLS ?= 3
.PHONY: recovery-gate
recovery-gate:
	go test ./internal/recov/ ./internal/fault/
	go test ./internal/daemon/ -run 'TestRecovery|TestSessionResume|TestResilient|TestSnapshotConcurrent|TestWatchdog|TestAdminSlowLoris|TestCountersRoundTrip'
	go test ./internal/mpi/ -run '^$$' -fuzz FuzzReadWireFrame -fuzztime 10s
	go test ./internal/mpi/ -run '^$$' -fuzz FuzzReadWireBatch -fuzztime 10s
	go test ./internal/recov/ -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 10s
	go test ./internal/recov/ -run '^$$' -fuzz FuzzJournalScan -fuzztime 10s
	mkdir -p $(PROFDIR)
	go build -o $(PROFDIR)/spco-daemon ./cmd/spco-daemon
	go run ./cmd/spco-chaos -crash -daemon-bin $(PROFDIR)/spco-daemon \
		-kills $(RECOVERY_KILLS) -shards 4 -fault-seed 1

.PHONY: fmt
fmt:
	gofmt -l -w .

# profile runs a representative experiment under the Go profilers and
# leaves CPU/heap pprof files plus the telemetry artifacts in $(PROFDIR).
.PHONY: profile
profile:
	mkdir -p $(PROFDIR)
	go run ./cmd/spco-bench -exp $(BENCHEXP) -quick \
		-cpuprofile $(PROFDIR)/cpu.pprof -memprofile $(PROFDIR)/mem.pprof \
		-metrics-out $(PROFDIR)/metrics.prom -series-out $(PROFDIR)/series.csv

# analyze prints the hot paths of the most recent profile run.
.PHONY: analyze
analyze:
	go tool pprof -top -cum $(PROFDIR)/cpu.pprof | head -30
	go tool pprof -top $(PROFDIR)/mem.pprof | head -20

.PHONY: clean
clean:
	rm -rf $(PROFDIR)
