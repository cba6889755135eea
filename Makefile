# Development targets; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: build test test-race vet lint bench perfbench perfbench-compare bench-shard bench-trace bench-cursor bench-cache bench-pairs bench-measures bench-memstats bench-cluster experiments serve-demo serve-cluster api-check api-snapshot

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: vet always; staticcheck when it is on PATH (CI installs
# it, local machines may not have it — we never install on the fly).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

# Race-detect the concurrency-bearing packages: the kNDS engine with its
# batch scheduler and partitioned full scan, the sharded fan-out engine,
# the distributed serving tier (loopback node fleets + coordinator), the
# group and sharded-map primitives, the shared address cache, the
# semantic-distance cache, and the telemetry registry.
test-race:
	$(GO) test -race -count=2 ./internal/cache/... ./internal/cluster/... ./internal/core/... ./internal/drc/... ./internal/pool/... ./internal/shard/... ./internal/telemetry/...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The repository benchmark (BENCHMARK.json, perfbench/README.md): one
# untraced 20 s run of one workload, e.g.
#   make perfbench WORKLOAD=patient-cold SEED=301
# and a comparison of two runs' output directories:
#   make perfbench-compare A=dir-a B=dir-b
WORKLOAD ?= patient-cold
SEED ?= 1

perfbench:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 20 --trace 0

perfbench-compare:
	bash perfbench/run.sh --compare $(A) $(B)

# Sharded fan-out latency sweep (shard counts x placements), with every
# answer verified against the single engine.
bench-shard:
	$(GO) run ./cmd/crbench -scale small -exp shard

# Tracing cost at its three operating points (off / hook / full sink),
# plus the BenchmarkTrace micro-benchmark CI smokes.
bench-trace:
	$(GO) run ./cmd/crbench -scale small -exp telemetry
	$(GO) test -run=NONE -bench=BenchmarkTrace -benchtime=100x ./internal/core/

# Cursor resume cost: one-shot pipeline latency plus GrowK-resume vs a
# fresh requery at the larger k (EXPERIMENTS.md, "Cursor resume").
bench-cursor:
	$(GO) run ./cmd/crbench -scale small -exp cursor

# Distance-cache sweep: Zipf workload, byte-budget sweep with hit rate and
# plan-stage speedup, plus the corpus-growth invalidation phase
# (EXPERIMENTS.md, "Distance cache").
bench-cache:
	$(GO) run ./cmd/crbench -scale small -exp cache

# Bounded all-pairs join vs the naive oracle: evaluated fraction, pruning
# counts, and bitwise equivalence of all tiers (EXPERIMENTS.md, "Top-k
# similar pairs").
bench-pairs:
	$(GO) run ./cmd/crbench -scale small -exp pairs
	$(GO) test -run=NONE -bench=BenchmarkTopKPairs -benchtime=10x ./internal/core/

# Resource attribution: allocations/query, objects/query and GC pause per
# execution tier (serial/parallel/sharded x cold/warm cache), plus the
# per-stage allocation table via the StageAllocs sampler (EXPERIMENTS.md,
# "Resource attribution").
bench-memstats:
	$(GO) run ./cmd/crbench -scale small -exp memstats

# Pluggable-measure sweep: overlap@k against the Rada default and per-query
# cost for each built-in DistanceMeasure, with the generic-pipeline Rada
# tier as the pluggability-overhead control (EXPERIMENTS.md, "Pluggable
# distance measures").
bench-measures:
	$(GO) run ./cmd/crbench -scale small -exp measures

# Distributed serving tier: single-vs-sharded-vs-distributed latency with
# bitwise verification, hedge win rate against a slowed replica, and shed
# rate under a concurrent burst (EXPERIMENTS.md, "Distributed serving").
bench-cluster:
	$(GO) run ./cmd/crbench -scale small -exp cluster

# Public API surface gate. api/conceptrank.txt is the checked-in `go doc`
# snapshot of the root package; api-check fails when the exported surface
# (or its package doc) drifts without the snapshot being regenerated, so
# API changes are always explicit in review. After an intentional change,
# run api-snapshot and commit the diff.
api-check:
	@$(GO) doc ./ | diff -u api/conceptrank.txt - \
		|| { echo "public API surface drifted from api/conceptrank.txt; run 'make api-snapshot' and commit the result"; exit 1; }

api-snapshot:
	$(GO) doc ./ > api/conceptrank.txt

# Regenerate the EXPERIMENTS.md tables at laptop scale.
experiments:
	$(GO) run ./cmd/crbench -scale small -exp all

# Introspection demo: a synthetic-corpus query server with background demo
# traffic; watch `curl localhost:6060/metrics` move, browse /debug/slowlog
# and /debug/pprof.
serve-demo:
	$(GO) run ./cmd/crserve -listen :6060 -demo 50ms

# Distributed demo on one machine: three shard nodes plus a coordinator on
# :6060 speaking the same /search surface as serve-demo. Ctrl-C stops all
# four (each drains gracefully).
serve-cluster:
	$(GO) run ./cmd/crserve -node -shard-index 0 -shard-count 3 -listen :7001 & \
	$(GO) run ./cmd/crserve -node -shard-index 1 -shard-count 3 -listen :7002 & \
	$(GO) run ./cmd/crserve -node -shard-index 2 -shard-count 3 -listen :7003 & \
	sleep 2; \
	$(GO) run ./cmd/crserve -coordinator -peers 'http://localhost:7001;http://localhost:7002;http://localhost:7003' -listen :6060; \
	kill %1 %2 %3 2>/dev/null; wait
