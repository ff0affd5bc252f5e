GO ?= go

.PHONY: check build vet test race shuffle cover lint lint-sarif bench bench-oracle bench-sim bench-sweep bench-service fuzz

# check is the full gate CI runs: compile, vet, race-enabled tests, and
# the repo's own static-analysis suite (cmd/bplint).
check: build vet race lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

shuffle:
	$(GO) test -shuffle=on ./...

cover:
	$(GO) test -cover ./...

# lint runs the full analyzer suite; any finding fails.
lint:
	$(GO) run ./cmd/bplint ./...

# lint-sarif emits the machine-readable report CI uploads as an artifact.
lint-sarif:
	$(GO) run ./cmd/bplint -format sarif ./... > bplint.sarif || true

# fuzz runs every native fuzz target for FUZZTIME each (CI's fuzz-smoke
# job uses 30s). Plain `go test` already replays the committed seed
# corpora under testdata/fuzz/ as regression tests.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz 'FuzzTraceRead' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz 'FuzzReadBlocks' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz 'FuzzCorpusDecode' -fuzztime $(FUZZTIME) -run '^$$' ./internal/corpus/
	$(GO) test -fuzz 'FuzzParse' -fuzztime $(FUZZTIME) -run '^$$' ./internal/bp/
	$(GO) test -fuzz 'FuzzDecodeRequest' -fuzztime $(FUZZTIME) -run '^$$' ./internal/api/v1/
	$(GO) test -fuzz 'FuzzOracleStates' -fuzztime $(FUZZTIME) -run '^$$' ./internal/core/
	$(GO) test -fuzz 'FuzzSimulate' -fuzztime $(FUZZTIME) -run '^$$' ./internal/sim/
	$(GO) test -fuzz 'FuzzSweep' -fuzztime $(FUZZTIME) -run '^$$' ./internal/sim/

# bench smoke-runs every benchmark in the root harness — including the
# 1M-branch kernel and sweep suites, which is why it pins -benchtime 1x
# and a generous timeout instead of letting the default benchtime spin
# each of them for seconds. Use bench-oracle/bench-sim/bench-sweep for
# measurement-quality numbers.
bench:
	$(GO) test -bench=. -benchtime 1x -benchmem -run=^$$ -timeout 30m .

# bench-oracle refreshes the recorded columnar-kernel baseline: the
# oracle benchmarks (reference vs kernel at 100k and 1M branches, and
# the Figure 5 per-window loop vs one shared OracleWindows pass at 200k
# and 1M plus the Figure 5 selective sweep, and the shared pass and sweep
# on two high-entropy random traces, rand2000 and rand16) piped through
# cmd/benchjson into BENCH_oracle.json. The 1M speedup pairs are the
# acceptance numbers for the kernels (>= 2x). Rows named .../at=parent
# are a parent commit's run of the same benchmarks, its lines renamed
# before the pipe, kept next to the rows a change was measured against.
bench-oracle:
	$(GO) test -run '^$$' -bench '(PackedTraceBuild|OracleProfile|OracleJoint|OracleWindows)' \
		-benchtime 3x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_oracle.json

# bench-sim refreshes the recorded simulation-engine baseline: the
# per-predictor reference-vs-kernel benchmarks at 100k and 1M branches,
# plus the entropy-ceiling reference-vs-fold pairs (local and global
# 12-bit contexts at 200k and 1M branches, internal/entropy) and the
# fold path alone on a sparse trace (the sort side of its dense/sort
# choice), piped through cmd/benchjson into BENCH_sim.json. The 1M speedup pairs for
# gshare and bimodal are the acceptance numbers for the columnar engine
# (>= 3x).
bench-sim:
	$(GO) test -run '^$$' -bench 'SimPredictor|EntropyCeilings' \
		-benchtime 3x -timeout 30m . ./internal/entropy/ | $(GO) run ./cmd/benchjson > BENCH_sim.json

# bench-sweep refreshes the recorded fused-sweep baseline: whole-grid
# benchmarks (independent per-config kernel runs vs one fused pass vs
# the config-sharded scheduler at 1/2/NumCPU shards, at 100k and 1M
# branches) piped through cmd/benchjson into BENCH_sweep.json. Each
# benchmark's branches/s metric is aggregate throughput (configs ×
# branches / wall); the 15-config gshare-hist grid at 1M is the
# headline pair, and its shards=NumCPU row is the multi-core ceiling
# (every row is stamped with its GOMAXPROCS and shard count). The
# differential gate runs first — recording throughput for an engine
# whose equivalence tests fail would be meaningless — and the shards
# benchmarks themselves fail loudly (assertFusedEngagement) if any
# iteration leaves the fused path. A single-core run still emits
# shards=2 rows, but only real cores turn them into speedup.
bench-sweep:
	$(GO) test -run 'Sweep|PredictorGrid|Shard' ./internal/bp/ ./internal/sim/ ./internal/core/
	$(GO) test -run '^$$' -bench 'SimSweep' \
		-benchtime 3x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_sweep.json

# bench-service refreshes the recorded service baseline: the bpsimd
# engine room measured over live HTTP (cold compute path, warm replay
# path, sweep/oracle/upload endpoints, and concurrent mixed load) piped
# through cmd/benchjson into BENCH_service.json. The determinism gate
# runs first — the service tests include the parallel-load differential,
# and recording throughput for a server whose payloads drift under
# concurrency would be meaningless. Cold vs warm time/op on the simulate
# pair is the caching win; the sweep row's aggregate branches/s is
# comparable to BENCH_sweep.json's fused rows (the gap is the service
# envelope).
bench-service:
	$(GO) test -race ./internal/service/ ./internal/api/...
	$(GO) test -run '^$$' -bench 'Service' \
		-benchtime 3x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_service.json
