# Tier-1 gate: everything must be gofmt-clean, build, vet clean, pass
# the test suite under the race detector, and keep the fused engine in
# agreement with its test oracles (the differential harness runs under
# -race as part of `race`; the dedicated `differential` target re-runs
# just it, shuffled).
.PHONY: check fmt build vet test race api-golden differential fuzz-smoke fuzz-json-smoke fuzz-snapshot-smoke fuzz-wal-smoke fuzz-apply-smoke fuzz-revalidate-smoke fuzz-validate-smoke fuzz-graphql-smoke fuzz-put-smoke fuzz-swap-smoke bench bench-fused bench-compiled bench-scale bench-scale-smoke bench-incremental bench-ingest bench-query bench-smoke bench-snapshot bench-snapshot-smoke bench-serve scale-smoke scale-differential stream-smoke snapshot-differential clean

check: fmt build vet race api-golden differential scale-differential snapshot-differential fuzz-smoke fuzz-json-smoke fuzz-snapshot-smoke fuzz-wal-smoke fuzz-apply-smoke fuzz-revalidate-smoke fuzz-validate-smoke fuzz-graphql-smoke fuzz-put-smoke fuzz-swap-smoke stream-smoke bench-smoke bench-scale-smoke bench-snapshot-smoke

# Every Go file must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

build:
	go build ./...

vet:
	go vet ./...

test:
	go test -shuffle=on -timeout 10m ./...

race:
	go test -race -shuffle=on -timeout 10m ./...

# API-surface regression: replay the checked-in request corpus in
# internal/server/testdata/api against a fresh handler per case and
# compare responses byte-for-byte (wall-clock fields normalized). Any
# drift in an envelope, status code, error message, or field name fails
# here; run with -update-api-golden after an intended change.
api-golden:
	go test -run 'TestAPIGolden|TestLegacyRoutesByteIdentical' -count=1 ./internal/server/

# The engine-equivalence proofs on their own: every fused validation
# configuration must emit the byte-identical violation set as the
# rule-by-rule test oracle, and the compiled query engine must agree
# byte-for-byte with the tree-walking test oracle across randomized
# schemas, graphs, queries, and mutations — raced and shuffled.
differential:
	go test -race -shuffle=on -timeout 10m -run 'TestDifferential' -count=1 ./internal/validate/ ./internal/query/

# A short coverage-guided run of the query-parser fuzz target: any input
# must parse or error (never panic), and every parsed document must
# compile into a plan.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/query/

# A short coverage-guided run of the response-writer fuzz target: for
# arbitrary strings, integers and floats, the fast JSON writer must emit
# the bytes encoding/json's indenting Encoder emits, or fail with its
# error.
fuzz-json-smoke:
	go test -run '^$$' -fuzz FuzzWriteJSON -fuzztime 10s ./internal/server/

bench:
	go test -bench=. -benchmem -run=^$$ ./...

# One iteration of every benchmark — catches benchmarks that no longer
# compile or fail their own assertions, without measuring anything. The
# comparisons against test oracles live in the internal packages;
# ./internal/pg/ includes BenchmarkReplayLog (10⁵ elements, 10³ and 10⁴
# log records, reported as ns/record).
bench-smoke:
	go test -bench=. -benchtime=1x -run=^$$ . ./internal/validate/ ./internal/query/ ./internal/pg/ ./internal/server/

# Fused-engine ablation: fused vs. the rule-by-rule and naive pair-scan
# test oracles. Emits benchstat-compatible output to BENCH_fused.json
# alongside the terminal stream.
bench-fused:
	go test -bench=BenchmarkAblationFused -benchmem -count=6 -run=^$$ ./internal/validate/ | tee BENCH_fused.json

# Compiled-program ablation: precompiled program (cross-run symbol
# tables + binding reuse) vs. compile-on-the-fly fused runs vs. the
# rule-by-rule test oracle, at 300/1000/5000 nodes per type.
bench-compiled:
	go test -bench=BenchmarkCompiledReuse -benchmem -count=6 -run=^$$ ./internal/validate/ | tee BENCH_compiled.json

# E10 — incremental revalidation: full vs delta-aware runs at ~0.1%
# and ~1% mutation batches over a ~10⁶-element graph, driven through the
# transactional Apply → Revalidate → Undo round trip.
bench-incremental:
	go test -bench=BenchmarkIncremental -benchmem -count=3 -timeout=45m -run=^$$ . | tee BENCH_incremental.json

# Million-element scaling: compiled fused validation at ~10⁵ and ~10⁶
# graph elements across 1/2/4/8 workers, plus CSV loader throughput
# (streaming and the two-phase test loader).
bench-scale:
	( go test -bench=BenchmarkScale -benchmem -count=3 -timeout=45m -run=^$$ . && \
	  go test -bench=BenchmarkLoadCSV -benchmem -count=3 -timeout=45m -run=^$$ ./internal/pg/ ) | tee BENCH_scale.json

# E12 — query serving: compiled plans vs the interpretive test oracle
# over a ~10⁶-element graph — cold (compile per query) and cached (plan +
# epoch binding reused) — for a key lookup + traversal and a full scan.
bench-query:
	go test -bench=BenchmarkQueryEngine -benchmem -count=3 -timeout=45m -run=^$$ ./internal/query/ | tee BENCH_query.json

# E11 — ingestion: the streaming columnar loader vs the two-phase test
# loader, bare and with the first validation pass fused in, at ~10⁵ and
# ~10⁶ elements.
bench-ingest:
	go test -bench=BenchmarkIngest -benchmem -count=3 -timeout=45m -run=^$$ ./internal/pg/ | tee BENCH_ingest.json

# Quick mode of the scaling benchmark: one iteration of BenchmarkScale,
# enough to catch a benchmark that no longer compiles or trips its own
# assertions (worker counts, telemetry fields) without measuring.
bench-scale-smoke:
	go test -bench=BenchmarkScale -benchtime=1x -run=^$$ .

# The 10⁵-element parallel validation smoke on its own, race-detected.
# Also runs as part of `race` (and thus `check`) with the full suite.
scale-smoke:
	go test -race -run 'TestScaleSmokeParallel' -count=1 ./internal/validate/

# The scaling differentials explicitly under the race detector: parallel
# validation (work-stealing, element sharding, skewed violations) and
# the parallel root-scan query path must be byte-identical to their
# sequential counterparts, plus the scheduler-telemetry invariants and
# the parallel allocation budget. Subsumed by `race` but kept as its own
# gate in `check` so a scaling regression names itself.
scale-differential:
	go test -race -shuffle=on -count=1 \
		-run 'TestDifferentialLargeGraphWorkStealing|TestDifferentialSkewedViolations|TestSchedStats|TestParallelAllocBudget|TestParallelCancellationNoLeak' \
		./internal/validate/
	go test -race -shuffle=on -count=1 -run 'TestDifferentialParallelScan' ./internal/query/

# Streaming ingest smoke: validate-on-ingest over a mid-size generated
# graph plus the streamed loader vs two-phase test loader differential,
# race-detected.
# Also runs as part of `race` (and thus `check`) with the full suite.
stream-smoke:
	go test -race -run 'TestStreamValidateSmoke|TestReadCSVStreamMatchesReadCSV' -count=1 ./internal/validate/ ./internal/pg/

# The .pgsnap differential under the race detector: validation over a
# memory-mapped snapshot must be byte-identical to the heap-resident
# graph across every engine configuration and mode, the file round trip
# must reproduce the snapshot exactly (including the copy-on-write
# Apply path and the corruption table), a mapped graph's readers must
# answer as the graph it was written from (tombstones included), point
# readers and Snapshot folding a pending overlay must be race-free
# together, and a loaded graph (mapped or streamed) must keep answering
# from the snapshot it was loaded as until a write, whose first Apply
# costs no more than its second. Chunked columns: a fold over a
# multi-chunk heap or mapped base matches a rebuild, an apply's
# allocation does not grow with the graph, and in-place appends to the
# overflow arena, list table and label lists never reach a snapshot a
# reader still holds (Apply, pin, Undo, Apply again).
snapshot-differential:
	go test -race -shuffle=on -count=1 \
		-run 'TestMappedSnapshot|TestSnapshotFile|TestMappedApply|TestLoadedReaders|TestTombstoneReads|TestColdConcurrent|TestColdResidency|TestOpenSnapshot|TestChunkedFold|TestApplyCostIndependentOfSize|TestPinnedSnapshotImmutable' \
		./internal/validate/ ./internal/pg/

# A short coverage-guided run of the .pgsnap opener fuzz target: any
# byte string must open (and then survive a full read of every column)
# or error with a diagnostic — never panic, never read out of bounds.
fuzz-snapshot-smoke:
	go test -run '^$$' -fuzz FuzzOpenSnapshot -fuzztime 10s ./internal/pg/

# A short coverage-guided run of the write-ahead log replay fuzz
# target: any bytes after a valid .pglog header must replay into the
# snapshot or error with a diagnostic — never panic — and a replay must
# leave a snapshot that agrees with a full rebuild.
fuzz-wal-smoke:
	go test -run '^$$' -fuzz FuzzReplayLog -fuzztime 10s ./internal/pg/

# A short coverage-guided run of the wire-delta fuzz target: any body
# posted to /graph/apply on a small keyed tenant must answer without a
# panic or a 5xx; a rejected apply must leave the epoch and snapshot
# bytes unchanged, and after an accepted one every patched key index,
# its conflicts and the label lists must equal a fresh build's.
fuzz-apply-smoke:
	go test -run '^$$' -fuzz FuzzApplyBody -fuzztime 10s ./internal/server/

# A short coverage-guided run of the incremental-validation fuzz
# target: any body posted to /revalidate on a small CSV-loaded keyed
# tenant must answer without a panic or a 5xx, and must leave the
# tenant's graph at its epoch and snapshot (revalidation only reads).
fuzz-revalidate-smoke:
	go test -run '^$$' -fuzz FuzzRevalidateBody -fuzztime 10s ./internal/server/

# Short coverage-guided runs of the read-endpoint fuzz targets: any body
# posted to /validate or /graphql on the small keyed tenant must answer
# without a panic or a 5xx and leave the graph at its epoch and snapshot.
fuzz-validate-smoke:
	go test -run '^$$' -fuzz FuzzValidateBody -fuzztime 10s ./internal/server/

fuzz-graphql-smoke:
	go test -run '^$$' -fuzz FuzzGraphQLBody -fuzztime 10s ./internal/server/

# Short coverage-guided runs of the tenant-write fuzz targets: any body
# put to /tenants/{name} or posted to /tenants/{name}/schema must answer
# without a panic or a 5xx; a rejected one leaves the tenant's epoch,
# schema and snapshot bytes unchanged (and creates no tenant), and a
# schema swap never moves the graph.
fuzz-put-smoke:
	go test -run '^$$' -fuzz FuzzPutTenantBody -fuzztime 10s ./internal/server/

fuzz-swap-smoke:
	go test -run '^$$' -fuzz FuzzSchemaSwapBody -fuzztime 10s ./internal/server/

# E14 — durable snapshots: WriteGraphSnapshot/OpenGraphSnapshot against
# the streaming CSV loader (cold-start latency) and mapped vs heap
# first-validation cost, at ~10⁵ and ~10⁶ elements.
bench-snapshot:
	go test -bench=BenchmarkSnapshot -benchmem -count=3 -timeout=45m -run=^$$ . | tee BENCH_snapshot.json

# E15 — the served-request benchmark (servebench/, declared in
# BENCHMARK.json): every workload once at seed SEED, each run's side
# line and result line appended to .bench_build/bench-serve-$(SEED).jsonl.
# Takes a few minutes, so it stays out of `check`.
SEED ?= 1
bench-serve:
	mkdir -p .bench_build
	for w in query_serve validate_audit write_mix; do \
		bash servebench/run.sh --workload $$w --seed $(SEED) --seconds 16 --trace 0 \
			> .bench_build/bench-serve.out || exit 1; \
		tee -a .bench_build/bench-serve-$(SEED).jsonl < .bench_build/bench-serve.out; \
	done

# One iteration of the snapshot benchmark — asserts the save/open/
# validate round trip works at both sizes without measuring.
bench-snapshot-smoke:
	go test -bench=BenchmarkSnapshot -benchtime=1x -run=^$$ .

# Remove build and benchmark byproducts (compiled test binaries, CPU
# profiles); the checked-in BENCH_*.json measurement artifacts are kept.
clean:
	rm -f *.test */*.test *.prof *.out.tmp
	go clean ./...
