GO ?= go
BENCH_OUT ?= BENCH_PR10.json
# COVER_MIN is the floor for `make cover` over the pruning-critical and
# write-path packages (expr, parquetlite, ocsserver, ingest, metastore).
# Measured combined coverage is ~81%; the floor leaves headroom for small
# refactors but fails the gate if tests are deleted wholesale.
COVER_MIN ?= 80.0

.PHONY: build test bench bench-compare bench-gate bench-paper faults faults-ingest check vet-vectorized \
	vet-telemetry vet-pruning vet-cache vet-concurrency vet-adaptive vet-join vet-ingest ci-fast ci-race ci cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the kernel/operator microbenchmarks (vectorized expression
# kernels, filter selectivity sweep, hash aggregation, sort/top-N), the
# zone-map pruning selectivity sweep (pruned vs unpruned storage scans),
# the hot-page cache comparison (cold per-iteration decode vs a warmed
# footer+page cache), the tracing-overhead comparison (telemetry disabled
# vs enabled must stay within 3%) and the mixed-traffic latency profile
# (small-query p50/p99 while heavy scans run), plus the adaptive-pushdown
# selectivity × storage-load sweep (static always/never vs the adaptive
# policy at both extremes) and the join bloom-pushdown sweep (Q3-shaped
# lineitem ⋈ orders with the probe-side bloom on vs off; the on arm must
# move fewer storage rows), and the ingest-throughput sweep (rows/s and
# time-to-queryable through Append+Flush, compaction off vs on), and
# archives the numbers as $(BENCH_OUT); the human-readable table still
# prints on stderr. The end-to-end paper sweeps live under bench-paper.
bench:
	{ $(GO) test -bench=. -benchmem -run '^$$' ./internal/exec/ ; \
	  $(GO) test -bench='PruneSweep|HotCache' -benchmem -run '^$$' ./internal/ocsserver/ ; \
	  $(GO) test -bench='TracingOverhead|MixedTraffic|AdaptiveSweep|JoinBloomSweep|IngestThroughput' -benchmem -run '^$$' ./internal/harness/ ; } \
		| $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# bench-compare diffs two benchjson archives and fails on >20% ns/op
# regressions: make bench-compare OLD=BENCH_PR5.json NEW=BENCH_PR6.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(OLD) $(NEW)

# bench-gate reruns the mixed-traffic latency benchmark and diffs its
# small-query p50/p99 against the numbers archived in BENCH_PR9.json:
# per-query table resolution (a direct snapshot-pinned metastore read)
# and the per-split adaptive machinery both sit on the interactive path,
# so this is the guard that they do not tax interactive latency under
# load. The threshold is generous (shared CI runners are noisy); the
# trend, not the percent, is the signal.
bench-gate:
	$(GO) test -bench='MixedTraffic' -benchmem -run '^$$' ./internal/harness/ \
		| $(GO) run ./cmd/benchjson > /tmp/bench-gate.json
	$(GO) run ./cmd/benchjson -compare -metrics 'small-p50-ms,small-p99-ms' -threshold 60 \
		BENCH_PR9.json /tmp/bench-gate.json

# bench-paper regenerates the paper-evaluation benchmarks (full in-process
# topology per iteration; slow).
bench-paper:
	$(GO) test -bench=. -benchmem ./...

# faults runs the failure-injection matrix twice under the race detector:
# killed connections, black-holed links, dead compute units, cancelled
# and deadline-bounded queries, cache-invalidation races, the
# mixed-traffic load scenarios (starvation, slow readers, killed clients
# mid-stream), and the write-path scenarios (killed ingest, compaction
# racing queries, snapshot-pinned scans) (DESIGN.md §5b, §7, §10).
faults:
	$(GO) test -race -count=2 -run 'Fault|Kill|Cancel|Retry|Fallback|Deadline|Blackhole|ComputeUnit|CacheInvalidation|Starvation|SlowClient|Backpressure|Overloaded|Flip|Ingest|Compact|Snapshot' \
		./internal/rpc/... ./internal/retry/... ./internal/faultnet/... \
		./internal/ocsserver/... ./internal/harness/... ./internal/engine/... \
		./internal/ingest/... ./internal/metastore/...

# faults-ingest is the CI ingest lane: only the write-path scenarios —
# streaming ingestion (killed connections, dropped batches), background
# compaction (mid-run kills, GC-vs-pin races) and snapshot consistency —
# twice under the race detector.
faults-ingest:
	$(GO) test -race -count=2 -run 'Ingest|Compact|Snapshot' \
		./internal/ingest/... ./internal/metastore/... ./internal/harness/...

# vet-vectorized guards the vectorized hot path: per-row expression
# evaluation (expr.EvalRow) must not reappear in the operator library or
# the storage executor — the only legitimate per-row evaluation is the
# fallback inside internal/expr itself.
vet-vectorized:
	@bad=$$(grep -n 'EvalRow' internal/exec/*.go internal/ocsserver/*.go internal/objstore/*.go 2>/dev/null | grep -v '_test.go'); \
	if [ -n "$$bad" ]; then \
		echo "per-row expr.EvalRow crept back into the exec hot path:"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-vectorized: exec hot path is EvalRow-free"

# vet-telemetry keeps the metric-name manifest honest: every Metric* const
# declared in internal/telemetry/names.go must have a registration site in
# non-test code outside that package. Instrumentation cannot be deleted —
# and dead names cannot accumulate — without this gate noticing.
vet-telemetry:
	@missing=""; \
	for name in $$(grep -oE 'Metric[A-Za-z0-9]+' internal/telemetry/names.go | sort -u); do \
		if ! grep -rqE "telemetry\.$$name\b" --include='*.go' --exclude='*_test.go' --exclude-dir=telemetry internal cmd; then \
			missing="$$missing $$name"; \
		fi; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "vet-telemetry: metric names with no registration site outside internal/telemetry:$$missing"; \
		exit 1; \
	fi
	@echo "vet-telemetry: every manifest metric has a registration site"

# vet-pruning guards the zone-map invariant: scan paths in the storage
# executor and the OCS connector must decode only row groups that
# survived statistics pruning. Any ReadAll/ReadRowGroup call site in
# those packages needs an explicit `// vet-pruning:allow <reason>`
# annotation, reserved for paths that genuinely cannot prune (the raw
# no-pushdown scan and the post-prune keep-list iterations).
vet-pruning:
	@bad=$$(grep -n 'ReadAll(\|ReadRowGroup(' internal/ocsserver/*.go internal/connector/ocs/*.go 2>/dev/null \
		| grep -v '_test.go' | grep -v 'vet-pruning:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-pruning: full row-group decode without a prune justification"; \
		echo "(annotate // vet-pruning:allow <reason> only for paths that cannot prune):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-pruning: storage scan paths decode only post-prune row groups"

# vet-cache guards the storage-node caching tier: per-query scan paths
# must decode footers through the footer cache, not straight through the
# footer decoder. Direct parquetlite.NewReader footer decodes in the
# storage executor or the OCS connector need an explicit
# `// vet-cache:allow <reason>` annotation, reserved for paths that
# genuinely must bypass the cache (the engine-side raw fallback scan,
# cold utility paths). Table metadata has no cache to route through: the
# connectors resolve tables from the in-process metastore directly.
vet-cache:
	@bad=$$(grep -n 'parquetlite\.NewReader(' internal/ocsserver/*.go internal/connector/ocs/*.go 2>/dev/null \
		| grep -v '_test.go' | grep -v 'vet-cache:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-cache: direct footer decode on a per-query path (route through cache.FooterCache.Open"; \
		echo "or annotate // vet-cache:allow <reason>):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-cache: per-query footer lookups go through the footer cache"

# vet-concurrency guards the shared-scheduler invariant (DESIGN.md §7):
# storage-node scan work must flow through the node-wide fair scheduler.
# Constructing a scheduler (the old per-query worker-pool shape) anywhere
# in internal/ocsserver needs an explicit `// vet-concurrency:allow
# <reason>` annotation, reserved for the node-wide instance and the
# in-process entry point; and the scanner itself must stay free of ad-hoc
# goroutines — its parallelism budget belongs to the scheduler.
vet-concurrency:
	@bad=$$(grep -n 'newScanScheduler(' internal/ocsserver/*.go 2>/dev/null \
		| grep -v '_test.go' | grep -v 'scheduler.go' | grep -v 'vet-concurrency:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-concurrency: per-query scheduler construction in ocsserver (share the"; \
		echo "node-wide scheduler or annotate // vet-concurrency:allow <reason>):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@bad=$$(grep -n 'go func' internal/ocsserver/scanner.go 2>/dev/null); \
	if [ -n "$$bad" ]; then \
		echo "vet-concurrency: ad-hoc goroutine in the scanner; submit scanTasks to the"; \
		echo "shared scheduler instead:"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-concurrency: scan work flows through the shared node-wide scheduler"

# vet-adaptive guards the single-decision-point invariant (DESIGN.md §8):
# every pushdown-vs-raw choice — static mode, plan-time advice, per-split
# adaptive pricing, mid-stream flips — is made by the policy module. A
# SplitDecision constructed anywhere else in the OCS connector, or a
# revival of the old Monitor.AdvisePushdown entry point, is a second
# decision path and fails the gate. `// vet-adaptive:allow <reason>`
# annotates the rare legitimate exception.
vet-adaptive:
	@bad=$$(grep -n 'SplitDecision{' internal/connector/ocs/*.go 2>/dev/null \
		| grep -v '_test.go' | grep -v 'policy.go' | grep -v 'vet-adaptive:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-adaptive: pushdown decision constructed outside the policy module"; \
		echo "(route through ocs.Policy or annotate // vet-adaptive:allow <reason>):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@bad=$$(grep -rn '\.AdvisePushdown(' --include='*.go' --exclude='*_test.go' internal cmd 2>/dev/null \
		| grep -v 'vet-adaptive:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-adaptive: Monitor.AdvisePushdown is retired; plan-time advice comes from"; \
		echo "Policy.AdvisePlanPushdown (or annotate // vet-adaptive:allow <reason>):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-adaptive: all pushdown decisions flow through the policy module"

# vet-join guards the vectorized join hot path: the hash-join probe, the
# engine-side bloom probe and the bloom membership kernels must stay
# columnar — gather-list construction and vector batch tests, never a
# per-row Value/Row accessor loop. A call site that genuinely needs a
# scalar accessor takes an explicit `// vet-join:allow <reason>`.
vet-join:
	@bad=$$(grep -n '\.Row(\|\.Value(' internal/exec/join.go internal/exec/bloomprobe.go internal/bloom/*.go 2>/dev/null \
		| grep -v '_test.go' | grep -v 'vet-join:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-join: per-row accessor loop in the join/bloom hot path"; \
		echo "(build gather lists over vectors or annotate // vet-join:allow <reason>):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-join: join probe and bloom kernels are columnar"

# vet-ingest guards the single-writer invariant (DESIGN.md §10): catalog
# entries are assembled only by the ingest package, so every registered
# table carries fresh per-object zone maps and per-object sizes. A
# metastore.Table literal anywhere else in non-test code is an unversioned
# registration path and fails the gate. `// vet-ingest:allow <reason>`
# annotates the rare legitimate exception.
vet-ingest:
	@bad=$$(grep -rn 'metastore\.Table{' --include='*.go' --exclude='*_test.go' \
		internal cmd 2>/dev/null \
		| grep -v '^internal/ingest/' | grep -v '^internal/metastore/' | grep -v 'vet-ingest:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-ingest: metastore.Table assembled outside the ingest package (route through"; \
		echo "ingest.AssembleTable/RegisterTable or annotate // vet-ingest:allow <reason>):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-ingest: all catalog registrations flow through the ingest package"

# check is the verification gate: vet (plus the vectorized hot-path,
# telemetry-manifest, pruning, footer-cache, shared-scheduler,
# adaptive-decision, join hot-path and ingest single-writer guards) and the full suite under
# the race detector (the streaming RPC and parallel scanner are
# concurrency-heavy), then the fault-injection matrix.
check:
	$(GO) vet ./...
	$(MAKE) vet-vectorized
	$(MAKE) vet-telemetry
	$(MAKE) vet-pruning
	$(MAKE) vet-cache
	$(MAKE) vet-concurrency
	$(MAKE) vet-adaptive
	$(MAKE) vet-join
	$(MAKE) vet-ingest
	$(GO) test -race ./...
	$(MAKE) faults

# ci-fast is the quick CI lane: formatting, compilation and every static
# gate — everything that fails in seconds. The GitHub workflow calls this
# exact target so CI and local runs cannot drift. perfbench is its own
# module, so `go build ./...` never compiles it; vetting it here catches
# an API change that breaks the benchmark.
ci-fast:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	@echo "gofmt: clean"
	$(GO) build ./...
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	$(MAKE) vet-vectorized
	$(MAKE) vet-telemetry
	$(MAKE) vet-pruning
	$(MAKE) vet-cache
	$(MAKE) vet-concurrency
	$(MAKE) vet-adaptive
	$(MAKE) vet-join
	$(MAKE) vet-ingest

# ci-race is the CI race lane: the full suite under the race detector.
ci-race:
	$(GO) test -race ./...

# ci mirrors the GitHub workflow end to end: fast gates, race suite,
# fault-injection matrix.
ci: ci-fast ci-race faults

# cover enforces a combined statement-coverage floor over the packages
# that implement statistics pruning and the write path; see COVER_MIN
# above.
cover:
	$(GO) test -coverprofile=cover.out ./internal/expr/ ./internal/parquetlite/ ./internal/ocsserver/ ./internal/ingest/ ./internal/metastore/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	echo "combined coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) }' || { \
		echo "cover: $$total% is below the $(COVER_MIN)% floor"; exit 1; }
