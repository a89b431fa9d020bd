# Convenience targets for the reproduction repo.

.PHONY: install test test-nonative lint bench bench-smoke bench-e2e-smoke bench-pq pq-smoke bench-paper bench-core bench-loadbalance loadbalance-smoke bench-pipeline pipeline-smoke bench-serving serving-smoke bench-filter filter-smoke obs-smoke examples faults-demo clean

# smoke artifacts are throwaway CI outputs — they land in .benchmarks/
# (gitignored), never at the repo root next to the tracked trajectories
SMOKE_DIR := .benchmarks

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# the HNSW / PQ python fallbacks and the python router as a system: index,
# equivalence, cluster, filtering, searcher-protocol and routing tests and
# the query-path goldens with the compiled kernels off (in `make test` only
# tests that clear one instance's handles reach them); about a minute
test-nonative:
	REPRO_HNSW_NO_NATIVE=1 REPRO_PQ_NO_NATIVE=1 python -m pytest -q tests/test_hnsw_index.py tests/test_hnsw_flat_equivalence.py tests/test_hnsw_search_rows.py tests/test_core_system.py tests/test_filtering.py tests/test_searcher_protocol.py tests/test_vptree.py tests/test_vptree_route_native.py tests/test_query_path_identity.py

lint:
	ruff check src tests benchmarks examples

# HNSW hot-path benchmark: build + search timings, recall, and the
# speedup vs the previous run recorded in BENCH_hnsw.json (perf trajectory);
# fails if build points/s or single / batched q/s fall more than a quarter
# below that run
bench:
	python benchmarks/bench_hnsw.py --max-regress 0.25

# CI-sized variant: tiny corpus at 32-d, at the paper's SIFT width and at
# GIST's (every width builds compiled), fails if recall@10 drops below the
# floor.  Each width runs twice: on the compiled kernels, then with them disabled (CC=/bin/false; fresh TMPDIR so the .so
# cache can't satisfy the load) — the pure-python fallback is a supported
# configuration, not a degraded one — and the two legs must write the same
# results_sha256: the compiled paths may change wall-clock time only.  How
# much they change it (the fallback's cost) is printed per width.
bench-smoke:
	mkdir -p $(SMOKE_DIR)
	set -e; for dim in 32 128 960; do \
		out=$(SMOKE_DIR)/BENCH_hnsw_smoke_$$dim; \
		python benchmarks/bench_hnsw.py --tiny --dim $$dim --min-recall 0.95 --out $$out.json; \
		TMPDIR=$$(mktemp -d) CC=/bin/false python benchmarks/bench_hnsw.py --tiny --dim $$dim --min-recall 0.95 --out $${out}_nonative.json; \
		python -c 'import json, sys; a, b = (json.load(open(p)) for p in sys.argv[2:]); print(f"{sys.argv[1]}-d compiled vs python: build", a["build"]["points_per_s"], "vs", b["build"]["points_per_s"], "pts/s, batched", a["search"]["batched_qps"], "vs", b["search"]["batched_qps"], "q/s"); a, b = a["results_sha256"], b["results_sha256"]; sys.exit(a != b and f"results differ between the compiled and the python leg: {a} vs {b}")' $$dim $$out.json $${out}_nonative.json; \
	done

# IVF-PQ fast-scan benchmark: ADC scan throughput vs the pre-kernel path,
# recall parity, and the batch amortization curve (trajectory recorded in
# BENCH_pq.json); fails if the scan speedup drops below 2x at equal recall
bench-pq:
	python benchmarks/bench_pq.py --min-speedup 2.0

# CI-sized variant (the PQ contract tests run in `make test`, like every
# other tier-1 file: a smoke target is the bench or demo alone)
pq-smoke:
	mkdir -p $(SMOKE_DIR)
	python benchmarks/bench_pq.py --smoke --min-speedup 1.5 --min-recall 0.25 --out $(SMOKE_DIR)/BENCH_pq_smoke.json

# replica-selector sweep under a Zipf-skewed workload; fails if the
# least_loaded makespan improvement at the headline replication factor
# drops below 1.5x (trajectory recorded in BENCH_loadbalance.json)
bench-loadbalance:
	python benchmarks/bench_loadbalance.py

# CI-sized variant
loadbalance-smoke:
	mkdir -p $(SMOKE_DIR)
	python benchmarks/bench_loadbalance.py --smoke --out $(SMOKE_DIR)/BENCH_loadbalance_smoke.json

# credit-window sweep under a Zipf-skewed workload; fails if a finite
# window stops beating eager dispatch on makespan / peak queue depth at
# the headline core count, if eager runs stop being bit-deterministic, if
# any window changes answers, or if dispatch credits leak (trajectory
# recorded in BENCH_pipeline.json)
bench-pipeline:
	python benchmarks/bench_pipeline.py

# CI-sized variant
pipeline-smoke:
	mkdir -p $(SMOKE_DIR)
	python benchmarks/bench_pipeline.py --smoke --out $(SMOKE_DIR)/BENCH_pipeline_smoke.json

# open-loop serving sweep: latency knee past the capacity point, cache
# on/off tail + makespan improvement at Zipf skew >= 1.1, and bounded-queue
# shedding; fails if serving or cache hits change answers, if the admission
# ledger stops balancing, or if either headline improvement floor is missed
# (trajectory recorded in BENCH_serving.json)
bench-serving:
	python benchmarks/bench_serving.py

# CI-sized variant
serving-smoke:
	mkdir -p $(SMOKE_DIR)
	python benchmarks/bench_serving.py --smoke --out $(SMOKE_DIR)/BENCH_serving_smoke.json

# filtered-search selectivity x strategy sweep: pre/post recall vs the
# naive post-filter baseline, the auto crossover, and the unfiltered
# bit-identity check with metadata attached; fails if filtered recall
# stops beating the naive baseline at two or more selectivity points, if
# the measured crossover contradicts CROSSOVER_SELECTIVITY, or if
# attaching metadata changes unfiltered answers (trajectory recorded in
# BENCH_filter.json)
bench-filter:
	python benchmarks/bench_filter.py

# CI-sized variant
filter-smoke:
	mkdir -p $(SMOKE_DIR)
	python benchmarks/bench_filter.py --smoke --out $(SMOKE_DIR)/BENCH_filter_smoke.json

# end-to-end observability smoke: gen -> build -> query with every obs
# artifact enabled, then validate the Chrome trace against the trace-event
# schema, the JSONL log against the versioned event schema and the metrics
# dump against the instrument vocabulary (unknown span/instant/instrument
# names fail, and so does an instrument SearchReport reads going missing)
obs-smoke:
	mkdir -p $(SMOKE_DIR)/obs
	python -m repro.cli gen SYN_1M --n-points 600 --n-queries 40 --out $(SMOKE_DIR)/obs/corpus
	python -m repro.cli build $(SMOKE_DIR)/obs/corpus/base.fvecs --out $(SMOKE_DIR)/obs/index --cores 8
	python -m repro.cli query $(SMOKE_DIR)/obs/index $(SMOKE_DIR)/obs/corpus/query.fvecs \
		--out $(SMOKE_DIR)/obs/out.ivecs --k 5 --arrival poisson:50000 \
		--trace-out $(SMOKE_DIR)/obs/trace.json \
		--events-out $(SMOKE_DIR)/obs/events.jsonl \
		--metrics-out $(SMOKE_DIR)/obs/metrics.json \
		--explain-top 2
	python -m repro.obs.validate $(SMOKE_DIR)/obs/trace.json $(SMOKE_DIR)/obs/events.jsonl \
		$(SMOKE_DIR)/obs/metrics.json

# the repo benchmark (BENCHMARK.json) at 1/8 size, one round, with its own
# answer/ledger/identity checks, plus the benchmark's tests: keeps the judge
# of every host-clock claim runnable (see benchmarks/e2e/README.md); < 60 s
bench-e2e-smoke:
	python3 benchmarks/e2e/bench.py --smoke
	python -m pytest -q benchmarks/e2e/tests

# full evaluation-section reproduction (all tables + figures + ablations)
bench-paper:
	pytest benchmarks/ --benchmark-only -s

# just the paper's tables/figures, skipping the ablation extras
bench-core:
	pytest benchmarks/test_table1_datasets.py \
	       benchmarks/test_fig3_scaling.py \
	       benchmarks/test_table2_construction.py \
	       benchmarks/test_fig4_replication.py \
	       benchmarks/test_table3_kdtree_comparison.py \
	       benchmarks/test_fig5_breakdown.py \
	       benchmarks/test_fig6_recall_vs_time.py \
	       --benchmark-only -s

# end-to-end crash + failover scenario; exits non-zero on any violated
# fault-tolerance guarantee, so CI runs it as a smoke job
faults-demo:
	python examples/faults_demo.py

examples:
	python examples/quickstart.py
	python examples/batch_recommender.py
	python examples/image_descriptor_search.py
	python examples/knn_classifier.py
	python examples/cluster_scaling_study.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
