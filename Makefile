# Convenience targets for the reproduction repo.

.PHONY: install test test-nonative lint bench bench-smoke bench-e2e-smoke bench-paper bench-core obs-smoke examples faults-demo clean

# smoke artifacts are throwaway CI outputs — they land in .benchmarks/
# (gitignored), never next to the tracked benchmarks/BENCH_hnsw.json
SMOKE_DIR := .benchmarks

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# the HNSW / PQ python fallbacks and the python router as a system: index,
# equivalence, cluster, filtering and routing tests, the search contract
# (every backend's knn_search, HnswIndex's batch, padding and filter mask)
# and the query-path goldens with the compiled kernels off (in `make test`
# only tests that clear one instance's handles reach them); about a minute
test-nonative:
	REPRO_HNSW_NO_NATIVE=1 REPRO_PQ_NO_NATIVE=1 python -m pytest -q tests/test_hnsw_index.py tests/test_hnsw_flat_equivalence.py tests/test_hnsw_search_rows.py tests/test_core_system.py tests/test_filtering.py tests/test_searcher_protocol.py tests/test_vptree.py tests/test_vptree_route_native.py tests/test_query_path_identity.py

lint:
	ruff check src tests benchmarks examples

# HNSW hot-path benchmark: build + search timings, recall, and the
# speedup vs the previous run recorded in benchmarks/BENCH_hnsw.json (the
# perf trajectory);
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
