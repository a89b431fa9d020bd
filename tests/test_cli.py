"""End-to-end tests for the command-line interface."""

import json
import os
import re
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import read_fvecs, read_ivecs


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    rc = main(
        [
            "gen",
            "SYN_1M",
            "--out",
            str(d),
            "--n-points",
            "600",
            "--n-queries",
            "20",
            "--k",
            "5",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def index_dir(corpus_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("index")
    rc = main(
        [
            "build",
            str(corpus_dir / "base.fvecs"),
            "--out",
            str(d),
            "--cores",
            "4",
            "--cores-per-node",
            "2",
            "--M",
            "8",
            "--ef-construction",
            "30",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    return d


class TestGen:
    def test_files_written(self, corpus_dir):
        X = read_fvecs(corpus_dir / "base.fvecs")
        Q = read_fvecs(corpus_dir / "query.fvecs")
        gt = read_ivecs(corpus_dir / "groundtruth.ivecs")
        assert X.shape == (600, 512)
        assert Q.shape == (20, 512)
        assert gt.shape == (20, 5)


class TestBuild:
    def test_index_artifacts(self, index_dir):
        meta = json.loads((index_dir / "meta.json").read_text())
        assert meta["n_cores"] == 4
        assert os.path.exists(index_dir / "router.npz")
        for pid in range(4):
            assert os.path.exists(index_dir / f"partition{pid}.npz")
        assert sum(meta["partition_sizes"]) == 600


class TestQuery:
    def test_query_with_recall(self, corpus_dir, index_dir, tmp_path, capsys):
        out = tmp_path / "result.ivecs"
        rc = main(
            [
                "query",
                str(index_dir),
                str(corpus_dir / "query.fvecs"),
                "--out",
                str(out),
                "--groundtruth",
                str(corpus_dir / "groundtruth.ivecs"),
                "--k",
                "5",
                "--n-probe",
                "4",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "recall@5" in printed
        recall = float(printed.rsplit("=", 1)[1])
        assert recall >= 0.9
        ids = read_ivecs(out)
        assert ids.shape == (20, 5)

    def test_windowed_query_matches_eager(self, corpus_dir, index_dir, tmp_path, capsys):
        """--dispatch-window reaches the engine and never changes answers."""
        eager = tmp_path / "eager.ivecs"
        windowed = tmp_path / "windowed.ivecs"
        base = [
            "query", str(index_dir), str(corpus_dir / "query.fvecs"),
            "--k", "5", "--n-probe", "4",
        ]
        assert main(base + ["--out", str(eager)]) == 0
        capsys.readouterr()
        assert main(base + ["--out", str(windowed), "--dispatch-window", "2"]) == 0
        printed = capsys.readouterr().out
        assert "pipeline: window 2/core" in printed
        assert "0 credits leaked" in printed
        assert np.array_equal(read_ivecs(eager), read_ivecs(windowed))

    def test_faulted_query_fails_over_and_says_so(self, corpus_dir, index_dir, tmp_path, capsys):
        """--faults FILE end to end.  Node 1 is dead from the start; the
        index puts two cores on a node, so at r = 2 a workgroup lives on one
        node and node 1's is lost: its tasks time out, fail over within the
        dead group and are abandoned — every query comes back degraded, none
        hangs, and the fault summary says all of it."""
        from repro.faults import FaultSpec, RankCrash

        spec = tmp_path / "faults.json"
        FaultSpec(crashes=(RankCrash(node=1, at=0.0),)).to_json(spec)
        clean = tmp_path / "clean.ivecs"
        faulted = tmp_path / "faulted.ivecs"
        base = [
            "query", str(index_dir), str(corpus_dir / "query.fvecs"),
            "--k", "5", "--n-probe", "4", "--replication", "2",
        ]
        assert main(base + ["--out", str(clean)]) == 0
        assert "faults:" not in capsys.readouterr().out
        assert main(base + ["--out", str(faulted), "--faults", str(spec)]) == 0
        summary = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("faults:")]
        assert len(summary) == 2
        assert "availability 0.000 (0/20 complete, 20 degraded" in summary[0]
        counts = re.match(
            r"faults: (\d+) retries, (\d+) failovers, (\d+) abandoned tasks, "
            r"(\d+) duplicates dropped, suspected dead cores \[(.*)\]",
            summary[1],
        )
        assert counts, summary[1]
        retries, failovers, abandoned, duplicates = (int(counts[i]) for i in range(1, 5))
        assert retries > 0 and failovers > 0 and abandoned >= 20 and duplicates == 0
        assert counts[5] == "2, 3"  # node 1's cores
        # what node 0's partitions answered is what they answer fault-free
        got, want = read_ivecs(faulted), read_ivecs(clean)
        assert got.shape == want.shape == (20, 5)
        assert all(set(g[g >= 0]) & set(w) for g, w in zip(got, want))

    def test_saved_index_matches_fresh_results(self, corpus_dir, index_dir, tmp_path):
        """Round-tripping the index through disk must not change answers."""
        from repro.core import DistributedANN, SystemConfig
        from repro.hnsw import HnswParams

        X = read_fvecs(corpus_dir / "base.fvecs")
        Q = read_fvecs(corpus_dir / "query.fvecs")
        fresh = DistributedANN(
            SystemConfig(
                n_cores=4, cores_per_node=2, k=5,
                hnsw=HnswParams(M=8, ef_construction=30, seed=3), n_probe=4, seed=3,
            )
        )
        fresh.fit(X)
        _, I_fresh, _ = fresh.query(Q, k=5)

        out = tmp_path / "cli.ivecs"
        main(
            [
                "query", str(index_dir), str(corpus_dir / "query.fvecs"),
                "--out", str(out), "--k", "5", "--n-probe", "4",
            ]
        )
        I_cli = read_ivecs(out).astype(np.int64)
        assert np.array_equal(I_fresh, I_cli)


class TestSavedArtifactChecks:
    """``repro query`` refuses a router or attribute file that ``repro
    build`` cannot have written, naming the bad array, and a path that
    does not exist, naming the path."""

    def test_intact_router_resaves_byte_identical(self, index_dir, tmp_path):
        from repro.cli import _load_router, _save_router

        path = tmp_path / "router.npz"
        _save_router(_load_router(str(index_dir / "router.npz")), str(path))
        assert path.read_bytes() == (index_dir / "router.npz").read_bytes()

    @pytest.mark.parametrize(
        ("case", "array"),
        [
            ("vp_flat_short", "vp_flat"),
            ("node_missing", "partitions"),
            ("leaf_out_of_range", "partitions"),
            ("leaf_twice", "partitions"),
            ("mu_nan", "mus"),
            ("mu_negative", "mus"),
            ("widths_differ", "vp_lengths"),
        ],
    )
    def test_corrupt_router_refused(self, index_dir, tmp_path, case, array):
        from repro.cli import _load_router

        with np.load(index_dir / "router.npz") as data:
            a = {name: data[name].copy() for name in data.files}
        leaves = np.flatnonzero(a["partitions"] >= 0)
        inner = np.flatnonzero(a["partitions"] < 0)
        if case == "vp_flat_short":
            a["vp_flat"] = a["vp_flat"][:-1]
        elif case == "node_missing":  # the preorder's last node, a leaf
            for name in ("partitions", "mus", "vp_lengths"):
                a[name] = a[name][:-1]
        elif case == "leaf_out_of_range":
            a["partitions"][leaves[0]] = a["n_partitions"][0]
        elif case == "leaf_twice":
            a["partitions"][leaves[1]] = a["partitions"][leaves[0]]
        elif case == "mu_nan":
            a["mus"][inner[0]] = np.nan
        elif case == "mu_negative":
            a["mus"][inner[0]] = -1.0
        else:  # one vantage point a float wider, another a float narrower
            a["vp_lengths"][inner[0]] += 1
            a["vp_lengths"][inner[1]] -= 1
        path = tmp_path / "router.npz"
        np.savez_compressed(path, **a)
        with pytest.raises(ValueError, match=f"not a saved router: bad '{array}' array"):
            _load_router(str(path))

    def test_attrs_of_another_corpus_refused(self, corpus_dir, index_dir, tmp_path, capsys):
        index = tmp_path / "index"
        shutil.copytree(index_dir, index)
        np.savez_compressed(index / "attrs.npz", tier=np.zeros(599, dtype=np.int64))
        assert main(["query", str(index), str(corpus_dir / "query.fvecs"), "--k", "5"]) == 2
        assert "not this index's attributes: bad 'tier' array" in capsys.readouterr().err

    def test_missing_paths_are_one_error_line(self, corpus_dir, tmp_path, capsys):
        """A missing index directory or base file ends in one ``error:``
        line and exit status 2, not a traceback."""
        missing = tmp_path / "missing"
        assert main(["query", str(missing), str(corpus_dir / "query.fvecs")]) == 2
        assert main(["build", str(missing / "base.fvecs"), "--out", str(tmp_path / "idx")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(ln.startswith("error: ") and str(missing) in ln for ln in err)


class TestBench:
    def test_bench_runs(self, capsys):
        rc = main(
            [
                "bench", "--dataset", "SYN_1M", "--cores", "8", "16",
                "--n-points", "512", "--n-queries", "50",
            ]
        )
        assert rc == 0
        outp = capsys.readouterr().out
        assert "speedup" in outp

    def test_bench_skewed_with_selector(self, capsys):
        rc = main(
            [
                "bench", "--dataset", "SYN_1M", "--cores", "8",
                "--n-points", "512", "--n-queries", "50",
                "--replication", "2", "--replica-selector", "least_loaded",
                "--skew", "1.2",
            ]
        )
        assert rc == 0
        outp = capsys.readouterr().out
        assert "imbalance" in outp


class TestConfigDerivedFlags:
    """SystemConfig field metadata is the single source of truth for
    config-backed CLI knobs: every tagged field round-trips through the
    derived argparse flags on each subcommand it declares."""

    def _tagged_fields(self):
        import dataclasses

        from repro.core import SystemConfig

        return [
            (f, f.metadata["cli"])
            for f in dataclasses.fields(SystemConfig)
            if f.metadata.get("cli") is not None
        ]

    def test_loadbalance_knobs_are_tagged(self):
        names = {f.name for f, _ in self._tagged_fields()}
        assert {
            "batch_size",
            "replication_factor",
            "replica_selector",
            "skew",
            "dispatch_window",
        } <= names

    def test_every_tagged_flag_appears_in_help(self):
        """Audit against CLI drift: each tagged field's flag must show up
        in the --help text of every subcommand it declares."""
        from repro.cli import build_parser

        parser = build_parser()
        # the subparsers action is the only one with a choices dict
        sub = next(a for a in parser._actions if a.choices)
        for f, meta in self._tagged_fields():
            for command in meta["commands"]:
                help_text = sub.choices[command].format_help()
                assert meta["flag"] in help_text, (
                    f"{meta['flag']} (SystemConfig.{f.name}) missing from "
                    f"`repro {command} --help`"
                )

    def test_every_tagged_field_round_trips(self):
        import argparse

        from repro.cli import add_config_flags

        fields = self._tagged_fields()
        assert fields, "no CLI-tagged SystemConfig fields found"
        commands = {c for _, meta in fields for c in meta["commands"]}
        for command in sorted(commands):
            parser = argparse.ArgumentParser()
            add_config_flags(parser, command)
            on_this = [(f, m) for f, m in fields if command in m["commands"]]

            # defaults come from the dataclass
            args = parser.parse_args([])
            for f, _ in on_this:
                assert getattr(args, f.name) == f.default

            # explicit values parse back to the right dest and type
            argv, want = [], {}
            for f, meta in on_this:
                if meta["choices"] is not None:
                    value = [c for c in meta["choices"] if c != f.default][0]
                elif isinstance(f.default, bool):
                    continue
                elif f.default is None and meta["type"] is int:
                    # int-typed optional flags (e.g. --tenant) default to
                    # None; any integer literal exercises the parse
                    value = 7
                elif isinstance(f.default, float):
                    value = f.default + 0.5
                elif isinstance(f.default, int):
                    value = f.default + 1
                else:
                    value = "x"
                argv += [meta["flag"], str(value)]
                want[f.name] = value
            args = parser.parse_args(argv)
            for name, value in want.items():
                assert getattr(args, name) == value

    def test_unknown_choice_rejected(self):
        import argparse

        import pytest as _pytest

        from repro.cli import add_config_flags

        parser = argparse.ArgumentParser()
        add_config_flags(parser, "query")
        with _pytest.raises(SystemExit):
            parser.parse_args(["--replica-selector", "psychic"])
