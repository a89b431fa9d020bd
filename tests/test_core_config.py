"""Unit tests for SystemConfig validation and derived topology."""

import pytest

from repro.core import SystemConfig
from repro.simmpi.errors import SimConfigError


class TestValidation:
    def test_defaults_valid(self):
        cfg = SystemConfig()
        assert cfg.n_cores == 8 and cfg.n_nodes == 2

    def test_bad_core_counts(self):
        with pytest.raises(SimConfigError):
            SystemConfig(n_cores=0)
        with pytest.raises(SimConfigError):
            SystemConfig(cores_per_node=0)

    def test_bad_k(self):
        with pytest.raises(SimConfigError):
            SystemConfig(k=0)

    def test_bad_routing_and_owner(self):
        with pytest.raises(SimConfigError):
            SystemConfig(routing="magic")
        with pytest.raises(SimConfigError):
            SystemConfig(owner_strategy="nobody")
        with pytest.raises(SimConfigError):
            SystemConfig(searcher="psychic")

    def test_replication_bounds(self):
        with pytest.raises(SimConfigError):
            SystemConfig(n_cores=4, replication_factor=5)
        with pytest.raises(SimConfigError):
            SystemConfig(replication_factor=0)
        SystemConfig(n_cores=4, replication_factor=4)  # boundary ok

    def test_adaptive_requires_two_sided(self):
        with pytest.raises(SimConfigError, match="two-sided"):
            SystemConfig(routing="adaptive", one_sided=True)
        SystemConfig(routing="adaptive", one_sided=False)

    def test_n_probe_positive(self):
        with pytest.raises(SimConfigError):
            SystemConfig(n_probe=0)

    def test_replica_selector_validated(self):
        with pytest.raises(SimConfigError, match="replica_selector"):
            SystemConfig(replica_selector="fastest")
        for name in ("primary", "round_robin", "least_loaded", "power_of_two_choices"):
            SystemConfig(replica_selector=name)

    def test_selector_needs_master_dispatch(self):
        with pytest.raises(SimConfigError, match="master"):
            SystemConfig(replica_selector="least_loaded", owner_strategy="multiple")
        SystemConfig(replica_selector="primary", owner_strategy="multiple")

    def test_skew_non_negative(self):
        with pytest.raises(SimConfigError, match="skew"):
            SystemConfig(skew=-0.5)
        SystemConfig(skew=1.2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("modeled_partition_points", 0),  # ran and answered
            ("modeled_partition_points", -5),  # failed at query time
            ("modeled_sample_points", 0),  # answered -1 everywhere
            ("modeled_sample_points", -1),  # failed inside the build
            ("modeled_search_seconds", float("nan")),  # a wrong makespan
            ("modeled_search_seconds", -1.0),  # failed at query time
            ("modeled_search_seconds", float("inf")),  # an infinite makespan
        ],
    )
    def test_modeled_fields_validated(self, field, value):
        with pytest.raises(SimConfigError, match=field):
            SystemConfig(searcher="modeled", **{field: value})

    def test_modeled_fields_accept_their_range(self):
        SystemConfig(
            searcher="modeled",
            modeled_partition_points=1,
            modeled_sample_points=1,
            modeled_search_seconds=0.0,
        )
        SystemConfig(searcher="modeled", modeled_search_seconds=2e-3)


class TestDerived:
    def test_node_mapping(self):
        cfg = SystemConfig(n_cores=48, cores_per_node=24)
        assert cfg.n_nodes == 2
        assert cfg.node_of_core(0) == 0 and cfg.node_of_core(47) == 1
        with pytest.raises(SimConfigError):
            cfg.node_of_core(48)

    def test_partial_node(self):
        cfg = SystemConfig(n_cores=30, cores_per_node=24)
        assert cfg.n_nodes == 2

    def test_threads_per_node_capped_by_cores(self):
        cfg = SystemConfig(n_cores=2, cores_per_node=24)
        assert cfg.threads_per_node == 2

    def test_effective_ef_search_override(self):
        cfg = SystemConfig(ef_search=123)
        assert cfg.effective_ef_search == 123
        cfg2 = SystemConfig()
        assert cfg2.effective_ef_search == cfg2.hnsw.ef_search
