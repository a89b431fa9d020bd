"""Snapshot test for the consolidated public API surface.

``repro.__all__`` is the supported surface; this test pins it so additions
and removals are deliberate, reviewed changes (update EXPECTED here *and*
``src/repro/__init__.py`` together).
"""

import inspect

import repro

EXPECTED = [
    "BuildReport",
    "ClusterRuntime",
    "DistributedANN",
    "FaultSpec",
    "FilterSpec",
    "HnswIndex",
    "HnswParams",
    "KDTree",
    "MetadataStore",
    "MetricsRegistry",
    "PartitionRouter",
    "ReplicaSelector",
    "SearchReport",
    "SystemConfig",
    "TraceRecorder",
    "VPTree",
    "Workgroups",
    "__version__",
]


class TestPublicApi:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == sorted(EXPECTED)

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_every_name_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_classes_have_docstrings(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj):
                assert obj.__doc__, f"{name} has no docstring"

    def test_version_is_string(self):
        assert isinstance(repro.__version__, str)
        assert len(repro.__version__.split(".")) == 3
