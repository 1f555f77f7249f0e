"""Tests of the named backend registry in ``repro.cluster.backends``."""

from __future__ import annotations

import pytest

from repro.cluster.backends import (
    MultiprocessingBackend,
    SequentialBackend,
    WorkerBackend,
    create_backend,
    list_backends,
    register_backend,
)
from repro.cluster.simcluster import SimulatedClusterBackend
from repro.errors import ClusterError


class TestRegistryContents:
    def test_builtin_backends_registered(self):
        names = list_backends()
        assert {"local", "multiprocessing", "remote", "simulated"} <= set(names)

    def test_names_are_sorted(self):
        assert list_backends() == sorted(list_backends())


class TestCreateBackend:
    def test_local(self):
        backend = create_backend("local", n_workers=2)
        assert isinstance(backend, SequentialBackend)
        assert backend.n_workers == 2

    def test_the_sequential_alias_is_gone(self):
        assert "sequential" not in list_backends()
        with pytest.raises(ClusterError, match="unknown backend 'sequential'"):
            create_backend("sequential")

    def test_multiprocessing(self):
        backend = create_backend("multiprocessing", n_workers=2)
        try:
            assert isinstance(backend, MultiprocessingBackend)
            assert backend.n_workers == 2
        finally:
            backend.finalize()

    def test_simulated_gets_strategy_and_size(self):
        backend = create_backend("simulated", n_workers=3, strategy="nfs")
        assert isinstance(backend, SimulatedClusterBackend)
        assert backend.n_workers == 3
        assert backend.strategy == "nfs"

    def test_simulated_extra_options(self):
        from repro.cluster.simcluster import CommunicationModel

        comm = CommunicationModel()
        backend = create_backend("simulated", n_workers=1, comm=comm)
        assert backend.cluster.n_workers == 1 and backend.comm is comm

    def test_unknown_name_lists_known_backends(self):
        with pytest.raises(ClusterError, match="local"):
            create_backend("no_such_backend")

    def test_each_call_builds_a_fresh_backend(self):
        first = create_backend("local")
        second = create_backend("local")
        assert first is not second


class TestRegisterBackend:
    def test_decorator_registration_roundtrip(self):
        from repro.cluster.backends import _BACKEND_REGISTRY

        @register_backend("test_only_backend")
        def make(n_workers=1, strategy="serialized_load", **options):
            return SequentialBackend(n_workers=n_workers)

        try:
            assert "test_only_backend" in list_backends()
            backend = create_backend("test_only_backend", n_workers=4)
            assert isinstance(backend, WorkerBackend)
            assert backend.n_workers == 4
        finally:
            _BACKEND_REGISTRY.pop("test_only_backend", None)

    def test_empty_name_rejected(self):
        with pytest.raises(ClusterError):
            register_backend("", lambda **kw: SequentialBackend())
