"""Tests of save / load / sload and the ProblemStore."""

from __future__ import annotations

import pytest

from repro.errors import SerializationError
from repro.pricing import PricingProblem
from repro.serial import ProblemStore, Serial, load, save, sload


def _make_problem(strike: float) -> PricingProblem:
    problem = PricingProblem(label=f"call_{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


class TestSaveLoadSload:
    def test_save_load_roundtrip(self, tmp_path, simple_problem):
        path = tmp_path / "fic"
        nbytes = save(path, simple_problem)
        assert nbytes == path.stat().st_size
        assert load(path) == simple_problem

    def test_sload_returns_serial_without_building(self, tmp_path, simple_problem):
        """The paper's Fig. 2: sload goes straight from file to Serial."""
        path = tmp_path / "fic"
        save(path, simple_problem)
        serial = sload(path)
        assert isinstance(serial, Serial)
        assert serial.unserialize() == simple_problem

    def test_sload_equals_paper_workflow(self, tmp_path):
        """H1 = sload(f).unserialize() equals load(f) (the Fig. 2 session)."""
        path = tmp_path / "saved.bin"
        value = {"A": [[1.0, 2.0], [3.0, 4.0]], "B": [0.5]}
        save(path, value)
        assert sload(path).unserialize() == load(path)

    def test_compressed_save(self, tmp_path):
        value = {"data": list(range(2000))}
        raw_size = save(tmp_path / "raw", value, compress=False)
        compressed_size = save(tmp_path / "compressed", value, compress=True)
        assert compressed_size < raw_size
        assert load(tmp_path / "compressed") == value
        # sload keeps the compressed payload as-is (decompression happens on
        # the worker, as the paper suggests for off-line prepared problems)
        assert sload(tmp_path / "compressed").is_compressed

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            sload(tmp_path / "does_not_exist")

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "corrupted"
        path.write_bytes(b"not a serial at all")
        with pytest.raises(SerializationError):
            load(path)

    def test_save_creates_directories(self, tmp_path, simple_problem):
        path = tmp_path / "deep" / "nested" / "fic"
        save(path, simple_problem)
        assert path.exists()


class TestProblemStore:
    def test_write_and_read_back(self, tmp_path):
        store = ProblemStore(tmp_path / "portfolio")
        problems = [_make_problem(k) for k in (90.0, 100.0, 110.0)]
        paths = store.write_all(problems)
        assert len(paths) == 3
        assert len(store) == 3
        assert store.load(1) == problems[1]
        assert store.sload(2).unserialize() == problems[2]

    def test_paths_ordered_by_index(self, tmp_path):
        store = ProblemStore(tmp_path / "portfolio")
        store.write_all([_make_problem(k) for k in (90.0, 100.0, 110.0)])
        names = [path.name for path in store.paths()]
        assert names == sorted(names)
        assert names[0].startswith("problem_")

    def test_total_bytes_and_clear(self, tmp_path):
        store = ProblemStore(tmp_path / "portfolio")
        store.write_all([_make_problem(100.0)])
        assert store.total_bytes() > 0
        store.clear()
        assert len(store) == 0
        assert store.total_bytes() == 0

    def test_custom_prefix(self, tmp_path):
        store = ProblemStore(tmp_path / "portfolio", prefix="toy_")
        path = store.write(7, _make_problem(100.0))
        assert path.name == "toy_000007.pb"
        assert store.path_for(7) == path

    def test_iteration(self, tmp_path):
        store = ProblemStore(tmp_path / "portfolio")
        store.write_all([_make_problem(k) for k in (90.0, 95.0)])
        assert len(list(iter(store))) == 2

    def test_compressed_store(self, tmp_path):
        plain = ProblemStore(tmp_path / "plain")
        packed = ProblemStore(tmp_path / "packed")
        problems = [_make_problem(k) for k in (90.0, 100.0, 110.0)]
        plain.write_all(problems, compress=False)
        packed.write_all(problems, compress=True)
        assert packed.total_bytes() < plain.total_bytes()
        assert [packed.load(index) for index in range(3)] == problems
