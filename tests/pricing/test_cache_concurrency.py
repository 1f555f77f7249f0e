"""Shared-cache races: two processes in one cache directory, corrupt entries.

The serve daemon shares one :class:`ResultCache` between HTTP handler
threads, and two sessions or daemons may open one cache directory from two
processes -- so get/put on overlapping digests must never corrupt an entry,
and a half-written or garbage file on disk must read as a miss (counted in
``CacheStats.corrupt``), not as an exception.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import threading

import pytest

from repro.pricing import PricingProblem, ResultCache, problem_digest
from repro.pricing.methods.base import PricingResult

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

N_PROBLEMS = 8
ROUNDS = 40


def _problem(strike: float) -> PricingProblem:
    problem = PricingProblem(label=f"race_K{strike}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


def _digest_price_pairs() -> list[tuple[str, float]]:
    """The shared work-list: digest plus the exact price every writer stores."""
    pairs = []
    for index in range(N_PROBLEMS):
        problem = _problem(90.0 + index)
        pairs.append((problem_digest(problem), problem.compute().price))
    return pairs


def _race_worker(cache_dir: str, offset: int, queue: "mp.Queue") -> None:
    """One process hammering get/put over the shared digests.

    Starts at a different ``offset`` so the two processes interleave reads
    and writes on the same files in a different order.
    """
    cache = ResultCache(max_entries=4, directory=cache_dir)  # tiny LRU: force disk
    pairs = _digest_price_pairs()
    observed: dict[str, set[float]] = {digest: set() for digest, _ in pairs}
    for round_no in range(ROUNDS):
        for step in range(len(pairs)):
            digest, price = pairs[(step + offset) % len(pairs)]
            entry = cache.get(digest)
            if entry is None:
                cache.put(
                    digest,
                    PricingResult(
                        price=price,
                        std_error=None,
                        confidence_interval=None,
                        method_name="CF_Call",
                        n_evaluations=1,
                    ),
                )
            else:
                observed[digest].add(entry.price)
    stats = cache.stats
    queue.put(
        {
            "observed": {digest: sorted(prices) for digest, prices in observed.items()},
            "hits": stats.hits,
            "misses": stats.misses,
            "lookups": stats.lookups,
            "corrupt": stats.corrupt,
        }
    )


class TestCrossProcessRace:
    @pytest.mark.slow
    def test_two_processes_share_one_cache_dir(self, tmp_path):
        """Overlapping get/put from two processes: no corruption, sane stats."""
        expected = dict(_digest_price_pairs())
        ctx = mp.get_context("spawn")
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_race_worker, args=(str(tmp_path), offset, queue))
            for offset in (0, N_PROBLEMS // 2)
        ]
        for proc in procs:
            proc.start()
        reports = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0

        for report in reports:
            # every price ever read back is the one true price for its digest
            for digest, prices in report["observed"].items():
                assert prices in ([], [expected[digest]])
            # hit accounting is exact per process, and nothing read as corrupt
            assert report["hits"] + report["misses"] == report["lookups"]
            assert report["lookups"] == ROUNDS * N_PROBLEMS
            assert report["corrupt"] == 0
        # with both processes done, the directory holds exactly the work-list
        # entries, each a complete JSON document with the right price
        for digest, price in expected.items():
            entry = json.loads((tmp_path / f"{digest}.json").read_text())
            assert entry["price"] == price
        assert not list(tmp_path.glob("*.tmp"))

    def test_threaded_race_on_one_instance(self, tmp_path):
        """Many threads on one ResultCache: entries stay intact, stats add up."""
        cache = ResultCache(max_entries=4, directory=tmp_path)
        pairs = _digest_price_pairs()
        errors: list[BaseException] = []

        def hammer(offset: int) -> None:
            try:
                for round_no in range(ROUNDS):
                    for step in range(len(pairs)):
                        digest, price = pairs[(step + offset) % len(pairs)]
                        entry = cache.get(digest)
                        if entry is None:
                            cache.put(
                                digest,
                                PricingResult(
                                    price=price,
                                    std_error=None,
                                    confidence_interval=None,
                                    method_name="CF_Call",
                                    n_evaluations=1,
                                ),
                            )
                        else:
                            assert entry.price == price
            except BaseException as exc:  # noqa: BLE001 - surface to main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(offset,)) for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert cache.stats.hits + cache.stats.misses == 4 * ROUNDS * N_PROBLEMS
        assert cache.stats.corrupt == 0


class TestCorruptEntries:
    def _cache_with_entry(self, tmp_path):
        cache = ResultCache(max_entries=8, directory=tmp_path)
        problem = _problem(100.0)
        digest = problem_digest(problem)
        cache.put(digest, problem.compute())
        return cache, digest, tmp_path / f"{digest}.json"

    @pytest.mark.parametrize(
        "garbage",
        [b"", b"{\"price\": 1.0", b"not json at all", b"[1, 2, 3]", b"{\"no\": 1}",
         b"{\"price\": NaN}", b"{\"price\": Infinity}", b"{\"price\": \"cheap\"}",
         b"{\"price\": 1.0, \"n_evaluations\": \"many\"}"],
        ids=["empty", "truncated", "garbage", "non-object", "priceless",
             "nan-price", "inf-price", "text-price", "bad-field"],
    )
    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, garbage):
        cache, digest, path = self._cache_with_entry(tmp_path)
        cache.clear()  # drop the in-memory copy; keep the disk file
        path.write_bytes(garbage)

        fresh = ResultCache(max_entries=8, directory=tmp_path)
        assert fresh.get(digest) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        assert not path.exists()  # deleted so the next put rewrites cleanly

        # the cache still works: a clean put/get cycle follows the cleanup
        problem = _problem(100.0)
        fresh.put(digest, problem.compute())
        fresh.clear()
        assert fresh.get(digest) is not None
        assert json.loads(path.read_text())["price"] == pytest.approx(
            problem.compute().price
        )

    def test_corrupt_entry_counted_once_per_read(self, tmp_path):
        cache, digest, path = self._cache_with_entry(tmp_path)
        cache.clear()
        path.write_text("{broken")
        fresh = ResultCache(max_entries=8, directory=tmp_path)
        assert fresh.get(digest) is None
        assert fresh.get(digest) is None  # file already unlinked: plain miss
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 2
