"""Premia's non-regression check: run the suite, diff against a reference.

"The Premia development team ... uses a bunch of non-regression tests to make
sure that a change in the source code does not alter the behaviour of any
algorithm."  :class:`RegressionSuite` prices every problem of
:func:`~repro.core.regression.generate_regression_problems` and compares the
prices against a stored reference file -- the committed one is
``tests/data/regression_fast.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.regression import generate_regression_problems

__all__ = ["RegressionMismatch", "RegressionSuite"]


@dataclass
class RegressionMismatch:
    """One regression failure: the price moved beyond the tolerance."""

    label: str
    reference: float
    computed: float
    relative_error: float


class RegressionSuite:
    """Run the (fast-profile) regression problems and diff against a reference.

    The reference file is JSON mapping problem labels to prices; it plays the
    role of the expected outputs of Premia's daily non-regression runs.
    """

    def __init__(self, profile: str = "fast"):
        self.profile = profile
        self.problems = [problem for problem, _ in generate_regression_problems(profile)]

    def __len__(self) -> int:
        return len(self.problems)

    def run(self) -> dict[str, float]:
        """Execute every problem and return ``label -> price``."""
        prices: dict[str, float] = {}
        for problem in self.problems:
            result = problem.compute()
            prices[problem.label] = float(result.price)
        return prices

    def generate_reference(self, path: str | Path) -> dict[str, float]:
        """Run the suite and store the prices as the new reference."""
        prices = self.run()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(prices, indent=2, sort_keys=True))
        return prices

    def check_against_reference(
        self, path: str | Path, rtol: float = 1e-9, atol: float = 1e-12
    ) -> list[RegressionMismatch]:
        """Re-run the suite and report entries that moved beyond the tolerance.

        Deterministic methods (closed form, PDE, trees, COS, seeded
        Monte-Carlo) must reproduce the stored values exactly up to floating
        point noise, which is why the default tolerance is tight.
        """
        reference = json.loads(Path(path).read_text())
        current = self.run()
        mismatches: list[RegressionMismatch] = []
        for label, ref_price in reference.items():
            if label not in current:
                mismatches.append(
                    RegressionMismatch(label=label, reference=ref_price, computed=float("nan"),
                                       relative_error=float("inf"))
                )
                continue
            value = current[label]
            scale = max(abs(ref_price), atol)
            diff = abs(value - ref_price)
            # a zero reference under atol=0: any difference is infinitely relative
            rel = diff / scale if scale else (float("inf") if diff else 0.0)
            if diff > atol + rtol * scale:
                mismatches.append(
                    RegressionMismatch(
                        label=label, reference=ref_price, computed=value, relative_error=rel
                    )
                )
        return mismatches
