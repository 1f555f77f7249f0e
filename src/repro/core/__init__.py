"""``repro.core`` -- the risk-management benchmark (the paper's contribution).

Layers on top of :mod:`repro.pricing`, :mod:`repro.serial` and
:mod:`repro.cluster`:

* portfolios and the three benchmark workloads (:mod:`repro.core.portfolio`);
* the three problem-transmission strategies (:mod:`repro.core.strategies`);
* the Robin-Hood scheduler and its extensions (:mod:`repro.core.scheduler`);
* the run report (:mod:`repro.core.runner`);
* speedup tables in the paper's format (:mod:`repro.core.speedup`) and the
  published Tables I--III as one registry (:mod:`repro.core.paper_reference`);
* the non-regression workload (:mod:`repro.core.regression`);
* portfolio risk measures (:mod:`repro.core.risk`).
"""

from repro.core.paper_reference import (
    PAPER_TABLE_I,
    PAPER_TABLE_II,
    PAPER_TABLE_III,
    PAPER_TABLES,
    PaperTable,
    compare_with_paper,
    paper_speedup_table,
)
from repro.core.portfolio import (
    PORTFOLIO_BUILDERS,
    Portfolio,
    Position,
    build_realistic_portfolio,
    build_regression_portfolio,
    build_toy_portfolio,
)
from repro.core.regression import generate_regression_problems
from repro.core.risk import (
    PortfolioRiskReport,
    historical_var,
    portfolio_greeks,
    portfolio_value,
    scenario_jobs,
    sensitivity_sweep,
)
from repro.core.runner import ResultTable, RunReport
from repro.core.scheduler import (
    SCHEDULERS,
    ChunkedPolicy,
    DispatchPolicy,
    RobinHoodPolicy,
    ScheduleOutcome,
    ScheduleStream,
    StaticBlockPolicy,
    WorkStealingPolicy,
    register_scheduler,
    simulate_hierarchical,
)
from repro.core.speedup import SpeedupRow, SpeedupTable, format_comparison_table, speedup_ratio
from repro.core.strategies import (
    STRATEGIES,
    FullLoadStrategy,
    NFSStrategy,
    SerializedLoadStrategy,
    TransmissionStrategy,
    get_strategy,
)

__all__ = [
    # portfolio
    "Portfolio",
    "Position",
    "build_toy_portfolio",
    "build_realistic_portfolio",
    "build_regression_portfolio",
    "PORTFOLIO_BUILDERS",
    # strategies
    "TransmissionStrategy",
    "FullLoadStrategy",
    "SerializedLoadStrategy",
    "NFSStrategy",
    "get_strategy",
    "STRATEGIES",
    # schedulers
    "DispatchPolicy",
    "RobinHoodPolicy",
    "StaticBlockPolicy",
    "ChunkedPolicy",
    "WorkStealingPolicy",
    "ScheduleStream",
    "register_scheduler",
    "simulate_hierarchical",
    "ScheduleOutcome",
    "SCHEDULERS",
    # runner / speedup
    "ResultTable",
    "RunReport",
    "SpeedupTable",
    "SpeedupRow",
    "speedup_ratio",
    "format_comparison_table",
    # regression / risk
    "generate_regression_problems",
    "portfolio_value",
    "portfolio_greeks",
    "sensitivity_sweep",
    "scenario_jobs",
    "historical_var",
    "PortfolioRiskReport",
    # published reference data
    "PAPER_TABLE_I",
    "PAPER_TABLE_II",
    "PAPER_TABLE_III",
    "PaperTable",
    "PAPER_TABLES",
    "paper_speedup_table",
    "compare_with_paper",
]
