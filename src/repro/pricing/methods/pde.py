"""Finite-difference (theta-scheme) PDE pricing methods.

The realistic portfolio of the paper prices its down-and-out calls and its
American puts with PDE techniques ("the PDE must be solved with a very thin
time step, namely one time step every 2 days" for the barrier options).

The solver works on a uniform grid in ``x = ln S`` and discretises the
one-dimensional pricing PDE

``V_t + (r - q - sigma(t,S)^2 / 2) V_x + sigma(t,S)^2 / 2 V_xx - r V = 0``

with a theta-scheme in time (``theta = 0.5`` is Crank-Nicolson, ``theta = 1``
fully implicit).  Local-volatility models are supported because the
coefficients are rebuilt at every time step from
:meth:`~repro.pricing.models.base.DiffusionModel1D.local_volatility`.

American exercise is handled either by projection after each time step
(operator splitting, default) or by the Brennan-Schwartz algorithm, which
solves the obstacle problem exactly for put-like obstacles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.linalg import solve_banded

from repro.errors import PricingError
from repro.pricing.methods.base import PricingMethod, PricingResult
from repro.pricing.models.base import DiffusionModel1D, Model
from repro.pricing.products.american import AmericanCall, AmericanPut
from repro.pricing.products.barrier import BarrierOption
from repro.pricing.products.base import ExerciseStyle, Product
from repro.pricing.products.vanilla import DigitalCall, DigitalPut, EuropeanCall, EuropeanPut
from repro.pricing.validation import check_count

__all__ = ["PDEGrid", "PDEEuropean", "PDEBarrier", "PDEAmerican"]


@dataclass(frozen=True)
class PDEGrid:
    """Log-space grid specification.

    Attributes
    ----------
    x:
        Grid in ``ln S`` (uniform).
    s:
        The same grid in spot space, ``exp(x)``.
    dx:
        Grid spacing.
    """

    x: np.ndarray
    s: np.ndarray
    dx: float

    @classmethod
    def build(
        cls,
        spot: float,
        volatility_scale: float,
        maturity: float,
        n_space: int,
        n_std: float = 6.0,
        lower_bound: float | None = None,
        upper_bound: float | None = None,
        anchor: float | None = None,
    ) -> "PDEGrid":
        """Build a log-space grid centred on the spot.

        ``lower_bound`` / ``upper_bound`` clamp the grid in spot space (used
        to align a barrier exactly with the boundary).  ``anchor`` forces a
        grid node to coincide with a specific spot value (e.g. the strike) so
        that payoff kinks fall on nodes.
        """
        if n_space < 10:
            raise PricingError("n_space must be at least 10")
        width = n_std * volatility_scale * np.sqrt(maturity)
        width = max(width, 0.5)
        x_center = np.log(spot)
        x_min = x_center - width
        x_max = x_center + width
        if lower_bound is not None:
            x_min = np.log(lower_bound)
        if upper_bound is not None:
            x_max = np.log(upper_bound)
        if x_max <= x_min:
            raise PricingError("degenerate PDE grid (upper bound below lower bound)")
        x = np.linspace(x_min, x_max, n_space + 1)
        dx = x[1] - x[0]
        if lower_bound is not None or upper_bound is not None:
            # a barrier is pinned to the boundary: do not shift the grid,
            # otherwise the boundary would move off the barrier level
            anchor = None
        if anchor is not None and x_min < np.log(anchor) < x_max:
            # shift the grid so a node coincides with the anchor, keeping the
            # boundaries fixed by rounding the shift to less than one cell
            x_anchor = np.log(anchor)
            idx = int(round((x_anchor - x_min) / dx))
            shift = x_anchor - (x_min + idx * dx)
            if 0 < idx < n_space:
                x = x + shift
                dx = x[1] - x[0]
        return cls(x=x, s=np.exp(x), dx=float(dx))


def _theta_scheme_solve(
    model: DiffusionModel1D,
    maturity: float,
    grid: PDEGrid,
    terminal_values: np.ndarray,
    lower_bc: Callable[[float], float],
    upper_bc: Callable[[float], float],
    n_time: int,
    theta: float,
    obstacle: np.ndarray | None = None,
    american_mode: str = "projected",
) -> np.ndarray:
    """Backward induction of the theta scheme.

    Parameters
    ----------
    terminal_values:
        Payoff evaluated on ``grid.s`` at maturity.
    lower_bc / upper_bc:
        Dirichlet boundary values as functions of the *remaining* time to
        maturity ``tau`` (``tau = maturity`` at valuation date).
    obstacle:
        Early-exercise obstacle (intrinsic values on the grid); ``None`` for
        European products.
    american_mode:
        ``"projected"`` (project on the obstacle after each step) or
        ``"brennan_schwartz"`` (exact tridiagonal obstacle solve, valid for
        put-like obstacles that are binding on the lower end of the grid).

    Returns
    -------
    ndarray
        Option values on ``grid.s`` at the valuation date.
    """
    if not 0.0 <= theta <= 1.0:
        raise PricingError("theta must lie in [0, 1]")
    if n_time < 1:
        raise PricingError("n_time must be >= 1")
    if american_mode not in ("projected", "brennan_schwartz"):
        raise PricingError(f"unknown american_mode: {american_mode!r}")

    dt = maturity / n_time
    x = grid.x
    s = grid.s
    dx = grid.dx
    n = len(x)
    values = terminal_values.astype(float).copy()
    r = model.rate
    q = model.dividend

    interior = slice(1, n - 1)
    s_int = s[interior]

    for step in range(n_time):
        # time at which the *new* values live (going backward)
        t_new = maturity - (step + 1) * dt
        t_old = maturity - step * dt
        tau_new = maturity - t_new

        # coefficients evaluated at the mid-point of the step for CN accuracy
        t_coeff = 0.5 * (t_new + t_old)
        sigma = np.asarray(model.local_volatility(t_coeff, s_int), dtype=float)
        sigma2 = sigma**2
        mu = r - q - 0.5 * sigma2

        lower = 0.5 * sigma2 / dx**2 - 0.5 * mu / dx
        diag = -sigma2 / dx**2 - r
        upper = 0.5 * sigma2 / dx**2 + 0.5 * mu / dx

        # explicit part: rhs = (I + dt (1 - theta) A) V_old  on the interior
        rhs = values[interior] + dt * (1.0 - theta) * (
            lower * values[:-2] + diag * values[interior] + upper * values[2:]
        )

        # boundary values at the new time level
        bc_low = lower_bc(tau_new)
        bc_high = upper_bc(tau_new)

        if theta == 0.0:
            new_interior = rhs
        else:
            # implicit part: (I - dt theta A) V_new = rhs (+ boundary terms)
            sub = -dt * theta * lower
            main = 1.0 - dt * theta * diag
            sup = -dt * theta * upper
            rhs = rhs.copy()
            rhs[0] -= sub[0] * bc_low
            rhs[-1] -= sup[-1] * bc_high

            if obstacle is not None and american_mode == "brennan_schwartz":
                new_interior = _brennan_schwartz(sub, main, sup, rhs, obstacle[interior])
            else:
                ab = np.zeros((3, n - 2))
                ab[0, 1:] = sup[:-1]
                ab[1, :] = main
                ab[2, :-1] = sub[1:]
                new_interior = solve_banded((1, 1), ab, rhs)

        values = np.empty(n)
        values[0] = bc_low
        values[-1] = bc_high
        values[interior] = new_interior

        if obstacle is not None and american_mode == "projected":
            np.maximum(values, obstacle, out=values)
        elif obstacle is not None and american_mode == "brennan_schwartz":
            # boundaries must also respect the obstacle
            values[0] = max(values[0], obstacle[0])
            values[-1] = max(values[-1], obstacle[-1])
    return values


def _brennan_schwartz(
    sub: np.ndarray, main: np.ndarray, sup: np.ndarray, rhs: np.ndarray, obstacle: np.ndarray
) -> np.ndarray:
    """Brennan-Schwartz algorithm for the tridiagonal obstacle problem.

    Solves ``max(M v - rhs, obstacle - v) = 0`` component-wise for an
    M-matrix ``M`` (tridiagonal with ``sub``/``main``/``sup`` diagonals),
    assuming the contact region is connected and located at the lower end of
    the grid -- the situation of an American put.  The forward elimination
    runs from the last row down to the first so that the back-substitution
    (which applies the obstacle) proceeds from low spot values upward.
    """
    n = len(main)
    main_ = main.astype(float).copy()
    rhs_ = rhs.astype(float).copy()
    # eliminate the super-diagonal going from the top (high spot) down
    for i in range(n - 2, -1, -1):
        w = sup[i] / main_[i + 1]
        main_[i] -= w * sub[i + 1]
        rhs_[i] -= w * rhs_[i + 1]
    v = np.empty(n)
    v[0] = max(rhs_[0] / main_[0], obstacle[0])
    for i in range(1, n):
        v[i] = max((rhs_[i] - sub[i] * v[i - 1]) / main_[i], obstacle[i])
    return v


def _interp(s_grid: np.ndarray, values: np.ndarray, spot: float) -> float:
    return float(np.interp(spot, s_grid, values))


def _delta_from_grid(s_grid: np.ndarray, values: np.ndarray, spot: float) -> float:
    """Central-difference delta read off the PDE grid at the spot."""
    idx = int(np.searchsorted(s_grid, spot))
    idx = min(max(idx, 1), len(s_grid) - 2)
    return float(
        (values[idx + 1] - values[idx - 1]) / (s_grid[idx + 1] - s_grid[idx - 1])
    )


class _PDEBase(PricingMethod):
    """Shared configuration of the finite-difference methods."""

    def __init__(
        self,
        n_space: int = 400,
        n_time: int = 200,
        theta: float = 0.5,
        n_std: float = 6.0,
    ):
        if not 0.0 <= theta <= 1.0:
            raise PricingError("theta must lie in [0, 1]")
        self.n_space = check_count(n_space, "n_space", 10)
        self.n_time = check_count(n_time, "n_time")
        self.theta = float(theta)
        self.n_std = float(n_std)

    def to_params(self) -> dict[str, Any]:
        return {
            "n_space": self.n_space,
            "n_time": self.n_time,
            "theta": self.theta,
            "n_std": self.n_std,
        }

    def _vol_scale(self, model: DiffusionModel1D) -> float:
        """Representative volatility used only to size the grid."""
        sample = model.local_volatility(0.0, np.asarray([model.spot]))
        return float(np.clip(np.max(sample), 0.05, 2.0))


class PDEEuropean(_PDEBase):
    """Theta-scheme pricer for non-path-dependent European products."""

    method_name = "FD_European"

    def supports(self, model: Model, product: Product) -> bool:
        return (
            isinstance(model, DiffusionModel1D)
            and isinstance(product, (EuropeanCall, EuropeanPut, DigitalCall, DigitalPut))
            and product.exercise == ExerciseStyle.EUROPEAN
        )

    def _price(self, model: DiffusionModel1D, product: Product) -> PricingResult:
        vol = self._vol_scale(model)
        grid = PDEGrid.build(
            model.spot, vol, product.maturity, self.n_space, self.n_std, anchor=product.strike
        )
        terminal = product.terminal_payoff(grid.s)
        is_call_like = isinstance(product, (EuropeanCall, DigitalCall))
        k = product.strike
        r, q = model.rate, model.dividend
        s_lo, s_hi = grid.s[0], grid.s[-1]

        if isinstance(product, EuropeanCall):
            lower_bc = lambda tau: 0.0
            upper_bc = lambda tau: s_hi * np.exp(-q * tau) - k * np.exp(-r * tau)
        elif isinstance(product, EuropeanPut):
            lower_bc = lambda tau: k * np.exp(-r * tau) - s_lo * np.exp(-q * tau)
            upper_bc = lambda tau: 0.0
        elif isinstance(product, DigitalCall):
            lower_bc = lambda tau: 0.0
            upper_bc = lambda tau: np.exp(-r * tau)
        else:  # DigitalPut
            lower_bc = lambda tau: np.exp(-r * tau)
            upper_bc = lambda tau: 0.0

        values = _theta_scheme_solve(
            model,
            product.maturity,
            grid,
            terminal,
            lower_bc,
            upper_bc,
            self.n_time,
            self.theta,
        )
        price = _interp(grid.s, values, model.spot)
        delta = _delta_from_grid(grid.s, values, model.spot)
        return PricingResult(
            price=price,
            delta=delta,
            n_evaluations=self.n_space * self.n_time,
            extra={"grid_points": self.n_space, "time_steps": self.n_time,
                   "is_call_like": is_call_like},
        )


class PDEBarrier(_PDEBase):
    """Theta-scheme pricer for knock-out and knock-in barrier options.

    Knock-out options are priced directly by placing the barrier on the grid
    boundary (Dirichlet condition equal to the rebate).  Knock-in options use
    in/out parity: ``knock_in = vanilla - knock_out`` (exact for zero
    rebate).
    """

    method_name = "FD_Barrier"

    def supports(self, model: Model, product: Product) -> bool:
        return isinstance(model, DiffusionModel1D) and isinstance(product, BarrierOption)

    def _price_knock_out(self, model: DiffusionModel1D, product: BarrierOption) -> PricingResult:
        vol = self._vol_scale(model)
        r, q = model.rate, model.dividend
        k = product.strike
        rebate = product.rebate

        if product.is_down:
            if model.spot <= product.barrier:
                return PricingResult(price=rebate, delta=0.0, n_evaluations=1)
            grid = PDEGrid.build(
                model.spot,
                vol,
                product.maturity,
                self.n_space,
                self.n_std,
                lower_bound=product.barrier,
                anchor=product.strike,
            )
            s_hi = grid.s[-1]
            lower_bc = lambda tau: rebate
            if product.payoff_type == "call":
                upper_bc = lambda tau: s_hi * np.exp(-q * tau) - k * np.exp(-r * tau)
            else:
                upper_bc = lambda tau: 0.0
        else:
            if model.spot >= product.barrier:
                return PricingResult(price=rebate, delta=0.0, n_evaluations=1)
            grid = PDEGrid.build(
                model.spot,
                vol,
                product.maturity,
                self.n_space,
                self.n_std,
                upper_bound=product.barrier,
                anchor=product.strike,
            )
            s_lo = grid.s[0]
            upper_bc = lambda tau: rebate
            if product.payoff_type == "put":
                lower_bc = lambda tau: k * np.exp(-r * tau) - s_lo * np.exp(-q * tau)
            else:
                lower_bc = lambda tau: 0.0

        terminal = product.vanilla_payoff(grid.s)
        # the knocked-out region has already been excluded by the grid bounds
        values = _theta_scheme_solve(
            model,
            product.maturity,
            grid,
            terminal,
            lower_bc,
            upper_bc,
            self.n_time,
            self.theta,
        )
        price = _interp(grid.s, values, model.spot)
        delta = _delta_from_grid(grid.s, values, model.spot)
        return PricingResult(
            price=price, delta=delta, n_evaluations=self.n_space * self.n_time
        )

    def _price(self, model: DiffusionModel1D, product: BarrierOption) -> PricingResult:
        if product.is_knock_out:
            return self._price_knock_out(model, product)
        # knock-in via parity with the vanilla of the same payoff
        knock_out = BarrierOption(
            strike=product.strike,
            maturity=product.maturity,
            barrier=product.barrier,
            barrier_type=("down-out" if product.is_down else "up-out"),
            payoff_type=product.payoff_type,
            rebate=0.0,
        )
        out_result = self._price_knock_out(model, knock_out)
        vanilla_product = (
            EuropeanCall(product.strike, product.maturity)
            if product.payoff_type == "call"
            else EuropeanPut(product.strike, product.maturity)
        )
        vanilla_result = PDEEuropean(
            n_space=self.n_space, n_time=self.n_time, theta=self.theta, n_std=self.n_std
        ).price(model, vanilla_product)
        price = max(vanilla_result.price - out_result.price, 0.0)
        delta = None
        if vanilla_result.delta is not None and out_result.delta is not None:
            delta = vanilla_result.delta - out_result.delta
        return PricingResult(
            price=price,
            delta=delta,
            n_evaluations=2 * self.n_space * self.n_time,
        )


class PDEAmerican(_PDEBase):
    """Theta-scheme pricer for American options with early exercise.

    The obstacle solve follows from the payoff: a put's exercise region
    touches the lower end of the grid, so it takes the exact Brennan-Schwartz
    tridiagonal solve; a call's lies at high spot, so it is projected on the
    obstacle after each step.
    """

    method_name = "FD_American"

    def supports(self, model: Model, product: Product) -> bool:
        return isinstance(model, DiffusionModel1D) and isinstance(
            product, (AmericanPut, AmericanCall)
        )

    def _price(self, model: DiffusionModel1D, product: Product) -> PricingResult:
        vol = self._vol_scale(model)
        grid = PDEGrid.build(
            model.spot, vol, product.maturity, self.n_space, self.n_std, anchor=product.strike
        )
        terminal = product.terminal_payoff(grid.s)
        obstacle = product.intrinsic_value(grid.s)
        k = product.strike
        r, q = model.rate, model.dividend
        s_lo, s_hi = grid.s[0], grid.s[-1]

        if isinstance(product, AmericanPut):
            # deep in the money the American put is exercised: boundary equals
            # the intrinsic value
            lower_bc = lambda tau: k - s_lo
            upper_bc = lambda tau: 0.0
            mode = "brennan_schwartz"
        else:
            lower_bc = lambda tau: 0.0
            upper_bc = lambda tau: s_hi - k
            mode = "projected"

        values = _theta_scheme_solve(
            model,
            product.maturity,
            grid,
            terminal,
            lower_bc,
            upper_bc,
            self.n_time,
            self.theta,
            obstacle=obstacle,
            american_mode=mode,
        )
        price = _interp(grid.s, values, model.spot)
        delta = _delta_from_grid(grid.s, values, model.spot)
        # locate the exercise boundary (largest spot where value == intrinsic)
        exercised = np.isclose(values, obstacle, rtol=1e-10, atol=1e-10) & (obstacle > 0)
        boundary = float(grid.s[exercised].max()) if exercised.any() else float("nan")
        return PricingResult(
            price=price,
            delta=delta,
            n_evaluations=self.n_space * self.n_time,
            extra={"exercise_boundary": boundary},
        )
