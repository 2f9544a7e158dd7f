"""Least-present-value-of-revenue concession: bidding, accrual, termination.

The state announces a discount rate and awards the concession to the bidder
demanding the smallest present value of revenue (VPI). Revenue accrues,
discounted at the announced rate, until the VPI target is met; the term is
therefore contingent on the price path. A voluntary tax reduces counted
revenue one-to-one and stretches the term; expropriation is indemnified by
the yet-unearned part of the target.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .data_model import USD_PER_MUSD
from .valuation import CashFlowSeries, Rate, as_rate, compound, discount

if TYPE_CHECKING:
    import numpy as np


class AuctionError(Exception):
    """Auction cannot produce a winner (no feasible bids)."""


class StateMachineError(Exception):
    """Illegal transition on a concession state."""


class ConcessionStatus(enum.Enum):
    ACTIVE = "active"
    EXPIRED = "expired"
    EXPROPRIATED = "expropriated"


class _BidderFields(NamedTuple):
    bidder_id: str
    investment: float
    cost_of_capital: Rate
    expected_revenue_path: CashFlowSeries


class Bidder(_BidderFields):
    """Auction participant with a private revenue forecast."""

    __slots__ = ()

    def __new__(
        cls,
        bidder_id: str,
        investment: float,
        cost_of_capital: Rate,
        expected_revenue_path: CashFlowSeries,
    ):
        if not math.isfinite(investment) or investment <= 0:
            raise ValueError(f"investment must be finite and > 0, got {investment!r}")
        return super().__new__(cls, bidder_id, investment, cost_of_capital, expected_revenue_path)


class ConcessionState(NamedTuple):
    """Value-typed state of a running concession."""

    vpi_target: float
    announced_rate: Rate
    current_year: int
    accrued_pv: float
    status: ConcessionStatus

    @property
    def active(self) -> bool:
        return self.status is ConcessionStatus.ACTIVE


class _PricePathParamsFields(NamedTuple):
    initial_price: float
    drift: float
    volatility: float
    horizon: int
    seed: int


class PricePathParams(_PricePathParamsFields):
    """Geometric-Brownian annual price path parameters."""

    __slots__ = ()

    def __new__(cls, initial_price: float, drift: float, volatility: float, horizon: int, seed: int):
        if initial_price <= 0:
            raise ValueError(f"initial_price must be > 0, got {initial_price!r}")
        if volatility < 0:
            raise ValueError(f"volatility must be >= 0, got {volatility!r}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon!r}")
        return super().__new__(cls, initial_price, drift, volatility, horizon, seed)


class OutcomeRow(NamedTuple):
    period: int
    price: float
    gross_revenue: float
    voluntary_tax: float
    counted_revenue: float
    accrued_pv: float
    status: str


class ConcessionOutcome(NamedTuple):
    final_state: ConcessionState
    duration: int | None  # periods until expiry; None if still active
    rows: tuple[OutcomeRow, ...]
    warning: str | None = None


def _check_revenue_path(path: CashFlowSeries) -> None:
    """Revenue must start after the concession start and never be negative.

    Flow years strictly increase, so only the first one can start too early.
    """
    if path.flows and path.flows[0][0] <= path.base_year:
        raise ValueError("revenue path must start strictly after the concession start")
    for year, amount in path.flows:
        if amount < 0:
            raise ValueError(f"revenue must be nonnegative, got {amount!r} at period {year - path.base_year}")


def equilibrium_bid(bidder: Bidder, announced_rate: Rate | float) -> float | None:
    """The bidder's LPVR bid: what the concession accrues by its earliest repaying stop.

    Let k be the first period whose revenue prefix, discounted at the
    bidder's own cost of capital, covers the investment; a target that ends
    the concession any earlier leaves the investment unpaid. The bid is the
    same prefix discounted at the announced rate (Engel, Fischer & Galetovic,
    JPE 2001), found in one pass. When both rates coincide it exceeds the
    investment by less than period k's discounted revenue. Returns None when
    even the full path cannot repay the investment. The whole path is
    validated first, so a negative revenue after period k still raises.
    Raises ValueError when the bid overflows a float, as it can at a
    negative announced rate.
    """
    path = bidder.expected_revenue_path
    _check_revenue_path(path)
    announced = as_rate(announced_rate).value
    own = bidder.cost_of_capital.value
    accrued = own_pv = 0.0
    for year, amount in path.flows:
        offset = year - path.base_year
        accrued += discount(amount, announced, offset)
        own_pv += discount(amount, own, offset)
        if own_pv >= bidder.investment:
            if not math.isfinite(accrued):
                raise ValueError(f"bidder {bidder.bidder_id!r}: bid overflows a float")
            return accrued
    return None


def run_auction(bids: dict[str, float | None]) -> tuple[str, float]:
    """Winner is the smallest VPI demand; ties break on bidder id.

    A None bid is no bid; raises AuctionError when no bid is left.
    """
    feasible = [(bidder_id, bid) for bidder_id, bid in bids.items() if bid is not None]
    if not feasible:
        raise AuctionError("auction failed: no feasible bids")
    return min(feasible, key=lambda item: (item[1], item[0]))


def new_concession(vpi_target: float, announced_rate: Rate | float) -> ConcessionState:
    if not math.isfinite(vpi_target) or vpi_target <= 0:
        raise ValueError(f"vpi_target must be finite and > 0, got {vpi_target!r}")
    return ConcessionState(
        vpi_target=vpi_target,
        announced_rate=as_rate(announced_rate),
        current_year=0,
        accrued_pv=0.0,
        status=ConcessionStatus.ACTIVE,
    )


def step_concession(state: ConcessionState, gross_revenue: float, voluntary_tax: float = 0.0) -> ConcessionState:
    """Advance one year: count revenue net of the voluntary tax.

    The full final period counts; there is no intra-year proration at
    expiration.
    """
    if not state.active:
        raise StateMachineError(f"cannot step a concession in status {state.status.value!r}")
    if not 0.0 <= voluntary_tax <= gross_revenue:
        raise ValueError(
            f"voluntary tax must lie in [0, gross revenue], got {voluntary_tax!r} vs {gross_revenue!r}"
        )
    counted = gross_revenue - voluntary_tax
    period = state.current_year + 1
    accrued = state.accrued_pv + discount(counted, state.announced_rate.value, period)
    status = ConcessionStatus.EXPIRED if accrued >= state.vpi_target else ConcessionStatus.ACTIVE
    return state._replace(
        current_year=period,
        accrued_pv=accrued,
        status=status,
    )


def expropriate(state: ConcessionState) -> ConcessionState:
    if not state.active:
        raise StateMachineError(f"cannot expropriate a concession in status {state.status.value!r}")
    return state._replace(status=ConcessionStatus.EXPROPRIATED)


def expropriation_indemnity(state: ConcessionState, at_expropriation_date: bool = False) -> float:
    """Unearned part of the VPI target; zero once the concession expired.

    Expressed in present value at concession start by default; with
    ``at_expropriation_date`` it is compounded to the current year, which
    gives infinity where ``compound`` overflows a float.
    """
    if state.status is ConcessionStatus.EXPIRED:
        return 0.0
    indemnity = state.vpi_target - state.accrued_pv
    if at_expropriation_date:
        indemnity *= compound(state.announced_rate.value, state.current_year)
    return indemnity


def generate_price_path(params: PricePathParams) -> np.ndarray:
    """Seeded geometric-Brownian annual prices; index 0 is the initial price.

    Raises ValueError when a price is not a finite float, as when a large
    drift or shock overflows it. A volatility whose variance overflows gives
    prices of 0.0 after the first, the limit of the path.
    """
    import numpy as np

    rng = np.random.default_rng(params.seed)
    shocks = rng.standard_normal(params.horizon - 1)
    try:
        half_variance = params.volatility**2 / 2.0
    except OverflowError:
        half_variance = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        log_steps = (params.drift - half_variance) + params.volatility * shocks
        log_prices = np.concatenate(([0.0], np.cumsum(log_steps)))
        prices = params.initial_price * np.exp(log_prices)
    finite = np.isfinite(prices)
    if not finite.all():
        step = int(finite.argmin())
        value = prices[step].item()
        raise ValueError(f"price path (seed {params.seed}) has a non-finite price at step {step}: {value!r}")
    return prices


def _accrue(vpi: float, path, quantity_per_year: float, rate: float, tax_policy, run: int, rows=None) -> int | None:
    """Accrue one concession over ``path``, period by period; return its expiry period, None if it outlives the path.

    Each step is ``step_concession``'s, bit for bit: gross revenue is
    ``price * quantity / USD_PER_MUSD``; the tax ask, the ``{period: tax}``
    schedule's entry (0.0 where absent) or the constant, is raised to 0.0 if
    negative and lowered to gross; and the counted revenue over the period's
    factor ``compound(rate, period)`` is added to the accrued PV. A zero
    counted revenue is skipped, as the +0.0 or -0.0 it would add leaves a sum
    that starts from +0.0 unchanged; a factor a negative rate underflowed to
    0.0 makes any other an infinity (``discount``'s limits). Reads ``path``,
    any iterable of prices, only up to its stop: expiry or the path's end.
    Raises ValueError at the first bad period, numbered in run ``run``: a
    gross revenue that is not finite, a tax outside [0, gross] (a negative
    price, or a NaN tax) or an accrued PV that overflows a float. With
    ``rows`` a list, appends each period's ``OutcomeRow`` to it.
    """
    constant = tax_policy is None or isinstance(tax_policy, (int, float))
    ask = max(float(tax_policy or 0.0), 0.0) if constant else 0.0
    accrued = 0.0
    for period, price in enumerate(map(float, path), start=1):
        gross = price * quantity_per_year / USD_PER_MUSD
        if not math.isfinite(gross):
            raise ValueError(f"gross revenue is not finite in run {run}, period {period}: {gross!r}")
        if not constant:
            ask = max(float(tax_policy.get(period, 0.0)), 0.0)
        tax = gross if gross < ask else ask
        if not 0.0 <= tax <= gross:
            raise ValueError(
                f"voluntary tax must lie in [0, gross revenue] in run {run}, period {period}, got {tax!r} vs {gross!r}"
            )
        counted = gross - tax
        if counted:
            factor = compound(rate, period)
            accrued += counted / factor if factor else math.inf
            if not math.isfinite(accrued):
                raise ValueError(f"accrued PV overflows a float in run {run}, period {period}")
        expired = accrued >= vpi
        if rows is not None:
            status = ConcessionStatus.EXPIRED if expired else ConcessionStatus.ACTIVE
            rows.append(OutcomeRow(period, price, gross, tax, counted, accrued, status.value))
        if expired:
            return period
    return None


def accrue_concessions(
    vpi: float,
    price_paths: Iterable[Iterable[float]],
    quantity_per_year: float,
    announced_rate: Rate | float,
    tax_policy: dict[int, float] | float | None = None,
    *,
    first_run: int = 0,
) -> list[int | None]:
    """Accrue one concession per price path; return each run's duration, None if still active.

    The paths may come from any iterable, a generator included, and each
    path may be any iterable of prices, of any length; it is read only up to
    its run's stop. Each run is accrued by one loop that stops at its expiry,
    and every value equals what a loop of ``step_concession`` calls gives,
    bit for bit: the same IEEE operations and the same Python float powers as
    discount factors. The tax policy is a ``{period: tax}`` schedule or a
    constant, clamped to [0, gross] with Python's ``max``/``min`` semantics.

    Raises ValueError, before any path is drawn, for a VPI that is not
    finite and > 0, as ``simulate_concession`` does. Then it raises
    ValueError for the first bad period in run, then period, order (runs
    numbered from ``first_run``), at or before the run's stop: a gross
    revenue that is not finite, as when price × quantity overflows; a tax
    outside [0, gross] (a negative price, or a NaN tax); or an accrued PV
    that overflows a float. A run is accrued before the next path is drawn,
    so later paths are not drawn. An error raised by the iterable itself (a
    price path that cannot be generated) propagates when that path is drawn.
    """
    rate = new_concession(vpi, announced_rate).announced_rate.value
    return [
        _accrue(vpi, path, quantity_per_year, rate, tax_policy, run)
        for run, path in enumerate(price_paths, start=first_run)
    ]


def simulate_concession(
    vpi: float,
    price_path: Iterable[float],
    quantity_per_year: float,
    announced_rate: Rate | float,
    tax_policy: dict[int, float] | float | None = None,
) -> ConcessionOutcome:
    """Drive the concession over a price path, any iterable of prices, until expiry or path end.

    Yearly gross revenue is price (USD/t) times quantity (t), expressed in
    million USD. The tax policy is a per-period schedule or a constant, as
    for ``accrue_concessions``. The path is accrued as run 0 of
    ``accrue_concessions``, with its rows built as it goes; it raises as that
    does.
    """
    state = new_concession(vpi, announced_rate)
    rows: list[OutcomeRow] = []
    duration = _accrue(vpi, price_path, quantity_per_year, state.announced_rate.value, tax_policy, 0, rows)
    final_pv = rows[-1].accrued_pv if rows else 0.0
    status, warning = ConcessionStatus.EXPIRED, None
    if duration is None:
        status = ConcessionStatus.ACTIVE
        warning = f"concession still active after {len(rows)} periods: accrued {final_pv!r} of VPI target {vpi!r}"
    final_state = state._replace(current_year=len(rows), accrued_pv=final_pv, status=status)
    return ConcessionOutcome(final_state, duration, tuple(rows), warning)
