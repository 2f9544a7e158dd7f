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
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

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


def _tax_error(voluntary_tax: float, gross_revenue: float) -> ValueError:
    return ValueError(
        f"voluntary tax must lie in [0, gross revenue], got {voluntary_tax!r} vs {gross_revenue!r}"
    )


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
        raise _tax_error(voluntary_tax, gross_revenue)
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


TaxPolicy = Callable[[int, float], float]


def _requested_taxes(tax_policy, gross: np.ndarray):
    """Each period's tax as the policy asks for it, broadcastable against ``gross``."""
    import numpy as np

    if tax_policy is None:
        return 0.0
    if callable(tax_policy):
        taxes = [[tax_policy(period, g) for period, g in enumerate(row, start=1)] for row in gross.tolist()]
        return np.array(taxes, dtype=float).reshape(gross.shape)
    if isinstance(tax_policy, (int, float)):
        return float(tax_policy)
    return np.array([float(tax_policy.get(period, 0.0)) for period in range(1, gross.shape[1] + 1)])


class AccrualBatch(NamedTuple):
    """Concession runs accrued side by side, one row per price path.

    The arrays are ``(runs, periods)``. Run ``i`` lasts ``stepped[i]``
    periods: its expiry period, or the whole path if it never expires.
    Only the first ``stepped[i]`` entries of its row are part of its history.
    """

    vpi_target: float
    prices: np.ndarray
    gross: np.ndarray
    tax: np.ndarray
    counted: np.ndarray
    accrued: np.ndarray
    stepped: np.ndarray
    expired: np.ndarray

    def duration(self, run: int) -> int | None:
        """Periods until expiry; None if the run is still active at the path's end."""
        return int(self.stepped[run]) if self.expired[run] else None

    def final_accrued(self, run: int) -> float:
        stepped = int(self.stepped[run])
        return float(self.accrued[run, stepped - 1]) if stepped else 0.0

    def warning(self, run: int) -> str | None:
        if self.expired[run]:
            return None
        return (
            f"concession still active after {int(self.stepped[run])} periods: accrued "
            f"{self.final_accrued(run)!r} of VPI target {self.vpi_target!r}"
        )


def accrue_concessions(
    vpi: float,
    price_paths: Sequence[Sequence[float]],
    quantity_per_year: float,
    announced_rate: Rate | float,
    tax_policy: TaxPolicy | dict[int, float] | float | None = None,
) -> AccrualBatch:
    """Accrue one concession per price path, all paths in one vectorised pass.

    The paths must share one length. Every value equals what a loop of
    ``step_concession`` calls gives, bit for bit: gross, tax and counted
    revenue are the same IEEE operations, the discount factors are the same
    Python float powers, and ``cumsum`` adds each row left to right as the
    loop does. Taxes are clamped to [0, gross] with Python's ``max``/``min``
    semantics. A callable or scheduled tax policy is evaluated for every
    period of every path, including periods after expiry. As the loop does,
    raises ValueError for a tax outside [0, gross] (a negative price, or a
    NaN tax) only at or before the run's stop period. Raises ValueError for
    a gross revenue that is not finite, as when price × quantity overflows,
    and for an accrued PV that overflows a float by the run's stop period.
    """
    import numpy as np

    rate = as_rate(announced_rate).value
    prices = np.array(price_paths, dtype=float)
    periods = prices.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        gross = prices * quantity_per_year / USD_PER_MUSD
    nonfinite = ~np.isfinite(gross)
    if nonfinite.any():
        run, column = np.argwhere(nonfinite)[0]
        value = gross[run, column].item()
        raise ValueError(f"gross revenue is not finite in run {run}, period {column + 1}: {value!r}")
    requested = _requested_taxes(tax_policy, gross)
    tax = np.where(0.0 > requested, 0.0, requested)
    tax = np.where(gross < tax, gross, tax)
    counted = gross - tax
    factors = np.array([compound(rate, period) for period in range(1, periods + 1)])
    # A zero counted revenue adds +0.0: ``discount``'s limit over a factor underflowed
    # to 0.0, and what -0.0 adds to a loop that starts from +0.0.
    terms = np.zeros_like(counted)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        accrued = np.cumsum(np.divide(counted, factors, out=terms, where=counted != 0), axis=1)
    hit = accrued >= vpi
    expired = hit.any(axis=1)
    first_hit = hit.argmax(axis=1) if periods else 0
    stepped = np.where(expired, first_hit + 1, periods)

    in_run = np.arange(periods) < stepped[:, None]
    invalid = in_run & ~((0.0 <= tax) & (tax <= gross))
    if invalid.any():
        run, column = np.argwhere(invalid)[0]
        raise _tax_error(tax[run, column].item(), gross[run, column].item())
    overflow = in_run & ~np.isfinite(accrued)
    if overflow.any():
        run, column = np.argwhere(overflow)[0]
        raise ValueError(f"accrued PV overflows a float in run {run}, period {column + 1}")
    return AccrualBatch(vpi, prices, gross, tax, counted, accrued, stepped, expired)


def simulate_concession(
    vpi: float,
    price_path: Sequence[float] | np.ndarray,
    quantity_per_year: float,
    announced_rate: Rate | float,
    tax_policy: TaxPolicy | dict[int, float] | float | None = None,
) -> ConcessionOutcome:
    """Drive the concession over a price path until expiry or path end.

    Yearly gross revenue is price (USD/t) times quantity (t), expressed in
    million USD. The tax policy may be a callable (period, gross) -> tax, a
    per-period schedule, or a constant; taxes are clamped to [0, gross]. A
    callable policy is evaluated for every period of the path, including
    periods after expiry. The run is ``accrue_concessions`` on a single
    path, with its rows built out.
    """
    state = new_concession(vpi, announced_rate)
    batch = accrue_concessions(vpi, [price_path], quantity_per_year, state.announced_rate, tax_policy)
    stepped = int(batch.stepped[0])
    prices, gross, tax, counted, accrued = (
        column[0, :stepped].tolist()
        for column in (batch.prices, batch.gross, batch.tax, batch.counted, batch.accrued)
    )
    status = ConcessionStatus.EXPIRED if batch.expired[0] else ConcessionStatus.ACTIVE
    rows = tuple(
        OutcomeRow(period, *values, status=(status if period == stepped else ConcessionStatus.ACTIVE).value)
        for period, values in enumerate(zip(prices, gross, tax, counted, accrued), start=1)
    )
    final_state = state._replace(
        current_year=stepped,
        accrued_pv=batch.final_accrued(0),
        status=status,
    )
    return ConcessionOutcome(final_state=final_state, duration=batch.duration(0), rows=rows, warning=batch.warning(0))
