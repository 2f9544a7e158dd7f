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
import itertools
import math
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

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

# Cells (runs × periods) the accrual kernel holds per buffer: 16 runs of 2000
# periods, or 32,768 runs of one. Sized in cells, not runs, so that short paths
# still fill a block.
_BLOCK_CELLS = 32_768


def _discount_factors(rate: float, periods: int):
    """Periods 1..n's discount factors: the Python float powers that ``discount`` divides by."""
    import numpy as np

    return np.array([compound(rate, period) for period in range(1, periods + 1)])


def _accrue_block(vpi, quantity_per_year, factors, tax_policy, gross, tax, accrued, first_run: int):
    """Accrue a ``(runs, periods)`` block of concessions in place; ``gross`` holds their prices.

    Leaves each cell's gross revenue, clamped tax and accrued PV in ``gross``,
    ``tax`` and ``accrued``, and returns each run's stop period (its expiry, or
    the whole path) and expiry flag. Raises ValueError for the block's first
    bad cell in run, then period, order, numbering the runs from ``first_run``.
    """
    import numpy as np

    runs, periods = gross.shape
    # Overflows and non-finite values are reported below as errors, not warned about on the way.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.multiply(gross, quantity_per_year, out=gross)
        np.divide(gross, USD_PER_MUSD, out=gross)
        if callable(tax_policy):
            requested = [[tax_policy(period, g) for period, g in enumerate(row, start=1)] for row in gross.tolist()]
            np.copyto(tax, np.array(requested, dtype=float).reshape(gross.shape))
        elif tax_policy is None or isinstance(tax_policy, (int, float)):
            tax.fill(float(tax_policy or 0.0))
        else:  # a schedule: {period: tax}
            np.copyto(tax, [float(tax_policy.get(period, 0.0)) for period in range(1, periods + 1)])
        np.copyto(tax, 0.0, where=tax < 0.0)
        np.copyto(tax, gross, where=gross < tax)
        np.subtract(gross, tax, out=accrued)
        # A zero counted revenue adds +0.0: ``discount``'s limit over a factor underflowed
        # to 0.0, and what -0.0 adds to a loop that starts from +0.0.
        zero = accrued == 0
        np.divide(accrued, factors, out=accrued, where=~zero)
        accrued[zero] = 0.0
        np.cumsum(accrued, axis=1, out=accrued)
    hit = accrued >= vpi
    expired = hit.any(axis=1)
    stepped = np.where(expired, hit.argmax(axis=1) + 1, periods) if periods else np.zeros(runs, dtype=int)
    in_run = np.arange(periods) < stepped[:, None]
    valid = (0.0 <= tax) & (tax <= gross) & np.isfinite(accrued)
    bad = ~np.isfinite(gross) | (in_run & ~valid)
    if bad.any():
        run, column = divmod(int(bad.argmax()), periods)
        where = f"in run {first_run + run}, period {column + 1}"
        g, t = gross[run, column].item(), tax[run, column].item()
        if not math.isfinite(g):
            raise ValueError(f"gross revenue is not finite {where}: {g!r}")
        if not 0.0 <= t <= g:
            raise _tax_error(t, g)
        raise ValueError(f"accrued PV overflows a float {where}")
    return stepped, expired


def accrue_concessions(
    vpi: float,
    price_paths: Iterable[Sequence[float]],
    quantity_per_year: float,
    announced_rate: Rate | float,
    tax_policy: TaxPolicy | dict[int, float] | float | None = None,
    *,
    first_run: int = 0,
) -> list[int | None]:
    """Accrue one concession per price path; return each run's duration, None if still active.

    The paths may come from any iterable, a generator included, and must
    share one length; a path of another length raises ValueError when it is
    reached. They are accrued ``_BLOCK_CELLS // periods`` runs (at least one)
    at a time, in place in three fixed buffers. Every value equals what a loop
    of ``step_concession`` calls gives, bit for bit: the same IEEE operations,
    the same Python float powers as discount factors, and ``cumsum`` adding
    each row left to right. Taxes are clamped to [0, gross] with Python's
    ``max``/``min`` semantics; a callable policy is evaluated for every period
    of every path, including periods after expiry.

    Raises ValueError, as soon as its block is accrued, for the first bad cell
    in run, then period, order (runs numbered from ``first_run``): a gross
    revenue that is not finite anywhere in the path, as when price × quantity
    overflows; or, at or before the run's stop, a tax outside [0, gross] (a
    negative price, or a NaN tax) or an accrued PV that overflows a float. So
    later paths are not drawn. An error raised by the iterable itself (a price
    path that cannot be generated) propagates when that path is drawn.
    """
    import numpy as np

    paths = iter(price_paths)
    first = next(paths, None)
    if first is None:
        return []
    periods = len(first)
    rows = max(1, _BLOCK_CELLS // max(periods, 1))
    gross, tax, accrued = np.empty((3, rows, periods))
    factors = _discount_factors(as_rate(announced_rate).value, periods)
    durations: list[int | None] = []
    paths = itertools.chain([first], paths)
    for block_start in itertools.count(first_run, rows):
        runs = 0
        for path in itertools.islice(paths, rows):
            if len(path) != periods:
                run = block_start + runs
                raise ValueError(
                    f"price paths must share one length: run {run} has {len(path)}, run {first_run} {periods}"
                )
            gross[runs] = path
            runs += 1
        if not runs:
            return durations
        block = (buffer[:runs] for buffer in (gross, tax, accrued))
        stepped, expired = _accrue_block(vpi, quantity_per_year, factors, tax_policy, *block, block_start)
        durations.extend(s if e else None for s, e in zip(stepped.tolist(), expired.tolist()))


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
    periods after expiry. The path is one block of the ``accrue_concessions``
    kernel, numbered run 0, with its rows built out; it raises as that does.
    """
    import numpy as np

    state = new_concession(vpi, announced_rate)
    gross, tax, accrued = np.empty((3, 1, len(price_path)))
    gross[0] = price_path
    factors = _discount_factors(state.announced_rate.value, len(price_path))
    (stepped,), (expired,) = _accrue_block(vpi, quantity_per_year, factors, tax_policy, gross, tax, accrued, 0)
    del factors  # not held while the rows are built
    stepped, expired = int(stepped), bool(expired)
    prices = np.asarray(price_path, dtype=float)[:stepped].tolist()
    gross, tax, accrued = (column[0, :stepped].tolist() for column in (gross, tax, accrued))
    status = ConcessionStatus.EXPIRED if expired else ConcessionStatus.ACTIVE
    rows = tuple(
        OutcomeRow(period, price, g, t, g - t, pv, (status if period == stepped else ConcessionStatus.ACTIVE).value)
        for period, (price, g, t, pv) in enumerate(zip(prices, gross, tax, accrued), start=1)
    )
    final_pv = accrued[-1] if stepped else 0.0
    warning = None
    if not expired:
        warning = f"concession still active after {stepped} periods: accrued {final_pv!r} of VPI target {vpi!r}"
    final_state = state._replace(current_year=stepped, accrued_pv=final_pv, status=status)
    return ConcessionOutcome(final_state, stepped if expired else None, rows, warning)
