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


def _tax_schedule(tax_policy, periods: int):
    """Each period's tax as the policy asks for it, or None for a callable policy.

    A constant is a float, a schedule a ``(periods,)`` array; either broadcasts
    against a block of gross revenue.
    """
    import numpy as np

    if tax_policy is None:
        return 0.0
    if callable(tax_policy):
        return None
    if isinstance(tax_policy, (int, float)):
        return float(tax_policy)
    return np.array([float(tax_policy.get(period, 0.0)) for period in range(1, periods + 1)])


class AccrualBatch(NamedTuple):
    """Concession runs accrued side by side, one entry per price path.

    Run ``i`` lasts ``stepped[i]`` periods: its expiry period, or the whole
    path if it never expires. ``accrued_pv[i]`` is its accrued PV at that
    period, 0.0 for an empty path. No run's period-by-period history is kept.
    """

    vpi_target: float
    stepped: np.ndarray
    expired: np.ndarray
    accrued_pv: np.ndarray

    def duration(self, run: int) -> int | None:
        """Periods until expiry; None if the run is still active at the path's end."""
        return int(self.stepped[run]) if self.expired[run] else None

    def final_accrued(self, run: int) -> float:
        return float(self.accrued_pv[run])

    def warning(self, run: int) -> str | None:
        if self.expired[run]:
            return None
        return (
            f"concession still active after {int(self.stepped[run])} periods: accrued "
            f"{self.final_accrued(run)!r} of VPI target {self.vpi_target!r}"
        )


def _accrual_blocks(vpi, price_paths, quantity_per_year, rate: float, tax_policy):
    """Accrue the paths a block of runs at a time, as ``accrue_concessions`` documents.

    Yields each block's ``(gross, tax, accrued, batch)``: three ``(runs,
    periods)`` views into buffers that the next block overwrites, and the
    block's runs as an ``AccrualBatch``. Errors are kept until every path is
    consumed, then the one the whole batch would raise first is raised.
    """
    import numpy as np

    paths = iter(price_paths)
    first = next(paths, None)
    if first is None:
        return
    periods = len(first)
    rows = max(1, _BLOCK_CELLS // max(periods, 1))
    gross_buffer, tax_buffer, accrued_buffer = (np.empty((rows, periods)) for _ in range(3))
    schedule = _tax_schedule(tax_policy, periods)
    factors = np.array([compound(rate, period) for period in range(1, periods + 1)])
    gross_error = tax_error = overflow_error = None
    paths = itertools.chain([first], paths)
    for block_start in itertools.count(0, rows):
        runs = 0
        for path in itertools.islice(paths, rows):
            if len(path) != periods:
                run = block_start + runs
                raise ValueError(f"price paths must share one length: run {run} has {len(path)}, run 0 {periods}")
            gross_buffer[runs] = path
            runs += 1
        if not runs:
            break
        if gross_error is not None:
            continue  # It outranks every later error; only the paths are still consumed.
        gross, tax, accrued = gross_buffer[:runs], tax_buffer[:runs], accrued_buffer[:runs]
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(gross, quantity_per_year, out=gross)
            np.divide(gross, USD_PER_MUSD, out=gross)
        nonfinite = ~np.isfinite(gross)
        if nonfinite.any():
            run, column = np.argwhere(nonfinite)[0]
            value = gross[run, column].item()
            gross_error = ValueError(
                f"gross revenue is not finite in run {block_start + run}, period {column + 1}: {value!r}"
            )
            continue
        if schedule is None:
            requested = [[tax_policy(period, g) for period, g in enumerate(row, start=1)] for row in gross.tolist()]
            np.copyto(tax, np.array(requested, dtype=float).reshape(gross.shape))
        else:
            np.copyto(tax, schedule)
        np.copyto(tax, 0.0, where=tax < 0.0)
        np.copyto(tax, gross, where=gross < tax)
        np.subtract(gross, tax, out=accrued)
        # A zero counted revenue adds +0.0: ``discount``'s limit over a factor underflowed
        # to 0.0, and what -0.0 adds to a loop that starts from +0.0.
        zero = accrued == 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(accrued, factors, out=accrued, where=~zero)
        accrued[zero] = 0.0
        np.cumsum(accrued, axis=1, out=accrued)
        hit = accrued >= vpi
        expired = hit.any(axis=1)
        first_hit = hit.argmax(axis=1) if periods else 0
        stepped = np.where(expired, first_hit + 1, periods)
        final = accrued[np.arange(runs), stepped - 1] if periods else np.zeros(runs)
        if tax_error is None:
            in_run = np.arange(periods) < stepped[:, None]
            invalid = in_run & ~((0.0 <= tax) & (tax <= gross))
            if invalid.any():
                run, column = np.argwhere(invalid)[0]
                tax_error = _tax_error(tax[run, column].item(), gross[run, column].item())
            elif overflow_error is None:
                overflow = in_run & ~np.isfinite(accrued)
                if overflow.any():
                    run, column = np.argwhere(overflow)[0]
                    overflow_error = ValueError(
                        f"accrued PV overflows a float in run {block_start + run}, period {column + 1}"
                    )
        yield gross, tax, accrued, AccrualBatch(vpi, stepped, expired, final)
    error = gross_error or tax_error or overflow_error
    if error is not None:
        raise error


def accrue_concessions(
    vpi: float,
    price_paths: Iterable[Sequence[float]],
    quantity_per_year: float,
    announced_rate: Rate | float,
    tax_policy: TaxPolicy | dict[int, float] | float | None = None,
) -> AccrualBatch:
    """Accrue one concession per price path, streaming the paths in blocks.

    The paths may come from any iterable, a generator included, and must
    share one length; a path of another length raises ValueError when it is
    reached. They are consumed ``_BLOCK_CELLS // periods`` runs (at least
    one) at a time, and each block is accrued in place in a few fixed
    buffers, so memory does not grow with the number of runs; only each
    run's stop period, expiry flag and final accrued PV are kept.

    Every value equals what a loop of ``step_concession`` calls gives, bit
    for bit: gross, tax and counted revenue are the same IEEE operations, the
    discount factors are the same Python float powers, and ``cumsum`` adds
    each row left to right as the loop does. Taxes are clamped to [0, gross]
    with Python's ``max``/``min`` semantics. A callable or scheduled tax
    policy is evaluated for every period of every path, including periods
    after expiry.

    Raises ValueError, once every path is consumed, for the first of: a
    gross revenue that is not finite, as when price × quantity overflows; a
    tax outside [0, gross] (a negative price, or a NaN tax) at or before the
    run's stop period, as the loop does; an accrued PV that overflows a float
    by the run's stop period. Within each kind the lowest run, then the
    lowest period, is reported. An error raised by the iterable itself (a
    price path that cannot be generated) propagates at once and so comes
    before any of these. Since each block is accrued as it arrives, a
    callable tax policy may be evaluated on earlier blocks before a later
    block's non-finite gross revenue is found.
    """
    import numpy as np

    rate = as_rate(announced_rate).value
    stepped, expired, accrued_pv = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=bool)], [np.zeros(0)]
    for _, _, _, block in _accrual_blocks(vpi, price_paths, quantity_per_year, rate, tax_policy):
        stepped.append(block.stepped)
        expired.append(block.expired)
        accrued_pv.append(block.accrued_pv)
    return AccrualBatch(vpi, np.concatenate(stepped), np.concatenate(expired), np.concatenate(accrued_pv))


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
    periods after expiry. The run is the kernel of ``accrue_concessions`` on
    a single path, with its rows built out.
    """
    import numpy as np

    state = new_concession(vpi, announced_rate)
    # One path is one block, so its views stay whole once the generator is drained.
    ((gross, tax, accrued, batch),) = _accrual_blocks(
        vpi, [price_path], quantity_per_year, state.announced_rate.value, tax_policy
    )
    stepped = int(batch.stepped[0])
    prices = np.asarray(price_path, dtype=float)[:stepped].tolist()
    gross, tax, accrued = (column[0, :stepped].tolist() for column in (gross, tax, accrued))
    status = ConcessionStatus.EXPIRED if batch.expired[0] else ConcessionStatus.ACTIVE
    rows = tuple(
        OutcomeRow(period, price, g, t, g - t, pv, (status if period == stepped else ConcessionStatus.ACTIVE).value)
        for period, (price, g, t, pv) in enumerate(zip(prices, gross, tax, accrued), start=1)
    )
    final_state = state._replace(
        current_year=stepped,
        accrued_pv=batch.final_accrued(0),
        status=status,
    )
    return ConcessionOutcome(final_state=final_state, duration=batch.duration(0), rows=rows, warning=batch.warning(0))
