"""RVP trajectories, momento x detection, and rent valuation.

The RVP of a year is the cumulative discounted cash flow up to that year
minus the initial investment; the first strictly positive value marks
momento x, the year the investment is repaid in present value. Rent kept
at the horizon is valued both at t=0 (the final RVP, floored at zero) and
compounded forward to a valuation year at the sovereign-fund rate.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

from .data_model import RATE_MAX, VALUATION_YEAR_MAX, DiscountSpec, MarketSeries, MineDataset, ValidationIssue
from .reconstruction import ExplorationImputation, impute_exploration, reconstruct_all
from .reconstruction import reconstruct_dataset  # noqa: F401  unused; the benchmark's tracer wraps it (ROADMAP item 1)
from .valuation import (
    CashFlowSeries,
    InitialInvestment,
    Rate,
    as_rate,
    compound,
    discount,
    discount_rate,
    initial_investment,
    mine_cash_flows,
)

# Strictly-positive detection threshold: exact payback is not appropriation.
MOMENTO_TOLERANCE = 1e-9

DEFAULT_VALUATION_YEAR = 2012


class RvpSeries(NamedTuple):
    """Per-year rent-in-present-value trajectory for one mine at one rate."""

    points: tuple[tuple[int, float], ...]
    momento_x: int | None
    rent_pv: float
    rent_forward: float = 0.0


def rvp_series(flows: CashFlowSeries, investment: InitialInvestment, rate: Rate | float) -> RvpSeries:
    """Cumulative discounted cash flow minus the initial investment, per year."""
    r, base, total = as_rate(rate).value, flows.base_year, investment.total
    cumulative = 0.0
    points: list[tuple[int, float]] = []
    for year, amount in flows.flows:
        cumulative += discount(amount, r, year - base)
        points.append((year, cumulative - total))
    final = points[-1][1] if points else 0.0
    series = RvpSeries(points=tuple(points), momento_x=None, rent_pv=max(final, 0.0))
    return series._replace(momento_x=momento_x(series))


def momento_x(series: RvpSeries) -> int | None:
    """First year whose RVP is strictly positive; None when there is none."""
    for year, value in series.points:
        if value > MOMENTO_TOLERANCE:
            return year
    return None


def rent_forward_value(
    flows: CashFlowSeries,
    x: int | None,
    fund_rate: Rate | float,
    valuation_year: int = DEFAULT_VALUATION_YEAR,
) -> float:
    """Nominal flows after year ``x``, compounded forward to ``valuation_year``.

    Returns 0 when ``x`` is absent (no rent appropriated) or when no flow
    lies strictly after ``x``. Raises ValueError for a valuation year before
    the last flow year, whatever ``x`` is.
    """
    if flows.flows and valuation_year < (last := flows.flows[-1][0]):
        raise ValueError(f"valuation_year {valuation_year} precedes last flow year {last}")
    if x is None:
        return 0.0
    rate = as_rate(fund_rate).value
    return sum(
        (
            amount * compound(rate, valuation_year - year)
            for year, amount in flows.flows
            if year > x
        ),
        start=0.0,
    )


def analyze_mine(
    mine: MineDataset,
    market: MarketSeries,
    rate: Rate | float,
    exploration: ExplorationImputation,
    valuation_year: int = DEFAULT_VALUATION_YEAR,
) -> RvpSeries:
    """Single-mine pipeline on a reconstructed mine: invest, discount, value rent.

    Raises ValueError when the mine still has physical history (run
    ``reconstruct_all`` or ``reconstruct_dataset`` on it first).
    """
    if mine.physical_history:
        raise ValueError(f"{mine.mine_id}: physical history is not reconstructed")
    flows = mine_cash_flows(mine)
    investment = initial_investment(mine, exploration, rate)
    series = rvp_series(flows, investment, rate)
    forward = rent_forward_value(flows, series.momento_x, market.fund_rate, valuation_year)
    return series._replace(rent_forward=forward)


class SensitivityReport(NamedTuple):
    """Per-mine results under each labeled discount rate, with the inputs' validation warnings."""

    rate_labels: tuple[str, ...]
    mine_ids: tuple[str, ...]
    series: dict[tuple[str, str], RvpSeries]  # (mine_id, rate_label) -> series
    valuation_year: int
    warnings: tuple[ValidationIssue, ...] = ()

    def cell(self, mine_id: str, rate_label: str) -> RvpSeries:
        return self.series[(mine_id, rate_label)]

    @property
    def summary_columns(self) -> dict[str, tuple[str, str, str]]:
        """Each rate label's three summary column names: momento x, rent at t=0, rent at the valuation year."""
        return {
            label: (f"momento_x_{label}", f"rent_pv_at_t0_{label}", f"rent_at_{self.valuation_year}_{label}")
            for label in self.rate_labels
        }


def sensitivity_report(
    mines: Sequence[MineDataset],
    market: MarketSeries,
    specs: Sequence[tuple[str, DiscountSpec | Rate | float]],
    valuation_year: int = DEFAULT_VALUATION_YEAR,
    audit: list[str] | None = None,
) -> SensitivityReport:
    """Run the whole pipeline under each labeled rate, after ``reconstruct_all`` validates and reconstructs once.

    The cohort's exploration shares are imputed once; ``initial_investment`` capitalizes them at each
    scenario's rate, so the initial investment varies across columns. The arguments are checked
    before any mine is validated: no labeled rate, a repeated label, a resolved rate outside
    [0, ``RATE_MAX``], or a valuation year after ``VALUATION_YEAR_MAX`` raises ValueError. Then
    ``reconstruct_all`` may raise :class:`InvalidDatasetError`, and a valuation year before any
    validated mine's last reported year raises ValueError; with the inputs validated, every result
    is finite. The result carries the validation warnings.
    """
    if not specs:
        raise ValueError("at least one labeled rate is required")
    rates = {label: discount_rate(s) if isinstance(s, DiscountSpec) else as_rate(s) for label, s in specs}
    if len(rates) != len(specs):
        raise ValueError(f"duplicate rate labels: {[label for label, _ in specs]}")
    for label, rate in rates.items():
        if not 0 <= rate.value <= RATE_MAX:
            raise ValueError(f"discount rate {label!r} must lie in [0, {RATE_MAX:g}], got {rate.value!r}")
    if valuation_year > VALUATION_YEAR_MAX:
        raise ValueError(f"valuation_year {valuation_year} is after {VALUATION_YEAR_MAX}")

    full_mines, warnings = reconstruct_all(mines, market, audit)
    last = max((rec.year for mine in full_mines for rec in mine.records), default=valuation_year)
    if valuation_year < last:
        raise ValueError(f"valuation_year {valuation_year} precedes last flow year {last}")
    exploration = impute_exploration(market, full_mines)
    series: dict[tuple[str, str], RvpSeries] = {}
    for label, rate in rates.items():
        for mine in full_mines:
            series[(mine.mine_id, label)] = analyze_mine(mine, market, rate, exploration, valuation_year)
    return SensitivityReport(
        rate_labels=tuple(rates),
        mine_ids=tuple(m.mine_id for m in full_mines),
        series=series,
        valuation_year=valuation_year,
        warnings=warnings,
    )


def summary_rows(report: SensitivityReport) -> list[dict[str, object]]:
    """Flatten the report into one row per mine, columns per rate label; the rows share their key strings."""
    columns = report.summary_columns
    rows: list[dict[str, object]] = []
    for mine_id in sorted(report.mine_ids):
        row: dict[str, object] = {"mine_id": mine_id}
        for label, names in columns.items():
            cell = report.cell(mine_id, label)
            row.update(zip(names, (cell.momento_x, cell.rent_pv, cell.rent_forward)))
        rows.append(row)
    return rows


def write_summary_table(report: SensitivityReport, path: str | Path) -> None:
    """Write the summary as delimited text, every momento x column first; absent momento x prints as '-'."""
    rows = summary_rows(report)
    columns = ["mine_id", *chain.from_iterable(zip(*report.summary_columns.values()))]

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row[col]) for col in columns) + "\n")


def write_plot_data(series: RvpSeries, path: str | Path) -> None:
    """Two-column year/rvp file for external plotting."""
    lines = ["year,rvp", *(f"{year},{value!r}" for year, value in series.points)]
    with open(path, "wb") as fh:  # ASCII text; a binary file has no text layer to build
        fh.write(("\n".join(lines) + "\n").encode())
