"""Backfill pre-history mine years and prorate cohort exploration spend.

Reconstruction fills the financial columns of physical-history rows:
revenue is the cheaper of price*production and price*exports, unit cost and
the admin/sales ratio come from a baseline window of reported years, and
the remaining line items take baseline averages. Exploration spend is
prorated across mines within five years of their initial investment; the
shares do not depend on any rate, and ``valuation.initial_investment``
capitalizes them forward to each mine's opening year.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .data_model import DEFAULT_BASELINE_WINDOW, USD_PER_MUSD, MarketSeries, MarketYear, MineDataset, MineYearRecord
from .data_model import ValidationIssue, plain_sum, validate_dataset

DEFAULT_IMPUTATION_WINDOW = (1984, 1999)
DEFAULT_COHORT_WINDOW_YEARS = 5
PRIVATE_EXPLORATION_SHARE = 2.0 / 3.0


class ReconstructionError(Exception):
    """Reconstruction refused its inputs."""


class InvalidDatasetError(ReconstructionError):
    """``validate_dataset`` rejected the inputs: the message is the first error, ``report`` holds every issue."""


class BaselineStats(NamedTuple):
    """Averages over the baseline window used to backfill earlier years."""

    avg_unit_cost: float  # million USD per tonne
    gav_ratio: float  # admin/sales expense over operating cost
    avg_nonoperating: float
    avg_fixed_asset_additions: float
    avg_dep_amort: float
    avg_net_loan_payments: float


class ExplorationImputation(NamedTuple):
    """Private exploration spend split among the cohort: rate-free.

    ``yearly_allocations`` maps each allocated spend year, ascending, to its
    shares by mine id; ``initial_investment(mine, exploration, rate)``
    capitalizes a mine's shares to its opening year.
    """

    yearly_allocations: dict[int, dict[str, float]]
    total_private_spend: float
    warnings: tuple[str, ...] = ()


def _mean(values: Iterable[float]) -> float:
    """Exactly rounded sum over the count: what ``statistics.fmean`` computes."""
    values = list(values)
    return math.fsum(values) / len(values)


def compute_baseline_stats(records: tuple[MineYearRecord, ...] | list[MineYearRecord]) -> BaselineStats:
    """Per-field means over the reported years inside ``DEFAULT_BASELINE_WINDOW``.

    Years with zero production are excluded from unit-cost averaging, and
    zero-cost years from the admin/sales ratio. Raises ReconstructionError
    when no year in the window has production > 0, which ``validate_dataset``
    rejects for a mine with pre-history.
    """
    window = DEFAULT_BASELINE_WINDOW
    usable = [rec for rec in records if window[0] <= rec.year <= window[1]]
    producing = [rec for rec in usable if rec.production > 0]
    if not producing:
        raise ReconstructionError(f"no year with production > 0 in baseline window {window}")

    with_cost = [rec for rec in usable if rec.operating_cost > 0]
    return BaselineStats(
        avg_unit_cost=_mean(rec.operating_cost / rec.production for rec in producing),
        gav_ratio=_mean(rec.admin_sales_expense / rec.operating_cost for rec in with_cost)
        if with_cost
        else 0.0,
        avg_nonoperating=_mean(
            rec.pretax_result - (rec.revenue - rec.operating_cost - rec.admin_sales_expense)
            for rec in usable
        ),
        avg_fixed_asset_additions=_mean(rec.fixed_asset_additions for rec in usable),
        avg_dep_amort=_mean(rec.depreciation_amortization for rec in usable),
        avg_net_loan_payments=_mean(rec.net_loan_payments for rec in usable),
    )


def _reconstruct_years(
    mine: MineDataset, entries: dict[int, MarketYear], audit: list[str] | None
) -> list[MineYearRecord]:
    """One reconstructed record per row of the mine's physical history; the audit formats its baseline once."""
    baseline = compute_baseline_stats(mine.records)
    if audit is not None:
        unit_cost, gav_ratio, nonoperating, fixed_assets, dep_amort, loans = map(repr, baseline)
    rebuilt = []
    for phys in mine.physical_history:
        price = entries[phys.year].copper_price
        by_production = price * phys.production / USD_PER_MUSD
        by_exports = price * phys.exports / USD_PER_MUSD
        revenue = min(by_production, by_exports)
        operating_cost = baseline.avg_unit_cost * phys.production
        admin = baseline.gav_ratio * operating_cost
        operating_result = revenue - operating_cost - admin
        pretax = operating_result + baseline.avg_nonoperating
        if mine.escondida_tax_rule and phys.taxes_paid is not None:
            taxes = phys.taxes_paid
            tax_rule = "actual payment kept (escondida tax rule)"
        else:
            taxes = 0.0
            tax_rule = "zeroed"

        if audit is not None:
            who, cost = f"{mine.mine_id} {phys.year}", repr(operating_cost)
            audit.extend(
                [
                    f"{who} revenue: min(price*production, price*exports) = "
                    f"min({by_production!r}, {by_exports!r}) -> {revenue!r}",
                    f"{who} operating_cost: avg_unit_cost*production = {unit_cost}*{phys.production!r} -> {cost}",
                    f"{who} admin_sales_expense: gav_ratio*operating_cost = {gav_ratio}*{cost} -> {admin!r}",
                    f"{who} pretax_result: operating result + avg nonoperating = "
                    f"{operating_result!r} + {nonoperating} -> {pretax!r}",
                    f"{who} dep_amort: baseline average -> {dep_amort}",
                    f"{who} fixed_asset_additions: baseline average -> {fixed_assets}",
                    f"{who} net_loan_payments: baseline average -> {loans}",
                    f"{who} taxes_paid: {tax_rule} -> {taxes!r}",
                ]
            )
        # The money fields in MINE_COLUMNS order; a reconstructed year has no paid-in capital increase.
        money = revenue, operating_cost, admin, pretax, baseline.avg_dep_amort, 0.0, taxes
        money += baseline.avg_fixed_asset_additions, baseline.avg_net_loan_payments
        rebuilt.append(MineYearRecord(phys.year, *money, phys.production, phys.exports, reconstructed=True))
    return rebuilt


def reconstruct_all(
    mines: Sequence[MineDataset],
    market: MarketSeries,
    audit: list[str] | None = None,
) -> tuple[list[MineDataset], tuple[ValidationIssue, ...]]:
    """Validate every mine and the market in one pass, then backfill each mine's physical history.

    Returns the completed mines, in order, and the validation warnings. Any validation error raises
    :class:`InvalidDatasetError` carrying the report; this is the only refusal, since every mine that
    validation accepts can be backfilled, and every value a backfill builds is finite.
    """
    report = validate_dataset(mines, market)
    if report.errors:
        first = report.errors[0]
        exc = InvalidDatasetError(f"{first.locator}: [{first.rule}] {first.message}")
        exc.report = report
        raise exc
    entries = {entry.year: entry for entry in market.entries}
    completed = []
    for mine in mines:
        if mine.physical_history:
            rebuilt = _reconstruct_years(mine, entries, audit)
            merged = tuple(sorted(rebuilt + list(mine.records), key=lambda rec: rec.year))
            mine = mine._replace(records=merged, physical_history=())
        completed.append(mine)
    return completed, report.warnings


def reconstruct_dataset(mine: MineDataset, market: MarketSeries, audit: list[str] | None = None) -> MineDataset:
    """Backfill every physical-history year of one mine: :func:`reconstruct_all` on ``[mine]``."""
    return reconstruct_all([mine], market, audit)[0][0]


def impute_exploration(
    market: MarketSeries,
    cohort: list[MineDataset] | tuple[MineDataset, ...],
    window: tuple[int, int] = DEFAULT_IMPUTATION_WINDOW,
) -> ExplorationImputation:
    """Prorate national exploration spend across the mine cohort.

    For each spend year, the private share of national spend (GDP times the
    exploration share) is split among mines within the cohort window of
    their opening year, in proportion to mean production. No rate enters:
    ``initial_investment`` capitalizes the shares. A spend year with no
    eligible mine is left unallocated, with a warning.
    """
    mines = sorted(cohort, key=lambda m: m.mine_id)
    mean_production = {m.mine_id: m.mean_production() for m in mines}
    yearly: dict[int, dict[str, float]] = {}
    warnings: list[str] = []
    total_private = 0.0

    for entry in sorted(market.entries, key=lambda ent: ent.year):
        year = entry.year
        if not window[0] <= year <= window[1]:
            continue
        national = entry.gdp * entry.exploration_spend_pct_gdp
        private = PRIVATE_EXPLORATION_SHARE * national
        total_private += private
        eligible = [m for m in mines if m.opening_year - DEFAULT_COHORT_WINDOW_YEARS <= year <= m.opening_year]
        pool = plain_sum(mean_production[m.mine_id] for m in eligible)
        if not eligible or pool <= 0:
            warnings.append(f"spend-year {year}: no eligible mine; {private!r} left unallocated")
            continue
        yearly[year] = {m.mine_id: private * mean_production[m.mine_id] / pool for m in eligible}

    return ExplorationImputation(
        yearly_allocations=yearly,
        total_private_spend=total_private,
        warnings=tuple(warnings),
    )
