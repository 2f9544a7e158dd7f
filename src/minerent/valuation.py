"""Discount-rate construction, annual project cash flow, initial investment, and present value."""

from __future__ import annotations

import math
from typing import NamedTuple

from .data_model import DiscountSpec, MineDataset, MineYearRecord, plain_sum

#: Named cost-of-capital configurations shipped with the engine.
PRESETS: dict[str, DiscountSpec] = {
    "base": DiscountSpec(risk_free=0.069, beta=0.91, equity_premium=0.03889, country_risk=0.0173),
    "conservative": DiscountSpec(risk_free=0.069, beta=2.0, equity_premium=0.03889, country_risk=0.0411),
}


class _RateFields(NamedTuple):
    value: float


class Rate(_RateFields):
    """Annual rate as a dimensionless fraction; must be finite and > -1."""

    __slots__ = ()

    def __new__(cls, value: float):
        if not math.isfinite(value) or value <= -1:
            raise ValueError(f"rate must be finite and > -1, got {value!r}")
        return super().__new__(cls, value)


def as_rate(rate: Rate | float) -> Rate:
    return rate if isinstance(rate, Rate) else Rate(float(rate))


class _CashFlowSeriesFields(NamedTuple):
    base_year: int
    flows: tuple[tuple[int, float], ...]


class CashFlowSeries(_CashFlowSeriesFields):
    """End-of-year flows anchored at ``base_year`` (the t=0 outlay date)."""

    __slots__ = ()

    def __new__(cls, base_year: int, flows):
        flows = tuple((int(year), float(amount)) for year, amount in flows)
        years = [year for year, _ in flows]
        if years != sorted(set(years)):
            raise ValueError("flow years must be strictly increasing")
        if years and years[0] < base_year:
            raise ValueError(f"base_year {base_year} is after first flow year {years[0]}")
        return super().__new__(cls, base_year, flows)


class _InitialInvestmentFields(NamedTuple):
    extraction: float
    exploration: float
    total: float


class InitialInvestment(_InitialInvestmentFields):
    """Up-front outlay: first-year paid-in capital plus imputed exploration."""

    __slots__ = ()

    def __new__(cls, extraction: float, exploration: float, total: float):
        if total != extraction + exploration:
            raise ValueError("total must equal extraction + exploration")
        if total <= 0:
            raise ValueError(f"total initial investment must be > 0, got {total}")
        return super().__new__(cls, extraction, exploration, total)


def compound(rate: float, t: int) -> float:
    """``(1 + rate) ** t`` as a plain float power, or infinity where that overflows a float."""
    try:
        return (1.0 + rate) ** t
    except OverflowError:
        return math.inf


def discount(amount: float, rate: float, t: int) -> float:
    """``amount / compound(rate, t)``, or its limit: a zero where the factor overflows and, where a
    negative rate underflows it to 0.0, 0.0 for a zero amount, else an infinity of the amount's sign.
    """
    factor = compound(rate, t)
    if factor:
        return amount / factor
    return math.copysign(math.inf, amount) if amount else 0.0


def discount_rate(spec: DiscountSpec) -> Rate:
    """Additive cost of capital: risk_free + beta * equity_premium + country_risk."""
    return Rate(spec.risk_free + spec.beta * spec.equity_premium + spec.country_risk)


def annual_cash_flow(record: MineYearRecord) -> float:
    """Project cash flow of one year.

    Adds the pre-tax result and depreciation/amortization; subtracts the
    paid-in capital increase, taxes, fixed-asset additions, and net loan
    payments.
    """
    return (
        record.pretax_result
        + record.depreciation_amortization
        - record.capital_paid_increase
        - record.taxes_paid
        - record.fixed_asset_additions
        - record.net_loan_payments
    )


def mine_cash_flows(mine: MineDataset) -> CashFlowSeries:
    """Annual cash flows of a mine, anchored at its opening year.

    The records of a loaded or reconstructed mine are sorted by year, without repeats, and validation holds
    them on or after the opening year, so ``_make`` builds the series without ``CashFlowSeries``' checks.
    """
    return CashFlowSeries._make((mine.opening_year, tuple((rec.year, annual_cash_flow(rec)) for rec in mine.records)))


def initial_investment(mine: MineDataset, exploration, rate: Rate | float) -> InitialInvestment:
    """First-year paid-in capital plus the mine's exploration shares, capitalized at ``rate`` to its opening year.

    From 0.0, each share is added in ascending spend year as ``share * compound(rate, opening_year - year)``;
    a mine that no spend year reached has no exploration.
    """
    r = as_rate(rate).value
    imputed = plain_sum(
        shares[mine.mine_id] * compound(r, mine.opening_year - year)
        for year, shares in exploration.yearly_allocations.items()
        if mine.mine_id in shares
    )
    extraction = mine.capital_paid_first_year
    return InitialInvestment(extraction=extraction, exploration=imputed, total=extraction + imputed)


def present_value(series: CashFlowSeries, rate: Rate | float) -> float:
    """Sum of flows discounted end-of-year: flow / (1+r)^(year - base_year), with ``discount``'s limits."""
    r = as_rate(rate).value
    return plain_sum(discount(amount, r, year - series.base_year) for year, amount in series.flows)
