"""Shared fixtures: the shipped 3-mine corpus, dataset builders, and the suite's one Hypothesis profile."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from minerent import (
    MarketSeries,
    MarketYear,
    MineDataset,
    MineYearRecord,
    load_market_series,
    load_mine_dataset,
)
from minerent.data_model import MINE_COLUMNS

DATA_DIR = Path(__file__).parent / "data"
MINES_DIR = DATA_DIR / "mines"
MARKET_FILE = DATA_DIR / "market.csv"

# Every run draws the same examples, so a test's verdict never hangs on a draw; a test sets only max_examples.
settings.register_profile(
    "minerent",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("minerent")


def make_record(
    year,
    revenue=100.0,
    operating_cost=40.0,
    admin_sales_expense=4.0,
    pretax_result=56.0,
    depreciation_amortization=10.0,
    capital_paid_increase=0.0,
    taxes_paid=8.0,
    fixed_asset_additions=12.0,
    net_loan_payments=5.0,
    production=100_000.0,
    exports=None,
    reconstructed=False,
) -> MineYearRecord:
    return MineYearRecord(
        year=year,
        revenue=revenue,
        operating_cost=operating_cost,
        admin_sales_expense=admin_sales_expense,
        pretax_result=pretax_result,
        depreciation_amortization=depreciation_amortization,
        capital_paid_increase=capital_paid_increase,
        taxes_paid=taxes_paid,
        fixed_asset_additions=fixed_asset_additions,
        net_loan_payments=net_loan_payments,
        production=production,
        exports=production if exports is None else exports,
        reconstructed=reconstructed,
    )


def make_mine(
    mine_id="testmine",
    opening_year=1995,
    capital_paid_first_year=500.0,
    records=(),
    physical_history=(),
    escondida_tax_rule=False,
) -> MineDataset:
    records = tuple(sorted(records, key=lambda r: r.year))
    return MineDataset(
        mine_id=mine_id,
        opening_year=opening_year,
        capital_paid_first_year=capital_paid_first_year,
        records=records,
        escondida_tax_rule=escondida_tax_rule,
        physical_history=tuple(sorted(physical_history, key=lambda p: p.year)),
    )


def set_cells(text: str, column: str, value: str, years) -> str:
    """A mine file's text with ``column`` set to ``value`` in the rows of ``years``."""
    index = MINE_COLUMNS.index(column)
    lines = text.splitlines()
    for at, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) == len(MINE_COLUMNS) and fields[0].isdigit() and int(fields[0]) in years:
            fields[index] = value
            lines[at] = ",".join(fields)
    return "\n".join(lines) + "\n"


def read_outcome_rows(out: Path) -> list[dict]:
    """Replication 0's rows from ``concession_outcome.csv``, keyed by the header's columns.

    ``period`` is an int and ``status`` a string; every other cell is the ``repr`` of a float, which
    ``float`` reads back exactly.
    """
    header, *lines = (out / "concession_outcome.csv").read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines:
        period, *floats, status = line.split(",")
        rows.append(dict(zip(header.split(","), (int(period), *map(float, floats), status))))
    return rows


def make_market(
    years=range(1984, 2013),
    price=2000.0,
    gdp=50_000.0,
    exploration_pct=0.004,
    fund_rate=0.0507,
) -> MarketSeries:
    entries = tuple(
        MarketYear(
            year=year,
            copper_price=price(year) if callable(price) else price,
            gdp=gdp(year) if callable(gdp) else gdp,
            exploration_spend_pct_gdp=exploration_pct(year) if callable(exploration_pct) else exploration_pct,
        )
        for year in years
    )
    return MarketSeries(entries=entries, fund_rate=fund_rate)


@pytest.fixture(scope="session")
def corpus_market() -> MarketSeries:
    return load_market_series(MARKET_FILE)


@pytest.fixture(scope="session")
def corpus_mines() -> list[MineDataset]:
    return [load_mine_dataset(path) for path in sorted(MINES_DIR.glob("*.csv"))]
