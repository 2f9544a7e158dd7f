"""``analyze`` on drawn corpora against the brute-force oracle, cell by cell.

Each example draws 1-12 mines of realistic size and a market, writes them as
files and runs ``analyze`` under both presets and one custom rate. The
draws vary what the pipeline branches on:

- the opening year, inside and outside the exploration cohort window
  (1984-1999, five years before opening), and now and then after the first
  year on file, which validation rejects;
- pre-history rows, including none, and the Escondida tax rule with or
  without a pre-history ``taxes_paid``; now and then a reported row blanked
  into a pre-history row after the first reported year, which validation
  rejects;
- zero-production and zero-cost baseline years, and (rarely) a mine with
  pre-history but no producing year in the 2001-2005 baseline;
- a market with or without exploration spend in 1984-1989, and now and then
  starting after 1984, so that some pre-history years lie outside it.

Validation's verdict is the run's. A corpus that ``validate_dataset``
rejects exits with code 1, prints the report's warnings and every error as
a ``[rule]``-tagged ``error:`` line, and writes nothing. Every other corpus
exits with code 0, and every summary cell equals ``oracle.pipeline_brute``
at 1e-9 relative.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from minerent import MarketSeries, MarketYear, MineDataset, MineYearRecord, PhysicalYear, validate_dataset
from minerent.cli import main
from minerent.data_model import MARKET_COLUMNS, write_mine_dataset

from oracle import pipeline_brute, rel_close

YEARS = range(1984, 2013)
BASELINE = range(2001, 2006)
PRESET_RATES = {"base": 0.069 + 0.91 * 0.03889 + 0.0173, "conservative": 0.069 + 2.0 * 0.03889 + 0.0411}


@st.composite
def mines(draw, mine_id: str) -> MineDataset:
    """The years and rules are drawn; the amounts and rare cases come from a drawn seed, which keeps examples fast."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    first_reported = draw(st.integers(YEARS[0], YEARS[-1]))
    last = draw(st.integers(max(first_reported, BASELINE[0]), YEARS[-1]))
    # A mine first reporting after the baseline has pre-history only rarely: it cannot be backfilled.
    late_history = first_reported > BASELINE[-1] and rng.random() < 0.05
    room = min(12, first_reported - YEARS[0]) if first_reported <= BASELINE[-1] or late_history else 0
    first = first_reported - draw(st.integers(0, room))
    # Opening before 1979 or after 2004 puts no spend year of 1984-1999 in the mine's cohort window;
    # opening after the first year on file is a validation error.
    opening = draw(st.integers(first + 1, YEARS[-1] + 1)) if rng.random() < 0.03 else first - draw(st.integers(0, 15))
    sometimes_zero = lambda low, high: 0.0 if rng.random() < 0.15 else rng.uniform(low, high)
    records = []
    for year in range(first_reported, last + 1):
        production, revenue = sometimes_zero(1e4, 1e6), rng.uniform(10.0, 5000.0)
        operating_cost = 0.0 if rng.random() < 0.15 else revenue * rng.uniform(0.2, 1.1)
        admin = operating_cost * rng.uniform(0.02, 0.1)
        pretax = revenue - operating_cost - admin + rng.uniform(-50.0, 50.0)
        records.append(
            MineYearRecord(
                year,
                revenue,
                operating_cost,
                admin,
                pretax,
                rng.uniform(10.0, 300.0),  # depreciation and amortization
                0.0 if rng.random() < 0.8 else rng.uniform(1.0, 500.0),  # capital paid in
                max(pretax, 0.0) * rng.uniform(0.1, 0.4),  # taxes
                rng.uniform(10.0, 300.0),  # fixed asset additions
                rng.uniform(-100.0, 100.0),  # net loan payments
                production,
                production * rng.uniform(0.8, 1.2),
            )
        )
    history = []
    for year in range(first, first_reported):
        production = sometimes_zero(1e4, 1e6)
        taxes = None if rng.random() < 0.5 else rng.uniform(0.0, 500.0)
        history.append(PhysicalYear(year, production, production * rng.uniform(0.8, 1.2), taxes))
    if len(records) > 1 and rng.random() < 0.03:
        blanked = records.pop(rng.randrange(1, len(records)))
        history = sorted([*history, PhysicalYear(blanked.year, blanked.production, blanked.exports)])
    return MineDataset(
        mine_id=mine_id,
        opening_year=opening,
        capital_paid_first_year=rng.uniform(10.0, 5000.0),
        records=tuple(records),
        escondida_tax_rule=draw(st.booleans()),
        physical_history=tuple(history),
    )


@st.composite
def corpora(draw) -> tuple[list[MineDataset], MarketSeries]:
    drawn = [draw(mines(f"m{i:02d}")) for i in range(draw(st.integers(1, 12)))]
    early_spend = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    start = YEARS[0] if rng.random() < 0.9 else rng.randint(YEARS[0] + 1, 1998)
    entries = tuple(
        MarketYear(
            year,
            rng.uniform(1000.0, 9000.0),
            rng.uniform(2e4, 3e5),
            rng.uniform(0.0, 0.003) if early_spend or year >= 1990 else 0.0,
        )
        for year in range(start, YEARS[-1] + 1)
    )
    return drawn, MarketSeries(entries=entries, fund_rate=draw(st.floats(0.0, 0.1)))


def run_analyze(mines: list[MineDataset], market: MarketSeries, custom_rate: float):
    """Exit code, stderr lines and the parsed summary JSON (None when no output directory was made) of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "mines").mkdir()
        for mine in mines:
            write_mine_dataset(mine, root / "mines" / f"{mine.mine_id}.csv")
        rows = [",".join(MARKET_COLUMNS)] + [",".join(map(repr, entry)) for entry in market.entries]
        (root / "market.csv").write_text(f"fund_rate={market.fund_rate!r}\n" + "\n".join(rows) + "\n")
        argv = ["analyze", "--mines", str(root / "mines"), "--market", str(root / "market.csv")]
        argv += ["--rate", "base", "--rate", "conservative", "--rf", repr(custom_rate)]
        argv += ["--beta", "0", "--erp", "0", "--country", "0", "--out", str(root / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        out = root / "out"
        summary = json.loads((out / "summary_cuadro1.json").read_text()) if out.exists() else None
        return code, err.getvalue().splitlines(), summary


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(corpus=corpora(), custom_rate=st.floats(0.01, 0.3))
def test_every_summary_cell_matches_the_oracle(corpus, custom_rate):
    mines, market = corpus
    code, err, summary = run_analyze(mines, market, custom_rate)
    report = validate_dataset(mines, market)
    if report.errors:
        event("rejected by validation")
        assert code == 1 and summary is None, err
        assert err == [f"warning: {issue.locator}: {issue.message}" for issue in report.warnings] + [
            f"error: {issue.locator}: [{issue.rule}] {issue.message}" for issue in report.errors
        ]
        return
    event("compared with the oracle")
    assert code == 0, err
    rows = {row["mine_id"]: row for row in summary}
    assert sorted(rows) == sorted(mine.mine_id for mine in mines)
    for label, rate in [*PRESET_RATES.items(), ("custom", custom_rate)]:
        for mine_id, want in pipeline_brute(mines, market, rate, valuation_year=2012).items():
            row, where = rows[mine_id], f"{mine_id}@{label}"
            assert row[f"momento_x_{label}"] == want["momento_x"], where
            assert rel_close(row[f"rent_pv_at_t0_{label}"], want["rent_pv"], rel=1e-9, abs_tol=1e-9), where
            assert rel_close(row[f"rent_at_2012_{label}"], want["rent_forward"], rel=1e-9, abs_tol=1e-9), where
