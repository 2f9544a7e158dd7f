"""``simulate-concession`` and ``auction`` on drawn scenarios against the brute-force oracle.

Each example draws a scenario, runs both commands on it through ``main`` and
recomputes what they should give with ``oracle.accrue_brute`` and
``oracle.bid_brute``. The draws vary:

- the price path: seeded geometric Brownian motion or an explicit
  ``[price_path]``, 1-300 periods;
- the voluntary tax: a constant ``tax_per_year`` or a ``[tax_schedule]``;
- the announced rate, in (-0.9, 1], and 1-40 replications;
- the VPI: a ``vpi`` line, or 1-4 bidders, whose smallest bid is the VPI.

Seeded replication i runs on ``minerent.generate_price_path`` with seed
``seed + i``; an explicit path is every replication's. Every duration must
match the oracle's exactly, and replication 0's rows, its final accrued PV
and every bid at 1e-9 relative. A scenario the oracle refuses (no bidder can
bid, a bid overflows a float, or an accrued PV does) must exit 1 with exactly
one ``error:`` line and write nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import tempfile
from pathlib import Path
from typing import NamedTuple

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from minerent import PricePathParams, generate_price_path
from minerent.cli import main

from conftest import read_outcome_rows
from oracle import accrue_brute, bid_brute, rel_close

rates = st.floats(-0.9, 1.0, exclude_min=True)


class Drawn(NamedTuple):
    announced_rate: float
    quantity: float
    replications: int
    vpi: float | None
    bidders: tuple[tuple[str, float, float], ...]  # (bidder_id, i0, cost_of_capital)
    path: tuple[float, ...] | None  # the explicit path; None for a seeded one
    gbm: tuple[float, float, float, int, int]  # initial_price, drift, volatility, horizon, seed
    tax: float | dict[int, float]

    def text(self) -> str:
        lines = [f"announced_rate={self.announced_rate!r}", f"quantity_t_per_year={self.quantity!r}"]
        lines.append(f"replications={self.replications}")
        if self.vpi is not None:
            lines.append(f"vpi={self.vpi!r}")
        if self.path is None:
            keys = ("initial_price", "drift", "volatility", "horizon", "seed")
            lines += [f"{key}={value!r}" for key, value in zip(keys, self.gbm)]
        if isinstance(self.tax, dict):
            lines += ["[tax_schedule]", "period,tax", *(f"{period},{tax!r}" for period, tax in self.tax.items())]
        else:
            lines.append(f"tax_per_year={self.tax!r}")
        if self.bidders:
            lines += ["[bidders]", "bidder_id,i0,cost_of_capital"]
            lines += [f"{bidder_id},{i0!r},{cost!r}" for bidder_id, i0, cost in self.bidders]
        if self.path is not None:
            lines += ["[price_path]", "period,price_usd_per_t"]
            lines += [f"{period},{price!r}" for period, price in enumerate(self.path, start=1)]
        return "\n".join(lines) + "\n"


@st.composite
def scenarios(draw) -> Drawn:
    """The shape is drawn; a path's prices and a schedule's taxes come from a drawn seed, which keeps examples fast."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    horizon = draw(st.integers(1, 300))
    path = None
    if draw(st.booleans()):
        path = tuple(0.0 if rng.random() < 0.05 else rng.uniform(1.0, 1e4) for _ in range(horizon))
    gbm = (draw(st.floats(1.0, 1e4)), draw(st.floats(-0.5, 0.5)), draw(st.floats(0.0, 1.0)), horizon)
    gbm += (draw(st.integers(0, 2**32)),)
    tax = draw(st.floats(-10.0, 1e3))
    if draw(st.booleans()):  # periods past the path too, which nothing reads
        tax = {period: rng.uniform(-5.0, 50.0) for period in range(1, horizon + 3) if rng.random() < 0.3}
    bidders = ()
    if draw(st.booleans()):
        count = draw(st.integers(1, 4))
        bidders = tuple((f"b{i}", draw(st.floats(1e-3, 1e5)), draw(rates)) for i in range(count))
    return Drawn(
        announced_rate=draw(rates),
        quantity=draw(st.floats(0.0, 1e6)),
        replications=draw(st.integers(1, 40)),
        vpi=None if bidders else draw(st.floats(1e-3, 1e5)),
        bidders=bidders,
        path=path,
        gbm=gbm,
        tax=tax,
    )


def oracle_bids(s: Drawn) -> dict[str, float | None]:
    """Each bidder's ``bid_brute`` bid on the forecast: the explicit path, or initial_price * exp(drift * t)."""
    initial_price, drift, _, horizon, _ = s.gbm
    forecast = s.path or [initial_price * math.exp(drift * t) for t in range(horizon)]
    revenues = [price * s.quantity / 1e6 for price in forecast]
    return {bidder_id: bid_brute(revenues, i0, s.announced_rate, cost) for bidder_id, i0, cost in s.bidders}


def run(command: str, scenario: Path, out: Path) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--scenario", str(scenario), "--out", str(out)])
    return code, err.getvalue().splitlines()


def assert_refused(code: int, err: list[str], out: Path) -> None:
    assert code == 1 and len(err) == 1 and err[0].startswith("error: "), (code, err)
    assert not out.exists()


@settings(max_examples=60)
@given(s=scenarios())
# An LPVR tie: the winning bid equals the accrued PV at its payback period 19, so the concession expires there.
@example(
    Drawn(
        announced_rate=-0.71875,
        quantity=26.0,
        replications=1,
        vpi=None,
        bidders=(("b0", 26.0, -0.5), ("b1", 1.0, 0.0), ("b2", 1.0, 0.0), ("b3", 1.0, 0.0)),
        path=None,
        gbm=(1.0, 0.0, 0.0, 119, 0),
        tax=0.0,
    )
)
def test_every_duration_and_pv_matches_the_oracle(s):
    bids = oracle_bids(s)
    feasible = sorted((bid, bidder_id) for bidder_id, bid in bids.items() if bid is not None)
    auction_refused = bool(s.bidders) and (not feasible or not all(math.isfinite(bid) for bid, _ in feasible))
    vpi = feasible[0][0] if s.bidders and not auction_refused else s.vpi
    runs = []
    if not auction_refused:
        if s.path is not None:
            paths = [list(s.path)] * s.replications
        else:
            params = PricePathParams(*s.gbm)
            paths = [generate_price_path(params._replace(seed=params.seed + i)).tolist() for i in range(s.replications)]
        runs = [accrue_brute(vpi, path, s.quantity, s.announced_rate, s.tax) for path in paths]
    refused = auction_refused or not all(math.isfinite(rows[-1][5]) for _, rows in runs)

    with tempfile.TemporaryDirectory() as tmp:
        scenario, out, auction_out = Path(tmp) / "scenario.txt", Path(tmp) / "out", Path(tmp) / "auction"
        scenario.write_text(s.text())
        if s.bidders:
            code, err = run("auction", scenario, auction_out)
            if auction_refused:
                event("auction refused")
                assert_refused(code, err, auction_out)
            else:
                assert code == 0, err
                table = (auction_out / "auction_result.csv").read_text().splitlines()
                assert table[0] == "bidder_id,bid,winner"
                for line in table[1:]:
                    bidder_id, bid, winner = line.split(",")
                    want = bids[bidder_id]
                    assert (bid == "no-bid") if want is None else rel_close(float(bid), want), (line, want)
                    assert winner == ("true" if bidder_id == feasible[0][1] else "false"), (line, feasible)

        code, err = run("simulate-concession", scenario, out)
        if refused:
            event("simulate-concession refused")
            assert_refused(code, err, out)
            return
        event("compared with the oracle")
        assert code == 0, err
        outcome = json.loads((out / "concession_outcome.json").read_text())
        duration, rows = runs[0]
        assert outcome["duration"] == duration
        assert rel_close(outcome["vpi_target"], vpi) and rel_close(outcome["accrued_pv"], rows[-1][5])
        written = read_outcome_rows(out)
        assert len(written) == len(rows)
        for got, want in zip(written, rows):
            values = [got[key] for key in ("price", "gross_revenue", "voluntary_tax", "counted_revenue", "accrued_pv")]
            assert got["period"] == want[0] and all(map(rel_close, values, want[1:])), (got, want)
            assert got["status"] == ("expired" if got["period"] == duration else "active")
        if s.replications > 1:
            histogram = (out / "duration_histogram.csv").read_text().splitlines()
            assert histogram == ["replication,duration"] + [
                f"{i},{'' if d is None else d}" for i, (d, _) in enumerate(runs)
            ]
