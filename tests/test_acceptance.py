"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import numpy as np
import pytest

from minerent import (
    Bidder,
    CashFlowSeries,
    ConcessionStatus,
    DiscountSpec,
    InitialInvestment,
    PricePathParams,
    Rate,
    discount_rate,
    equilibrium_bid,
    expropriation_indemnity,
    generate_price_path,
    impute_exploration,
    new_concession,
    rvp_series,
    rent_forward_value,
    run_auction,
    sensitivity_report,
    simulate_concession,
    step_concession,
)
from minerent.cli import main

from conftest import MARKET_FILE, MINES_DIR, make_market, make_mine, make_record
from oracle import bid_brute, compound, pipeline_brute, rel_close


def report(number: int, name: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"acceptance criterion {number} ({name}): {verdict}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures[:5])


def test_criterion_1_discount_rate_reproduction():
    failures = []
    conservative = discount_rate(DiscountSpec(0.069, 2.0, 0.03889, 0.0411))
    if abs(conservative.value - 0.18788) >= 0.0001:
        failures.append(f"conservative rate {conservative.value} not within 1e-4 of 0.18788")

    base = discount_rate(DiscountSpec(0.069, 0.91, 0.03889, 0.0173))
    # the additive formula's exact output; rounds to 0.12169, not the 12.36%
    # sometimes quoted for these parameters (0.19 pp gap, see README)
    if base.value != 0.069 + 0.91 * 0.03889 + 0.0173:
        failures.append(f"base rate {base.value} is not the verbatim formula output")
    if round(base.value, 5) != 0.12169:
        failures.append(f"base rate {base.value} does not round to 0.12169")
    report(1, "discount-rate reproduction", failures)


def test_criterion_2_pipeline_matches_bruteforce_oracle(corpus_mines, corpus_market):
    failures = []
    specs = [("base", Rate(0.1216899)), ("conservative", Rate(0.18788))]
    engine = sensitivity_report(corpus_mines, corpus_market, specs, valuation_year=2012)
    for label, rate in specs:
        oracle = pipeline_brute(corpus_mines, corpus_market, rate.value, valuation_year=2012)
        for mine in corpus_mines:
            got = engine.cell(mine.mine_id, label)
            want = oracle[mine.mine_id]
            where = f"{mine.mine_id}@{label}"
            if len(got.points) != len(want["points"]):
                failures.append(f"{where}: point count {len(got.points)} != {len(want['points'])}")
                continue
            for (year, value), (year2, expected) in zip(got.points, want["points"]):
                if year != year2 or not rel_close(value, expected, rel=1e-9, abs_tol=1e-9):
                    failures.append(f"{where}: rvp[{year}] {value} != {expected}")
            if got.momento_x != want["momento_x"]:
                failures.append(f"{where}: momento {got.momento_x} != {want['momento_x']}")
            if not rel_close(got.rent_pv, want["rent_pv"], rel=1e-9, abs_tol=1e-9):
                failures.append(f"{where}: rent_pv {got.rent_pv} != {want['rent_pv']}")
            if not rel_close(got.rent_forward, want["rent_forward"], rel=1e-9, abs_tol=1e-9):
                failures.append(f"{where}: forward {got.rent_forward} != {want['rent_forward']}")
    report(2, "synthetic corpus vs brute-force oracle", failures)


def test_criterion_3_hand_arithmetic_golden_cases():
    failures = []

    flows = CashFlowSeries(2000, ((2001, 60.0), (2002, 60.5)))
    series = rvp_series(flows, InitialInvestment(100.0, 0.0, 100.0), Rate(0.10))
    for got, want in zip([v for _, v in series.points], [-45.4545, 4.5455]):
        if not rel_close(got, want, rel=1e-6, abs_tol=1e-4):
            failures.append(f"rvp point {got} != {want}")
    if series.momento_x != 2002:
        failures.append(f"momento {series.momento_x} != 2002")

    state = new_concession(20.0, Rate(0.10))
    steps = 0
    while state.active:
        state = step_concession(state, 11.0)
        steps += 1
    if steps != 3:
        failures.append(f"no-tax duration {steps} != 3")

    state = new_concession(20.0, Rate(0.10))
    steps = 0
    while state.active:
        state = step_concession(state, 11.0, voluntary_tax=5.0)
        steps += 1
    if steps != 5:
        failures.append(f"taxed duration {steps} != 5")

    forward = rent_forward_value(CashFlowSeries(2009, ((2010, 100.0),)), 2009, 0.0507, 2012)
    if not rel_close(forward, 110.397049, rel=1e-6):
        failures.append(f"forward value {forward} != 110.397")
    report(3, "hand-arithmetic golden cases", failures)


N_PROPERTY = 1000


def test_criterion_4a_rvp_monotone_in_rate():
    rng = np.random.default_rng(2024_04_01)
    failures = []
    for case in range(N_PROPERTY):
        n = int(rng.integers(1, 31))
        amounts = rng.uniform(0.0, 400.0, size=n)
        outlay = float(rng.uniform(1.0, 800.0))
        investment = InitialInvestment(outlay, 0.0, outlay)
        lo, hi = sorted(rng.uniform(0.0, 0.6, size=2))
        flows = CashFlowSeries(2000, tuple((2001 + i, float(a)) for i, a in enumerate(amounts)))
        low = rvp_series(flows, investment, Rate(float(lo)))
        high = rvp_series(flows, investment, Rate(float(hi)))
        if any(b > a + 1e-9 for (_, a), (_, b) in zip(low.points, high.points)):
            failures.append(f"case {case}: rvp rose with the rate")
        if high.momento_x is not None and (
            low.momento_x is None or low.momento_x > high.momento_x
        ):
            failures.append(f"case {case}: momento moved earlier under the higher rate")
    report(4, "property (a): rvp monotone in rate", failures)


def test_criterion_4b_duration_monotone_in_price_path():
    rng = np.random.default_rng(2024_04_02)
    failures = []
    for case in range(N_PROPERTY):
        horizon = int(rng.integers(3, 40))
        high = generate_price_path(
            PricePathParams(
                initial_price=float(rng.uniform(500, 4000)),
                drift=float(rng.uniform(-0.05, 0.08)),
                volatility=float(rng.uniform(0.0, 0.5)),
                horizon=horizon,
                seed=int(rng.integers(0, 2**31)),
            )
        )
        low = high * rng.uniform(0.3, 1.0, size=horizon)
        vpi = float(rng.uniform(5.0, 150.0))
        rate = Rate(float(rng.uniform(0.0, 0.2)))
        fast = simulate_concession(vpi, high, 10_000.0, rate)
        slow = simulate_concession(vpi, low, 10_000.0, rate)
        if slow.duration is not None:
            if fast.duration is None or fast.duration > slow.duration:
                failures.append(f"case {case}: dominating path lengthened the concession")
    report(4, "property (b): duration monotone in price path", failures)


def test_criterion_4c_voluntary_tax_lengthens():
    rng = np.random.default_rng(2024_04_03)
    failures = []
    for case in range(N_PROPERTY):
        horizon = int(rng.integers(3, 40))
        prices = generate_price_path(
            PricePathParams(
                initial_price=float(rng.uniform(500, 4000)),
                drift=float(rng.uniform(-0.05, 0.08)),
                volatility=float(rng.uniform(0.0, 0.5)),
                horizon=horizon,
                seed=int(rng.integers(0, 2**31)),
            )
        )
        vpi = float(rng.uniform(5.0, 150.0))
        rate = Rate(float(rng.uniform(0.0, 0.2)))
        fractions = rng.uniform(0.0, 0.9, size=horizon)

        taxed = {p: fractions[p - 1] * (float(price) * 10_000.0 / 1e6) for p, price in enumerate(prices, start=1)}
        plain = simulate_concession(vpi, prices, 10_000.0, rate)
        stretched = simulate_concession(vpi, prices, 10_000.0, rate, tax_policy=taxed)
        if plain.duration is None:
            if stretched.duration is not None:
                failures.append(f"case {case}: tax finished what the no-tax run could not")
        elif stretched.duration is not None and stretched.duration < plain.duration:
            failures.append(f"case {case}: tax shortened the concession")
    report(4, "property (c): voluntary tax lengthens", failures)


def test_criterion_4d_indemnity_telescoping_and_overshoot():
    rng = np.random.default_rng(2024_04_04)
    failures = []
    for case in range(N_PROPERTY):
        vpi = float(rng.uniform(10.0, 300.0))
        rate = float(rng.uniform(0.0, 0.25))
        n = int(rng.integers(1, 30))
        grosses = rng.uniform(0.0, 60.0, size=n)
        state = new_concession(vpi, Rate(rate))
        counted_pv_sum = 0.0
        previous = expropriation_indemnity(state)
        for period, gross in enumerate(grosses, start=1):
            if not state.active:
                break
            state = step_concession(state, float(gross))
            counted_pv_sum += float(gross) / compound(rate, period)
            if state.active:
                indemnity = expropriation_indemnity(state)
                if not rel_close(indemnity, vpi - counted_pv_sum, rel=1e-9, abs_tol=1e-9):
                    failures.append(f"case {case}: indemnity does not telescope")
                    break
                if indemnity > previous + 1e-12:
                    failures.append(f"case {case}: indemnity grew")
                    break
                previous = indemnity
        if state.status is ConcessionStatus.EXPIRED:
            # No tax: the counted revenue of the expiry period is its gross.
            final_pv = float(grosses[state.current_year - 1]) / compound(rate, state.current_year)
            if not (vpi <= state.accrued_pv < vpi + final_pv + 1e-12):
                failures.append(f"case {case}: overshoot bound violated")
    report(4, "property (d): indemnity telescoping and overshoot bound", failures)


def test_criterion_4e_auction_selects_minimal_investment():
    rng = np.random.default_rng(2024_04_05)
    failures = []
    for case in range(N_PROPERTY):
        n = int(rng.integers(4, 26))
        revenues = rng.uniform(1.0, 50.0, size=n)
        announced = Rate(float(rng.uniform(0.0, 0.15)))
        cost = Rate(float(rng.uniform(0.0, 0.3)))
        flows = CashFlowSeries(0, tuple((i + 1, float(r)) for i, r in enumerate(revenues)))
        own_prefix = np.cumsum(
            [float(r) / (1 + cost.value) ** (i + 1) for i, r in enumerate(revenues)]
        )
        # distinct stopping years guarantee distinct equilibrium bids
        j, k = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
        low_i0 = float(own_prefix[j - 1] - rng.uniform(0.0, 0.95) * (
            own_prefix[j - 1] - (own_prefix[j - 2] if j >= 2 else 0.0)
        ))
        high_i0 = float(own_prefix[k - 1] - rng.uniform(0.0, 0.95) * (
            own_prefix[k - 1] - own_prefix[k - 2]
        ))
        if not 0 < low_i0 < high_i0:
            continue
        # id ordering works against the efficient bidder, so a win is earned
        lean = Bidder("z-lean", low_i0, cost, flows)
        fat = Bidder("a-fat", high_i0, cost, flows)
        bids = {
            b.bidder_id: equilibrium_bid(b, announced) for b in (lean, fat)
        }
        if bids["z-lean"] is None or bids["a-fat"] is None:
            failures.append(f"case {case}: unexpected no-bid")
            continue
        winner, _ = run_auction(bids)
        if bids["z-lean"] >= bids["a-fat"] or winner != "z-lean":
            failures.append(
                f"case {case}: minimal-I0 bidder lost ({bids['z-lean']} vs {bids['a-fat']})"
            )
    report(4, "property (e): auction selects the minimal investment", failures)


def test_criterion_4f_proration_conserves_private_spend():
    rng = np.random.default_rng(2024_04_06)
    failures = []
    for case in range(N_PROPERTY):
        years = list(range(1984, 1984 + int(rng.integers(1, 10))))
        gdp = float(rng.uniform(5_000.0, 300_000.0))
        pct = float(rng.uniform(0.0, 0.01))
        market = make_market(years=years, gdp=gdp, exploration_pct=pct)
        mines = [
            make_mine(
                mine_id=f"m{i}",
                opening_year=int(rng.integers(years[0], years[-1] + 6)),
                records=[make_record(2001, production=float(rng.uniform(1.0, 1e6)))],
            )
            for i in range(int(rng.integers(1, 7)))
        ]
        rng.uniform(0.0, 0.3)  # a rate no longer used: drawn so that every later case stays the same
        result = impute_exploration(market, mines, window=(years[0], years[-1]))
        private = (2.0 / 3.0) * gdp * pct
        for year in years:
            eligible = [m for m in mines if m.opening_year - 5 <= year <= m.opening_year]
            shares = result.yearly_allocations.get(year)
            if eligible:
                allocated = sum(shares.values()) if shares else 0.0
                if not rel_close(allocated, private, rel=1e-9, abs_tol=1e-9):
                    failures.append(f"case {case}: year {year} allocated {allocated} != {private}")
            elif shares:
                failures.append(f"case {case}: year {year} allocated without eligible mines")
    report(4, "property (f): exploration proration conserves spend", failures)


def test_criterion_5_equilibrium_bid_vs_enumeration():
    rng = np.random.default_rng(2024_05_01)
    failures = []
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 26))
        revenues = [float(r) for r in rng.uniform(0.5, 60.0, size=n)]
        announced = float(rng.uniform(0.0, 0.2))
        cost = float(rng.uniform(0.0, 0.35))
        investment = float(rng.uniform(1.0, 500.0))
        expected = bid_brute(revenues, investment, announced, cost)
        if expected is None:
            continue  # only feasible instances count toward the 200
        checked += 1
        flows = CashFlowSeries(0, tuple((i + 1, r) for i, r in enumerate(revenues)))
        got = equilibrium_bid(Bidder("b", investment, Rate(cost), flows), Rate(announced))
        if got is None or not rel_close(got, expected, rel=1e-9, abs_tol=1e-9):
            failures.append(f"bid {got} != enumeration {expected}")

    # announced rate equal to the cost of capital: bid within one granule of I0
    for case in range(200):
        n = int(rng.integers(1, 26))
        revenues = [float(r) for r in rng.uniform(0.5, 60.0, size=n)]
        rate = float(rng.uniform(0.0, 0.25))
        accrued = [0.0]
        for i, r in enumerate(revenues):
            accrued.append(accrued[-1] + r / compound(rate, i + 1))
        investment = float(rng.uniform(0.01, accrued[-1]))
        flows = CashFlowSeries(0, tuple((i + 1, r) for i, r in enumerate(revenues)))
        bid = equilibrium_bid(Bidder("b", investment, Rate(rate), flows), Rate(rate))
        stop = next(k for k in range(1, len(accrued)) if accrued[k] >= investment)
        granule = accrued[stop] - accrued[stop - 1]
        if bid is None or not -1e-9 <= bid - investment <= granule + 1e-9:
            failures.append(f"case {case}: matching-rate bid {bid} strays from {investment}")
    report(5, "equilibrium bid vs stopping-year enumeration", failures)


def test_criterion_6_byte_identical_artifacts(tmp_path):
    failures = []

    def artifacts(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    runs = []
    for name in ("a1", "a2"):
        out = tmp_path / name
        code = main(
            ["analyze", "--mines", str(MINES_DIR), "--market", str(MARKET_FILE), "--out", str(out)]
        )
        if code != 0:
            failures.append(f"analyze run {name} exited {code}")
        runs.append(artifacts(out))
    if runs[0] != runs[1]:
        failures.append("analyze artifacts differ between consecutive runs")

    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "announced_rate=0.05\nquantity_t_per_year=10000\nvpi=120\n"
        "initial_price=2000\ndrift=0.01\nvolatility=0.25\nhorizon=60\nseed=42\nreplications=50\n"
    )
    runs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = main(["simulate-concession", "--scenario", str(scenario), "--out", str(out)])
        if code != 0:
            failures.append(f"simulate run {name} exited {code}")
        runs.append(artifacts(out))
    if runs[0] != runs[1]:
        failures.append("simulation artifacts differ between consecutive runs")
    report(6, "byte-identical artifacts", failures)
