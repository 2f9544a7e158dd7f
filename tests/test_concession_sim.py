"""Equilibrium bids, the auction, the accrual state machine, and price paths."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minerent import (
    AuctionError,
    Bidder,
    CashFlowSeries,
    ConcessionStatus,
    PricePathParams,
    Rate,
    StateMachineError,
    accrue_concessions,
    equilibrium_bid,
    expropriate,
    expropriation_indemnity,
    generate_price_path,
    new_concession,
    run_auction,
    simulate_concession,
    step_concession,
)

from conftest import stepped_run
from oracle import bid_brute, rel_close


def bidder(investment, cost, revenues, bidder_id="b", **extra):
    path = CashFlowSeries(0, tuple((i + 1, r) for i, r in enumerate(revenues)))
    return Bidder(
        bidder_id=bidder_id,
        investment=investment,
        cost_of_capital=Rate(cost),
        expected_revenue_path=path,
        **extra,
    )


class TestEquilibriumBid:
    def test_undiscounted_bid_equals_investment(self):
        bid = equilibrium_bid(bidder(30.0, 0.0, [10.0] * 10), Rate(0.0))
        assert bid == pytest.approx(30.0, rel=1e-9)

    def test_matching_rates_bid_within_one_granule(self):
        rate = 0.08
        revenues = [7.0, 9.0, 11.0, 13.0, 8.0, 10.0, 12.0]
        investment = 40.0
        bid = equilibrium_bid(bidder(investment, rate, revenues), Rate(rate))
        granule = max(r / (1 + rate) ** (i + 1) for i, r in enumerate(revenues))
        assert investment <= bid < investment + granule + 1e-9

    def test_cheap_money_state_pays_more(self):
        bid = equilibrium_bid(bidder(30.0, 0.15, [12.0] * 20), Rate(0.05))
        assert bid > 30.0
        expected = bid_brute([12.0] * 20, 30.0, 0.05, 0.15)
        assert bid == pytest.approx(expected, rel=1e-9)

    def test_infeasible_path_returns_no_bid(self):
        assert equilibrium_bid(bidder(1000.0, 0.2, [5.0] * 5), Rate(0.1)) is None

    def test_negative_revenue_rejected(self):
        with pytest.raises(ValueError) as caught:
            equilibrium_bid(bidder(10.0, 0.1, [5.0, -1.0]), Rate(0.05))
        assert str(caught.value) == "revenue must be nonnegative, got -1.0 at period 2"
        with pytest.raises(ValueError) as caught:  # also after the period that repays
            equilibrium_bid(bidder(5.0, 0.1, [50.0, 5.0, -1.0]), Rate(0.05))
        assert str(caught.value) == "revenue must be nonnegative, got -1.0 at period 3"

    @pytest.mark.parametrize("investment", [0.0, float("nan")])
    def test_investment_must_be_finite_and_positive(self, investment):
        with pytest.raises(ValueError, match=rf"^investment must be finite and > 0, got {investment!r}$"):
            bidder(investment, 0.1, [5.0])

    def test_path_must_start_after_award(self):
        path = CashFlowSeries(0, ((0, 5.0), (1, 5.0)))
        with pytest.raises(ValueError) as caught:
            equilibrium_bid(Bidder("b", 5.0, Rate(0.1), path), Rate(0.05))
        assert str(caught.value) == "revenue path must start strictly after the concession start"

    @given(
        revenues=st.lists(st.floats(min_value=0.1, max_value=60.0), min_size=1, max_size=25),
        investment=st.floats(min_value=1.0, max_value=400.0),
        announced=st.floats(min_value=0.0, max_value=0.25),
        cost=st.floats(min_value=0.0, max_value=0.35),
    )
    @settings(max_examples=300)
    def test_matches_stopping_year_enumeration(self, revenues, investment, announced, cost):
        got = equilibrium_bid(bidder(investment, cost, revenues), Rate(announced))
        want = bid_brute(revenues, investment, announced, cost)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert rel_close(got, want, rel=1e-9, abs_tol=1e-9)

    def test_tiny_middle_revenue_does_not_skip_the_stop(self):
        # Periods 2 and 3 add less than a 1e-6 share of the total, yet period 2
        # is where the own-rate PV first covers the investment.
        revenues = [1000.0, 1e-7, 1e-7, 1000.0]
        investment = 1000.0 / 1.1 + 1e-9
        bid = equilibrium_bid(bidder(investment, 0.1, revenues), Rate(0.1))
        assert bid == bid_brute(revenues, investment, 0.1, 0.1)
        assert bid == pytest.approx(1000.0 / 1.1, rel=1e-9)


class TestRunAuction:
    def test_lowest_bid_wins(self):
        assert run_auction({"A": 1250.0, "B": 1400.0}) == ("A", 1250.0)

    def test_tie_breaks_lexicographically(self):
        assert run_auction({"B": 1250.0, "A": 1250.0}) == ("A", 1250.0)

    def test_empty_bid_set_fails(self):
        with pytest.raises(AuctionError) as caught:
            run_auction({})
        assert str(caught.value) == "auction failed: no feasible bids"

    def test_no_bid_entries_are_ignored(self):
        assert run_auction({"A": None, "B": 1400.0, "C": None}) == ("B", 1400.0)
        with pytest.raises(AuctionError, match="no feasible bids"):
            run_auction({"A": None})

    def test_efficient_bidder_wins(self):
        revenues = [150.0] * 20
        announced = Rate(0.06)
        efficient = bidder(900.0, 0.12, revenues, bidder_id="efficient")
        inefficient = bidder(1100.0, 0.12, revenues, bidder_id="inefficient")
        bids = {
            b.bidder_id: equilibrium_bid(b, announced) for b in (efficient, inefficient)
        }
        winner, winning_vpi = run_auction(bids)
        assert winner == "efficient"
        assert winning_vpi == bids["efficient"] < bids["inefficient"]


class TestStepConcession:
    def test_undiscounted_three_steps(self):
        state = new_concession(30.0, Rate(0.0))
        for expected_status in (ConcessionStatus.ACTIVE, ConcessionStatus.ACTIVE, ConcessionStatus.EXPIRED):
            state = step_concession(state, 10.0)
            assert state.status is expected_status
        assert state.current_year == 3

    def test_discounted_accrual_sequence(self):
        state = new_concession(20.0, Rate(0.10))
        accrued = []
        while state.active:
            state = step_concession(state, 11.0)
            accrued.append(state.accrued_pv)
        assert accrued == pytest.approx([10.0, 19.0909, 27.3554], abs=1e-4)
        assert state.current_year == 3

    def test_voluntary_tax_stretches_term(self):
        state = new_concession(20.0, Rate(0.10))
        accrued = []
        while state.active:
            state = step_concession(state, 11.0, voluntary_tax=5.0)
            accrued.append(state.accrued_pv)
        assert accrued == pytest.approx([5.4545, 10.4132, 14.9211, 19.0192, 22.7447], abs=1e-4)
        assert state.current_year == 5

    @pytest.mark.parametrize("vpi", [0.0, float("nan")])
    def test_vpi_must_be_finite_and_positive(self, vpi):
        with pytest.raises(ValueError, match=rf"^vpi_target must be finite and > 0, got {vpi!r}$"):
            new_concession(vpi, Rate(0.1))

    def test_stepping_terminal_state_rejected(self):
        state = new_concession(5.0, Rate(0.0))
        state = step_concession(state, 10.0)
        assert not state.active
        with pytest.raises(StateMachineError) as caught:
            step_concession(state, 10.0)
        assert str(caught.value) == "cannot step a concession in status 'expired'"

    def test_tax_bounds_enforced(self):
        state = new_concession(5.0, Rate(0.0))
        for tax in (11.0, -0.1):
            with pytest.raises(ValueError) as caught:
                step_concession(state, 10.0, voluntary_tax=tax)
            assert str(caught.value) == f"voluntary tax must lie in [0, gross revenue], got {tax!r} vs 10.0"


class TestExpropriationIndemnity:
    def test_unearned_remainder(self):
        state = new_concession(20.0, Rate(0.10))
        state = step_concession(state, 11.0)
        state = step_concession(state, 11.0)
        assert expropriation_indemnity(state) == pytest.approx(0.9091, abs=1e-4)

    def test_full_target_at_start(self):
        state = new_concession(20.0, Rate(0.10))
        assert expropriation_indemnity(state) == 20.0

    def test_zero_after_expiry(self):
        state = new_concession(20.0, Rate(0.0))
        state = step_concession(state, 25.0)
        assert expropriation_indemnity(state) == 0.0

    def test_expropriation_date_conversion(self):
        state = new_concession(20.0, Rate(0.10))
        state = step_concession(state, 11.0)
        state = step_concession(state, 11.0)
        at_start = expropriation_indemnity(state)
        at_date = expropriation_indemnity(state, at_expropriation_date=True)
        assert at_date == pytest.approx(at_start * 1.1**2)

    def test_expropriate_freezes_state(self):
        state = new_concession(20.0, Rate(0.10))
        state = step_concession(state, 11.0)
        taken = expropriate(state)
        assert taken.status is ConcessionStatus.EXPROPRIATED
        assert expropriation_indemnity(taken) == pytest.approx(10.0)
        with pytest.raises(StateMachineError) as caught:
            step_concession(taken, 11.0)
        assert str(caught.value) == "cannot step a concession in status 'expropriated'"
        with pytest.raises(StateMachineError) as caught:
            expropriate(taken)
        assert str(caught.value) == "cannot expropriate a concession in status 'expropriated'"

    @given(
        vpi=st.floats(min_value=10.0, max_value=500.0),
        revenues=st.lists(st.floats(min_value=0.0, max_value=80.0), min_size=1, max_size=30),
        rate=st.floats(min_value=0.0, max_value=0.3),
    )
    @settings(max_examples=300)
    def test_indemnity_telescopes_and_never_grows(self, vpi, revenues, rate):
        state = new_concession(vpi, Rate(rate))
        previous = expropriation_indemnity(state)
        counted_pvs = []
        for period, gross in enumerate(revenues, start=1):
            if not state.active:
                break
            state = step_concession(state, gross)
            counted_pvs.append(gross / (1 + rate) ** period)
            if state.active:
                indemnity = expropriation_indemnity(state)
                assert indemnity == pytest.approx(vpi - sum(counted_pvs), rel=1e-9, abs=1e-9)
                assert indemnity <= previous + 1e-12
                previous = indemnity


class TestGeneratePricePath:
    def test_zero_volatility_zero_drift_constant(self):
        path = generate_price_path(PricePathParams(2000.0, 0.0, 0.0, horizon=10, seed=1))
        assert np.allclose(path, 2000.0)

    def test_zero_volatility_exponential_drift(self):
        path = generate_price_path(PricePathParams(2000.0, 0.03, 0.0, horizon=8, seed=1))
        expected = 2000.0 * np.exp(0.03 * np.arange(8))
        assert np.allclose(path, expected)

    def test_same_seed_identical_path(self):
        params = PricePathParams(1500.0, 0.01, 0.25, horizon=40, seed=42)
        first = generate_price_path(params)
        second = generate_price_path(params)
        assert first.tolist() == second.tolist()

    @pytest.mark.parametrize(
        "params",
        [
            PricePathParams(2000.0, 1000.0, 0.0, horizon=10, seed=1),  # exp overflows
            PricePathParams(1.0, 709.0, 1.0, horizon=2, seed=3),  # forecast finite, the shock overflows it
            PricePathParams(1.0, 0.0, 1e308, horizon=50, seed=0),  # inf - inf in the log-price sum
        ],
    )
    def test_non_finite_price_rejected_without_runtime_warning(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite price"):
                generate_price_path(params)

    def test_overflowing_variance_drives_prices_to_zero(self):
        path = generate_price_path(PricePathParams(1.0, 0.0, 1e200, horizon=5, seed=1))
        assert path.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PricePathParams(0.0, 0.0, 0.1, horizon=5, seed=1)
        with pytest.raises(ValueError):
            PricePathParams(100.0, 0.0, -0.1, horizon=5, seed=1)
        with pytest.raises(ValueError):
            PricePathParams(100.0, 0.0, 0.1, horizon=0, seed=1)


class TestSimulateConcession:
    def test_dominated_path_never_shortens(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            horizon = int(rng.integers(5, 30))
            high = generate_price_path(
                PricePathParams(2000.0, 0.02, 0.3, horizon=horizon, seed=int(rng.integers(1e6)))
            )
            low = high * rng.uniform(0.4, 1.0, size=horizon)
            vpi = float(rng.uniform(5.0, 120.0))
            fast = simulate_concession(vpi, high, 10_000.0, Rate(0.08))
            slow = simulate_concession(vpi, low, 10_000.0, Rate(0.08))
            if slow.duration is not None:
                assert fast.duration is not None
                assert fast.duration <= slow.duration
            elif fast.duration is None:
                assert slow.duration is None

    @given(
        vpi=st.floats(min_value=5.0, max_value=200.0),
        prices=st.lists(st.floats(min_value=100.0, max_value=12_000.0), min_size=1, max_size=40),
        rate=st.floats(min_value=0.0, max_value=0.3),
    )
    @settings(max_examples=300)
    def test_overshoot_bounded_by_final_period(self, vpi, prices, rate):
        outcome = simulate_concession(vpi, prices, 10_000.0, Rate(rate))
        state = outcome.final_state
        if state.status is ConcessionStatus.EXPIRED:
            final_pv = outcome.rows[-1].counted_revenue / (1 + rate) ** state.current_year
            assert vpi <= state.accrued_pv < vpi + final_pv + 1e-12
        else:
            assert state.accrued_pv < vpi


class TestLpvrIdentity:
    """A bidder whose forecast is the realised flat path: the bid is the accrued PV at its payback period."""

    @pytest.mark.parametrize(
        "announced, own, investment",
        [
            (-0.71875, -0.8, 1000.0),
            (-0.71875, -0.5, 1000.0),
            (0.0, -0.05, 100.0),
            (0.0, 0.1, 100.0),
            (0.06, 0.0, 100.0),
            (0.06, 0.12, 100.0),
        ],
    )
    def test_winning_bid_expires_the_concession_at_its_payback_period(self, announced, own, investment):
        path, quantity = [2000.0] * 40, 10_000.0  # 20 million USD a period
        revenues = [price * quantity / 1e6 for price in path]
        vpi = equilibrium_bid(bidder(investment, own, revenues), Rate(announced))
        own_pv = itertools.accumulate(revenue / (1 + own) ** t for t, revenue in enumerate(revenues, start=1))
        payback = next(t for t, pv in enumerate(own_pv, start=1) if pv >= investment)
        outcome = simulate_concession(vpi, path, quantity, Rate(announced))
        assert outcome.duration == payback
        assert outcome.final_state.accrued_pv == vpi  # bit for bit
        assert accrue_concessions(vpi, [path], quantity, Rate(announced)) == [payback]


TAX_POLICIES = {
    "none": None,
    "constant": 2.0,
    "schedule": {1: 5.0, 2: 25.0, 4: 1e9},
}

# Runs at 1e4 t a period, (prices, rate, vpi) by name; 1000 USD/t is 10 million a period.
RUN_PATHS = {
    "three-periods": ([1000.0, 1000.0, 1500.0], 0.0, 30.0),
    "constant": ([1000.0] * 6, 0.0, 30.0),
    "eight-periods": ([1000.0] * 8, 0.0, 30.0),
    "unreachable": ([1000.0] * 4, 0.1, 1000.0),
    "zero-price": ([3000.0, 0.0, 2500.0, 800.0, 4000.0], 0.1, 40.0),
    "negative-zero": ([-0.0, 1000.0, 2500.0], 0.0, 30.0),
    "factor-overflow": ([2000.0] * 5200, 0.15, 1e6),  # discount factors overflow past period 5075
    "factor-underflow": ([1.0] + [0.0] * 399, -0.9, 30.0),  # discount factors underflow to 0.0 past period 323
    "empty": ([], 0.05, 10.0),
    **{f"one-period-{price}": ([float(price)], 0.06, 20.0) for price in range(0, 5000, 100)},
}

# Each run under every TAX_POLICIES entry, the eight periods under an early schedule, one period under a 3.0 tax.
RUNS = [
    *(
        pytest.param(*run, policy, id=f"{name}-{tax}")
        for name, run in RUN_PATHS.items()
        for tax, policy in TAX_POLICIES.items()
    ),
    pytest.param(*RUN_PATHS["eight-periods"], {1: 5.0, 2: 5.0}, id="eight-periods-early-schedule"),
    *(pytest.param(*run, 3.0, id=f"{name}-tax-3") for name, run in RUN_PATHS.items() if name.startswith("one-period")),
]

OK = [1000.0] * 10  # 10 MUSD a period at 1e4 t and a zero rate: VPI 30 is reached at period 3
BAD_TAX = [1000.0, -1.0] + OK[2:]  # a negative price makes the clamped tax exceed gross revenue
HUGE = [1e300] * 10
# At 1e6 t and a -0.9 rate, period 7 lifts the PV to 1.711e308 >= 1.7e308; period 8 would add 1e308 and overflow.
STOPS = [1e300] * 6 + [1.7e301] + [1e300] * 3
ZEROS = [0.0] * 10
GROSS = "gross revenue is not finite in run {run}, period {period}: inf"
OVERFLOW = "accrued PV overflows a float in run {run}, period {period}"
TAX = "voluntary tax must lie in [0, gross revenue] in run {run}, period {period}, got -0.01 vs -0.01"


def _set(path, period, price):
    return path[: period - 1] + [price] + path[period:]


def _runs(count, run, path, others):
    """``count`` paths, ``path`` as run ``run`` and ``others`` as every other."""
    return [path if at == run else others for at in range(count)]


# Each row: paths, quantity, rate and VPI, and what accrue_concessions gives: each run's duration, or the first
# error's message.
ACCRUAL_ERRORS = {
    # A bad period of run 0 or 2 raises at or before the run's stop at period 3, never after it.
    **{
        f"{kind}-in-run-{run}-period-{period}": (
            _runs(3, run, _set(OK, period, price), OK), 1e4, 0.0, 30.0,
            message.format(run=run, period=period) if period <= 3 else [3, 3, 3],
        )
        for kind, price, message in [("gross", 1e305, GROSS), ("tax", -1.0, TAX)]
        for run in (0, 2)
        for period in (2, 3, 4, 8)
    },
    # Stopped at period 7, a run never reaches the overflow of period 8; short of the VPI there, it does.
    **{
        f"stop-in-run-{run}": (_runs(3, run, STOPS, ZEROS), 1e6, -0.9, 1.7e308, _runs(3, run, 7, None))
        for run in (0, 2)
    },
    **{
        f"overflow-in-run-{run}": (
            _runs(3, run, _set(STOPS, 7, 1.6e301), ZEROS), 1e6, -0.9, 1.7e308, OVERFLOW.format(run=run, period=8)
        )
        for run in (0, 2)
    },
    "tax-after-the-stop": ([[4000.0, -1.0]], 1e4, 0.0, 30.0, [1]),
    "tax-before-the-stop": ([[4000.0, 0.0], [1000.0, -1.0]], 1e4, 0.0, 30.0, TAX.format(run=1, period=2)),
    # Paths need not share one length: a two-period run ends still active among runs that expire at period 3.
    **{
        f"ragged-run-{run}": (_runs(5, run, [1000.0] * 2, [1000.0] * 3), 1e4, 0.0, 30.0, _runs(5, run, None, 3))
        for run in (1, 4)
    },
    "empty": ([], 1e4, 0.06, 10.0, []),
    # The first bad period in run, then period, order.
    "tax-then-gross": ([BAD_TAX, OK, _set(OK, 4, 1e305)], 1e4, 0.0, 1e6, TAX.format(run=0, period=2)),
    "tax-then-gross-in-one-run": ([OK, _set(BAD_TAX, 4, 1e305), OK], 1e4, 0.0, 1e6, TAX.format(run=1, period=2)),
    "overflow-then-tax": ([HUGE, OK, BAD_TAX], 1e6, -0.9, 1.7e308, OVERFLOW.format(run=0, period=9)),
    "two-overflows": ([OK, HUGE, OK, HUGE], 1e6, -0.9, 1.7e308, OVERFLOW.format(run=1, period=9)),
    "two-gross": ([OK, _set(OK, 4, 1e305), OK, _set(OK, 1, 1e305)], 1e4, 0.0, 1e6, GROSS.format(run=1, period=4)),
    "two-taxes": ([OK, BAD_TAX, OK, _set(OK, 1, -5.0)], 1e4, 0.0, 1e6, TAX.format(run=1, period=2)),
    # The VPI is checked before any path is drawn.
    **{
        f"vpi-{vpi!r}": ([OK[:3]], 1e4, 0.0, vpi, f"vpi_target must be finite and > 0, got {vpi!r}")
        for vpi in (math.nan, math.inf, 0.0, -5.0)
    },
}


def _drawn_to(stop, prices):
    """``prices`` as a generator that fails the test when a price past period ``stop`` is drawn."""
    for period, price in enumerate(prices, start=1):
        if period > stop:
            raise AssertionError(f"period {period} drawn past the stop at period {stop}")
        yield price


# Each row: each run's prices and stop period (its expiry, its first bad period or its end), quantity, rate, VPI
# and tax policy, and what accrue_concessions gives. Every path is a generator that fails if drawn past its stop.
DRAWN_TO_STOP = {
    "any-lengths": (
        [(OK, 3), (OK[:2], 2), (itertools.repeat(1000.0), 3), (OK[:3], 3), (OK * 2, 3)], 1e4, 0.0, 30.0, None,
        [3, None, 3, 3, 3],
    ),
    "schedule-past-the-stop": ([(itertools.repeat(1000.0), 4)], 1e4, 0.0, 30.0, {1: 5.0, 2: 5.0, 10**9: 1.0}, [4]),
    "stop-short-of-overflow": ([(STOPS, 7), (ZEROS, 10)], 1e6, -0.9, 1.7e308, 0.0, [7, None]),
    "tax": ([(OK, 3), (BAD_TAX, 2), (OK, 0)], 1e4, 0.0, 30.0, None, TAX.format(run=1, period=2)),
    "gross": ([(OK, 4), (_set(OK, 2, 1e305), 2)], 1e4, 0.0, 30.0, 2.0, GROSS.format(run=1, period=2)),
    "overflow": ([(HUGE, 9)], 1e6, -0.9, 1.7e308, None, OVERFLOW.format(run=0, period=9)),
}


def seeded_paths(count, horizon=2000):
    """Replications 0..count-1 of a seeded path, generated one at a time."""
    for seed in range(count):
        yield generate_price_path(PricePathParams(2000.0, 0.0, 0.15, horizon=horizon, seed=seed))


class TestAccrualRuns:
    """Each run is the step loop, alone or in any batch position; errors come in run, then period, order."""

    @pytest.mark.parametrize("prices, rate, vpi, policy", RUNS)
    def test_run_is_the_step_loop(self, prices, rate, vpi, policy):
        want = stepped_run(vpi, prices, 1e4, rate, policy)
        # repr compares rows, final state, duration and warning bit for bit, telling -0.0 from 0.0 as artifacts do.
        assert repr(simulate_concession(vpi, prices, 1e4, Rate(rate), policy)) == repr(want)
        assert accrue_concessions(vpi, [prices], 1e4, Rate(rate), policy) == [want.duration]
        # Neighbours that expire sooner, later or never leave the run's duration as it is alone.
        neighbours = [[scale * price for price in prices] for scale in (3.0, 0.0, 1 / 3, 2.0)]
        durations = [stepped_run(vpi, path, 1e4, rate, policy).duration for path in neighbours]
        for at in (0, 2, 4):
            paths = neighbours[:at] + [prices] + neighbours[at:]
            want_durations = [*durations[:at], want.duration, *durations[at:]]
            assert accrue_concessions(vpi, paths, 1e4, Rate(rate), policy) == want_durations

    @pytest.mark.parametrize("tax", sorted(TAX_POLICIES))
    @pytest.mark.parametrize("rate", [0.0, 0.06, 0.15])
    def test_matches_stepper_on_seeded_paths(self, rate, tax):
        policy = TAX_POLICIES[tax]
        paths = [
            generate_price_path(PricePathParams(2000.0, 0.0, 0.3, horizon=300, seed=seed)) for seed in range(40)
        ]
        vpi = 150.0 if rate else 900.0
        durations = accrue_concessions(vpi, paths, 10_000.0, Rate(rate), policy)
        wants = [stepped_run(vpi, prices, 10_000.0, rate, policy) for prices in paths]
        assert durations == [want.duration for want in wants]
        for prices, want in zip(paths, wants):
            assert repr(simulate_concession(vpi, prices, 10_000.0, Rate(rate), policy)) == repr(want)
        assert {duration is None for duration in durations} == {True, False}

    def test_past_discount_overflow_accrues_the_perpetuity(self):
        # (1.06) ** t overflows a float past t = 12180 and later periods add 0.0: the PV is the perpetuity's.
        outcome = simulate_concession(1000.0, [1000.0] * 20000, 1e4, Rate(0.06))
        assert outcome.rows[12179].accrued_pv == outcome.final_state.accrued_pv
        assert outcome.final_state.accrued_pv == pytest.approx(10.0 / 0.06, rel=1e-9)

    @pytest.mark.parametrize("paths, quantity, rate, vpi, want", ACCRUAL_ERRORS.values(), ids=ACCRUAL_ERRORS)
    def test_first_bad_period_in_run_order(self, paths, quantity, rate, vpi, want):
        if isinstance(want, list):
            assert accrue_concessions(vpi, iter(paths), quantity, Rate(rate)) == want
            assert [simulate_concession(vpi, path, quantity, Rate(rate)).duration for path in paths] == want
            return
        with pytest.raises(ValueError) as caught:
            accrue_concessions(vpi, iter(paths), quantity, Rate(rate))
        assert str(caught.value) == want
        # The path that raised, alone, is run 0 of simulate_concession.
        named = re.search(r"in run (\d+),", want)
        with pytest.raises(ValueError) as caught:
            simulate_concession(vpi, paths[int(named[1]) if named else 0], quantity, Rate(rate))
        assert str(caught.value) == (want.replace(named[0], "in run 0,") if named else want)

    @pytest.mark.parametrize("paths, quantity, rate, vpi, policy, want", DRAWN_TO_STOP.values(), ids=DRAWN_TO_STOP)
    def test_reads_no_price_past_the_stop(self, paths, quantity, rate, vpi, policy, want):
        def streams():
            return (_drawn_to(stop, prices) for prices, stop in paths)

        if isinstance(want, list):
            assert accrue_concessions(vpi, streams(), quantity, Rate(rate), policy) == want
            assert [simulate_concession(vpi, path, quantity, Rate(rate), policy).duration for path in streams()] == want
            return
        with pytest.raises(ValueError) as caught:
            accrue_concessions(vpi, streams(), quantity, Rate(rate), policy)
        assert str(caught.value) == want
        run = int(re.search(r"in run (\d+),", want)[1])
        prices, stop = paths[run]
        with pytest.raises(ValueError) as caught:
            simulate_concession(vpi, _drawn_to(stop, prices), quantity, Rate(rate), policy)
        assert str(caught.value) == want.replace(f"in run {run},", "in run 0,")

    def test_generator_matches_list(self):
        streamed = accrue_concessions(150.0, seeded_paths(20, horizon=300), 10_000.0, Rate(0.06), 2.0)
        listed = accrue_concessions(150.0, list(seeded_paths(20, horizon=300)), 10_000.0, Rate(0.06), 2.0)
        assert streamed == listed
        assert len(streamed) == 20

    def test_accrual_error_stops_the_stream(self):
        # A bad VPI draws no path; a run's error is raised before the next path is drawn.
        paths_drawn = []

        def paths():
            for path in (OK, BAD_TAX, OK):
                paths_drawn.append(path)
                yield path
            raise ValueError("price path (seed 3) has a non-finite price at step 3: inf")

        with pytest.raises(ValueError, match=r"^vpi_target must be finite and > 0, got 0\.0$"):
            accrue_concessions(0.0, paths(), 1e4, Rate(0.0))
        assert paths_drawn == []
        with pytest.raises(ValueError) as caught:
            accrue_concessions(1e6, paths(), 1e4, Rate(0.0))
        assert str(caught.value) == TAX.format(run=1, period=2)
        assert len(paths_drawn) == 2

    def test_memory_does_not_grow_with_runs(self):
        def peak(runs):
            tracemalloc.start()
            try:
                accrue_concessions(300.0, seeded_paths(runs), 10_000.0, Rate(0.06), 2.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first calls allocate numpy's one-time state
        small, large = peak(100), peak(400)
        assert small < 2_000_000 and large < 2_000_000
        assert large < small * 1.1
