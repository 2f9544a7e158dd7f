"""Equilibrium bids, the auction, the accrual state machine, and price paths."""

from __future__ import annotations

import itertools
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
from minerent import concession_sim
from minerent.cli import main

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
        with pytest.raises(ValueError):
            equilibrium_bid(bidder(10.0, 0.1, [5.0, -1.0]), Rate(0.05))
        with pytest.raises(ValueError):  # also after the period that repays
            equilibrium_bid(bidder(5.0, 0.1, [50.0, 5.0, -1.0]), Rate(0.05))

    @pytest.mark.parametrize("investment", [0.0, float("nan")])
    def test_investment_must_be_finite_and_positive(self, investment):
        with pytest.raises(ValueError, match=rf"^investment must be finite and > 0, got {investment!r}$"):
            bidder(investment, 0.1, [5.0])

    def test_path_must_start_after_award(self):
        path = CashFlowSeries(0, ((0, 5.0), (1, 5.0)))
        with pytest.raises(ValueError):
            equilibrium_bid(
                Bidder("b", 5.0, Rate(0.1), path), Rate(0.05)
            )

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
        with pytest.raises(AuctionError):
            run_auction({})

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
        with pytest.raises(StateMachineError):
            step_concession(state, 10.0)

    def test_tax_bounds_enforced(self):
        state = new_concession(5.0, Rate(0.0))
        with pytest.raises(ValueError):
            step_concession(state, 10.0, voluntary_tax=11.0)
        with pytest.raises(ValueError):
            step_concession(state, 10.0, voluntary_tax=-0.1)


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
        with pytest.raises(StateMachineError):
            step_concession(taken, 11.0)
        with pytest.raises(StateMachineError):
            expropriate(taken)

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
    def test_constant_path_reduces_to_stepper(self):
        # price 1000 USD/t on 10 000 t is 10 million per year
        outcome = simulate_concession(30.0, [1000.0] * 6, 10_000.0, Rate(0.0))
        assert outcome.duration == 3
        assert outcome.final_state.status is ConcessionStatus.EXPIRED
        assert [row.gross_revenue for row in outcome.rows] == pytest.approx([10.0] * 3)
        assert outcome.warning is None

    def test_unreachable_target_stays_active_with_warning(self):
        outcome = simulate_concession(1000.0, [1000.0] * 4, 10_000.0, Rate(0.1))
        assert outcome.duration is None
        assert outcome.final_state.status is ConcessionStatus.ACTIVE
        assert outcome.warning is not None

    def test_tax_schedule_applies_per_period(self):
        outcome = simulate_concession(
            30.0, [1000.0] * 8, 10_000.0, Rate(0.0), tax_policy={1: 5.0, 2: 5.0}
        )
        assert [row.voluntary_tax for row in outcome.rows[:3]] == [5.0, 5.0, 0.0]
        assert outcome.duration == 4  # counted 5,5,10,10

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


def stepped_run(vpi, prices, quantity, rate, tax_policy):
    """The accrual as a plain ``step_concession`` loop: the kernel's reference."""
    def tax_for(period, gross):
        if tax_policy is None:
            return 0.0
        if callable(tax_policy):
            return tax_policy(period, gross)
        if isinstance(tax_policy, dict):
            return tax_policy.get(period, 0.0)
        return tax_policy

    state = new_concession(vpi, Rate(rate))
    rows = []
    for period, price in enumerate(prices, start=1):
        gross = float(price) * quantity / 1e6
        tax = min(max(tax_for(period, gross), 0.0), gross)
        state = step_concession(state, gross, tax)
        rows.append((period, float(price), gross, tax, gross - tax, state.accrued_pv, state.status.value))
        if not state.active:
            break
    return state, rows


TAX_POLICIES = {
    "none": None,
    "constant": 2.0,
    "schedule": {1: 5.0, 2: 25.0, 4: 1e9},
    "callable": lambda period, gross: 0.3 * gross if period % 3 else 1.0,
}


class TestAccrualKernel:
    """``accrue_concessions`` against the single-step oracle, bit for bit."""

    @pytest.mark.parametrize("tax", sorted(TAX_POLICIES))
    @pytest.mark.parametrize("rate", [0.0, 0.06, 0.15])
    def test_matches_stepper_on_seeded_paths(self, rate, tax):
        policy = TAX_POLICIES[tax]
        paths = [
            generate_price_path(PricePathParams(2000.0, 0.0, 0.3, horizon=300, seed=seed)) for seed in range(40)
        ]
        vpi = 150.0 if rate else 900.0
        durations = accrue_concessions(vpi, paths, 10_000.0, Rate(rate), policy)
        assert len(durations) == len(paths)
        for run, prices in enumerate(paths):
            state, rows = stepped_run(vpi, prices, 10_000.0, rate, policy)
            assert durations[run] == (state.current_year if not state.active else None)
            outcome = simulate_concession(vpi, prices, 10_000.0, Rate(rate), policy)
            # repr compares the final PV bit for bit.
            assert repr(outcome.final_state) == repr(state)
            assert outcome.duration == durations[run]
            assert (outcome.warning is None) == (not state.active)
            if run == 0:
                assert repr([tuple(row) for row in outcome.rows]) == repr(rows)
        assert {duration is None for duration in durations} == {True, False}

    @pytest.mark.parametrize("tax", sorted(TAX_POLICIES))
    @pytest.mark.parametrize(
        "prices, rate, vpi",
        [
            ([1000.0, 1000.0, 1500.0], 0.0, 30.0),
            ([1000.0] * 6, 0.0, 30.0),
            ([3000.0, 0.0, 2500.0, 800.0, 4000.0], 0.1, 40.0),
            ([-0.0, 1000.0, 2500.0], 0.0, 30.0),
            ([2000.0] * 5200, 0.15, 1e6),  # discount factors overflow past period 5075
            ([1.0] + [0.0] * 399, -0.9, 30.0),  # discount factors underflow to 0.0 past period 323
            ([], 0.05, 10.0),
        ],
    )
    def test_matches_stepper_on_explicit_paths(self, prices, rate, vpi, tax):
        policy = TAX_POLICIES[tax]
        outcome = simulate_concession(vpi, prices, 10_000.0, Rate(rate), policy)
        state, rows = stepped_run(vpi, prices, 10_000.0, rate, policy)
        # repr compares bit for bit, telling -0.0 from 0.0 as the artifacts do.
        assert repr([tuple(row) for row in outcome.rows]) == repr(rows)
        assert repr(outcome.final_state) == repr(state)
        assert outcome.duration == (state.current_year if not state.active else None)
        assert (outcome.warning is None) == (not state.active)

    def test_rejects_bad_tax_only_before_stop(self):
        # A negative price makes the clamped tax exceed gross revenue.
        assert accrue_concessions(30.0, [[4000.0, -1.0]], 10_000.0, Rate(0.0)) == [1]
        with pytest.raises(ValueError, match="voluntary tax"):
            accrue_concessions(30.0, [[4000.0, 0.0], [1000.0, -1.0]], 10_000.0, Rate(0.0))

    def test_cli_histogram_matches_stepper(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            "announced_rate=0.05\nquantity_t_per_year=10000\nvpi=200\ninitial_price=2000\n"
            "volatility=0.3\nhorizon=120\nseed=9\nreplications=60\n"
            "[tax_schedule]\nperiod,tax\n1,4\n2,4\n3,40\n"
        )
        out = tmp_path / "out"
        assert main(["simulate-concession", "--scenario", str(scenario), "--out", str(out)]) == 0
        lines = (out / "duration_histogram.csv").read_text().splitlines()
        want = ["replication,duration"]
        for replication in range(60):
            prices = generate_price_path(PricePathParams(2000.0, 0.0, 0.3, horizon=120, seed=9 + replication))
            state, _ = stepped_run(200.0, prices, 10_000.0, 0.05, {1: 4.0, 2: 4.0, 3: 40.0})
            want.append(f"{replication},{'' if state.active else state.current_year}")
        assert lines == want
        assert any(line.endswith(",") for line in lines) and not all(line.endswith(",") for line in lines[1:])


def seeded_paths(count, horizon=2000):
    """Replications 0..count-1 of a seeded path, generated one at a time."""
    for seed in range(count):
        yield generate_price_path(PricePathParams(2000.0, 0.0, 0.15, horizon=horizon, seed=seed))


class TestAccrualBlocks:
    """The kernel streams its paths in blocks; no block boundary changes a value or an error."""

    @pytest.fixture
    def block_cells(self, monkeypatch):
        def shrink(cells):
            monkeypatch.setattr(concession_sim, "_BLOCK_CELLS", cells)

        return shrink

    @pytest.mark.parametrize("cells", [7, 1000])  # 1 and 3 runs of 300 periods per block
    @pytest.mark.parametrize("tax", sorted(TAX_POLICIES))
    @pytest.mark.parametrize("rate", [0.0, 0.06, 0.15])
    def test_seeded_paths_across_blocks(self, block_cells, cells, rate, tax):
        block_cells(cells)
        TestAccrualKernel().test_matches_stepper_on_seeded_paths(rate, tax)

    @pytest.mark.parametrize("tax", sorted(TAX_POLICIES))
    @pytest.mark.parametrize(
        "prices, rate, vpi",
        [
            ([1000.0, 1000.0, 1500.0], 0.0, 30.0),
            ([1000.0] * 6, 0.0, 30.0),
            ([3000.0, 0.0, 2500.0, 800.0, 4000.0], 0.1, 40.0),
            ([-0.0, 1000.0, 2500.0], 0.0, 30.0),
            ([2000.0] * 5200, 0.15, 1e6),
            ([1.0] + [0.0] * 399, -0.9, 30.0),
            ([], 0.05, 10.0),
        ],
    )
    def test_explicit_paths_across_blocks(self, block_cells, prices, rate, vpi, tax):
        block_cells(7)
        TestAccrualKernel().test_matches_stepper_on_explicit_paths(prices, rate, vpi, tax)
        policy = TAX_POLICIES[tax]
        state, _ = stepped_run(vpi, prices, 10_000.0, rate, policy)
        durations = accrue_concessions(vpi, [prices] * 5, 10_000.0, Rate(rate), policy)
        assert durations == [state.current_year if not state.active else None] * 5

    def test_many_one_period_runs(self, block_cells):
        block_cells(7)
        prices = [[float(price)] for price in range(0, 5000, 100)]
        durations = accrue_concessions(20.0, prices, 10_000.0, Rate(0.06), 3.0)
        assert len(durations) == 50
        for run, path in enumerate(prices):
            state, _ = stepped_run(20.0, path, 10_000.0, 0.06, 3.0)
            assert durations[run] == (state.current_year if not state.active else None)
            outcome = simulate_concession(20.0, path, 10_000.0, Rate(0.06), 3.0)
            assert repr(outcome.final_state) == repr(state)
        assert set(durations) == {None, 1}

    def test_generator_matches_list(self, block_cells):
        block_cells(5000)
        streamed = accrue_concessions(150.0, seeded_paths(20, horizon=300), 10_000.0, Rate(0.06), 2.0)
        listed = accrue_concessions(150.0, list(seeded_paths(20, horizon=300)), 10_000.0, Rate(0.06), 2.0)
        assert streamed == listed
        assert len(streamed) == 20

    def test_empty_input_is_an_empty_batch(self):
        assert accrue_concessions(10.0, iter([]), 10_000.0, Rate(0.06)) == []

    @pytest.mark.parametrize("ragged_run", [1, 4])
    def test_ragged_paths_raise(self, block_cells, ragged_run):
        block_cells(6)  # two runs of three periods per block
        paths = [[1000.0] * 3] * 5
        paths[ragged_run] = [1000.0] * 2
        with pytest.raises(ValueError, match=f"run {ragged_run} has 2, run 0 3"):
            accrue_concessions(30.0, paths, 10_000.0, Rate(0.0))

    OK = [1000.0] * 10
    BAD_TAX = [1000.0, -1.0] + [1000.0] * 8
    HUGE = [1e300] * 10

    # The first bad cell in run, then period, order, whatever the block size.
    @pytest.mark.parametrize("cells", [10, 20, 30])  # 1, 2 and 3 runs per block
    @pytest.mark.parametrize(
        "paths, quantity, rate, vpi, message",
        [
            pytest.param(
                [BAD_TAX, OK, OK[:3] + [1e305] + OK[4:]],
                1e4, 0.0, 1e6,
                "voluntary tax must lie in [0, gross revenue], got -0.01 vs -0.01",
                id="tax-then-gross",
            ),
            pytest.param(
                [OK, BAD_TAX[:3] + [1e305] + BAD_TAX[4:], OK],
                1e4, 0.0, 1e6,
                "voluntary tax must lie in [0, gross revenue], got -0.01 vs -0.01",
                id="tax-then-gross-in-one-run",
            ),
            pytest.param(
                [HUGE, OK, BAD_TAX],
                1e6, -0.9, 1.7e308,
                "accrued PV overflows a float in run 0, period 9",
                id="overflow-then-tax",
            ),
            pytest.param(
                [OK, HUGE, OK, HUGE],
                1e6, -0.9, 1.7e308,
                "accrued PV overflows a float in run 1, period 9",
                id="two-overflows",
            ),
            pytest.param(
                [OK, OK[:3] + [1e305] + OK[4:], OK, [1e305] + OK[1:]],
                1e4, 0.0, 1e6,
                "gross revenue is not finite in run 1, period 4: inf",
                id="two-gross",
            ),
            pytest.param(
                [OK, BAD_TAX, OK, [-5.0] + OK[1:]],
                1e4, 0.0, 1e6,
                "voluntary tax must lie in [0, gross revenue], got -0.01 vs -0.01",
                id="two-taxes",
            ),
        ],
    )
    def test_first_error_across_blocks(self, block_cells, cells, paths, quantity, rate, vpi, message):
        block_cells(cells)
        with pytest.raises(ValueError) as caught:
            accrue_concessions(vpi, iter(paths), quantity, Rate(rate))
        assert str(caught.value) == message

    @pytest.mark.parametrize("cells, drawn", [(10, 2), (20, 2), (30, 3)])  # 1, 2 and 3 runs per block
    def test_accrual_error_stops_the_stream(self, block_cells, cells, drawn):
        block_cells(cells)
        paths_drawn = []

        def paths():
            for path in ([1000.0] * 10, [1000.0, -1.0] + [1000.0] * 8, [1000.0] * 10):
                paths_drawn.append(path)
                yield path
            raise ValueError("price path (seed 3) has a non-finite price at step 3: inf")

        with pytest.raises(ValueError, match="voluntary tax"):
            accrue_concessions(1e6, paths(), 1e4, Rate(0.0))
        assert len(paths_drawn) == drawn

    def test_path_error_in_the_block_comes_first(self, block_cells):
        block_cells(30)  # the bad tax and the failing path share a block

        def paths():
            yield [1000.0, -1.0] + [1000.0] * 8
            raise ValueError("price path (seed 1) has a non-finite price at step 3: inf")

        with pytest.raises(ValueError, match=r"^price path \(seed 1\)"):
            accrue_concessions(1e6, paths(), 1e4, Rate(0.0))

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
