"""RVP trajectories, momento x, forward valuation, and the sensitivity report."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minerent import (
    CashFlowSeries,
    InitialInvestment,
    InvalidDatasetError,
    PhysicalYear,
    Rate,
    analyze_mine,
    impute_exploration,
    momento_x,
    present_value,
    rent_forward_value,
    reconstruct_dataset,
    rvp_series,
    sensitivity_report,
    write_plot_data,
    write_summary_table,
)

from conftest import make_market, make_mine, make_record
from oracle import momento_brute, rel_close, rvp_brute


def investment(total):
    return InitialInvestment(extraction=total, exploration=0.0, total=total)


def flows_of(base_year, amounts, start_offset=1):
    return CashFlowSeries(
        base_year, tuple((base_year + start_offset + i, a) for i, a in enumerate(amounts))
    )


class TestRvpSeries:
    def test_two_year_payback_fixture(self):
        flows = flows_of(2000, [60.0, 60.5])
        series = rvp_series(flows, investment(100.0), Rate(0.10))
        assert series.points[0][1] == pytest.approx(-45.4545, abs=1e-4)
        assert series.points[1][1] == pytest.approx(4.5455, abs=1e-4)
        assert series.momento_x == 2002
        assert series.rent_pv == pytest.approx(4.5455, abs=1e-4)

    def test_all_zero_flows(self):
        flows = flows_of(2000, [0.0, 0.0, 0.0])
        series = rvp_series(flows, investment(100.0), Rate(0.10))
        assert all(value == pytest.approx(-100.0) for _, value in series.points)
        assert series.momento_x is None
        assert series.rent_pv == 0.0

    def test_higher_rate_erases_rent(self):
        flows = flows_of(2000, [60.0, 60.5])
        series = rvp_series(flows, investment(100.0), Rate(0.25))
        assert series.points[-1][1] == pytest.approx(-13.28, abs=1e-9)
        assert series.momento_x is None
        assert series.rent_pv == 0.0

    def test_empty_flows(self):
        series = rvp_series(CashFlowSeries(2000, ()), investment(10.0), 0.1)
        assert series.points == ()
        assert series.momento_x is None
        assert series.rent_pv == 0.0

    def test_investment_must_be_positive(self):
        with pytest.raises(ValueError):
            rvp_series(flows_of(2000, [1.0]), InitialInvestment(0.0, 0.0, 0.0), 0.1)

    @given(
        amounts=st.lists(st.floats(min_value=-200, max_value=500), min_size=1, max_size=30),
        total=st.floats(min_value=1.0, max_value=1000.0),
        rate=st.floats(min_value=-0.5, max_value=0.9),
    )
    @settings(max_examples=300)
    def test_matches_bruteforce_recomputation(self, amounts, total, rate):
        flows = flows_of(2000, amounts)
        series = rvp_series(flows, investment(total), rate)
        expected = rvp_brute(list(flows.flows), 2000, total, rate)
        for (year, got), (year2, want) in zip(series.points, expected):
            assert year == year2
            assert rel_close(got, want, rel=1e-9, abs_tol=1e-9)
        assert series.momento_x == momento_brute(expected)

    @given(
        amounts=st.lists(st.floats(min_value=0, max_value=500), min_size=1, max_size=25),
        total=st.floats(min_value=1.0, max_value=500.0),
        r1=st.floats(min_value=0.0, max_value=0.5),
        r2=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=300)
    def test_monotone_in_rate_for_nonnegative_flows(self, amounts, total, r1, r2):
        lo, hi = min(r1, r2), max(r1, r2)
        flows = flows_of(2000, amounts)
        low = rvp_series(flows, investment(total), lo)
        high = rvp_series(flows, investment(total), hi)
        for (_, a), (_, b) in zip(low.points, high.points):
            assert b <= a + 1e-9
        if high.momento_x is not None:
            assert low.momento_x is not None
            assert low.momento_x <= high.momento_x

    @given(
        amounts=st.lists(st.floats(min_value=-200, max_value=500), min_size=1, max_size=25),
        total=st.floats(min_value=1.0, max_value=500.0),
        rate=st.floats(min_value=-0.2, max_value=0.5),
    )
    @settings(max_examples=300)
    def test_rent_decomposition(self, amounts, total, rate):
        flows = flows_of(2000, amounts)
        series = rvp_series(flows, investment(total), rate)
        final = series.points[-1][1]
        # rent kept plus shortfall reconstructs PV(flows) - I0 exactly
        assert series.rent_pv + min(final, 0.0) == pytest.approx(final, abs=1e-12)
        assert final == pytest.approx(present_value(flows, rate) - total, abs=1e-9)

    @given(
        amounts=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=20),
        total=st.floats(min_value=1.0, max_value=500.0),
        rate=st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=300)
    def test_shifting_flows_later_weakly_lowers_rvp(self, amounts, total, rate):
        flows = flows_of(2000, amounts)
        shifted = flows_of(2000, amounts, start_offset=2)
        early = dict(rvp_series(flows, investment(total), rate).points)
        late = dict(rvp_series(shifted, investment(total), rate).points)
        for year in set(early) & set(late):
            assert late[year] <= early[year] + 1e-9

    def test_consecutive_differences_are_discounted_flows(self):
        flows = flows_of(2000, [50.0, -20.0, 80.0, 10.0])
        series = rvp_series(flows, investment(60.0), 0.13)
        for i in range(1, len(series.points)):
            year, value = series.points[i]
            _, prev = series.points[i - 1]
            step = flows.flows[i][1] / 1.13 ** (year - 2000)
            assert value - prev == pytest.approx(step, rel=1e-9)


class TestMomentoX:
    def test_detects_first_positive(self):
        flows = flows_of(2000, [60.0, 60.5])
        series = rvp_series(flows, investment(100.0), 0.10)
        assert momento_x(series) == 2002

    def test_absent_when_never_positive(self):
        series = rvp_series(flows_of(2000, [1.0, 1.0]), investment(100.0), 0.10)
        assert momento_x(series) is None

    def test_exact_zero_does_not_trigger(self):
        # undiscounted flows: -10, 0.0, +5 relative to the investment
        flows = flows_of(2000, [20.0, 10.0, 5.0])
        series = rvp_series(flows, investment(30.0), 0.0)
        assert [round(v, 9) for _, v in series.points] == [-10.0, 0.0, 5.0]
        assert momento_x(series) == 2003


class TestRentForwardValue:
    def test_two_year_compounding(self):
        flows = CashFlowSeries(2009, ((2010, 100.0),))
        value = rent_forward_value(flows, x=2009, fund_rate=0.0507, valuation_year=2012)
        assert value == pytest.approx(110.397049, rel=1e-9)

    def test_flow_in_valuation_year_kept_verbatim(self):
        flows = CashFlowSeries(2011, ((2012, 77.0),))
        assert rent_forward_value(flows, 2011, 0.0507, 2012) == pytest.approx(77.0)

    def test_mixed_years(self):
        flows = CashFlowSeries(2010, ((2011, 50.0), (2012, 50.0)))
        assert rent_forward_value(flows, 2010, 0.0507, 2012) == pytest.approx(102.535)

    def test_absent_momento_gives_zero(self):
        flows = CashFlowSeries(2010, ((2011, 50.0),))
        assert rent_forward_value(flows, None, 0.0507, 2012) == 0.0

    def test_momento_at_final_year_gives_zero(self):
        flows = CashFlowSeries(2008, ((2009, 50.0), (2011, 30.0)))
        assert rent_forward_value(flows, 2011, 0.0507, 2012) == 0.0

    @pytest.mark.parametrize("x", [2009, None])
    def test_valuation_before_last_flow_rejected(self, x):
        # Whether or not the rent was appropriated.
        flows = CashFlowSeries(2008, ((2009, 50.0), (2011, 30.0)))
        with pytest.raises(ValueError, match="valuation_year 2010 precedes last flow year 2011"):
            rent_forward_value(flows, x, 0.0507, 2010)


def sensitivity_fixture():
    """Mine whose rent flips sign between a mild and a harsh rate."""
    records = [
        make_record(
            y,
            revenue=95.0,
            operating_cost=30.0,
            admin_sales_expense=3.0,
            pretax_result=62.0,
            depreciation_amortization=8.0,
            taxes_paid=10.0,
            fixed_asset_additions=12.0,
            net_loan_payments=4.0,
            production=50_000.0,
        )
        for y in range(2002, 2012)
    ]
    mine = make_mine(mine_id="edge", opening_year=2001, capital_paid_first_year=260.0, records=records)
    # zero exploration spend keeps the initial investment at the paid-in capital
    market = make_market(years=range(1984, 2013), exploration_pct=0.0, fund_rate=0.0507)
    return mine, market


class TestSensitivityReport:
    def test_sign_flip_between_rates(self):
        mine, market = sensitivity_fixture()
        report = sensitivity_report([mine], market, [("base", Rate(0.10)), ("harsh", Rate(0.25))])
        mild = report.cell("edge", "base")
        harsh = report.cell("edge", "harsh")
        assert mild.momento_x is not None
        assert harsh.momento_x is None
        assert mild.rent_pv > 0 and harsh.rent_pv == 0.0
        assert harsh.rent_forward == 0.0

    def test_identical_specs_identical_columns(self):
        mine, market = sensitivity_fixture()
        report = sensitivity_report([mine], market, [("one", Rate(0.12)), ("two", Rate(0.12))])
        one = report.cell("edge", "one")
        two = report.cell("edge", "two")
        assert one == two

    def test_momento_ordering_across_rates(self, corpus_mines, corpus_market):
        report = sensitivity_report(
            corpus_mines, corpus_market, [("base", Rate(0.1216899)), ("conservative", Rate(0.18788))]
        )
        for mine in corpus_mines:
            base = report.cell(mine.mine_id, "base")
            harsh = report.cell(mine.mine_id, "conservative")
            if harsh.momento_x is not None:
                assert base.momento_x is not None
                assert base.momento_x <= harsh.momento_x

    def test_duplicate_labels_rejected(self):
        mine, market = sensitivity_fixture()
        with pytest.raises(ValueError):
            sensitivity_report([mine], market, [("x", Rate(0.1)), ("x", Rate(0.2))])

    @pytest.mark.parametrize(
        "rate, valuation_year, message",
        [
            (0.0, 2112, None),
            (1.0, 2012, None),
            (-1e-9, 2012, "discount rate 'r' must lie in [0, 1], got -1e-09"),
            (1.0000000000000002, 2012, "discount rate 'r' must lie in [0, 1], got 1.0000000000000002"),
            (0.1, 2113, "valuation_year 2113 is after 2112"),
            (0.1, 2011, None),
            # At either rate, whether or not the rent is appropriated (momento x is 2011 at 0.1, none at 1).
            (0.1, 2010, "valuation_year 2010 precedes last flow year 2011"),
            (1.0, 2010, "valuation_year 2010 precedes last flow year 2011"),
        ],
    )
    def test_rate_and_valuation_year_bounds(self, rate, valuation_year, message):
        mine, market = sensitivity_fixture()
        if message is None:
            assert sensitivity_report([mine], market, [("r", rate)], valuation_year).cell("edge", "r")
        else:
            with pytest.raises(ValueError) as excinfo:
                sensitivity_report([mine], market, [("r", rate)], valuation_year)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "specs, valuation_year",
        [
            ([], 2012),
            ([("r", 0.1), ("r", 0.2)], 2012),
            ([("r", 2.0)], 2012),
            ([("r", 0.1)], 2113),
        ],
    )
    def test_arguments_are_checked_before_the_inputs(self, specs, valuation_year):
        # The capital makes the mine invalid, but the ValueError for the arguments comes first.
        mine, market = sensitivity_fixture()
        with pytest.raises(ValueError):
            sensitivity_report([mine._replace(capital_paid_first_year=0.0)], market, specs, valuation_year)

    def test_valuation_year_is_checked_against_the_validated_mines(self):
        # The last flow year is read from validated mines, so an invalid mine is refused as such first.
        mine, market = sensitivity_fixture()
        with pytest.raises(InvalidDatasetError):
            sensitivity_report([mine._replace(capital_paid_first_year=0.0)], market, [("r", 0.1)], 2010)
        with pytest.raises(ValueError, match="^valuation_year 2010 precedes last flow year 2011$"):
            sensitivity_report([mine], market, [("r", 0.1)], 2010)

    def test_valuation_year_is_checked_against_the_last_mine_to_end(self):
        # The run's last flow year, 2012, is named before a per-mine check could name edge's 2011.
        mine, market = sensitivity_fixture()
        late = mine._replace(mine_id="late", records=(*mine.records, mine.records[-1]._replace(year=2012)))
        with pytest.raises(ValueError, match="^valuation_year 2010 precedes last flow year 2012$"):
            sensitivity_report([mine, late], market, [("r", 0.1)], 2010)

    def test_mines_sharing_an_id_are_refused(self, corpus_mines, corpus_market):
        # Unchecked, both "alpha" rows held beta's numbers: the imputation keys its allocations by id.
        alpha, beta, _ = corpus_mines
        with pytest.raises(InvalidDatasetError) as excinfo:
            sensitivity_report([alpha, beta._replace(mine_id="alpha")], corpus_market, [("r", 0.1)])
        assert str(excinfo.value) == "alpha: [duplicate-mine-id] 2 mines share this mine_id"

    def test_validation_warnings_come_back_on_the_report(self):
        mine, market = sensitivity_fixture()
        mine = mine._replace(physical_history=(PhysicalYear(2001, 50_000.0, 60_000.0),))
        report = sensitivity_report([mine], market, [("r", 0.1)])
        assert [(w.locator, w.rule) for w in report.warnings] == [("edge:2001", "exports-exceed-production")]


class TestAnalyzeMine:
    def test_reconstructed_mine_matches_report_cell(self, corpus_mines, corpus_market):
        rate = Rate(0.1216899)
        report = sensitivity_report(corpus_mines, corpus_market, [("base", rate)])
        full = [reconstruct_dataset(mine, corpus_market) for mine in corpus_mines]
        exploration = impute_exploration(corpus_market, full, rate.value)
        for mine in full:
            assert analyze_mine(mine, corpus_market, rate, exploration) == report.cell(mine.mine_id, "base")

    def test_unreconstructed_mine_rejected(self, corpus_mines, corpus_market):
        mine = next(mine for mine in corpus_mines if mine.physical_history)
        exploration = impute_exploration(corpus_market, corpus_mines, 0.12)
        with pytest.raises(ValueError, match="physical history is not reconstructed"):
            analyze_mine(mine, corpus_market, Rate(0.12), exploration)


class TestWriters:
    def test_plot_data_layout(self, tmp_path):
        series = rvp_series(flows_of(2000, [60.0, 60.5]), investment(100.0), 0.10)
        target = tmp_path / "m.csv"
        write_plot_data(series, target)
        lines = target.read_text().splitlines()
        assert lines[0] == "year,rvp"
        assert len(lines) == 3
        assert lines[1].startswith("2001,-45.45")

    def test_summary_table_layout(self, tmp_path):
        mine, market = sensitivity_fixture()
        report = sensitivity_report([mine], market, [("base", Rate(0.10)), ("harsh", Rate(0.25))])
        target = tmp_path / "summary.csv"
        write_summary_table(report, target)
        lines = target.read_text().splitlines()
        assert lines[0] == (
            "mine_id,momento_x_base,momento_x_harsh,rent_pv_at_t0_base,rent_pv_at_t0_harsh,"
            "rent_at_2012_base,rent_at_2012_harsh"
        )
        cells = lines[1].split(",")
        assert cells[0] == "edge"
        assert cells[2] == "-"  # absent momento under the harsh rate
