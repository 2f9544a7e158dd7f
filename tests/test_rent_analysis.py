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
    RvpSeries,
    analyze_mine,
    as_rate,
    impute_exploration,
    present_value,
    rent_forward_value,
    reconstruct_dataset,
    rvp_series,
    sensitivity_report,
    write_plot_data,
    write_summary_table,
)

from conftest import make_market, make_mine, make_record
from oracle import forward_brute, momento_brute, rel_close, rvp_brute


def investment(total):
    return InitialInvestment(extraction=total, exploration=0.0, total=total)


def flows_of(base_year, amounts, start_offset=1):
    return CashFlowSeries(
        base_year, tuple((base_year + start_offset + i, a) for i, a in enumerate(amounts))
    )


# Each row: a call, flows and the call's other arguments (the initial investment and the rate of rvp_series, or the
# x, fund rate and valuation year of rent_forward_value), mapped to the value returned or the ValueError's text.
RVP_CASES = {
    "two-year-payback": (
        rvp_series, flows_of(2000, [60.0, 60.5]), (investment(100.0), Rate(0.10)),
        RvpSeries(((2001, -45.45454545454546), (2002, 4.5454545454545325)), 2002, 4.5454545454545325),
    ),
    "all-zero-flows": (
        rvp_series, flows_of(2000, [0.0, 0.0, 0.0]), (investment(100.0), Rate(0.10)),
        RvpSeries(((2001, -100.0), (2002, -100.0), (2003, -100.0)), None, 0.0),
    ),
    "higher-rate-erases-rent": (
        rvp_series, flows_of(2000, [60.0, 60.5]), (investment(100.0), Rate(0.25)),
        RvpSeries(((2001, -52.0), (2002, -13.280000000000001)), None, 0.0),
    ),
    "empty-flows": (rvp_series, CashFlowSeries(2000, ()), (investment(10.0), 0.1), RvpSeries((), None, 0.0)),
    "mixed-sign-flows": (
        rvp_series, flows_of(2000, [50.0, -20.0, 80.0, 10.0]), (investment(60.0), 0.13),
        RvpSeries(
            ((2001, -15.752212389380524), (2002, -31.415146056856447),
             (2003, 24.02886692535921), (2004, 30.162054202152973)),
            2003, 30.162054202152973,
        ),
    ),
    "never-positive": (
        rvp_series, flows_of(2000, [1.0, 1.0]), (investment(100.0), 0.10),
        RvpSeries(((2001, -99.0909090909091), (2002, -98.26446280991736)), None, 0.0),
    ),
    # Undiscounted flows: -10, 0.0, +5 relative to the investment; an exact payback is not momento x.
    "exact-zero-does-not-trigger": (
        rvp_series, flows_of(2000, [20.0, 10.0, 5.0]), (investment(30.0), 0.0),
        RvpSeries(((2001, -10.0), (2002, 0.0), (2003, 5.0)), 2003, 5.0),
    ),
    "two-year-compounding": (
        rent_forward_value, CashFlowSeries(2009, ((2010, 100.0),)), (2009, 0.0507, 2012), 110.39704900000001
    ),
    "flow-in-valuation-year-kept-verbatim": (
        rent_forward_value, CashFlowSeries(2011, ((2012, 77.0),)), (2011, 0.0507, 2012), 77.0
    ),
    "mixed-years": (
        rent_forward_value, CashFlowSeries(2010, ((2011, 50.0), (2012, 50.0))), (2010, 0.0507, 2012), 102.535
    ),
    "absent-momento-gives-zero": (rent_forward_value, CashFlowSeries(2010, ((2011, 50.0),)), (None, 0.0507, 2012), 0.0),
    "momento-at-final-year-gives-zero": (
        rent_forward_value, CashFlowSeries(2008, ((2009, 50.0), (2011, 30.0))), (2011, 0.0507, 2012), 0.0,
    ),
    # Whether or not the rent was appropriated.
    **{
        f"valuation-before-last-flow-at-x-{x}": (
            rent_forward_value, CashFlowSeries(2008, ((2009, 50.0), (2011, 30.0))), (x, 0.0507, 2010),
            "valuation_year 2010 precedes last flow year 2011",
        )
        for x in (2009, None)
    },
}


@pytest.mark.parametrize("call, flows, args, expected", list(RVP_CASES.values()), ids=list(RVP_CASES))
def test_rvp_case(call, flows, args, expected):
    """The value by repr, or the exact refusal; a value also matches the oracle's brute force to 1e-12."""
    if isinstance(expected, str):
        with pytest.raises(ValueError) as excinfo:
            call(flows, *args)
        assert str(excinfo.value) == expected
        return
    value = call(flows, *args)
    assert repr(value) == repr(expected)
    if call is rvp_series:
        brute = rvp_brute(list(flows.flows), flows.base_year, args[0].total, as_rate(args[1]).value)
        assert [year for year, _ in value.points] == [year for year, _ in brute]
        assert all(rel_close(got, want, rel=1e-12) for (_, got), (_, want) in zip(value.points, brute))
        assert value.momento_x == momento_brute(brute)
    else:
        assert rel_close(value, forward_brute(list(flows.flows), *args), rel=1e-12)


class TestRvpSeries:
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


# A mine whose rent flips sign between a mild and a harsh rate; zero exploration spend keeps its initial investment
# at the paid-in capital.
EDGE = make_mine(
    mine_id="edge",
    opening_year=2001,
    capital_paid_first_year=260.0,
    records=[
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
    ],
)
EDGE_MARKET = make_market(years=range(1984, 2013), exploration_pct=0.0, fund_rate=0.0507)
LATE = EDGE._replace(mine_id="late", records=(*EDGE.records, EDGE.records[-1]._replace(year=2012)))
INVALID = EDGE._replace(capital_paid_first_year=0.0)
OUTSIDE = "discount rate 'r' must lie in [0, 1], got"


class TestSensitivityReport:
    def test_sign_flip_between_rates(self):
        report = sensitivity_report([EDGE], EDGE_MARKET, [("base", Rate(0.10)), ("harsh", Rate(0.25))])
        mild = report.cell("edge", "base")
        harsh = report.cell("edge", "harsh")
        assert mild.momento_x is not None
        assert harsh.momento_x is None
        assert mild.rent_pv > 0 and harsh.rent_pv == 0.0
        assert harsh.rent_forward == 0.0

    def test_identical_specs_identical_columns(self):
        report = sensitivity_report([EDGE], EDGE_MARKET, [("one", Rate(0.12)), ("two", Rate(0.12))])
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

    @pytest.mark.parametrize(
        "mines, specs, valuation_year, error",
        [
            ([EDGE], [("r", 0.0)], 2112, None),
            ([EDGE], [("r", 1.0)], 2012, None),
            ([EDGE], [("r", -1e-9)], 2012, ValueError(f"{OUTSIDE} -1e-09")),
            ([EDGE], [("r", 1.0000000000000002)], 2012, ValueError(f"{OUTSIDE} 1.0000000000000002")),
            ([EDGE], [("r", 0.1)], 2113, ValueError("valuation_year 2113 is after 2112")),
            ([EDGE], [("r", 0.1)], 2011, None),
            # At either rate, whether or not the rent is appropriated (momento x is 2011 at 0.1, none at 1).
            ([EDGE], [("r", 0.1)], 2010, ValueError("valuation_year 2010 precedes last flow year 2011")),
            ([EDGE], [("r", 1.0)], 2010, ValueError("valuation_year 2010 precedes last flow year 2011")),
            ([EDGE], [("x", Rate(0.1)), ("x", Rate(0.2))], 2012, ValueError("duplicate rate labels: ['x', 'x']")),
            # The run's last flow year, 2012, is named before a per-mine check could name edge's 2011.
            ([EDGE, LATE], [("r", 0.1)], 2010, ValueError("valuation_year 2010 precedes last flow year 2012")),
            # An invalid mine: the ValueError for the arguments comes first, but the last flow year is read from
            # validated mines, so at 2010 the mine is refused as such first.
            ([INVALID], [], 2012, ValueError("at least one labeled rate is required")),
            ([INVALID], [("r", 0.1), ("r", 0.2)], 2012, ValueError("duplicate rate labels: ['r', 'r']")),
            ([INVALID], [("r", 2.0)], 2012, ValueError(f"{OUTSIDE} 2.0")),
            ([INVALID], [("r", 0.1)], 2113, ValueError("valuation_year 2113 is after 2112")),
            ([INVALID], [("r", 0.1)], 2010,
             InvalidDatasetError("edge: [capital-paid-positive] capital_paid_first_year must be > 0, got 0.0")),
            # Unchecked, both "edge" rows held the second mine's numbers: the imputation keys its allocations by id.
            ([EDGE, LATE._replace(mine_id="edge")], [("r", 0.1)], 2012,
             InvalidDatasetError("edge: [duplicate-mine-id] 2 mines share this mine_id")),
        ],
    )
    def test_rate_and_valuation_year_bounds(self, mines, specs, valuation_year, error):
        if error is None:
            assert sensitivity_report(mines, EDGE_MARKET, specs, valuation_year).cell("edge", "r")
        else:
            with pytest.raises(Exception) as excinfo:
                sensitivity_report(mines, EDGE_MARKET, specs, valuation_year)
            assert (type(excinfo.value), str(excinfo.value)) == (type(error), str(error))

    def test_validation_warnings_come_back_on_the_report(self):
        mine = EDGE._replace(physical_history=(PhysicalYear(2001, 50_000.0, 60_000.0),))
        report = sensitivity_report([mine], EDGE_MARKET, [("r", 0.1)])
        assert [(w.locator, w.rule) for w in report.warnings] == [("edge:2001", "exports-exceed-production")]


class TestAnalyzeMine:
    def test_reconstructed_mine_matches_report_cell(self, corpus_mines, corpus_market):
        rate = Rate(0.1216899)
        report = sensitivity_report(corpus_mines, corpus_market, [("base", rate)])
        full = [reconstruct_dataset(mine, corpus_market) for mine in corpus_mines]
        exploration = impute_exploration(corpus_market, full)
        for mine in full:
            assert analyze_mine(mine, corpus_market, rate, exploration) == report.cell(mine.mine_id, "base")

    def test_unreconstructed_mine_rejected(self, corpus_mines, corpus_market):
        mine = next(mine for mine in corpus_mines if mine.physical_history)
        exploration = impute_exploration(corpus_market, corpus_mines)
        with pytest.raises(ValueError, match="^alpha: physical history is not reconstructed$"):
            analyze_mine(mine, corpus_market, Rate(0.12), exploration)


class TestWriters:
    def test_plot_data_layout(self, tmp_path):
        series = rvp_series(flows_of(2000, [60.0, 60.5]), investment(100.0), 0.10)
        target = tmp_path / "m.csv"
        write_plot_data(series, target)
        assert target.read_text() == "year,rvp\n2001,-45.45454545454546\n2002,4.5454545454545325\n"

    def test_summary_table_layout(self, tmp_path):
        report = sensitivity_report([EDGE], EDGE_MARKET, [("base", Rate(0.10)), ("harsh", Rate(0.25))])
        target = tmp_path / "summary.csv"
        write_summary_table(report, target)
        assert target.read_text() == (
            "mine_id,momento_x_base,momento_x_harsh,rent_pv_at_t0_base,rent_pv_at_t0_harsh,"
            "rent_at_2012_base,rent_at_2012_harsh\n"
            "edge,2011,-,10.36095265100596,0.0,0.0,0.0\n"  # absent momento under the harsh rate
        )
