"""Baseline statistics, year backfilling, and exploration imputation."""

from __future__ import annotations

import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minerent import (
    BaselineStats,
    InvalidDatasetError,
    PhysicalYear,
    ReconstructionError,
    compute_baseline_stats,
    impute_exploration,
    reconstruct_all,
    reconstruct_dataset,
)

from conftest import make_market, make_mine, make_record
from oracle import rel_close


def baseline_records():
    return [
        make_record(2001, operating_cost=200.0, production=100.0, admin_sales_expense=20.0),
        make_record(2002, operating_cost=220.0, production=110.0, admin_sales_expense=22.0),
    ]


class TestBaselineStats:
    def test_avg_unit_cost_is_mean_of_ratios(self):
        stats = compute_baseline_stats(baseline_records())
        assert stats.avg_unit_cost == pytest.approx((200 / 100 + 220 / 110) / 2)
        assert stats.avg_unit_cost == pytest.approx(2.0)

    def test_gav_ratio_is_mean_of_ratios(self):
        records = [
            make_record(2001, admin_sales_expense=20.0, operating_cost=200.0),
            make_record(2002, admin_sales_expense=30.0, operating_cost=300.0),
        ]
        stats = compute_baseline_stats(records)
        assert stats.gav_ratio == pytest.approx(0.10)

    def test_single_year_window_is_verbatim(self):
        rec = make_record(
            2003,
            operating_cost=150.0,
            production=60.0,
            admin_sales_expense=12.0,
            depreciation_amortization=9.0,
            fixed_asset_additions=17.0,
            net_loan_payments=3.0,
        )
        stats = compute_baseline_stats([rec])
        assert stats.avg_unit_cost == pytest.approx(150.0 / 60.0)
        assert stats.gav_ratio == pytest.approx(12.0 / 150.0)
        assert stats.avg_dep_amort == 9.0
        assert stats.avg_fixed_asset_additions == 17.0
        assert stats.avg_net_loan_payments == 3.0

    def test_zero_production_years_excluded_from_unit_cost(self):
        records = baseline_records() + [make_record(2003, operating_cost=50.0, production=0.0)]
        stats = compute_baseline_stats(records)
        assert stats.avg_unit_cost == pytest.approx(2.0)

    def test_nonoperating_mean(self):
        records = [
            make_record(2001, revenue=100.0, operating_cost=40.0, admin_sales_expense=4.0, pretax_result=58.0),
            make_record(2002, revenue=100.0, operating_cost=40.0, admin_sales_expense=4.0, pretax_result=52.0),
        ]
        stats = compute_baseline_stats(records)
        # per-year nonoperating: 58-56=2 and 52-56=-4
        assert stats.avg_nonoperating == pytest.approx(-1.0)

    @pytest.mark.parametrize(
        "first, second, fields",
        [
            # Two finite years whose sum would leave the float range.
            (
                dict(fixed_asset_additions=1.5e308),
                dict(fixed_asset_additions=1.5e308),
                "fixed_asset_additions=1.5e+308",
            ),
            # Nonoperating results that would be +inf and -inf, whose exact sum is undefined.
            (
                dict(revenue=-1.7e308, pretax_result=1.7e308),
                dict(revenue=1.7e308, pretax_result=-1.7e308),
                "revenue=-1.7e+308, pretax_result=1.7e+308",
            ),
        ],
    )
    def test_mean_out_of_float_range_names_the_field(self, first, second, fields):
        # Refused by validation before any mean is taken, also for a mine with nothing to backfill.
        mine = make_mine(records=[make_record(2001, **first), make_record(2002, **second)])
        with pytest.raises(ReconstructionError) as excinfo:
            reconstruct_dataset(mine, make_market())
        assert str(excinfo.value) == (
            "testmine:2001: [money-range] values must be 0 or between 1e-06 and 1e+12 M USD in magnitude, "
            f"got {fields}"
        )

    @pytest.mark.parametrize("change", [dict(year=1990), dict(production=0.0)])
    def test_window_without_a_producing_year_raises(self, change):
        with pytest.raises(ReconstructionError) as excinfo:
            compute_baseline_stats([rec._replace(**change) for rec in baseline_records()[:1]])
        assert str(excinfo.value) == "no year with production > 0 in baseline window (2001, 2005)"

    # Money spans 1e-3..1e16, so a plain left-to-right sum drops low bits that fsum keeps.
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=-1e16, max_value=1e16),
                st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e16)),
                st.floats(min_value=-1e16, max_value=1e16),
                st.floats(min_value=1.0, max_value=1e9),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @example(rows=[(1e16, 1e16, 1e16, 1.0), (1.0, 1.0, 1.0, 1.0), (-1e16, 1e3, -1e16, 1.0)])
    @settings(max_examples=200, deadline=None)
    def test_means_equal_statistics_fmean(self, rows):
        records = [
            make_record(
                2001 + i,
                revenue=money,
                operating_cost=cost,
                admin_sales_expense=money / 3,
                pretax_result=other,
                depreciation_amortization=other,
                fixed_asset_additions=money,
                net_loan_payments=-other,
                production=production,
            )
            for i, (money, cost, other, production) in enumerate(rows)
        ]
        with_cost = [rec for rec in records if rec.operating_cost > 0]
        fmean = statistics.fmean
        expected = BaselineStats(
            avg_unit_cost=fmean(rec.operating_cost / rec.production for rec in records),
            gav_ratio=fmean(rec.admin_sales_expense / rec.operating_cost for rec in with_cost) if with_cost else 0.0,
            avg_nonoperating=fmean(
                rec.pretax_result - (rec.revenue - rec.operating_cost - rec.admin_sales_expense) for rec in records
            ),
            avg_fixed_asset_additions=fmean(rec.fixed_asset_additions for rec in records),
            avg_dep_amort=fmean(rec.depreciation_amortization for rec in records),
            avg_net_loan_payments=fmean(rec.net_loan_payments for rec in records),
        )
        assert repr(compute_baseline_stats(records)) == repr(expected)


def reconstruction_mine(**kwargs):
    defaults = dict(
        opening_year=1995,
        records=[make_record(y, operating_cost=200.0, production=100_000.0) for y in range(2001, 2006)],
        physical_history=[PhysicalYear(1996, 100_000.0, 90_000.0)],
    )
    defaults.update(kwargs)
    return make_mine(**defaults)


def rebuild(mine, price=2000.0, audit=None):
    """The record ``reconstruct_dataset`` rebuilds from the mine's one pre-history row, priced at ``price`` USD/t."""
    year = mine.physical_history[0].year
    full = reconstruct_dataset(mine, make_market(price=price), audit)
    return next(rec for rec in full.records if rec.year == year)


class TestReconstructYear:
    def test_revenue_takes_smaller_candidate(self):
        rec = rebuild(reconstruction_mine())
        assert rec.revenue == pytest.approx(180.0)  # min(200, 180) million USD
        assert rec.reconstructed

    def test_equal_quantities_symmetric(self):
        rec = rebuild(reconstruction_mine(physical_history=[PhysicalYear(1996, 100_000.0, 100_000.0)]))
        assert rec.revenue == pytest.approx(200.0)

    def test_taxes_zeroed_without_escondida_rule(self):
        mine = reconstruction_mine(
            physical_history=[PhysicalYear(1996, 100_000.0, 90_000.0, taxes_paid=12.0)],
            escondida_tax_rule=False,
        )
        assert rebuild(mine).taxes_paid == 0.0

    def test_escondida_rule_keeps_supplied_taxes(self):
        mine = reconstruction_mine(
            physical_history=[PhysicalYear(1996, 100_000.0, 90_000.0, taxes_paid=12.0)],
            escondida_tax_rule=True,
        )
        assert rebuild(mine).taxes_paid == 12.0

    def test_escondida_rule_without_figure_still_zero(self):
        assert rebuild(reconstruction_mine(escondida_tax_rule=True)).taxes_paid == 0.0

    def test_line_items_from_baseline(self):
        mine = reconstruction_mine()
        baseline = compute_baseline_stats(mine.records)
        rec = rebuild(mine)
        assert rec.operating_cost == pytest.approx(baseline.avg_unit_cost * 100_000.0)
        assert rec.admin_sales_expense == pytest.approx(baseline.gav_ratio * rec.operating_cost)
        expected_pretax = (
            rec.revenue - rec.operating_cost - rec.admin_sales_expense + baseline.avg_nonoperating
        )
        assert rec.pretax_result == pytest.approx(expected_pretax)
        assert rec.depreciation_amortization == baseline.avg_dep_amort
        assert rec.fixed_asset_additions == baseline.avg_fixed_asset_additions
        assert rec.net_loan_payments == baseline.avg_net_loan_payments
        assert rec.capital_paid_increase == 0.0

    def test_year_and_tonnages_come_from_the_row(self):
        rec = rebuild(reconstruction_mine(physical_history=[PhysicalYear(1997, 80_000.0, 70_000.0)]))
        assert (rec.year, rec.production, rec.exports) == (1997, 80_000.0, 70_000.0)

    def test_audit_lines_emitted(self):
        audit: list[str] = []
        rebuild(reconstruction_mine(), audit=audit)
        assert len(audit) == 8
        assert all(line.startswith("testmine 1996 ") for line in audit)
        assert any("min(price*production, price*exports)" in line for line in audit)

    @given(
        production=st.floats(min_value=1.0, max_value=1e6),
        # what validation accepts: tonnage-range refuses 0 < exports < 1 t
        exports=st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1e6)),
        price=st.floats(min_value=1.0, max_value=20_000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_revenue_rule_invariant(self, production, exports, price):
        rec = rebuild(reconstruction_mine(physical_history=[PhysicalYear(1996, production, exports)]), price)
        assert rec.revenue <= price * production / 1e6 + 1e-9
        assert rec.revenue <= price * exports / 1e6 + 1e-9


class TestReconstructDataset:
    def test_backfills_all_physical_years(self):
        mine = reconstruction_mine(
            physical_history=[PhysicalYear(y, 100_000.0, 95_000.0) for y in (1996, 1997, 1998)]
        )
        full = reconstruct_dataset(mine, make_market())
        assert full.physical_history == ()
        assert [r.year for r in full.records] == [1996, 1997, 1998] + list(range(2001, 2006))
        assert [r.year for r in full.records if r.reconstructed] == [1996, 1997, 1998]

    @pytest.mark.parametrize("years", [range(2001, 2006), [2006]])  # with and without a baseline year
    def test_no_history_is_identity(self, years):
        mine = reconstruction_mine(records=[make_record(year) for year in years], physical_history=())
        assert reconstruct_dataset(mine, make_market()) is mine


class TestReconstructAll:
    def test_completes_every_mine_in_order_with_the_warnings(self):
        drawn_down = reconstruction_mine(mine_id="a", physical_history=[PhysicalYear(1996, 100_000.0, 120_000.0)])
        mines = [reconstruction_mine(mine_id="b"), drawn_down]
        audit: list[str] = []
        completed, warnings = reconstruct_all(mines, make_market(), audit)
        assert completed == [reconstruct_dataset(mine, make_market()) for mine in mines]
        assert [(issue.locator, issue.rule) for issue in warnings] == [("a:1996", "exports-exceed-production")]
        assert [line.split()[0] for line in audit[::8]] == ["b", "a"]  # eight audit lines per rebuilt year

    def test_invalid_inputs_raise_one_error_carrying_the_whole_report(self):
        mines = [
            reconstruction_mine(mine_id="a", opening_year=1997),
            reconstruction_mine(mine_id="b", capital_paid_first_year=0.0),
        ]
        with pytest.raises(InvalidDatasetError) as excinfo:
            reconstruct_all(mines, make_market())
        report = excinfo.value.report
        assert [(issue.locator, issue.rule) for issue in report.errors] == [
            ("a:1996", "history-after-opening"),
            ("b", "capital-paid-positive"),
        ]
        assert str(excinfo.value) == "a:1996: [history-after-opening] pre-history year 1996 precedes opening_year 1997"

    @pytest.mark.parametrize(
        "mine, market, rules",
        [
            # No reported year in 2001-2005 to average over.
            (reconstruction_mine(records=[make_record(2006)]), make_market(), ["baseline-window"]),
            # A pre-history row on or after the first reported year.
            (
                reconstruction_mine(physical_history=[PhysicalYear(2003, 1.0, 1.0)]),
                make_market(),
                ["duplicate-year", "history-before-reports"],
            ),
            (
                reconstruction_mine(physical_history=[PhysicalYear(2006, 1.0, 1.0)]),
                make_market(),
                ["history-before-reports"],
            ),
            # A pre-history year the market lacks.
            (reconstruction_mine(), make_market(years=range(1997, 2013)), ["market-coverage"]),
        ],
    )
    def test_a_mine_that_cannot_be_backfilled_is_a_validation_error(self, mine, market, rules):
        # What the backfill needs is checked by validation, whose report comes with the refusal.
        mine = mine._replace(physical_history=(*mine.physical_history, PhysicalYear(1997, 100_000.0, 120_000.0)))
        with pytest.raises(InvalidDatasetError) as excinfo:
            reconstruct_all([mine], market)
        assert [issue.rule for issue in excinfo.value.report.errors] == rules
        assert [issue.rule for issue in excinfo.value.report.warnings] == ["exports-exceed-production"]


class TestImputeExploration:
    def test_proration_shares(self):
        market = make_market(years=[1995], gdp=75_000.0, exploration_pct=0.004)
        big = make_mine(
            mine_id="big", opening_year=1995,
            records=[make_record(2001, production=200_000.0)],
        )
        small = make_mine(
            mine_id="small", opening_year=1995,
            records=[make_record(2001, production=100_000.0)],
        )
        result = impute_exploration(market, [big, small], r=0.0)
        assert result.yearly_allocations[1995]["big"] == pytest.approx(200.0 * 2 / 3)
        assert result.yearly_allocations[1995]["small"] == pytest.approx(200.0 / 3)
        # r=0 means no capitalization adjustment
        assert result.allocations["big"] == pytest.approx(133.3333333333, rel=1e-9)
        assert result.allocations["small"] == pytest.approx(66.6666666667, rel=1e-9)
        assert result.total_private_spend == pytest.approx(200.0)

    def test_single_eligible_mine_gets_everything(self):
        market = make_market(years=[1995], gdp=75_000.0, exploration_pct=0.004)
        only = make_mine(mine_id="only", opening_year=1995, records=[make_record(2001)])
        result = impute_exploration(market, [only], r=0.0)
        assert result.allocations["only"] == pytest.approx(200.0)

    def test_capitalization_to_opening_year(self):
        # 100 of private spend allocated 3 years before t=0 at r=0.10
        market = make_market(years=[1992], gdp=37_500.0, exploration_pct=0.004)
        mine = make_mine(mine_id="m", opening_year=1995, records=[make_record(2001)])
        result = impute_exploration(market, [mine], r=0.10)
        assert result.allocations["m"] == pytest.approx(100.0 * 1.1**3)
        assert result.allocations["m"] == pytest.approx(133.1)

    def test_unallocated_year_warns(self):
        market = make_market(years=[1984, 1995], gdp=75_000.0, exploration_pct=0.004)
        mine = make_mine(mine_id="m", opening_year=1995, records=[make_record(2001)])
        result = impute_exploration(market, [mine], r=0.0)
        assert len(result.warnings) == 1
        assert "1984" in result.warnings[0]
        assert result.allocations["m"] == pytest.approx(200.0)

    def test_eligibility_window(self):
        market = make_market(years=[1989, 1990, 1995, 1996], gdp=75_000.0, exploration_pct=0.004)
        mine = make_mine(mine_id="m", opening_year=1995, records=[make_record(2001)])
        result = impute_exploration(market, [mine], r=0.0)
        # eligible only for 1990..1995; 1989 and 1996 stay unallocated
        assert sorted(result.yearly_allocations) == [1990, 1995]
        assert len(result.warnings) == 2

    @given(
        gdp=st.floats(min_value=1_000.0, max_value=500_000.0),
        pct=st.floats(min_value=0.0, max_value=0.02),
        productions=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_proration_conserves_private_spend(self, gdp, pct, productions):
        market = make_market(years=[1995], gdp=gdp, exploration_pct=pct)
        mines = [
            make_mine(mine_id=f"m{i}", opening_year=1995, records=[make_record(2001, production=p)])
            for i, p in enumerate(productions)
        ]
        result = impute_exploration(market, mines, r=0.12)
        private = (2.0 / 3.0) * gdp * pct
        allocated = sum(result.yearly_allocations.get(1995, {}).values())
        assert rel_close(allocated, private, rel=1e-9, abs_tol=1e-9)

    @given(
        productions=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2, max_size=5),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_covariance_of_shares(self, productions, scale):
        def build(factor):
            return [
                make_mine(
                    mine_id=f"m{i}", opening_year=1995,
                    records=[make_record(2001, production=p * factor)],
                )
                for i, p in enumerate(productions)
            ]

        market = make_market(years=[1995], gdp=75_000.0, exploration_pct=0.004)
        base = impute_exploration(market, build(1.0), r=0.1)
        scaled = impute_exploration(market, build(scale), r=0.1)
        for key, value in base.allocations.items():
            assert rel_close(scaled.allocations[key], value, rel=1e-9, abs_tol=1e-9)
