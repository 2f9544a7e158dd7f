"""Discount rates, the annual cash flow, and present-value machinery."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minerent import (
    PRESETS,
    CashFlowSeries,
    DiscountSpec,
    InitialInvestment,
    Rate,
    annual_cash_flow,
    discount_rate,
    initial_investment,
    mine_cash_flows,
    present_value,
)
from minerent.reconstruction import ExplorationImputation
from minerent.valuation import compound, discount

from conftest import make_mine, make_record


def imputation(allocations):
    return ExplorationImputation(
        allocations=allocations,
        yearly_allocations={},
        total_private_spend=sum(allocations.values()),
    )


class TestDiscountRate:
    def test_conservative_parameters(self):
        rate = discount_rate(DiscountSpec(0.069, 2.0, 0.03889, 0.0411))
        assert rate.value == pytest.approx(0.18788, abs=1e-6)

    def test_zero_beta_zero_country(self):
        assert discount_rate(DiscountSpec(0.05, 0.0, 0.07, 0.0)).value == 0.05

    def test_base_parameters(self):
        rate = discount_rate(DiscountSpec(0.069, 0.91, 0.03889, 0.0173))
        assert rate.value == pytest.approx(0.12169, abs=1e-6)

    def test_presets(self):
        assert discount_rate(PRESETS["base"]).value == pytest.approx(0.1216899)
        assert discount_rate(PRESETS["conservative"]).value == pytest.approx(0.18788)

    @given(
        spec=st.tuples(
            st.floats(min_value=0, max_value=0.2),
            st.floats(min_value=0.01, max_value=4),
            st.floats(min_value=0.001, max_value=0.2),
            st.floats(min_value=0, max_value=0.2),
        ),
        bump=st.floats(min_value=1e-6, max_value=0.05),
        which=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=200)
    def test_strictly_increasing_in_each_parameter(self, spec, bump, which):
        base = DiscountSpec(*spec)
        bumped_values = list(spec)
        bumped_values[which] += bump
        bumped = DiscountSpec(*bumped_values)
        assert discount_rate(bumped).value > discount_rate(base).value

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            DiscountSpec(-0.01, 1.0, 0.05, 0.0)


class TestAnnualCashFlow:
    def test_six_line_items(self):
        rec = make_record(
            2001,
            pretax_result=100.0,
            depreciation_amortization=20.0,
            capital_paid_increase=5.0,
            taxes_paid=10.0,
            fixed_asset_additions=30.0,
            net_loan_payments=15.0,
        )
        assert annual_cash_flow(rec) == pytest.approx(60.0)

    def test_all_zero(self):
        rec = make_record(
            2001,
            pretax_result=0.0,
            depreciation_amortization=0.0,
            capital_paid_increase=0.0,
            taxes_paid=0.0,
            fixed_asset_additions=0.0,
            net_loan_payments=0.0,
        )
        assert annual_cash_flow(rec) == 0.0

    def test_taxes_absorb_gross_flow(self):
        rec = make_record(
            2001,
            pretax_result=50.0,
            depreciation_amortization=10.0,
            capital_paid_increase=0.0,
            taxes_paid=60.0,
            fixed_asset_additions=0.0,
            net_loan_payments=0.0,
        )
        assert annual_cash_flow(rec) == pytest.approx(0.0)

    @given(
        values=st.tuples(*[st.floats(min_value=-500, max_value=500) for _ in range(6)]),
        scale=st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=200)
    def test_linear_in_money_fields(self, values, scale):
        pretax, dep, cap, tax, faa, nlp = values
        rec = make_record(
            2001, pretax_result=pretax, depreciation_amortization=dep,
            capital_paid_increase=cap, taxes_paid=tax,
            fixed_asset_additions=faa, net_loan_payments=nlp,
        )
        scaled = rec._replace(
            revenue=rec.revenue * scale, operating_cost=rec.operating_cost * scale,
            admin_sales_expense=rec.admin_sales_expense * scale,
            pretax_result=pretax * scale, depreciation_amortization=dep * scale,
            capital_paid_increase=cap * scale, taxes_paid=tax * scale,
            fixed_asset_additions=faa * scale, net_loan_payments=nlp * scale,
        )
        assert annual_cash_flow(scaled) == pytest.approx(scale * annual_cash_flow(rec), abs=1e-9)


class TestInitialInvestment:
    def test_additive(self):
        mine = make_mine(mine_id="m", capital_paid_first_year=1000.0, records=[make_record(2001)])
        inv = initial_investment(mine, imputation({"m": 250.0}))
        assert (inv.extraction, inv.exploration, inv.total) == (1000.0, 250.0, 1250.0)

    def test_zero_exploration(self):
        mine = make_mine(mine_id="m", capital_paid_first_year=1000.0, records=[make_record(2001)])
        inv = initial_investment(mine, imputation({"m": 0.0}))
        assert inv.total == 1000.0

    def test_absent_mine_warns_and_defaults_to_zero(self):
        mine = make_mine(mine_id="m", capital_paid_first_year=1000.0, records=[make_record(2001)])
        with pytest.warns(UserWarning, match="no exploration imputation"):
            inv = initial_investment(mine, imputation({"other": 99.0}))
        assert inv.exploration == 0.0

    def test_inconsistent_total_rejected(self):
        with pytest.raises(ValueError):
            InitialInvestment(extraction=10.0, exploration=5.0, total=16.0)
        with pytest.raises(ValueError):
            InitialInvestment(extraction=0.0, exploration=0.0, total=0.0)


class TestCashFlowSeries:
    def test_years_must_increase(self):
        with pytest.raises(ValueError):
            CashFlowSeries(base_year=2000, flows=((2002, 1.0), (2001, 1.0)))
        with pytest.raises(ValueError):
            CashFlowSeries(base_year=2000, flows=((2001, 1.0), (2001, 2.0)))

    def test_base_year_before_first_flow(self):
        with pytest.raises(ValueError):
            CashFlowSeries(base_year=2005, flows=((2001, 1.0),))

    def test_mine_cash_flows_anchored_at_opening(self):
        mine = make_mine(opening_year=1998, records=[make_record(y) for y in (1999, 2000)])
        flows = mine_cash_flows(mine)
        assert flows.base_year == 1998
        assert flows.flows == tuple((r.year, annual_cash_flow(r)) for r in mine.records)
        assert [year for year, _ in flows.flows] == [1999, 2000]


class TestPresentValue:
    def test_single_discounted_flow(self):
        series = CashFlowSeries(base_year=2000, flows=((2001, 110.0),))
        assert present_value(series, Rate(0.10)) == pytest.approx(100.0)

    def test_zero_rate_is_plain_sum(self):
        series = CashFlowSeries(base_year=2000, flows=((2001, 10.0), (2003, 30.0), (2007, -5.0)))
        assert present_value(series, 0.0) == pytest.approx(35.0)

    def test_empty_series(self):
        assert present_value(CashFlowSeries(2000, ()), 0.1) == 0.0

    def test_underflowed_factor_gives_infinity(self):
        # (1 - 0.9) ** 400 underflows to 0.0
        assert present_value(CashFlowSeries(0, ((400, 1.0),)), -0.9) == math.inf

    def test_rate_must_exceed_minus_one(self):
        with pytest.raises(ValueError):
            present_value(CashFlowSeries(2000, ((2001, 1.0),)), -1.0)

    @given(
        amounts=st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=20),
        r1=st.floats(min_value=0.0, max_value=0.5),
        r2=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=300)
    def test_nonincreasing_in_rate_for_nonnegative_flows(self, amounts, r1, r2):
        lo, hi = min(r1, r2), max(r1, r2)
        series = CashFlowSeries(2000, tuple((2001 + i, a) for i, a in enumerate(amounts)))
        assert present_value(series, hi) <= present_value(series, lo) + 1e-9

    @given(
        left=st.lists(st.floats(min_value=-100, max_value=100), min_size=0, max_size=10),
        right=st.lists(st.floats(min_value=-100, max_value=100), min_size=0, max_size=10),
        rate=st.floats(min_value=-0.5, max_value=0.5),
    )
    @settings(max_examples=300)
    def test_additive_over_disjoint_series(self, left, right, rate):
        base = 2000
        left_flows = tuple((base + 1 + 2 * i, a) for i, a in enumerate(left))
        right_flows = tuple((base + 2 + 2 * i, a) for i, a in enumerate(right))
        merged = tuple(sorted(left_flows + right_flows))
        total = present_value(CashFlowSeries(base, merged), rate)
        split = present_value(CashFlowSeries(base, left_flows), rate) + present_value(
            CashFlowSeries(base, right_flows), rate
        )
        assert total == pytest.approx(split, rel=1e-9, abs=1e-8)


class TestCompoundAndDiscount:
    @given(
        rate=st.floats(min_value=-1.0, max_value=1e6, exclude_min=True),
        t=st.integers(min_value=0, max_value=20_000),
    )
    @settings(max_examples=300)
    def test_compound_is_the_plain_power(self, rate, t):
        try:
            power = (1.0 + rate) ** t
        except OverflowError:
            power = math.inf
        assume(math.isfinite(power) and power != 0.0)
        assert repr(compound(rate, t)) == repr(power)
        assert repr(discount(3.0, rate, t)) == repr(3.0 / power)

    @pytest.mark.parametrize(
        "amount, rate, t, expected",
        [
            # 1.1 ** 10000 overflows: the term is a zero of the amount's sign.
            (1.0, 0.1, 10_000, "0.0"),
            (-1.0, 0.1, 10_000, "-0.0"),
            # 0.1 ** 400 underflows to 0.0: an infinity of the amount's sign, or 0.0.
            (1.0, -0.9, 400, "inf"),
            (-1.0, -0.9, 400, "-inf"),
            (0.0, -0.9, 400, "0.0"),
            (-0.0, -0.9, 400, "0.0"),
        ],
    )
    def test_discount_limits(self, amount, rate, t, expected):
        assert repr(discount(amount, rate, t)) == expected

    def test_compound_limits(self):
        assert compound(0.1, 10_000) == math.inf
        assert compound(-0.9, 400) == 0.0


def _one_plus_power_sites(source: str) -> list[int]:
    """Lines holding ``(1 + x) ** y`` or ``(1.0 + x) ** y``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Add)
        and isinstance(node.left.left, ast.Constant)
        and node.left.left.value == 1
    ]


def test_only_valuation_turns_a_rate_into_a_factor():
    """``valuation.compound`` is the one place that writes ``(1 + r) ** t``; the rest call it."""
    package = Path(compound.__code__.co_filename).parent
    sites = {
        path.name: _one_plus_power_sites(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))
    }
    assert sites.pop("valuation.py")
    assert {name: lines for name, lines in sites.items() if lines} == {}
