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
    mine_cash_flows,
    present_value,
)
from minerent.valuation import compound, discount

from conftest import make_mine, make_record


def flow_record(pretax, dep, cap, tax, faa, nlp):
    """A record whose six line items of the annual cash flow are these."""
    return make_record(
        2001, pretax_result=pretax, depreciation_amortization=dep,
        capital_paid_increase=cap, taxes_paid=tax,
        fixed_asset_additions=faa, net_loan_payments=nlp,
    )


# Each row: a call and its arguments, mapped to what it returns, compared by repr.
VALUATIONS = {
    "conservative-spec": (discount_rate, (DiscountSpec(0.069, 2.0, 0.03889, 0.0411),), Rate(0.18788000000000002)),
    "zero-beta-zero-country": (discount_rate, (DiscountSpec(0.05, 0.0, 0.07, 0.0),), Rate(0.05)),
    "base-spec": (discount_rate, (DiscountSpec(0.069, 0.91, 0.03889, 0.0173),), Rate(0.1216899)),
    "base-preset": (discount_rate, (PRESETS["base"],), Rate(0.1216899)),
    "conservative-preset": (discount_rate, (PRESETS["conservative"],), Rate(0.18788000000000002)),
    "six-line-items": (annual_cash_flow, (flow_record(100.0, 20.0, 5.0, 10.0, 30.0, 15.0),), 60.0),
    "all-zero-line-items": (annual_cash_flow, (flow_record(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),), 0.0),
    "taxes-absorb-gross-flow": (annual_cash_flow, (flow_record(50.0, 10.0, 0.0, 60.0, 0.0, 0.0),), 0.0),
    "single-discounted-flow": (present_value, (CashFlowSeries(2000, ((2001, 110.0),)), Rate(0.10)), 99.99999999999999),
    "zero-rate-is-plain-sum": (
        present_value, (CashFlowSeries(2000, ((2001, 10.0), (2003, 30.0), (2007, -5.0))), 0.0), 35.0
    ),
    "empty-series": (present_value, (CashFlowSeries(2000, ()), 0.1), 0.0),
    # (1 - 0.9) ** 400 underflows to 0.0
    "underflowed-factor-gives-infinity": (present_value, (CashFlowSeries(0, ((400, 1.0),)), -0.9), math.inf),
    # Added in year order and rounded at each step; a compensated sum (math.fsum, or the built-in sum from
    # Python 3.12) gives 1.0.
    "flows-add-in-year-order": (
        present_value, (CashFlowSeries(2000, ((2001, 1e100), (2002, 1.0), (2003, -1e100))), 0.0), 0.0
    ),
    "mine-cash-flows-anchored-at-opening": (
        mine_cash_flows, (make_mine(opening_year=1998, records=[make_record(y) for y in (1999, 2000)]),),
        CashFlowSeries(1998, ((1999, 41.0), (2000, 41.0))),
    ),
    "flow-amounts-become-floats": (CashFlowSeries, (2000, [(2001, 1)]), CashFlowSeries(2000, ((2001, 1.0),))),
}

# Each row: a call and its arguments, mapped to the text of the ValueError it raises.
VALUATION_REFUSALS = {
    **{
        f"rate-{value!r}": (Rate, (value,), f"rate must be finite and > -1, got {value!r}")
        for value in (math.nan, math.inf, -math.inf)
    },
    "negative-risk-free": (
        DiscountSpec, (-0.01, 1.0, 0.05, 0.0), "risk_free must be finite and nonnegative, got -0.01"
    ),
    "inconsistent-investment-total": (
        InitialInvestment, (10.0, 5.0, 16.0), "total must equal extraction + exploration"
    ),
    "zero-investment-total": (InitialInvestment, (0.0, 0.0, 0.0), "total initial investment must be > 0, got 0.0"),
    **{
        f"flow-years-{name}": (CashFlowSeries, (2000, flows), "flow years must be strictly increasing")
        for name, flows in [("decrease", ((2002, 1.0), (2001, 1.0))), ("repeat", ((2001, 1.0), (2001, 2.0)))]
    },
    "base-year-after-first-flow": (
        CashFlowSeries, (2005, ((2001, 1.0),)), "base_year 2005 is after first flow year 2001"
    ),
    "present-value-at-minus-one": (
        present_value, (CashFlowSeries(2000, ((2001, 1.0),)), -1.0), "rate must be finite and > -1, got -1.0"
    ),
}


@pytest.mark.parametrize("call, args, expected", list(VALUATIONS.values()), ids=list(VALUATIONS))
def test_value(call, args, expected):
    assert repr(call(*args)) == repr(expected)


@pytest.mark.parametrize("call, args, message", list(VALUATION_REFUSALS.values()), ids=list(VALUATION_REFUSALS))
def test_refusal(call, args, message):
    with pytest.raises(ValueError) as excinfo:
        call(*args)
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError, message)


class TestDiscountRate:
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


class TestAnnualCashFlow:
    @given(
        values=st.tuples(*[st.floats(min_value=-500, max_value=500) for _ in range(6)]),
        scale=st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=200)
    def test_linear_in_money_fields(self, values, scale):
        pretax, dep, cap, tax, faa, nlp = values
        rec = flow_record(*values)
        scaled = rec._replace(
            revenue=rec.revenue * scale, operating_cost=rec.operating_cost * scale,
            admin_sales_expense=rec.admin_sales_expense * scale,
            pretax_result=pretax * scale, depreciation_amortization=dep * scale,
            capital_paid_increase=cap * scale, taxes_paid=tax * scale,
            fixed_asset_additions=faa * scale, net_loan_payments=nlp * scale,
        )
        assert annual_cash_flow(scaled) == pytest.approx(scale * annual_cash_flow(rec), abs=1e-9)


class TestPresentValue:
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


def _sites(match) -> dict[str, list[int]]:
    """Each module of the package that has syntax nodes that ``match``, with their lines."""
    package = Path(compound.__code__.co_filename).parent
    sites = {
        path.name: [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if match(node)]
        for path in sorted(package.glob("*.py"))
    }
    return {name: lines for name, lines in sites.items() if lines}


def _is_one_plus_power(node) -> bool:
    """``(1 + x) ** y`` or ``(1.0 + x) ** y``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Add)
        and isinstance(node.left.left, ast.Constant)
        and node.left.left.value == 1
    )


def test_only_valuation_turns_a_rate_into_a_factor():
    """``valuation.compound`` is the one place that writes ``(1 + r) ** t``; the rest call it."""
    assert list(_sites(_is_one_plus_power)) == ["valuation.py"]


def test_no_module_calls_the_built_in_sum():
    """From Python 3.12 the built-in ``sum`` compensates float sums, which would make the artifacts' bits hang on
    the interpreter; ``data_model.plain_sum`` adds in order instead."""
    assert _sites(lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum") == {}
