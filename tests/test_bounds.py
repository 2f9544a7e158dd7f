"""Magnitude bounds at validation keep the analysis half finite by construction.

``validate_dataset`` bounds every value the analysis reads, and
``sensitivity_report`` bounds the run's rates and valuation year; no later
step checks for an overflow. These tests derive the largest value the
arithmetic can reach from the bounds, hold runs at and inside every bound to
it, and keep overflow guards from coming back downstream. They also keep
validation the one refusal of a loaded run: no other error can end a
reconstruction, and only ``InvalidDatasetError`` carries a report. A last
guard keeps the concession half to one accrual kernel.
"""

from __future__ import annotations

import ast
import math
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import minerent
from minerent import concession_sim
from minerent import (
    MarketSeries,
    MarketYear,
    MineDataset,
    MineYearRecord,
    PhysicalYear,
    reconstruct_dataset,
    sensitivity_report,
    validate_dataset,
)
from minerent.data_model import (
    MONEY_BOUND,
    MONEY_FLOOR,
    OPENING_YEAR_MIN,
    PRICE_BOUND,
    RATE_MAX,
    TONNAGE_BOUND,
    TONNAGE_FLOOR,
    USD_PER_MUSD,
    VALUATION_YEAR_MAX,
    YEAR_MAX,
    YEAR_MIN,
)

BASELINE_YEAR = 2001  # inside the 2001-2005 baseline window; every drawn mine reports it
BELOW_ONE = math.nextafter(1.0, 0.0)


def largest_intermediate() -> float:
    """A bound on the magnitude of every value the analysis derives from in-bound inputs."""
    flows = YEAR_MAX - YEAR_MIN + 1  # one per year on file, held by year-window
    # The baseline's ratios divide by a tonnage or an operating cost, each at least its floor.
    unit_cost = MONEY_BOUND / TONNAGE_FLOOR
    admin_ratio = MONEY_BOUND / MONEY_FLOOR
    operating_cost = unit_cost * TONNAGE_BOUND
    admin = admin_ratio * operating_cost
    revenue = PRICE_BOUND * TONNAGE_BOUND / USD_PER_MUSD
    nonoperating = 4 * MONEY_BOUND  # pretax - (revenue - operating cost - admin) of a reported year
    cash_flow = revenue + operating_cost + admin + nonoperating + 5 * MONEY_BOUND
    # A rate in [0, 1] only shrinks a discounted flow; the fund rate compounds a flow forward
    # by at most this factor, from the first year on file to the last valuation year.
    forward = (1 + RATE_MAX) ** (VALUATION_YEAR_MAX - YEAR_MIN)
    return flows * cash_flow * forward


LARGEST = largest_intermediate()


def test_largest_intermediate_is_far_below_the_float_maximum():
    # About 1e82: the floors lift it above a bound-only estimate of 1e60.
    assert 1e81 < LARGEST < sys.float_info.max / 1e200


def bounded(floor: float, bound: float, zero: bool = True, signed: bool = False):
    """The floor, the bound, or a value between them; 0 too when ``zero``; either sign when ``signed``."""
    value = st.one_of(st.sampled_from([floor, bound] + [0.0] * zero), st.floats(floor, bound))
    return st.one_of(value, value.map(lambda x: -x)) if signed else value


money = bounded(MONEY_FLOOR, MONEY_BOUND, signed=True)
tonnage = bounded(TONNAGE_FLOOR, TONNAGE_BOUND)
years_on_file = st.tuples(st.integers(YEAR_MIN, BASELINE_YEAR), st.integers(BASELINE_YEAR, YEAR_MAX))


@st.composite
def mine_datasets(draw, mine_id: str) -> MineDataset:
    """Pre-history years, then reported years that include ``BASELINE_YEAR`` and produce in it."""
    first_reported, last = draw(years_on_file)
    first = draw(st.integers(YEAR_MIN, first_reported))
    records = tuple(
        MineYearRecord(
            year,
            *(draw(money) for _ in range(9)),
            draw(bounded(TONNAGE_FLOOR, TONNAGE_BOUND, zero=year != BASELINE_YEAR)),
            draw(tonnage),
        )
        for year in range(first_reported, last + 1)
    )
    history = tuple(
        PhysicalYear(year, draw(tonnage), draw(tonnage), draw(st.none() | money))
        for year in range(first, first_reported)
    )
    return MineDataset(
        mine_id=mine_id,
        opening_year=draw(st.one_of(st.just(OPENING_YEAR_MIN), st.integers(OPENING_YEAR_MIN, first))),
        capital_paid_first_year=draw(bounded(MONEY_FLOOR, MONEY_BOUND, zero=False)),
        records=records,
        escondida_tax_rule=draw(st.booleans()),
        physical_history=history,
    )


market_years = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([5e-324, PRICE_BOUND]), st.floats(0.0, PRICE_BOUND, exclude_min=True)),
        bounded(MONEY_FLOOR, MONEY_BOUND),
        st.one_of(st.sampled_from([0.0, BELOW_ONE]), st.floats(0.0, 1.0, exclude_max=True)),
    ),
    min_size=YEAR_MAX - YEAR_MIN + 1,
    max_size=YEAR_MAX - YEAR_MIN + 1,
)


def worst_case_mine() -> MineDataset:
    """A mine whose reconstructed admin expense reaches the order of ``LARGEST`` before compounding.

    The baseline pairs a 1e12 unit cost (1e12 M USD over 1 t) with a -1e18 admin ratio
    (-1e12 over 1e-6 M USD), so each pre-history year of 1e12 t yields a positive
    pretax result near 2.5e41, which momento x then compounds forward.
    """
    zero = dict.fromkeys(MineYearRecord._fields[1:10], 0.0)
    cost_per_tonne = zero | dict(operating_cost=MONEY_BOUND, admin_sales_expense=-MONEY_BOUND)
    admin_per_cost = zero | dict(operating_cost=MONEY_FLOOR, admin_sales_expense=-MONEY_BOUND)
    return MineDataset(
        mine_id="worst",
        opening_year=OPENING_YEAR_MIN,
        capital_paid_first_year=MONEY_FLOOR,
        records=(
            MineYearRecord(BASELINE_YEAR, **cost_per_tonne, production=TONNAGE_FLOOR, exports=TONNAGE_FLOOR),
            MineYearRecord(BASELINE_YEAR + 1, **admin_per_cost, production=TONNAGE_BOUND, exports=TONNAGE_BOUND),
        ),
        physical_history=tuple(
            PhysicalYear(year, TONNAGE_BOUND, TONNAGE_BOUND) for year in range(YEAR_MIN, BASELINE_YEAR)
        ),
    )


@given(
    mines=st.tuples(mine_datasets("m0"), st.none() | mine_datasets("m1")),
    entries=market_years,
    fund_rate=st.one_of(
        st.sampled_from([math.nextafter(-1.0, 0.0), RATE_MAX]), st.floats(-1.0, RATE_MAX, exclude_min=True)
    ),
    rate=bounded(0.0, RATE_MAX, zero=False),
    valuation_year=st.one_of(
        st.sampled_from([YEAR_MAX, VALUATION_YEAR_MAX]), st.integers(YEAR_MAX, VALUATION_YEAR_MAX)
    ),
)
@example(
    mines=(worst_case_mine(), None),
    entries=[(PRICE_BOUND, MONEY_BOUND, BELOW_ONE)] * (YEAR_MAX - YEAR_MIN + 1),
    fund_rate=RATE_MAX,
    rate=0.0,
    valuation_year=VALUATION_YEAR_MAX,
)
@settings(max_examples=60)
def test_every_value_within_bounds_stays_below_the_largest_intermediate(
    mines, entries, fund_rate, rate, valuation_year
):
    mines = [mine for mine in mines if mine is not None]
    market = MarketSeries(
        entries=tuple(MarketYear(YEAR_MIN + i, *entry) for i, entry in enumerate(entries)), fund_rate=fund_rate
    )
    assert not validate_dataset(mines, market).errors  # every drawn value is in bound
    report = sensitivity_report(mines, market, [("r", rate)], valuation_year)
    values = [
        value
        for mine in mines
        for rec in reconstruct_dataset(mine, market).records
        for value in rec[1:10]  # the money fields
    ]
    for series in report.series.values():
        values += [value for _, value in series.points] + [series.rent_pv, series.rent_forward]
    assert all(abs(value) <= LARGEST for value in values), max(values, key=abs)  # False for NaN too


def _guard_sites(source: str) -> list[int]:
    """Lines that call an ``isfinite`` or hold an ``except`` clause that would catch ``OverflowError``."""
    catching = {"OverflowError", "ArithmeticError", "Exception", "BaseException"}
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "isfinite":
                sites.append(node.lineno)
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None or any(isinstance(n, ast.Name) and n.id in catching for n in ast.walk(node.type)):
                sites.append(node.lineno)
    return sites


def test_the_analysis_holds_no_downstream_overflow_guard():
    """The bounds at validation are the one guard: no scan or catch after the arithmetic."""
    package = Path(minerent.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _guard_sites(sources["concession_sim.py"])  # the concession half keeps its path checks
    assert {name: _guard_sites(sources[name]) for name in ("reconstruction.py", "rent_analysis.py")} == {
        "reconstruction.py": [],
        "rent_analysis.py": [],
    }
    defined = [
        (name, node.lineno)
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "finite_compound"
    ]
    assert defined == []


def _report_stores(node: ast.AST) -> list[ast.Attribute]:
    attributes = (n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "report")
    return [n for n in attributes if isinstance(n.ctx, ast.Store)]


def test_validation_is_the_one_refusal_after_loading():
    """``InvalidDatasetError`` is the one ``ReconstructionError`` subclass and the one error given a ``report``."""
    package = Path(minerent.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    subclasses = [
        node.name
        for node in ast.walk(trees["reconstruction.py"])
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", None) == "ReconstructionError" for base in node.bases)
    ]
    assert subclasses == ["InvalidDatasetError"]
    # A store to ``.report`` is allowed only on a name its function binds to ``InvalidDatasetError(...)`` and raises.
    allowed, stray = [], []
    for name, tree in trees.items():
        kept = set()
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            made = {
                target.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "InvalidDatasetError"
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            raised = {
                node.exc.id for node in ast.walk(func) if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name)
            }
            for store in _report_stores(func):
                if isinstance(store.value, ast.Name) and store.value.id in made & raised:
                    kept.add(store)
                    allowed.append((name, func.name))
        stray += [(name, store.lineno) for store in _report_stores(tree) if store not in kept]
    assert stray == []
    assert allowed == [("reconstruction.py", "reconstruct_all")]


def _called_names(func: ast.AST) -> set[str]:
    return {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
    }


def test_one_accrual_kernel():
    """One function in ``concession_sim`` sums discounted revenue, and both entry points accrue through it.

    ``generate_price_path`` sums log-returns with ``cumsum``; every other ``cumsum`` is an accrual.
    """
    tree = ast.parse(Path(concession_sim.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    kernels = [
        name for name, func in functions.items() if name != "generate_price_path" and "cumsum" in _called_names(func)
    ]
    assert len(kernels) == 1, kernels
    for entry in ("accrue_concessions", "simulate_concession"):
        reached, pending = set(), [entry]
        while pending:
            name = pending.pop()
            if name not in reached:
                reached.add(name)
                pending += [callee for callee in _called_names(functions[name]) if callee in functions]
        assert kernels[0] in reached, entry
