"""Independent brute-force recomputations used to check the engine.

Everything here is deliberately naive: compounding factors are built by
repeated multiplication, every cumulative sum is rebuilt from scratch per
year, and the pipeline is recomposed from these pieces without calling any
engine computation. Only the engine's plain data containers (and, in
``load_mine_brute``, its error types) are reused.

The concession oracles are the exception: ``bid_brute`` and ``accrue_brute``
both divide by ``(1 + r) ** t``, as the LPVR definition and the engine do. A
winning bid is the accrued prefix at its payback period, so the concession
must expire exactly there; a bid discounted by repeated multiplication can
differ from that prefix by one ulp and move the oracle's own expiry a period.
"""

from __future__ import annotations

import math


def compound(rate: float, periods: int) -> float:
    """(1+rate)^periods by repeated multiplication."""
    factor = 1.0
    for _ in range(periods):
        factor *= 1.0 + rate
    return factor


def pv_brute(flows: list[tuple[int, float]], base_year: int, rate: float) -> float:
    total = 0.0
    for year, amount in flows:
        total += amount / compound(rate, year - base_year)
    return total


def rvp_brute(
    flows: list[tuple[int, float]], base_year: int, investment: float, rate: float
) -> list[tuple[int, float]]:
    """Each point's prefix sum is rebuilt from scratch."""
    points = []
    for i in range(len(flows)):
        prefix = 0.0
        for year, amount in flows[: i + 1]:
            prefix += amount / compound(rate, year - base_year)
        points.append((flows[i][0], prefix - investment))
    return points


def momento_brute(points: list[tuple[int, float]], tolerance: float = 1e-9) -> int | None:
    for year, value in points:
        if value > tolerance:
            return year
    return None


def forward_brute(
    flows: list[tuple[int, float]], x: int | None, fund_rate: float, valuation_year: int
) -> float:
    if x is None:
        return 0.0
    total = 0.0
    for year, amount in flows:
        if year > x:
            total += amount * compound(fund_rate, valuation_year - year)
    return total


def baseline_brute(records, window: tuple[int, int]) -> dict[str, float]:
    usable = [r for r in records if window[0] <= r.year <= window[1]]
    producing = [r for r in usable if r.production > 0]
    with_cost = [r for r in usable if r.operating_cost > 0]

    def mean(values):
        values = list(values)
        return sum(values) / len(values)

    return {
        "avg_unit_cost": mean(r.operating_cost / r.production for r in producing),
        "gav_ratio": mean(r.admin_sales_expense / r.operating_cost for r in with_cost)
        if with_cost
        else 0.0,
        "avg_nonoperating": mean(
            r.pretax_result - (r.revenue - r.operating_cost - r.admin_sales_expense)
            for r in usable
        ),
        "avg_fixed_asset_additions": mean(r.fixed_asset_additions for r in usable),
        "avg_dep_amort": mean(r.depreciation_amortization for r in usable),
        "avg_net_loan_payments": mean(r.net_loan_payments for r in usable),
    }


def reconstruct_flows_brute(mine, market, window: tuple[int, int]) -> list[tuple[int, float]]:
    """Annual cash flows for all years, pre-history rebuilt from the rules.

    Only a mine with pre-history needs a baseline; without one, its window may hold no producing year.
    """
    base = baseline_brute(mine.records, window) if mine.physical_history else None
    flows = {}
    for phys in mine.physical_history:
        price = next(ent.copper_price for ent in market.entries if ent.year == phys.year)
        revenue = min(price * phys.production / 1e6, price * phys.exports / 1e6)
        operating_cost = base["avg_unit_cost"] * phys.production
        admin = base["gav_ratio"] * operating_cost
        pretax = revenue - operating_cost - admin + base["avg_nonoperating"]
        taxes = 0.0
        if mine.escondida_tax_rule and phys.taxes_paid is not None:
            taxes = phys.taxes_paid
        flows[phys.year] = (
            pretax
            + base["avg_dep_amort"]
            - 0.0  # reconstructed years have no paid-in capital increase
            - taxes
            - base["avg_fixed_asset_additions"]
            - base["avg_net_loan_payments"]
        )
    for rec in mine.records:
        flows[rec.year] = (
            rec.pretax_result
            + rec.depreciation_amortization
            - rec.capital_paid_increase
            - rec.taxes_paid
            - rec.fixed_asset_additions
            - rec.net_loan_payments
        )
    return sorted(flows.items())


def imputation_brute(
    market,
    mines,
    rate: float,
    window: tuple[int, int],
    private_share: float = 2.0 / 3.0,
    cohort_window_years: int = 5,
) -> dict[str, float]:
    allocations = {m.mine_id: 0.0 for m in mines}
    for year in sorted(ent.year for ent in market.entries):
        if not window[0] <= year <= window[1]:
            continue
        entry = next(ent for ent in market.entries if ent.year == year)
        private = private_share * entry.gdp * entry.exploration_spend_pct_gdp
        eligible = [
            m for m in mines if m.opening_year - cohort_window_years <= year <= m.opening_year
        ]
        pool = 0.0
        for m in eligible:
            per_year = {p.year: p.production for p in m.physical_history}
            per_year.update({r.year: r.production for r in m.records})
            pool += sum(per_year.values()) / len(per_year)
        if not eligible or pool <= 0:
            continue
        for m in eligible:
            per_year = {p.year: p.production for p in m.physical_history}
            per_year.update({r.year: r.production for r in m.records})
            mean_production = sum(per_year.values()) / len(per_year)
            share = private * mean_production / pool
            allocations[m.mine_id] += share * compound(rate, m.opening_year - year)
    return allocations


def pipeline_brute(
    mines,
    market,
    rate: float,
    valuation_year: int,
    baseline_window: tuple[int, int] = (2001, 2005),
    imputation_window: tuple[int, int] = (1984, 1999),
) -> dict[str, dict]:
    """Full rent analysis recomputed naively for every mine at one rate."""
    allocations = imputation_brute(market, mines, rate, imputation_window)
    results = {}
    for mine in mines:
        flows = reconstruct_flows_brute(mine, market, baseline_window)
        investment = mine.capital_paid_first_year + allocations[mine.mine_id]
        points = rvp_brute(flows, mine.opening_year, investment, rate)
        x = momento_brute(points)
        final = points[-1][1] if points else 0.0
        results[mine.mine_id] = {
            "investment": investment,
            "points": points,
            "momento_x": x,
            "rent_pv": max(final, 0.0),
            "rent_forward": forward_brute(flows, x, market.fund_rate, valuation_year),
        }
    return results


def bid_brute(
    revenues: list[float], investment: float, announced_rate: float, cost_of_capital: float
) -> float | None:
    """Enumerate stopping years; bid is the accrued value at the first
    stop whose own-rate prefix covers the investment."""
    n = len(revenues)
    for k in range(1, n + 1):
        own = 0.0
        for j in range(1, k + 1):
            own += revenues[j - 1] / (1 + cost_of_capital) ** j
        if own >= investment:
            accrued = 0.0
            for j in range(1, k + 1):
                accrued += revenues[j - 1] / (1 + announced_rate) ** j
            return accrued
    return None


def accrue_brute(
    vpi: float, prices: list[float], quantity: float, announced_rate: float, tax: float | dict[int, float]
) -> tuple[int | None, list[tuple]]:
    """One LPVR concession stepped period by period, from the definitions.

    Period t's gross revenue is price (USD/t) times quantity (t) in million
    USD. The voluntary tax asked for it, a constant or a ``{period: tax}``
    schedule (0 where absent), is clamped to [0, gross]. The rest counts,
    discounted by ``(1 + r) ** t``, towards the accrued PV, and the concession
    expires in the first period whose accrued PV reaches ``vpi``. Returns the
    duration (None when the path ends first) and one ``(period, price, gross,
    tax, counted, accrued)`` row per period run.
    """
    accrued, rows = 0.0, []
    for t, price in enumerate(prices, start=1):
        gross = price * quantity / 1e6
        asked = tax.get(t, 0.0) if isinstance(tax, dict) else tax
        paid = min(max(asked, 0.0), gross)
        accrued += (gross - paid) / (1 + announced_rate) ** t
        rows.append((t, price, gross, paid, gross - paid, accrued))
        if accrued >= vpi:
            return t, rows
    return None, rows


def rel_close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


MINE_HEADER = (
    "year,revenue,operating_cost,admin_sales_expense,pretax_result,dep_amort,capital_paid_increase,"
    "taxes_paid,fixed_asset_additions,net_loan_payments,production_t,exports_t"
)


def number_brute(text: str, integer: bool = False):
    """A number cell as the README defines it, or ValueError.

    ASCII text without ``_`` that ``float`` reads. An integer is the whole
    number such a text names, read exactly: ``40``, ``40.0`` or ``4e1``.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    value = float(text)
    if not integer:
        return value
    if not math.isfinite(value):
        raise ValueError(text)
    from decimal import Decimal  # imported here, as the engine does, so that importing the oracle stays light

    exact = Decimal(text)
    if exact != int(exact):
        raise ValueError(text)
    return int(exact)


def load_mine_brute(path):
    """A mine file read cell by cell from the README grammar, raising the engine's error for the first fault.

    The metadata block is taken as valid, apart from an empty ``mine_id``.
    Each row is then checked in this order: the column count, the year and
    its uniqueness, the required ``production_t``, both tonnages, the blank
    pattern of the nine financial columns, then each financial cell.
    """
    from minerent import MineDataset, MineYearRecord, ParseError, PhysicalYear, SchemaError

    def cell(text, column, line, integer=False):
        try:
            return number_brute(text, integer)
        except ValueError:
            raise ParseError(f"non-numeric value {text!r} in column {column}", path, line) from None

    columns = MINE_HEADER.split(",")
    lines = path.read_bytes().decode("utf-8").split("\n")
    meta = {}
    for at, raw in enumerate(lines):
        line = raw.strip()
        if line == MINE_HEADER:
            break
        if line:
            key, _, value = line.partition("=")
            meta[key.strip()] = (value.strip(), at + 1)
    else:
        raise SchemaError("missing header row", path)
    mine_id, mine_id_line = meta["mine_id"]
    if not mine_id:
        raise SchemaError("mine_id must be non-empty", path, mine_id_line)
    opening_year = int(meta["opening_year"][0])
    capital = float(meta["capital_paid_first_year"][0])
    tax_rule = meta.get("escondida_tax_rule", ("false", None))[0] == "true"

    records, history, seen = [], [], {}
    for number, raw in enumerate(lines[at + 1 :], start=at + 2):
        row = raw.strip()
        if not row:
            continue
        cells = row.split(",")
        if len(cells) != len(columns):
            raise ParseError(f"expected {len(columns)} columns, got {len(cells)}", path, number)
        year = cell(cells[0], "year", number, integer=True)
        if year in seen:
            raise SchemaError(f"duplicate year {year} (first seen at line {seen[year]})", path, number)
        seen[year] = number
        if cells[10] == "":
            raise ParseError("production_t is required", path, number)
        production = cell(cells[10], "production_t", number)
        exports = production if cells[11] == "" else cell(cells[11], "exports_t", number)
        filled = [i for i in range(1, 10) if cells[i] != ""]
        if filled in ([], [7]):
            taxes = cell(cells[7], "taxes_paid", number) if filled else None
            history.append(PhysicalYear(year, production, exports, taxes))
        elif len(filled) == 9:
            money = [cell(cells[i], columns[i], number) for i in range(1, 10)]
            records.append(MineYearRecord(year, *money, production, exports))
        else:
            raise ParseError("financial columns must be all blank (pre-history row) or all present", path, number)
    return MineDataset(
        mine_id=mine_id,
        opening_year=opening_year,
        capital_paid_first_year=capital,
        records=tuple(sorted(records, key=lambda rec: rec.year)),
        escondida_tax_rule=tax_rule,
        physical_history=tuple(sorted(history, key=lambda phys: phys.year)),
    )
