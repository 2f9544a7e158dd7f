"""Domain types, file ingestion, and validation for mine and market inputs.

Money is expressed in millions of nominal USD throughout; physical
quantities are tonnes of fine copper. A mine file is comma-separated text
with a leading ``key=value`` metadata block, a fixed header row, and one
row per year. Rows whose financial columns are blank carry pre-history
physical quantities that the reconstruction module backfills later.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import Iterable, NamedTuple

MINE_COLUMNS = (
    "year",
    "revenue",
    "operating_cost",
    "admin_sales_expense",
    "pretax_result",
    "dep_amort",
    "capital_paid_increase",
    "taxes_paid",
    "fixed_asset_additions",
    "net_loan_payments",
    "production_t",
    "exports_t",
)
MARKET_COLUMNS = ("year", "copper_price_usd_per_t", "gdp_usd_m", "exploration_pct_gdp")

MINE_METADATA_KEYS = ("mine_id", "opening_year", "capital_paid_first_year", "escondida_tax_rule")

YEAR_MIN = 1984
YEAR_MAX = 2012
# Reported years whose averages backfill a mine's pre-history.
DEFAULT_BASELINE_WINDOW = (2001, 2005)
# Magnitude bounds on every value the analysis reads (world copper output is near 2e7 t a year,
# Chile's GDP near 3e5 M USD): they keep every sum, product and compounding factor far inside the
# float range. A tonnage or money value is 0 or has floor <= |value| <= bound; the floors keep the
# baseline's cost per tonne and admin expense per operating cost finite.
TONNAGE_FLOOR, TONNAGE_BOUND = 1.0, 1e12  # t
MONEY_FLOOR, MONEY_BOUND = 1e-6, 1e12  # million USD
PRICE_BOUND = 1e9  # USD per tonne
RATE_MAX = 1.0  # largest fund rate or resolved discount rate
OPENING_YEAR_MIN = YEAR_MIN - 100
VALUATION_YEAR_MAX = YEAR_MAX + 100
_RANGES = {"tonnage-range": (TONNAGE_FLOOR, TONNAGE_BOUND, "t"), "money-range": (MONEY_FLOOR, MONEY_BOUND, "M USD")}
DEFAULT_FUND_RATE = 0.0507

# Prices are USD/tonne and quantities tonnes; money fields are million USD.
USD_PER_MUSD = 1_000_000.0

NO_HISTORY_WARNING = "no history; reconstruction required"

# A mine_id becomes part of output file names and a summary CSV cell, so it may not
# hold a path separator, a comma, a double quote or a control character, nor be "." or "..", and its
# longest name, "{mine_id}_rvp_conservative.csv", must fit a file system's 255 bytes.
_MINE_ID_FORBIDDEN = frozenset('/\\,"') | frozenset(map(chr, [*range(0x20), *range(0x7F, 0xA0)]))
MINE_ID_MAX_BYTES = 200


def plain_sum(values: Iterable[float]) -> float:
    """``0.0 + v0 + v1 + ...`` in order, rounded at each step.

    The package calls this where it would call the built-in ``sum``, which compensates float sums
    from Python 3.12 on, so that the artifacts' bits do not depend on the interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class DataFileError(Exception):
    """Problem in an input file; carries the offending path and line."""

    def __init__(self, message: str, path: str | Path | None = None, line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        location = self.path or ""
        if line is not None:
            location += f":{line}"
        super().__init__(f"{location}: {message}" if location else message)


class ParseError(DataFileError):
    """Malformed row or value: wrong column count, non-numeric field."""


class SchemaError(DataFileError):
    """Structural violation: bad header, duplicate year, bad metadata."""


class MineYearRecord(NamedTuple):
    """One mine-year of financial line items plus physical quantities.

    The fields from ``revenue`` to ``exports`` follow the columns of
    ``MINE_COLUMNS`` after ``year``, in order.
    """

    year: int
    revenue: float
    operating_cost: float
    admin_sales_expense: float
    pretax_result: float
    depreciation_amortization: float
    capital_paid_increase: float
    taxes_paid: float
    fixed_asset_additions: float
    net_loan_payments: float
    production: float
    exports: float
    reconstructed: bool = False


class PhysicalYear(NamedTuple):
    """Pre-history year: tonnages observed, financials not yet reconstructed.

    ``taxes_paid`` is only populated for mines whose actual tax payments are
    kept during reconstruction (the escondida tax rule).
    """

    year: int
    production: float
    exports: float
    taxes_paid: float | None = None


class MineDataset(NamedTuple):
    """All loaded data for one mine, records sorted by year."""

    mine_id: str
    opening_year: int
    capital_paid_first_year: float
    records: tuple[MineYearRecord, ...]
    escondida_tax_rule: bool = False
    physical_history: tuple[PhysicalYear, ...] = ()

    @property
    def first_reported_year(self) -> int | None:
        """Year of the first record that was reported, not reconstructed; None when there is none."""
        return next((rec.year for rec in self.records if not rec.reconstructed), None)

    def mean_production(self) -> float:
        """Arithmetic mean of annual production over every year on file."""
        per_year = {row.year: row.production for row in (*self.physical_history, *self.records)}  # records win
        if not per_year:
            return 0.0
        return plain_sum(per_year.values()) / len(per_year)


class MarketYear(NamedTuple):
    year: int
    copper_price: float  # USD per tonne
    gdp: float  # million USD
    exploration_spend_pct_gdp: float


class MarketSeries(NamedTuple):
    """Per-year copper price, GDP, and exploration spend share."""

    entries: tuple[MarketYear, ...]
    fund_rate: float = DEFAULT_FUND_RATE


class _DiscountSpecFields(NamedTuple):
    risk_free: float
    beta: float
    equity_premium: float
    country_risk: float


class DiscountSpec(_DiscountSpecFields):
    """Cost-of-capital parameters: additive CAPM plus a sovereign premium."""

    __slots__ = ()

    def __new__(cls, risk_free: float, beta: float, equity_premium: float, country_risk: float):
        self = super().__new__(cls, risk_free, beta, equity_premium, country_risk)
        for name, value in zip(cls._fields, self):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        return self


class ValidationIssue(NamedTuple):
    locator: str
    rule: str
    message: str


class ValidationReport(NamedTuple):
    errors: tuple[ValidationIssue, ...]
    warnings: tuple[ValidationIssue, ...]


def parse_number(text: str, column: str, path: Path, line: int | None, kind: type = float) -> float:
    """``kind(text)``, the one reader of a number in an input file; ParseError naming ``column`` otherwise.

    A number is ASCII text without ``_``: ``int`` and ``float`` also take digit
    separators (``1_995``) and other scripts' digits (``١٩٩٥``), which are refused
    here. An ``int`` is the integer a finite text names exactly: ``40``, ``40.0`` or
    ``4e1``, never ``3.7``; ``9007199254740993.0`` does not round through a float.
    """
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
        # An int written with a fraction or an exponent: finite first, or Decimal builds 1e999999's digits.
        if kind is int and math.isfinite(parse_number(text, column, path, line)):
            from decimal import Decimal  # imported only for these rare texts

            exact = Decimal(text)
            if exact == exact.to_integral_value():
                return int(exact)
    raise ParseError(f"non-numeric value {text!r} in column {column}", path, line)


def read_lines(path: str | Path, error: type[DataFileError]) -> list[str]:
    """The text of a UTF-8 file split at each ``"\\n"``, the only line break a line number counts.

    A byte that is not UTF-8 raises ``error`` naming the line that holds it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"not UTF-8 text: byte 0x{data[exc.start]:02x} ({exc.reason})", path, line) from None


def summarize_gaps(values: list[int]) -> tuple[int, str]:
    """How many integers sorted, distinct ``values`` skip, and their first three gaps as text.

    Counted from the values, never from the span they cover, so the text stays short.
    """
    missing = values[-1] - values[0] + 1 - len(values) if values else 0
    gaps = [f"{a + 1}" if b - a == 2 else f"{a + 1}-{b - 1}" for a, b in zip(values, values[1:]) if b - a > 1]
    return missing, ", ".join(gaps[:3]) + (", ..." if len(gaps) > 3 else "")


def _read_table(path: str | Path, columns: tuple[str, ...], metadata_keys: tuple[str, ...]):
    """Read a ``key=value`` metadata block and the exact header row of a table file.

    Returns ``(meta, rows)``. ``meta`` maps each key to ``(value, line)``.
    ``rows`` lazily yields ``(line, year, fields, plain)`` for each row after
    the header, so a loader's own row errors still come in file order; a
    ``plain`` row is ASCII without ``_``, so ``float`` reads each of its cells
    as :func:`parse_number` does. Raises
    :class:`SchemaError` for an unknown or duplicate key, a stray line before
    the header, a missing header or a duplicate year, and :class:`ParseError`
    for a byte that is not UTF-8, a wrong column count or a year that is not an integer;
    each names its line.
    """
    lines = enumerate(read_lines(path, ParseError), start=1)
    expected_header = ",".join(columns)
    meta: dict[str, tuple[str, int]] = {}
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line == expected_header:
            break
        if "=" not in line:
            raise SchemaError("expected metadata line or header row", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in metadata_keys:
            raise SchemaError(f"unknown metadata key {key!r}", path, lineno)
        if key in meta:
            raise SchemaError(f"duplicate metadata key {key!r}", path, lineno)
        meta[key] = (value.strip(), lineno)
    else:
        raise SchemaError("missing header row", path)

    def rows():
        seen_years: dict[int, int] = {}
        for lineno, raw in lines:
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(columns):
                raise ParseError(f"expected {len(columns)} columns, got {len(fields)}", path, lineno)
            plain = line.isascii() and "_" not in line
            year = parse_number(fields[0], "year", path, lineno, int)
            if year in seen_years:
                raise SchemaError(f"duplicate year {year} (first seen at line {seen_years[year]})", path, lineno)
            seen_years[year] = lineno
            yield lineno, year, fields, plain

    return meta, rows()


def load_mine_dataset(path: str | Path) -> MineDataset:
    """Parse one mine file into a :class:`MineDataset`.

    Layout: ``key=value`` metadata lines (``mine_id``, ``opening_year``,
    ``capital_paid_first_year``, optional ``escondida_tax_rule``), then the
    exact header row, then one comma-separated row per year. A row whose
    financial columns are all blank (``taxes_paid`` may be filled under the
    escondida tax rule) is kept as physical history; a blank ``exports_t``
    defaults to ``production_t``.

    Raises :class:`ParseError` for malformed rows or a byte that is not UTF-8, and
    :class:`SchemaError` for duplicate years, bad headers, or bad metadata; both name the line.
    The metadata block is checked before any row is read, so the error is the file's first
    fault in line order. Every year goes through :func:`parse_number`. A row in the number grammar
    (ASCII, no ``_``) has its other cells converted with ``float`` in one pass; only a row that fails
    goes through :func:`parse_number` cell by cell, which names the bad column with the same message.
    """
    meta_lines, rows = _read_table(path, MINE_COLUMNS, MINE_METADATA_KEYS)
    for key in ("mine_id", "opening_year", "capital_paid_first_year"):
        if key not in meta_lines:
            raise SchemaError(f"missing metadata key {key!r}", path)
    mine_id, mine_id_line = meta_lines["mine_id"]
    if not mine_id:
        raise SchemaError("mine_id must be non-empty", path, mine_id_line)
    if mine_id in (".", "..") or not _MINE_ID_FORBIDDEN.isdisjoint(mine_id):
        raise SchemaError(
            f"mine_id {mine_id!r} must not be '.' or '..' nor contain '/', '\\', ',', '\"' or a control character",
            path,
            mine_id_line,
        )
    if (size := len(mine_id.encode("utf-8"))) > MINE_ID_MAX_BYTES:
        message = f"mine_id is {size} bytes in UTF-8; at most {MINE_ID_MAX_BYTES} fit in an output file name"
        raise SchemaError(message, path, mine_id_line)
    numbers = {}  # the two numeric keys, named as MineDataset's fields
    for key, kind, noun in (("opening_year", int, "an integer"), ("capital_paid_first_year", float, "a number")):
        value, lineno = meta_lines[key]
        try:
            numbers[key] = parse_number(value, key, path, lineno, kind)
        except ParseError:
            raise SchemaError(f"{key} must be {noun}, got {value!r}", path, lineno) from None
    tax_rule_text, tax_rule_line = meta_lines.get("escondida_tax_rule", ("false", None))
    if tax_rule_text not in ("true", "false"):
        raise SchemaError(f"escondida_tax_rule must be 'true' or 'false', got {tax_rule_text!r}", path, tax_rule_line)

    records: list[MineYearRecord] = []
    physical: list[PhysicalYear] = []

    for lineno, year, fields, plain in rows:
        if fields[10] == "":
            raise ParseError("production_t is required", path, lineno)
        financial = fields[1:10]  # revenue .. net_loan_payments; taxes_paid is index 6
        blank = financial.count("")
        history = blank == 9 or blank == 8 and financial[6] != ""
        mixed = blank and not history
        cells = None  # the columns after the year: financial (as indexed above), production_t, exports_t
        if plain:
            try:
                cells = [float(cell) if cell else None for cell in fields[1:]]
            except ValueError:
                pass
        if cells is None:
            # Some cell is bad. Name it as the checks run: the tonnages, then, unless the row mixes
            # blank and filled financial cells (refused below), the financial cells.
            for i in (10, 11) if mixed else (10, 11, *range(1, 10)):
                if fields[i]:
                    parse_number(fields[i], MINE_COLUMNS[i], path, lineno)
        if mixed:
            raise ParseError("financial columns must be all blank (pre-history row) or all present", path, lineno)
        if cells[10] is None:  # a blank exports_t is production_t
            cells[10] = cells[9]
        if history:
            physical.append(PhysicalYear(year, cells[9], cells[10], cells[6]))
        else:
            records.append(MineYearRecord(year, *cells))

    records.sort(key=lambda rec: rec.year)
    physical.sort(key=lambda phys: phys.year)

    return MineDataset(
        mine_id=mine_id,
        **numbers,
        records=tuple(records),
        escondida_tax_rule=tax_rule_text == "true",
        physical_history=tuple(physical),
    )


def _fmt(value: float) -> str:
    # repr round-trips floats exactly, keeping serialize/load lossless
    return repr(float(value))


def write_mine_dataset(dataset: MineDataset, path: str | Path) -> None:
    """Serialize a dataset back to the mine file schema."""
    path = Path(path)
    lines = [
        f"mine_id={dataset.mine_id}",
        f"opening_year={dataset.opening_year}",
        f"capital_paid_first_year={_fmt(dataset.capital_paid_first_year)}",
        f"escondida_tax_rule={'true' if dataset.escondida_tax_rule else 'false'}",
        ",".join(MINE_COLUMNS),
    ]
    rows = [(rec.year, ",".join([str(rec.year), *map(_fmt, rec[1 : len(MINE_COLUMNS)])])) for rec in dataset.records]
    for phys in dataset.physical_history:
        taxes = "" if phys.taxes_paid is None else _fmt(phys.taxes_paid)
        cells = [str(phys.year), "", "", "", "", "", "", taxes, "", "", _fmt(phys.production), _fmt(phys.exports)]
        rows.append((phys.year, ",".join(cells)))
    rows.sort(key=lambda item: item[0])
    lines.extend(text for _, text in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_market_series(path: str | Path) -> MarketSeries:
    """Parse the market file: optional ``fund_rate=`` line, header, rows."""
    path = Path(path)
    meta, rows = _read_table(path, MARKET_COLUMNS, ("fund_rate",))
    fund_rate = DEFAULT_FUND_RATE
    if "fund_rate" in meta:
        text, line = meta["fund_rate"]
        fund_rate = parse_number(text, "fund_rate", path, line)
    entries = [
        MarketYear(year, *(parse_number(fields[i], MARKET_COLUMNS[i], path, lineno) for i in (1, 2, 3)))
        for lineno, year, fields, _ in rows
    ]
    entries.sort(key=lambda ent: ent.year)
    return MarketSeries(entries=tuple(entries), fund_rate=fund_rate)


def _check_range(err, locator: str, rule: str, fields: Iterable[tuple[str, float]]) -> bool:
    """One ``rule`` error naming each ``(name, value)`` outside the rule's range; True when there is none."""
    floor, bound, unit = _RANGES[rule]
    bad = [f"{name}={value}" for name, value in fields if not (value == 0 or floor <= abs(value) <= bound)]
    if bad:
        limits = f"0 or between {floor:g} and {bound:g} {unit} in magnitude"
        err(locator, rule, f"values must be {limits}, got {', '.join(bad)}")
    return not bad


def _check_physical_row(mine_id: str, row: MineYearRecord | PhysicalYear, err, warn) -> None:
    year, production, exports = row.year, row.production, row.exports
    if not YEAR_MIN <= year <= YEAR_MAX:
        err(f"{mine_id}:{year}", "year-window", f"year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    if not (
        (production == 0 or TONNAGE_FLOOR <= abs(production) <= TONNAGE_BOUND)
        and (exports == 0 or TONNAGE_FLOOR <= abs(exports) <= TONNAGE_BOUND)
    ):
        _check_range(err, f"{mine_id}:{year}", "tonnage-range", (("production", production), ("exports", exports)))
        return
    if production < 0:
        err(f"{mine_id}:{year}", "production-nonnegative", f"production must be nonnegative, got {production}")
    if exports < 0:
        err(f"{mine_id}:{year}", "exports-nonnegative", f"exports must be nonnegative, got {exports}")
    if exports > 1.10 * production:
        warn(
            f"{mine_id}:{year}",
            "exports-exceed-production",
            "exports exceed production by more than 10% (possible inventory draw-down)",
        )


def validate_dataset(mines: Iterable[MineDataset], market: MarketSeries) -> ValidationReport:
    """Check every invariant of the run's mines and market; violations are reported, never raised.

    The market is checked once, however many mines there are. The report is
    order-insensitive: issues are sorted by locator, rule and message. Within
    the magnitude bounds it checks, every value the analysis derives is finite,
    and every mine it accepts can be backfilled: its pre-history lies before
    its reported years, in years the market covers, with a producing year in
    ``DEFAULT_BASELINE_WINDOW`` to average over. A mine row's ranges are plain
    comparisons, each False for NaN, and an issue's text is built only when its
    check fails.
    """
    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []

    def err(locator, rule, message):
        errors.append(ValidationIssue(locator, rule, message))

    def warn(locator, rule, message):
        warnings.append(ValidationIssue(locator, rule, message))

    market_years = Counter(ent.year for ent in market.entries)
    low, high = DEFAULT_BASELINE_WINDOW
    mine_ids: Counter[str] = Counter()
    for mine in mines:
        mine_ids[mine.mine_id] += 1
        capital = mine.capital_paid_first_year
        if _check_range(err, mine.mine_id, "money-range", [("capital_paid_first_year", capital)]) and capital <= 0:
            err(mine.mine_id, "capital-paid-positive", f"capital_paid_first_year must be > 0, got {capital}")
        if not OPENING_YEAR_MIN <= mine.opening_year <= YEAR_MAX:
            opening = f"opening_year {mine.opening_year} outside [{OPENING_YEAR_MIN}, {YEAR_MAX}]"
            err(mine.mine_id, "opening-year-range", opening)
        first = mine.first_reported_year
        if first is not None and first < mine.opening_year:
            message = f"first_reported_year {first} precedes opening_year {mine.opening_year}"
            err(mine.mine_id, "first-reported-after-opening", message)
        if not mine.records:
            warn(mine.mine_id, "no-history", NO_HISTORY_WARNING)

        year_counts = Counter(row.year for row in (*mine.records, *mine.physical_history))
        if dupes := sorted(year for year, count in year_counts.items() if count > 1):
            err(mine.mine_id, "duplicate-year", f"duplicate years: {dupes}")
        if [rec.year for rec in mine.records] != sorted(rec.year for rec in mine.records):
            err(mine.mine_id, "records-sorted", "records are not sorted by year")

        for rec in mine.records:
            _check_physical_row(mine.mine_id, rec, err, warn)
            for value in rec[1:10]:  # the money fields
                if not (value == 0 or MONEY_FLOOR <= abs(value) <= MONEY_BOUND):
                    _check_range(err, f"{mine.mine_id}:{rec.year}", "money-range", zip(MINE_COLUMNS[1:10], rec[1:10]))
                    break
        for phys in mine.physical_history:
            _check_physical_row(mine.mine_id, phys, err, warn)
            year, taxes = phys.year, phys.taxes_paid
            if taxes is not None and not (taxes == 0 or MONEY_FLOOR <= abs(taxes) <= MONEY_BOUND):
                _check_range(err, f"{mine.mine_id}:{year}", "money-range", [("taxes_paid", taxes)])
            if year < mine.opening_year:
                message = f"pre-history year {year} precedes opening_year {mine.opening_year}"
                err(f"{mine.mine_id}:{year}", "history-after-opening", message)
            if first is not None and year >= first:
                message = f"pre-history year {year} is not before first reported year {first}"
                err(f"{mine.mine_id}:{year}", "history-before-reports", message)
            if year not in market_years:
                message = f"market series has no row for pre-history year {year}"
                err(f"{mine.mine_id}:{year}", "market-coverage", message)
        if mine.physical_history and not any(low <= rec.year <= high and rec.production > 0 for rec in mine.records):
            message = f"pre-history needs a reported year {low}-{high} with production > 0 to backfill from"
            err(mine.mine_id, "baseline-window", message)
    for mine_id, count in mine_ids.items():
        if count > 1:
            err(mine_id, "duplicate-mine-id", f"{count} mines share this mine_id")

    if not market.entries:
        err("market", "market-empty", "market series has no entries")
    for ent in market.entries:
        locator = f"market:{ent.year}"
        if not 0 < ent.copper_price <= PRICE_BOUND:
            price = ent.copper_price
            err(locator, "price-range", f"copper price must lie in (0, {PRICE_BOUND:g}] USD/t, got {price}")
        if not (0 <= ent.exploration_spend_pct_gdp < 1):
            err(
                locator,
                "exploration-pct-range",
                f"exploration share of GDP must lie in [0, 1), got {ent.exploration_spend_pct_gdp}",
            )
        if _check_range(err, locator, "money-range", [("gdp", ent.gdp)]) and ent.gdp < 0:
            err(locator, "gdp-nonnegative", f"gdp must be >= 0, got {ent.gdp}")
    if dupes := sorted(year for year, count in market_years.items() if count > 1):
        err("market", "duplicate-year", f"duplicate years: {dupes}")
    missing, shown = summarize_gaps(sorted(market_years))
    if missing:
        err("market", "market-contiguous", f"non-contiguous market coverage: {missing} year(s) missing: {shown}")
    if not -1 < market.fund_rate <= RATE_MAX:
        err("market", "fund-rate-range", f"fund_rate must lie in (-1, {RATE_MAX:g}], got {market.fund_rate}")

    key = lambda issue: (issue.locator, issue.rule, issue.message)
    return ValidationReport(tuple(sorted(errors, key=key)), tuple(sorted(warnings, key=key)))
