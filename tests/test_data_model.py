"""Ingestion, serialization round-trip, and validation."""

from __future__ import annotations

import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minerent import (
    MarketSeries,
    MarketYear,
    ParseError,
    PhysicalYear,
    SchemaError,
    ValidationIssue,
    ValidationReport,
    load_market_series,
    load_mine_dataset,
    validate_dataset,
    write_mine_dataset,
)
from minerent.data_model import MARKET_COLUMNS, MINE_COLUMNS, NO_HISTORY_WARNING, MineYearRecord

from conftest import MARKET_FILE, MINES_DIR, make_market, make_mine, make_record
from oracle import MINE_HEADER, load_mine_brute

META = [
    "mine_id=demo",
    "opening_year=1995",
    "capital_paid_first_year=500.0",
    "escondida_tax_rule=false",
]
MARKET_HEADER = ",".join(MARKET_COLUMNS)
# 1995 in Arabic-Indic digits, which int() and float() read as 1995.
ARABIC_INDIC_1995 = "\u0661\u0669\u0669\u0665"


def full_row(year, production=150000.0):
    return f"{year},100.0,40.0,4.0,50.0,10.0,0.0,8.0,12.0,5.0,{production},{production}"


def full_record(year):
    """The record ``full_row(year)`` loads to."""
    return make_record(year, pretax_result=50.0, production=150000.0)


def mine_text(rows, meta=META):
    return "\n".join(meta + [MINE_HEADER] + rows) + "\n"


def with_cell(column, text):
    """``full_row(2001)`` with ``text`` in ``column``."""
    return ",".join(text if name == column else cell for name, cell in zip(MINE_COLUMNS, full_row(2001).split(",")))


def with_meta(line):
    """META with ``line`` in place of the entry of its key."""
    key = line.partition("=")[0]
    return [line if entry.startswith(key + "=") else entry for entry in META]


def market_text(column, text):
    """A one-year market file with ``text`` as its ``column`` cell, or as its fund rate."""
    row = dict(zip(MARKET_COLUMNS, ["2001", "1580", "50000", "0.003"]), fund_rate="0.05")
    row[column] = text
    return f"fund_rate={row.pop('fund_rate')}\n{MARKET_HEADER}\n{','.join(row.values())}\n"


def loaded(value):
    return "loaded", repr(value)  # repr: a nan cell equals itself


def demo(*years, **fields):
    """The outcome of loading META and ``full_row`` of each of ``years``."""
    return loaded(make_mine(mine_id="demo", records=[full_record(year) for year in years], **fields))


def outcome(load, path):
    """``("loaded", repr(value))`` for what ``load(path)`` returns, or the class and text of its refusal."""
    try:
        return loaded(load(path))
    except (ParseError, SchemaError) as exc:
        where = exc.path if exc.line is None else f"{exc.path}:{exc.line}"
        assert str(exc).startswith(f"{where}: ")  # the path and line it carries are the ones its text names
        return type(exc), str(exc)


MARKET_ROWS = [line.split(",") for line in MARKET_FILE.read_text(encoding="utf-8").splitlines()[2:]]
# str.splitlines also breaks a line at each of these; a line number counts "\n" only.
LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
NOT_A_FILE_NAME_PART = "must not be '.' or '..' nor contain '/', '\\', ',', '\"' or a control character"

# Each row: a loader, the file's text or bytes, and the outcome: the value loaded, or the refusal's class and
# text, where {path} stands for the file.
LOADS = {
    "eleven-rows": (load_mine_dataset, mine_text([full_row(y) for y in range(2001, 2012)]), demo(*range(2001, 2012))),
    "rows-sorted-after-load": (
        load_mine_dataset, mine_text([full_row(2005), full_row(2001), full_row(2003)]), demo(2001, 2003, 2005)
    ),
    "shuffled-rows-with-pre-history": (
        load_mine_dataset, mine_text([full_row(2001), full_row(2006), "1996,,,,,,,,,,120000,", full_row(2003)]
                                     + [full_row(year) for year in (2002, 2007, 2005, 2004)]),
        demo(*range(2001, 2008), physical_history=[PhysicalYear(1996, 120000.0, 120000.0)]),
    ),
    "empty-records-section": (load_mine_dataset, mine_text([]), demo()),
    "blank-exports-is-production": (
        load_mine_dataset, mine_text(["2001,100.0,40.0,4.0,50.0,10.0,0.0,8.0,12.0,5.0,150000,"]), demo(2001)
    ),
    "physical-rows": (
        load_mine_dataset, mine_text(["1996,,,,,,,,,,120000,115000", "1997,,,,,,,5.5,,,130000,", full_row(2001)]),
        demo(
            2001, physical_history=[PhysicalYear(1996, 120000.0, 115000.0), PhysicalYear(1997, 130000.0, 130000.0, 5.5)]
        ),
    ),
    "duplicate-year": (
        load_mine_dataset, mine_text([full_row(2004), full_row(2005), full_row(2005)]),
        (SchemaError, "{path}:8: duplicate year 2005 (first seen at line 7)"),
    ),
    "mixed-blank-financials": (
        load_mine_dataset, mine_text(["2001,100.0,,4.0,50.0,10.0,0.0,8.0,12.0,5.0,150000,150000"]),
        (ParseError, "{path}:6: financial columns must be all blank (pre-history row) or all present"),
    ),
    "non-numeric-field": (
        load_mine_dataset, mine_text([full_row(2001), full_row(2002).replace("40.0", "forty")]),
        (ParseError, "{path}:7: non-numeric value 'forty' in column operating_cost"),
    ),
    "wrong-column-count": (
        load_mine_dataset, mine_text(["2001,1.0,2.0"]), (ParseError, "{path}:6: expected 12 columns, got 3")
    ),
    "missing-metadata-key": (
        load_mine_dataset, mine_text([full_row(2001)], META[:2]),
        (SchemaError, "{path}: missing metadata key 'capital_paid_first_year'"),
    ),
    "unknown-metadata-key": (
        load_mine_dataset, mine_text([full_row(2001)], META + ["bogus=1"]),
        (SchemaError, "{path}:5: unknown metadata key 'bogus'"),
    ),
    **{
        f"metadata-{line!r}": (
            load_mine_dataset, mine_text([full_row(2001)], with_meta(line)),
            (SchemaError, f"{{path}}:{with_meta(line).index(line) + 1}: {message}"),
        )
        for line, message in [
            ("opening_year=1997.5", "opening_year must be an integer, got '1997.5'"),
            ("capital_paid_first_year=abc", "capital_paid_first_year must be a number, got 'abc'"),
            ("escondida_tax_rule=yes", "escondida_tax_rule must be 'true' or 'false', got 'yes'"),
            # int() and float() take these; a number in an input file is ASCII without "_".
            ("opening_year=1_995", "opening_year must be an integer, got '1_995'"),
            (f"opening_year={ARABIC_INDIC_1995}", f"opening_year must be an integer, got '{ARABIC_INDIC_1995}'"),
            ("capital_paid_first_year=8_50.0", "capital_paid_first_year must be a number, got '8_50.0'"),
            # Past the float range: refused at once, never expanded into its 401 digits.
            ("opening_year=1e400", "opening_year must be an integer, got '1e400'"),
        ]
    },
    **{
        f"{column}-{text!r}-outside-the-ascii-grammar": (
            load_mine_dataset, mine_text([with_cell(column, text)]),
            (ParseError, f"{{path}}:6: non-numeric value {text!r} in column {column}"),
        )
        for column in ("year", "revenue", "production_t")
        for text in ("1_995", ARABIC_INDIC_1995, "8_50.0")
    },
    # Trailing on a metadata line, the character is stripped, so the two-column row is line 7.
    **{
        f"{ord(char):#x}-ends-no-metadata-line": (
            load_mine_dataset, mine_text([full_row(2001), "2002,1.0"], [META[0] + char] + META[1:]),
            (ParseError, "{path}:7: expected 12 columns, got 2"),
        )
        for char in LINE_BREAKS
    },
    # Inside a cell, it leaves the row's 12 columns whole and the cell not a number.
    **{
        f"{ord(char):#x}-inside-a-cell": (
            load_mine_dataset, mine_text([full_row(2001, production=f"150{char}000.0")]),
            (ParseError, f"{{path}}:6: non-numeric value {f'150{char}000.0'!r} in column production_t"),
        )
        for char in LINE_BREAKS
    },
    "undecodable-byte": (
        load_mine_dataset, mine_text([full_row(2001), full_row(2002)]).encode().replace(b"2002,", b"2002\xc3,"),
        (ParseError, "{path}:7: not UTF-8 text: byte 0xc3 (invalid continuation byte)"),
    ),
    **{
        f"mine-id-{mine_id!r}-is-no-file-name-part": (
            load_mine_dataset, mine_text([full_row(2001)], ["opening_year=1995", f"mine_id={mine_id}"] + META[2:]),
            (SchemaError, f"{{path}}:2: mine_id {mine_id!r} {NOT_A_FILE_NAME_PART}"),
        )
        for mine_id in [
            "../escaped", "sub/dir", "back\\slash", "a,b", '"alpha', 'quote"inside', ".", "..", "tab\tinside",
            "nul\x00", "del\x7f", "c1\x9f",
        ]
    },
    "empty-mine-id": (
        load_mine_dataset, mine_text([full_row(2001)], ["mine_id="] + META[1:]),
        (SchemaError, "{path}:1: mine_id must be non-empty"),
    ),
    "blank-mine-id": (
        load_mine_dataset, mine_text([full_row(2001)], ["opening_year=1995", "mine_id= "] + META[2:]),
        (SchemaError, "{path}:2: mine_id must be non-empty"),
    ),
    **{
        f"mine-id-{mine_id!r}-loads": (
            load_mine_dataset, mine_text([full_row(2001)], [f"mine_id={mine_id}"] + META[1:]),
            loaded(make_mine(mine_id=mine_id, records=[full_record(2001)])),
        )
        for mine_id in ["alpha", "alpha-0000", "a..b", ".hidden", "Mina Escondida", "ñandú_2"]
    },
    # The shipped market, against its lines split by hand.
    "shipped-market": (
        load_market_series, MARKET_FILE.read_bytes(),
        loaded(MarketSeries(tuple(MarketYear(int(year), *map(float, cells)) for year, *cells in MARKET_ROWS), 0.0507)),
    ),
    "market-duplicate-year": (
        load_market_series, f"{MARKET_HEADER}\n2001,1580,50000,0.003\n2001,1600,51000,0.003\n",
        (SchemaError, "{path}:3: duplicate year 2001 (first seen at line 2)"),
    ),
    **{
        f"market-{column}-{text!r}-outside-the-ascii-grammar": (
            load_market_series, market_text(column, text),
            (ParseError, f"{{path}}:{lineno}: non-numeric value {text!r} in column {column}"),
        )
        for column, lineno in [("fund_rate", 1), ("year", 3), ("gdp_usd_m", 3)]
        for text in ("1_995", ARABIC_INDIC_1995, "8_50.0")
    },
    "market-duplicate-fund-rate": (
        load_market_series, f"fund_rate=0.05\nfund_rate=0.9\n{MARKET_HEADER}\n2001,1580,50000,0.003\n",
        (SchemaError, "{path}:2: duplicate metadata key 'fund_rate'"),
    ),
}


@pytest.mark.parametrize("load, content, expected", list(LOADS.values()), ids=list(LOADS))
def test_load(tmp_path, load, content, expected):
    path = tmp_path / "demo.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert outcome(load, path) == (expected[0], expected[1].replace("{path}", str(path)))


class TestRoundTrip:
    def test_corpus_round_trips(self, tmp_path, corpus_mines):
        for mine in corpus_mines:
            target = tmp_path / f"{mine.mine_id}.csv"
            write_mine_dataset(mine, target)
            assert load_mine_dataset(target) == mine

    def test_constructed_dataset_round_trips(self, tmp_path):
        rng = random.Random(7)
        records = [
            make_record(
                year,
                revenue=rng.uniform(-50, 900),
                operating_cost=rng.uniform(0, 400),
                pretax_result=rng.uniform(-200, 500),
                taxes_paid=rng.uniform(0, 90),
                production=rng.uniform(1, 3e5),
                exports=rng.uniform(1, 3e5),
            )
            for year in range(2001, 2010)
        ]
        mine = make_mine(records=records, physical_history=(), capital_paid_first_year=321.125)
        target = tmp_path / "rt.csv"
        write_mine_dataset(mine, target)
        assert load_mine_dataset(target) == mine


MONEY = "values must be 0 or between 1e-06 and 1e+12 M USD in magnitude, got {}={}"
TONNAGE = "values must be 0 or between 1 and 1e+12 t in magnitude, got {}={}"
PRICE = "copper price must lie in (0, 1e+09] USD/t, got {!r}"
NO_HISTORY = ("testmine", "no-history", NO_HISTORY_WARNING)
# The one value of a money row in four places: the capital, a record's field, a pre-history tax and 1990's GDP.
FOUR_PLACES = [("m", "capital_paid_first_year"), ("m:1996", "taxes_paid"), ("m:2001", "fixed_asset_additions"),
               ("market:1990", "gdp")]
BASELINE = "pre-history needs a reported year 2001-2005 with production > 0 to backfill from"
MARKET = make_market()
IDLE = [make_record(year, production=0.0) for year in range(2001, 2006)]


def report(errors=(), warnings=()):
    """The ValidationReport of these ``(locator, rule, message)`` errors and warnings."""
    return ValidationReport(tuple(ValidationIssue(*e) for e in errors), tuple(ValidationIssue(*w) for w in warnings))


def history(*years):
    return [PhysicalYear(year, 1e5, 1e5) for year in years]


def money_in_four_places(value):
    mine = make_mine(
        mine_id="m",
        capital_paid_first_year=value,
        records=[make_record(2001, fixed_asset_additions=value)],
        physical_history=[PhysicalYear(1996, 1e5, 1e5, taxes_paid=value)],
    )
    return [mine], make_market(gdp=lambda year: value if year == 1990 else 5e4)


# Each row: the mines, the market, and the whole report validate_dataset gives. RANGE_TABLE holds each money and
# tonnage range's edges for one value in one field.
VALIDATIONS = {
    **{
        f"corpus-{path.stem}": ([load_mine_dataset(path)], load_market_series(MARKET_FILE), report())
        for path in sorted(MINES_DIR.glob("*.csv"))
    },
    # Two tonnages out of range are one error naming both.
    "two-tonnages-out-of-range": (
        [make_mine(records=[make_record(2001, production=1.7e308, exports=1.7e308)])], MARKET,
        report([("testmine:2001", "tonnage-range", TONNAGE.format("production", "1.7e+308, exports=1.7e+308"))]),
    ),
    **{
        f"tonnage-{column}={value!r}": (
            [make_mine(records=[make_record(2001, production=production, exports=exports)])], MARKET,
            report([("testmine:2001", "tonnage-range", TONNAGE.format(column, value))]),
        )
        for production, exports, column, value in [
            (1e6, -2e12, "exports", -2e12), (0.5, 0.0, "production", 0.5), (1e6, -0.5, "exports", -0.5)
        ]
    },
    **{
        f"money-{value!r}-in-four-places": (*money_in_four_places(value), report(errors))
        for value, errors in [
            (0.0, [("m", "capital-paid-positive", "capital_paid_first_year must be > 0, got 0.0")]),
            (1e-6, []),
            (1e12, []),
            *[
                (value, [("m", "capital-paid-positive", f"capital_paid_first_year must be > 0, got {value}"),
                         ("market:1990", "gdp-nonnegative", f"gdp must be >= 0, got {value}")])
                for value in (-1e-6, -1e12)
            ],
            *[
                (value, [(locator, "money-range", MONEY.format(field, value)) for locator, field in FOUR_PLACES])
                for value in (5e-7, -5e-7, 1.0000000000000002e12, math.nan, -math.inf)
            ],
        ]
    },
    # No records, so no first-reported-after-opening; each report carries the mine's no-history warning.
    **{
        f"price-{price!r}-fund-rate-{fund_rate!r}-opening-{opening_year}": (
            [make_mine(opening_year=opening_year)],
            make_market(price=lambda year: price if year == 1990 else 2000.0, fund_rate=fund_rate),
            report(errors, [NO_HISTORY]),
        )
        for price, fund_rate, opening_year, errors in [
            (5e-324, -0.9999999999999999, 1884, []),
            (1e9, 1.0, 2012, []),
            *[(price, 0.0507, 1995, [("market:1990", "price-range", PRICE.format(price))])
              for price in (0.0, 1.0000000000000002e9, math.nan)],
            *[(2000.0, rate, 1995, [("market", "fund-rate-range", f"fund_rate must lie in (-1, 1], got {rate!r}")])
              for rate in (-1.0, 1.0000000000000002, math.nan)],
            *[(2000.0, 0.0507, year, [("testmine", "opening-year-range", f"opening_year {year} outside [1884, 2012]")])
              for year in (1883, 2013, -2112)],
        ]
    },
    # One error per pre-history year before the opening, as first-reported-after-opening is for reported years.
    **{
        f"history-after-opening-{opening}": (
            [make_mine(mine_id="m", opening_year=opening, records=[make_record(2001)],
                       physical_history=history(1996, 1997, 1998))], MARKET,
            report([(f"m:{year}", "history-after-opening", f"pre-history year {year} precedes opening_year {opening}")
                    for year in years]),
        )
        for opening, years in [
            (1995, ()), (1996, ()), (1997, (1996,)), (1999, (1996, 1997, 1998)), (2001, (1996, 1997, 1998))
        ]
    },
    # One error per pre-history row on or after the first reported year, not only the first such row.
    "pre-history-lies-before-the-first-reported-year": (
        [make_mine(mine_id="m", records=[make_record(year) for year in (2001, 2002, 2004)],
                   physical_history=history(2000, 2001, 2003, 2007))],
        MARKET,
        report([("m", "duplicate-year", "duplicate years: [2001]")] + [
            (f"m:{year}", "history-before-reports", f"pre-history year {year} is not before first reported year 2001")
            for year in (2001, 2003, 2007)
        ]),
    ),
    # One error per pre-history row the market has no row for, in every mine.
    "pre-history-years-lie-in-the-market": (
        [
            make_mine(mine_id="a", records=[make_record(2001)], physical_history=history(1996, 1997, 1998)),
            make_mine(mine_id="b", records=[make_record(2001)], physical_history=history(1997, 1998)),
            make_mine(mine_id="c", records=[make_record(2001)], physical_history=history(1998, 1999, 2000)),
        ],
        make_market(years=range(1998, 2013)),
        report([
            (f"{mine_id}:{year}", "market-coverage", f"market series has no row for pre-history year {year}")
            for mine_id, year in [("a", 1996), ("a", 1997), ("b", 1997)]
        ]),
    ),
    # One error per mine with pre-history and no reported 2001-2005 year of production > 0 to average over.
    "pre-history-needs-a-producing-baseline-year": (
        [
            make_mine(mine_id="late", records=[make_record(2006)], physical_history=history(1996)),
            make_mine(mine_id="idle", records=[*IDLE, make_record(2006)], physical_history=history(1996)),
            make_mine(mine_id="bare", physical_history=history(1996)),
            make_mine(mine_id="ok", records=[*IDLE[:4], make_record(2005)], physical_history=history(1996)),
        ],
        MARKET,
        report([(mine_id, "baseline-window", BASELINE) for mine_id in ("bare", "idle", "late")],
               [("bare", "no-history", NO_HISTORY_WARNING)]),
    ),
    "mine-without-pre-history-needs-no-baseline": (
        [make_mine(mine_id="late", records=[make_record(2006)]), make_mine(mine_id="idle", records=IDLE)],
        MARKET, report(),
    ),
    "duplicate-mine-id-is-one-error-per-id": (
        [make_mine(mine_id=mine_id, records=[make_record(2001)]) for mine_id in "abacba"], MARKET,
        report([("a", "duplicate-mine-id", "3 mines share this mine_id"),
                ("b", "duplicate-mine-id", "2 mines share this mine_id")]),
    ),
    "market-gap": (
        [make_mine(records=[make_record(2001)])],
        MarketSeries(entries=tuple(MarketYear(y, 2000.0, 50000.0, 0.003) for y in range(1990, 2005) if y != 1997)),
        report([("market", "market-contiguous", "non-contiguous market coverage: 1 year(s) missing: 1997")]),
    ),
    # Unrefused, reconstruction read the last 1990 entry and the imputation counted the first one twice.
    "market-year-given-twice-is-one-error": (
        [make_mine(mine_id="m", records=[make_record(2001)])], make_market(years=[*range(1984, 2013), 1990]),
        report([("market", "duplicate-year", "duplicate years: [1990]")]),
    ),
    "market-checked-once-for-many-mines": (
        [make_mine(mine_id=f"m{i}", records=[make_record(2001)]) for i in range(3)],
        MarketSeries(entries=(MarketYear(2001, -1.0, 50000.0, 0.003),)),
        report([("market:2001", "price-range", PRICE.format(-1.0))]),
    ),
    "exports-draw-down-is-a-warning": (
        [make_mine(records=[make_record(2001, production=100.0, exports=120.0)])], MARKET,
        report(warnings=[("testmine:2001", "exports-exceed-production",
                          "exports exceed production by more than 10% (possible inventory draw-down)")]),
    ),
    # 10% over production is still within tolerance.
    "exports-ten-percent-over-production": (
        [make_mine(records=[make_record(2001, production=100.0, exports=110.0)])], MARKET, report()
    ),
    "year-window": (
        [make_mine(records=[make_record(1983)], opening_year=1980)], MARKET,
        report([("testmine:1983", "year-window", "year 1983 outside [1984, 2012]")]),
    ),
    "no-history": ([make_mine(records=())], MARKET, report(warnings=[NO_HISTORY])),
    "year-in-records-and-physical-history": (
        [make_mine(mine_id="twice", records=[make_record(2001), make_record(2002)], physical_history=history(2001))],
        MARKET,
        report([
            ("twice", "duplicate-year", "duplicate years: [2001]"),
            ("twice:2001", "history-before-reports", "pre-history year 2001 is not before first reported year 2001"),
        ]),
    ),
    # The loader cannot produce it, and make_mine sorts, so this dataset is built by hand.
    "unsorted-records": (
        [make_mine(mine_id="shuffled")._replace(records=(make_record(2002), make_record(2001)))], MARKET,
        report([("shuffled", "records-sorted", "records are not sorted by year")]),
    ),
}


@pytest.mark.parametrize("mines, market, expected", list(VALIDATIONS.values()), ids=list(VALIDATIONS))
def test_validation(mines, market, expected):
    assert repr(validate_dataset(mines, market)) == repr(expected)


# Cell texts at the edges of the number grammar: blank, padded, not finite, past the float range, a digit
# separator, another script's digit, hex, a sign, and integers written with an exponent or a fraction.
EDGE_CELLS = ["", " 1.5", "nan", "-inf", "1e999", "1_0", "\u0661", "0x1", "+5", "4e1", "40.0", "-0.0", "2e-7", "x"]
ALPHA_LINES = (MINES_DIR / "alpha.csv").read_text(encoding="utf-8").split("\n")
ALPHA_ROWS = [at for at, line in enumerate(ALPHA_LINES) if line[:4].isdigit()]


@st.composite
def mutated_alpha(draw) -> str:
    """alpha.csv with 1-3 row cells replaced by edge texts, and now and then a stray column."""
    lines = list(ALPHA_LINES)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(ALPHA_ROWS))
        cells = lines[at].split(",")
        column = draw(st.integers(0, len(cells) - 1))
        cells[column] = draw(st.sampled_from(EDGE_CELLS))
        if draw(st.integers(0, 9)) == 0:
            cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(EDGE_CELLS)))
        lines[at] = ",".join(cells)
    return "\n".join(lines)


class TestLoadAgainstBrute:
    """``load_mine_dataset`` against ``oracle.load_mine_brute``, a per-cell reader of the README grammar."""

    @given(text=mutated_alpha())
    @settings(max_examples=300)
    def test_mutated_rows_load_or_fail_alike(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "alpha.csv"
            path.write_text(text, encoding="utf-8")
            assert outcome(load_mine_dataset, path) == outcome(load_mine_brute, path)

    def test_shipped_mines_load_alike(self):
        for path in sorted(MINES_DIR.glob("*.csv")):
            assert repr(load_mine_dataset(path)) == repr(load_mine_brute(path))


def boundary_values(floor: float, bound: float) -> list[tuple[float, bool]]:
    """``(value, inside)`` around a range of magnitudes ``0`` or ``[floor, bound]``: each edge, one step either side."""
    return [
        (math.nextafter(floor, 0.0), False),
        (floor, True),
        (math.nextafter(floor, math.inf), True),
        (math.nextafter(bound, 0.0), True),
        (bound, True),
        (math.nextafter(bound, math.inf), False),
        (-floor, True),
        (-bound, True),
        (-math.nextafter(bound, math.inf), False),
        (0.0, True),
        (-0.0, True),
        (math.nan, False),
        (math.inf, False),
        (-math.inf, False),
    ]


def range_table() -> list[tuple[str, float, tuple[str, str, str] | None]]:
    """``(column, value, error)``: the one error validation reports for ``value`` in ``column``, or None."""
    table = []
    for value, inside in boundary_values(1e-6, 1e12):
        for column in MINE_COLUMNS[1:10]:
            table.append((column, value, None if inside else ("m:2001", "money-range", MONEY.format(column, value))))
        error = None if inside else ("m:1996", "money-range", MONEY.format("taxes_paid", value))
        table.append(("pre-history taxes_paid", value, error))
        column = "capital_paid_first_year"
        error = ("m", "money-range", MONEY.format(column, value)) if not inside else None
        if inside and value <= 0:
            error = ("m", "capital-paid-positive", f"{column} must be > 0, got {value}")
        table.append((column, value, error))
    for value, inside in boundary_values(1.0, 1e12):
        for column in ("production", "exports"):
            error = ("m:2001", "tonnage-range", TONNAGE.format(column, value)) if not inside else None
            if inside and value < 0:
                error = ("m:2001", f"{column}-nonnegative", f"{column} must be nonnegative, got {value}")
            table.append((column, value, error))
    return table


RANGE_TABLE = range_table()


class TestRangeBoundaries:
    """validate_dataset's verdict and full message at the edges of every money and tonnage range."""

    @pytest.mark.parametrize(
        "column, value, error", RANGE_TABLE, ids=[f"{column}={value!r}" for column, value, _ in RANGE_TABLE]
    )
    def test_rule_and_message(self, column, value, error):
        record = make_record(2001, production=1e5, exports=1e5)
        history, capital = [PhysicalYear(1996, 1e5, 1e5)], 500.0
        if column == "pre-history taxes_paid":
            history = [PhysicalYear(1996, 1e5, 1e5, taxes_paid=value)]
        elif column == "capital_paid_first_year":
            capital = value
        elif column == "production":  # exports 0, so no draw-down warning; no history, so no baseline rule
            record, history = record._replace(production=value, exports=0.0), []
        elif column == "exports":
            record, history = record._replace(exports=value), []
        else:
            record = record._replace(**{MineYearRecord._fields[MINE_COLUMNS.index(column)]: value})
        mine = make_mine(mine_id="m", capital_paid_first_year=capital, records=[record], physical_history=history)
        errors = [tuple(found) for found in validate_dataset([mine], make_market()).errors]
        assert errors == ([] if error is None else [error])
