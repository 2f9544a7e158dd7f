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
    MineDataset,
    ParseError,
    PhysicalYear,
    SchemaError,
    ValidationIssue,
    load_market_series,
    load_mine_dataset,
    validate_dataset,
    write_mine_dataset,
)
from minerent.data_model import MARKET_COLUMNS, MINE_COLUMNS, NO_HISTORY_WARNING, MineYearRecord

from conftest import MARKET_FILE, MINES_DIR, make_market, make_mine, make_record
from oracle import load_mine_brute

HEADER = (
    "year,revenue,operating_cost,admin_sales_expense,pretax_result,dep_amort,"
    "capital_paid_increase,taxes_paid,fixed_asset_additions,net_loan_payments,"
    "production_t,exports_t"
)
META = [
    "mine_id=demo",
    "opening_year=1995",
    "capital_paid_first_year=500.0",
    "escondida_tax_rule=false",
]
# 1995 in Arabic-Indic digits, which int() and float() read as 1995.
ARABIC_INDIC_1995 = "\u0661\u0669\u0669\u0665"


def full_row(year, value=100.0, production=150000.0, exports=None):
    exports = production if exports is None else exports
    return (
        f"{year},{value},40.0,4.0,50.0,10.0,0.0,8.0,12.0,5.0,{production},{exports}"
    )


def write_mine_file(path, rows, meta=META):
    path.write_text("\n".join(meta + [HEADER] + rows) + "\n", encoding="utf-8")


class TestLoadMineDataset:
    def test_well_formed_eleven_rows(self, tmp_path):
        path = tmp_path / "demo.csv"
        write_mine_file(path, [full_row(y) for y in range(2001, 2012)])
        mine = load_mine_dataset(path)
        assert len(mine.records) == 11
        assert mine.first_reported_year == 2001
        assert [r.year for r in mine.records] == list(range(2001, 2012))
        assert all(not r.reconstructed for r in mine.records)

    def test_duplicate_year_names_line(self, tmp_path):
        path = tmp_path / "demo.csv"
        rows = [full_row(2004), full_row(2005), full_row(2005)]
        write_mine_file(path, rows)
        with pytest.raises(SchemaError) as excinfo:
            load_mine_dataset(path)
        assert "duplicate year 2005" in str(excinfo.value)
        assert excinfo.value.line == len(META) + 1 + 3

    def test_empty_records_section_warns(self, tmp_path, corpus_market):
        path = tmp_path / "demo.csv"
        write_mine_file(path, [])
        mine = load_mine_dataset(path)
        assert mine.records == () and mine.physical_history == ()
        assert mine.first_reported_year is None
        assert mine.mean_production() == 0.0
        assert NO_HISTORY_WARNING in [w.message for w in validate_dataset([mine], corpus_market).warnings]

    def test_blank_exports_defaults_to_production(self, tmp_path):
        path = tmp_path / "demo.csv"
        write_mine_file(path, [f"2001,100.0,40.0,4.0,50.0,10.0,0.0,8.0,12.0,5.0,150000,"])
        mine = load_mine_dataset(path)
        assert mine.records[0].exports == mine.records[0].production == 150000.0

    def test_physical_rows_parsed(self, tmp_path):
        path = tmp_path / "demo.csv"
        rows = ["1996,,,,,,,,,,120000,115000", "1997,,,,,,,5.5,,,130000,", full_row(2001)]
        write_mine_file(path, rows)
        mine = load_mine_dataset(path)
        assert len(mine.physical_history) == 2
        first, second = mine.physical_history
        assert (first.year, first.production, first.exports, first.taxes_paid) == (1996, 120000.0, 115000.0, None)
        assert (second.year, second.exports, second.taxes_paid) == (1997, 130000.0, 5.5)

    def test_mixed_blank_financials_rejected(self, tmp_path):
        path = tmp_path / "demo.csv"
        write_mine_file(path, ["2001,100.0,,4.0,50.0,10.0,0.0,8.0,12.0,5.0,150000,150000"])
        with pytest.raises(ParseError):
            load_mine_dataset(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "demo.csv"
        write_mine_file(path, [full_row(2001), full_row(2002).replace("40.0", "forty")])
        with pytest.raises(ParseError) as excinfo:
            load_mine_dataset(path)
        assert excinfo.value.line == len(META) + 1 + 2

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "demo.csv"
        write_mine_file(path, ["2001,1.0,2.0"])
        with pytest.raises(ParseError) as excinfo:
            load_mine_dataset(path)
        assert "columns" in str(excinfo.value)

    def test_missing_metadata_key(self, tmp_path):
        path = tmp_path / "demo.csv"
        write_mine_file(path, [full_row(2001)], meta=["mine_id=demo", "opening_year=1995"])
        with pytest.raises(SchemaError) as excinfo:
            load_mine_dataset(path)
        assert "capital_paid_first_year" in str(excinfo.value)

    def test_unknown_metadata_key(self, tmp_path):
        path = tmp_path / "demo.csv"
        write_mine_file(path, [full_row(2001)], meta=META + ["bogus=1"])
        with pytest.raises(SchemaError):
            load_mine_dataset(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("opening_year=1997.5", "opening_year must be an integer, got '1997.5'"),
            ("capital_paid_first_year=abc", "capital_paid_first_year must be a number, got 'abc'"),
            ("escondida_tax_rule=yes", "escondida_tax_rule must be 'true' or 'false', got 'yes'"),
            # int() and float() take these; a number in an input file is ASCII without "_".
            ("opening_year=1_995", "opening_year must be an integer, got '1_995'"),
            (f"opening_year={ARABIC_INDIC_1995}", f"opening_year must be an integer, got '{ARABIC_INDIC_1995}'"),
            ("capital_paid_first_year=8_50.0", "capital_paid_first_year must be a number, got '8_50.0'"),
            # Past the float range: refused at once, never expanded into its 401 digits.
            ("opening_year=1e400", "opening_year must be an integer, got '1e400'"),
        ],
        ids=[
            "opening_year",
            "capital_paid_first_year",
            "escondida_tax_rule",
            "opening_year-underscore",
            "opening_year-arabic-indic",
            "capital_paid_first_year-underscore",
            "opening_year-past-float-range",
        ],
    )
    def test_bad_metadata_value_names_line_and_key(self, tmp_path, line, message):
        key = line.partition("=")[0]
        meta = [line if entry.startswith(key + "=") else entry for entry in META]
        path = tmp_path / "demo.csv"
        write_mine_file(path, [full_row(2001)], meta=meta)
        with pytest.raises(SchemaError) as excinfo:
            load_mine_dataset(path)
        lineno = meta.index(line) + 1
        assert excinfo.value.line == lineno
        assert str(excinfo.value) == f"{path}:{lineno}: {message}"

    @pytest.mark.parametrize("text", ["1_995", ARABIC_INDIC_1995, "8_50.0"])
    @pytest.mark.parametrize("column", ["year", "revenue", "production_t"])
    def test_number_outside_the_ascii_grammar_names_line(self, tmp_path, column, text):
        path = tmp_path / "demo.csv"
        cells = full_row(2001).split(",")
        cells[MINE_COLUMNS.index(column)] = text
        write_mine_file(path, [",".join(cells)])
        with pytest.raises(ParseError) as excinfo:
            load_mine_dataset(path)
        assert str(excinfo.value) == f"{path}:6: non-numeric value {text!r} in column {column}"

    def test_rows_sorted_after_load(self, tmp_path):
        path = tmp_path / "demo.csv"
        write_mine_file(path, [full_row(2005), full_row(2001), full_row(2003)])
        mine = load_mine_dataset(path)
        assert [r.year for r in mine.records] == [2001, 2003, 2005]

    # str.splitlines also breaks a line at each of these; a line number counts "\n" only.
    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_newline_ends_a_line(self, tmp_path, char):
        path = tmp_path / "demo.csv"
        # Trailing on a metadata line, the character is stripped, so the two-column row is line 7.
        write_mine_file(path, [full_row(2001), "2002,1.0"], meta=[META[0] + char] + META[1:])
        with pytest.raises(ParseError) as excinfo:
            load_mine_dataset(path)
        assert str(excinfo.value) == f"{path}:7: expected 12 columns, got 2"
        # Inside a cell, it leaves the row's 12 columns whole and the cell not a number.
        cell = f"150{char}000.0"
        write_mine_file(path, [full_row(2001, production=cell)])
        with pytest.raises(ParseError) as excinfo:
            load_mine_dataset(path)
        assert str(excinfo.value) == f"{path}:6: non-numeric value {cell!r} in column production_t"

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "demo.csv"
        write_mine_file(path, [full_row(2001), full_row(2002)])
        path.write_bytes(path.read_bytes().replace(b"2002,", b"2002\xc3,"))
        with pytest.raises(ParseError) as excinfo:
            load_mine_dataset(path)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 7)
        assert str(excinfo.value).endswith(":7: not UTF-8 text: byte 0xc3 (invalid continuation byte)")

    @pytest.mark.parametrize(
        "mine_id", ["../escaped", "sub/dir", "back\\slash", "a,b", ".", "..", "tab\tinside", "nul\x00", "del\x7f", "c1\x9f"]
    )
    def test_mine_id_that_is_no_file_name_part_names_line(self, tmp_path, mine_id):
        path = tmp_path / "demo.csv"
        write_mine_file(path, [full_row(2001)], meta=["opening_year=1995", f"mine_id={mine_id}"] + META[2:])
        with pytest.raises(SchemaError) as excinfo:
            load_mine_dataset(path)
        assert excinfo.value.line == 2
        assert str(excinfo.value) == (
            f"{path}:2: mine_id {mine_id!r} must not be '.' or '..' nor contain '/', '\\', ',' or a control character"
        )

    @pytest.mark.parametrize("meta", [["mine_id="] + META[1:], ["opening_year=1995", "mine_id= "] + META[2:]])
    def test_empty_mine_id_names_its_line(self, tmp_path, meta):
        path = tmp_path / "demo.csv"
        write_mine_file(path, [full_row(2001)], meta=meta)
        with pytest.raises(SchemaError) as excinfo:
            load_mine_dataset(path)
        lineno = next(at for at, entry in enumerate(meta, start=1) if entry.startswith("mine_id="))
        assert str(excinfo.value) == f"{path}:{lineno}: mine_id must be non-empty"

    @pytest.mark.parametrize("mine_id", ["alpha", "alpha-0000", "a..b", ".hidden", "Mina Escondida", "ñandú_2"])
    def test_file_name_safe_mine_id_loads(self, tmp_path, mine_id):
        path = tmp_path / "demo.csv"
        write_mine_file(path, [full_row(2001)], meta=[f"mine_id={mine_id}"] + META[1:])
        assert load_mine_dataset(path).mine_id == mine_id


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

    def test_order_insensitive_loading(self, tmp_path):
        rows = [full_row(y) for y in range(2001, 2008)] + ["1996,,,,,,,,,,120000,"]
        straight = tmp_path / "a.csv"
        shuffled = tmp_path / "b.csv"
        write_mine_file(straight, rows)
        mixed = rows[:]
        random.Random(3).shuffle(mixed)
        write_mine_file(shuffled, mixed)
        market = make_market()
        a, b = load_mine_dataset(straight), load_mine_dataset(shuffled)
        assert a == b
        assert validate_dataset([a], market) == validate_dataset([b], market)


class TestMarketSeries:
    def test_load_corpus_market(self):
        market = load_market_series(MARKET_FILE)
        assert market.fund_rate == 0.0507
        assert market.entries[0].year == 1984 and market.entries[-1].year == 2012
        assert [ent.copper_price for ent in market.entries if ent.year == 2006] == [6730.0]

    def test_duplicate_year_rejected(self, tmp_path):
        path = tmp_path / "market.csv"
        path.write_text(
            "year,copper_price_usd_per_t,gdp_usd_m,exploration_pct_gdp\n"
            "2001,1580,50000,0.003\n2001,1600,51000,0.003\n"
        )
        with pytest.raises(SchemaError):
            load_market_series(path)

    @pytest.mark.parametrize("text", ["1_995", ARABIC_INDIC_1995, "8_50.0"])
    @pytest.mark.parametrize("column", ["fund_rate", "year", "gdp_usd_m"])
    def test_number_outside_the_ascii_grammar_names_line(self, tmp_path, column, text):
        row = dict(zip(MARKET_COLUMNS, ["2001", "1580", "50000", "0.003"]), fund_rate="0.05")
        row[column] = text
        path = tmp_path / "market.csv"
        path.write_text(
            f"fund_rate={row.pop('fund_rate')}\n{','.join(MARKET_COLUMNS)}\n{','.join(row.values())}\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            load_market_series(path)
        lineno = 1 if column == "fund_rate" else 3
        assert str(excinfo.value) == f"{path}:{lineno}: non-numeric value {text!r} in column {column}"

    def test_duplicate_fund_rate_names_line(self, tmp_path):
        path = tmp_path / "market.csv"
        path.write_text(
            "fund_rate=0.05\nfund_rate=0.9\n"
            "year,copper_price_usd_per_t,gdp_usd_m,exploration_pct_gdp\n2001,1580,50000,0.003\n"
        )
        with pytest.raises(SchemaError) as excinfo:
            load_market_series(path)
        assert str(excinfo.value) == f"{path}:2: duplicate metadata key 'fund_rate'"


class TestValidateDataset:
    def test_clean_dataset_empty_report(self, corpus_mines, corpus_market):
        for mine in corpus_mines:
            report = validate_dataset([mine], corpus_market)
            assert report.errors == ()

    def test_negative_production_flagged(self, corpus_market):
        mine = make_mine(records=[make_record(2001, production=-5.0, exports=0.0)])
        report = validate_dataset([mine], corpus_market)
        assert len(report.errors) == 1
        assert report.errors[0].rule == "production-nonnegative"

    @pytest.mark.parametrize(
        "production, exports, rules",
        [
            (1e12, 1e12, []),
            (1e12, 1.0000000000000002e12, ["tonnage-range"]),
            (1.7e308, 1.7e308, ["tonnage-range"]),
            (-1e12, 0.0, ["production-nonnegative"]),
            (1e6, -2e12, ["tonnage-range"]),
            (1.0, 0.0, []),
            (0.5, 0.0, ["tonnage-range"]),
            (1e6, -0.5, ["tonnage-range"]),
            (float("nan"), 1.0, ["tonnage-range"]),
        ],
    )
    def test_tonnage_bound(self, corpus_market, production, exports, rules):
        mine = make_mine(records=[make_record(2001, production=production, exports=exports)])
        assert [issue.rule for issue in validate_dataset([mine], corpus_market).errors] == rules

    @pytest.mark.parametrize(
        "value, issues",
        [
            (0.0, [("m", "capital-paid-positive")]),
            (1e-6, []),
            (1e12, []),
            (-1e-6, [("m", "capital-paid-positive"), ("market:1990", "gdp-nonnegative")]),
            (-1e12, [("m", "capital-paid-positive"), ("market:1990", "gdp-nonnegative")]),
            *[
                (value, [("m", "money-range"), ("m:1996", "money-range"), ("m:2001", "money-range"),
                         ("market:1990", "money-range")])
                for value in (5e-7, -5e-7, 1.0000000000000002e12, float("nan"), float("-inf"))
            ],
        ],
    )
    def test_money_bound(self, value, issues):
        # The same value as capital, a record's field, a pre-history tax and a year's GDP.
        mine = make_mine(
            mine_id="m",
            capital_paid_first_year=value,
            records=[make_record(2001, fixed_asset_additions=value)],
            physical_history=[PhysicalYear(1996, 1e5, 1e5, taxes_paid=value)],
        )
        market = make_market(gdp=lambda year: value if year == 1990 else 5e4)
        assert [(issue.locator, issue.rule) for issue in validate_dataset([mine], market).errors] == issues

    @pytest.mark.parametrize(
        "price, fund_rate, opening_year, rules",
        [
            (5e-324, -0.9999999999999999, 1884, []),
            (1e9, 1.0, 2012, []),
            (0.0, 0.0507, 1995, ["price-range"]),
            (1.0000000000000002e9, 0.0507, 1995, ["price-range"]),
            (float("nan"), 0.0507, 1995, ["price-range"]),
            (2000.0, -1.0, 1995, ["fund-rate-range"]),
            (2000.0, 1.0000000000000002, 1995, ["fund-rate-range"]),
            (2000.0, float("nan"), 1995, ["fund-rate-range"]),
            (2000.0, 0.0507, 1883, ["opening-year-range"]),
            (2000.0, 0.0507, 2013, ["opening-year-range"]),
            (2000.0, 0.0507, -2112, ["opening-year-range"]),
        ],
    )
    def test_price_fund_rate_and_opening_year_bounds(self, price, fund_rate, opening_year, rules):
        mine = make_mine(opening_year=opening_year)  # no records, so no first-reported-after-opening
        market = make_market(price=lambda year: price if year == 1990 else 2000.0, fund_rate=fund_rate)
        assert [issue.rule for issue in validate_dataset([mine], market).errors] == rules

    @pytest.mark.parametrize(
        "opening_year, years",
        [(1995, []), (1996, []), (1997, [1996]), (1999, [1996, 1997, 1998]), (2001, [1996, 1997, 1998])],
    )
    def test_history_after_opening(self, corpus_market, opening_year, years):
        # One error per pre-history year before the opening, as first-reported-after-opening is for reported years.
        mine = make_mine(
            mine_id="m",
            opening_year=opening_year,
            records=[make_record(2001)],
            physical_history=[PhysicalYear(year, 1e5, 1e5) for year in (1996, 1997, 1998)],
        )
        message = "pre-history year {} precedes opening_year {}".format
        assert validate_dataset([mine], corpus_market).errors == tuple(
            ValidationIssue(f"m:{year}", "history-after-opening", message(year, opening_year)) for year in years
        )

    def test_pre_history_lies_before_the_first_reported_year(self, corpus_market):
        # One error per pre-history row on or after the first reported year, not only the first such row.
        mine = make_mine(
            mine_id="m",
            records=[make_record(year) for year in (2001, 2002, 2004)],
            physical_history=[PhysicalYear(year, 1e5, 1e5) for year in (2000, 2001, 2003, 2007)],
        )
        errors = validate_dataset([mine], corpus_market).errors
        assert [(issue.locator, issue.rule) for issue in errors] == [
            ("m", "duplicate-year"),
            ("m:2001", "history-before-reports"),
            ("m:2003", "history-before-reports"),
            ("m:2007", "history-before-reports"),
        ]
        assert errors[-1].message == "pre-history year 2007 is not before first reported year 2001"

    def test_pre_history_years_lie_in_the_market(self):
        # One error per pre-history row the market has no row for, in every mine.
        history = lambda *years: [PhysicalYear(year, 1e5, 1e5) for year in years]
        mines = [
            make_mine(mine_id="a", records=[make_record(2001)], physical_history=history(1996, 1997, 1998)),
            make_mine(mine_id="b", records=[make_record(2001)], physical_history=history(1997, 1998)),
            make_mine(mine_id="c", records=[make_record(2001)], physical_history=history(1998, 1999, 2000)),
        ]
        message = "market series has no row for pre-history year {}".format
        assert validate_dataset(mines, make_market(years=range(1998, 2013))).errors == (
            ValidationIssue("a:1996", "market-coverage", message(1996)),
            ValidationIssue("a:1997", "market-coverage", message(1997)),
            ValidationIssue("b:1997", "market-coverage", message(1997)),
        )

    def test_pre_history_needs_a_producing_baseline_year(self, corpus_market):
        # One error per mine with pre-history and no reported 2001-2005 year of production > 0 to average over.
        history = [PhysicalYear(1996, 1e5, 1e5)]
        idle = [make_record(year, production=0.0) for year in range(2001, 2006)]
        mines = [
            make_mine(mine_id="late", records=[make_record(2006)], physical_history=history),
            make_mine(mine_id="idle", records=[*idle, make_record(2006)], physical_history=history),
            make_mine(mine_id="bare", physical_history=history),
            make_mine(mine_id="ok", records=[*idle[:4], make_record(2005)], physical_history=history),
        ]
        message = "pre-history needs a reported year 2001-2005 with production > 0 to backfill from"
        assert validate_dataset(mines, corpus_market).errors == tuple(
            ValidationIssue(mine_id, "baseline-window", message) for mine_id in ("bare", "idle", "late")
        )

    def test_mine_without_pre_history_needs_no_baseline(self, corpus_market):
        mines = [
            make_mine(mine_id="late", records=[make_record(2006)]),
            make_mine(mine_id="idle", records=[make_record(year, production=0.0) for year in range(2001, 2006)]),
        ]
        assert validate_dataset(mines, corpus_market).errors == ()

    def test_duplicate_mine_id_is_one_error_per_id(self, corpus_market):
        mines = [make_mine(mine_id=mine_id, records=[make_record(2001)]) for mine_id in "abacba"]
        assert validate_dataset(mines, corpus_market).errors == (
            ValidationIssue("a", "duplicate-mine-id", "3 mines share this mine_id"),
            ValidationIssue("b", "duplicate-mine-id", "2 mines share this mine_id"),
        )

    def test_market_gap_flagged(self):
        entries = tuple(
            MarketYear(y, 2000.0, 50000.0, 0.003) for y in range(1990, 2005) if y != 1997
        )
        market = MarketSeries(entries=entries)
        mine = make_mine(records=[make_record(2001)])
        report = validate_dataset([mine], market)
        gaps = [e for e in report.errors if e.rule == "market-contiguous"]
        assert len(gaps) == 1
        assert "non-contiguous market coverage" in gaps[0].message
        assert "1997" in gaps[0].message

    def test_market_year_given_twice_is_one_error(self):
        # Unrefused, reconstruction read the last 1990 entry and the imputation counted the first one twice.
        market = make_market(years=[*range(1984, 2013), 1990])
        mine = make_mine(mine_id="m", records=[make_record(2001)])
        assert validate_dataset([mine], market).errors == (
            ValidationIssue("market", "duplicate-year", "duplicate years: [1990]"),
        )

    def test_market_checked_once_for_many_mines(self):
        market = MarketSeries(entries=(MarketYear(2001, -1.0, 50000.0, 0.003),))
        mines = [make_mine(mine_id=f"m{i}", records=[make_record(2001)]) for i in range(3)]
        assert [issue.locator for issue in validate_dataset(mines, market).errors] == ["market:2001"]

    def test_exports_draw_down_is_warning(self, corpus_market):
        mine = make_mine(records=[make_record(2001, production=100.0, exports=120.0)])
        report = validate_dataset([mine], corpus_market)
        assert not report.errors
        assert any(w.rule == "exports-exceed-production" for w in report.warnings)
        # 10% over production is still within tolerance
        mine = make_mine(records=[make_record(2001, production=100.0, exports=110.0)])
        assert not validate_dataset([mine], corpus_market).warnings

    def test_year_window(self, corpus_market):
        mine = make_mine(records=[make_record(1983)], opening_year=1980)
        report = validate_dataset([mine], corpus_market)
        assert any(e.rule == "year-window" for e in report.errors)

    def test_nonfinite_money_flagged(self, corpus_market):
        mine = make_mine(records=[make_record(2001, revenue=float("nan"))])
        report = validate_dataset([mine], corpus_market)
        assert any(e.rule == "money-range" for e in report.errors)

    def test_capital_paid_must_be_positive(self, corpus_market):
        mine = make_mine(records=[make_record(2001)], capital_paid_first_year=0.0)
        report = validate_dataset([mine], corpus_market)
        assert any(e.rule == "capital-paid-positive" for e in report.errors)

    def test_no_history_warning(self, corpus_market):
        mine = make_mine(records=())
        report = validate_dataset([mine], corpus_market)
        assert any(w.rule == "no-history" for w in report.warnings)

    # The loader can produce neither case below, and make_mine sorts, so these datasets are built by hand.
    def test_year_in_records_and_physical_history_flagged(self, corpus_market):
        mine = MineDataset(
            mine_id="twice",
            opening_year=1995,
            capital_paid_first_year=500.0,
            records=(make_record(2001), make_record(2002)),
            physical_history=(PhysicalYear(2001, 100_000.0, 100_000.0),),
        )
        report = validate_dataset([mine], corpus_market)
        assert [(e.rule, e.message) for e in report.errors] == [
            ("duplicate-year", "duplicate years: [2001]"),
            ("history-before-reports", "pre-history year 2001 is not before first reported year 2001"),
        ]

    def test_unsorted_records_flagged(self, corpus_market):
        mine = MineDataset(
            mine_id="shuffled",
            opening_year=1995,
            capital_paid_first_year=500.0,
            records=(make_record(2002), make_record(2001)),
        )
        report = validate_dataset([mine], corpus_market)
        assert [e.rule for e in report.errors] == ["records-sorted"]


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
    @settings(max_examples=300, deadline=None)
    def test_mutated_rows_load_or_fail_alike(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "alpha.csv"
            path.write_text(text, encoding="utf-8")
            outcomes = []
            for load in (load_mine_dataset, load_mine_brute):
                try:
                    outcomes.append(("loaded", repr(load(path))))  # repr: a nan cell equals itself
                except (ParseError, SchemaError) as exc:
                    outcomes.append((type(exc).__name__, str(exc)))
            assert outcomes[0] == outcomes[1]

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
    money = "values must be 0 or between 1e-06 and 1e+12 M USD in magnitude, got {}={}"
    tonnage = "values must be 0 or between 1 and 1e+12 t in magnitude, got {}={}"
    table = []
    for value, inside in boundary_values(1e-6, 1e12):
        for column in MINE_COLUMNS[1:10]:
            table.append((column, value, None if inside else ("m:2001", "money-range", money.format(column, value))))
        error = None if inside else ("m:1996", "money-range", money.format("taxes_paid", value))
        table.append(("pre-history taxes_paid", value, error))
        column = "capital_paid_first_year"
        error = ("m", "money-range", money.format(column, value)) if not inside else None
        if inside and value <= 0:
            error = ("m", "capital-paid-positive", f"{column} must be > 0, got {value}")
        table.append((column, value, error))
    for value, inside in boundary_values(1.0, 1e12):
        for column in ("production", "exports"):
            error = ("m:2001", "tonnage-range", tonnage.format(column, value)) if not inside else None
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
