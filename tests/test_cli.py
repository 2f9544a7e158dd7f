"""End-to-end CLI runs: artifacts, exit codes, and determinism."""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import pytest

import minerent.cli
import minerent.data_model
import minerent.scenario
from minerent import PricePathParams, Rate, equilibrium_bid, generate_price_path, run_auction
from minerent.cli import main
from minerent.concession_sim import AuctionError
from minerent.data_model import MINE_COLUMNS, DataFileError, ValidationIssue, ValidationReport, load_market_series
from minerent.reconstruction import InvalidDatasetError
from minerent.rent_analysis import summary_rows
from minerent.scenario import load_scenario

from conftest import DATA_DIR, MARKET_FILE, MINES_DIR, read_outcome_rows, set_cells, stepped_run

CONSTANT_SCENARIO = """\
# constant-revenue concession: 10 million per year against a 30 million target
announced_rate=0.0
quantity_t_per_year=10000
vpi=30
initial_price=1000
horizon=10
"""

AUCTION_SCENARIO = """\
announced_rate=0.06
quantity_t_per_year=10000
initial_price=2000
horizon=25
[bidders]
bidder_id,i0,cost_of_capital
slim,90,0.12
heavy,140,0.12
"""

ALPHA = (MINES_DIR / "alpha.csv").read_text()

# alpha.csv from its opening_year line through the year cell of its first row.
ALPHA_HEAD = "opening_year=1995\ncapital_paid_first_year=850.0\nescondida_tax_rule=false\n" + ",".join(MINE_COLUMNS) + "\n1996,"

# Number texts that int() and float() read but an input file refuses: a digit separator, 1995 in Arabic-Indic digits.
OFF_GRAMMAR_NUMBERS = ["1_995", "\u0661\u0669\u0669\u0665", "8_50.0"]

MONTE_CARLO_SCENARIO = """\
announced_rate=0.05
quantity_t_per_year=10000
vpi=120
initial_price=2000
drift=0.01
volatility=0.25
horizon=60
seed=42
replications=100
"""

# The forecast peaks at 1000 * 1e305 / 1e6, but seed 3's second price exceeds 1797.7: its revenue overflows a float.
REVENUE_OVERFLOW_SCENARIO = """\
announced_rate=0.05
quantity_t_per_year=1e305
vpi=1e308
initial_price=1000
volatility=0.5
horizon=10
seed=3
"""

# 'far' repays its 1e200 near period 660; the -0.9 accrual of its bid overflows near period 308.
BID_OVERFLOW_SCENARIO = (
    AUCTION_SCENARIO.replace("announced_rate=0.06", "announced_rate=-0.9").replace("horizon=25", "horizon=1000")
    + "far,1e200,-0.5\n"
)


def read_artifacts(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def copy_mines(tmp_path):
    mines = tmp_path / "mines"
    shutil.copytree(MINES_DIR, mines)
    return mines


def copy_mines_without_prehistory(tmp_path):
    """The shipped mines with every pre-history row (blank financial columns) dropped."""
    mines = tmp_path / "mines"
    mines.mkdir()
    for path in sorted(MINES_DIR.glob("*.csv")):
        lines = [line for line in path.read_text().splitlines() if not line[:4].isdigit() or line.split(",")[1]]
        (mines / path.name).write_text("\n".join(lines) + "\n")
    return mines


def scaled_mines(directory, count):
    """``count`` copies of the shipped mines, each under a new id with every number scaled by a seeded factor."""
    directory.mkdir()
    templates = sorted(MINES_DIR.glob("*.csv"))
    rng = random.Random(0)
    for i in range(count):
        template = templates[i % len(templates)]
        mine_id, scale = f"{template.stem}-{i:04d}", rng.uniform(0.5, 2.0)
        lines = template.read_text().splitlines()
        header = lines.index(",".join(MINE_COLUMNS))
        text = [f"mine_id={mine_id}"] + [line for line in lines[:header] if not line.startswith("mine_id=")]
        text.append(lines[header])
        for line in lines[header + 1:]:
            year, *cells = line.split(",")
            text.append(",".join([year] + [cell and repr(float(cell) * scale) for cell in cells]))
        (directory / f"{mine_id}.csv").write_text("\n".join(text) + "\n")
    return directory


def joined_summary_table(report):
    """The summary table as the writer before streaming made it: every line joined into one string."""
    labels = report.rate_labels
    columns = ["mine_id"]
    columns += [f"momento_x_{label}" for label in labels]
    columns += [f"rent_pv_at_t0_{label}" for label in labels]
    columns += [f"rent_at_{report.valuation_year}_{label}" for label in labels]
    fmt = lambda value: "-" if value is None else str(value)
    lines = [",".join(columns)]
    lines.extend(",".join(fmt(row[column]) for column in columns) for row in summary_rows(report))
    return "\n".join(lines) + "\n"


def _rows(name, years):
    """The rows of the shipped ``name`` (a mine file or ``market.csv``) for ``years``, each with its newline."""
    path = MARKET_FILE if name == "market.csv" else MINES_DIR / name
    return "".join(line for line in path.read_text().splitlines(True) if line[:4].isdigit() and int(line[:4]) in years)


def _set(name, columns, value, years):
    """The edit of a shipped mine file that sets ``columns`` to ``value`` in its consecutive rows of ``years``."""
    old = new = _rows(name, years)
    for column in columns:
        new = set_cells(new, column, value, years)
    return name, old, new


def _refusal(ident, edits, *lines):
    return pytest.param(edits, lines, id=ident)


_TONNAGE = "[tonnage-range] values must be 0 or between 1 and 1e+12 t in magnitude, got"
_MONEY = "[money-range] values must be 0 or between 1e-06 and 1e+12 M USD in magnitude, got"
_BASELINE = "[baseline-window] pre-history needs a reported year 2001-2005 with production > 0 to backfill from"
_BLANKED = "[history-before-reports] pre-history year {} is not before first reported year 2001"
_MINE_ID = "must not be '.' or '..' nor contain '/', '\\', ',', '\"' or a control character"

# Refusals of a mine or market file, the same under analyze and reconstruct: (edits, stderr lines). An edit
# (file, old, new) replaces the first `old` in a copy of the shipped file (an absent file reads as ""); a
# surrogate such as "\udcff" writes that byte. "{alpha}" or "{market}" in a line is that file's path.
INPUT_REFUSALS = [
    _refusal(
        "duplicate-mine-id",
        [("zeta.csv", "", ALPHA)],
        "error: alpha: [duplicate-mine-id] 2 mines share this mine_id",
    ),
    # Different mines under one id: unchecked, the library gave both rows the second mine's numbers.
    _refusal(
        "duplicate-mine-ids",
        [("beta.csv", "mine_id=beta\n", "mine_id=alpha\n"), ("zeta.csv", "", (MINES_DIR / "gamma.csv").read_text())],
        "error: alpha: [duplicate-mine-id] 2 mines share this mine_id",
        "error: gamma: [duplicate-mine-id] 2 mines share this mine_id",
    ),
    _refusal(
        "market-empty",
        [("market.csv", _rows("market.csv", range(1984, 2013)), "")]
        + [(name, _rows(name, range(1996, 2001)), "") for name in ("alpha.csv", "beta.csv")],
        "error: market: [market-empty] market series has no entries",
    ),
    # A mine produces nothing before it opens. Unchecked, analyze refused it in a line naming
    # neither the mine nor its file, and reconstruct wrote rows from before the opening.
    *(
        _refusal(
            f"history-after-opening-{opening}",
            [("alpha.csv", "opening_year=1995\n", f"opening_year={opening}\n")],
            *(
                f"error: alpha:{year}: [history-after-opening] pre-history year {year} precedes opening_year {opening}"
                for year in years
            ),
        )
        for opening, years in [(1997, [1996]), (1999, [1996, 1997, 1998])]
    ),
    # Unchecked, alpha reached momento x in 2004, before it opened.
    _refusal(
        "first-reported-after-opening",
        [("alpha.csv", _rows("alpha.csv", range(1996, 2001)), ""), ("alpha.csv", "=1995\n", "=2005\n")],
        "error: alpha: [first-reported-after-opening] first_reported_year 2001 precedes opening_year 2005",
    ),
    # Alpha reports no year in 2001-2005 and beta produces nothing in them, so neither can be backfilled.
    _refusal(
        "baseline-window",
        [
            ("alpha.csv", ",310000.0,297600.0", ",310000.0,400000.0"),
            ("alpha.csv", _rows("alpha.csv", range(2001, 2006)), ""),
            _set("beta.csv", ("production_t", "exports_t"), "0.0", range(2001, 2006)),
        ],
        "warning: alpha:1996: exports exceed production by more than 10% (possible inventory draw-down)",
        f"error: alpha: {_BASELINE}",
        f"error: beta: {_BASELINE}",
    ),
    # A reported row whose financials are blanked reads as pre-history after the first reported year.
    _refusal(
        "blanked-reported-rows",
        [_set("alpha.csv", MINE_COLUMNS[1:10], "", [year]) for year in (2007, 2009)],
        f"error: alpha:2007: {_BLANKED.format(2007)}",
        f"error: alpha:2009: {_BLANKED.format(2009)}",
    ),
    # Market rows 1984-1998 deleted: alpha's pre-history starts in 1996, beta's in 1998.
    _refusal(
        "market-coverage",
        [("market.csv", _rows("market.csv", range(1984, 1999)), "")],
        *(
            f"error: {mine}:{year}: [market-coverage] market series has no row for pre-history year {year}"
            for mine, year in [("alpha", 1996), ("alpha", 1997), ("alpha", 1998), ("beta", 1998)]
        ),
    ),
    # The gap 2013..999999 is counted and shown as one range, not listed year by year.
    _refusal(
        "far-market-year",
        [("market.csv", "\n2012,", "\n1000000,7950.0,235637.23,0.0014\n2012,")],
        "error: market: [market-contiguous] non-contiguous market coverage: 997987 year(s) missing: 2013-999999",
    ),
    # analyze compared it with --valuation-year first: "valuation_year 2012 precedes last flow year 2013".
    _refusal(
        "year-window",
        [("alpha.csv", "\n2001,", "\n2013,")],
        "error: alpha:2013: [year-window] year 2013 outside [1984, 2012]",
    ),
    _refusal(
        "opening_year-fraction",
        [("alpha.csv", "opening_year=1995\n", "opening_year=1997.5\n")],
        "error: {alpha}:2: opening_year must be an integer, got '1997.5'",
    ),
    *(
        _refusal(
            f"{column}={text}",
            [(name, old, old.replace(number, text))],
            f"error: {{{name[:-4]}}}:{lineno}: {message.format(repr(text))}",
        )
        for name, lineno, old, number, column, message in [
            ("alpha.csv", 2, "opening_year=1995\n", "1995", "opening_year", "opening_year must be an integer, got {}"),
            ("alpha.csv", 3, "=850.0\n", "850.0", "capital", "capital_paid_first_year must be a number, got {}"),
            ("alpha.csv", 6, ",310000.0,", "310000.0", "production_t", "non-numeric value {} in column production_t"),
            ("market.csv", 1, "fund_rate=0.0507\n", "0.0507", "fund_rate", "non-numeric value {} in column fund_rate"),
            ("market.csv", 3, "\n1984,", "1984", "market-year", "non-numeric value {} in column year"),
        ]
        for text in OFF_GRAMMAR_NUMBERS
    ),
    *(
        _refusal(
            f"{column}={value}-{year}",
            [_set("alpha.csv", (column,), value, [year])],
            f"error: alpha:{year}: {_TONNAGE} {column[:-2]}={value}",
        )
        for year in (1997, 2003)  # a pre-history row, a reported row
        for column in ("production_t", "exports_t")
        for value in ("nan", "inf")
    ),
    *(
        _refusal(
            f"tonnage={value!r}",
            [_set("alpha.csv", ("production_t", "exports_t"), repr(value), years)],
            *(f"error: alpha:{year}: {_TONNAGE} production={value}, exports={value}" for year in years),
        )
        for value, years in [
            # Each 1.7e308 is finite, but their sum in the mine's mean production would not be.
            (1.7e308, range(2006, 2012)),
            # The baseline's operating cost over these would give a unit cost near 3e302 M USD/t, or inf.
            (1e-300, [2001]),
            (5e-324, [2001]),
        ]
    ),
    # The id is part of output file names, so "../escaped" would put escaped_* beside --out; a leading '"' would
    # open a quoted cell of summary_cuadro1.csv that runs to the end of the file.
    *(
        _refusal(
            f"mine_id={mine_id!r}",
            [("alpha.csv", "mine_id=alpha\n", f"mine_id={mine_id}\n")],
            f"error: {{alpha}}:1: mine_id {mine_id!r} {_MINE_ID}",
        )
        for mine_id in ["../escaped", "sub/dir", "a,b", '"alpha', "..", "bell\x07"]
    ),
    *(
        _refusal(
            f"undecodable-{name}",
            [(name, old, old[:-2] + "\udcff" + old[-2:])],
            f"error: {{{name[:-4]}}}:7: not UTF-8 text: byte 0xff (invalid start byte)",
        )
        for name, old in [("alpha.csv", "\n1997,"), ("market.csv", "\n1988,")]
    ),
    # Unchecked, a file of metadata alone read as a mine with no rows, with a no-history warning only.
    _refusal("no-header", [("alpha.csv", ALPHA[ALPHA.index("year,") :], "")], "error: {alpha}: missing header row"),
    # Unchecked, this line was refused as "unknown metadata key 'stray'".
    _refusal(
        "stray-line",
        [("alpha.csv", "escondida_tax_rule=false\n", "escondida_tax_rule=false\nstray\n")],
        "error: {alpha}:5: expected metadata line or header row",
    ),
    # Unchecked, a blank production_t ended in a TypeError traceback.
    _refusal(
        "blank-production",
        [("alpha.csv", ",450000.0,436500.0", ",,436500.0")],
        "error: {alpha}:11: production_t is required",
    ),
    # 1e308 is finite, but price * production would overflow in alpha's pre-history year.
    _refusal(
        "huge-price",
        [("market.csv", "1997,2280.0,69310.31,", "1997,1e308,70000.0,")],
        "error: market:1997: [price-range] copper price must lie in (0, 1e+09] USD/t, got 1e+308",
    ),
    *(
        _refusal(
            f"fixed_asset_additions={value}",
            [_set("alpha.csv", ("fixed_asset_additions",), value, years)],
            *(f"error: alpha:{year}: {_MONEY} fixed_asset_additions={float(value)}" for year in years),
        )
        for value, years in [
            # Each 1.5e308 is finite, but their sum in the 2001-2005 mean would not be.
            ("1.5e308", [2001, 2002]),
            # Each 1.7e308 is finite; discounted and summed they would reach -inf.
            ("1.7e308", range(2006, 2012)),
        ]
    ),
    # Each would overflow a discount or compounding factor.
    _refusal(
        "opening-year-range",
        [("alpha.csv", "opening_year=1995\n", "opening_year=-2112\n")],
        "error: alpha: [opening-year-range] opening_year -2112 outside [1884, 2012]",
    ),
    _refusal(
        "fund-rate-range",
        [("market.csv", "fund_rate=0.0507\n", "fund_rate=1e300\n")],
        "error: market: [fund-rate-range] fund_rate must lie in (-1, 1], got 1e+300",
    ),
    _refusal(
        "negative-gdp",
        [("market.csv", "1992,2280.0,46094.5,", "1992,2280.0,-46094.5,")],
        "error: market:1992: [gdp-nonnegative] gdp must be >= 0, got -46094.5",
    ),
    # Unchecked, a negative exploration spend entered the imputation and analyze wrote its tables.
    _refusal(
        "exploration-pct-range",
        [("market.csv", "1985,1420.0,26040.0,0.001\n", "1985,1420.0,26040.0,-0.5\n")],
        "error: market:1985: [exploration-pct-range] exploration share of GDP must lie in [0, 1), got -0.5",
    ),
]


@pytest.mark.parametrize("command", ["analyze", "reconstruct"])
class TestLoadAndValidate:
    def run(self, command, mines, tmp_path):
        return main([command, "--mines", str(mines), "--market", str(MARKET_FILE), "--out", str(tmp_path / "out")])

    def test_validation_warnings_are_printed(self, tmp_path, capsys, command):
        mines = copy_mines(tmp_path)
        alpha = mines / "alpha.csv"
        alpha.write_text(alpha.read_text().replace("1996,,,,,,,,,,310000.0,297600.0", "1996,,,,,,,,,,310000.0,400000.0"))
        assert self.run(command, mines, tmp_path) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: alpha:1996: exports exceed production by more than 10% (possible inventory draw-down)"
        ]

    def test_market_rows_are_checked_once_per_run(self, tmp_path, monkeypatch, command):
        # One validation pass per run: each market row is range-checked once, not once more per mine.
        checked, check_range = [], minerent.data_model._check_range

        def counted(err, locator, rule, fields):
            checked.append(locator)
            return check_range(err, locator, rule, fields)

        monkeypatch.setattr(minerent.data_model, "_check_range", counted)
        assert self.run(command, MINES_DIR, tmp_path) == 0
        rows = Counter(f"market:{ent.year}" for ent in load_market_series(MARKET_FILE).entries)
        assert Counter(locator for locator in checked if locator.startswith("market")) == rows

    @pytest.mark.parametrize(
        "kind, old, new, error",
        [
            ("mine", "opening_year=1995\n", "opening_year=1995.0\n", None),
            ("mine", "opening_year=1995\n", "opening_year=1.995e3\n", None),
            ("mine", "\n2001,", "\n2001.0,", None),
            ("market", "\n1990,", "\n1990.0,", None),
            # Past the float range it is refused at once: read exactly, it would be a million-digit integer.
            ("mine", "\n2001,", "\n1e999999,", "11: non-numeric value '1e999999' in column year"),
            # The metadata block is checked before any row, so a bad year cell below does not hide it.
            (
                "mine",
                ALPHA_HEAD,
                ALPHA_HEAD.replace("=1995\n", "=1995.5\n").replace("\n1996,", "\n1996.5,"),
                "2: opening_year must be an integer, got '1995.5'",
            ),
        ],
        ids=[
            "opening_year",
            "opening_year-exponent",
            "mine-year",
            "market-year",
            "mine-year-past-float-range",
            "opening_year-before-mine-year",
        ],
    )
    def test_integer_field_is_read_exactly(self, tmp_path, capsys, command, kind, old, new, error):
        # Every integer field of every input file reads 2001, 2001.0 and 2.001e3 alike, never 2001.5.
        mines, market = copy_mines(tmp_path), tmp_path / "market.csv"
        shutil.copy(MARKET_FILE, market)
        out = tmp_path / "out"
        argv = [command, "--mines", str(mines), "--market", str(market), "--out", str(out)]
        assert main(argv) == 0
        written = read_artifacts(out)
        shutil.rmtree(out)
        path = mines / "alpha.csv" if kind == "mine" else market
        path.write_text(path.read_text().replace(old, new, 1))
        if error is None:
            assert main(argv) == 0
            assert read_artifacts(out) == written
        else:
            assert main(argv) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {path}:{error}"]
            assert not out.exists()

    @pytest.mark.parametrize("mine_id, code", [("a" * 200, 0), ("a" * 201, 1), ("\u00e9" * 101, 1)])
    def test_mine_id_length_is_counted_in_utf8_bytes(self, tmp_path, capsys, command, mine_id, code):
        # The id is part of output file names, which file systems cap at 255 bytes.
        mines = copy_mines(tmp_path)
        alpha = mines / "alpha.csv"
        alpha.write_text(alpha.read_text().replace("mine_id=alpha\n", f"mine_id={mine_id}\n"), encoding="utf-8")
        assert self.run(command, mines, tmp_path) == code
        err = capsys.readouterr().err.splitlines()
        if code:
            size = len(mine_id.encode("utf-8"))
            assert err == [
                f"error: {alpha}:1: mine_id is {size} bytes in UTF-8; at most 200 fit in an output file name"
            ]
            assert not (tmp_path / "out").exists()
        else:
            assert err == [] and any(path.name.startswith(mine_id) for path in (tmp_path / "out").iterdir())

    @pytest.mark.parametrize("edits, lines", INPUT_REFUSALS)
    def test_input_refusal_is_its_error_lines(self, tmp_path, capsys, command, edits, lines):
        mines, market = copy_mines(tmp_path), tmp_path / "market.csv"
        shutil.copy(MARKET_FILE, market)
        for name, old, new in edits:
            path = market if name == "market.csv" else mines / name
            text = path.read_bytes().decode("utf-8", "surrogateescape") if path.exists() else ""
            assert old in text, (name, old)
            path.write_bytes(text.replace(old, new, 1).encode("utf-8", "surrogateescape"))
        argv = [command, "--mines", str(mines), "--market", str(market), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        paths = {"alpha": mines / "alpha.csv", "market": market}
        assert capsys.readouterr().err.splitlines() == [line.format_map(paths) for line in lines]
        # No --out, and nothing beside it.
        assert sorted(path.name for path in tmp_path.iterdir()) == ["market.csv", "mines"]


class TestAnalyze:
    def test_corpus_run_produces_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["analyze", "--mines", str(MINES_DIR), "--market", str(MARKET_FILE), "--out", str(out)]
        )
        assert code == 0
        names = {path.name for path in out.iterdir()}
        expected = {
            "summary_cuadro1.csv",
            "summary_cuadro1.json",
            "reconstruction_audit.log",
            "run_manifest.json",
        }
        for mine in ("alpha", "beta", "gamma"):
            for label in ("base", "conservative"):
                expected.add(f"{mine}_rvp_{label}.csv")
        assert names == expected

        lines = (out / "summary_cuadro1.csv").read_text().splitlines()
        assert len(lines) == 4  # header + three mines
        header = lines[0].split(",")
        assert header[0] == "mine_id"
        assert "momento_x_base" in header and "momento_x_conservative" in header

        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["seed"] is None
        assert set(manifest["parameters"]["rates"]) == {"base", "conservative"}

    def test_single_preset_column(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "analyze",
                "--mines", str(MINES_DIR),
                "--market", str(MARKET_FILE),
                "--rate", "base",
                "--out", str(out),
            ]
        )
        assert code == 0
        header = (out / "summary_cuadro1.csv").read_text().splitlines()[0]
        assert "conservative" not in header

    def test_custom_rate_quartet(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "analyze",
                "--mines", str(MINES_DIR),
                "--market", str(MARKET_FILE),
                "--rf", "0.1236", "--beta", "0", "--erp", "0", "--country", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        header = (out / "summary_cuadro1.csv").read_text().splitlines()[0]
        assert "momento_x_custom" in header

    def test_empty_mines_dir(self, tmp_path, capsys):
        empty = tmp_path / "mines"
        empty.mkdir()
        code = main(
            ["analyze", "--mines", str(empty), "--market", str(MARKET_FILE), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "no mine datasets found" in capsys.readouterr().err

    def test_missing_market_file_is_io_error(self, tmp_path):
        code = main(
            [
                "analyze",
                "--mines", str(MINES_DIR),
                "--market", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("mines", ["absent", "file.csv"])
    def test_missing_mines_dir_is_io_error(self, tmp_path, capsys, mines):
        (tmp_path / "file.csv").write_text("")
        code = main(
            ["analyze", "--mines", str(tmp_path / mines), "--market", str(MARKET_FILE), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path / mines) in err[0], err

    def test_invalid_mine_content_is_validation_error(self, tmp_path, capsys):
        mines = tmp_path / "mines"
        mines.mkdir()
        (mines / "bad.csv").write_text(
            "mine_id=bad\nopening_year=1995\ncapital_paid_first_year=100\n"
            "year,revenue,operating_cost,admin_sales_expense,pretax_result,dep_amort,"
            "capital_paid_increase,taxes_paid,fixed_asset_additions,net_loan_payments,"
            "production_t,exports_t\n"
            "2001,1.0,1.0,1.0,1.0,1.0,0.0,0.0,0.0,0.0,-5,\n"
        )
        code = main(
            ["analyze", "--mines", str(mines), "--market", str(MARKET_FILE), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "production-nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--valuation-year", "2113"], "valuation_year 2113 is after 2112"),
            (["--valuation-year", "2005"], "valuation_year 2005 precedes last flow year 2011"),
            (
                ["--rf", "2", "--beta", "0", "--erp", "0", "--country", "0"],
                "discount rate 'custom' must lie in [0, 1], got 2.0",
            ),
            # It would overflow a discount factor.
            (
                ["--rf", "1e300", "--beta", "0", "--erp", "0", "--country", "0"],
                "discount rate 'custom' must lie in [0, 1], got 1e+300",
            ),
            (["--rf", "0.1"], "custom rates need all of --rf, --beta, --erp, --country"),
            (["--rate", "base", "--rate", "base"], "duplicate rate labels: ['base', 'base']"),
        ],
    )
    def test_argument_error_comes_before_validation(self, tmp_path, capsys, flags, message):
        # The arguments are checked before the inputs are validated, so the data's warning is not printed.
        mines = copy_mines(tmp_path)
        alpha = mines / "alpha.csv"
        alpha.write_text(alpha.read_text().replace(",310000.0,297600.0", ",310000.0,400000.0"))
        out = tmp_path / "out"
        assert main(["analyze", "--mines", str(mines), "--market", str(MARKET_FILE), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["base", "conservative"])
    def test_valuation_year_before_last_flow_is_refused_at_every_rate(self, tmp_path, capsys, rate):
        # Gamma reaches momento x at the base rate but not at the conservative one; both are refused.
        mines = tmp_path / "mines"
        mines.mkdir()
        shutil.copy(MINES_DIR / "gamma.csv", mines)
        out = tmp_path / "out"
        argv = ["analyze", "--mines", str(mines), "--market", str(MARKET_FILE), "--rate", rate]
        assert main([*argv, "--valuation-year", "2000", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: valuation_year 2000 precedes last flow year 2011"]
        assert not out.exists()

    def test_summary_numbers_match_bruteforce_oracle(self, tmp_path, corpus_mines, corpus_market):
        from oracle import pipeline_brute, rel_close

        out = tmp_path / "out"
        assert (
            main(["analyze", "--mines", str(MINES_DIR), "--market", str(MARKET_FILE), "--out", str(out)])
            == 0
        )
        lines = (out / "summary_cuadro1.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = {line.split(",")[0]: dict(zip(header, line.split(","))) for line in lines[1:]}
        for label, rate in (("base", 0.069 + 0.91 * 0.03889 + 0.0173), ("conservative", 0.18788)):
            oracle = pipeline_brute(corpus_mines, corpus_market, rate, valuation_year=2012)
            for mine_id, expected in oracle.items():
                row = rows[mine_id]
                momento = row[f"momento_x_{label}"]
                assert momento == ("-" if expected["momento_x"] is None else str(expected["momento_x"]))
                assert rel_close(float(row[f"rent_pv_at_t0_{label}"]), expected["rent_pv"], rel=1e-9, abs_tol=1e-9)
                assert rel_close(float(row[f"rent_at_2012_{label}"]), expected["rent_forward"], rel=1e-9, abs_tol=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        for out in (first, second):
            assert (
                main(["analyze", "--mines", str(MINES_DIR), "--market", str(MARKET_FILE), "--out", str(out)])
                == 0
            )
        assert read_artifacts(first) == read_artifacts(second)

    def test_inputs_not_mutated(self, tmp_path):
        before = {path.name: path.read_bytes() for path in sorted(MINES_DIR.iterdir())}
        before["market"] = MARKET_FILE.read_bytes()
        assert (
            main(["analyze", "--mines", str(MINES_DIR), "--market", str(MARKET_FILE), "--out", str(tmp_path / "o")])
            == 0
        )
        after = {path.name: path.read_bytes() for path in sorted(MINES_DIR.iterdir())}
        after["market"] = MARKET_FILE.read_bytes()
        assert before == after


class TestReconstruct:
    def test_reconstructed_files_reload(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["reconstruct", "--mines", str(MINES_DIR), "--market", str(MARKET_FILE), "--out", str(out)]
        )
        assert code == 0
        from minerent import load_mine_dataset

        alpha = load_mine_dataset(out / "alpha_reconstructed.csv")
        assert alpha.physical_history == ()
        assert alpha.first_reported_year == 1996
        audit = (out / "reconstruction_audit.log").read_text().splitlines()
        # alpha 1996-2000 and beta 1998-2000: eight reconstructed years, 8 lines each
        assert len(audit) == 8 * 8
        assert any(line.startswith("alpha 1996 revenue") for line in audit)


# SHA-256 of every artifact of `analyze` (both presets) and `reconstruct` on the shipped corpus, and of
# `simulate-concession` and `auction` on the README scenario, run from tests/data with relative input paths so
# that the manifest does not depend on where the tree lives.
GOLDEN_DIGESTS = {
    "analyze": {
        "alpha_rvp_base.csv": "fb4a04deb81c8a8fead878377ccc591a8b7d369ea4bd64c3b204fbfb548881f3",
        "alpha_rvp_conservative.csv": "9dd13692550f0da92d326b095a3383f88646c5a02459ecb91f1c9b9ae46d3c41",
        "beta_rvp_base.csv": "bcf899e251f9eb9679e357c7af3abfa4d48052a82eb579535d068cf460f8fe1f",
        "beta_rvp_conservative.csv": "9cd14d00006246e9e2a2322e3bc9f35a50917635aaf6c36a546850c9a8e11088",
        "gamma_rvp_base.csv": "a569cda0b386c714a802a9597b99e52999a0d623c71710dd5fac09e41d35a1d6",
        "gamma_rvp_conservative.csv": "f3c86f362aa3aaf222e6e59dda09001648ff31fea9d0c1a76c8abfe28b0467ad",
        "reconstruction_audit.log": "f70190fd9b73392aaa1c030caaddace49c924eb5a8c6198c83c56616aa4527e1",
        "run_manifest.json": "e96fe5a21ea14f8e1d3bfd2b9265d31ae10b3f622d5397df4889e7c03632bb77",
        "summary_cuadro1.csv": "36c2d7a886ed7bf7848af951f4475c7aea2505b267002e90f3e0cc63108a084a",
        "summary_cuadro1.json": "0d322fe7aa2bbca2718fa4cd4fb08905bda4dcb2f85ff8969657a1744e38c726",
    },
    "reconstruct": {
        "alpha_reconstructed.csv": "d34af4017e07c7ad5c5b0c12375044127d742d6825cd87d66adc360c459751ba",
        "beta_reconstructed.csv": "10cf258aac91c88d3d41694576243941041507fd483d236958aa00a6227e1e1a",
        "gamma_reconstructed.csv": "d42adc6c2cd00423815c6d380c80036dd6c99400ee01f4cf0399ff2e7aa84137",
        "reconstruction_audit.log": "f70190fd9b73392aaa1c030caaddace49c924eb5a8c6198c83c56616aa4527e1",
        "run_manifest.json": "961c71b9c8211c14b88ce421cc4829f4614432c68ec97893b723799470bb2794",
    },
    "simulate-concession": {
        "concession_outcome.csv": "d3cf9c87c61401aed26578930c59649a96fa49918dbdd318e78e3c14db4540fa",
        "concession_outcome.json": "f996b165750ea997959b5b4a2355d8da2611ca1446b701fce06f4f2a246accea",
        "duration_histogram.csv": "30e4d86f753abb0374b16e2c2c53ba97934a6ea08ba9bd28e9afdc9d673c3e96",
        "run_manifest.json": "cfbb9e1488fd1fea5493802230c2fbb7ea594fa99a482e8b6f04031efcac82d6",
    },
    "auction": {
        "auction_result.csv": "b66dfe9db1889652d36dc67c7211443ec7b40f109c09a6036374ccee72cfec8d",
        "run_manifest.json": "b0e51f652b8e5370f4eb8b0d3142c2005c3dd2e27be6d3f7de4178fb9c14d502",
    },
}


@pytest.mark.parametrize("command", sorted(GOLDEN_DIGESTS))
def test_corpus_artifacts_match_golden_digests(tmp_path, monkeypatch, command):
    monkeypatch.chdir(DATA_DIR)
    out = tmp_path / "out"
    if command in ("simulate-concession", "auction"):
        inputs = ["--scenario", "scenario.txt"]
    else:
        inputs = ["--mines", "mines", "--market", "market.csv"]
    assert main([command, *inputs, "--out", str(out)]) == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in read_artifacts(out).items()}
    assert digests == GOLDEN_DIGESTS[command]


def test_readme_outcome_rebuilds_the_former_json_document(tmp_path, monkeypatch):
    # The outcome JSON once held the CSV's rows beside its five scalars: rebuilt from the two files, that
    # document has the SHA-256 it had when it was written whole.
    monkeypatch.chdir(DATA_DIR)
    out = tmp_path / "out"
    assert main(["simulate-concession", "--scenario", "scenario.txt", "--out", str(out)]) == 0
    document = json.loads((out / "concession_outcome.json").read_text()) | {"rows": read_outcome_rows(out)}
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "d93ed20d8a5261c370b91e1760d5e964d24201d32f87a5eac8f7ffe628e1ff33"


class TestStreamedWriters:
    """The summary and audit files are streamed; their bytes are those of the writers that joined them whole."""

    @pytest.mark.parametrize("prehistory", [True, False], ids=["shipped", "no-prehistory"])
    def test_analyze_files_match_joined_writers(self, tmp_path, monkeypatch, prehistory):
        runs, report_of = [], minerent.cli.sensitivity_report

        def recorded(*args, audit, **kwargs):
            runs.append((report_of(*args, audit=audit, **kwargs), audit))
            return runs[-1][0]

        monkeypatch.setattr(minerent.cli, "sensitivity_report", recorded)
        mines = copy_mines(tmp_path) if prehistory else copy_mines_without_prehistory(tmp_path)
        out = tmp_path / "out"
        assert main(["analyze", "--mines", str(mines), "--market", str(MARKET_FILE), "--out", str(out)]) == 0
        [(report, audit)] = runs
        assert bool(audit) == prehistory
        expected = {
            "summary_cuadro1.csv": joined_summary_table(report),
            "summary_cuadro1.json": json.dumps(summary_rows(report), sort_keys=True, indent=2) + "\n",
            "reconstruction_audit.log": "\n".join(audit) + ("\n" if audit else ""),
        }
        written = {name: (out / name).read_bytes().decode() for name in expected}
        assert written == expected

    @pytest.mark.parametrize("prehistory", [True, False], ids=["shipped", "no-prehistory"])
    def test_reconstruct_audit_matches_joined_writer(self, tmp_path, monkeypatch, prehistory):
        audits, reconstruct = [], minerent.cli.reconstruct_all

        def recorded(mines, market, audit):
            audits.append(audit)
            return reconstruct(mines, market, audit)

        monkeypatch.setattr(minerent.cli, "reconstruct_all", recorded)
        mines = copy_mines(tmp_path) if prehistory else copy_mines_without_prehistory(tmp_path)
        out = tmp_path / "out"
        assert main(["reconstruct", "--mines", str(mines), "--market", str(MARKET_FILE), "--out", str(out)]) == 0
        [audit] = audits
        assert bool(audit) == prehistory
        assert (out / "reconstruction_audit.log").read_bytes().decode() == "\n".join(audit) + ("\n" if audit else "")

    def test_documents_are_never_held_whole(self, tmp_path, monkeypatch):
        # The window opens where the first document, the summary table, is written. Its traced peak
        # above the level there, less one list of summary rows (the documents' data, built for the
        # table and again for the JSON), must stay below the size of the JSON summary: no writer
        # holds a whole document. A writer that joins its document first holds several times that.
        reports, window, report_of, table = [], [], minerent.cli.sensitivity_report, minerent.cli.write_summary_table

        def recorded(*args, **kwargs):
            reports.append(report_of(*args, **kwargs))
            return reports[-1]

        def opened(*args):
            tracemalloc.reset_peak()
            window.append(tracemalloc.get_traced_memory()[0])
            table(*args)

        monkeypatch.setattr(minerent.cli, "sensitivity_report", recorded)
        monkeypatch.setattr(minerent.cli, "write_summary_table", opened)
        # pathlib interns each file name; interning these first keeps a one-off growth of the
        # interpreter's table of interned strings out of the window.
        for name in (minerent.cli.SUMMARY_JSON_NAME, minerent.cli.AUDIT_LOG_NAME, minerent.cli.MANIFEST_NAME):
            sys.intern(name)
        mines = scaled_mines(tmp_path / "mines", 600)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(["analyze", "--mines", str(mines), "--market", str(MARKET_FILE), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
            before = tracemalloc.get_traced_memory()[0]
            rows = summary_rows(reports[0])
            rows_size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rows) == 600 and len(window) == 1
        document = (out / "summary_cuadro1.json").stat().st_size
        assert peak - window[0] - rows_size < document, (peak - window[0], rows_size, document)


def _price_path(rate, vpi, rows):
    """A scenario at 1e4 t a period whose ``[price_path]`` section holds ``rows``."""
    return f"announced_rate={rate}\nquantity_t_per_year=10000\nvpi={vpi}\n[price_path]\nperiod,price_usd_per_t\n{rows}"


def _without(*keys):
    """CONSTANT_SCENARIO without the ``key=value`` lines of ``keys``."""
    return "".join(line for line in CONSTANT_SCENARIO.splitlines(keepends=True) if line.partition("=")[0] not in keys)


# A section holding one row, with "{}" where a field's value goes.
_SECTION_ROWS = {
    "i0": "[bidders]\nbidder_id,i0,cost_of_capital\nslim,{},0.12\n",
    "cost_of_capital": "[bidders]\nbidder_id,i0,cost_of_capital\nslim,90,{}\n",
    "period": "[price_path]\nperiod,price_usd_per_t\n{},1000\n",
    "price_usd_per_t": "[price_path]\nperiod,price_usd_per_t\n1,{}\n",
    "tax": "[tax_schedule]\nperiod,tax\n1,{}\n",
}


def _field_refusal(field, value, message):
    """CONSTANT_SCENARIO with ``field`` set to ``value``, the line that holds it, and the refusal."""
    lines = CONSTANT_SCENARIO.splitlines(keepends=True)
    if field in _SECTION_ROWS:
        text = CONSTANT_SCENARIO + _SECTION_ROWS[field].format(value)
        lineno = len(lines) + 3
    else:
        lineno = next((i for i, line in enumerate(lines, 1) if line.startswith(f"{field}=")), len(lines) + 1)
        lines[lineno - 1 : lineno] = [f"{field}={value}\n"]
        text = "".join(lines)
    return pytest.param(text, lineno, message, id=f"{field}={value}")


# Every load_scenario refusal: a non-numeric, a non-finite, a non-integer (integer fields only) and an
# out-of-bound (bounded fields only) value for every field, then each refusal of the file's structure.
SCENARIO_REFUSALS = [
    _field_refusal(field, value, message)
    for field, cases in {
        "announced_rate": [
            ("abc", "non-numeric value 'abc' for announced_rate"),
            ("inf", "announced_rate must be finite, got inf"),
            ("-1", "announced_rate must be > -1, got -1.0"),
        ],
        "quantity_t_per_year": [
            ("abc", "non-numeric value 'abc' for quantity_t_per_year"),
            ("inf", "quantity_t_per_year must be finite, got inf"),
            ("-1", "quantity_t_per_year must be >= 0, got -1.0"),
            # 1000 * 1e306 overflows before the division by 1e6
            (
                "1e306",
                "quantity_t_per_year overflows the peak forecast revenue price * quantity_t_per_year / 1e6, got 1e+306",
            ),
        ],
        "vpi": [
            ("abc", "non-numeric value 'abc' for vpi"),
            ("nan", "vpi must be finite, got nan"),
            ("0", "vpi must be > 0, got 0.0"),
            *((text, f"non-numeric value {text!r} for vpi") for text in OFF_GRAMMAR_NUMBERS),
        ],
        "initial_price": [
            ("abc", "non-numeric value 'abc' for initial_price"),
            ("-inf", "initial_price must be finite, got -inf"),
            ("0", "initial_price must be > 0, got 0.0"),
        ],
        "drift": [
            ("abc", "non-numeric value 'abc' for drift"),
            ("inf", "drift must be finite, got inf"),
            # initial_price * exp(drift * 9): math.exp overflows, then the product does
            ("1000", "drift overflows the price forecast initial_price * exp(drift * (horizon - 1)), got 1000.0"),
            ("78.5", "drift overflows the price forecast initial_price * exp(drift * (horizon - 1)), got 78.5"),
        ],
        "volatility": [
            ("abc", "non-numeric value 'abc' for volatility"),
            ("nan", "volatility must be finite, got nan"),
            ("-0.5", "volatility must be >= 0, got -0.5"),
        ],
        "horizon": [
            ("abc", "non-numeric value 'abc' for horizon"),
            ("inf", "horizon must be finite, got inf"),
            ("2.5", "horizon must be an integer, got 2.5"),
            ("0", "horizon must be >= 1, got 0.0"),
            # Refused at once, as a float: exactly, it would be a 400-digit integer.
            ("1e400", "horizon must be finite, got inf"),
            ("1e12", "periods * replications must be <= 300000, got 1000000000000.0"),
            *((text, f"non-numeric value {text!r} for horizon") for text in OFF_GRAMMAR_NUMBERS),
        ],
        "seed": [
            ("abc", "non-numeric value 'abc' for seed"),
            ("nan", "seed must be finite, got nan"),
            ("0.5", "seed must be an integer, got 0.5"),
            ("-1", "seed must be >= 0, got -1.0"),
            ("1e1000000", "seed must be finite, got inf"),  # as a float: exactly, a million-digit integer
        ],
        "replications": [
            ("abc", "non-numeric value 'abc' for replications"),
            ("inf", "replications must be finite, got inf"),
            ("1.5", "replications must be an integer, got 1.5"),
            ("0", "replications must be >= 1, got 0.0"),
        ],
        "tax_per_year": [
            ("abc", "non-numeric value 'abc' for tax_per_year"),
            ("nan", "tax_per_year must be finite, got nan"),
        ],
        "i0": [
            ("abc", "non-numeric value 'abc' for i0"),
            ("inf", "i0 must be finite, got inf"),
            ("0", "i0 must be > 0, got 0.0"),
        ],
        "cost_of_capital": [
            ("abc", "non-numeric value 'abc' for cost_of_capital"),
            ("nan", "cost_of_capital must be finite, got nan"),
            ("-1", "cost_of_capital must be > -1, got -1.0"),
        ],
        "period": [
            ("abc", "non-numeric value 'abc' for period"),
            ("inf", "period must be finite, got inf"),
            ("1.5", "period must be an integer, got 1.5"),
            ("0", "period must be >= 1, got 0.0"),
        ],
        "price_usd_per_t": [
            ("abc", "non-numeric value 'abc' for price_usd_per_t"),
            ("nan", "price_usd_per_t must be finite, got nan"),
            ("-1", "price_usd_per_t must be >= 0, got -1.0"),
        ],
        "tax": [
            ("abc", "non-numeric value 'abc' for tax"),
            ("inf", "tax must be finite, got inf"),
        ],
    }.items()
    for value, message in cases
] + [
    pytest.param(*case, id=case[2]) for case in [
        (_without("announced_rate", "quantity_t_per_year"), None, "missing required key 'announced_rate'"),
        (_without("quantity_t_per_year"), None, "missing required key 'quantity_t_per_year'"),
        (CONSTANT_SCENARIO + "bogus=1\n", 7, "unknown key 'bogus'"),
        ("announced_rate=0.05\nbogus_key=1\n", 2, "unknown key 'bogus_key'"),  # before the missing keys
        (CONSTANT_SCENARIO + "i0=90\n", 7, "unknown key 'i0'"),  # a section column, not a key
        (CONSTANT_SCENARIO + "vpi=31\n", 7, "duplicate key 'vpi'"),
        (CONSTANT_SCENARIO + "vpi 31\n", 7, "expected key=value line"),
        (CONSTANT_SCENARIO + "[oops]\n", 7, "unknown section 'oops'"),
        (CONSTANT_SCENARIO + "[tax_schedule]\nperiod,value\n", 8, "section [tax_schedule] must start with header 'period,tax'"),
        (CONSTANT_SCENARIO + "[tax_schedule]\nperiod,tax\n1,2\n1,3\n", 10, "duplicate period 1"),
        (CONSTANT_SCENARIO + "[tax_schedule]\nperiod,tax\n2.5,1\n", 9, "period must be an integer, got 2.5"),
        *(
            (CONSTANT_SCENARIO + f"[bidders]\nbidder_id,i0,cost_of_capital\n{row}\n", 9, message)
            for row, message in [
                ("slim,90,0.12,7", "expected 3 columns, got 4"),
                ("slim,90", "expected 3 columns, got 2"),
                # Each row is checked at its own line, so a fault on a later line does not hide it.
                ("slim,-5,0.12\n[oops]", "i0 must be > 0, got -5.0"),
                # A leading '"' would open a quoted cell of auction_result.csv that runs to the end of the file.
                *(
                    (f"{key},90,0.12", f"bidder_id must be non-empty, printable and free of '\"', got {key!r}")
                    for key in ['"slim', 'sl"im']
                ),
            ]
        ),
        (
            CONSTANT_SCENARIO
            + "[tax_schedule]\nperiod,tax\n2,nan\n[price_path]\nperiod,price_usd_per_t\n1,1000\n1,1000\n",
            9,
            "tax must be finite, got nan",
        ),
        (
            CONSTANT_SCENARIO + "[bidders]\nbidder_id,i0,cost_of_capital\nslim,90,0.12\nslim,95,0.12\n",
            10,
            "duplicate bidder_id 'slim'",
        ),
        (_without("vpi"), None, "scenario needs either 'vpi' or a [bidders] section"),
        (_without("horizon"), None, "scenario needs either a [price_path] section or initial_price and horizon"),
        (_without("initial_price"), None, "scenario needs either a [price_path] section or initial_price and horizon"),
        # Listed period by period, 100,000 rows missing period 2 made a line of about 700 kB.
        (
            _price_path(
                0.05, 30, "".join(f"{t},1000\n" for t in range(1, 100_002) if t not in (2, 500, 501, 502, 9000))
            ),
            None,
            "price path periods must run 1..n: 5 period(s) missing: 2, 500-502, 9000",
        ),
    ]
]


def test_readme_field_table_matches_the_scenario_format():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = readme.index("| field | kind | bound | default |") + 2
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), readme[start:]):
        field, kind, bound, default = (cell.strip() for cell in line.strip("|").split("|"))
        rows[field.strip("`")] = kind, bound, default
    expected = {}
    for field, (kind, op, bound, default) in minerent.scenario._SCENARIO_FIELDS.items():
        sections = [f"`[{name}]`" for name, columns in minerent.scenario._SCENARIO_SECTIONS.items() if field in columns]
        if sections:
            default = f"{', '.join(sections)} column"
        else:
            default = {minerent.scenario._REQUIRED: "required", None: "unset"}.get(default, repr(default))
        bound = "" if bound == -math.inf else f"{op} {bound}"
        expected[field] = {int: "integer", float: "float"}[kind], bound, default
    assert rows == expected
    assert list(rows) == list(minerent.scenario._SCENARIO_FIELDS)


def test_readme_rule_table_names_every_validation_rule():
    # A rule id is the second argument of an err or warn call in data_model.py, or the third of a _check_range call.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = readme.index("| Value | Accepted | Rule |") + 2
    documented = set()
    for line in itertools.takewhile(lambda line: line.startswith("|"), readme[start:]):
        documented.update(re.findall(r"`([a-z-]+)`", line.strip("|").split("|")[-1]))
    emitted = set()
    tree = ast.parse(Path(minerent.data_model.__file__).read_text(encoding="utf-8"))
    for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        at = {"err": 1, "warn": 1, "_check_range": 2}.get(call.func.id)
        if at is not None and isinstance(call.args[at], ast.Constant):
            emitted.add(call.args[at].value)
    assert documented == emitted


ACTIVE_0 = "warning: replication 0: concession still active after {} periods: accrued {} of VPI target {}"
ACTIVE = "warning: {} of {} replications still active after {} periods"

# Each simulate-concession run: its scenario text, exit code, stderr lines ({scenario} is the file's path) and
# replication 0's duration (None when still active or refused).
SIMULATE_RUNS = {
    "constant": (CONSTANT_SCENARIO, 0, [], 3),
    "expires-at-period-1": (CONSTANT_SCENARIO.replace("vpi=30", "vpi=5"), 0, [], 1),
    "never-expires": (CONSTANT_SCENARIO.replace("vpi=30", "vpi=1000"), 0, [ACTIVE_0.format(10, 100.0, 1000.0)], None),
    "constant-tax": (CONSTANT_SCENARIO + "tax_per_year=4\n", 0, [], 5),  # counted 6 a period against 30
    "tax-schedule": (CONSTANT_SCENARIO + "[tax_schedule]\nperiod,tax\n2,1.5\n3,100\n", 0, [], 5),
    "auction-decides-vpi": (AUCTION_SCENARIO, 0, [], 7),
    "explicit-path": (_price_path(0.0, 30, "1,1000\n2,1000\n3,1500\n"), 0, [], 3),
    "price-path-with-zeros": (_price_path(0.05, 15, "1,0\n2,1000\n3,0\n4,0.0\n5,1500\n6,1e-300\n"), 0, [], 5),
    # (1 - 0.9) ** t underflows to 0.0 past t = 323; the zero revenue there adds 0.0, not 0 / 0.
    "zero-revenue-past-discount-underflow": (
        _price_path(-0.9, 30, "1,1.0\n" + "".join(f"{period},0\n" for period in range(2, 401))),
        0,
        [ACTIVE_0.format(400, 0.10000000000000002, 30.0)],
        None,
    ),
    # (1.06) ** t overflows a float past t = 12180; later periods add 0.0.
    "long-horizon-past-discount-overflow": (
        CONSTANT_SCENARIO.replace("announced_rate=0.0", "announced_rate=0.06")
        .replace("vpi=30", "vpi=1000")
        .replace("horizon=10", "horizon=20000"),
        0,
        [ACTIVE_0.format(20000, 166.66666666666637, 1000.0)],
        None,
    ),
    "monte-carlo-all-expire": (MONTE_CARLO_SCENARIO.replace("vpi=120", "vpi=30"), 0, [], 2),
    "monte-carlo-others-active": (MONTE_CARLO_SCENARIO, 0, [ACTIVE.format(7, 100, 60)], 10),
    "monte-carlo-replication-0-and-others-active": (
        MONTE_CARLO_SCENARIO.replace("vpi=120", "vpi=300"),
        0,
        [ACTIVE_0.format(60, 256.97617347857573, 300.0), ACTIVE.format(49, 100, 60)],
        None,
    ),
    "monte-carlo-tax-schedule": (
        "announced_rate=0.05\nquantity_t_per_year=10000\nvpi=200\ninitial_price=2000\nvolatility=0.3\n"
        "horizon=120\nseed=9\nreplications=60\n[tax_schedule]\nperiod,tax\n1,4\n2,4\n3,40\n",
        0,
        [ACTIVE.format(25, 60, 120)],
        40,
    ),
    # With a VPI of 1, period 1 stops the run before period 2; with 1e308, period 1 accrues 1e302 / 1.05 and the
    # run reaches period 2.
    "revenue-overflow-after-expiry": (REVENUE_OVERFLOW_SCENARIO.replace("vpi=1e308", "vpi=1"), 0, [], 1),
    "revenue-overflow": (
        REVENUE_OVERFLOW_SCENARIO, 1, ["error: {scenario}: gross revenue is not finite in run 0, period 2: inf"], None
    ),
    "revenue-overflow-in-replication-1": (  # replication 1 draws seed 3's path
        REVENUE_OVERFLOW_SCENARIO.replace("seed=3", "seed=2\nreplications=3"),
        1,
        ["error: {scenario}: gross revenue is not finite in run 1, period 2: inf"],
        None,
    ),
    # At -0.9 discounting multiplies revenue by 10 a period: 10 * 10**308 overflows.
    "accrued-pv-overflow": (
        CONSTANT_SCENARIO.replace("announced_rate=0.0", "announced_rate=-0.9")
        .replace("vpi=30", "vpi=1.7e308")
        .replace("horizon=10", "horizon=1000"),
        1,
        ["error: {scenario}: accrued PV overflows a float in run 0, period 308"],
        None,
    ),
    "bid-overflow": (BID_OVERFLOW_SCENARIO, 1, ["error: bidder 'far': bid overflows a float"], None),
}


class TestSimulateConcession:
    @pytest.mark.parametrize("text, code, err, duration", SIMULATE_RUNS.values(), ids=SIMULATE_RUNS)
    def test_run_is_the_step_loop(self, tmp_path, capsys, text, code, err, duration):
        # Every replication's path is rebuilt and run through the step loop: the outcome files are replication
        # 0's rows and json.dumps of its five scalars, and the histogram has every replication's duration.
        scenario, out = tmp_path / "scenario.txt", tmp_path / "out"
        scenario.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate-concession", "--scenario", str(scenario), "--out", str(out)]) == code
        assert capsys.readouterr().err.splitlines() == [line.format(scenario=scenario) for line in err]
        if code:
            assert not out.exists()
            return
        given = load_scenario(scenario)
        vpi, rate = given.vpi, Rate(given.announced_rate)
        if vpi is None:
            bids = {bidder.bidder_id: equilibrium_bid(bidder, rate) for bidder in given.auction_bidders()}
            _, vpi = run_auction(bids)
        if given.explicit_path is None:
            params = PricePathParams(given.initial_price, given.drift, given.volatility, given.horizon, given.seed)
            paths = [generate_price_path(params._replace(seed=given.seed + i)) for i in range(given.replications)]
        else:
            paths = [given.explicit_path] * given.replications
        runs = [stepped_run(vpi, path, given.quantity, rate.value, given.tax_policy()) for path in paths]
        first = runs[0]
        assert first.duration == duration
        lines = ["period,price,gross_revenue,voluntary_tax,counted_revenue,accrued_pv,status"]
        lines.extend(",".join((str(row.period), *map(repr, row[1:6]), row.status)) for row in first.rows)
        state = first.final_state
        document = {"vpi_target": vpi, "duration": first.duration, "status": state.status.value}
        document.update(accrued_pv=state.accrued_pv, warning=first.warning)
        expected = {
            "concession_outcome.csv": "\n".join(lines) + "\n",
            "concession_outcome.json": json.dumps(document, sort_keys=True, indent=2) + "\n",
        }
        if given.replications > 1:
            histogram = [f"{i},{'' if run.duration is None else run.duration}" for i, run in enumerate(runs)]
            expected["duration_histogram.csv"] = "\n".join(["replication,duration", *histogram]) + "\n"
        written = {path.name: path.read_text() for path in out.iterdir()}
        assert json.loads(written.pop("run_manifest.json"))["parameters"]["vpi"] == vpi
        assert written == expected

    def test_seeded_runs_byte_identical(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(MONTE_CARLO_SCENARIO)
        first, second = tmp_path / "one", tmp_path / "two"
        for out in (first, second):
            assert main(["simulate-concession", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert read_artifacts(first) == read_artifacts(second)

    def test_integer_fields_are_read_exactly(self, tmp_path, capsys):
        # Through float(), 2**53 + 1 became 2**53, so these two seeds drew the same price paths.
        outcomes = []
        for seed in (2**53, 2**53 + 1):
            scenario = tmp_path / f"scenario-{seed}.txt"
            scenario.write_text(MONTE_CARLO_SCENARIO.replace("seed=42", f"seed={seed}").replace("=100\n", "=3\n"))
            out = tmp_path / f"out-{seed}"
            assert main(["simulate-concession", "--scenario", str(scenario), "--out", str(out)]) == 0
            assert json.loads((out / "run_manifest.json").read_text())["seed"] == seed
            outcomes.append((out / "concession_outcome.csv").read_bytes())
        assert outcomes[0] != outcomes[1]
        scenario = tmp_path / "scenario.txt"
        for text, value in [("9007199254740993.0", 2**53 + 1), ("9.007199254740993e15", 2**53 + 1), ("1e3", 1000)]:
            scenario.write_text(CONSTANT_SCENARIO + f"seed={text}\n")
            assert load_scenario(scenario).seed == value
        scenario.write_text(CONSTANT_SCENARIO + "seed=9007199254740993.5\n")
        assert main(["simulate-concession", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
        lineno = len(CONSTANT_SCENARIO.splitlines()) + 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {scenario}:{lineno}: seed must be an integer, got 9007199254740993.5"
        ]

    @pytest.mark.parametrize("command", ["simulate-concession", "auction"])
    def test_undecodable_byte_is_one_error_line(self, tmp_path, capsys, command):
        scenario = tmp_path / "scenario.txt"
        scenario.write_bytes(AUCTION_SCENARIO.encode().replace(b"horizon=25", b"horizon=25 # \xe9t\xe9"))
        assert main([command, "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {scenario}:4: not UTF-8 text: byte 0xe9 (invalid continuation byte)"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, lineno, message", SCENARIO_REFUSALS)
    @pytest.mark.parametrize("command", ["simulate-concession", "auction"])
    def test_scenario_refusal_is_one_error_line(self, tmp_path, capsys, command, text, lineno, message):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(text, encoding="utf-8")
        assert main([command, "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
        where = f"{scenario}" if lineno is None else f"{scenario}:{lineno}"
        assert capsys.readouterr().err.splitlines() == [f"error: {where}: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, accrued",
        [
            pytest.param(MONTE_CARLO_SCENARIO, 99, id="seeded"),
            pytest.param(
                "announced_rate=0.0\nquantity_t_per_year=10000\nvpi=30\nreplications=5\n"
                "[price_path]\nperiod,price_usd_per_t\n1,1000\n2,1000\n3,1500\n4,1000\n",
                None,
                id="explicit-path",
            ),
            pytest.param(
                MONTE_CARLO_SCENARIO.replace("vpi=120", "vpi=10").replace("horizon=60", "horizon=1")
                .replace("replications=100", "replications=5"),
                None,
                id="one-period",  # a seeded path of one period draws no shock, so all repeat replication 0's
            ),
        ],
    )
    def test_replication_0_is_accrued_once(self, tmp_path, monkeypatch, text, accrued):
        # Replication 0 runs through simulate_concession alone; an explicit path is never accrued again.
        drawn, accrue = [], minerent.cli.accrue_concessions

        def recorded(vpi, paths, *args, **kwargs):
            drawn.append(list(paths))
            return accrue(vpi, drawn[-1], *args, **kwargs)

        monkeypatch.setattr(minerent.cli, "accrue_concessions", recorded)
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate-concession", "--scenario", str(scenario), "--out", str(out)]) == 0
        outcome = json.loads((out / "concession_outcome.json").read_text())
        histogram = (out / "duration_histogram.csv").read_text().splitlines()
        assert histogram[1] == f"0,{outcome['duration']}"
        if accrued is None:
            assert drawn == []
            duration = outcome["duration"]
            assert histogram == ["replication,duration"] + [f"{replication},{duration}" for replication in range(5)]
        else:
            [paths] = drawn
            assert len(paths) == accrued
            params = PricePathParams(2000.0, 0.01, 0.25, horizon=60, seed=43)
            assert paths[0].tolist() == generate_price_path(params).tolist()


class TestAuctionCommand:
    def test_result_table(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(AUCTION_SCENARIO)
        out = tmp_path / "out"
        code = main(["auction", "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        lines = (out / "auction_result.csv").read_text().splitlines()
        assert lines[0] == "bidder_id,bid,winner"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["slim"][2] == "true"
        assert rows["heavy"][2] == "false"
        assert float(rows["slim"][1]) < float(rows["heavy"][1])

    # Splitting lines at "\n" only keeps a "\r" inside its line; no such character, and no '"', reaches the result
    # table.
    @pytest.mark.parametrize("bidder_id", ["sl\rim", "nul\x00", "line\u2028break", "no\xa0break", '"slim', 'sl"im'])
    def test_unprintable_bidder_id_is_one_error_line(self, tmp_path, capsys, bidder_id):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(AUCTION_SCENARIO.replace("slim,", f"{bidder_id},"))
        assert main(["auction", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
        message = f"bidder_id must be non-empty, printable and free of '\"', got {bidder_id!r}"
        assert capsys.readouterr().err.splitlines() == [f"error: {scenario}:7: {message}"]
        assert not (tmp_path / "out").exists()

    def test_requires_bidders(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(CONSTANT_SCENARIO)
        code = main(["auction", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "bidders" in capsys.readouterr().err

    def test_no_feasible_bids(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            "announced_rate=0.06\nquantity_t_per_year=10\ninitial_price=100\nhorizon=3\n"
            "[bidders]\nbidder_id,i0,cost_of_capital\nbig,1000,0.2\n"
        )
        code = main(["auction", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "no feasible bids" in capsys.readouterr().err

    def test_discounting_overflow_is_one_error_line(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(BID_OVERFLOW_SCENARIO)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["auction", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: bidder 'far': bid overflows a float"]
        assert not (tmp_path / "out").exists()

    def test_long_horizon_past_discount_overflow(self, tmp_path):
        # (1.14) ** t overflows a float past t = 5400.
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(AUCTION_SCENARIO.replace("horizon=25", "horizon=10000") + "patient,120,0.14\n")
        out = tmp_path / "out"
        assert main(["auction", "--scenario", str(scenario), "--out", str(out)]) == 0
        lines = (out / "auction_result.csv").read_text().splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["slim"][2] == "true" and rows["patient"][1] != "no-bid"


@pytest.mark.parametrize(
    "argv", [["analyze", "--mines", "m", "--market", "f"], ["simulate-concession", "--scenario", "s"]], ids=lambda a: a[0]
)
def test_format_flag_is_a_usage_error(capsys, argv):
    # Each command writes one fixed set of files; there is no flag to select among them.
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--out", "o", "--format", "json"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: minerent") and err.endswith("error: unrecognized arguments: --format json\n")


def _invalid_dataset() -> InvalidDatasetError:
    exc = InvalidDatasetError("alpha: [capital-paid-positive] capital_paid_first_year must be > 0, got 0.0")
    exc.report = ValidationReport(
        errors=(ValidationIssue("alpha", "capital-paid-positive", "capital_paid_first_year must be > 0, got 0.0"),),
        warnings=(ValidationIssue("alpha:2005", "exports-exceed-production", "exports exceed production"),),
    )
    return exc


@pytest.mark.parametrize(
    "refusal, code, err",
    [
        (DataFileError("bad cell", "f.csv", 3), 1, ["error: f.csv:3: bad cell"]),
        (AuctionError("auction failed: no feasible bids"), 1, ["error: auction failed: no feasible bids"]),
        (ValueError("overflow"), 1, ["error: overflow"]),
        (OSError(28, "No space left on device"), 2, ["error: [Errno 28] No space left on device"]),
        (
            _invalid_dataset(),
            1,
            [
                "warning: alpha:2005: exports exceed production",
                "error: alpha: [capital-paid-positive] capital_paid_first_year must be > 0, got 0.0",
            ],
        ),
    ],
    ids=["DataFileError", "AuctionError", "ValueError", "OSError", "InvalidDatasetError"],
)
@pytest.mark.parametrize(
    "command, callee",
    [
        ("analyze", "write_summary_table"),  # write phase
        ("reconstruct", "reconstruct_all"),  # library
        ("simulate-concession", "load_scenario"),  # load phase
        ("auction", "_write_manifest"),  # write phase
    ],
)
def test_main_alone_maps_each_refusal_to_its_exit_code(
    tmp_path, capsys, monkeypatch, command, callee, refusal, code, err
):
    def refuse(*args, **kwargs):
        raise refusal

    monkeypatch.setattr(minerent.cli, callee, refuse)
    if command in ("analyze", "reconstruct"):
        inputs = ["--mines", str(MINES_DIR), "--market", str(MARKET_FILE)]
    else:
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(AUCTION_SCENARIO)
        inputs = ["--scenario", str(scenario)]
    assert main([command, *inputs, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.splitlines() == err


def test_only_main_handles_a_refusal():
    """Each command raises its refusals; ``main`` alone maps them to ``error:`` lines and exit codes.

    A bare ``except`` or one naming ``Exception`` would catch a refusal too.
    """
    refusals = {"DataFileError", "InvalidDatasetError", "AuctionError", "OSError"}
    catching = refusals | {"Exception", "BaseException", "except:"}
    tree = ast.parse(Path(minerent.cli.__file__).read_text(encoding="utf-8"))
    handled: dict[str, set[str]] = {}
    for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        for handler in (node for node in ast.walk(func) if isinstance(node, ast.ExceptHandler)):
            types = ast.walk(handler.type) if handler.type else [ast.Name("except:")]
            names = {node.id for node in types if isinstance(node, ast.Name)} & catching
            if names:
                handled.setdefault(func.name, set()).update(names)
    assert handled == {"main": refusals}


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


# numpy is needed by price paths only, decimal by an integer field written with a fraction or an
# exponent; the others cost start-up time and serve no command.
@pytest.mark.parametrize("module", ["numpy", "dataclasses", "logging", "statistics", "decimal"])
def test_cli_import_leaves_module_unloaded(module):
    result = _fresh_python(f"import minerent.cli, sys; assert {module!r} not in sys.modules, '{module} imported'")
    assert result.returncode == 0, result.stderr


def test_explicit_path_never_loads_numpy(tmp_path):
    # Only a seeded path is generated with numpy; an explicit one is accrued in plain floats.
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "announced_rate=0.05\nquantity_t_per_year=10000\nvpi=30\nreplications=3\n"
        "[price_path]\nperiod,price_usd_per_t\n1,1000\n2,1000\n3,1500\n4,1000\n"
    )
    code = (
        "import sys; from minerent.cli import main; code = main(sys.argv[1:]); "
        "assert 'numpy' not in sys.modules, 'numpy imported'; sys.exit(code)"
    )
    result = _fresh_python(code, "simulate-concession", "--scenario", str(scenario), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "duration_histogram.csv").read_text().splitlines()[1:] == ["0,3", "1,3", "2,3"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads through /proc")
def test_simulate_concession_runs_on_one_thread(tmp_path):
    # numpy's OpenBLAS would otherwise start a spinning worker per extra core.
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(CONSTANT_SCENARIO)
    code = (
        "import os, sys; from minerent.cli import main; code = main(sys.argv[1:]); "
        "assert 'numpy' in sys.modules; print(len(os.listdir('/proc/self/task'))); sys.exit(code)"
    )
    result = _fresh_python(code, "simulate-concession", "--scenario", str(scenario), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1"]
