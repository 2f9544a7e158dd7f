"""Fuzzed input files through ``main()``: a clean exit code and clean stderr, whatever the text.

Each strategy starts from a valid file and mutates a few of its lines:
arbitrary text (digits included), a key or field set to an odd number, a
line deleted or repeated. A mine or scenario file may instead be a valid
file with one byte from 0x80-0xFF spliced in, which is never UTF-8 there.
Whatever the result, a command must return 0, 1 or 2, raise nothing (a
warning counts as raising), and write only ``error:`` and ``warning:``
lines to stderr; a scenario that fails gives exactly one ``error:`` line,
and one that succeeds writes the same rows into both outcome files. A
scenario strategy also writes only in-bound values, so that many runs
succeed and reach that check. A mine or market run that succeeds must
write only finite numbers into the reconstructed mine files, the RVP files
and both summaries, and no run may write beside its output directory. A mine whose id could leave that directory or break the summary
CSV (a ``/``, ``\\``, ``,`` or control character, or ``.`` or ``..``) must
fail with exactly one ``error:`` line, exit code 1.

Integers written into lines range up to 10**18 in size. A scenario runs
only with ``horizon`` and ``replications`` at or below 10**4 (and their
product at or below 2 * 10**5), which keeps each example fast, or with a
product above ``MAX_SIMULATED_PERIODS``, which ``load_scenario`` must
reject before the engine allocates anything; the sampled numbers include
such over-bound values.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import tempfile
import warnings
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from minerent.cli import main
from minerent.data_model import MINE_COLUMNS
from minerent.scenario import MAX_SIMULATED_PERIODS

from conftest import MARKET_FILE, MINES_DIR, read_outcome_rows, set_cells

SCENARIO = """\
announced_rate=0.06
quantity_t_per_year=10000
initial_price=2000
drift=0.01
volatility=0.2
horizon=40
seed=7
replications=25
tax_per_year=2
[bidders]
bidder_id,i0,cost_of_capital
slim,90,0.12
heavy,140,0.12
[tax_schedule]
period,tax
3,1.5
"""
PRICE_PATH_SCENARIO = """\
announced_rate=0.05
quantity_t_per_year=10000
vpi=30
[price_path]
period,price_usd_per_t
1,1000
2,1000
3,1500
"""
MINE = (MINES_DIR / "alpha.csv").read_text()
MARKET = MARKET_FILE.read_text()

SIZE_CAP = 10**18
RUN_CAP = 10**4
CELL_CAP = 2 * 10**5
FUZZ = settings(max_examples=150)

numbers = st.one_of(
    st.floats().map(repr),
    st.integers(-SIZE_CAP, SIZE_CAP).map(str),
    st.sampled_from(["", "-0", "-1", "0.5", "1e308", "-1e308", "5e-324", "nan", "inf", "1_0", " 7 ", "0x10"]),
    # Over the scenario bound on their own, as a horizon or as a replication count.
    st.sampled_from(["1e12", str(MAX_SIMULATED_PERIODS + 1)]),
)
words = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
cells = st.one_of(numbers, words)


@st.composite
def mutated(draw, valid: str) -> str:
    lines = valid.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1)) if lines else 0
        kind = draw(st.sampled_from(["text", "value", "cell", "delete", "repeat"]))
        if not lines:
            lines.append(draw(words))
        elif kind == "text":
            lines[at] = draw(words)
        elif kind == "value":
            lines[at] = f"{lines[at].partition('=')[0]}={draw(numbers)}"
        elif kind == "cell":
            fields = lines[at].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(cells)
            lines[at] = ",".join(fields)
        elif kind == "delete":
            del lines[at]
        else:
            lines.insert(at, lines[at])
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


# Values each scenario key accepts; the ranges keep most auctions feasible and every run small.
IN_BOUNDS = {
    "announced_rate": st.floats(0.0, 0.3),
    "quantity_t_per_year": st.floats(5e3, 1e5),
    "vpi": st.floats(1e-3, 1e3),
    "initial_price": st.floats(1e3, 1e4),
    "drift": st.floats(-0.05, 0.1),
    "volatility": st.floats(0.0, 1.0),
    "horizon": st.integers(1, 200),
    "seed": st.integers(0, 2**63),
    "replications": st.integers(1, 50),
    "tax_per_year": st.floats(0.0, 10.0),
}


@st.composite
def in_bounds(draw, valid: str) -> str:
    """``valid`` with one to three of its ``key=value`` lines set to an accepted value."""
    lines = valid.splitlines()
    keyed = [at for at, line in enumerate(lines) if line.partition("=")[0] in IN_BOUNDS]
    for at in draw(st.lists(st.sampled_from(keyed), min_size=1, max_size=3)):
        key = lines[at].partition("=")[0]
        lines[at] = f"{key}={draw(IN_BOUNDS[key])!r}"
    return "\n".join(lines) + "\n"


@st.composite
def undecodable(draw, valid: str) -> bytes:
    """``valid`` (ASCII) encoded, with one byte from 0x80-0xFF spliced in anywhere."""
    data = valid.encode("utf-8")
    at = draw(st.integers(0, len(data)))
    return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]


def as_bytes(text: str | bytes) -> bytes:
    return text if isinstance(text, bytes) else text.encode("utf-8")


def _scalar(text: str, key: str, default: float) -> float:
    match = re.search(rf"^\s*{key}\s*=(.*)$", text, re.MULTILINE)
    try:
        return float(match.group(1)) if match else default
    except ValueError:
        return default


def _small(text: str) -> bool:
    horizon, replications = _scalar(text, "horizon", 1), _scalar(text, "replications", 1)
    if horizon * replications > MAX_SIMULATED_PERIODS:
        return True  # rejected by load_scenario
    return abs(horizon) <= RUN_CAP and abs(replications) <= RUN_CAP and abs(horizon * replications) <= CELL_CAP


def run_cli(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one in-process run; any warning raises."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        warnings.simplefilter("error")
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (code, lines)
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), lines
    if code == 0:
        assert not any(line.startswith("error: ") for line in lines), lines
    else:
        assert any(line.startswith("error: ") for line in lines), lines
    return code, lines


def numbers_written(out: Path) -> list[float]:
    """Every number in the reconstructed mine files, the RVP files and both summaries under ``out``."""
    found: list[float] = []
    for path in out.glob("*_reconstructed.csv"):
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines.index(",".join(MINE_COLUMNS))
        found += [float(line.partition("=")[2]) for line in lines[:header] if line.startswith("capital_paid_first_year=")]
        found += [float(cell) for line in lines[header + 1:] for cell in line.split(",") if cell]
    for path in out.glob("*_rvp_*.csv"):  # year,rvp
        found += [float(cell) for line in path.read_text(encoding="utf-8").splitlines()[1:] for cell in line.split(",")]
    table = out / "summary_cuadro1.csv"
    if table.exists():  # mine_id, then numbers, with "-" for an absent momento x
        lines = table.read_text(encoding="utf-8").splitlines()[1:]
        found += [float(cell) for line in lines for cell in line.split(",")[1:] if cell != "-"]
    summary = out / "summary_cuadro1.json"
    if summary.exists():
        # The parser hands over each number's text, NaN and Infinity included.
        collect = lambda text: found.append(float(text))
        json.loads(summary.read_text(encoding="utf-8"), parse_int=collect, parse_float=collect, parse_constant=collect)
    return found


def outcome_files_agree(out: Path) -> None:
    """Each CSV float cell is the ``repr`` of a float, and the outcome JSON ends as the CSV's last row."""
    table = (out / "concession_outcome.csv").read_text(encoding="utf-8").splitlines()[1:]
    outcome = json.loads((out / "concession_outcome.json").read_text(encoding="utf-8"))
    rows = read_outcome_rows(out)
    assert len(rows) == len(table) > 0
    for line, row in zip(table, rows):
        cells = [str(row["period"])]
        cells += [repr(row[key]) for key in ("price", "gross_revenue", "voluntary_tax", "counted_revenue", "accrued_pv")]
        assert line.split(",") == cells + [row["status"]], (line, row)
    last = rows[-1]
    assert outcome["status"] == last["status"]
    assert outcome["duration"] == (last["period"] if last["status"] == "expired" else None)


def run_pipeline(command: str, mines: Path, market: Path, out: Path) -> tuple[int, list[str]]:
    code, lines = run_cli([command, "--mines", str(mines), "--market", str(market), "--out", str(out)])
    assert {path.name for path in out.parent.iterdir()} <= {mines.name, market.name, out.name}
    if code == 0:
        written = numbers_written(out)
        assert written and all(math.isfinite(value) for value in written), [v for v in written if not math.isfinite(v)]
    return code, lines


@FUZZ
@given(
    text=st.one_of(
        mutated(SCENARIO),
        mutated(PRICE_PATH_SCENARIO),
        st.text(max_size=200),
        st.sampled_from([SCENARIO, PRICE_PATH_SCENARIO]).flatmap(in_bounds),
        st.sampled_from([SCENARIO, PRICE_PATH_SCENARIO]).flatmap(undecodable),
    ),
    command=st.sampled_from(["auction", "simulate-concession"]),
)
@example(text=SCENARIO.replace("horizon=40", "horizon=1e12"), command="auction")
@example(text=SCENARIO.replace("replications=25", f"replications={MAX_SIMULATED_PERIODS + 1}"), command="simulate-concession")
@example(text=SCENARIO.replace("replications=25", "replications=1e308"), command="simulate-concession")
def test_scenario_slot(text, command):
    assume(isinstance(text, bytes) or _small(text))
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.txt"
        scenario.write_bytes(as_bytes(text))
        code, lines = run_cli([command, "--scenario", str(scenario), "--out", str(Path(tmp) / "out")])
        if code == 0 and command == "simulate-concession":
            outcome_files_agree(Path(tmp) / "out")
    if code:
        assert sum(line.startswith("error: ") for line in lines) == 1, lines


@FUZZ
@given(
    text=st.one_of(mutated(MINE), st.text(max_size=200), undecodable(MINE)),
    command=st.sampled_from(["analyze", "reconstruct"]),
)
@example(text=MINE.replace("1997,,,,,,,,,,360000.0,", "1997,,,,,,,,,,nan,"), command="reconstruct")
@example(text=set_cells(MINE, "fixed_asset_additions", "1.5e308", (2001, 2002)), command="reconstruct")
@example(text=set_cells(MINE, "fixed_asset_additions", "1.7e308", range(2006, 2013)), command="analyze")
def test_mine_slot(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        mines = Path(tmp) / "mines"
        shutil.copytree(MINES_DIR, mines)
        (mines / "alpha.csv").write_bytes(as_bytes(text))
        run_pipeline(command, mines, MARKET_FILE, Path(tmp) / "out")


# Ids the loader rejects, each holding "/", "../", "\\", "," or NUL between two free parts, or "." or "..".
id_parts = st.text(st.characters(whitelist_categories=("L", "N"), whitelist_characters=".-_ "), max_size=6)
rejected_ids = st.one_of(
    st.sampled_from([".", ".."]),
    st.tuples(id_parts, st.sampled_from(["/", "../", "\\", ",", "\x00"]), id_parts).map("".join),
)


@FUZZ
@given(mine_id=rejected_ids, command=st.sampled_from(["analyze", "reconstruct"]))
@example(mine_id="../escaped", command="analyze")
def test_mine_slot_rejected_id(mine_id, command):
    with tempfile.TemporaryDirectory() as tmp:
        mines = Path(tmp) / "mines"
        shutil.copytree(MINES_DIR, mines)
        (mines / "alpha.csv").write_text(MINE.replace("mine_id=alpha\n", f"mine_id={mine_id}\n"), encoding="utf-8")
        code, lines = run_pipeline(command, mines, MARKET_FILE, Path(tmp) / "out")
    assert code == 1, lines
    assert lines == [
        f"error: {mines / 'alpha.csv'}:1: mine_id {mine_id.strip()!r} must not be '.' or '..' "
        "nor contain '/', '\\', ',' or a control character"
    ]


@FUZZ
@given(text=st.one_of(mutated(MARKET), st.text(max_size=200)), command=st.sampled_from(["analyze", "reconstruct"]))
def test_market_slot(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        market = Path(tmp) / "market.csv"
        market.write_text(text, encoding="utf-8")
        run_pipeline(command, MINES_DIR, market, Path(tmp) / "out")
