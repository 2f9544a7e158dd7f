r'''Silence one statement at a time and report each mutant that Tier-1 does not notice.

Usage::

    python tests/mutation_sweep.py FILE... PATTERN

Each ``FILE`` is a module under ``src/minerent``; ``PATTERN`` is a regular expression
searched in the source of each simple statement of those files. A matching statement
becomes ``pass``, and a matching call that an ``if`` tests (``if _check_range(...) and
...``) becomes ``True``. Each mutant is written to a fresh copy of the tree under a
temporary directory, never to the working tree, and the Tier-1 suite runs there with
``-x -p no:cacheprovider`` and a 600 s timeout; the suite's Hypothesis profile in
``tests/conftest.py`` draws the same examples on every run, so a verdict does not hang
on a random draw. The script prints each mutant's verdict (``killed``,
``SURVIVED`` or ``timeout``), its time and the test that failed, then the survivors; it
exits 1 when there is one.

The five sweeps kept with the project::

    # every validation rule: each err(, warn( and _check_range(err in _check_physical_row and
    # validate_dataset (and the one err( in _check_range itself)
    python tests/mutation_sweep.py src/minerent/data_model.py '^(err|warn)\(|_check_range\(err'
    # every raise statement, one-line or not (70 mutants)
    python tests/mutation_sweep.py src/minerent/*.py '^raise\b'
    # every statement of the concession engine but its docstrings (133 mutants); the 5 survivors are
    # equivalent: the numpy import under TYPE_CHECKING, two __slots__ = () and two trailing return None
    python tests/mutation_sweep.py src/minerent/concession_sim.py '^(?!r?""")'
    # every statement of the backfill and the imputation but its docstrings (75 mutants); the 1 survivor
    # is equivalent: the future import
    python tests/mutation_sweep.py src/minerent/reconstruction.py '^(?!r?""")'
    # every statement of the valuation layer but its docstrings (43 mutants); 6 survive: the future import
    # and three __slots__ = () are equivalent, and no test passes Rate a non-finite value (math.isfinite)
    # or hands CashFlowSeries flows that are not (int, float) pairs already
    python tests/mutation_sweep.py src/minerent/valuation.py '^(?!r?""")'

The script copies and tests the tree it lives in. To sweep against chosen test files only, copy
the tree to a scratch directory, remove the other ``tests/test_*.py`` files there, and run the
script from that copy (``python tests/mutation_sweep.py ...`` in the copy's root).

A killed mutant stops at the first failing test; a survivor costs a full Tier-1 run,
about 45 s on a 2-core machine.
'''

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600  # seconds per mutant
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work")


class Mutant(NamedTuple):
    path: Path  # relative to the tree's root
    line: int
    source: str  # the first line of the silenced code
    mutated: str  # the whole file with that code silenced


def _offset(lines: list[str], line: int, col: int) -> int:
    """Character offset in ``"\\n".join(lines)`` of an AST position, whose column counts UTF-8 bytes."""
    return sum(len(text) + 1 for text in lines[: line - 1]) + len(lines[line - 1].encode("utf-8")[:col].decode("utf-8"))


def mutants(path: Path, pattern: str) -> list[Mutant]:
    """Every mutant of ``path``: one matching statement silenced to ``pass``, or one tested call to ``True``."""
    regex = re.compile(pattern)
    text = (ROOT / path).read_text(encoding="utf-8")
    lines = text.split("\n")
    spans = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.stmt) and not hasattr(node, "body"):
            spans.append((node, "pass"))
        elif isinstance(node, ast.If):
            spans.extend((call, "True") for call in ast.walk(node.test) if isinstance(call, ast.Call))
    found = []
    for node, replacement in spans:
        segment = ast.get_source_segment(text, node)
        if not regex.search(segment):
            continue
        start = _offset(lines, node.lineno, node.col_offset)
        end = _offset(lines, node.end_lineno, node.end_col_offset)
        # Keep the file's line count: the silenced lines stay, blank.
        mutated = text[:start] + replacement + "\n" * (node.end_lineno - node.lineno) + text[end:]
        found.append(Mutant(path, node.lineno, segment.splitlines()[0].strip(), mutated))
    return sorted(found, key=lambda mutant: mutant.line)


def run_tier1(mutant: Mutant) -> tuple[str, float, str]:
    """Tier-1's verdict on a fresh copy of the tree holding ``mutant``, the seconds it took, and the failed test."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        (tree / mutant.path).write_text(mutant.mutated, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        try:
            result = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout", time.monotonic() - start, ""
    failed = [line.split(" - ")[0] for line in result.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "SURVIVED" if result.returncode == 0 else "killed", time.monotonic() - start, " ".join(failed[:1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path, metavar="FILE", help="a module under src/minerent")
    parser.add_argument("pattern", help="regular expression searched in each statement's source")
    args = parser.parse_args(argv)
    found = [mutant for path in args.files for mutant in mutants(path.resolve().relative_to(ROOT), args.pattern)]
    print(f"{len(found)} mutants matching {args.pattern!r}", flush=True)
    survivors = []
    for mutant in found:
        verdict, seconds, failed = run_tier1(mutant)
        print(f"{verdict:8} {seconds:4.0f} s  {mutant.path}:{mutant.line}: {mutant.source}", flush=True)
        if failed:
            print(f"    {failed}", flush=True)
        if verdict == "SURVIVED":
            survivors.append(mutant)
    print(f"{len(survivors)} of {len(found)} survived")
    for mutant in survivors:
        print(f"  {mutant.path}:{mutant.line}: {mutant.source}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
