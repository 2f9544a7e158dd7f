#!/usr/bin/env python3
"""Benchmark for the minerent CLI: end-to-end timings and, traced, per-layer ones.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-2000 --seed 1 --seconds 30 --trace 0

One client runs one CLI invocation (an op) at a time in a closed loop for
``--seconds`` seconds. Each op is a fresh ``python3`` child, timed from
spawn to exit; its CPU time and peak RSS come from ``os.wait4``. Every op
writes into a fresh output directory, deleted after the op's digest is
taken, outside the timed interval; the first op's directory of each command
is kept for the correctness checks until the run ends.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics. With ``--trace 1`` untraced and traced (``trace_child.py``)
cycles alternate, and the last line holds the per-layer metrics. See
README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/minerent/cli.py", "tests/oracle.py", "tests/data/market.csv", "tests/data/mines")

# The same entry point the installed ``minerent`` console script runs.
ENTRY = "import sys; from minerent.cli import main; sys.exit(main())"
SETUPS = 3
IMPORT_SAMPLES = 7
TAIL_SAMPLES_BEYOND = 10
LAYERS = ("cli", "data_model", "reconstruction", "valuation", "rent_analysis", "concession_sim")

# Per-layer times: metric name -> span name whose self time it sums.
SPAN_TIMES = {
    "cli.load_scenario_s": "cli.load_scenario",
    "data_model.load_mine_dataset_s": "data_model.load_mine_dataset",
    "data_model.load_market_series_s": "data_model.load_market_series",
    "data_model.validate_dataset_s": "data_model.validate_dataset",
    "data_model.write_mine_dataset_s": "data_model.write_mine_dataset",
    "reconstruction.reconstruct_dataset_s": "reconstruction.reconstruct_dataset",
    "reconstruction.impute_exploration_s": "reconstruction.impute_exploration",
    "valuation.mine_cash_flows_s": "valuation.mine_cash_flows",
    "valuation.initial_investment_s": "valuation.initial_investment",
    "rent_analysis.sensitivity_report_self_s": "rent_analysis.sensitivity_report",
    "rent_analysis.analyze_mine_self_s": "rent_analysis.analyze_mine",
    "rent_analysis.rvp_series_s": "rent_analysis.rvp_series",
    "rent_analysis.rent_forward_value_s": "rent_analysis.rent_forward_value",
    "rent_analysis.write_plot_data_s": "rent_analysis.write_plot_data",
    "rent_analysis.write_summary_table_s": "rent_analysis.write_summary_table",
    "concession_sim.simulate_concession_s": "concession_sim.simulate_concession",
    "concession_sim.generate_price_path_s": "concession_sim.generate_price_path",
    "concession_sim.equilibrium_bid_s": "concession_sim.equilibrium_bid",
}
# Per-layer counts: metric name -> span name whose calls it counts.
SPAN_CALLS = {
    "data_model.load_mine_dataset.calls": "data_model.load_mine_dataset",
    "data_model.validate_dataset.calls": "data_model.validate_dataset",
    "reconstruction.reconstruct_dataset.calls": "reconstruction.reconstruct_dataset",
    "reconstruction.impute_exploration.calls": "reconstruction.impute_exploration",
    "rent_analysis.cells": "rent_analysis.analyze_mine",
    "rent_analysis.write_plot_data.calls": "rent_analysis.write_plot_data",
    "concession_sim.simulate_concession.calls": "concession_sim.simulate_concession",
    "concession_sim.equilibrium_bid.calls": "concession_sim.equilibrium_bid",
}
# Per-layer ratios: metric name -> (numerator, denominator), summed over all traced ops.
RATIOS = {
    "reconstruction.reconstruct_useful_ratio": ("useful_reconstructs", "reconstruction.reconstruct_dataset.calls"),
    "concession_sim.never_expired_share": ("never_expired", "concession_sim.simulate_concession.calls"),
    "concession_sim.rows_written_ratio": ("rows_written", "concession_sim.periods_stepped"),
}


def parse_args() -> argparse.Namespace:
    from workloads import CYCLES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


class Runner:
    """Spawns CLI ops in one work directory and judges each op's artifacts."""

    def __init__(self, work: Path, expected: dict):
        self.work = work
        self.expected = expected
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.reference: dict[str, str] = {}  # command -> digest of its first op
        self.first: dict[str, Path] = {}  # command -> output dir of its first op, for the checks

    def spawn(self, cmd: list[str], stderr) -> tuple[int, float, object]:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def op(self, argv: list[str], op_id: int, traced: bool = False) -> dict:
        """Run one CLI command into a fresh output dir and judge what it wrote."""
        name = f"out-{op_id}"
        out = self.work / name
        out.mkdir()
        spans = self.work / f"spans-{op_id}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans), str(op_id), "--", *argv, "--out", name]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv, "--out", name]
        with open(self.work / "stderr.txt", "w+b") as stderr:
            code, wall, usage = self.spawn(cmd, stderr)
            stderr.seek(0)
            err = stderr.read().decode("utf-8", "replace")
        record = {
            "command": argv[0],
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "error": None,
            "spans": spans if traced else None,
        }
        files = sorted(out.iterdir())
        record["files"] = len(files)
        record["bytes"] = sum(p.stat().st_size for p in files)
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        record["digest"] = digest.hexdigest()
        if code != 0:
            record["error"] = f"exit code {code}: {err.strip()[-300:]}"
        elif "Traceback" in err:
            record["error"] = f"traceback on stderr: {err.strip()[-300:]}"
        elif {p.name for p in files} != self.expected[argv[0]]:
            missing = sorted(self.expected[argv[0]] - {p.name for p in files})[:3]
            record["error"] = f"artifact set differs; missing e.g. {missing}"
        elif self.reference.setdefault(argv[0], record["digest"]) != record["digest"]:
            record["error"] = "artifact digest differs from the run's first op"
        if record["error"] is None and argv[0] not in self.first:
            self.first[argv[0]] = out
        else:
            shutil.rmtree(out)
        return record


def closed_loop(runner: Runner, cycle, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Ops back to back until ``seconds`` pass, always ending on a whole cycle.

    With ``trace``, every second cycle runs traced, so traced and untraced
    ops see the same machine state. Returns (untraced ops, traced ops).
    """
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    n = 0
    while n == 0 or n % len(cycle) or (trace and n // len(cycle) % 2) or time.perf_counter() - start < seconds:
        is_traced = trace and n // len(cycle) % 2 == 1
        (traced if is_traced else untraced).append(runner.op(cycle[n % len(cycle)], n, is_traced))
        n += 1
    return untraced, traced


def set_up(workload: str, seed: int, work: Path):
    """Generate the inputs into a new ``work`` and warm up.

    Clearing an earlier ``work`` is not timed, so every repeat does the
    same work.
    The warm-up imports ``minerent.cli`` in a child, which compiles the
    bytecode on a fresh checkout and pulls the interpreter, numpy and the
    package into the page cache; the inputs are there already, having just
    been written. Returns (seconds taken, pre-history share of the mines,
    runner).
    """
    from workloads import CYCLES, GENERATORS, expected_artifacts, input_mines

    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    (work / "inputs").mkdir(parents=True)
    GENERATORS[workload](ROOT, work / "inputs", seed)
    mine_ids, prehistory = input_mines(work / "inputs")
    runner = Runner(work, {argv[0]: expected_artifacts(argv[0], mine_ids) for argv in CYCLES[workload]})
    code = runner.spawn([sys.executable, "-c", "import minerent.cli"], subprocess.DEVNULL)[0]
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"warm-up import failed with exit code {code}")
    return elapsed, prehistory, runner


def tail(walls: list[float]) -> tuple[float, str]:
    """The sample with ten beyond it when the run holds 40 or more, else p75."""
    ordered = sorted(walls)
    n = len(ordered)
    if n >= 4 * TAIL_SAMPLES_BEYOND:
        return ordered[n - TAIL_SAMPLES_BEYOND - 1], f"p{100.0 * (n - TAIL_SAMPLES_BEYOND) / n:.1f} of {n}"
    if n < 2:
        return ordered[-1], f"max of {n}"
    return statistics.quantiles(ordered, n=4, method="inclusive")[2], f"p75 of {n}"


def round_median(values: list[float], cycle_len: int) -> float:
    """Median over whole cycles of each cycle's mean, so mixed commands weigh equally."""
    rounds = [values[i : i + cycle_len] for i in range(0, len(values), cycle_len)]
    return statistics.median(statistics.fmean(r) for r in rounds)


def end_to_end(ops: list[dict], setup_s: float, failed: int) -> dict:
    walls = [op["wall"] for op in ops]
    tail_value, tail_label = tail(walls)
    return {
        "setup_s": (setup_s, "s"),
        "wall_p50_s": (statistics.median(walls), "s"),
        "wall_tail_s": (tail_value, "s"),
        "cpu_p50_s": (statistics.median(op["cpu"] for op in ops), "s"),
        "peak_rss_mb": (max(op["rss_mb"] for op in ops), "MB"),
        "ops_per_s": (len(ops) / sum(walls), "1/s"),
        "fail_ratio": (failed / len(ops), "ratio"),
    }, tail_label


def op_layers(record: dict) -> dict[str, float]:
    """Per-layer self times and counts of one traced op, from its spans."""
    spans = json.loads(record["spans"].read_text())["spans"]
    record["spans"].unlink()
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    values: dict[str, float] = defaultdict(float)
    first_rows = None
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        own = end - start - child_time[index]
        values[f"{name.split('.')[0]}.self_s"] += own
        values[f"span:{name}"] += own
        values[f"calls:{name}"] += 1
        if name == "reconstruction.reconstruct_dataset":
            values["useful_reconstructs"] += attrs["years"] > 0
            values["reconstruction.reconstructed_years"] += attrs["years"]
        elif name == "concession_sim.simulate_concession":
            values["concession_sim.periods_stepped"] += attrs["rows"]
            values["never_expired"] += not attrs["expired"]
            first_rows = attrs["rows"] if first_rows is None else first_rows
    if record["command"] == "simulate-concession" and first_rows is not None:
        values["rows_written"] += first_rows  # only replication 0's rows are written
    out = {metric: values[f"span:{span}"] for metric, span in SPAN_TIMES.items()}
    out.update({metric: values[f"calls:{span}"] for metric, span in SPAN_CALLS.items()})
    out.update({f"{layer}.self_s": values[f"{layer}.self_s"] for layer in LAYERS})
    for key in ("useful_reconstructs", "reconstruction.reconstructed_years", "concession_sim.periods_stepped",
                "never_expired", "rows_written"):
        out[key] = values[key]
    out["cli.artifact_files"] = record["files"]
    out["cli.artifact_bytes"] = record["bytes"]
    return out


def import_times(runner: Runner) -> tuple[float, float]:
    """Median bare interpreter start and median extra for ``import minerent.cli``."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(runner.spawn([sys.executable, "-c", "pass"], subprocess.DEVNULL)[1])
        full.append(runner.spawn([sys.executable, "-c", "import minerent.cli"], subprocess.DEVNULL)[1])
    return statistics.median(bare), statistics.median(full) - statistics.median(bare)


def per_layer(traced: list[dict], untraced: list[dict], cycle_len: int, runner: Runner) -> dict:
    if any(record["error"] for record in traced):
        return {}  # spans of a failed op may be missing; the run is reported as incorrect
    rows = [op_layers(record) for record in traced]
    metrics = {}
    for key in rows[0]:
        if key in {num for num, _ in RATIOS.values()}:
            continue
        unit = "s" if key.endswith("_s") else ("B" if key.endswith("_bytes") else "count")
        metrics[key] = (round_median([row[key] for row in rows], cycle_len), unit)
    for metric, (num, den) in RATIOS.items():
        total = sum(row[den] for row in rows)
        metrics[metric] = (sum(row[num] for row in rows) / total if total else 0.0, "ratio")
    start, import_s = import_times(runner)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.interpreter_start_s"] = (start, "s")
    op_s = round_median([r["wall"] for r in traced], cycle_len)
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.overhead_s"] = (op_s - round_median([r["wall"] for r in untraced], cycle_len), "s")
    covered = start + import_s + sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    metrics["trace.uncovered_s"] = (op_s - covered, "s")
    metrics["trace.ops"] = (len(traced), "count")
    return metrics


def filesystem(path: Path) -> str:
    result = subprocess.run(["stat", "-f", "-c", "%T", str(path)], capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def main() -> int:
    missing = [name for name in REQUIRED if not (ROOT / name).exists()]
    if missing:
        print(f"error: not a minerent checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy
    from workloads import CHECKS, CYCLES, CheckFailed

    args = parse_args()
    cycle = CYCLES[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [set_up(args.workload, args.seed, work) for _ in range(SETUPS)]
        setup_s = statistics.median(s[0] for s in setups)
        _, prehistory, runner = setups[-1]
        print(f"python {platform.python_version()}, numpy {numpy.__version__}, nproc {os.cpu_count()}, "
              f"work dir filesystem {filesystem(work)}")
        print(f"workload {args.workload} seed {args.seed}: share of mines with pre-history rows {prehistory:.4f}")

        ops, traced = closed_loop(runner, cycle, args.seconds, bool(args.trace))

        check_ok = True
        for command, out in runner.first.items():
            if command in CHECKS:
                try:
                    print(f"check {command}: ok, {CHECKS[command](work, out)}")
                except CheckFailed as exc:
                    print(f"check {command}: FAILED, {exc}")
                    check_ok = False
                    for record in ops + traced:
                        if record["command"] == command and not record["error"]:
                            record["error"] = f"correctness check failed: {exc}"
        attempted = len(ops) + len(traced)
        failed = sum(1 for record in ops + traced if record["error"])
        for record in ops + traced:
            if record["error"]:
                print(f"op {record['command']} failed: {record['error']}")

        e2e, tail_label = end_to_end(ops, setup_s, sum(1 for r in ops if r["error"]))
        digest = hashlib.sha256("".join(runner.reference.get(argv[0], "-") for argv in cycle).encode()).hexdigest()
        files = sum(ops[i]["files"] for i in range(len(cycle)))
        size = sum(ops[i]["bytes"] for i in range(len(cycle)))
        print(f"artifacts per cycle: {files} files, {size} bytes, digest {digest}")
        print(f"wall_tail_s is the {tail_label} untraced ops")
        print("untraced op walls (s): " + " ".join(f"{op['wall']:.3f}" for op in ops))
        for name, (value, unit) in e2e.items():
            print(f"{name} = {value:.6g} {unit}")
        metrics = e2e
        if args.trace:
            metrics = per_layer(traced, ops, len(cycle), runner)
            for name, (value, unit) in metrics.items():
                print(f"{name} = {value:.6g} {unit}")
        else:
            del metrics["fail_ratio"]  # carried by "attempted" and "failed"
        result = {
            "correct": check_ok and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
