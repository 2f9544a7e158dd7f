"""Seeded inputs, command cycles, expected artifacts and output checks.

Every input is derived from the shipped corpus under ``tests/data`` and the
workload seed; the program under test sees only the generated files.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

TEMPLATES = ("alpha", "beta", "gamma")
ANALYZE_MINES = 2000
RATE_LABELS = ("base", "conservative")
VALUATION_YEAR = 2012
USD_PER_MUSD = 1_000_000.0

# concession-mc: README-like quantity and price with drift 0, so the bidders'
# expected revenue is a constant 20 M USD per period.
MC_SCALARS = {
    "announced_rate": 0.06,
    "quantity_t_per_year": 10000,
    "initial_price": 2000,
    "drift": 0.0,
    "volatility": 0.15,
    "horizon": 2000,
    "replications": 100,
}
MC_BIDDERS = 20
# Each bidder's own-rate payback period is drawn from this range, so the
# auction almost always resolves at period 19 and the VPI sits near the
# 22nd percentile of a replication's discounted revenue.
MC_PAYBACK_PERIODS = range(19, 27)
# Replications that never expire step all 2000 periods and dominate the
# op's cost; replication 0's rows are the ones written out. Replication i
# runs on price-path seed base + i, so neighbouring bases share all but one
# path. The generator scores a fixed window of bases after a seeded start
# and keeps the first whose replication 0 never expires and whose count of
# never-expiring replications is closest to the target. The search and the
# op then cost the same for every workload seed.
MC_NEVER_EXPIRED = 22
MC_BASES = 500

SMALL_SCALARS = {
    "announced_rate": 0.06,
    "quantity_t_per_year": 10000,
    "initial_price": 2000,
    "drift": 0.01,
    "volatility": 0.2,
    "horizon": 40,
    "replications": 25,
    "tax_per_year": 2,
}
SMALL_BIDDERS = (("slim", 90.0, 0.12), ("heavy", 140.0, 0.12))

MINES_ARGS = ["--mines", "inputs/mines", "--market", "inputs/market.csv"]
SCENARIO_ARGS = ["--scenario", "inputs/scenario.txt"]
ANALYZE = ["analyze", *MINES_ARGS, "--rate", "base", "--rate", "conservative"]
RECONSTRUCT = ["reconstruct", *MINES_ARGS]
SIMULATE = ["simulate-concession", *SCENARIO_ARGS]
AUCTION = ["auction", *SCENARIO_ARGS]

# The CLI commands each workload runs in turn, one invocation per op.
CYCLES = {
    "analyze-2000": (ANALYZE,),
    "concession-mc": (SIMULATE,),
    "cli-small": (ANALYZE, RECONSTRUCT, AUCTION, SIMULATE),
}


class CheckFailed(Exception):
    """An artifact disagrees with the benchmark's independent recomputation."""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _write_scenario(path: Path, scalars: dict, seed: int, bidders) -> None:
    lines = [f"{key}={value}" for key, value in scalars.items()]
    lines += [f"seed={seed}", "[bidders]", "bidder_id,i0,cost_of_capital"]
    lines += [f"{bidder_id},{i0!r},{cost!r}" for bidder_id, i0, cost in bidders]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _scaled_mine(lines: list[str], mine_id: str, scale: float, keep_history: bool) -> str:
    """A template mine with money and tonnage scaled and a new id."""
    meta = dict(line.split("=", 1) for line in lines[:4])
    out = [
        f"mine_id={mine_id}",
        f"opening_year={meta['opening_year']}",
        f"capital_paid_first_year={round(float(meta['capital_paid_first_year']) * scale, 6)!r}",
        f"escondida_tax_rule={meta['escondida_tax_rule']}",
        lines[4],
    ]
    for row in lines[5:]:
        year, *values = row.split(",")
        if values[0] == "" and not keep_history:
            continue
        out.append(",".join([year] + ["" if v == "" else repr(round(float(v) * scale, 6)) for v in values]))
    return "\n".join(out) + "\n"


def generate_analyze(root: Path, inputs: Path, seed: int) -> None:
    """2000 mines cycled over the shipped three, each scaled by a seeded factor.

    Only the alpha-derived third keeps pre-history rows; the others carry
    reported years only.
    """
    rng = _rng("analyze-2000", seed)
    data = root / "tests" / "data"
    templates = {
        name: (data / "mines" / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        for name in TEMPLATES
    }
    mines = inputs / "mines"
    mines.mkdir(parents=True)
    shutil.copyfile(data / "market.csv", inputs / "market.csv")
    ids = [f"{TEMPLATES[i % 3]}-{i:04d}" for i in range(ANALYZE_MINES)]
    if len(set(ids)) != len(ids):
        raise ValueError("generated mine ids are not unique")
    for i, mine_id in enumerate(ids):
        template = TEMPLATES[i % 3]
        text = _scaled_mine(templates[template], mine_id, rng.uniform(0.5, 2.0), template == "alpha")
        (mines / f"{mine_id}.csv").write_text(text, encoding="utf-8")


def generate_small(root: Path, inputs: Path, seed: int) -> None:
    """The shipped three-mine corpus plus a README-sized seeded scenario."""
    rng = _rng("cli-small", seed)
    data = root / "tests" / "data"
    shutil.copytree(data / "mines", inputs / "mines")
    shutil.copyfile(data / "market.csv", inputs / "market.csv")
    bidders = [(bid, round(i0 * rng.uniform(0.9, 1.1), 3), cost) for bid, i0, cost in SMALL_BIDDERS]
    _write_scenario(inputs / "scenario.txt", SMALL_SCALARS, rng.randrange(1, 10**6), bidders)


def price_path(initial_price: float, drift: float, volatility: float, horizon: int, seed: int) -> np.ndarray:
    """Seeded geometric-Brownian prices, the same draws the scenario format specifies."""
    shocks = np.random.default_rng(seed).standard_normal(horizon - 1)
    log_steps = (drift - volatility**2 / 2.0) + volatility * shocks
    return initial_price * np.exp(np.concatenate(([0.0], np.cumsum(log_steps))))


def plain_durations(scenario, vpi: float) -> list[int | None]:
    """Each replication's expiry period by a plain accrual loop; None if it never expires."""
    rate, quantity, tax = scenario.announced_rate, scenario.quantity, scenario.tax_constant
    durations = []
    for i in range(scenario.replications):
        prices = price_path(scenario.initial_price, scenario.drift, scenario.volatility, scenario.horizon,
                            scenario.seed + i)
        accrued, duration = 0.0, None
        for index, price in enumerate(prices):
            gross = float(price) * quantity / USD_PER_MUSD
            accrued += (gross - min(max(tax, 0.0), gross)) / (1.0 + rate) ** (index + 1)
            if accrued >= vpi:
                duration = index + 1
                break
        durations.append(duration)
    return durations


def generate_concession(root: Path, inputs: Path, seed: int) -> None:
    """20 seeded bidders and a price-path seed with 22 of 100 replications never expiring.

    Replication 0 is one of the 22.
    """
    from oracle import bid_brute

    rng = _rng("concession-mc", seed)
    s = MC_SCALARS
    revenue = s["initial_price"] * s["quantity_t_per_year"] / USD_PER_MUSD
    bidders = []
    for j in range(MC_BIDDERS):
        cost = round(rng.uniform(0.07, 0.12), 4)
        payback = rng.choice(MC_PAYBACK_PERIODS)
        below = sum(revenue / (1.0 + cost) ** t for t in range(1, payback))
        above = below + revenue / (1.0 + cost) ** payback
        bidders.append((f"b{j:02d}", round(below + rng.uniform(0.1, 0.9) * (above - below), 3), cost))
    flows = [revenue] * max(MC_PAYBACK_PERIODS)  # every bidder pays back within these periods
    vpi = min(bid_brute(flows, i0, s["announced_rate"], cost) for _, i0, cost in bidders)
    # A replication never expires when its whole discounted revenue stays
    # below the VPI. A vectorised sum is enough to size the workload and is
    # far cheaper than plain_durations, which the check uses.
    discount = (1.0 + s["announced_rate"]) ** np.arange(1, s["horizon"] + 1)
    start, n = rng.randrange(1, 10**6), s["replications"]
    never = [
        np.sum(price_path(s["initial_price"], s["drift"], s["volatility"], s["horizon"], start + i) / discount)
        * s["quantity_t_per_year"] / USD_PER_MUSD < vpi
        for i in range(MC_BASES + n - 1)
    ]
    offset = min(range(MC_BASES), key=lambda o: (not never[o], abs(sum(never[o : o + n]) - MC_NEVER_EXPIRED)))
    base = start + offset
    _write_scenario(inputs / "scenario.txt", s, base, bidders)


GENERATORS = {
    "analyze-2000": generate_analyze,
    "concession-mc": generate_concession,
    "cli-small": generate_small,
}


def input_mines(inputs: Path) -> tuple[list[str], float]:
    """Ids of the generated mines and the share of them with pre-history rows."""
    ids, with_history = [], 0
    for path in sorted((inputs / "mines").glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines()
        ids.append(lines[0].partition("=")[2])
        with_history += any(row.split(",")[1] == "" for row in lines[5:])
    return ids, with_history / len(ids) if ids else 0.0


def expected_artifacts(command: str, mine_ids: list[str]) -> set[str]:
    if command == "analyze":
        plots = {f"{m}_rvp_{label}.csv" for m in mine_ids for label in RATE_LABELS}
        return plots | {"summary_cuadro1.csv", "summary_cuadro1.json", "reconstruction_audit.log", "run_manifest.json"}
    if command == "reconstruct":
        return {f"{m}_reconstructed.csv" for m in mine_ids} | {"reconstruction_audit.log", "run_manifest.json"}
    if command == "auction":
        return {"auction_result.csv", "run_manifest.json"}
    return {"concession_outcome.csv", "concession_outcome.json", "duration_histogram.csv", "run_manifest.json"}


def check_analyze(work: Path, out: Path) -> str:
    """Summary cells against the brute-force pipeline oracle, 1e-9 relative."""
    from minerent import PRESETS, discount_rate, load_market_series, load_mine_dataset
    from oracle import pipeline_brute, rel_close

    market = load_market_series(work / "inputs" / "market.csv")
    mines = [load_mine_dataset(p) for p in sorted((work / "inputs" / "mines").glob("*.csv"))]
    rows = {row["mine_id"]: row for row in json.loads((out / "summary_cuadro1.json").read_text())}
    if set(rows) != {m.mine_id for m in mines}:
        raise CheckFailed("summary rows do not match the input mines")
    for label in RATE_LABELS:
        oracle = pipeline_brute(mines, market, discount_rate(PRESETS[label]).value, VALUATION_YEAR)
        for mine_id, want in oracle.items():
            row = rows[mine_id]
            if row[f"momento_x_{label}"] != want["momento_x"]:
                raise CheckFailed(f"{mine_id}@{label}: momento x {row[f'momento_x_{label}']} != {want['momento_x']}")
            for column, key in ((f"rent_pv_at_t0_{label}", "rent_pv"), (f"rent_at_{VALUATION_YEAR}_{label}", "rent_forward")):
                if not rel_close(row[column], want[key], rel=1e-9, abs_tol=1e-9):
                    raise CheckFailed(f"{mine_id}@{label}: {column} {row[column]} != {want[key]}")
    return f"{len(rows)} mines x {len(RATE_LABELS)} rates match pipeline_brute"


def _oracle_bids(scenario) -> dict[str, float | None]:
    """Each bidder's ``bid_brute`` bid over the forecast revenue the scenario format defines."""
    from oracle import bid_brute

    revenues = [
        scenario.initial_price * math.exp(scenario.drift * t) * scenario.quantity / USD_PER_MUSD
        for t in range(scenario.horizon)
    ]
    return {b: bid_brute(revenues, i0, scenario.announced_rate, cost) for b, i0, cost in scenario.bidders}


def check_simulate(work: Path, out: Path) -> str:
    """The auction's VPI against ``bid_brute``, then every replication's
    duration recomputed by a plain accrual loop."""
    from minerent.cli import load_scenario
    from oracle import rel_close

    scenario = load_scenario(work / "inputs" / "scenario.txt")
    vpi = json.loads((out / "run_manifest.json").read_text())["parameters"]["vpi"]
    want_vpi = min(bid for bid in _oracle_bids(scenario).values() if bid is not None)
    if not rel_close(vpi, want_vpi):
        raise CheckFailed(f"vpi {vpi!r} != smallest bid_brute bid {want_vpi!r}")
    lines = (out / "duration_histogram.csv").read_text().splitlines()[1:]
    got = [line.split(",")[1] for line in lines]
    want = ["" if d is None else str(d) for d in plain_durations(scenario, vpi)]
    if len(got) != len(want):
        raise CheckFailed(f"{len(got)} durations for {len(want)} replications")
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            raise CheckFailed(f"replication {i}: duration {a!r} != {b!r}")
    never = want.count("")
    return (f"vpi matches bid_brute; {len(want)} durations match; "
            f"never expired {never}/{len(want)} = {never / len(want):.4f}")


def check_auction(work: Path, out: Path) -> str:
    """Each bid against the stopping-year enumeration ``bid_brute``."""
    from minerent.cli import load_scenario
    from oracle import rel_close

    bids = _oracle_bids(load_scenario(work / "inputs" / "scenario.txt"))
    rows = [line.split(",") for line in (out / "auction_result.csv").read_text().splitlines()[1:]]
    if sorted(r[0] for r in rows) != sorted(bids):
        raise CheckFailed("auction rows do not match the scenario bidders")
    feasible = {b: v for b, v in bids.items() if v is not None}
    winner = min(feasible.items(), key=lambda item: (item[1], item[0]))[0]
    for bidder_id, bid_text, won in rows:
        want = bids[bidder_id]
        if (bid_text == "no-bid") != (want is None) or (want is not None and not rel_close(float(bid_text), want)):
            raise CheckFailed(f"{bidder_id}: bid {bid_text} != bid_brute {want!r}")
        if (won == "true") != (bidder_id == winner):
            raise CheckFailed(f"{bidder_id}: winner flag {won} but bid_brute picks {winner}")
    return f"{len(rows)} bids match bid_brute; winner {winner}"


CHECKS = {"analyze": check_analyze, "simulate-concession": check_simulate, "auction": check_auction}
