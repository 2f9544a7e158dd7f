"""Command-line front end: analyze, reconstruct, simulate-concession, auction.

All commands are deterministic: fixed inputs (and seed) produce
byte-identical artifacts, so run manifests carry no timestamps. A command
raises every refusal, and ``main`` alone turns it into ``error:`` lines and
an exit code: 0 success, 1 validation or content errors (``InvalidDatasetError``,
``DataFileError``, ``AuctionError``, ``ValueError``), 2 I/O errors (``OSError``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from . import __version__
from .concession_sim import (
    AuctionError,
    PricePathParams,
    accrue_concessions,
    equilibrium_bid,
    generate_price_path,
    run_auction,
    simulate_concession,
)
from .data_model import DataFileError, DiscountSpec, load_market_series, load_mine_dataset, write_mine_dataset
from .data_model import validate_dataset  # noqa: F401  unused; the benchmark's tracer wraps it here (ROADMAP item 1)
from .reconstruction import InvalidDatasetError, reconstruct_all
from .reconstruction import reconstruct_dataset  # noqa: F401  unused, as validate_dataset above
from .rent_analysis import (
    DEFAULT_VALUATION_YEAR,
    sensitivity_report,
    summary_rows,
    write_plot_data,
    write_summary_table,
)
from .scenario import Scenario, load_scenario
from .valuation import PRESETS, Rate

SUMMARY_TABLE_NAME = "summary_cuadro1.csv"
SUMMARY_JSON_NAME = "summary_cuadro1.json"
OUTCOME_TABLE_NAME = "concession_outcome.csv"
OUTCOME_JSON_NAME = "concession_outcome.json"
AUDIT_LOG_NAME = "reconstruction_audit.log"
MANIFEST_NAME = "run_manifest.json"
HISTOGRAM_NAME = "duration_histogram.csv"
AUCTION_TABLE_NAME = "auction_result.csv"


def _write_audit(path: Path, audit: list[str]) -> None:
    """One line per audit entry, written as it goes; an empty audit gives an empty file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in audit)


def _write_manifest(args: argparse.Namespace, inputs: dict, parameters: dict, seed: int | None) -> None:
    manifest = {
        "command": args.command,
        "inputs": inputs,
        "parameters": parameters,
        "seed": seed,
        "package": {"name": "minerent", "version": __version__},
    }
    (args.out / MANIFEST_NAME).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _warn(warnings) -> None:
    for issue in warnings:
        print(f"warning: {issue.locator}: {issue.message}", file=sys.stderr)


def _load_inputs(args: argparse.Namespace):
    """Load the market and every mine in the directory; the library validates them.

    Returns ``(market, mine_paths, mines)``, the paths as sorted strings. Raises
    DataFileError for unparseable content or an empty directory, OSError for an
    unreadable file or a missing directory.
    """
    market = load_market_series(args.market)
    # iterdir, unlike glob, raises when the directory is missing; the paths share a parent, so names order them.
    paths = sorted((path for path in args.mines.iterdir() if path.name.endswith(".csv")), key=lambda path: path.name)
    mines = [load_mine_dataset(path) for path in paths]
    if not mines:
        raise DataFileError(f"no mine datasets found in {args.mines}")
    return market, [str(path) for path in paths], mines


def cmd_analyze(args: argparse.Namespace) -> None:
    """Reconstruct, build RVP series per rate, and emit summary artifacts."""
    rates = _resolve_rates(args)
    market, mine_paths, mines = _load_inputs(args)
    audit: list[str] = []
    report = sensitivity_report(mines, market, rates, valuation_year=args.valuation_year, audit=audit)
    _warn(report.warnings)
    del mines  # the report holds all the write phase needs; free the loaded records

    # Each document goes straight into its file, so none is ever held whole.
    args.out.mkdir(parents=True, exist_ok=True)
    for (mine_id, label), series in sorted(report.series.items()):
        write_plot_data(series, os.path.join(args.out, f"{mine_id}_rvp_{label}.csv"))
    write_summary_table(report, args.out / SUMMARY_TABLE_NAME)
    # json.dump(rows, sort_keys=True, indent=2) row by row; json's C encoder writes a flat row's items.
    encode = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": ")).encode
    with open(args.out / SUMMARY_JSON_NAME, "w", encoding="utf-8") as fh:
        fh.write("[")
        for i, row in enumerate(summary_rows(report)):  # never empty: a run has at least one mine
            fh.write(f"{',' if i else ''}\n  {{\n    {encode(row)[1:-1]}\n  }}")
        fh.write("\n]\n")
    _write_audit(args.out / AUDIT_LOG_NAME, audit)
    _write_manifest(
        args,
        inputs={"market": str(args.market), "mines": mine_paths},
        parameters={
            "fund_rate": market.fund_rate,
            "rates": {label: spec._asdict() for label, spec in rates},
            "valuation_year": args.valuation_year,
        },
        seed=None,
    )


def cmd_reconstruct(args: argparse.Namespace) -> None:
    """Backfill pre-history rows and write the completed datasets."""
    market, mine_paths, mines = _load_inputs(args)
    audit: list[str] = []
    completed, warnings = reconstruct_all(mines, market, audit)
    _warn(warnings)
    args.out.mkdir(parents=True, exist_ok=True)
    for mine in completed:
        write_mine_dataset(mine, args.out / f"{mine.mine_id}_reconstructed.csv")
    _write_audit(args.out / AUDIT_LOG_NAME, audit)
    _write_manifest(args, inputs={"market": str(args.market), "mines": mine_paths}, parameters={}, seed=None)


def _auction(scenario: Scenario) -> tuple[dict[str, float | None], str, float]:
    """Every bidder's equilibrium bid (None for no bid), the winner and the winning VPI.

    Raises AuctionError when no bidder can bid, ValueError when a bid overflows a float.
    """
    rate = Rate(scenario.announced_rate)
    bids = {bidder.bidder_id: equilibrium_bid(bidder, rate) for bidder in scenario.auction_bidders()}
    winner_id, winning_vpi = run_auction(bids)
    return bids, winner_id, winning_vpi


def _write_outcome(outcome, out_dir: Path) -> None:
    """Stream replication 0's rows into the outcome table; the outcome JSON holds its five scalars alone.

    Each row is one CSV line, every float its ``repr``. The JSON gives the
    VPI target, the duration (null if still active), the final status, the
    final accrued PV and the still-active warning (or null).
    """
    with open(out_dir / OUTCOME_TABLE_NAME, "w", encoding="utf-8") as table:
        table.write("period,price,gross_revenue,voluntary_tax,counted_revenue,accrued_pv,status\n")
        table.writelines(",".join((str(row.period), *map(repr, row[1:6]), row.status)) + "\n" for row in outcome.rows)
    frame = {
        "vpi_target": outcome.final_state.vpi_target,
        "duration": outcome.duration,
        "status": outcome.final_state.status.value,
        "accrued_pv": outcome.final_state.accrued_pv,
        "warning": outcome.warning,
    }
    (out_dir / OUTCOME_JSON_NAME).write_text(json.dumps(frame, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def cmd_simulate_concession(args: argparse.Namespace) -> None:
    """Run the concession over one or many seeded price paths."""
    scenario = load_scenario(args.scenario)
    vpi = scenario.vpi
    if vpi is None:
        _, _, vpi = _auction(scenario)

    rate, tax_policy = Rate(scenario.announced_rate), scenario.tax_policy()
    try:
        if scenario.explicit_path is not None:
            first, params = scenario.explicit_path, None
        else:
            params = PricePathParams(
                scenario.initial_price, scenario.drift, scenario.volatility, scenario.horizon, scenario.seed
            )
            first = generate_price_path(params)
        # Replication 0 is accrued once, with its rows. Each call raises ValueError
        # when a price, a revenue or an accrued PV overflows a float.
        outcome = simulate_concession(vpi, first, scenario.quantity, rate, tax_policy)
        if params is None or params.horizon == 1:  # every replication repeats one path; one period draws no shock
            durations = [outcome.duration] * scenario.replications
        else:
            # The kernel streams the other replications in blocks, so only replication 0's path is held whole.
            others = range(1, scenario.replications)
            rest = (generate_price_path(params._replace(seed=params.seed + i)) for i in others)
            durations = accrue_concessions(vpi, rest, scenario.quantity, rate, tax_policy, first_run=1)
            durations.insert(0, outcome.duration)
    except ValueError as exc:
        raise ValueError(f"{args.scenario}: {exc}") from None
    if outcome.warning:
        print(f"warning: replication 0: {outcome.warning}", file=sys.stderr)
    active = durations.count(None)
    if active > (outcome.warning is not None):  # a replication other than 0 is still active
        print(
            f"warning: {active} of {scenario.replications} replications still active after {len(first)} periods",
            file=sys.stderr,
        )

    args.out.mkdir(parents=True, exist_ok=True)
    _write_outcome(outcome, args.out)
    if scenario.replications > 1:
        lines = ["replication,duration", *(f"{i},{'' if d is None else d}" for i, d in enumerate(durations))]
        (args.out / HISTOGRAM_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(
        args,
        inputs={"scenario": str(args.scenario)},
        parameters={
            "announced_rate": scenario.announced_rate,
            "quantity_t_per_year": scenario.quantity,
            "replications": scenario.replications,
            "vpi": vpi,
        },
        seed=scenario.seed if scenario.explicit_path is None else None,
    )


def cmd_auction(args: argparse.Namespace) -> None:
    """Compute equilibrium bids for the scenario's bidders and pick a winner."""
    scenario = load_scenario(args.scenario)
    if not scenario.bidders:
        raise DataFileError("auction requires a [bidders] section", args.scenario)
    bids, winner_id, winning_vpi = _auction(scenario)

    args.out.mkdir(parents=True, exist_ok=True)
    lines = ["bidder_id,bid,winner"]
    for bidder_id in sorted(bids):
        bid = bids[bidder_id]
        bid_text = "no-bid" if bid is None else repr(bid)
        lines.append(f"{bidder_id},{bid_text},{'true' if bidder_id == winner_id else 'false'}")
    (args.out / AUCTION_TABLE_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(
        args,
        inputs={"scenario": str(args.scenario)},
        parameters={"announced_rate": scenario.announced_rate, "winner": winner_id, "winning_vpi": winning_vpi},
        seed=None,
    )


def _resolve_rates(args: argparse.Namespace) -> tuple[tuple[str, DiscountSpec], ...]:
    custom = [args.rf, args.beta, args.erp, args.country]
    rates: list[tuple[str, DiscountSpec]] = []
    for label in args.rate or []:
        rates.append((label, PRESETS[label]))
    if any(value is not None for value in custom):
        if any(value is None for value in custom):
            raise ValueError("custom rates need all of --rf, --beta, --erp, --country")
        rates.append(("custom", DiscountSpec(args.rf, args.beta, args.erp, args.country)))
    if not rates:
        rates = [(label, PRESETS[label]) for label in ("base", "conservative")]
    return tuple(rates)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minerent",
        description="Resource-rent analysis and revenue-target concession simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="rent analysis over a mine directory")
    analyze.set_defaults(run=cmd_analyze)
    analyze.add_argument("--mines", required=True, type=Path, help="directory of mine files")
    analyze.add_argument("--market", required=True, type=Path, help="market series file")
    analyze.add_argument("--rate", action="append", choices=sorted(PRESETS), help="preset rate; repeatable")
    analyze.add_argument("--rf", type=float, help="custom risk-free rate")
    analyze.add_argument("--beta", type=float, help="custom beta")
    analyze.add_argument("--erp", type=float, help="custom equity premium")
    analyze.add_argument("--country", type=float, help="custom country risk")
    analyze.add_argument("--valuation-year", type=int, default=DEFAULT_VALUATION_YEAR)
    analyze.add_argument("--out", required=True, type=Path, help="output directory")

    reconstruct = sub.add_parser("reconstruct", help="backfill pre-history mine years")
    reconstruct.set_defaults(run=cmd_reconstruct)
    reconstruct.add_argument("--mines", required=True, type=Path)
    reconstruct.add_argument("--market", required=True, type=Path)
    reconstruct.add_argument("--out", required=True, type=Path)

    simulate = sub.add_parser("simulate-concession", help="run a concession scenario")
    simulate.set_defaults(run=cmd_simulate_concession)
    simulate.add_argument("--scenario", required=True, type=Path)
    simulate.add_argument("--out", required=True, type=Path)

    auction = sub.add_parser("auction", help="equilibrium bids and winner for a scenario")
    auction.set_defaults(run=cmd_auction)
    auction.add_argument("--scenario", required=True, type=Path)
    auction.add_argument("--out", required=True, type=Path)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Nothing here calls BLAS, yet on import numpy's OpenBLAS starts a worker
    # per core that busy-waits about 0.1 s of CPU before it sleeps. With one
    # BLAS thread a run stays on one core, and its time no longer depends on
    # whether a second core is free. Must be set before numpy is imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    gc.disable()  # a run's objects live until it ends and hold no cycle, so collections would only rescan them
    try:
        args.run(args)
    except InvalidDatasetError as exc:  # validation's report: its warnings, then one line per error
        _warn(exc.report.warnings)
        for issue in exc.report.errors:
            print(f"error: {issue.locator}: [{issue.rule}] {issue.message}", file=sys.stderr)
        return 1
    except (DataFileError, AuctionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.enable()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
