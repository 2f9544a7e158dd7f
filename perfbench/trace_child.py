"""Run one minerent CLI command in-process with a span around every layer call.

Usage: python3 trace_child.py SPANS_JSON OP_ID -- CLI_ARGS...

The layer functions are wrapped where ``minerent.cli`` and
``minerent.rent_analysis`` import them, so no file of the package changes.
Spans are kept in memory and written to SPANS_JSON when the command ends,
as ``[name, start, end, parent_index, attrs]`` rows sharing the op id. The
exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import minerent.cli as cli
import minerent.rent_analysis as rent_analysis

# (module whose namespace is patched, function name, layer owning the function)
IMPORT_SITES = [
    (cli, "load_scenario", "cli"),
    (cli, "load_market_series", "data_model"),
    (cli, "load_mine_dataset", "data_model"),
    (cli, "validate_dataset", "data_model"),
    (cli, "write_mine_dataset", "data_model"),
    (cli, "reconstruct_dataset", "reconstruction"),
    (cli, "sensitivity_report", "rent_analysis"),
    (cli, "summary_rows", "rent_analysis"),
    (cli, "write_plot_data", "rent_analysis"),
    (cli, "write_summary_table", "rent_analysis"),
    (cli, "equilibrium_bid", "concession_sim"),
    (cli, "generate_price_path", "concession_sim"),
    (cli, "run_auction", "concession_sim"),
    (cli, "simulate_concession", "concession_sim"),
    (rent_analysis, "reconstruct_dataset", "reconstruction"),
    (rent_analysis, "impute_exploration", "reconstruction"),
    (rent_analysis, "mine_cash_flows", "valuation"),
    (rent_analysis, "initial_investment", "valuation"),
    (rent_analysis, "analyze_mine", "rent_analysis"),
    (rent_analysis, "rvp_series", "rent_analysis"),
    (rent_analysis, "rent_forward_value", "rent_analysis"),
]

# Counts taken from a call's arguments and result, keyed by function name.
ATTRS = {
    "reconstruct_dataset": lambda args, result: {"years": len(args[0].physical_history)},
    "simulate_concession": lambda args, result: {
        "rows": len(result.rows),
        "expired": result.duration is not None,
    },
}

spans: list[list] = []
stack = [-1]


def traced(fn, name, attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, time.perf_counter(), 0.0, stack[-1], None]
        stack.append(len(spans))
        spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if attrs:
            span[4] = attrs(args, result)
        return result

    return wrapper


def main() -> int:
    spans_path, op_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON OP_ID -- CLI_ARGS...")
    for module, attr, layer in IMPORT_SITES:
        setattr(module, attr, traced(getattr(module, attr), f"{layer}.{attr}", ATTRS.get(attr)))
    run = traced(cli.main, "cli.main", None)
    try:
        return run(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"op": int(op_id), "spans": spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
