"""The benchmark's tracer wraps layer functions where ``minerent.cli`` imports them.

Moving one of those imports out of ``minerent.cli`` would silently drop its
span from the per-layer metrics, so these tests pin every import site and
the spans a traced run records.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"
DATA = ROOT / "tests" / "data"

README_SCENARIO = """\
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
"""


def test_every_import_site_resolves():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    for module, attr, _ in trace_child.IMPORT_SITES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is missing"


@pytest.mark.parametrize(
    "command, spans",
    [
        (
            "auction",
            {
                "cli.main": 1,
                "cli.load_scenario": 1,
                "concession_sim.equilibrium_bid": 2,
                "concession_sim.run_auction": 1,
            },
        ),
        (
            "simulate-concession",
            {
                "cli.main": 1,
                "cli.load_scenario": 1,
                "concession_sim.equilibrium_bid": 2,
                "concession_sim.run_auction": 1,
                "concession_sim.generate_price_path": 25,
                "concession_sim.simulate_concession": 1,
            },
        ),
        (
            # The library validates and reconstructs inside sensitivity_report, where no import site is
            # wrapped, so validate_dataset and reconstruct_dataset record no span (ROADMAP item 1).
            "analyze",
            {
                "cli.main": 1,
                "data_model.load_market_series": 1,
                "data_model.load_mine_dataset": 3,
                "rent_analysis.sensitivity_report": 1,
                "reconstruction.impute_exploration": 2,
                "rent_analysis.analyze_mine": 6,
                "valuation.mine_cash_flows": 6,
                "valuation.initial_investment": 6,
                "rent_analysis.rvp_series": 6,
                "rent_analysis.rent_forward_value": 6,
                "rent_analysis.write_plot_data": 6,
                "rent_analysis.write_summary_table": 1,
                "rent_analysis.summary_rows": 1,
            },
        ),
        (
            # reconstruct_all is not wrapped, so validation and reconstruction fall into cli.main's own time.
            "reconstruct",
            {
                "cli.main": 1,
                "data_model.load_market_series": 1,
                "data_model.load_mine_dataset": 3,
                "data_model.write_mine_dataset": 3,
            },
        ),
    ],
)
def test_traced_run_records_layer_spans(tmp_path, command, spans):
    if command in ("analyze", "reconstruct"):
        inputs = ["--mines", str(DATA / "mines"), "--market", str(DATA / "market.csv")]
    else:
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(README_SCENARIO)
        inputs = ["--scenario", str(scenario)]
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(spans_path), "0", "--", command, *inputs, "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    recorded = json.loads(spans_path.read_text())["spans"]
    assert Counter(span[0] for span in recorded) == spans
