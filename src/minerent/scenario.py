"""Concession scenario files: the format, its checks, and what it implies.

A scenario is ``key=value`` lines plus optional ``[bidders]``,
``[price_path]`` and ``[tax_schedule]`` sections, each a header row and
comma-separated rows. This module owns that format: it parses and checks a
file into a :class:`Scenario`, and derives from one the auction's bidders,
with their price forecast, and the voluntary-tax policy. It builds data
only; running the auction or the concession is the caller's job.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .concession_sim import Bidder
from .data_model import USD_PER_MUSD, DataFileError, ParseError, parse_number, read_lines, summarize_gaps
from .valuation import CashFlowSeries, Rate


# Bound on periods × replications. The accrual loop holds one replication at a time, so
# replication 0's rows, all built and written, set the bound: at it one never-expiring
# replication of 300,000 periods peaks at about 121 MB RSS. The product is
# taken in floats, so one past the float range (horizon=10, replications=1e308) is refused
# as "got inf".
MAX_SIMULATED_PERIODS = 300_000


class ScenarioError(DataFileError):
    """Unparseable or inconsistent concession scenario file."""


def _forecast_price(initial_price: float, drift: float, t: float) -> float:
    """The bidders' expected price t periods after the first, inf where it overflows a float."""
    try:
        return initial_price * math.exp(drift * t)
    except OverflowError:
        return math.inf


class Scenario(NamedTuple):
    announced_rate: float
    quantity: float
    vpi: float | None
    bidders: tuple[tuple[str, float, float], ...]  # (bidder_id, i0, cost_of_capital)
    explicit_path: tuple[float, ...] | None
    initial_price: float | None
    drift: float
    volatility: float
    horizon: int | None
    seed: int
    replications: int
    tax_constant: float
    tax_schedule: dict[int, float] | None

    def auction_bidders(self) -> list[Bidder]:
        """The ``[bidders]`` rows, all forecasting revenue from one expected price path.

        That path is the ``[price_path]`` if given, else the deterministic
        ``initial_price * exp(drift * t)``.
        """
        if self.explicit_path is not None:
            prices = self.explicit_path
        else:
            prices = [_forecast_price(self.initial_price, self.drift, t) for t in range(self.horizon)]
        flows = CashFlowSeries(
            base_year=0,
            flows=tuple((t + 1, price * self.quantity / USD_PER_MUSD) for t, price in enumerate(prices)),
        )
        return [
            Bidder(
                bidder_id=bidder_id,
                investment=investment,
                cost_of_capital=Rate(cost),
                expected_revenue_path=flows,
            )
            for bidder_id, investment, cost in self.bidders
        ]

    def tax_policy(self) -> dict[int, float] | float:
        """The ``[tax_schedule]`` if given, else the constant ``tax_per_year``."""
        return self.tax_constant if self.tax_schedule is None else self.tax_schedule


# Each scenario field: its kind, its bound as ``value <op> bound`` and, for a ``key=value`` field, its default.
# Every number must be finite. The price-path generator takes seed + replication, which numpy requires to be >= 0.
_REQUIRED = "required"
_SCENARIO_FIELDS = {
    "announced_rate": (float, ">", -1, _REQUIRED),
    "quantity_t_per_year": (float, ">=", 0, _REQUIRED),
    "vpi": (float, ">", 0, None),
    "initial_price": (float, ">", 0, None),
    "drift": (float, ">=", -math.inf, 0.0),
    "volatility": (float, ">=", 0, 0.0),
    "horizon": (int, ">=", 1, None),
    "seed": (int, ">=", 0, 0),
    "replications": (int, ">=", 1, 1),
    "tax_per_year": (float, ">=", -math.inf, 0.0),
    "i0": (float, ">", 0, None),
    "cost_of_capital": (float, ">", -1, None),
    "period": (int, ">=", 1, None),
    "price_usd_per_t": (float, ">=", 0, None),
    "tax": (float, ">=", -math.inf, None),
}
_SCENARIO_SECTIONS = {
    "bidders": ("bidder_id", "i0", "cost_of_capital"),
    "price_path": ("period", "price_usd_per_t"),
    "tax_schedule": ("period", "tax"),
}
# The ``key=value`` fields with their defaults, in table order: every field that is not a section column.
_SCENARIO_DEFAULTS = {
    key: field[3] for key, field in _SCENARIO_FIELDS.items() if not any(key in c for c in _SCENARIO_SECTIONS.values())
}


def _scenario_number(value: str, key: str, path: Path, line: int) -> float:
    """``value`` as ``key``'s number, checked against its bound; an integer field is an exact ``int``."""
    kind, op, bound, _ = _SCENARIO_FIELDS[key]
    try:  # isfinite raises OverflowError for an int past the float range, refused below as inf
        number = parse_number(value, key, path, line, kind)
        if math.isfinite(number) and (number > bound if op == ">" else number >= bound):
            return number
    except (ParseError, OverflowError):
        number = None
    try:  # refused: the text read as a float picks the message
        as_float = parse_number(value, key, path, line)
    except ParseError:
        raise ScenarioError(f"non-numeric value {value!r} for {key}", path, line) from None
    if not math.isfinite(as_float):
        problem = "must be finite"
    elif number is None:
        problem, as_float = "must be an integer", value.strip()  # as written, not rounded to a float
    else:
        problem = f"must be {op} {bound}"
    raise ScenarioError(f"{key} {problem}, got {as_float}", path, line)


def load_scenario(path: str | Path) -> Scenario:
    """Parse a concession scenario: key=value lines plus optional sections.

    Sections are ``[bidders]``, ``[price_path]``, and ``[tax_schedule]``,
    each a small header+rows table. Either ``vpi`` or a bidders table must
    be present, and either an explicit price path or ``initial_price`` with
    ``horizon``. A number that is not finite, not an integer where one is
    required, or out of its field's bound raises ScenarioError naming the
    line, as does a ``drift`` or ``quantity_t_per_year`` that overflows the
    forecast price or revenue, or periods (``horizon`` or ``[price_path]``
    rows) × ``replications`` above ``MAX_SIMULATED_PERIODS``. So does a byte
    that is not UTF-8. Each line is checked as it is read, so the error is the
    file's first fault in line order; the whole-file checks come after the last line.
    """
    path = Path(path)
    scalars: dict[str, float] = {}
    scalar_lines: dict[str, int] = {}
    # Each section's rows, checked as read: bidder_id -> (i0, cost_of_capital), period -> (value,).
    keyed: dict[str, dict] = {name: {} for name in _SCENARIO_SECTIONS}
    section: str | None = None
    header_pending = False

    for lineno, raw in enumerate(read_lines(path, ScenarioError), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCENARIO_SECTIONS:
                raise ScenarioError(f"unknown section {section!r}", path, lineno)
            header_pending = True
            continue
        if section is None:
            if "=" not in line:
                raise ScenarioError("expected key=value line", path, lineno)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SCENARIO_DEFAULTS:
                raise ScenarioError(f"unknown key {key!r}", path, lineno)
            if key in scalars:
                raise ScenarioError(f"duplicate key {key!r}", path, lineno)
            scalars[key] = _scenario_number(value, key, path, lineno)
            scalar_lines[key] = lineno
            continue
        columns = _SCENARIO_SECTIONS[section]
        if header_pending:
            if line != (expected := ",".join(columns)):
                raise ScenarioError(f"section [{section}] must start with header {expected!r}", path, lineno)
            header_pending = False
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ScenarioError(f"expected {len(columns)} columns, got {len(fields)}", path, lineno)
        if section == "bidders":
            key = fields[0].strip()
            if not key or not key.isprintable() or '"' in key:  # it becomes a cell of auction_result.csv
                message = f"bidder_id must be non-empty, printable and free of '\"', got {key!r}"
                raise ScenarioError(message, path, lineno)
        else:
            key = _scenario_number(fields[0], "period", path, lineno)
        if key in keyed[section]:
            raise ScenarioError(f"duplicate {columns[0]} {key!r}", path, lineno)
        keyed[section][key] = tuple(
            _scenario_number(cell, column, path, lineno) for column, cell in zip(columns[1:], fields[1:])
        )

    for key, default in _SCENARIO_DEFAULTS.items():
        if default is _REQUIRED and key not in scalars:
            raise ScenarioError(f"missing required key {key!r}", path)
        scalars.setdefault(key, default)

    bidders = tuple((bidder_id, *values) for bidder_id, values in keyed["bidders"].items())
    explicit_path: tuple[float, ...] | None = None
    if keyed["price_path"]:
        periods = sorted(keyed["price_path"])
        missing, shown = summarize_gaps([0, *periods])  # from 0, so a missing period 1 counts too
        if missing:
            raise ScenarioError(f"price path periods must run 1..n: {missing} period(s) missing: {shown}", path)
        explicit_path = tuple(keyed["price_path"][p][0] for p in periods)
    tax_schedule = {period: tax for period, (tax,) in keyed["tax_schedule"].items()} or None

    vpi = scalars["vpi"]
    if vpi is None and not bidders:
        raise ScenarioError("scenario needs either 'vpi' or a [bidders] section", path)
    initial_price = scalars["initial_price"]
    horizon = scalars["horizon"]
    if explicit_path is None and (initial_price is None or horizon is None):
        raise ScenarioError(
            "scenario needs either a [price_path] section or initial_price and horizon", path
        )
    replications = scalars["replications"]
    cells = float(horizon if explicit_path is None else len(explicit_path)) * float(replications)
    if cells > MAX_SIMULATED_PERIODS:
        line = scalar_lines["horizon"] if explicit_path is None else scalar_lines.get("replications")
        message = f"periods * replications must be <= {MAX_SIMULATED_PERIODS}, got {cells!r}"
        raise ScenarioError(message, path, line)
    drift = scalars["drift"]
    if explicit_path is None:
        # The forecast peaks at the last period; it can only overflow for a drift > 0.
        peak_price = _forecast_price(initial_price, drift, horizon - 1)
        if not math.isfinite(peak_price):
            raise ScenarioError(
                "drift overflows the price forecast initial_price * exp(drift * (horizon - 1)), "
                f"got {drift!r}",
                path,
                scalar_lines["drift"],
            )
        peak_price = max(initial_price, peak_price)
    else:
        peak_price = max(explicit_path)
    # Revenue grows with the price, so the peak price bounds every period's revenue.
    quantity = scalars["quantity_t_per_year"]
    if not math.isfinite(peak_price * quantity / USD_PER_MUSD):
        raise ScenarioError(
            "quantity_t_per_year overflows the peak forecast revenue price * quantity_t_per_year / 1e6, "
            f"got {quantity!r}",
            path,
            scalar_lines["quantity_t_per_year"],
        )

    return Scenario(
        announced_rate=scalars["announced_rate"],
        quantity=quantity,
        vpi=vpi,
        bidders=bidders,
        explicit_path=explicit_path,
        initial_price=initial_price,
        drift=drift,
        volatility=scalars["volatility"],
        horizon=horizon,
        seed=scalars["seed"],
        replications=replications,
        tax_constant=scalars["tax_per_year"],
        tax_schedule=tax_schedule,
    )
