"""Command line front end: experiments, artifact emission, verification.

Configuration resolves in three layers: built-in defaults, then an
optional flat key=value file (--config), then explicit flags.  The
resolved configuration is embedded in every artifact (comment header in
CSV, a "config" object in JSON), so a result file names the run that
produced it.

CSV rows follow one fixed schema,

    method,D,seed,q_or_t,nu_id,n,epsilon_or_alpha,raw_value,extrapolated,band

sorted by (n, epsilon_or_alpha, seed); ``extrapolated`` repeats the
JSON's headline ``value``.  SVG plots are rendered from the CSV after
it is written back through the parser, not from in-memory state.

Exit codes: 0 success, 2 configuration error, 3 budget refusal, 4
verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .estimators import (
    _check_eps_ladder,
    _check_level_ladder,
    _ladder_scales,
    DEFAULT_PATH_BUDGET,
    EntropyEstimate,
    estimate_entropy_eps,
    estimate_entropy_level,
    estimate_entropy_orderstats,
)
from .lattice import (
    _ensemble,
    BudgetError,
    Direction,
    Environment,
    TauFn,
)
from .measures import Histogram, Measure, kl_divergence
from .polymer import (
    DpTable, _dp_box, _ladder_box, _ladder_fit, gibbs_estimate, last_passage,
    sample_polymer_paths,
)
from .prokhorov import prokhorov_distance
from .variational import (
    _check_bernoulli,
    _check_target,
    _search_bound,
    bernoulli_exponent_check,
    conjugate_entropy,
    default_tau_family,
    kl_budget_check,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

CSV_FIELDS = (
    "method",
    "D",
    "seed",
    "q_or_t",
    "nu_id",
    "n",
    "epsilon_or_alpha",
    "raw_value",
    "extrapolated",
    "band",
)


class ConfigError(Exception):
    """Invalid configuration; the message carries the file/field context."""


# ---------------------------------------------------------------------------
# value grammars


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _parse_seed_list(text: str) -> tuple[int, ...]:
    """Seeds: 'a..b' is the inclusive integer range, else comma ints."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    return _parse_ints(text)


def _parse_scale_ladder(text: str) -> tuple[int, ...]:
    """Ladder scales: 'a..b' doubles from a up to b, else comma ints; all positive."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo < 1 or hi < lo:
            raise ValueError(f"bad scale range {text!r}")
        out = []
        n = lo
        while n <= hi:
            out.append(n)
            n *= 2
        return tuple(out)
    scales = _parse_ints(text)
    if min(scales) < 1:
        raise ValueError(f"scales must be positive, got {min(scales)}")
    return scales


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    """Grid: 'start:stop:step' up to stop inclusive, else comma floats; every value >= 0.

    A colon grid's values are rounded to 12 places, and only those <= stop
    are kept, so a step that does not divide the span stops short of it.
    """
    if ":" in text:
        start_text, stop_text, step_text = text.split(":")
        start, stop, step = float(start_text), float(stop_text), float(step_text)
        if step <= 0 or stop < start:
            raise ValueError(f"bad grid {text!r}")
        count = int(round((stop - start) / step))
        grid = tuple(round(start + k * step, 12) for k in range(count + 1))
        grid = tuple(value for value in grid if value <= stop)
    else:
        grid = _parse_floats(text)
    if not all(alpha >= 0.0 for alpha in grid):
        raise ValueError(f"values must be >= 0, got {grid}")
    return grid


def _parse_rational(text: str) -> float:
    return float(Fraction(text))


def _read_spec_text(rest: str) -> str:
    if rest.startswith("@"):
        with open(rest[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return rest


def _parse_target(spec: str) -> Histogram | Measure:
    """Measure grammar: lebesgue:m | hist:masses | hist:@file | atoms:json | atoms:@file.

    lebesgue and hist targets keep their density structure (they carry a
    finite relative entropy); atoms targets are purely atomic.
    """
    kind, sep, rest = spec.partition(":")
    if kind == "lebesgue" and sep:
        bins = int(rest)
        if bins < 1:
            raise ValueError(f"lebesgue needs at least one bin, got {bins}")
        return Histogram.uniform(bins)
    if kind == "hist" and sep:
        text = _read_spec_text(rest)
        if text.lstrip().startswith("{"):
            return Histogram.from_json(text)
        return Histogram(_parse_floats(text))
    if kind == "atoms" and sep:
        return Measure.from_json(_read_spec_text(rest))
    raise ValueError(f"unknown measure spec {spec!r}")


def _parse_measure(spec: str) -> Measure:
    target = _parse_target(spec)
    if isinstance(target, Histogram):
        return target.to_measure()
    return target


def _parse_tau(spec: str) -> TauFn:
    """Potential grammar: zero | constant:c | identity:k | indicator:lo | values:v,... | @file."""
    if spec == "zero":
        return TauFn.constant(0.0)
    if spec.startswith("@"):
        return TauFn.from_json(_read_spec_text(spec))
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"unknown potential spec {spec!r}")
    if kind == "constant":
        return TauFn.constant(float(rest))
    if kind == "identity":
        return TauFn.identity_ladder(int(rest))
    if kind == "indicator":
        return TauFn.indicator(float(rest))
    if kind == "values":
        return TauFn.from_values(_parse_floats(rest))
    raise ValueError(f"unknown potential spec {spec!r}")


# ---------------------------------------------------------------------------
# configuration


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.rstrip()!r}")
        values[key] = value.strip()
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """One resolved run: the command plus its flat key -> value map.

    A field is read by handing its raw text to a grammar (``parse``);
    a rule on the value belongs to the library function that owns it,
    run through ``check`` so that its error names the fields read.
    """

    command: str
    values: dict

    def has(self, key: str) -> bool:
        return key in self.values

    def raw(self, key: str) -> str:
        try:
            return self.values[key]
        except KeyError:
            raise ConfigError(f"missing required field {key!r} (flag {_flags(key)[-1]})") from None

    def parse(self, key: str, grammar: Callable[[str], object]):
        return self.check((key,), grammar, self.raw(key))

    def check(self, keys: Sequence[str], fn: Callable, *args, **kwargs):
        """fn(*args, **kwargs), a bad-value error from it raised as a config
        error that names ``keys``, the fields it read, in that order."""
        try:
            return fn(*args, **kwargs)
        except (ValueError, OverflowError, ZeroDivisionError, KeyError, OSError) as exc:
            fields = ", ".join(f"{key}={self.raw(key)!r}" for key in keys)
            raise ConfigError(f"field {fields}: {exc}") from exc

    def int_(self, key: str, *, at_least: int | None = None, at_most: int | None = None) -> int:
        value = self.parse(key, int)
        if at_least is not None and value < at_least:
            raise ConfigError(f"field {key}={self.raw(key)!r}: must be >= {at_least}")
        if at_most is not None and value > at_most:
            raise ConfigError(f"field {key}={self.raw(key)!r}: must be <= {at_most}")
        return value

    def target(self, key: str, grammar: Callable[[str], object] = _parse_measure, *,
               ensemble: bool = False):
        """(measure, raw spec); a path-ensemble target must have positive total mass."""
        target = self.parse(key, grammar)
        if ensemble and not target.total_mass > 0.0:
            raise ConfigError(f"field {key}={self.raw(key)!r}: total mass must be positive")
        return target, self.raw(key)

    def ladder(self, key: str) -> list[int]:
        """A fit's scale ladder, sorted: positive, at least two scales distinct."""
        return self.check((key,), _ladder_scales, self.parse(key, _parse_scale_ladder))

    def budget(self) -> int:
        """The path budget: at least 1, and at most int64's 2^63 - 1, so that every
        ensemble within it is one the walker's int64 arrays can hold."""
        return self.int_("budget", at_least=1, at_most=2**63 - 1)


# Every flag stores a plain string and the typed parse happens once,
# at use, with the field name in the error.  A key's flag is --key with
# '_' as '-'; the two ladders also take a short alias, listed first.
_SHORT_FLAGS = {"n_ladder": "--n", "eps_ladder": "--eps"}


def _flags(key: str) -> tuple[str, ...]:
    """A key's flag spellings, its short alias first."""
    flag = "--" + key.replace("_", "-")
    return (_SHORT_FLAGS[key], flag) if key in _SHORT_FLAGS else (flag,)


_BUDGET_DEFAULT = str(DEFAULT_PATH_BUDGET)

_FLAG_HELP: dict[str, str] = {
    "budget": (f"most paths one profile may enumerate (default {_BUDGET_DEFAULT}); a profile "
               f"holds 8 bytes per path, so a budget-sized one peaks near "
               f"{8 * DEFAULT_PATH_BUDGET // 10**6} MB"),
}

def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The subcommands, with flags only on the first one argv names: the
    top-level parser takes no values, so that word is the one argparse runs.
    When argv starts with it, that subcommand is the only one built, under
    a metavar listing all of them, so usage and errors read as with all."""
    parser = argparse.ArgumentParser(
        prog="gridentropy",
        description="Path-ensemble entropy experiments on the lattice.",
    )
    named = next((word for word in argv if word in _COMMANDS), None)
    alone = bool(argv) and argv[0] == named
    subparsers = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if alone else None)
    for command in [named] if alone else _COMMANDS:
        sub = subparsers.add_parser(command)
        if command != named:
            continue
        sub.add_argument("--config", default=None, metavar="FILE",
                         help="flat key=value file supplying defaults")
        for key in _COMMANDS[command][0]:
            sub.add_argument(*_flags(key), dest=key, default=None, metavar=key.upper(),
                             help=_FLAG_HELP.get(key))
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    command = args.command
    keys, defaults, _ = _COMMANDS[command]
    values = dict(defaults)
    if args.config is not None:
        file_values = load_config_file(args.config)
        unknown = sorted(set(file_values) - set(keys))
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown field(s) {', '.join(unknown)} for command {command!r}"
            )
        values.update(file_values)
    for key in keys:
        flag_value = getattr(args, key)
        if flag_value is not None:
            values[key] = flag_value
    for key, value in values.items():
        if "\n" in value or "\r" in value:
            raise ConfigError(f"field {key}={value!r}: line breaks are not allowed in a value; "
                              f"give a multi-line spec as @FILE")
    # Artifacts are written after the run, so a path that cannot be written is refused first.
    for key in ("csv", "json", "svg"):
        path = values.get(key)
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            raise ConfigError(f"field {key}={path!r}: not a file in an existing directory")
    if values.get("svg") and not values.get("csv"):
        raise ConfigError("svg output needs --csv: plots are rendered from the CSV file")
    values["command"] = command
    return ExperimentConfig(command, values)


# ---------------------------------------------------------------------------
# artifact emission


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, config: ExperimentConfig, rows: Sequence[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(config.values):
            fh.write(f"# {key}={config.values[key]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def read_csv(path: str) -> tuple[dict[str, str], list[dict]]:
    """Parse an emitted CSV back into (embedded config, typed rows)."""
    header: dict[str, str] = {}
    data_lines: list[str] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if not sep:
                    raise ValueError(f"{path}: malformed header line {line.rstrip()!r}")
                header[key.strip()] = value.strip()
            else:
                data_lines.append(line)
    reader = csv.reader(data_lines)
    try:
        fields = tuple(next(reader))
    except StopIteration:
        raise ValueError(f"{path}: no column header") from None
    if fields != CSV_FIELDS:
        raise ValueError(f"{path}: unexpected columns {fields}")
    rows = []
    for record in reader:
        row = dict(zip(CSV_FIELDS, record))
        for key in ("D", "seed", "n"):
            row[key] = int(row[key])
        for key in ("epsilon_or_alpha", "raw_value", "extrapolated", "band"):
            row[key] = float(row[key])
        rows.append(row)
    return header, rows


_ROW_CHUNK = 1024  # rows per format call; one call for a whole batch holds a second copy


def _format_rows(rows: np.ndarray, head: str, sep: str, end: str):
    """Each row of a 2-D integer array as head + sep-joined items + end, a chunk at a time.

    When every item is a digit 0..9 (every step matrix of D <= 10), a
    chunk is one ASCII line template (head, "0" items joined by sep,
    end) copied into a (rows, width) byte buffer whose digit columns
    are set to 48 + item.  Any other matrix is %-formatted a chunk at a
    time; both give the same text.
    """
    width = rows.shape[1]
    if rows.size and not (rows.min() >= 0 and rows.max() <= 9):
        line = head + sep.join(["%d"] * width) + end
        for start in range(0, len(rows), _ROW_CHUNK):
            chunk = rows[start:start + _ROW_CHUNK]
            yield (line * len(chunk)) % tuple(chunk.ravel().tolist())
        return
    template = (head + sep.join(["0"] * width) + end).encode("ascii")
    buf = np.empty((min(len(rows), _ROW_CHUNK), len(template)), np.uint8)
    buf[:] = np.frombuffer(template, np.uint8)
    stride = len(sep) + 1
    digits = slice(len(head), len(head) + width * stride, stride)
    for start in range(0, len(rows), _ROW_CHUNK):
        chunk = rows[start:start + _ROW_CHUNK]
        lines = buf[:len(chunk)]
        lines[:, digits] = chunk + 48
        yield lines.tobytes().decode("ascii")


def _jsonable(obj):
    """``obj`` in plain JSON types: keys through ``str``, tuples as lists,
    ``np.integer`` as int, ``np.floating`` as float, arrays via ``tolist()``,
    and ``Fraction`` or any other unknown object as its ``str``."""
    if isinstance(obj, dict):
        return {str(key): _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def write_json(path: str, payload: dict) -> None:
    """``json.dumps(_jsonable(payload), indent=2, sort_keys=True)`` plus a newline.

    The top-level object is written one value at a time, so that a
    nonempty 2-D integer array there (a step matrix) goes through
    ``_format_rows`` instead of a Python list per row.
    """
    pieces: list[str] = []
    for key, value in sorted({str(key): value for key, value in payload.items()}.items()):
        pieces.append(("{" if not pieces else ",") + "\n  " + json.dumps(key) + ": ")
        if (isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind in "iu"
                and value.size):
            pieces.append("[")
            pieces.extend(_format_rows(value, "\n    [\n      ", ",\n      ", "\n    ],"))
            pieces[-1] = pieces[-1][:-1] + "\n  ]"
        else:
            text = json.dumps(_jsonable(value), indent=2, sort_keys=True)
            pieces.append(text.replace("\n", "\n  "))
    pieces.append("\n}\n" if pieces else "{}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
                "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def render_svg(rows: Sequence[dict], title: str) -> str:
    """Line plot of raw_value against n, one polyline per parameter."""
    width, height, margin = 640, 400, 56
    series: dict[float, list[tuple[int, float]]] = {}
    for row in rows:
        if math.isfinite(row["raw_value"]):
            series.setdefault(row["epsilon_or_alpha"], []).append((row["n"], row["raw_value"]))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    if not series:
        parts.append(f'<text x="{width / 2:.1f}" y="{height / 2:.1f}" '
                     'text-anchor="middle" font-size="12">no finite points</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
                 'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
                 f'y2="{height - margin}" stroke="black" stroke-width="1"/>')
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{px(xv):.1f}" y="{height - margin + 16}" '
                     f'text-anchor="middle" font-size="10">{xv:g}</text>')
        parts.append(f'<text x="{margin - 6}" y="{py(yv) + 3:.1f}" '
                     f'text-anchor="end" font-size="10">{yv:.4g}</text>')

    for index, param in enumerate(sorted(series)):
        color = _SVG_PALETTE[index % len(_SVG_PALETTE)]
        points = sorted(series[param])
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        for x, y in points:
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{margin + 8}" y="{margin + 14 * (index + 1):.1f}" '
                     f'font-size="11" fill="{color}">param={param:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _emit(config: ExperimentConfig, rows: Sequence[tuple], payload: dict) -> None:
    """Write whichever of csv/json/svg the run asked for.

    The JSON artifact is ``payload`` plus the resolved configuration
    under "config".
    """
    csv_path = config.values.get("csv")
    json_path = config.values.get("json")
    svg_path = config.values.get("svg")
    if csv_path:
        write_csv(csv_path, config, rows)
    if json_path:
        write_json(json_path, {"config": dict(config.values), **payload})
    if svg_path:
        _, parsed = read_csv(csv_path)
        title = f"{config.command} {config.values.get('nu', '')}".strip()
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(render_svg(parsed, title))


def _emit_estimate(config: ExperimentConfig, est: EntropyEstimate, dimension: int,
                   q_or_t: str, nu_id: str, /, **extra) -> str:
    """Emit an estimate: its ladder rows in CSV order, and its summary plus
    ``extra`` as the JSON payload.  Returns its one-line summary for stdout."""
    rows = [(est.method, dimension, row.seed, q_or_t, nu_id, row.n, row.param,
             row.raw, est.value, est.band)
            for row in sorted(est.ladder, key=lambda row: (row.n, row.param, row.seed))]
    _emit(config, rows, {
        "method": est.method,
        "value": est.value,
        "extrapolated": est.value,
        "band": est.band,
        "diagnostics": est.diagnostics,
        "ladder_points": len(est.ladder),
        **extra,
    })
    return f"method={est.method} value={_fmt(est.value)} band={_fmt(est.band)}"


# ---------------------------------------------------------------------------
# subcommands


def _run_metric(config: ExperimentConfig) -> int:
    mu, _ = config.target("mu")
    nu, _ = config.target("nu")
    distance = prokhorov_distance(mu, nu)
    print(_fmt(distance))
    _emit(config, (), {"distance": distance})
    return EXIT_OK


def _count_text(dimension: int, **ensemble) -> str:
    """The ensemble's exact path count, sized by the lattice gate against the
    largest count Python prints, so that one far past it is never computed."""
    limit = sys.get_int_max_str_digits()
    try:
        return str(_ensemble(dimension, 10**limit - 1 if limit else math.inf, **ensemble)[3])
    except BudgetError as exc:
        raise ValueError(f"the count has more than {limit} digits, "
                         f"past Python's int-to-str limit") from exc


def _ensemble_field(config: ExperimentConfig) -> tuple[str, tuple[int, ...] | int]:
    """The one of endpoint and length given, and its value."""
    if config.has("endpoint") == config.has("length"):
        raise ConfigError("give exactly one of --endpoint or --length")
    if config.has("endpoint"):
        return "endpoint", config.parse("endpoint", _parse_ints)
    return "length", config.int_("length")


def _run_count(config: ExperimentConfig) -> int:
    key, value = _ensemble_field(config)
    # Without --D the endpoint sets the dimension; a given D must agree.
    if config.has("D"):
        keys, dimension = (key, "D"), config.int_("D", at_least=1)
    else:
        keys, dimension = (key,), len(value) if key == "endpoint" else 2
    print(config.check(keys, _count_text, dimension, **{key: value}))
    return EXIT_OK


def _run_orderstats(config: ExperimentConfig) -> int:
    q = config.parse("q", Direction.parse)
    nu, nu_id = config.target("nu", ensemble=True)
    n_ladder = config.ladder("n_ladder")
    grid = config.parse("alpha_grid", _parse_alpha_grid)
    seeds = config.parse("seeds", _parse_seed_list)
    budget = config.budget()
    threshold = config.parse("threshold", _parse_rational) if config.has("threshold") else None
    est = estimate_entropy_orderstats(
        seeds, q, nu, n_ladder, grid, threshold=threshold, budget=budget
    )
    print(_emit_estimate(config, est, q.dimension, str(q), nu_id))
    return EXIT_OK


def _eps_ladder(config: ExperimentConfig, n_ladder: Sequence[int]) -> list[float]:
    """The eps ladder, refused by ``_check_eps_ladder`` before any rung runs."""
    return config.check(("eps_ladder", "n_ladder"), _check_eps_ladder, n_ladder,
                        config.parse("eps_ladder", _parse_floats))


def _run_entropy_eps(config: ExperimentConfig) -> int:
    q = config.parse("q", Direction.parse)
    nu, nu_id = config.target("nu", ensemble=True)
    n_ladder = config.ladder("n_ladder")
    eps_ladder = _eps_ladder(config, n_ladder)
    seeds = config.parse("seeds", _parse_seed_list)
    budget = config.budget()
    est = estimate_entropy_eps(seeds, q, nu, n_ladder, eps_ladder, budget=budget)
    print(_emit_estimate(config, est, q.dimension, str(q), nu_id))
    return EXIT_OK


def _run_entropy_level(config: ExperimentConfig) -> int:
    dimension = config.int_("D", at_least=1)
    t = config.parse("t", Fraction)
    nu, nu_id = config.target("nu", ensemble=True)
    n_ladder = config.ladder("n_ladder")
    config.check(("t", "n_ladder"), _check_level_ladder, t, n_ladder)
    eps_ladder = _eps_ladder(config, n_ladder)
    seeds = config.parse("seeds", _parse_seed_list)
    budget = config.budget()
    est = estimate_entropy_level(seeds, dimension, nu, n_ladder, eps_ladder, t=t, budget=budget)
    print(_emit_estimate(config, est, dimension, str(t), nu_id))
    return EXIT_OK


def _run_gibbs(config: ExperimentConfig) -> int:
    dimension = config.int_("D", at_least=1)
    q = None if config.raw("q") == "level" else config.parse("q", Direction.parse)
    if q is not None:
        dimension = q.dimension
    beta = config.parse("beta", _parse_rational)
    n_ladder = config.ladder("n_ladder")
    tau = config.parse("tau", _parse_tau)
    config.check(("q", "tau", "beta"), _ladder_box, n_ladder, q, dimension, abs(beta), tau.bound)
    seeds = config.parse("seeds", _parse_seed_list)
    est = gibbs_estimate(seeds, beta, tau, n_ladder, q=q, dimension=dimension)
    q_or_t = str(q) if q is not None else "level"
    print(_emit_estimate(config, est, dimension, q_or_t, f"tau:{config.raw('tau')}"))
    return EXIT_OK


def _run_lpp(config: ExperimentConfig) -> int:
    env = Environment(config.int_("seed"), config.int_("D", at_least=1))
    endpoint = config.parse("endpoint", _parse_ints)
    tau = config.parse("tau", _parse_tau)
    config.check(("endpoint", "tau"), _dp_box, env.dimension, 1.0, tau.bound, endpoint=endpoint)
    value, path = last_passage(env, endpoint, tau)
    print(_fmt(value))
    _emit(config, (), {"value": value, "start": list(path.start), "steps": list(path.steps)})
    return EXIT_OK


def _run_sample(config: ExperimentConfig) -> int:
    key, value = _ensemble_field(config)
    env = Environment(config.int_("seed"), config.int_("D", at_least=1))
    beta = config.parse("beta", _parse_rational)
    tau = config.parse("tau", _parse_tau)
    config.check((key, "tau", "beta"), _dp_box, env.dimension, abs(beta), tau.bound,
                 **{key: value})
    draws = config.int_("draws", at_least=1)
    rng_seed = config.int_("rng_seed")
    table = (DpTable.point if key == "endpoint" else DpTable.level)(env, value, beta, tau)
    seeds = range(rng_seed, rng_seed + draws)
    samples = sample_polymer_paths(table, seeds)
    # Written to whatever sys.stdout is at call time.
    sys.stdout.writelines(_format_rows(samples, "", ",", "\n"))
    _emit(config, (), {"samples": samples})
    return EXIT_OK


def _run_conjugate(config: ExperimentConfig) -> int:
    q = config.parse("q", Direction.parse)
    nu, nu_id = config.target("nu")
    config.check(("nu",), _check_target, nu)
    beta = config.parse("beta", _parse_rational)
    n_ladder = config.ladder("n_ladder")
    seeds = config.parse("seeds", _parse_seed_list)
    k = config.int_("k")
    random_count = config.int_("random_count")
    family_seed = config.int_("family_seed")
    family = config.check(("k", "random_count", "family_seed"), default_tau_family,
                          k, random_count=random_count, rng_seed=family_seed)
    restarts = config.int_("restarts")
    passes = config.int_("passes")
    bound = config.check(("restarts", "passes"), _search_bound, family, restarts, passes)
    config.check(("q", "beta"), _ladder_box, n_ladder, q, q.dimension, abs(beta), bound)
    est = conjugate_entropy(
        seeds, q, nu, beta,
        tau_family=family,
        n_ladder=n_ladder,
        restarts=restarts,
        ascent_passes=passes,
        rng_seed=config.int_("ascent_seed", at_least=0),
    )
    # The estimate's ladder is the winning potential's free-energy ladder.
    _, gibbs_value, gibbs_band = _ladder_fit(est.ladder)
    report = {
        "q": str(q),
        "beta": beta,
        "tau_id": est.diagnostics["best_tau"],
        "family_id": f"signs:k={k}+random:{random_count}:seed:{family_seed}",
        "sup_value": -est.value,
        "argmax_nu_id": nu_id,
        "gibbs_value": gibbs_value,
        # Observable stand-in for the distance to the true supremum:
        # how much local refinement improved on the raw family maximum.
        "gap": est.diagnostics["refined_gain"],
        "bands": {"gibbs": gibbs_band, "entropy": est.band},
    }
    print(_emit_estimate(config, est, q.dimension, str(q), nu_id, report=report))
    return EXIT_OK


def _run_klbudget(config: ExperimentConfig) -> int:
    q = config.parse("q", Direction.parse)
    target, nu_id = config.target("nu", _parse_target, ensemble=True)
    config.check(("nu",), kl_divergence, target)
    method = config.raw("method")
    nu = target.to_measure() if isinstance(target, Histogram) else target
    n_ladder = config.ladder("n_ladder")
    seeds = config.parse("seeds", _parse_seed_list)
    budget = config.budget()
    if method == "orderstats":
        grid = config.parse("alpha_grid", _parse_alpha_grid)
        est = estimate_entropy_orderstats(seeds, q, nu, n_ladder, grid, budget=budget)
    elif method == "eps":
        eps_ladder = _eps_ladder(config, n_ladder)
        est = estimate_entropy_eps(seeds, q, nu, n_ladder, eps_ladder, budget=budget)
    else:
        raise ConfigError(f"field method={method!r}: expected 'orderstats' or 'eps'")
    report = kl_budget_check(q, target, est)
    # klbudget takes no --csv, so only the summary, report and nu_id are written.
    _emit_estimate(config, est, q.dimension, str(q), nu_id, report=asdict(report), nu_id=nu_id)
    print(f"method={report.method} slack={_fmt(report.slack)} violation={report.violation}")
    return EXIT_OK


def _run_bernoulli(config: ExperimentConfig) -> int:
    p = config.parse("p", _parse_rational)
    s = config.parse("s", _parse_rational)
    config.check(("p", "s"), _check_bernoulli, p, s)
    n_ladder = config.parse("n_ladder", _parse_scale_ladder)
    seeds = config.parse("seeds", _parse_seed_list)
    dimension = config.int_("D", at_least=1)
    config.check(("n_ladder", "D"), _ladder_box, n_ladder, None, dimension)
    report = bernoulli_exponent_check(p, s, n_ladder, seeds, dimension=dimension)
    nu_id = f"bernoulli:p={config.raw('p')},s={config.raw('s')}"
    rows = [
        ("bernoulli", dimension, seed, "-", nu_id, n, report.s,
         report.exponents[seed][n], report.max_exponent, report.margin)
        for n in sorted(n_ladder)
        for seed in sorted(seeds)
    ]
    _emit(config, rows, {"report": asdict(report)})
    print(
        f"max_exponent={_fmt(report.max_exponent)} budget={_fmt(report.budget)} "
        f"within_budget={report.within_budget}"
    )
    return EXIT_OK


def _run_verify(config: ExperimentConfig) -> int:
    # Imported here so that no other command pays for loading the suite.
    from .verification import TITLES, VerificationSuite, format_table

    suite = VerificationSuite(config.int_("seed"))
    criteria = None
    if config.has("criteria"):
        criteria = sorted(config.parse("criteria", _parse_seed_list))
        if not set(criteria) <= set(TITLES):
            raise ConfigError(f"field criteria={config.raw('criteria')!r}: "
                              f"criteria are {min(TITLES)}..{max(TITLES)}")
    reports = suite.run(criteria)
    print(format_table(reports))
    _emit(config, (), {
        "criteria": [
            {
                "criterion": report.criterion,
                "title": report.title,
                "passed": report.passed,
                "seconds": report.seconds,
                "budget_seconds": report.budget_seconds,
                "checks": [
                    {
                        "check": row.check,
                        "measured": row.measured,
                        "bound": row.bound,
                        "passed": row.passed,
                    }
                    for row in report.rows
                ],
            }
            for report in reports
        ],
    })
    if all(report.passed for report in reports):
        return EXIT_OK
    return EXIT_VERIFY


# (accepted keys, defaults, runner) per subcommand.  A key without a
# default is optional, or required by the first read of it; the runner
# reads its fields from the resolved config and returns the exit code.
_COMMANDS: dict[str, tuple[tuple[str, ...], dict[str, str],
                           Callable[[ExperimentConfig], int]]] = {
    "metric": (("mu", "nu", "json"), {}, _run_metric),
    "count": (("D", "endpoint", "length"), {}, _run_count),
    "orderstats": (
        ("q", "nu", "n_ladder", "alpha_grid", "seeds", "threshold", "budget",
         "csv", "json", "svg"),
        {"q": "1/2,1/2", "nu": "lebesgue:64", "n_ladder": "6,8,10,12",
         "alpha_grid": "0:1:0.05", "seeds": "1..5", "budget": _BUDGET_DEFAULT},
        _run_orderstats,
    ),
    "entropy-eps": (
        ("q", "nu", "n_ladder", "eps_ladder", "seeds", "budget", "csv", "json", "svg"),
        {"q": "1/2,1/2", "nu": "lebesgue:64", "n_ladder": "6,8,10,12",
         "eps_ladder": "8,4,2", "seeds": "1..5", "budget": _BUDGET_DEFAULT},
        _run_entropy_eps,
    ),
    "entropy-level": (
        ("D", "t", "nu", "n_ladder", "eps_ladder", "seeds", "budget",
         "csv", "json", "svg"),
        {"D": "2", "t": "1", "nu": "lebesgue:64", "n_ladder": "6,8,10,12",
         "eps_ladder": "8,4,2", "seeds": "1..5", "budget": _BUDGET_DEFAULT},
        _run_entropy_level,
    ),
    "gibbs": (
        ("D", "q", "beta", "tau", "n_ladder", "seeds", "csv", "json", "svg"),
        {"D": "2", "q": "1/2,1/2", "beta": "1", "tau": "zero",
         "n_ladder": "64..512", "seeds": "1..5"},
        _run_gibbs,
    ),
    "lpp": (
        ("D", "seed", "endpoint", "tau", "json"),
        {"D": "2", "seed": "1", "tau": "identity:16"},
        _run_lpp,
    ),
    "sample": (
        ("D", "seed", "beta", "tau", "endpoint", "length", "draws", "rng_seed", "json"),
        {"D": "2", "seed": "1", "beta": "1", "tau": "identity:16",
         "draws": "1", "rng_seed": "0"},
        _run_sample,
    ),
    "conjugate": (
        ("q", "nu", "beta", "n_ladder", "seeds", "k", "random_count", "family_seed",
         "restarts", "passes", "ascent_seed", "csv", "json"),
        {"q": "1/2,1/2", "nu": "lebesgue:64", "beta": "1",
         "n_ladder": "64,128,256,512", "seeds": "1..5", "k": "4",
         "random_count": "8", "family_seed": "2026", "restarts": "3",
         "passes": "2", "ascent_seed": "9"},
        _run_conjugate,
    ),
    "klbudget": (
        ("q", "nu", "method", "n_ladder", "eps_ladder", "alpha_grid", "seeds",
         "budget", "json"),
        {"q": "1/2,1/2", "nu": "lebesgue:64", "method": "orderstats",
         "n_ladder": "6,8,10,12", "eps_ladder": "8,4,2",
         "alpha_grid": "0:1:0.05", "seeds": "1..5", "budget": _BUDGET_DEFAULT},
        _run_klbudget,
    ),
    "bernoulli": (
        ("D", "p", "s", "n_ladder", "seeds", "csv", "json"),
        {"D": "2", "p": "1/2", "s": "3/4", "n_ladder": "50,100,200", "seeds": "1..2"},
        _run_bernoulli,
    ),
    "verify": (("seed", "criteria", "json"), {"seed": "0"}, _run_verify),
}

def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        config = resolve_config(args)
        return _COMMANDS[config.command][2](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
