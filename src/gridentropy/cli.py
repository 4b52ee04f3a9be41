"""Command line front end: experiments, artifact emission, verification.

Configuration resolves in three layers: built-in defaults, then an
optional flat key=value file (--config), then explicit flags.  The
resolved configuration is embedded in every artifact (comment header in
CSV, a "config" object in JSON), so a result file names the run that
produced it.

CSV rows follow one fixed schema,

    method,D,seed,q_or_t,nu_id,n,epsilon_or_alpha,raw_value,extrapolated,band

sorted by (n, epsilon_or_alpha, seed).  SVG plots are rendered from
the CSV after it is written back through the parser, not from
in-memory state.

Exit codes: 0 success, 2 configuration error, 3 budget refusal, 4
verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .estimators import (
    DEFAULT_PATH_BUDGET,
    EntropyEstimate,
    estimate_entropy_eps,
    estimate_entropy_level,
    estimate_entropy_orderstats,
)
from .lattice import (
    BudgetError,
    Direction,
    Environment,
    TauFn,
    level_path_count,
    path_count,
)
from .measures import UNIT_MASS_TOL, Histogram, Measure
from .polymer import (
    DpTable, _dp_reach, _ladder_box, _ladder_fit, gibbs_estimate, last_passage,
    sample_polymer_paths,
)
from .prokhorov import prokhorov_distance
from .variational import (
    _search_bound,
    MAX_CELLS,
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


def _parse_eps_ladder(text: str) -> tuple[float, ...]:
    """Eps ladder: comma floats, all positive, strictly decreasing."""
    values = _parse_floats(text)
    if not all(v > 0.0 for v in values):
        raise ValueError(f"values must be positive, got {values}")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError(f"values must be strictly decreasing, got {values}")
    return values


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    """Grid: 'start:stop:step' inclusive, else comma floats."""
    if ":" in text:
        start_text, stop_text, step_text = text.split(":")
        start, stop, step = float(start_text), float(stop_text), float(step_text)
        if step <= 0 or stop < start:
            raise ValueError(f"bad grid {text!r}")
        count = int(round((stop - start) / step))
        grid = tuple(round(start + k * step, 12) for k in range(count + 1))
        return grid
    return _parse_floats(text)


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


def _parse_endpoint(text: str) -> tuple[int, ...]:
    endpoint = _parse_ints(text)
    if any(c < 0 for c in endpoint):
        raise ValueError(f"endpoint coordinates must be >= 0, got {endpoint}")
    return endpoint


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
    """One resolved run: the command plus its flat key -> value map."""

    command: str
    values: dict

    def has(self, key: str) -> bool:
        return key in self.values

    def raw(self, key: str) -> str:
        try:
            return self.values[key]
        except KeyError:
            flag = key.replace("_", "-")
            raise ConfigError(f"missing required field {key!r} (flag --{flag})") from None

    def _parse(self, key: str, parser: Callable[[str], object]):
        raw = self.raw(key)
        try:
            return parser(raw)
        except (ValueError, OverflowError, ZeroDivisionError, KeyError,
                json.JSONDecodeError) as exc:
            raise ConfigError(f"field {key}={raw!r}: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"field {key}={raw!r}: {exc}") from exc

    def int_(self, key: str, *, at_least: int | None = None, at_most: int | None = None) -> int:
        value = self._parse(key, int)
        if at_least is not None and value < at_least:
            raise ConfigError(f"field {key}={self.raw(key)!r}: must be >= {at_least}")
        if at_most is not None and value > at_most:
            raise ConfigError(f"field {key}={self.raw(key)!r}: must be <= {at_most}")
        return value

    def float_(self, key: str) -> float:
        return self._parse(key, _parse_rational)

    def dimension(self, key: str) -> int:
        return self.int_(key, at_least=1)

    def fraction(self, key: str) -> Fraction:
        return self._parse(key, Fraction)

    def direction(self, key: str) -> Direction:
        return self._parse(key, Direction.parse)

    def measure(self, key: str, *, ensemble: bool = False) -> tuple[Measure, str]:
        return self._target(key, _parse_measure, ensemble), self.raw(key)

    def target(self, key: str, *, ensemble: bool = False):
        return self._target(key, _parse_target, ensemble), self.raw(key)

    def _target(self, key: str, parser: Callable[[str], object], ensemble: bool):
        """A measure spec; a path-ensemble target must have positive total mass."""
        target = self._parse(key, parser)
        if ensemble and not target.total_mass > 0.0:
            raise ConfigError(f"field {key}={self.raw(key)!r}: total mass must be positive")
        return target

    def tau(self, key: str) -> tuple[TauFn, str]:
        return self._parse(key, _parse_tau), self.raw(key)

    def seeds(self, key: str) -> tuple[int, ...]:
        return self._parse(key, _parse_seed_list)

    def scales(self, key: str, *, at_least: int = 1) -> tuple[int, ...]:
        """Positive ladder scales, ``at_least`` of them distinct (two for an a + b/n fit)."""
        scales = self._parse(key, _parse_scale_ladder)
        if len(set(scales)) < at_least:
            raise ConfigError(f"field {key}={self.raw(key)!r}: need at least {at_least} "
                              f"distinct scales, got {len(set(scales))}")
        return scales

    def eps_ladder(self, key: str) -> tuple[float, ...]:
        return self._parse(key, _parse_eps_ladder)

    def alpha_grid(self, key: str) -> tuple[float, ...]:
        return self._parse(key, _parse_alpha_grid)

    def endpoint(self, key: str) -> tuple[int, ...]:
        return self._parse(key, _parse_endpoint)


# Flag spellings per key; every flag stores a plain string and the
# typed parse happens once, at use, with the field name in the error.
_FLAG_NAMES: dict[str, tuple[str, ...]] = {
    "D": ("--D",),
    "q": ("--q",),
    "t": ("--t",),
    "mu": ("--mu",),
    "nu": ("--nu",),
    "tau": ("--tau",),
    "beta": ("--beta",),
    "n_ladder": ("--n", "--n-ladder"),
    "eps_ladder": ("--eps", "--eps-ladder"),
    "alpha_grid": ("--alpha-grid",),
    "seeds": ("--seeds",),
    "seed": ("--seed",),
    "budget": ("--budget",),
    "threshold": ("--threshold",),
    "endpoint": ("--endpoint",),
    "length": ("--length",),
    "draws": ("--draws",),
    "rng_seed": ("--rng-seed",),
    "p": ("--p",),
    "s": ("--s",),
    "k": ("--k",),
    "random_count": ("--random-count",),
    "family_seed": ("--family-seed",),
    "restarts": ("--restarts",),
    "passes": ("--passes",),
    "ascent_seed": ("--ascent-seed",),
    "method": ("--method",),
    "criteria": ("--criteria",),
    "csv": ("--csv",),
    "json": ("--json",),
    "svg": ("--svg",),
}

_BUDGET_DEFAULT = str(DEFAULT_PATH_BUDGET)

_FLAG_HELP: dict[str, str] = {
    "budget": (f"most paths one profile may enumerate (default {_BUDGET_DEFAULT}); a profile "
               f"holds 8 bytes per path, so a budget-sized one peaks near "
               f"{8 * DEFAULT_PATH_BUDGET // 10**6} MB"),
}

# (accepted keys, defaults) per subcommand; keys without defaults are
# optional unless listed in _REQUIRED.
_COMMANDS: dict[str, tuple[tuple[str, ...], dict[str, str]]] = {
    "metric": (("mu", "nu", "json"), {}),
    "count": (("D", "endpoint", "length"), {}),
    "orderstats": (
        ("q", "nu", "n_ladder", "alpha_grid", "seeds", "threshold", "budget",
         "csv", "json", "svg"),
        {"q": "1/2,1/2", "nu": "lebesgue:64", "n_ladder": "6,8,10,12",
         "alpha_grid": "0:1:0.05", "seeds": "1..5", "budget": _BUDGET_DEFAULT},
    ),
    "entropy-eps": (
        ("q", "nu", "n_ladder", "eps_ladder", "seeds", "budget", "csv", "json", "svg"),
        {"q": "1/2,1/2", "nu": "lebesgue:64", "n_ladder": "6,8,10,12",
         "eps_ladder": "8,4,2", "seeds": "1..5", "budget": _BUDGET_DEFAULT},
    ),
    "entropy-level": (
        ("D", "t", "nu", "n_ladder", "eps_ladder", "seeds", "budget",
         "csv", "json", "svg"),
        {"D": "2", "t": "1", "nu": "lebesgue:64", "n_ladder": "6,8,10,12",
         "eps_ladder": "8,4,2", "seeds": "1..5", "budget": _BUDGET_DEFAULT},
    ),
    "gibbs": (
        ("D", "q", "beta", "tau", "n_ladder", "seeds", "csv", "json", "svg"),
        {"D": "2", "q": "1/2,1/2", "beta": "1", "tau": "zero",
         "n_ladder": "64..512", "seeds": "1..5"},
    ),
    "lpp": (
        ("D", "seed", "endpoint", "tau", "json"),
        {"D": "2", "seed": "1", "tau": "identity:16"},
    ),
    "sample": (
        ("D", "seed", "beta", "tau", "endpoint", "length", "draws", "rng_seed", "json"),
        {"D": "2", "seed": "1", "beta": "1", "tau": "identity:16",
         "draws": "1", "rng_seed": "0"},
    ),
    "conjugate": (
        ("q", "nu", "beta", "n_ladder", "seeds", "k", "random_count", "family_seed",
         "restarts", "passes", "ascent_seed", "csv", "json"),
        {"q": "1/2,1/2", "nu": "lebesgue:64", "beta": "1",
         "n_ladder": "64,128,256,512", "seeds": "1..5", "k": "4",
         "random_count": "8", "family_seed": "2026", "restarts": "3",
         "passes": "2", "ascent_seed": "9"},
    ),
    "klbudget": (
        ("q", "nu", "method", "n_ladder", "eps_ladder", "alpha_grid", "seeds",
         "budget", "json"),
        {"q": "1/2,1/2", "nu": "lebesgue:64", "method": "orderstats",
         "n_ladder": "6,8,10,12", "eps_ladder": "8,4,2",
         "alpha_grid": "0:1:0.05", "seeds": "1..5", "budget": _BUDGET_DEFAULT},
    ),
    "bernoulli": (
        ("D", "p", "s", "n_ladder", "seeds", "csv", "json"),
        {"D": "2", "p": "1/2", "s": "3/4", "n_ladder": "50,100,200", "seeds": "1..2"},
    ),
    "verify": (("seed", "criteria", "json"), {"seed": "0"}),
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "metric": ("mu", "nu"),
    "lpp": ("endpoint",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridentropy",
        description="Path-ensemble entropy experiments on the lattice.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (keys, _) in _COMMANDS.items():
        sub = subparsers.add_parser(command)
        sub.add_argument("--config", default=None, metavar="FILE",
                         help="flat key=value file supplying defaults")
        for key in keys:
            flags = _FLAG_NAMES[key]
            sub.add_argument(*flags, dest=key, default=None, metavar=key.upper(),
                             help=_FLAG_HELP.get(key))
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    command = args.command
    keys, defaults = _COMMANDS[command]
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
    for key in _REQUIRED.get(command, ()):
        if key not in values:
            flag = key.replace("_", "-")
            raise ConfigError(f"missing required field {key!r} (flag --{flag})")
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


_encode_str = json.encoder.encode_basestring_ascii


def _float_json(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _encode_json(obj, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``newline`` is "\\n" plus its indent.

    The text is ``json.dumps(obj, indent=2, sort_keys=True)`` after these
    coercions: keys through ``str``, tuples as lists, ``np.floating`` as
    float, ``np.integer`` as int, and ``Fraction`` or any other unknown
    object as its ``str``.
    """
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, value in sorted({str(key): value for key, value in obj.items()}.items()):
            out.append(sep)
            out.append(_encode_str(key) + ": ")
            _encode_json(value, inner, out)
            sep = comma
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, obj)) == {int}:
            # A path's steps: one join instead of one call per item.
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]")
            return
        sep, comma = "[" + inner, "," + inner
        for item in obj:
            out.append(sep)
            _encode_json(item, inner, out)
            sep = comma
        out.append(newline + "]")
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_json(float(obj)))
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    else:
        out.append(_encode_str(str(obj)))


def write_json(path: str, payload: dict) -> None:
    """One pass over ``payload``, byte-identical to ``json.dump(..., indent=2, sort_keys=True)``."""
    out: list[str] = []
    _encode_json(payload, "\n", out)
    out.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(out)


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


def _ladder_rows(est: EntropyEstimate, dimension: int, q_or_t: str, nu_id: str) -> list[tuple]:
    ordered = sorted(est.ladder, key=lambda row: (row.n, row.param, row.seed))
    return [
        (est.method, dimension, row.seed, q_or_t, nu_id, row.n, row.param,
         row.raw, est.extrapolated, est.band)
        for row in ordered
    ]


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


def _summary_payload(est: EntropyEstimate) -> dict:
    return {
        "method": est.method,
        "value": est.value,
        "extrapolated": est.extrapolated,
        "band": est.band,
        "diagnostics": est.diagnostics,
        "ladder_points": len(est.ladder),
    }


def _print_estimate(est: EntropyEstimate) -> None:
    print(f"method={est.method} value={_fmt(est.value)} band={_fmt(est.band)}")


# ---------------------------------------------------------------------------
# subcommands


def _run_metric(config: ExperimentConfig) -> int:
    mu, _ = config.measure("mu")
    nu, _ = config.measure("nu")
    distance = prokhorov_distance(mu, nu)
    print(_fmt(distance))
    _emit(config, (), {"distance": distance})
    return EXIT_OK


def _run_count(config: ExperimentConfig) -> int:
    has_endpoint = config.has("endpoint")
    has_length = config.has("length")
    if has_endpoint == has_length:
        raise ConfigError("give exactly one of --endpoint or --length")
    if has_endpoint:
        # Without --D the endpoint sets the dimension; a given D must agree.
        endpoint = (_endpoint_in(config, config.dimension("D")) if config.has("D")
                    else config.endpoint("endpoint"))
        print(path_count(endpoint))
    else:
        dimension = config.dimension("D") if config.has("D") else 2
        print(level_path_count(dimension, config.int_("length", at_least=0)))
    return EXIT_OK


def _run_orderstats(config: ExperimentConfig) -> int:
    q = config.direction("q")
    nu, nu_id = config.measure("nu", ensemble=True)
    n_ladder = config.scales("n_ladder", at_least=2)
    grid = config.alpha_grid("alpha_grid")
    seeds = config.seeds("seeds")
    budget = config.int_("budget", at_least=1)
    threshold = config.float_("threshold") if config.has("threshold") else None
    est = estimate_entropy_orderstats(
        seeds, q, nu, n_ladder, grid, threshold=threshold, budget=budget
    )
    _emit(config, _ladder_rows(est, q.dimension, str(q), nu_id), _summary_payload(est))
    _print_estimate(est)
    return EXIT_OK


def _run_entropy_eps(config: ExperimentConfig) -> int:
    q = config.direction("q")
    nu, nu_id = config.measure("nu", ensemble=True)
    n_ladder = config.scales("n_ladder", at_least=2)
    eps_ladder = config.eps_ladder("eps_ladder")
    seeds = config.seeds("seeds")
    budget = config.int_("budget", at_least=1)
    est = estimate_entropy_eps(seeds, q, nu, n_ladder, eps_ladder, budget=budget)
    _emit(config, _ladder_rows(est, q.dimension, str(q), nu_id), _summary_payload(est))
    _print_estimate(est)
    return EXIT_OK


def _run_entropy_level(config: ExperimentConfig) -> int:
    dimension = config.dimension("D")
    t = config.fraction("t")
    if t < 0:
        raise ConfigError(f"field t={config.raw('t')!r}: must be >= 0")
    nu, nu_id = config.measure("nu", ensemble=True)
    n_ladder = config.scales("n_ladder", at_least=2)
    eps_ladder = config.eps_ladder("eps_ladder")
    seeds = config.seeds("seeds")
    budget = config.int_("budget", at_least=1)
    est = estimate_entropy_level(seeds, dimension, nu, n_ladder, eps_ladder, t=t, budget=budget)
    _emit(config, _ladder_rows(est, dimension, str(t), nu_id), _summary_payload(est))
    _print_estimate(est)
    return EXIT_OK


def _config_reach(fields: str, scale: float, bound: float, depth: int, dimension: int) -> None:
    """Refuse the named fields when a DP's log weights could overflow float64."""
    try:
        _dp_reach(scale, bound, depth, dimension)
    except ValueError as err:
        raise ConfigError(f"field {fields}: {err}") from None


def _dp_tau(config: ExperimentConfig, beta: float | None, depth: int, dimension: int) -> TauFn:
    """The tau field, refused with beta when the DP's log weights could overflow."""
    tau, spec = config.tau("tau")
    fields = f"tau={spec!r}" + ("" if beta is None else f" with beta={config.raw('beta')!r}")
    _config_reach(fields, 1.0 if beta is None else abs(beta), tau.bound, depth, dimension)
    return tau


def _run_gibbs(config: ExperimentConfig) -> int:
    dimension = config.dimension("D")
    q_spec = config.raw("q")
    q = None if q_spec == "level" else config.direction("q")
    if q is not None:
        dimension = q.dimension
    beta = config.float_("beta")
    n_ladder = config.scales("n_ladder", at_least=2)
    tau = _dp_tau(config, beta, _ladder_box(n_ladder, q, dimension)[1], dimension)
    seeds = config.seeds("seeds")
    est = gibbs_estimate(seeds, beta, tau, n_ladder, q=q, dimension=dimension)
    q_or_t = str(q) if q is not None else "level"
    nu_id = config.values.get("tau", "zero")
    _emit(config, _ladder_rows(est, dimension, q_or_t, f"tau:{nu_id}"),
          _summary_payload(est))
    _print_estimate(est)
    return EXIT_OK


def _endpoint_in(config: ExperimentConfig, dimension: int) -> tuple[int, ...]:
    """The endpoint field, which must have one coordinate per dimension."""
    endpoint = config.endpoint("endpoint")
    if len(endpoint) != dimension:
        raise ConfigError(f"field endpoint={config.raw('endpoint')!r}: "
                          f"{len(endpoint)} coordinates, need D={dimension}")
    return endpoint


def _run_lpp(config: ExperimentConfig) -> int:
    env = Environment(config.int_("seed"), config.dimension("D"))
    endpoint = _endpoint_in(config, env.dimension)
    tau = _dp_tau(config, None, sum(endpoint), env.dimension)
    value, path = last_passage(env, endpoint, tau)
    print(_fmt(value))
    _emit(config, (), {"value": value, "start": list(path.start), "steps": list(path.steps)})
    return EXIT_OK


def _run_sample(config: ExperimentConfig) -> int:
    has_endpoint = config.has("endpoint")
    has_length = config.has("length")
    if has_endpoint == has_length:
        raise ConfigError("give exactly one of --endpoint or --length")
    env = Environment(config.int_("seed"), config.dimension("D"))
    beta = config.float_("beta")
    if has_endpoint:
        endpoint = _endpoint_in(config, env.dimension)
        depth = sum(endpoint)
    else:
        depth = config.int_("length", at_least=0)
    tau = _dp_tau(config, beta, depth, env.dimension)
    draws = config.int_("draws", at_least=1)
    rng_seed = config.int_("rng_seed")
    if has_endpoint:
        table = DpTable.point(env, endpoint, beta, tau)
    else:
        table = DpTable.level(env, depth, beta, tau)
    seeds = range(rng_seed, rng_seed + draws)
    samples = [path.steps for path in sample_polymer_paths(table, seeds)]
    # One write for the batch, to whatever sys.stdout is at call time.
    sys.stdout.write("".join([",".join(map(str, steps)) + "\n" for steps in samples]))
    _emit(config, (), {"samples": samples})
    return EXIT_OK


def _run_conjugate(config: ExperimentConfig) -> int:
    q = config.direction("q")
    nu, nu_id = config.measure("nu")
    beta = config.float_("beta")
    n_ladder = config.scales("n_ladder", at_least=2)
    seeds = config.seeds("seeds")
    k = config.int_("k", at_least=1, at_most=MAX_CELLS)
    random_count = config.int_("random_count", at_least=0)
    family_seed = config.int_("family_seed")
    family = default_tau_family(k, random_count=random_count, rng_seed=family_seed)
    restarts = config.int_("restarts", at_least=1)
    passes = config.int_("passes", at_least=0)
    _config_reach(f"beta={config.raw('beta')!r}", abs(beta), _search_bound(family, restarts, passes),
                  _ladder_box(n_ladder, q, q.dimension)[1], q.dimension)
    est = conjugate_entropy(
        seeds, q, nu, beta,
        tau_family=family,
        n_ladder=n_ladder,
        restarts=restarts,
        ascent_passes=passes,
        rng_seed=config.int_("ascent_seed"),
    )
    best_spec = est.diagnostics["best_tau"]
    best_tau = TauFn(tuple(best_spec["breakpoints"]), tuple(best_spec["values"]))
    # The estimate's ladder is the winning potential's free-energy ladder.
    _, gibbs_value, gibbs_band = _ladder_fit(est.ladder)
    sup_value = -est.value
    report = {
        "q": str(q),
        "beta": beta,
        "tau_id": json.loads(best_tau.to_json()),
        "family_id": f"signs:k={k}+random:{random_count}:seed:{family_seed}",
        "sup_value": sup_value,
        "argmax_nu_id": nu_id,
        "gibbs_value": gibbs_value,
        # Observable stand-in for the distance to the true supremum:
        # how much local refinement improved on the raw family maximum.
        "gap": est.diagnostics["refined_gain"],
        "bands": {"gibbs": gibbs_band, "entropy": est.band},
    }
    payload = _summary_payload(est)
    payload["report"] = report
    _emit(config, _ladder_rows(est, q.dimension, str(q), nu_id), payload)
    _print_estimate(est)
    return EXIT_OK


def _run_klbudget(config: ExperimentConfig) -> int:
    q = config.direction("q")
    target, nu_id = config.target("nu", ensemble=True)
    if abs(target.total_mass - 1.0) > UNIT_MASS_TOL:
        raise ConfigError(f"field nu={nu_id!r}: the KL budget needs total mass 1, "
                          f"got {target.total_mass}")
    method = config.raw("method")
    nu = target.to_measure() if isinstance(target, Histogram) else target
    n_ladder = config.scales("n_ladder", at_least=2)
    seeds = config.seeds("seeds")
    budget = config.int_("budget", at_least=1)
    if method == "orderstats":
        est = estimate_entropy_orderstats(
            seeds, q, nu, n_ladder, config.alpha_grid("alpha_grid"), budget=budget
        )
    elif method == "eps":
        est = estimate_entropy_eps(
            seeds, q, nu, n_ladder, config.eps_ladder("eps_ladder"), budget=budget
        )
    else:
        raise ConfigError(f"field method={method!r}: expected 'orderstats' or 'eps'")
    report = kl_budget_check(q, target, est)
    payload = _summary_payload(est)
    payload["report"] = asdict(report)
    payload["nu_id"] = nu_id
    _emit(config, (), payload)
    print(f"method={report.method} slack={_fmt(report.slack)} violation={report.violation}")
    return EXIT_OK


def _run_bernoulli(config: ExperimentConfig) -> int:
    p = config.float_("p")
    if not 0.0 < p < 1.0:
        raise ConfigError(f"field p={config.raw('p')!r}: need 0 < p < 1")
    s = config.float_("s")
    if not 0.0 < s <= 1.0:
        raise ConfigError(f"field s={config.raw('s')!r}: need 0 < s <= 1")
    n_ladder = config.scales("n_ladder")
    seeds = config.seeds("seeds")
    dimension = config.dimension("D")
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
        criteria = sorted(config.seeds("criteria"))
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


_RUNNERS: dict[str, Callable[[ExperimentConfig], int]] = {
    "metric": _run_metric,
    "count": _run_count,
    "orderstats": _run_orderstats,
    "entropy-eps": _run_entropy_eps,
    "entropy-level": _run_entropy_level,
    "gibbs": _run_gibbs,
    "lpp": _run_lpp,
    "sample": _run_sample,
    "conjugate": _run_conjugate,
    "klbudget": _run_klbudget,
    "bernoulli": _run_bernoulli,
    "verify": _run_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        return _RUNNERS[config.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
