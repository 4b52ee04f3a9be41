"""CLI tests: grammar parsing, config layering, artifact round-trips,
byte-stable emission across runs, and exit codes."""

import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, note, settings
from hypothesis import strategies as st
from json_oracle import json_text

from gridentropy import (
    Direction,
    Environment,
    Measure,
    TauFn,
    discretize_lebesgue,
    estimate_entropy_eps,
    gibbs_estimate,
    last_passage,
    prokhorov_brute,
)
from gridentropy import cli
from gridentropy.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    _COMMANDS,
    _flags,
    _parse_alpha_grid,
    _parse_measure,
    _parse_scale_ladder,
    _parse_seed_list,
    _parse_tau,
    main,
    read_csv,
    read_json,
    write_json,
)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# grammar


def test_seed_range_is_inclusive():
    """'a..b' for seeds means every integer from a through b."""
    assert _parse_seed_list("3..6") == (3, 4, 5, 6)
    assert _parse_seed_list("4,1,9") == (4, 1, 9)


def test_scale_range_doubles():
    """'a..b' for ladder scales doubles from a while staying <= b."""
    assert _parse_scale_ladder("8..64") == (8, 16, 32, 64)
    assert _parse_scale_ladder("64..2048") == (64, 128, 256, 512, 1024, 2048)
    assert _parse_scale_ladder("6,8,10") == (6, 8, 10)


def test_alpha_grid_colon_grammar():
    """'start:stop:step' builds the inclusive grid, and a step that does not
    divide the span stops at the last value <= stop, not past it."""
    assert _parse_alpha_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert _parse_alpha_grid("0:1:0.6") == (0.0, 0.6)
    assert _parse_alpha_grid("0.1:0.2:0.15") == (0.1,)
    assert _parse_alpha_grid("0:1:0.05") == tuple(k / 20 for k in range(21))
    assert _parse_alpha_grid("0.1,0.3") == (0.1, 0.3)


def test_measure_spec_lebesgue_matches_library():
    """lebesgue:m resolves to the midpoint discretization, atom for atom."""
    assert _parse_measure("lebesgue:16") == discretize_lebesgue(16)


def test_measure_spec_hist_and_atoms():
    """hist masses land on bin midpoints; atoms parse the JSON pair list."""
    mu = _parse_measure("hist:0.5,0.5,0,0")
    assert mu.atoms == ((0.125, 0.5), (0.375, 0.5))
    nu = _parse_measure("atoms:[[0.25, 1.0]]")
    assert nu.atoms == ((0.25, 1.0),)


def test_tau_specs_parse(tmp_path):
    """Every potential spelling builds the matching step function."""
    assert _parse_tau("zero") == TauFn.constant(0.0)
    assert _parse_tau("constant:2.5") == TauFn.constant(2.5)
    assert _parse_tau("identity:8") == TauFn.identity_ladder(8)
    assert _parse_tau("indicator:0.5") == TauFn.indicator(0.5)
    assert _parse_tau("values:1,0,-1") == TauFn.from_values([1.0, 0.0, -1.0])
    path = tmp_path / "tau.json"
    tau = TauFn.identity_ladder(4)
    path.write_text(json.dumps({"breakpoints": tau.breakpoints, "values": tau.values}))
    assert _parse_tau(f"@{path}") == TauFn.identity_ladder(4)


# simple subcommands


def test_count_prints_path_count(capsys):
    """count --endpoint prints the exact multinomial path count."""
    code, out, _ = _run(capsys, "count", "--D", "2", "--endpoint", "2,2")
    assert code == EXIT_OK
    assert out.strip() == "6"


def test_count_level_mode(capsys):
    """count --length prints D^length."""
    code, out, _ = _run(capsys, "count", "--D", "3", "--length", "4")
    assert code == EXIT_OK
    assert out.strip() == "81"


def test_count_endpoint_must_match_a_given_D(capsys):
    """Without --D the endpoint sets D; a given D that disagrees is exit 2."""
    code, out, _ = _run(capsys, "count", "--endpoint", "3,3,3")
    assert code == EXIT_OK
    assert out.strip() == "1680"
    code, _, err = _run(capsys, "count", "--D", "3", "--endpoint", "3,3")
    assert code == EXIT_CONFIG
    assert "endpoint=" in err and "D=3" in err
    code, out, _ = _run(capsys, "count", "--length", "4")
    assert code == EXIT_OK
    assert out.strip() == "16"


def test_count_requires_exactly_one_target(capsys):
    """Giving both endpoint and length is a config error."""
    code, _, err = _run(capsys, "count", "--endpoint", "2,2", "--length", "4")
    assert code == EXIT_CONFIG
    assert "exactly one" in err


def test_metric_matches_brute_oracle(tmp_path, capsys):
    """metric on measure files reproduces the brute-force distance."""
    rng = np.random.default_rng(17)
    for trial in range(5):
        mu = Measure(zip(rng.uniform(0, 1, 3), rng.uniform(0.1, 1, 3)))
        nu = Measure(zip(rng.uniform(0, 1, 2), rng.uniform(0.1, 1, 2)))
        mu_path = tmp_path / f"mu{trial}.json"
        nu_path = tmp_path / f"nu{trial}.json"
        mu_path.write_text(json.dumps(mu.atoms))
        nu_path.write_text(json.dumps(nu.atoms))
        code, out, _ = _run(
            capsys, "metric", "--mu", f"atoms:@{mu_path}", "--nu", f"atoms:@{nu_path}"
        )
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(prokhorov_brute(mu, nu), abs=1e-12)


def test_lpp_value_matches_library(capsys):
    """lpp prints the same passage time the library computes."""
    env = Environment(3, 2)
    tau = TauFn.identity_ladder(16)
    expected, _ = last_passage(env, (4, 3), tau)
    code, out, _ = _run(capsys, "lpp", "--seed", "3", "--endpoint", "4,3",
                        "--tau", "identity:16")
    assert code == EXIT_OK
    assert float(out.strip()) == expected


def test_sample_paths_have_endpoint_shape(capsys):
    """Sampled point-mode paths use each axis exactly endpoint-many times."""
    code, out, _ = _run(capsys, "sample", "--seed", "1", "--endpoint", "3,2",
                        "--beta", "1", "--tau", "identity:8", "--draws", "4",
                        "--rng-seed", "11")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        steps = [int(part) for part in line.split(",")]
        assert len(steps) == 5
        assert steps.count(0) == 3 and steps.count(1) == 2


def test_endpoint_of_the_wrong_dimension_is_a_config_error(capsys):
    """lpp and sample refuse an endpoint without D coordinates with exit 2."""
    for args in (("lpp", "--D", "2", "--endpoint", "3,3,3"),
                 ("sample", "--D", "3", "--endpoint", "3,3", "--beta", "1", "--draws", "1")):
        code, _, err = _run(capsys, *args, "--seed", "1", "--tau", "zero")
        assert code == EXIT_CONFIG
        assert "endpoint=" in err and "D=" in err


def test_sample_is_deterministic_in_rng_seed(capsys):
    """The same rng seed reproduces the same draws."""
    args = ("sample", "--seed", "2", "--length", "5", "--beta", "0.5",
            "--tau", "identity:8", "--draws", "3", "--rng-seed", "9")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


# ladder artifacts


EPS_ARGS = ("entropy-eps", "--q", "1/2,1/2", "--nu", "lebesgue:16",
            "--n", "4,6,8", "--eps", "4,2", "--seeds", "1,2")


def test_entropy_eps_csv_roundtrip(tmp_path, capsys):
    """The emitted CSV parses back: config header, schema, canonical order."""
    csv_path = tmp_path / "run.csv"
    code, _, _ = _run(capsys, *EPS_ARGS, "--csv", str(csv_path))
    assert code == EXIT_OK
    header, rows = read_csv(str(csv_path))
    assert header["command"] == "entropy-eps"
    assert header["q"] == "1/2,1/2"
    assert len(rows) == 3 * 2 * 2
    keys = [(row["n"], row["epsilon_or_alpha"], row["seed"]) for row in rows]
    assert keys == sorted(keys)
    assert {row["method"] for row in rows} == {"eps_sum"}
    assert {row["nu_id"] for row in rows} == {"lebesgue:16"}


def test_json_summary_matches_direct_estimator_call(tmp_path, capsys):
    """The CLI reports exactly what the library call reports."""
    json_path = tmp_path / "run.json"
    code, _, _ = _run(capsys, *EPS_ARGS, "--json", str(json_path))
    assert code == EXIT_OK
    payload = read_json(str(json_path))
    est = estimate_entropy_eps(
        (1, 2), Direction.parse("1/2,1/2"), discretize_lebesgue(16), (4, 6, 8), (4.0, 2.0)
    )
    assert payload["value"] == est.value
    assert payload["band"] == est.band
    assert payload["config"]["command"] == "entropy-eps"


def test_csv_bytes_stable_across_runs(tmp_path, monkeypatch, capsys):
    """Identical config emits identical bytes on a second run."""
    csv_path = tmp_path / "run.csv"
    monkeypatch.chdir(tmp_path)
    _run(capsys, *EPS_ARGS, "--csv", "run.csv")
    first = csv_path.read_bytes()
    _run(capsys, *EPS_ARGS, "--csv", "run.csv")
    assert csv_path.read_bytes() == first


_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def _int_matrix(dtype, rows: int, cols: int, seed: int) -> np.ndarray:
    """A (rows, cols) array of dtype, its values drawn over the whole dtype range."""
    info = np.iinfo(dtype)
    return np.random.default_rng(seed).integers(info.min, info.max, (rows, cols),
                                                dtype=dtype, endpoint=True)


_JSON_KEYS = st.one_of(st.integers(), st.text(), st.fractions())
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN, +-inf and -0.0 included
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.fractions(),
    st.text(),  # non-ASCII and control characters included
    st.builds(_int_matrix, st.sampled_from(_INT_DTYPES), st.integers(0, 5), st.integers(0, 4),
              st.integers(0, 2**32)),
    st.lists(st.floats(), max_size=6).map(lambda xs: np.array(xs, dtype=np.float64)[:, None]),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=6).map(np.array),  # 1-D
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(_JSON_KEYS, children, max_size=6),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(_JSON_KEYS, _JSON_TREES, max_size=4))
@example({"steps": [0, 1, True, 2], "ints": (3, -4, 2**70), "empty": [[], (), {}]})
@example({1: "int key", "1": "str key", Fraction(1, 2): [np.int64(5), np.bool_(False)]})
@example({"x": [math.nan, math.inf, -math.inf, -0.0, np.float64(1e300), "\u00e9\x00\n\ud800"]})
@example({
    "chunks": _int_matrix(np.int64, 2500, 3, 1),  # more than one _ROW_CHUNK
    "no rows": np.zeros((0, 4), np.int32),
    "depth 0": np.zeros((3, 0), np.int64),
    "negative": np.array([[-5, 0], [7, -128]], np.int8),
    "nested": [{"u64": np.array([[2**64 - 1, 0]], np.uint64)}, np.array([[1]], np.uint8)],
})
@example({
    "floats": np.array([[0.5, -1.25], [1e300, 2.0], [math.nan, -0.0]]),
    "flat": np.arange(4),
    "cube": np.arange(-4, 4).reshape(2, 2, 2),
    "bools": np.array([[True, False]]),
})
@example({"a": np.array([[0, 1], [1, 0]], np.uint8), "b": None, "c": [1.5]})  # step matrix first
@example({"a": 1, "m": np.array([[3, 12, 0]]), "z": {"k": ()}})  # middle
@example({"config": {"json": "s.json"}, "samples": np.array([[1, 0], [0, 1], [1, 1]])})  # last
@example({"samples": np.array([[9], [0]], np.int8)})  # only
@example({2: {10: [1, 2], 3: {1: 0.5}}, "samples": np.array([[0, 1]]), 1: {-1: True}})
def test_write_json_matches_stdlib_oracle(tmp_path, payload):
    """write_json writes exactly the bytes of the json.dumps oracle."""
    path = tmp_path / "payload.json"
    write_json(str(path), payload)
    text = path.read_bytes()
    path.unlink()  # a fresh file per example: truncating one can be slow
    assert text == json_text(payload).encode("utf-8")


# (head, sep, end) of a stdout line and of a JSON row of a top-level key.
_ROW_SHAPES = (("", ",", "\n"), ("\n    [\n      ", ",\n      ", "\n    ],"))


def _rows_oracle(rows: np.ndarray, head: str, sep: str, end: str) -> str:
    return "".join(head + sep.join(map(str, row)) + end for row in rows.tolist())


@pytest.mark.parametrize("shape", _ROW_SHAPES, ids=("stdout", "json"))
def test_digit_rows_match_the_oracle_for_every_dtype(shape):
    """Digit matrices (the byte template) give the oracle's text for every
    integer dtype, across chunk boundaries and depths 0 to 12."""
    for n in (0, 1, 1023, 1024, 1025, 2500):
        for depth in range(13):
            digits = np.random.default_rng(13 * n + depth).integers(0, 10, (n, depth))
            expected = _rows_oracle(digits, *shape)
            for dtype in _INT_DTYPES:
                assert "".join(cli._format_rows(digits.astype(dtype), *shape)) == expected


@pytest.mark.parametrize("shape", _ROW_SHAPES, ids=("stdout", "json"))
@pytest.mark.parametrize("value", [10, -1])
@pytest.mark.parametrize("row", [0, 1500, 2499])
def test_one_item_outside_0_to_9_formats_every_row_by_percent(shape, value, row):
    """One 10 or -1 anywhere in the matrix, past the first chunk too, keeps
    the whole matrix off the digit template (which would print ':' or '/')."""
    rows = np.random.default_rng(row).integers(0, 10, (2500, 6))
    rows[row, 3] = value
    assert "".join(cli._format_rows(rows, *shape)) == _rows_oracle(rows, *shape)


def test_formatting_holds_one_chunk_of_buffers_beyond_its_text():
    """A 300,000 x 12 step matrix of D = 10 formats within one chunk's buffers
    of its own text: past the yielded lines, at most the 1,024 x 24 byte line
    buffer, its bytes copy and the chunk's 1,024 x 12 int64 digits, 147,456
    bytes in all."""
    bound = 24_576 + 24_576 + 98_304
    rows = np.random.default_rng(0).integers(0, 10, (300_000, 12))
    tracemalloc.start()
    try:
        lines = list(cli._format_rows(rows, "", ",", "\n"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = sum(map(sys.getsizeof, lines))
    assert sum(map(len, lines)) == 300_000 * 24
    assert peak - text <= bound


def test_write_json_formats_only_2d_integer_arrays(tmp_path, monkeypatch):
    """Float, boolean and non-2-D arrays, and integer arrays without items,
    take the generic path; a 2-D integer array with items is formatted by rows."""
    calls = []
    format_rows = cli._format_rows
    monkeypatch.setattr(cli, "_format_rows",
                        lambda *args: calls.append(args[0].shape) or format_rows(*args))
    path = tmp_path / "payload.json"
    for array in (np.array([[0.5, 2.7], [-1.5, 3.0]]), np.array([[True], [False]]),
                  np.arange(3), np.arange(8).reshape(2, 2, 2), np.array(7),
                  np.zeros((0, 3), np.int64), np.zeros((2, 0), np.int64)):
        write_json(str(path), {"a": array})
        assert path.read_text() == json_text({"a": array})
    assert calls == []
    write_json(str(path), {"a": _int_matrix(np.int16, 3, 2, 0)})
    assert calls == [(3, 2)]


def test_sample_json_matches_stdlib_oracle(tmp_path, capsys):
    """A 500-draw sample artifact is the stdlib's dump of its own contents."""
    path = tmp_path / "s.json"
    code, out, _ = _run(capsys, "sample", "--D", "2", "--seed", "1", "--endpoint", "3,3",
                        "--draws", "500", "--tau", "identity:16", "--json", str(path))
    assert code == EXIT_OK
    payload = read_json(str(path))
    assert len(payload["samples"]) == 500
    assert path.read_bytes() == json_text(payload).encode("utf-8")
    assert out == "".join(",".join(map(str, steps)) + "\n" for steps in payload["samples"])


@pytest.mark.parametrize("target", [("--endpoint", "0,0"), ("--length", "0"),
                                    ("--endpoint", "4,5"), ("--D", "3", "--length", "4")])
@pytest.mark.parametrize("draws", ["1", "2500"])
def test_sample_stdout_rows_are_the_json_samples(tmp_path, capsys, target, draws):
    """stdout prints each JSON sample as one comma-joined line, depth 0 and
    draws past one chunk of rows included."""
    path = tmp_path / "s.json"
    code, out, _ = _run(capsys, "sample", "--seed", "4", *target, "--draws", draws,
                        "--tau", "identity:16", "--json", str(path))
    assert code == EXIT_OK
    samples = read_json(str(path))["samples"]
    assert len(samples) == int(draws)
    assert {len(steps) for steps in samples} == {sum(map(int, target[-1].split(",")))}
    assert out == "".join(",".join(map(str, steps)) + "\n" for steps in samples)
    assert path.read_bytes() == json_text(read_json(str(path))).encode("utf-8")


def test_orderstats_rows_cover_the_grid(tmp_path, capsys):
    """orderstats emits one row per (alpha, seed, n) grid point."""
    csv_path = tmp_path / "os.csv"
    code, out, _ = _run(capsys, "orderstats", "--q", "1/2,1/2", "--nu", "lebesgue:16",
                        "--n", "4,6", "--alpha-grid", "0:0.4:0.2", "--seeds", "1,2",
                        "--csv", str(csv_path))
    assert code == EXIT_OK
    _, rows = read_csv(str(csv_path))
    assert len(rows) == 3 * 2 * 2
    assert {row["epsilon_or_alpha"] for row in rows} == {0.0, 0.2, 0.4}
    assert "method=orderstats" in out


def test_entropy_level_runs_with_rational_scale(tmp_path, capsys):
    """entropy-level accepts a rational t and stamps it in the rows."""
    csv_path = tmp_path / "level.csv"
    code, _, _ = _run(capsys, "entropy-level", "--D", "2", "--t", "1",
                      "--nu", "lebesgue:16", "--n", "4,6,8", "--eps", "4,2",
                      "--seeds", "1,2", "--csv", str(csv_path))
    assert code == EXIT_OK
    _, rows = read_csv(str(csv_path))
    assert {row["q_or_t"] for row in rows} == {"1"}
    assert {row["method"] for row in rows} == {"eps_sum_level"}


def test_entropy_level_with_a_repeated_scale_runs(tmp_path, capsys):
    """--n 4,4,5 leaves one distinct exact scale for the balanced-direction
    cross-check; the run succeeds and reports no cross-check estimate."""
    json_path = tmp_path / "level.json"
    code, out, err = _run(capsys, "entropy-level", "--n", "4,4,5", "--seeds", "1",
                          "--nu", "lebesgue:8", "--json", str(json_path))
    assert code == EXIT_OK, err
    assert out.startswith("method=eps_sum_level value=")
    assert read_json(str(json_path))["diagnostics"]["balanced_direction_estimate"] is None


@pytest.mark.parametrize("eps", ["nan,1", "1,nan", "2,1,1"])
def test_an_eps_ladder_that_is_not_positive_and_decreasing_names_its_field(capsys, eps):
    """The library's eps-ladder rule, NaN included, reaches the CLI as a
    config error naming eps_ladder, before any rung runs."""
    code, _, err = _run(capsys, "entropy-level", "--eps", eps, "--n", "4,6", "--seeds", "1")
    assert code == EXIT_CONFIG
    assert f"eps_ladder={eps!r}" in err and "Traceback" not in err


def test_conjugate_refusals_name_the_counts_the_library_reads(capsys):
    """k, random_count and family_seed are checked by default_tau_family, and
    restarts and passes by the search bound; a search of the family alone
    (restarts 0, passes 0) runs."""
    base = ("conjugate", "--n", "8,16", "--seeds", "1", "--k", "2", "--random-count", "1")
    code, _, err = _run(capsys, *base, "--restarts", "0", "--passes", "1")
    assert code == EXIT_CONFIG and "restarts='0', passes='1'" in err
    code, out, _ = _run(capsys, *base, "--restarts", "0", "--passes", "0")
    assert code == EXIT_OK and out.startswith("method=conjugate value=")


def test_gibbs_range_ladder_and_accuracy(tmp_path, capsys):
    """'--n 64..256' doubles through the range; tau=0 lands near log 2."""
    csv_path = tmp_path / "gibbs.csv"
    code, _, _ = _run(capsys, "gibbs", "--D", "2", "--q", "1/2,1/2", "--beta", "1",
                      "--tau", "zero", "--n", "64..256", "--seeds", "1,2,3",
                      "--csv", str(csv_path), "--json", str(tmp_path / "gibbs.json"))
    assert code == EXIT_OK
    _, rows = read_csv(str(csv_path))
    assert {row["n"] for row in rows} == {64, 128, 256}
    payload = read_json(str(tmp_path / "gibbs.json"))
    assert abs(payload["value"] - math.log(2)) < 0.05


def test_svg_renders_from_the_csv(tmp_path, capsys):
    """--svg emits a plot built by re-parsing the CSV it just wrote."""
    csv_path = tmp_path / "run.csv"
    svg_path = tmp_path / "run.svg"
    code, _, _ = _run(capsys, *EPS_ARGS, "--csv", str(csv_path), "--svg", str(svg_path))
    assert code == EXIT_OK
    text = svg_path.read_text()
    assert text.startswith("<svg ")
    assert "<polyline" in text
    assert text.rstrip().endswith("</svg>")


def test_svg_without_csv_is_a_config_error(tmp_path, capsys):
    """Plots are rendered from the CSV, so asking for one alone fails."""
    code, _, err = _run(capsys, *EPS_ARGS, "--svg", str(tmp_path / "run.svg"))
    assert code == EXIT_CONFIG
    assert "csv" in err.lower()


def test_svg_without_csv_is_refused_before_the_estimator_runs(tmp_path, monkeypatch, capsys):
    """The svg/csv pairing is checked with the configuration, so no estimate is spent."""
    def broken(*args, **kwargs):
        raise AssertionError("the estimator ran")

    monkeypatch.setattr("gridentropy.cli.gibbs_estimate", broken)
    code, out, err = _run(capsys, "gibbs", "--n", "64..1024", "--seeds", "1..2",
                          "--svg", str(tmp_path / "x.svg"))
    assert code == EXIT_CONFIG
    assert out == ""
    assert "csv" in err.lower()


@pytest.mark.parametrize("argv, field", [
    (["verify", "--criteria", "11", "--json", "{missing}/v.json"], "json"),
    (["sample", "--endpoint", "3,3", "--draws", "5", "--json", "{missing}/s.json"], "json"),
    (["entropy-eps", "--n", "4,6", "--seeds", "1", "--nu", "lebesgue:8",
      "--csv", "{tmp}/ok.csv", "--json", "{missing}/e.json"], "json"),
    (["entropy-eps", "--n", "4,6", "--seeds", "1", "--nu", "lebesgue:8",
      "--csv", "{tmp}", "--json", "{tmp}/e.json"], "csv"),
    (["gibbs", "--n", "8,16", "--seeds", "1", "--csv", "{tmp}/ok.csv",
      "--svg", "{missing}/g.svg"], "svg"),
], ids=["verify-json", "sample-json", "eps-json", "csv-is-a-directory", "gibbs-svg"])
def test_an_artifact_path_that_cannot_be_written_is_refused_before_any_work(
        tmp_path, capsys, argv, field):
    """A csv/json/svg path in a missing directory, or naming a directory, is a
    config error that names its field before anything runs or is written."""
    argv = [arg.format(tmp=tmp_path, missing=tmp_path / "missing") for arg in argv]
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert f"field {field}=" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value", [("nu", "lebesgue:8\n"), ("seeds", "1\r"),
                                        ("csv", "{tmp}/x\n.csv")])
def test_a_value_with_a_line_break_is_a_config_error(tmp_path, capsys, key, value):
    """No field value may hold a line break, which would break the CSV's
    one-line config header; a multi-line spec is read from @FILE."""
    values = {"nu": "lebesgue:8", "seeds": "1", "csv": "{tmp}/x.csv", key: value}
    argv = ["entropy-eps", "--n", "4,6", "--svg", "{tmp}/x.svg"]
    for name, text in values.items():
        argv += [_flags(name)[-1], text]
    code, out, err = _run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == EXIT_CONFIG
    assert f"field {key}=" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_a_multi_line_spec_file_still_reads(tmp_path, capsys):
    """Line breaks inside an @FILE spec are the file's, not a flag value's."""
    spec = tmp_path / "nu.json"
    spec.write_text("[\n  [0.25, 0.5],\n  [0.75, 0.5]\n]\n")
    code, _, _ = _run(capsys, "entropy-eps", "--n", "4,6", "--seeds", "1",
                      "--nu", f"atoms:@{spec}", "--csv", str(tmp_path / "x.csv"),
                      "--svg", str(tmp_path / "x.svg"))
    assert code == EXIT_OK
    header, rows = read_csv(str(tmp_path / "x.csv"))
    assert header["nu"] == f"atoms:@{spec}"
    assert rows


def test_read_csv_rejects_foreign_columns(tmp_path):
    """The round-trip parser refuses files with a different schema."""
    path = tmp_path / "bad.csv"
    path.write_text("# command=x\na,b\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(str(path))


# config resolution


def test_config_file_layered_under_flags(tmp_path, capsys):
    """Flags override file values; the header shows the resolved result."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("q=1/2,1/2\nnu=lebesgue:16\nn_ladder=4,6\neps_ladder=4,2\nseeds=1,2\n")
    csv_path = tmp_path / "run.csv"
    code, _, _ = _run(capsys, "entropy-eps", "--config", str(cfg),
                      "--seeds", "3,4", "--csv", str(csv_path))
    assert code == EXIT_OK
    header, rows = read_csv(str(csv_path))
    assert header["seeds"] == "3,4"
    assert header["n_ladder"] == "4,6"
    assert {row["seed"] for row in rows} == {3, 4}


def test_config_file_line_diagnostics(tmp_path, capsys):
    """A malformed line is reported with its file and line number."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("q=1/2,1/2\nnot a pair\n")
    code, _, err = _run(capsys, "entropy-eps", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert f"{cfg}:2" in err


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    """Keys the command does not accept are named in the error."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key=1\n")
    code, _, err = _run(capsys, "entropy-eps", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "bogus_key" in err


def test_bad_field_value_names_the_field(capsys):
    """Unparseable field values exit 2 and name the offending field."""
    code, _, err = _run(capsys, "entropy-eps", "--q", "one-half,one-half")
    assert code == EXIT_CONFIG
    assert "q=" in err


def test_missing_required_field(capsys):
    """A command without a field it needs is a config error naming the field
    and its flag, not a crash."""
    for argv, key in ((("metric", "--nu", "lebesgue:4"), "mu"),
                      (("metric", "--mu", "lebesgue:4"), "nu"),
                      (("lpp", "--tau", "zero"), "endpoint")):
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"config error: missing required field {key!r} (flag --{key})\n"


def test_infinite_atom_mass_is_a_config_error(capsys):
    """An atom of infinite mass exits 2 naming the field, not a distance of inf."""
    code, out, err = _run(capsys, "metric", "--mu", "atoms:[[0.5,Infinity]]",
                          "--nu", "lebesgue:4")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "mu=" in err and "inf" in err


@pytest.mark.parametrize("argv, field", [
    (("entropy-eps", "--n", "0,4"), "n_ladder="),
    (("bernoulli", "--n", "0"), "n_ladder="),
    (("gibbs", "--n", "8"), "n_ladder="),
    (("gibbs", "--n", "8,8"), "n_ladder="),
    (("entropy-eps", "--n", "8"), "n_ladder="),
    (("entropy-level", "--n", "4"), "n_ladder="),
    (("orderstats", "--n", "6"), "n_ladder="),
    (("conjugate", "--n", "64"), "n_ladder="),
    (("klbudget", "--n", "6"), "n_ladder="),
    (("entropy-eps", "--eps", "0"), "eps_ladder="),
    (("entropy-level", "--eps", "4,-2"), "eps_ladder="),
    (("klbudget", "--method", "eps", "--eps", "0"), "eps_ladder="),
    (("bernoulli", "--p", "1"), "p="),
    (("bernoulli", "--s", "0"), "s="),
    (("bernoulli", "--D", "0"), "D="),
    (("bernoulli", "--D", "-1"), "D="),
    (("gibbs", "--D", "0", "--q", "level"), "D="),
    (("sample", "--D", "0", "--length", "3"), "D="),
    (("count", "--D", "0", "--length", "3"), "D="),
    (("count", "--length", "-1"), "length="),
    (("sample", "--D", "2", "--length", "-1"), "length="),
    (("conjugate", "--k", "0"), "k="),
    (("conjugate", "--k", "9"), "k="),
    (("entropy-eps", "--eps", "1,2"), "eps_ladder="),
    (("entropy-eps", "--eps", "2,2"), "eps_ladder="),
    (("entropy-level", "--t", "-1"), "t="),
    (("orderstats", "--nu", "hist:0,0,0"), "nu="),
    (("entropy-eps", "--nu", "hist:0,0,0"), "nu="),
    (("entropy-level", "--nu", "hist:0,0,0"), "nu="),
    (("klbudget", "--nu", "hist:0,0"), "nu="),
    (("verify", "--criteria", "13"), "criteria="),
    (("verify", "--criteria", "0"), "criteria="),
    (("klbudget", "--nu", "hist:0.3,0.3", "--n", "4,6", "--seeds", "1"), "nu="),
    (("klbudget", "--nu", "atoms:[[0.5,0.6]]", "--n", "4,6", "--seeds", "1"), "nu="),
    (("orderstats", "--budget", "0"), "budget="),
    (("entropy-eps", "--budget", "-5"), "budget="),
    (("entropy-level", "--budget", "0"), "budget="),
    (("klbudget", "--budget", "-5"), "budget="),
    (("conjugate", "--restarts", "0", "--n", "8,16", "--seeds", "1"), "restarts="),
    (("conjugate", "--passes", "-1", "--n", "8,16", "--seeds", "1"), "passes="),
    (("conjugate", "--random-count", "-1", "--n", "8,16", "--seeds", "1"), "random_count="),
    (("gibbs", "--beta", "1e400"), "beta="),
    (("orderstats", "--threshold", "1e400", "--n", "4,6", "--seeds", "1"), "threshold="),
    (("bernoulli", "--s", "1e400"), "s="),
    (("conjugate", "--beta", "1e308", "--n", "8,16", "--seeds", "1", "--k", "2",
      "--random-count", "0", "--restarts", "1", "--passes", "0"), "beta="),
    (("conjugate", "--beta", "2e298", "--n", "8,16", "--seeds", "1", "--k", "2",
      "--random-count", "0", "--restarts", "1", "--passes", "2"), "beta="),
    (("orderstats", "--alpha-grid", "nan", "--n", "4,6", "--seeds", "1"), "alpha_grid="),
    (("orderstats", "--alpha-grid=-0.1", "--n", "4,6", "--seeds", "1"), "alpha_grid="),
    (("orderstats", "--alpha-grid=-1:1:0.5", "--n", "4,6", "--seeds", "1"), "alpha_grid="),
    (("klbudget", "--method", "orderstats", "--alpha-grid", "nan", "--n", "4,6", "--seeds", "1"),
     "alpha_grid="),
    (("conjugate", "--family-seed=-1", "--n", "2,4", "--seeds", "1"), "family_seed="),
    (("conjugate", "--ascent-seed=-1", "--n", "2,4", "--seeds", "1"), "ascent_seed="),
    (("entropy-level", "--t", "0", "--n", "4,6", "--seeds", "1"), "t="),
    (("entropy-eps", "--n", "2,4", "--seeds", "1", "--eps", "1e-320"), "eps_ladder="),
    (("entropy-level", "--n", "2,4", "--seeds", "1", "--eps", "1e-320"), "eps_ladder="),
    (("klbudget", "--method", "eps", "--n", "2,4", "--seeds", "1", "--eps", "1e-320"),
     "eps_ladder="),
    (("entropy-eps", "--n", "4,6", "--seeds", "1", "--eps", "2,1e-308"), "n_ladder="),
    (("entropy-level", "--t", "1/1000", "--n", "2,4", "--seeds", "1"), "t="),
    (("entropy-level", "--t", "1/8", "--n", "4,16", "--seeds", "1"), "n_ladder="),
    *((("conjugate", "--nu", f"atoms:[[{position},1]]", "--n", "8,16", "--seeds", "1", "--k", "2",
        "--random-count", "0", "--restarts", "1", "--passes", "0"), "nu=")
      for position in ("2.0", "-0.5")),
])
def test_bad_ladder_is_a_config_error(capsys, argv, field):
    """Non-positive scales or eps, a single scale where an a + b/n fit
    needs two, a dimension below 1, a negative length, a cell count k
    outside 1..8, a Bernoulli p outside (0, 1) or s outside (0, 1], an
    eps ladder that does not strictly decrease, a level scale t that
    is not > 0, an ensemble target of zero total mass, a KL-budget
    target whose mass is not 1, a path budget below 1, fewer than one conjugate
    restart, a negative ascent pass or random-member count, a
    conjugate beta whose DP log weights could overflow over the
    potentials the search can reach, an
    unknown verify criterion, a number past the float range, an alpha
    grid value that is not >= 0 (NaN included), a negative conjugate
    RNG seed, an eps so small that the cost scale n/eps overflows at the
    largest n, a level ladder with a scale where floor(n t) = 0, and a
    conjugate target atom outside [0, 1] exit 2 naming the field before
    any estimator runs."""
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert field in err


@pytest.mark.parametrize("argv, fields", [
    (("gibbs", "--tau", "constant:1e308", "--n", "4,8", "--seeds", "1"), ("tau=", "beta=")),
    (("lpp", "--endpoint", "2,2", "--tau", "constant:1e308"), ("tau=",)),
    (("sample", "--endpoint", "2,2", "--beta", "1e308", "--draws", "3"), ("tau=", "beta=")),
])
def test_dp_weights_past_the_float_range_are_a_config_error(capsys, argv, fields):
    """A beta and tau whose DP log weights would overflow to inf or NaN exit 2
    naming them, with no value printed."""
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert all(field in err for field in fields)


@pytest.mark.parametrize("position", ["2.0", "-0.5"])
def test_metric_takes_any_finite_atom_position(capsys, position):
    """metric measures atoms outside [0, 1] too; only the conjugate,
    whose potentials live on [0, 1], refuses them."""
    code, out, _ = _run(capsys, "metric", "--mu", f"atoms:[[{position},1]]", "--nu", "lebesgue:4")
    assert code == EXIT_OK and float(out) > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_conjugate_inside_its_reach_bound_runs_clean(capsys):
    """A beta just inside the conjugate's reach bound runs the whole search,
    its speculative evaluations included, with no overflow warning and a
    finite value."""
    code, out, _ = _run(capsys, "conjugate", "--beta", "1e297", "--n", "8,16", "--seeds", "1",
                        "--k", "2", "--random-count", "0", "--restarts", "2", "--passes", "2")
    assert code == EXIT_OK
    assert math.isfinite(float(out.split("value=")[1].split()[0]))


def test_library_value_errors_are_not_config_errors(monkeypatch):
    """Only the config layer maps bad input to exit 2; a ValueError raised
    inside a run propagates."""
    def broken(*args, **kwargs):
        raise ValueError("not a config problem")

    monkeypatch.setattr("gridentropy.cli.gibbs_estimate", broken)
    with pytest.raises(ValueError, match="not a config problem"):
        main(["gibbs", "--n", "8,16", "--seeds", "1"])


def test_budget_refusal_exit_code(capsys):
    """An enumeration past the budget refuses with its own exit code."""
    code, _, err = _run(capsys, "entropy-eps", "--n", "40,44", "--seeds", "1",
                        "--eps", "2", "--budget", "1000000")
    assert code == EXIT_BUDGET
    assert "budget" in err


# reports


def test_conjugate_report_schema(tmp_path, capsys):
    """The conjugate JSON carries the full duality report block, and its free
    energy is the winning potential's ``gibbs_estimate``."""
    json_path = tmp_path / "conj.json"
    code, _, _ = _run(capsys, "conjugate", "--q", "1/2,1/2", "--nu", "lebesgue:16",
                      "--beta", "1", "--n", "16,32", "--seeds", "1,2", "--k", "2",
                      "--random-count", "2", "--restarts", "1", "--passes", "1",
                      "--json", str(json_path))
    assert code == EXIT_OK
    report = read_json(str(json_path))["report"]
    for key in ("q", "beta", "tau_id", "family_id", "sup_value",
                "argmax_nu_id", "gibbs_value", "gap", "bands"):
        assert key in report
    assert report["sup_value"] == -read_json(str(json_path))["value"]
    tau = TauFn(tuple(report["tau_id"]["breakpoints"]), tuple(report["tau_id"]["values"]))
    winner = gibbs_estimate((1, 2), 1.0, tau, (16, 32), q=Direction.parse("1/2,1/2"))
    assert report["gibbs_value"] == winner.value
    assert report["bands"]["gibbs"] == winner.band


def test_klbudget_lebesgue_target_has_zero_kl(tmp_path, capsys):
    """Uniform histogram targets charge no relative entropy."""
    json_path = tmp_path / "kl.json"
    code, out, _ = _run(capsys, "klbudget", "--q", "1/2,1/2", "--nu", "lebesgue:16",
                        "--method", "orderstats", "--n", "4,6,8",
                        "--alpha-grid", "0:0.6:0.1", "--seeds", "1,2",
                        "--json", str(json_path))
    assert code == EXIT_OK
    report = read_json(str(json_path))["report"]
    assert report["kl"] == 0.0
    assert "slack=" in out


def test_bernoulli_emits_exponent_rows(tmp_path, capsys):
    """bernoulli writes one exponent row per (n, seed) and a verdict."""
    csv_path = tmp_path / "bern.csv"
    code, out, _ = _run(capsys, "bernoulli", "--p", "1/2", "--s", "3/4",
                        "--n", "20,40", "--seeds", "1,2", "--csv", str(csv_path))
    assert code == EXIT_OK
    _, rows = read_csv(str(csv_path))
    assert len(rows) == 4
    assert all(row["epsilon_or_alpha"] == 0.75 for row in rows)
    assert "within_budget=True" in out


def test_verify_single_criterion(capsys):
    """verify --criteria 1 prints the table and exits clean."""
    code, out, _ = _run(capsys, "verify", "--criteria", "1")
    assert code == EXIT_OK
    assert "pass" in out
    assert "crit" in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    """Any failing criterion turns into the verification exit code."""
    import gridentropy.verification as verification
    from gridentropy.verification import CheckRow, CriterionReport

    failing = CriterionReport(
        criterion=1,
        title="stub",
        rows=(CheckRow(1, "stub check", 1.0, 0.5, False),),
        seconds=0.0,
        budget_seconds=10.0,
    )

    class StubSuite:
        def __init__(self, base_seed):
            pass

        def run(self, criteria=None):
            return [failing]

    monkeypatch.setattr(verification, "VerificationSuite", StubSuite)
    code, out, _ = _run(capsys, "verify")
    assert code == EXIT_VERIFY
    assert "FAIL" in out


# property: no argv crashes the CLI

# Small well-formed values for every field the property test sets.
_FIELD_VALUES = {
    "D": ("1", "2", "3"),
    "q": ("1/2,1/2", "1", "1,0", "1/4,1/2", "level"),
    "t": ("1", "1/2"),
    "mu": ("lebesgue:4", "atoms:[[0.5,1]]", "hist:0.5,0.5"),
    "nu": ("lebesgue:4", "atoms:[[0.25,0.5],[0.75,0.5]]", "hist:0.5,0.5", "atoms:[[0.5,1]]"),
    "tau": ("zero", "identity:4", "constant:0.5", "indicator:0.5", "values:0,1"),
    "beta": ("0.5", "1", "2"),
    "n_ladder": ("2,4", "4,6", "4,8", "2..8"),
    "eps_ladder": ("2,1", "4,2,1"),
    "alpha_grid": ("0:1:0.5", "0,0.25", "0.5"),
    "seeds": ("1", "1,2", "1..2"),
    "seed": ("1", "2"),
    "budget": ("100000", "10"),
    "threshold": ("0.5", "0.1"),
    "endpoint": ("2,2", "3,1", "1,1,1", "4"),
    "length": ("3", "1"),
    "draws": ("3",),
    "rng_seed": ("0", "5"),
    "p": ("1/2", "0.3"),
    "s": ("3/4", "0.6"),
    "k": ("2", "4"),
    "random_count": ("2",),
    "family_seed": ("1",),
    "restarts": ("1", "2"),
    "passes": ("1",),
    "ascent_seed": ("1",),
    "method": ("orderstats", "eps"),
}
_MALFORMED = ("nan", "inf", "-1", "0", "", "1e-320", "nan,1")
# Fields always set, so that no default runs at full size.
_SIZED = ("n_ladder", "seeds")


@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_no_argv_crashes_the_cli(capsys, data):
    """Any command but verify, at small sizes, exits 0, 2, 3 or 4 and never
    raises: with well-formed field values, and with each field in turn
    given one malformed value."""
    command = data.draw(st.sampled_from([c for c in _COMMANDS if c != "verify"]))
    keys = [key for key in _COMMANDS[command][0] if key in _FIELD_VALUES]
    values = {key: data.draw(st.sampled_from(_FIELD_VALUES[key])) for key in keys
              if key in _SIZED or data.draw(st.booleans())}
    malformed = data.draw(st.sampled_from(_MALFORMED))
    for bad in (None, *keys):
        fields = {**values, bad: malformed} if bad else values
        argv = [command, *(f"{_flags(key)[0]}={value}" for key, value in fields.items())]
        note(argv)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BUDGET, EXIT_VERIFY)
        assert "Traceback" not in capsys.readouterr().err


def test_a_level_scale_past_every_budget_is_refused_at_once():
    """entropy-level --t 1e400 (length n * 10^400) is refused before D^length is
    computed; in a child process, so that a regression times out instead of hanging."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys; from gridentropy.cli import main; sys.exit(main(sys.argv[1:]))"
    child = subprocess.run(
        [sys.executable, "-c", code, "entropy-level", "--t", "1e400", "--n", "2,4", "--seeds", "1"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=20)
    assert child.returncode == EXIT_BUDGET
    assert "budget refusal" in child.stderr and "Traceback" not in child.stderr


@pytest.mark.parametrize("argv", [
    ("gibbs", "--q", "1e400,1", "--beta", "1", "--n", "2,4", "--seeds", "1"),
    ("gibbs", "--q", "1e200,1", "--beta", "1", "--n", "2,4", "--seeds", "1"),
    ("gibbs", "--q", "level", "--n", "2,10000000000000", "--seeds", "1"),
    ("conjugate", "--q", "1e400,1", "--n", "2,4", "--seeds", "1"),
    ("gibbs", "--q", "1e5000,1", "--n", "2,4", "--seeds", "1"),
    ("conjugate", "--q", "1e5000,1", "--n", "2,4", "--seeds", "1"),
])
def test_a_ladder_box_past_int64_indexing_names_q(capsys, argv):
    """A free-energy ladder whose box cannot be indexed exits 2 naming q, not
    with an OverflowError from the reach bound, nor with the int-to-str digit
    limit for a side past it."""
    code, _, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert f"field q={argv[2]!r}" in err and "too large to index" in err


# Address-space cap of a _run_child child: every case fits under it (numpy
# reserves some address space at import), and a runaway allocation ends in
# MemoryError instead of growing until the timeout.
_CHILD_ADDRESS_SPACE = 4 << 30


def _cap_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = (_CHILD_ADDRESS_SPACE if hard == resource.RLIM_INFINITY
            else min(hard, _CHILD_ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _run_child(*argv, prelude=""):
    """The CLI in a child process under an address-space cap, so that a
    regression times out or fails with MemoryError instead of hanging or
    taking the machine's memory.  ``prelude`` runs first in the child."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = prelude + "import sys; from gridentropy.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          preexec_fn=_cap_address_space,
                          capture_output=True, text=True, timeout=20)


def test_verify_criterion_9_runs_without_scipy():
    """The acceptance suite needs numpy alone: criterion 9 passes in a child
    where importing scipy fails."""
    child = _run_child("verify", "--criteria", "9",
                       prelude="import sys; sys.modules['scipy'] = None; ")
    assert child.returncode == EXIT_OK, child.stderr


def _python_child(code, openblas_threads=None):
    """stdout of ``python -c code`` with the package on its path, and with
    OPENBLAS_NUM_THREADS set to ``openblas_threads`` (removed when None)."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout


_PRINT_THREADS = ("; print(next(line.split()[1] for line in open('/proc/self/status')"
                  " if line.startswith('Threads:')))")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the thread count from /proc/self/status")
@pytest.mark.parametrize("imports, openblas_threads", [
    pytest.param("import gridentropy.cli", None, id="unset"),
    pytest.param("import gridentropy.cli", 2, id="preset-2"),
    pytest.param("import numpy, gridentropy.cli", None, id="numpy-first"),
])
def test_importing_gridentropy_first_pins_openblas_to_one_thread(imports, openblas_threads):
    """A process that loads numpy through gridentropy runs on one thread: no
    idle OpenBLAS worker.  A preset OPENBLAS_NUM_THREADS still wins, and a
    process that loaded numpy first keeps the threads numpy alone starts."""
    threads = int(_python_child(imports + _PRINT_THREADS, openblas_threads))
    if openblas_threads is None and imports == "import gridentropy.cli":
        assert threads == 1
    else:
        assert threads == int(_python_child("import numpy" + _PRINT_THREADS, openblas_threads))
        if openblas_threads is not None and len(os.sched_getaffinity(0)) >= openblas_threads:
            assert threads == openblas_threads


def test_the_ladder_fit_does_not_depend_on_the_blas_thread_count():
    """extrapolate_ladder returns the same bits under one and two OpenBLAS
    threads, on ladders of as many scales as the CLI's (2, 3) and far more."""
    code = (
        "import numpy as np; from gridentropy import extrapolate_ladder\n"
        "rng = np.random.default_rng(20220101)\n"
        "for k in (2, 3, 97, 449):\n"
        "    ns = np.sort(rng.choice(np.arange(2, 4000), k, replace=False))\n"
        "    raws = 0.5 - 0.7 / ns + 0.01 * rng.standard_normal(k)\n"
        "    print(*map(float.hex, extrapolate_ladder(ns.tolist(), raws.tolist())))\n"
    )
    one = _python_child(code, 1)
    assert len(one.splitlines()) == 4
    assert _python_child(code, 2) == one


@pytest.mark.parametrize("argv, length", [
    pytest.param(("entropy-level", "--D", "1", "--t", "1e400", "--n", "2,4", "--seeds", "1"),
                 2 * 10**400, id="D1-level"),
    pytest.param(("orderstats", "--q", "1,0", "--n", "100000000000000,200000000000000",
                  "--seeds", "1"), 10**14, id="one-side-endpoint"),
])
def test_a_one_path_ensemble_longer_than_the_budget_is_refused_at_once(argv, length):
    """An ensemble of fewer paths than steps (D = 1, or one nonzero side) whose
    path length passes the budget exits 3 naming the length, before any hash."""
    child = _run_child(*argv)
    assert child.returncode == EXIT_BUDGET
    assert f"budget refusal: enumeration of 1 length-{length} paths" in child.stderr
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize("argv", [
    pytest.param(("orderstats", "--q", "1/2,1/2", "--n", "100000,200000", "--seeds", "1"),
                 id="count-past-the-digit-limit"),
    pytest.param(("entropy-level", "--t", "1e5000", "--n", "2,4", "--seeds", "1"),
                 id="length-past-the-digit-limit"),
    pytest.param(("entropy-level", "--D", "1", "--t", "1e5000", "--n", "2,4", "--seeds", "1"),
                 id="D1-length-past-the-digit-limit"),
    pytest.param(("orderstats", "--q", "1/2,1/2", "--n", "10000000,20000000", "--seeds", "1"),
                 id="count-refused-from-its-lower-bound"),
])
def test_a_huge_ensemble_is_refused_without_a_traceback(argv):
    """Ensembles whose count or length has more digits than Python prints, or
    whose exact count would take long to compute, exit 3 with a budget refusal."""
    child = _run_child(*argv)
    assert child.returncode == EXIT_BUDGET
    assert "budget refusal" in child.stderr and "Traceback" not in child.stderr


@pytest.mark.parametrize("argv, field", [
    (("lpp", "--endpoint", "100000000000,100000000000", "--tau", "zero"), "endpoint"),
    (("sample", "--endpoint", "100000000000,100000000000", "--tau", "zero"), "endpoint"),
    (("sample", "--length", "100000000000000000000", "--tau", "zero"), "length"),
    (("sample", "--D", "3", "--length", "10000000", "--tau", "zero"), "length"),
])
def test_a_dp_box_past_int64_indexing_names_its_field(capsys, argv, field):
    """lpp and sample refuse a box whose points cannot be indexed with exit 2,
    naming the endpoint or length, not with a ValueError traceback."""
    code, _, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert f"field {field}={argv[argv.index('--' + field) + 1]!r}" in err
    assert "too large to index" in err


@pytest.mark.parametrize("argv, field", [
    pytest.param(("bernoulli", "--n", "10,100000000000", "--seeds", "1"), "n_ladder",
                 id="bernoulli-D2"),
    pytest.param(("bernoulli", "--D", "3", "--n", "10,10000000", "--seeds", "1"), "n_ladder",
                 id="bernoulli-D3"),
    pytest.param(("orderstats", "--q", "1,0", "--n", "100000000000000000000,200000000000000000000",
                  "--seeds", "1", "--budget", "1" + "0" * 30), "budget", id="budget-past-int64"),
])
def test_a_bernoulli_box_or_a_budget_past_int64_is_a_config_error(argv, field):
    """A Bernoulli ladder whose box cannot be indexed exits 2 naming n_ladder
    before the count's width is computed; a path budget past int64 exits 2
    naming budget, before the walker builds its int64 arrays."""
    child = _run_child(*argv)
    assert child.returncode == EXIT_CONFIG
    assert f"config error: field {field}=" in child.stderr
    assert "Traceback" not in child.stderr


def test_the_largest_int64_budget_is_accepted(capsys):
    """A budget of 2^63 - 1 runs as any other budget would."""
    argv = ("orderstats", "--n", "4,6", "--seeds", "1", "--alpha-grid", "0:1:0.5")
    code, out, err = _run(capsys, *argv, "--budget", str(2**63 - 1))
    assert (code, err) == (EXIT_OK, "")
    assert (code, out, err) == _run(capsys, *argv)


@pytest.mark.parametrize("argv, field", [
    (("count", "--length", "20000"), "length"),
    (("count", "--D", "3", "--length", "9100"), "length"),
    (("count", "--endpoint", "10000,10000"), "endpoint"),
    (("count", "--length", "100000000000"), "length"),
    (("count", "--endpoint", "100000000000,100000000000"), "endpoint"),
    (("count", "--endpoint", "1" + "0" * 400 + ",100000"), "endpoint"),
])
def test_a_count_past_the_int_to_str_limit_is_refused(argv, field):
    """A count with more digits than Python prints exits 2 naming its field;
    one sized past the limit from its logarithm is never computed."""
    child = _run_child(*argv)
    assert child.returncode == EXIT_CONFIG
    assert f"field {field}=" in child.stderr and "Traceback" not in child.stderr


def test_a_count_just_under_the_int_to_str_limit_prints_exactly(capsys):
    """Counts below the digit limit keep their exact value, huge sides included."""
    for argv, want in ((("--length", "14000"), 2**14000),
                       (("--D", "3", "--length", "9000"), 3**9000),
                       (("--endpoint", "1" + "0" * 400 + ",1"), 10**400 + 1),
                       (("--D", "1", "--length", "1" + "0" * 400), 1)):
        code, out, err = _run(capsys, "count", *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.strip() == str(want)
