"""CLI tests: grammar parsing, config layering, artifact round-trips,
byte-stable emission across runs, and exit codes."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
from gridentropy.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
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
    """'start:stop:step' builds the inclusive grid."""
    assert _parse_alpha_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
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
    path.write_text(TauFn.identity_ladder(4).to_json())
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
        mu_path.write_text(mu.to_json())
        nu_path.write_text(nu.to_json())
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
def test_write_json_matches_stdlib_oracle(tmp_path, payload):
    """write_json writes exactly the bytes of the json.dumps oracle."""
    path = tmp_path / "payload.json"
    write_json(str(path), payload)
    text = path.read_bytes()
    path.unlink()  # a fresh file per example: truncating one can be slow
    assert text == json_text(payload).encode("utf-8")


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
    """metric without --mu is a config error, not a crash."""
    code, _, err = _run(capsys, "metric", "--nu", "lebesgue:4")
    assert code == EXIT_CONFIG
    assert "mu" in err


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
])
def test_bad_ladder_is_a_config_error(capsys, argv, field):
    """Non-positive scales or eps, a single scale where an a + b/n fit
    needs two, a dimension below 1, a negative length, a cell count k
    outside 1..8, a Bernoulli p outside (0, 1) or s outside (0, 1], an
    eps ladder that does not strictly decrease, a negative level scale
    t, an ensemble target of zero total mass, a KL-budget target whose
    mass is not 1, a path budget below 1, fewer than one conjugate
    restart, a negative ascent pass or random-member count, a
    conjugate beta whose DP log weights could overflow over the
    potentials the search can reach, an
    unknown verify criterion and a number past the float range exit 2
    naming the field before any estimator runs."""
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
