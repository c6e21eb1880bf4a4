import contextlib
import functools
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from chiralwalk import spectrum as spectrum_module
from chiralwalk import verify as verify_module
from chiralwalk.cli import main, parse_spectrum_csv, spectrum_csv
from chiralwalk.config import ConfigError, load_model_config
from chiralwalk.spectrum import essential_spectrum

from conftest import reference_params

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
UM1 = str(CONFIG_DIR / "reference_um_m1.json")
UM2 = str(CONFIG_DIR / "reference_um_m2.json")
MKO = str(CONFIG_DIR / "reference_mko.json")


def write_config(tmp_path, document, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def um_document(**overrides):
    doc = {
        "model": "um",
        "m": 1,
        "profiles": {
            "gamma": {"left": 0.4, "right": 0.4},
            "p": {"left": -0.2, "right": 0.2},
            "a": {"left": -0.1, "right": 0.1},
            "q": {"left": math.sqrt(0.96), "right": math.sqrt(0.96)},
            "b": {"left": math.sqrt(0.99), "right": math.sqrt(0.99)},
        },
    }
    doc.update(overrides)
    return doc


def mko_document(**options):
    doc = json.loads(Path(MKO).read_text(encoding="utf-8"))
    doc["options"].update(options)
    return doc


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_golden_configs_build():
    for path, kind in ((UM1, "um"), (UM2, "um"), (MKO, "mko")):
        cfg = load_model_config(path)
        assert cfg.kind == kind
        cfg.build()


def test_missing_profile_reports_the_field_path(tmp_path):
    doc = um_document()
    del doc["profiles"]["q"]
    with pytest.raises(ConfigError, match=r"profiles\.q: missing"):
        load_model_config(write_config(tmp_path, doc))


def test_bad_scalar_reports_the_field_path(tmp_path):
    doc = um_document()
    doc["profiles"]["p"]["left"] = "not a number"
    with pytest.raises(ConfigError, match=r"profiles\.p\.left"):
        load_model_config(write_config(tmp_path, doc))


def test_complex_value_rejected_for_real_profile(tmp_path):
    doc = um_document()
    doc["profiles"]["gamma"]["left"] = [0.4, 0.1]
    with pytest.raises(ConfigError, match=r"profiles\.gamma\.left"):
        load_model_config(write_config(tmp_path, doc))


def test_override_entries_are_checked(tmp_path):
    doc = um_document()
    doc["profiles"]["gamma"]["overrides"] = [{"site": 0.5, "value": 1.0}]
    with pytest.raises(ConfigError, match=r"overrides\[0\]\.site"):
        load_model_config(write_config(tmp_path, doc))


def duplicate_site_document():
    # site -5 listed twice in a (0.3, then 0.2), with b normalised to match
    doc = um_document()
    for name, values in (("a", (0.3, 0.2)), ("b", (math.sqrt(0.91), math.sqrt(0.96)))):
        doc["profiles"][name]["overrides"] = [{"site": -5, "value": v} for v in values]
    return doc


def test_duplicate_override_sites_are_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"profiles\.a\.overrides\[1\]\.site: site -5 is listed twice"):
        load_model_config(write_config(tmp_path, duplicate_site_document()))


def test_negative_seed_option_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"options\.seed: expected a non-negative integer"):
        load_model_config(write_config(tmp_path, um_document(options={"seed": -3})))


def test_unknown_option_and_zero_step(tmp_path):
    with pytest.raises(ConfigError, match=r"options\.speed"):
        load_model_config(write_config(tmp_path, um_document(options={"speed": 9})))
    with pytest.raises(ConfigError, match=r"\.m"):
        load_model_config(write_config(tmp_path, um_document(m=0)))


def test_invalid_json_is_a_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_model_config(str(path))


# ---------------------------------------------------------------------------
# the index command
# ---------------------------------------------------------------------------

def test_index_command_reference_m2(capsys):
    assert main(["index", UM2]) == 0
    out = capsys.readouterr().out
    assert "index = 4" in out
    assert "routes agree" in out


def test_index_command_reduces_the_two_step_model(capsys):
    assert main(["index", MKO]) == 0
    out = capsys.readouterr().out
    assert "index = 4" in out
    assert "m = 2" in out


def test_index_command_is_deterministic(capsys):
    main(["index", UM1])
    first = capsys.readouterr().out
    main(["index", UM1])
    assert capsys.readouterr().out == first


def test_index_command_tie_exits_2(tmp_path, capsys):
    pg = 0.2 / math.sqrt(0.04 + 0.96 * math.cosh(0.8) ** 2)
    doc = um_document()
    doc["profiles"]["a"] = {"left": pg, "right": pg}
    doc["profiles"]["b"] = {"left": math.sqrt(1 - pg * pg), "right": math.sqrt(1 - pg * pg)}
    assert main(["index", write_config(tmp_path, doc)]) == 2
    assert "not Fredholm" in capsys.readouterr().out


def test_index_command_phase_cross_check(tmp_path, capsys):
    doc = um_document()
    doc["profiles"]["p"] = {"left": 0.3, "right": 1.0}
    doc["profiles"]["q"] = {"left": math.sqrt(0.91), "right": 0.0}
    doc["profiles"]["a"] = {"left": 0.5, "right": 0.5}
    doc["profiles"]["b"] = {"left": math.sqrt(0.75), "right": math.sqrt(0.75)}
    path = write_config(tmp_path, doc)
    assert main(["index", path, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "phase-assignment cross-check (seed 3): consistent" in out


def extreme_tail_document(m, side, sign, phases, p_sites, other, seed=0):
    """m-step config with p -> sign * 1 (so q -> 0) on ``side`` and q != 0 overrides there.

    ``phases`` are the phases of q at the override sites ``p_sites`` (a dict of
    p values); ``other`` is (p, gamma, a) at the opposite end.
    """
    p_other, gamma, a_other = other
    q_other = math.sqrt(1 - p_other ** 2)
    ends = {"p": (float(sign), p_other), "q": (0.0, q_other), "a": (0.5, a_other)}
    profiles = {}
    for name, (extreme, opposite) in ends.items():
        left, right = (extreme, opposite) if side == "left" else (opposite, extreme)
        profiles[name] = {"left": left, "right": right}
    profiles["p"]["overrides"] = [{"site": x, "value": v} for x, v in p_sites.items()]
    profiles["q"]["overrides"] = [
        {"site": x, "value": [math.sqrt(1 - v * v) * math.cos(t), math.sqrt(1 - v * v) * math.sin(t)]}
        for (x, v), t in zip(p_sites.items(), phases)]
    profiles["gamma"] = {"left": gamma, "right": gamma}
    profiles["b"] = {"left": math.sqrt(1 - profiles["a"]["left"] ** 2),
                     "right": math.sqrt(1 - profiles["a"]["right"] ** 2)}
    return {"model": "um", "m": m, "profiles": profiles, "options": {"seed": seed}}


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_index_cross_check_keeps_an_override_phase_equal_to_the_tail_phase(tmp_path, capsys, seed):
    # q(0) = sqrt(0.91) > 0 has phase 0, the default phase of the q = 0 tail;
    # re-drawing that tail must not move the phase at site 0
    doc = um_document()
    doc["profiles"]["gamma"] = {"left": 0.2, "right": 0.2}
    doc["profiles"]["p"] = {"left": 0.6, "right": 1.0, "overrides": [{"site": 0, "value": 0.3}]}
    doc["profiles"]["a"] = {"left": 0.5, "right": 0.5}
    doc["profiles"]["b"] = {"left": math.sqrt(0.75), "right": math.sqrt(0.75)}
    doc["profiles"]["q"] = {"left": 0.8, "right": 0.0,
                            "overrides": [{"site": 0, "value": math.sqrt(0.91)}]}
    assert main(["index", write_config(tmp_path, doc), "--seed", str(seed)]) == 0
    captured = capsys.readouterr()
    assert f"phase-assignment cross-check (seed {seed}): consistent" in captured.out
    assert captured.err == ""


@settings(derandomize=True, deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=st.sampled_from([-3, -2, -1, 1, 2, 3]), side=st.sampled_from(["left", "right"]),
       sign=st.sampled_from([-1, 1]), seed=st.integers(0, 100),
       p_sites=st.dictionaries(st.integers(-5, 5), st.floats(-0.9, 0.9), min_size=1, max_size=3),
       phases=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.28)), min_size=3, max_size=3),
       other=st.tuples(st.floats(-0.9, 0.9), st.floats(-1.0, 1.0), st.floats(-0.9, 0.9)))
def test_index_cross_check_is_consistent_with_a_vanishing_q_tail(tmp_path, m, side, sign, seed,
                                                                 p_sites, phases, other):
    p_other, gamma, a_other = other
    pg = abs(p_other) / math.sqrt(p_other ** 2 + (1 - p_other ** 2) * math.cosh(2 * gamma) ** 2)
    assume(abs(pg - abs(a_other)) > 0.05)
    # overrides on the q = 0 side, where the tail phase is re-drawn
    p_sites = {(abs(x) if side == "right" else -abs(x) - 1): v for x, v in p_sites.items()}
    doc = extreme_tail_document(m, side, sign, phases, p_sites, other, seed)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["index", write_config(tmp_path, doc)]) == 0
    assert f"phase-assignment cross-check (seed {seed}): consistent" in out.getvalue()


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate", UM1]) == 1
    assert main(["index", "/nonexistent/config.json"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["index", UM1, "--resolution", "512"],
    ["verify", UM1, "--out", "x"],
    ["spectrum", UM1, "--seed", "3"],
    ["plot", UM1, "--resolution", "512"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", UM1, "--window", "2"],
    ["spectrum", UM1, "--resolution", "10"],
    ["verify", UM1, "--window", "2001"],
    ["plot", UM1, "--overlay-window", "0"],
])
def test_out_of_range_numbers_exit_1_with_one_line(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("path, window, message", [
    (MKO, "1", "window 1 smaller than bandwidth 2"),
    (UM2, "3", "window 3 leaves no interior at margin 6"),
])
def test_verify_below_the_section_bandwidth_or_margin_exits_1_with_its_message(path, window,
                                                                              message, capsys):
    assert main(["verify", path, "--window", window]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command, options, flags, named", [
    ("verify", {"window": "abc"}, [], "options.window: expected an integer"),
    ("verify", {"window": 100.5}, [], "options.window: expected an integer"),
    ("verify", {"window": None}, [], "options.window: expected an integer"),
    ("verify", {"window": True}, [], "options.window: expected an integer"),
    ("verify", {"tol": "x"}, [], "options.tol: expected a number"),
    ("verify", {"tol": True}, [], "options.tol: expected a number"),
    ("spectrum", {"resolution": "x"}, [], "options.resolution: expected an integer"),
    ("spectrum", {"resolution": 300.5}, [], "options.resolution: expected an integer"),
    ("index", {"seed": "x"}, [], "options.seed: expected an integer"),
    ("index", {"seed": 1.5}, [], "options.seed: expected an integer"),
    ("verify", {"tol": math.inf}, [], "tolerance inf must be finite and > 0"),
    ("verify", {"tol": 0}, [], "tolerance 0 must be finite and > 0"),
    ("verify", {}, ["--tol", "inf"], "tolerance inf must be finite and > 0"),
    ("verify", {}, ["--tol", "nan"], "tolerance nan must be finite and > 0"),
    ("verify", {}, ["--tol", "-1"], "tolerance -1.0 must be finite and > 0"),
])
def test_bad_options_and_tolerances_exit_1_with_one_line(tmp_path, capsys, command, options,
                                                        flags, named):
    path = write_config(tmp_path, um_document(options=options))
    assert main([command, path, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("command, document, flags, named", [
    ("spectrum", um_document(options={"resolution": 10 ** 30}), [],
     f"resolution must be at most {1 << 20}"),
    ("index", um_document(options={"seed": -3}), [], "options.seed: expected a non-negative"),
    ("index", um_document(), ["--seed", "-1"], "--seed must be non-negative"),
    ("index", um_document(m=16384), [], "m = 16384 out of range"),
    ("verify", um_document(m=16384), [], "m = 16384 out of range"),
    ("index", duplicate_site_document(), [], "overrides[1].site: site -5 is listed twice"),
    ("spectrum", duplicate_site_document(), [], "overrides[1].site: site -5 is listed twice"),
    ("verify", duplicate_site_document(), [], "overrides[1].site: site -5 is listed twice"),
    ("plot", duplicate_site_document(), [], "overrides[1].site: site -5 is listed twice"),
    ("spectrum", mko_document(resolution=10 ** 30), [], f"resolution must be at most {1 << 20}"),
    ("spectrum", mko_document(resolution=100), [], "resolution must be at least 256"),
])
def test_inputs_beyond_the_limits_exit_1_before_any_output(tmp_path, capsys, monkeypatch, command,
                                                          document, flags, named):
    monkeypatch.chdir(tmp_path)          # where plot would write spectrum.svg
    assert main([command, write_config(tmp_path, document), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err


def test_resolution_above_the_sample_cap_is_refused_before_sampling(capsys, monkeypatch):
    def sample(*args):
        raise AssertionError("the oracle sampled the symbol")
    monkeypatch.setattr(spectrum_module, "symbol_eigenvalues", sample)
    assert main(["spectrum", UM1, "--resolution", str(2 ** 20 + 1)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: resolution must be at most {2 ** 20}\n"


def test_the_benchmark_options_stay_valid(tmp_path):
    options = {"resolution": 2048, "window": 100, "tol": 1e-10, "seed": 0}
    cfg = load_model_config(write_config(tmp_path, um_document(options=options)))
    assert {name: cfg.option(name) for name in options} == options
    assert load_model_config(write_config(tmp_path, um_document(options={"tol": 1}))).option("tol") == 1


@pytest.mark.parametrize("command", ["index", "spectrum", "verify"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_config_values_exit_1(tmp_path, capsys, command, bad):
    doc = um_document()
    doc["profiles"]["p"]["left"] = bad          # written as NaN / Infinity
    assert main([command, write_config(tmp_path, doc)]) == 1
    assert "profiles.p.left" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["index", "spectrum", "verify"])
@pytest.mark.parametrize("gamma, named", [
    ({"left": 10 ** 400, "right": 0.4}, "profiles.gamma.left"),   # beyond the float range
    ({"left": 400, "right": 400}, "gamma = 400"),                # exp(2 gamma) overflows
])
def test_out_of_range_gamma_exits_1_with_one_line(tmp_path, capsys, command, gamma, named):
    doc = um_document()
    doc["profiles"]["gamma"] = gamma
    assert main([command, write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_corrupted_normalization_exit_codes(tmp_path, capsys):
    doc = um_document()
    doc["profiles"]["b"] = {"left": math.sqrt(1.01 - 0.01), "right": math.sqrt(1.01 - 0.01)}
    path = write_config(tmp_path, doc)
    assert main(["index", path]) == 1          # parse/validation failure
    assert main(["verify", path]) == 3         # named verification check
    out = capsys.readouterr().out
    assert "parameter normalization: FAIL" in out


# ---------------------------------------------------------------------------
# the spectrum command
# ---------------------------------------------------------------------------

def test_spectrum_command_writes_round_trippable_csv(tmp_path, capsys):
    out_csv = tmp_path / "sets.csv"
    cloud_csv = tmp_path / "cloud.csv"
    code = main(["spectrum", UM1, "--resolution", "512",
                 "--out", str(out_csv), "--cloud-out", str(cloud_csv)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "case II" in summary

    text = out_csv.read_text(encoding="utf-8")
    parsed = parse_spectrum_csv(text)
    result = essential_spectrum(reference_params(), 512)
    for star, ep in (("-inf", result.minus), ("+inf", result.plus)):
        assert parsed[star].arcs == ep.spectral_set.arcs
        assert parsed[star].segments == ep.spectral_set.segments
        assert parsed[star].case_tag == ep.spectral_set.case_tag
        assert parsed[star].sign_tag == ep.spectral_set.sign_tag

    lines = cloud_csv.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "endpoint,t,re_lambda,im_lambda"
    assert len(lines) == 1 + 2 * 2 * 512


def test_spectrum_csv_serialiser_round_trips_exactly():
    result = essential_spectrum(reference_params(m=2), 512)
    parsed = parse_spectrum_csv(spectrum_csv(result))
    assert parsed["-inf"] == result.minus.spectral_set
    assert parsed["+inf"] == result.plus.spectral_set


def large_gain_config(tmp_path, gamma):
    doc = json.loads(Path(UM1).read_text(encoding="utf-8"))
    doc["profiles"]["gamma"] = {"left": gamma, "right": gamma}
    return write_config(tmp_path, doc)


@pytest.mark.parametrize("gamma", [50.0, 200.0, 354.0])
def test_large_gain_spectrum_oracle_agrees_with_the_closed_form(tmp_path, capsys, gamma):
    path = large_gain_config(tmp_path, gamma)
    out_csv = tmp_path / "sets.csv"
    assert main(["spectrum", path, "--out", str(out_csv)]) == 0
    captured = capsys.readouterr()
    assert captured.out.count(") ok\n") == 2 and "EXCEEDED" not in captured.out
    assert "case III" in captured.out and captured.err == ""
    assert parse_spectrum_csv(out_csv.read_text(encoding="utf-8"))["+inf"].case_tag == "III"
    assert main(["plot", path, "--out", str(tmp_path / "figure.svg")]) == 0
    assert xml.dom.minidom.parse(str(tmp_path / "figure.svg")).documentElement.tagName == "svg"


def test_large_gain_spectrum_prints_short_lines(tmp_path, capsys):
    # Lambda ~ cosh(2 gamma)-sized values print in exponent form, not as 306 digits
    assert main(["spectrum", large_gain_config(tmp_path, 354.0)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "Lambda = [3.023383e+305, 3.023383e+305]" in lines[0]
    assert max(len(line) for line in lines) < 200


@pytest.mark.parametrize("gamma", [50.0, 200.0, 354.0])
def test_large_gain_spectrum_exits_3_when_the_oracle_exceeds(tmp_path, capsys, monkeypatch, gamma):
    # halving every sampled eigenvalue moves the cloud off the closed-form sets
    exact = spectrum_module.symbol_eigenvalues
    monkeypatch.setattr(spectrum_module, "symbol_eigenvalues",
                        lambda symbol, z: 0.5 * exact(symbol, z))
    path = large_gain_config(tmp_path, gamma)
    out_csv = tmp_path / "sets.csv"
    assert main(["spectrum", path, "--out", str(out_csv)]) == 3
    captured = capsys.readouterr()
    assert "EXCEEDED" in captured.out and "case III" in captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert parse_spectrum_csv(out_csv.read_text(encoding="utf-8"))["+inf"].case_tag == "III"


@pytest.mark.parametrize("gamma", [50.0, 354.0])
def test_large_gain_oracle_rejects_a_cloud_off_by_16_ulps(tmp_path, capsys, monkeypatch, gamma):
    # the roundoff floor 16 eps max(1, Lambda_+) is the whole tolerance at
    # large gain; a relative error of 16 eps in each value must exceed it
    path = large_gain_config(tmp_path, gamma)
    assert main(["spectrum", path]) == 0
    assert capsys.readouterr().out.count(") ok\n") == 2
    exact = spectrum_module.symbol_eigenvalues
    eps = np.finfo(float).eps
    monkeypatch.setattr(spectrum_module, "symbol_eigenvalues",
                        lambda symbol, z: (1.0 + 16.0 * eps) * exact(symbol, z))
    assert main(["spectrum", path]) == 3
    captured = capsys.readouterr()
    assert captured.out.count(") EXCEEDED\n") == 2
    assert captured.err.startswith("error: sampling oracle beyond") and captured.err.count("\n") == 1


def test_spectrum_flags_a_cloud_that_covers_a_quarter_of_the_circle(capsys, monkeypatch):
    # every sampled value still lies on the closed-form set, so only the
    # set -> cloud side of the Hausdorff distance sees the missing samples
    exact = spectrum_module.symbol_eigenvalues

    def quarter(symbol, z):
        t = np.angle(z)
        return exact(symbol, z[(t >= 0.0) & (t < np.pi / 2)])

    monkeypatch.setattr(spectrum_module, "symbol_eigenvalues", quarter)
    assert main(["spectrum", UM1]) == 3
    out = capsys.readouterr().out
    assert out.count("  sampling oracle: Hausdorff 1.192e+00 (tolerance 8.040e-01) EXCEEDED\n") == 2


# ---------------------------------------------------------------------------
# the verify command
# ---------------------------------------------------------------------------

def test_verify_command_passes_for_the_golden_configs(capsys):
    for path in (UM1, MKO):
        assert main(["verify", path, "--window", "60"]) == 0
        out = capsys.readouterr().out
        assert "chiral symmetry: PASS" in out
        assert "FAIL" not in out
    assert "two-step reduction: PASS" in out


def test_verify_command_lists_a_witness_failure_as_a_fail_line(capsys, monkeypatch):
    monkeypatch.setattr(verify_module, "MAX_WITNESS_ITERATIONS", 1)
    assert main(["verify", UM1, "--window", "60"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert ("kernel witness: FAIL (kernel witness: no convergence in 1 block iterations "
            "at window 254)") in lines
    checks = [line for line in lines if line.endswith(")") and ": " in line]
    assert [line.split(":")[0] for line in checks] == [
        "normalization p^2+|q|^2", "normalization a^2+|b|^2", "chiral symmetry",
        "grading involution", "dense eigensolve", "kernel witness"]


@pytest.mark.parametrize("gamma, residual", [(12.0, "5.840e-08"), (15.0, "2.990e-05")])
def test_verify_command_passes_chirality_at_large_gain(tmp_path, capsys, gamma, residual):
    # walk entries reach ~exp(2 gamma) (2.6e9 at gamma 12), so the absolute
    # residual is pure roundoff; on the walk's entry scale it is ~2e-17, and
    # the line names that scale
    scale = {12.0: "2.595e+09", 15.0: "1.047e+12"}[gamma]
    assert main(["verify", large_gain_config(tmp_path, gamma)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert f"chiral symmetry: PASS (residual {residual}, entry scale {scale})" in lines
    assert not [line for line in lines if "FAIL" in line] and captured.err == ""


@pytest.mark.parametrize("name", ["reference_um_m1", "reference_um_m2", "reference_mko"])
@pytest.mark.parametrize("gamma", [3.0, 20.0, 300.0, 354.0])
def test_verify_command_passes_on_every_config_at_large_gain(tmp_path, capsys, name, gamma):
    # the diagonal of the off-diagonal block dominates from gamma ~ 2 on, so
    # Johnson's bound certifies an empty near-kernel (the index is 0 there)
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    doc["profiles"]["gamma"] = {"left": gamma, "right": gamma}
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert "kernel witness: PASS (0 singular values" in captured.out
    assert "FAIL" not in captured.out and captured.err == ""


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 3: at gain 20/0.4 the block's section has norm ~1e16 and the witness "
           "stalls (no convergence in 500 block iterations at window 254, exit 3); "
           "equilibrating the block should settle it")
def test_verify_passes_the_witness_at_unequal_half_line_gains(tmp_path, capsys):
    doc = json.loads(Path(UM1).read_text(encoding="utf-8"))
    doc["profiles"]["gamma"] = {"left": 20.0, "right": 0.4}
    code = main(["verify", write_config(tmp_path, doc)])
    out = capsys.readouterr().out
    assert "kernel witness: PASS" in out
    assert code == 0


@pytest.mark.parametrize("name, count", [
    ("reference_um_m1", 0), ("reference_um_m2", 1), ("reference_mko", 1)])
def test_verify_passes_the_witness_at_opposite_half_line_gains(tmp_path, capsys, name, count):
    # gain 3 on the left, -3 on the right: the index is 0, and at m = 2 the
    # section keeps one kernel pair that the index does not protect
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    doc["profiles"]["gamma"] = {"left": 3.0, "right": -3.0}
    path = write_config(tmp_path, doc)
    assert main(["index", path]) == 0
    assert "index = 0" in capsys.readouterr().out.splitlines()
    assert main(["verify", path]) == 0
    captured = capsys.readouterr()
    # gain 3 decays the tails within a few sites, so the window stays at 100
    assert (f"kernel witness: PASS ({count} singular values below 1.0e-06 at window 100, "
            "index demands 0)") in captured.out.splitlines()
    assert "FAIL" not in captured.out and captured.err == ""


def narrow_margin_config(tmp_path, m):
    """``reference_um_m1`` with a = -+0.14 and b = sqrt(1 - 0.14^2): margins 0.011, index 2 m."""
    doc = json.loads(Path(UM1).read_text(encoding="utf-8"))
    doc["m"] = m
    doc["profiles"]["a"] = {"left": -0.14, "right": 0.14}
    b = math.sqrt(1 - 0.14 ** 2)
    doc["profiles"]["b"] = {"left": b, "right": b}
    return write_config(tmp_path, doc)


@pytest.mark.parametrize("m, count, window", [(1, 2, 1174), (-2, 4, 2348)])
def test_verify_passes_the_witness_at_a_narrow_margin(tmp_path, capsys, m, count, window):
    # the tails decay over 67.85 |m| sites: at window 600 the witness counts
    # 0, at the window that decay length sets it counts |index|
    assert main(["verify", narrow_margin_config(tmp_path, m)]) == 0
    captured = capsys.readouterr()
    assert (f"kernel witness: PASS ({count} singular values below 1.0e-06 at window {window}, "
            f"index demands {count})") in captured.out.splitlines()
    assert "FAIL" not in captured.out and captured.err == ""


def test_verify_names_the_decay_length_when_the_window_is_capped(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verify_module, "MAX_WITNESS_WINDOW", 300)
    assert main(["verify", narrow_margin_config(tmp_path, 1)]) == 3
    assert ("kernel witness: FAIL (0 singular values below 1.0e-06 at window 300, "
            "index demands 2; decay length 6.785e+01 sites wants window 1174)"
            ) in capsys.readouterr().out.splitlines()


def test_every_benchmark_trace_target_is_a_library_callable(monkeypatch):
    # perfbench/spans.py patches these names when the benchmark traces a run,
    # so a library rename or deletion would break `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", CONFIG_DIR.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)      # its dataclass looks itself up
    spec.loader.exec_module(spans)
    for module_name, path, _, _ in spans.TARGETS:
        target = functools.reduce(getattr, path.split("."), importlib.import_module(module_name))
        assert callable(target), f"{module_name}.{path}"
    # the dense-eigensolve spans read the window as the second argument
    for name in ("truncated_spectrum", "bound_state_check"):
        assert list(inspect.signature(getattr(verify_module, name)).parameters)[1] == "window"


def fresh_stdout(code):
    """Stdout of ``code`` run in a fresh interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(CONFIG_DIR.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def scipy_modules_after(code):
    """The ``scipy`` modules a fresh interpreter holds after running ``code``."""
    code += "\nimport sys; print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    return set(fresh_stdout(code).splitlines()[-1].split())


def test_cli_import_loads_no_further_scipy_subpackages():
    # the closed forms need numpy only; scipy loads where a finite section is built
    assert scipy_modules_after("import chiralwalk") == set()
    assert scipy_modules_after("import chiralwalk.cli") == set()


@pytest.mark.parametrize("tail", [
    ["index"],
    ["spectrum"],
    # the overlay's class blocks are scattered and solved by numpy alone
    ["plot", "--overlay-window", "40", "--out", os.devnull],
], ids=["index", "spectrum", "plot-overlay"])
def test_closed_form_commands_load_no_scipy(tail):
    code = ("import contextlib, io\nfrom chiralwalk.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main([{tail[0]!r}, path, *{tail[1:]!r}]) for path in {[UM1, UM2, MKO]!r}]\n"
            "assert codes == [0, 0, 0], codes")
    assert scipy_modules_after(code) == set()


def test_the_parser_is_built_on_the_first_call_and_reused():
    code = ("import contextlib, io, os\nimport chiralwalk.cli as cli\n"
            "built = cli._build_parser.cache_info().currsize\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main(['index', {UM1!r}]); cli.main(['spectrum', {UM1!r}, '--out', os.devnull])\n"
            "info = cli._build_parser.cache_info()\n"
            "print(built, info.misses, info.hits)")
    assert fresh_stdout(code).split() == ["0", "1", "1"]


def test_verify_loads_only_scipy_linalg():
    # the kernel witness's banded LU is scipy's only use
    code = ("import contextlib, io\nfrom chiralwalk.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['verify', {UM2!r}, '--window', '40']) == 0")
    loaded = scipy_modules_after(code)
    public = {name.split(".")[1] for name in loaded
              if "." in name and not name.split(".")[1].startswith("_")}
    assert public - {"version"} == {"linalg"}


def test_the_residuals_load_no_scipy():
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "from conftest import reference_params\nfrom chiralwalk.models import build_pair\n"
            "from chiralwalk.config import load_model_config\nfrom chiralwalk.verify import (\n"
            "    chiral_residual_operators, equivalence_residual, involution_residual_operators)\n"
            "grading_op, walk_op = build_pair(reference_params(m=2))\n"
            "assert chiral_residual_operators(grading_op, walk_op, 40) < 1e-12\n"
            "assert involution_residual_operators(grading_op, 40) < 1e-12\n"
            f"assert equivalence_residual(load_model_config({MKO!r}).build(), 40) < 1e-12")
    assert scipy_modules_after(code) == set()


def test_the_kernel_witness_loads_scipy_linalg_but_no_scipy_sparse():
    # the witness holds the block as three diagonals and builds no sparse matrix
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "from conftest import reference_params\nfrom chiralwalk import kernel_witness\n"
            "assert kernel_witness(reference_params(m=2), 300).count == 2")
    loaded = scipy_modules_after(code)
    assert "scipy.linalg" in loaded
    assert not [name for name in loaded if name.split(".")[:2] == ["scipy", "sparse"]]


def test_verify_command_runs_bound_states_for_unitary_configs(tmp_path, capsys):
    doc = um_document()
    doc["profiles"]["gamma"] = {"left": 0.0, "right": 0.0}
    path = write_config(tmp_path, doc)
    assert main(["verify", path, "--window", "60"]) == 0
    out = capsys.readouterr().out
    assert "bound states: PASS" in out


@pytest.mark.parametrize("name, m", [("reference_um_m1", None), ("reference_um_m2", None),
                                     ("reference_mko", None), ("reference_um_m1", 3),
                                     ("reference_um_m1", -3)])
def test_verify_passes_the_unitary_twins_at_the_default_window(tmp_path, capsys, name, m):
    # at window 100 the twins with |m| >= 2 count half their protected states
    # near +-1 (e.g. 2 of 4 for m = 2); the check doubles its window once
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    doc["profiles"]["gamma"] = {"left": 0.0, "right": 0.0}
    if m is not None:
        doc["m"] = m
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    window = 100 if (name, m) == ("reference_um_m1", None) else 200
    assert f"interior states near +-1 at window {window} >=" in out


@pytest.mark.parametrize("m", [4, -5])
@pytest.mark.parametrize("gamma", [0.4, 0.0])
def test_verify_passes_large_steps(tmp_path, capsys, m, gamma):
    # the witness counts 4 of 8 (m = 4) and 0 of 10 (m = -5) at window 600;
    # the decay length sets windows 1014 and 1267.  The unitary twins count 4
    # and 5 bound states at window 200, and that window doubles up to 100 |m|
    doc = json.loads(Path(UM2).read_text(encoding="utf-8"))
    doc["m"] = m
    doc["profiles"]["gamma"] = {"left": gamma, "right": gamma}
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert "FAIL" not in captured.out and captured.err == ""
    assert f"index demands {2 * abs(m)}" in captured.out
    assert ("bound states: PASS" in captured.out) == (gamma == 0.0)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: from |m| = 2835 on, the 64 (|m| + 1) start grid of the numeric "
           "winding refines past its 2^20-sample cap, so index exits 3 although the config "
           "layer accepts |m| <= 16383; evaluating the symbol at w = z^m and multiplying "
           "the winding by m answers")
def test_index_answers_at_step_2835(tmp_path, capsys):
    doc = json.loads(Path(UM1).read_text(encoding="utf-8"))
    doc["m"] = 2835
    code = main(["index", write_config(tmp_path, doc)])
    captured = capsys.readouterr()
    assert "index = 5670" in captured.out.splitlines()
    assert code == 0


def test_verify_command_skips_bound_states_of_a_unitary_tie(tmp_path, capsys):
    doc = um_document()
    doc["profiles"] = {
        "gamma": {"left": 0.0, "right": 0.0},
        "p": {"left": 0.3, "right": 0.3},
        "a": {"left": 0.3, "right": 0.3},
        "q": {"left": math.sqrt(0.91), "right": math.sqrt(0.91)},
        "b": {"left": math.sqrt(0.91), "right": math.sqrt(0.91)},
    }
    assert main(["verify", write_config(tmp_path, doc), "--window", "60"]) == 0
    out = capsys.readouterr().out
    assert "kernel witness: PASS (skipped: not Fredholm)" in out
    assert "bound states: PASS (skipped: not Fredholm)" in out


def test_spectrum_command_without_gain_reports_arcs_only(tmp_path, capsys):
    doc = um_document()
    doc["profiles"]["gamma"] = {"left": 0.0, "right": 0.0}
    path = write_config(tmp_path, doc)
    out_csv = tmp_path / "sets.csv"
    assert main(["spectrum", path, "--resolution", "512", "--out", str(out_csv)]) == 0
    assert "case I" in capsys.readouterr().out
    rows = out_csv.read_text(encoding="utf-8").strip().splitlines()[1:]
    assert rows and all(row.split(",")[1] == "arc" for row in rows)


# ---------------------------------------------------------------------------
# the plot command
# ---------------------------------------------------------------------------

def test_plot_command_emits_valid_svg(tmp_path, capsys):
    out = tmp_path / "figure.svg"
    code = main(["plot", UM1, "--out", str(out), "--overlay-window", "40"])
    assert code == 0
    capsys.readouterr()
    document = xml.dom.minidom.parse(str(out))
    root = document.documentElement
    assert root.tagName == "svg"
    assert root.getAttribute("version") == "1.1"
    assert root.getAttribute("viewBox")
    paths = root.getElementsByTagName("path")
    circles = root.getElementsByTagName("circle")
    assert len(paths) >= 4           # two arcs halves + segments per endpoint
    assert len(circles) > 100        # dashed unit circle plus the overlay


def test_plot_command_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    main(["plot", UM1, "--out", str(first)])
    main(["plot", UM1, "--out", str(second)])
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
