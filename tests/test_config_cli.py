import json
import math
import xml.dom.minidom
from pathlib import Path

import pytest

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
])
def test_out_of_range_numbers_exit_1_with_one_line(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("gamma", [50.0, 200.0, 354.0])
def test_large_gain_spectrum_exits_3_when_the_oracle_exceeds(tmp_path, capsys, gamma):
    doc = json.loads(Path(UM1).read_text(encoding="utf-8"))
    doc["profiles"]["gamma"] = {"left": gamma, "right": gamma}
    path = write_config(tmp_path, doc)
    out_csv = tmp_path / "sets.csv"
    assert main(["spectrum", path, "--out", str(out_csv)]) == 3
    captured = capsys.readouterr()
    assert "EXCEEDED" in captured.out and "case III" in captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert parse_spectrum_csv(out_csv.read_text(encoding="utf-8"))["+inf"].case_tag == "III"
    assert main(["plot", path, "--out", str(tmp_path / "figure.svg")]) == 0
    assert xml.dom.minidom.parse(str(tmp_path / "figure.svg")).documentElement.tagName == "svg"


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


def test_verify_command_runs_bound_states_for_unitary_configs(tmp_path, capsys):
    doc = um_document()
    doc["profiles"]["gamma"] = {"left": 0.0, "right": 0.0}
    path = write_config(tmp_path, doc)
    assert main(["verify", path, "--window", "60"]) == 0
    out = capsys.readouterr().out
    assert "bound states: PASS" in out


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
