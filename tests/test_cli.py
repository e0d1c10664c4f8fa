"""Command-line interface: subcommands, file formats, exit codes."""

import csv
import json
import re
import shutil
import time
import warnings
from pathlib import Path

import pytest

import pathfuse
from pathfuse import cli
from pathfuse.cli import main
from pathfuse.evaluation import STUDIES
from pathfuse.io import load_model, save_model
from pathfuse.models import CoefficientSet, FittedModel


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc, _, _ = run(capsys, "synth", "--scenario", "UMiOS", "--band", "2:18",
                       "--seed", "7", "--out", str(out))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_defaults_to_protocol_cell_budget(tmp_path, capsys):
    out = tmp_path / "umisc_low.csv"
    rc, stdout, _ = run(capsys, "synth", "--scenario", "UMiSC", "--band", "2:18",
                        "--out", str(out))
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 636  # 3 in-band models x 212-point cell budget
    assert "wrote 636 samples from 3 models" in stdout
    freqs = {row["freq_ghz"] for row in rows}
    assert len(freqs) == 3


def test_synth_empty_selection_is_a_config_error(tmp_path, capsys):
    rc, _, err = run(capsys, "synth", "--scenario", "UMiSC", "--band", "90:100",
                     "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    assert "no registry models match" in err


def test_synth_short_registry_row_is_a_data_error(tmp_path, capsys):
    bundled = Path(pathfuse.__file__).with_name("data") / "table1_nlos.csv"
    registry = tmp_path / "registry.csv"
    registry.write_text("".join(bundled.read_text().splitlines(True)[:2]) + "x,NLOS\n")
    rc, out, err = run(capsys, "synth", "--registry", str(registry),
                       "--out", str(tmp_path / "x.csv"))
    assert rc == 3
    assert out == ""
    assert f"{registry}:3: bad registry row: no 'scenario' cell" in err


#: Latin-1 bytes that UTF-8 cannot decode (the tests run in a UTF-8 locale, or in
#: Python's UTF-8 mode)
UNDECODABLE = "m\u00fcnchen".encode("latin-1")


def test_synth_undecodable_registry_is_a_data_error(tmp_path, capsys):
    bundled = Path(pathfuse.__file__).with_name("data") / "table1_nlos.csv"
    registry = tmp_path / "registry.csv"
    registry.write_bytes(bundled.read_bytes() + UNDECODABLE + b",NLOS\n")
    rc, out, err = run(capsys, "synth", "--registry", str(registry),
                       "--out", str(tmp_path / "x.csv"))
    assert rc == 3
    assert out == ""
    assert f"error: cannot read registry {registry}: 'utf-8' codec can't decode" in err


def test_synth_overflowing_registry_cell_is_a_data_error(tmp_path, capsys):
    # float("1e309") is inf: the row is refused, not drawn from
    bundled = Path(pathfuse.__file__).with_name("data") / "table1_nlos.csv"
    header, first = (line.split(",") for line in bundled.read_text().splitlines()[:2])
    first[header.index("dist_max_m")] = "1e309"
    registry = tmp_path / "registry.csv"
    registry.write_text(f"{','.join(header)}\n{','.join(first)}\n")
    rc, out, err = run(capsys, "synth", "--registry", str(registry),
                       "--points-per-model", "5", "--out", str(tmp_path / "x.csv"))
    assert rc == 3
    assert out == ""
    assert (f"{registry}:2: bad registry row: dist_max must be a finite number > 0, "
            "got inf") in err


def test_synth_into_a_missing_directory_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    rc, _, err = run(capsys, "synth", "--scenario", "UMiOS", "--band", "2:18",
                     "--points-per-model", "20", "--out", str(out))
    assert rc == 3
    assert f"cannot write samples {out}" in err


def test_synth_rejects_inverted_band(tmp_path, capsys):
    rc, _, err = run(capsys, "synth", "--band", "18:2",
                     "--out", str(tmp_path / "x.csv"))
    assert rc == 2


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_recovers_single_model_surface(tmp_path, capsys):
    corpus = tmp_path / "c.csv"
    run(capsys, "synth", "--band", "27.5:28.5", "--scenario", "UMiSC",
        "--points-per-model", "400", "--seed", "3", "--out", str(corpus))
    model_path = tmp_path / "m.json"
    rc, stdout, _ = run(capsys, "fit", "--samples", str(corpus),
                        "--order", "1", "--weighting", "identity",
                        "--robust", "none", "--gas", "off",
                        "--out", str(model_path))
    assert rc == 0
    coeffs = dict(
        re.findall(r"(\w+) =\s+(-?[\d.e+-]+)", stdout)
    )
    # registry values for umisc-28ghz-nyu; one 400-point draw at sigma 8.2
    assert float(coeffs["alpha"]) == pytest.approx(3.4, abs=0.6)
    assert float(coeffs["beta"]) == pytest.approx(32.0, abs=12.0)
    model = load_model(model_path)
    assert model.order == 1
    assert not model.gas_corrected
    assert model.provenance["n_fitted"] == 400


def test_fit_full_scenario_matches_published_dispersion(tmp_path, capsys):
    corpus = tmp_path / "full.csv"
    run(capsys, "synth", "--scenario", "UMiSC", "--seed", "0",
        "--out", str(corpus))
    rc, stdout, _ = run(capsys, "fit", "--samples", str(corpus), "--order", "2")
    assert rc == 0
    sigma = float(re.search(r"sigma = ([\d.]+) dB", stdout).group(1))
    assert 5.4 < sigma < 6.4  # full-band quadratic dispersion neighbourhood


def test_fit_with_too_few_samples_is_a_numeric_error(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "distance_m,freq_ghz,path_loss_db,source_id\n"
        "50,28,100,a\n60,28,104,a\n"
    )
    rc, _, err = run(capsys, "fit", "--samples", str(path), "--order", "2",
                     "--weighting", "identity", "--robust", "none",
                     "--gas", "off")
    assert rc == 4
    assert "error:" in err


def test_fit_missing_samples_file_is_a_data_error(tmp_path, capsys):
    rc, _, err = run(capsys, "fit", "--samples", str(tmp_path / "nope.csv"))
    assert rc == 3


def test_fit_undecodable_samples_file_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_bytes(b"distance_m,freq_ghz,path_loss_db,source_id\n"
                     b"50,28,100," + UNDECODABLE + b"\n")
    rc, out, err = run(capsys, "fit", "--samples", str(path))
    assert rc == 3
    assert out == ""
    assert f"error: cannot read samples {path}: 'utf-8' codec can't decode" in err


def write_huge_corpus(path):
    # path loss +-1e308: differences of two rows overflow to inf
    rows = [f"{10 + 5 * i},28,{(-1) ** i * 1e308},a" for i in range(40)]
    path.write_text("distance_m,freq_ghz,path_loss_db,source_id\n"
                    + "\n".join(rows) + "\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_fit_whose_solution_overflows_is_a_numeric_error(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    write_huge_corpus(path)
    rc, _, err = run(capsys, "fit", "--samples", str(path),
                     "--weighting", "identity", "--robust", "none")
    assert rc == 4
    assert "solution is not finite" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_fit_whose_prefilter_scale_overflows_is_a_numeric_error(tmp_path, capsys):
    # the Theil-Sen prefilter stops the fit; it does not keep the group whole
    path = tmp_path / "huge.csv"
    write_huge_corpus(path)
    rc, _, err = run(capsys, "fit", "--samples", str(path),
                     "--weighting", "identity")
    assert rc == 4
    assert "error: residual MAD scale is inf" in err


def test_fit_records_the_seed_only_for_ransac(tmp_path, capsys):
    corpus = tmp_path / "c.csv"
    run(capsys, "synth", "--band", "27.5:28.5", "--scenario", "UMiSC",
        "--points-per-model", "60", "--seed", "3", "--out", str(corpus))
    models = {}
    for robust, seed in (("theil-sen", "0"), ("theil-sen", "5"), ("ransac", "5")):
        models[robust, seed] = tmp_path / f"{robust}-{seed}.json"
        rc, _, _ = run(capsys, "fit", "--samples", str(corpus), "--order", "1",
                       "--robust", robust, "--seed", seed,
                       "--out", str(models[robust, seed]))
        assert rc == 0
    theilsen = models["theil-sen", "0"].read_bytes()
    assert theilsen == models["theil-sen", "5"].read_bytes()
    assert json.loads(theilsen)["provenance"]["seed"] is None
    assert load_model(models["ransac", "5"]).provenance["seed"] == 5


def test_fit_into_a_missing_directory_is_a_data_error(tmp_path, capsys):
    corpus = tmp_path / "c.csv"
    run(capsys, "synth", "--band", "27.5:28.5", "--scenario", "UMiSC",
        "--points-per-model", "60", "--seed", "3", "--out", str(corpus))
    out = tmp_path / "missing" / "m.json"
    rc, _, err = run(capsys, "fit", "--samples", str(corpus), "--order", "1",
                     "--out", str(out))
    assert rc == 3
    assert f"cannot write model {out}" in err


def test_fit_names_an_out_of_table_row_by_its_input_index(tmp_path, capsys):
    # rows 0 and 1 fall outside the band; row 2 is the first the table misses
    path = tmp_path / "wide.csv"
    path.write_text(
        "distance_m,freq_ghz,path_loss_db,source_id\n"
        "10,0.5,80,a\n20,0.6,90,a\n30,200,100,b\n40,300,110,b\n"
        "50,400,120,b\n60,500,130,b\n"
    )
    rc, _, err = run(capsys, "fit", "--samples", str(path), "--order", "1",
                     "--weighting", "identity", "--robust", "none",
                     "--band", "100:600")
    assert rc == 2
    assert "error: sample 2 (source 'b'): frequency 200 GHz outside table range" in err


def test_a_singular_fit_saves_strict_json(tmp_path, capsys):
    # one frequency: the Lf column is all zero and the condition is inf
    path, out = tmp_path / "one.csv", tmp_path / "m.json"
    path.write_text("distance_m,freq_ghz,path_loss_db,source_id\n"
                    "10,1,80,a\n20,1,90,a\n30,1,100,a\n40,1,104,a\n")
    rc, _, _ = run(capsys, "fit", "--samples", str(path), "--order", "1",
                   "--weighting", "identity", "--robust", "none", "--gas", "off",
                   "--out", str(out))
    assert rc == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(out.read_text(), parse_constant=refuse)
    assert payload["provenance"]["condition"] is None
    assert payload["provenance"]["rank_deficient"] is True
    assert load_model(out).coefficients.values == tuple(payload["coefficients"])


def test_fit_blank_source_id_is_a_data_error(tmp_path, capsys):
    # a blank id would fit as a source of its own named ""
    path = tmp_path / "blank.csv"
    path.write_text(
        "distance_m,freq_ghz,path_loss_db,source_id\n"
        "50,28,100,umisc-28ghz-nyu\n60,28,104, \n70,28,107,umisc-28ghz-nyu\n"
    )
    rc, _, err = run(capsys, "fit", "--samples", str(path), "--order", "1")
    assert rc == 3
    assert f"{path}:3: bad sample row: source_id is empty" in err


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def _write_model(path, *, gas_corrected=False,
                 values=(3.5, 25.0, 2.0), freq_range=(1.0, 80.0)):
    model = FittedModel(
        coefficients=CoefficientSet(order=1, values=values),
        sigma=4.0,
        freq_range=freq_range,
        dist_range=(1.0, 2000.0),
        gas_corrected=gas_corrected,
        provenance={"n_fitted": 100, "rank_deficient": False},
    )
    save_model(model, path)


def test_predict_hand_value(tmp_path, capsys):
    path = tmp_path / "m.json"
    _write_model(path)
    rc, out, _ = run(capsys, "predict", "--model", str(path),
                     "--d", "100", "--f", "2")
    assert rc == 0
    # 3.5*20 + 25 + 2*10log10(2)
    assert float(out.strip().split()[0]) == pytest.approx(101.0206, abs=1e-3)


def test_predict_at_unit_point_returns_the_offset(tmp_path, capsys):
    path = tmp_path / "m.json"
    _write_model(path)
    rc, out, _ = run(capsys, "predict", "--model", str(path),
                     "--d", "1", "--f", "1")
    assert rc == 0
    assert float(out.strip().split()[0]) == pytest.approx(25.0, abs=1e-9)


def test_predict_adds_absorption_back_for_corrected_models(tmp_path, capsys):
    raw, fixed = tmp_path / "raw.json", tmp_path / "fixed.json"
    _write_model(raw, gas_corrected=False)
    _write_model(fixed, gas_corrected=True)
    _, out_raw, _ = run(capsys, "predict", "--model", str(raw),
                        "--d", "1000", "--f", "60")
    _, out_fixed, _ = run(capsys, "predict", "--model", str(fixed),
                          "--d", "1000", "--f", "60")
    gap = float(out_fixed.strip().split()[0]) - float(out_raw.strip().split()[0])
    assert 14.0 < gap < 16.0  # oxygen line at 60 GHz over 1 km


@pytest.mark.parametrize("key, value", [
    ("freq_range_ghz", [28.0]),
    ("dist_range_m", ["1", "2000"]),
    ("gas_corrected", "no"),
    ("order", 1.9),
    ("order", True),
    ("order", "1"),
    ("sigma_db", True),
    ("sigma_db", 0),
    ("sigma_db", -4.0),
    ("sigma_db", float("nan")),
    ("sigma_db", float("inf")),
    ("sigma_db", "4"),
    ("coefficients", ["3.5", 25.0, 2.0]),
    ("coefficients", [True, 25.0, 2.0]),
    ("coefficients", 3.5),
    ("provenance", 7),
    ("provenance", ["n_fitted", 100]),
    ("freq_range_ghz", [-5.0, 3.0]),
    ("dist_range_m", [0.0, 0.0]),
])
def test_predict_malformed_model_is_a_data_error(key, value, tmp_path, capsys):
    path = tmp_path / "m.json"
    _write_model(path)
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "predict", "--model", str(path),
                       "--d", "100", "--f", "28")
    assert rc == 3
    assert out == ""
    assert f"{path} is not a saved model: {key} must be" in err


def test_predict_single_frequency_model(tmp_path, capsys):
    path = tmp_path / "m.json"
    _write_model(path, freq_range=(28.0, 28.0))
    rc, out, _ = run(capsys, "predict", "--model", str(path),
                     "--d", "100", "--f", "28")
    assert rc == 0
    # 3.5*20 + 25 + 2*10log10(28)
    assert float(out) == pytest.approx(123.94, abs=1e-2)


def test_predict_overflow_is_a_numeric_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    _write_model(path, values=(1e308, 1e308, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "predict", "--model", str(path),
                           "--d", "100", "--f", "3")
    assert rc == 4
    assert out == ""
    assert "not finite" in err


def test_predict_ignores_a_top_level_weighting(tmp_path, capsys):
    # model files once carried a copy of provenance["weighting"] at the top
    path = tmp_path / "m.json"
    _write_model(path)
    payload = json.loads(path.read_text())
    payload["weighting"] = "Identity"
    path.write_text(json.dumps(payload))
    rc, out, _ = run(capsys, "predict", "--model", str(path),
                     "--d", "100", "--f", "2")
    assert rc == 0
    assert float(out.strip().split()[0]) == pytest.approx(101.0206, abs=1e-3)


def test_predict_range_guard_and_override(tmp_path, capsys):
    path = tmp_path / "m.json"
    _write_model(path)
    rc, _, err = run(capsys, "predict", "--model", str(path),
                     "--d", "5000", "--f", "2")
    assert rc == 2
    assert "outside the fitted ranges" in err
    rc, out, err = run(capsys, "predict", "--model", str(path),
                       "--d", "5000", "--f", "2", "--extrapolate")
    assert rc == 0
    assert "extrapolating" in err
    assert float(out.strip().split()[0]) > 0


@pytest.mark.parametrize("extrapolate", [(), ("--extrapolate",)], ids=["", "extrapolate"])
@pytest.mark.parametrize("flag, value", [
    ("--d", "nan"), ("--f", "nan"), ("--d", "-5"), ("--d", "inf"), ("--f", "0"),
])
def test_predict_checks_the_point_before_the_ranges(flag, value, extrapolate,
                                                    tmp_path, capsys):
    path = tmp_path / "m.json"
    _write_model(path)
    point = {"--d": "100", "--f": "2", flag: value}
    rc, out, err = run(capsys, "predict", "--model", str(path),
                       *(item for pair in point.items() for item in pair), *extrapolate)
    assert rc == 2
    assert out == ""
    assert err == f"error: {flag} must be a finite number > 0, got {float(value)!r}\n"


# ---------------------------------------------------------------------------
# gas
# ---------------------------------------------------------------------------


def test_gas_single_frequency_with_distance(capsys):
    rc, out, _ = run(capsys, "gas", "--f", "60", "--d", "1000")
    assert rc == 0
    row = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
    assert 14.0 < float(row["loss_db"]) < 16.0


def test_gas_sweep_peaks_at_resonances(capsys):
    rc, out, _ = run(capsys, "gas", "--f-range", "1:100:0.5")
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    best = max(rows, key=lambda r: float(r["atten_db_per_km"]))
    assert 58.0 <= float(best["freq_ghz"]) <= 62.0
    water = [r for r in rows if 18.0 <= float(r["freq_ghz"]) <= 28.0]
    bump = max(water, key=lambda r: float(r["atten_db_per_km"]))
    assert 21.5 <= float(bump["freq_ghz"]) <= 23.5


def test_gas_argument_validation(capsys):
    rc, _, err = run(capsys, "gas", "--f", "0.5")
    assert rc == 2  # below the table span
    rc, _, _ = run(capsys, "gas")
    assert rc == 2  # neither --f nor --f-range
    rc, _, _ = run(capsys, "gas", "--f", "60", "--f-range", "1:100:1")
    assert rc == 2  # both
    for sweep, bad in (("1:1e300:1", "1e+300"), ("1:nan:1", "nan"),
                       ("1:2:nan", "finite STEP"), ("1:100:1e-9", "over 100000")):
        start = time.perf_counter()
        rc, _, err = run(capsys, "gas", "--f-range", sweep)
        # an end outside the table, a step that is not finite, or too many
        # points: each is refused before the sweep is built
        assert rc == 2
        assert bad in err and time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_rejects_zero_trials(capsys):
    rc, _, err = run(capsys, "experiment", "--which", "table3", "--trials", "0")
    assert rc == 2


def test_experiment_writes_report_bundle(tmp_path, capsys):
    rc, out, _ = run(capsys, "experiment", "--which", "table2", "--trials", "3",
                     "--seed", "0", "--out-dir", str(tmp_path))
    assert rc == 0  # every gate green at the pinned seed
    names = {p.name for p in tmp_path.iterdir()}
    assert {
        "table2.json",
        "table2.csv",
        "table2_grid_linear-abg.csv",
        "table2_grid_quadratic-abg.csv",
        "table2_grid_cubic-abg.csv",
    } <= names
    payload = json.loads((tmp_path / "table2.json").read_text())
    assert payload["study"] == "OrderStudy"
    assert {r["method"] for r in payload["reports"]} == {
        "linear-abg", "quadratic-abg", "cubic-abg",
    }
    from pathfuse.evaluation import GRID_DISTANCES_M, GRID_FREQS_GHZ

    grid = read_csv(tmp_path / "table2_grid_cubic-abg.csv")
    assert set(grid[0]) == {"d", "f", "pl_db"}
    assert len(grid) == len(GRID_DISTANCES_M) * len(GRID_FREQS_GHZ)


def test_experiment_writes_the_integration_coefficients(tmp_path, capsys):
    rc, out, _ = run(capsys, "experiment", "--which", "table4", "--trials", "1",
                     "--seed", "1", "--out-dir", str(tmp_path))
    assert rc == 5  # a gate fails at one trial; the bundle is written first
    names = ["table4.json", "table4.csv", "table4_coefficients.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert f"wrote {', '.join(str(tmp_path / n) for n in names)}" in out
    path = tmp_path / "table4_coefficients.csv"
    assert path.read_text().splitlines()[0] == (
        "scenario,method,band_ghz,alpha,beta,gamma,alpha2,delta,gamma2")
    rows = read_csv(path)
    # one row per scenario x band cell and arm
    assert len({(r["scenario"], r["band_ghz"], r["method"]) for r in rows}) == 27
    assert len(rows) == 27
    assert {r["band_ghz"] for r in rows if r["scenario"] == "UMiOS"} == {
        "2-18", "29-60", "2-60"}


def test_experiment_out_dir_that_is_a_file_fails_before_the_study(
    tmp_path, capsys, monkeypatch
):
    taken = tmp_path / "taken"
    taken.write_text("")

    def no_study(spec):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "run_experiment", no_study)
    rc, out, err = run(capsys, "experiment", "--which", "table3", "--trials", "1",
                       "--out-dir", str(taken))
    assert rc == 3
    assert f"cannot write to {taken}" in err
    assert out == ""


def test_experiment_csv_to_stdout(capsys):
    rc, out, _ = run(capsys, "experiment", "--which", "table2", "--trials", "3",
                     "--seed", "0", "--format", "csv")
    assert rc == 0
    # the CSV block comes first; the human-readable report lines that follow
    # are indented and the gate lines start with a bracket
    csv_lines = []
    for line in out.splitlines():
        if line.startswith((" ", "[")):
            break
        csv_lines.append(line)
    rows = list(csv.DictReader(csv_lines))
    methods = {r["method"] for r in rows}
    assert "linear-abg" in methods and "cubic-abg" in methods


def test_experiment_json_to_stdout(capsys):
    rc, out, _ = run(capsys, "experiment", "--which", "table2", "--trials", "3",
                     "--seed", "0", "--format", "json")
    assert rc == 0
    payload, end = json.JSONDecoder().raw_decode(out)
    assert payload["study"] == "OrderStudy"
    assert out[end:].lstrip().startswith("linear-abg")


def test_experiment_headline_robustness_number(tmp_path, capsys):
    rc, _, _ = run(capsys, "experiment", "--which", "table3", "--trials", "10",
                   "--seed", "1", "--out-dir", str(tmp_path))
    assert rc == 0
    rows = read_csv(tmp_path / "table3.csv")
    ts = next(r for r in rows if r["method"] == "theil-sen")
    assert float(ts["sigma_db"]) == pytest.approx(3.90, abs=0.15)


def test_experiment_failing_gate_exits_5(tmp_path, capsys, monkeypatch):
    # a data directory whose median-fit target no sigma can meet: the study
    # runs, its gate fails, and experiment returns 5
    data = tmp_path / "data"
    shutil.copytree(Path(pathfuse.__file__).with_name("data"), data)
    targets = json.loads((data / "reference_targets.json").read_text())
    targets["robust_study"]["theil_sen_with_tolerance_db"] = 0.0
    (data / "reference_targets.json").write_text(json.dumps(targets))
    monkeypatch.setenv("PATHFUSE_DATA_DIR", str(data))
    rc, out, err = run(capsys, "experiment", "--which", "table3", "--trials", "1")
    assert rc == 5
    assert "[FAIL] robust/theil-sen/sigma" in out
    assert "benchmark gate(s) failed" in err


def _edit_targets(data, case):
    path = data / "reference_targets.json"
    if case == "unreadable":
        path.unlink()
    elif case == "malformed":
        path.write_text(path.read_text()[:-2])
    else:
        targets = json.loads(path.read_text())
        robust, cells = targets["robust_study"], targets["integration_study"]["cells"]
        if case == "missing":
            del robust["clean_band_db"]
        elif case == "unknown":
            cells[1]["points"] = 396
        elif case == "wrong-type":
            targets["integration_study"]["cells"] = {}
        elif case == "string-tolerance":
            robust["ols_with_tolerance_db"] = "0.15"
        elif case == "string-sigma":
            cells[0]["sigma_db"] = "x"
        elif case == "string-band":
            cells[0]["band_ghz"] = "2-18"
        elif case == "missing-cell":
            del cells[6]  # UMa 2-18 GHz
        else:
            robust["clean_band_db"] = [3.0]
        path.write_text(json.dumps(targets))


#: how ``_edit_targets`` breaks the targets file -> what the error then says
TARGET_FAULTS = {
    "missing": "robust_study lacks the key 'clean_band_db'",
    "unknown": "integration_study.cells[1] has an unknown key 'points'",
    "unreadable": "cannot read reference targets",
    "malformed": "cannot read reference targets",
    "wrong-type": "integration_study.cells must be a JSON array",
    "string-tolerance": "robust_study.ols_with_tolerance_db must be a finite number",
    "string-sigma": "integration_study.cells[0].sigma_db must be a JSON object",
    "string-band": "integration_study.cells[0].band_ghz must be two finite numbers",
    "short-band": "robust_study.clean_band_db must be two finite numbers",
    "missing-cell": "integration_study.cells has no row for UMa 2-18 GHz",
}


@pytest.mark.parametrize("case", list(TARGET_FAULTS))
def test_experiment_bad_reference_targets_exit_3(case, tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(Path(pathfuse.__file__).with_name("data"), data)
    _edit_targets(data, case)
    monkeypatch.setenv("PATHFUSE_DATA_DIR", str(data))
    rc, _, err = run(capsys, "experiment", "--which", "table3", "--trials", "1")
    assert rc == 3
    assert f"{data / 'reference_targets.json'}" in err
    assert TARGET_FAULTS[case] in err


def test_experiment_usage_lists_each_study_once(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    choices = re.search(r"--which \{([^}]*)\}", usage).group(1).split(",")
    assert len(choices) == len(set(choices))
    assert [c for c in choices if c in STUDIES] == list(STUDIES)
    # PATHFUSE_DATA_DIR is the one way to point a study at other data
    assert "--registry" not in usage


def test_experiment_unknown_table_is_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--which", "table9"])
    assert exc.value.code == 2
