"""Command-line interface: subcommands, file formats, exit codes."""

import csv
import json
import re
import shutil
from pathlib import Path

import pytest

import pathfuse
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
                 values=(3.5, 25.0, 2.0)):
    model = FittedModel(
        coefficients=CoefficientSet(order=1, values=values),
        sigma=4.0,
        freq_range=(1.0, 80.0),
        dist_range=(1.0, 2000.0),
        gas_corrected=gas_corrected,
        weighting="Identity",
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
        if case == "missing":
            del targets["robust_study"]["clean_band_db"]
        elif case == "unknown":
            targets["integration_study"]["cells"][1]["points"] = 396
        else:
            targets["integration_study"]["cells"] = {}
        path.write_text(json.dumps(targets))


#: how ``_edit_targets`` breaks the targets file -> what the error then says
TARGET_FAULTS = {
    "missing": "robust_study lacks the key 'clean_band_db'",
    "unknown": "integration_study.cells[1] has an unknown key 'points'",
    "unreadable": "cannot read reference targets",
    "malformed": "cannot read reference targets",
    "wrong-type": "integration_study.cells must be a JSON array",
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


def test_experiment_unknown_table_is_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--which", "table9"])
    assert exc.value.code == 2
