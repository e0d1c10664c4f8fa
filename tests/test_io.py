"""The data boundary: the samples CSV's bad rows, retired weights and
byte-stable round trips, and every loader and config fuzzed one field at a
time."""

import copy
import csv
import dataclasses
import json
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathfuse
from pathfuse import io as pio
from pathfuse.errors import ConfigError, DataError
from pathfuse.evaluation import STUDIES, ExperimentSpec, evaluate_gates
from pathfuse.io import (
    SourceModel,
    load_model,
    load_reference_targets,
    load_registry,
    load_samples,
    save_model,
    save_samples,
    sigma_map,
)
from pathfuse.models import CoefficientSet, FittedModel
from pathfuse.pipeline import WEIGHTING_POLICIES, PipelineConfig, fit_pathloss_model
from pathfuse.seeding import substream
from pathfuse.synthesis import (
    DISTANCE_SAMPLINGS,
    OutlierSpec,
    SynthesisSpec,
    inject_outliers,
    synthesize_corpus,
    synthesize_from_model,
)

from conftest import make_model

# the optional weight column is accepted as long as every weight is 1
HEADER = "distance_m,freq_ghz,path_loss_db,source_id,weight"
GOOD_ROWS = ["10.0,2.0,80.0,a,1.0", "20.0,2.0,90.0,a,"]


def _write(path, *rows):
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    return path


def test_unit_weights_load(tmp_path):
    batch = load_samples(_write(tmp_path / "samples.csv", *GOOD_ROWS))
    assert batch.path_loss.tolist() == [80.0, 90.0]


@pytest.mark.parametrize(
    "bad_row",
    [
        "30.0,2.0,loud,a,1.0",  # non-numeric field
        "-30.0,2.0,95.0,a,1.0",  # negative distance
        "30.0,2.0,inf,a,1.0",  # non-finite loss
        "30.0,2.0,95.0,a,5.0",  # a weight no fit would read
        "30.0,2.0,95.0",  # no source id
        "30.0,2.0,95.0,,1.0",  # an empty source id
        "30.0,2.0,95.0, ,1.0",  # a blank one
    ],
)
def test_bad_sample_row_names_its_line(tmp_path, bad_row):
    path = _write(tmp_path / "samples.csv", *GOOD_ROWS, bad_row)
    with pytest.raises(DataError, match=f"^{path}:4: bad sample row"):
        load_samples(path)


def test_save_load_save_is_byte_identical(tmp_path):
    corpus = synthesize_corpus(
        [make_model(id="a-2ghz", frequency=2.0), make_model(id="b-28ghz")],
        SynthesisSpec(points_per_model=50),
        substream(3, "io"),
    )
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    save_samples(corpus, first)
    loaded = load_samples(first)
    save_samples(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[0] == "distance_m,freq_ghz,path_loss_db,source_id"
    assert np.array_equal(loaded.path_loss, corpus.path_loss)
    assert loaded.source_id.tolist() == corpus.source_id.tolist()


def test_blank_lines_are_skipped_and_lines_still_counted(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text(f"{HEADER}\n\n{GOOD_ROWS[0]}\n\n{GOOD_ROWS[1]}\n\n")
    assert load_samples(path).path_loss.tolist() == [80.0, 90.0]
    path.write_text(f"{HEADER}\n{GOOD_ROWS[0]}\n\n30.0,2.0,loud,a,1.0\n")
    with pytest.raises(DataError, match=f"^{path}:4: bad sample row"):
        load_samples(path)


def test_columns_come_in_any_order_and_extra_ones_are_ignored(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text(
        "note,source_id,path_loss_db,freq_ghz,distance_m\n"
        "x,a,80.0,2.0,10.0\n"
        "y,b,90.0,3.0,20.0,beyond-the-header\n"
    )
    batch = load_samples(path)
    assert batch.distance.tolist() == [10.0, 20.0]
    assert batch.frequency.tolist() == [2.0, 3.0]
    assert batch.path_loss.tolist() == [80.0, 90.0]
    assert batch.source_id.tolist() == ["a", "b"]


def test_a_duplicated_header_name_takes_its_last_column(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("distance_m,freq_ghz,path_loss_db,source_id,distance_m\n"
                    "10,2.0,80.0,a,30.0\n")
    assert load_samples(path).distance.tolist() == [30.0]


def test_a_missing_column_fails_at_the_first_row(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("distance_m,path_loss_db,source_id\n10.0,80.0,a\n")
    missing = "no 'freq_ghz' column"
    with pytest.raises(DataError, match=f"^{path}:2: bad sample row: {missing}"):
        load_samples(path)


def test_a_quoted_newline_counts_as_a_line(tmp_path):
    # the quoted id spans lines 2 and 3, so the bad row is on line 4
    path = _write(tmp_path / "samples.csv", '10.0,2.0,80.0,"a\nb",1.0',
                  "30.0,2.0,loud,a,1.0")
    with pytest.raises(DataError, match=f"^{path}:4: bad sample row"):
        load_samples(path)


def test_values_are_parsed_by_python_float(tmp_path):
    batch = load_samples(_write(tmp_path / "samples.csv", " 1_0 ,2E0,80.5 , a ,"))
    assert batch.distance.tolist() == [10.0]
    assert batch.frequency.tolist() == [2.0]
    assert batch.path_loss.tolist() == [80.5]
    assert batch.source_id.tolist() == ["a"]


@pytest.mark.parametrize("text", ["", HEADER + "\n"], ids=["empty", "header-only"])
def test_a_file_without_rows_has_no_samples(tmp_path, text):
    path = tmp_path / "samples.csv"
    path.write_text(text)
    with pytest.raises(DataError, match="contains no samples"):
        load_samples(path)


# ---------------------------------------------------------------------------
# a canonical file (as save_samples writes it) with one change: load_samples,
# which tries its C path first, returns what the reference row loop returns

CANONICAL_HEADER = "distance_m,freq_ghz,path_loss_db,source_id"


def _outcome(load, path):
    """The columns' bits and the ids with their dtype, or the DataError's text."""
    try:
        batch = load(path)
    except DataError as exc:
        return str(exc)
    floats = (batch.distance, batch.frequency, batch.path_loss)
    return [c.tobytes() for c in floats], batch.source_id.dtype, batch.source_id.tolist()


def _check_both_paths_agree(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    assert _outcome(load_samples, path) == _outcome(pio._load_rows, path)


#: what one change does to the rows (lists of fields) or to the lines
ROW_CHANGES = {
    "space around a float": lambda row, i: row.__setitem__(i % 3, f" {row[i % 3]}\t"),
    "1_0": lambda row, i: row.__setitem__(i % 3, "1_0"),
    "nan": lambda row, i: row.__setitem__(i % 3, "nan"),
    "empty id": lambda row, i: row.__setitem__(3, ""),
    "blank id": lambda row, i: row.__setitem__(3, "  "),
    "fifth field": lambda row, i: row.append("b"),
    "quoted id": lambda row, i: row.__setitem__(3, f'"{row[3]}"'),
    "quoted newline": lambda row, i: row.__setitem__(3, '"a\nb"'),
    "long id": lambda row, i: row.__setitem__(3, "x" * 300),
    "form feed in an id": lambda row, i: row.__setitem__(3, f"{row[3]}\f"),
    "form feed after a float": lambda row, i: row.__setitem__(i % 3, f"{row[i % 3]}\f"),
}
LINE_CHANGES = {"blank line": "", "whitespace line": " \t", "form feed line": "\f"}


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.tuples(st.floats(1e-3, 1e4), st.floats(0.5, 100.0),
                                 st.floats(-50.0, 250.0),
                                 # " a " is "a" once stripped
                                 st.sampled_from(["a", "b-28ghz", " c d ", " a ",
                                                  "münchen-28ghz"])),
                       min_size=1, max_size=6),
       change=st.sampled_from([None, *ROW_CHANGES, *LINE_CHANGES]),
       at=st.integers(0, 100), every_row=st.booleans(),
       newline=st.sampled_from(["\r\n", "\n", "\r"]))
def test_load_samples_returns_what_the_row_loop_returns(values, change, at, every_row,
                                                         newline, tmp_path_factory):
    rows = [[repr(d), repr(f), repr(y), source] for d, f, y, source in values]
    if change in ROW_CHANGES:
        for row in rows if every_row else [rows[at % len(rows)]]:
            ROW_CHANGES[change](row, at)
    lines = [CANONICAL_HEADER, *map(",".join, rows)]
    if change in LINE_CHANGES:
        lines.insert(1 + at % len(rows), LINE_CHANGES[change])
    path = tmp_path_factory.getbasetemp() / "changed-samples.csv"
    _check_both_paths_agree(path, newline.join(lines) + newline)


@pytest.mark.parametrize("rows", [
    ["10.0,2.0,80.0,a,b"],  # a fifth field is not the id
    ["10.0,2.0,80.0,a", "10.0,2.0,80.0,a,b"],
    ["10.0,2.0,80.0,a,b", "20.0,2.0,90.0,a,b"],
    ["10.0,2.0,80.0"],
    ["10.0,2.0,80.0,a", "20.0,2.0,95.0"],
    ["1_0,2.0,80.0,a", "-3.0,2.0,95.0,a"],
    ["10.0,2.0,80.0,a\x00b"],
], ids=lambda rows: " / ".join(rows))
def test_load_samples_agrees_with_the_row_loop_on_odd_rows(rows, tmp_path):
    _check_both_paths_agree(tmp_path / "samples.csv",
                            "\r\n".join([CANONICAL_HEADER, *rows, ""]))


def test_a_saved_file_takes_the_c_path(tmp_path):
    corpus = synthesize_corpus([make_model()], SynthesisSpec(points_per_model=50),
                               substream(4, "io"))
    save_samples(corpus, tmp_path / "samples.csv")
    fast = pio._load_canonical(tmp_path / "samples.csv")
    assert fast is not None
    assert _outcome(lambda path: fast, None) == _outcome(pio._load_rows,
                                                         tmp_path / "samples.csv")


def test_a_saved_file_loads_in_bounded_memory(tmp_path):
    # the C path reads the file itself: no copy of its text, no list of its
    # lines, no fixed-width id field
    rows = 8000
    corpus = synthesize_corpus([make_model()], SynthesisSpec(points_per_model=rows),
                               substream(5, "io"))
    path = tmp_path / "samples.csv"
    save_samples(corpus, path)
    assert pio._load_canonical(path) is not None
    tracemalloc.start()
    try:
        load_samples(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 250 * rows


# ---------------------------------------------------------------------------
# one field changed at a time: every loader takes the file or raises DataError
# ---------------------------------------------------------------------------

DATA = Path(pathfuse.__file__).with_name("data")

#: what one field becomes: each JSON type, and the edge values of a number
#: (10**400 is a JSON integer that no float holds)
VALUES = (None, True, False, 0, -1, -2.5, 1e308, 10**400, float("nan"), float("inf"),
          float("-inf"), "", "x", [], [0], {}, {"k": 0})


def _paths(value, at=()):
    """Where every value below ``value`` sits, as key and index paths; of an
    array only the first two items, since its items share one schema."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = list(enumerate(value))[:2]
    else:
        items = ()
    for key, below in items:
        yield at + (key,)
        yield from _paths(below, at + (key,))


def _changed(value, at, new):
    value = copy.deepcopy(value)
    parent = value
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = new
    return value


TARGETS = json.loads((DATA / "reference_targets.json").read_text())
with open(DATA / "table1_nlos.csv", newline="") as fh:
    REGISTRY = list(csv.reader(fh))


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(FittedModel(
        coefficients=CoefficientSet(2, (2.5, 30.0, 2.0, 0.01, -0.02, 0.03)),
        sigma=4.0, gas_corrected=True, freq_range=(2.0, 73.5),
        dist_range=(10.0, 500.0), provenance={"n_fitted": 100, "loocv_db": 4.1},
    ), path)
    return json.loads(path.read_text())


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_changed_model_field_loads_or_is_a_data_error(data, saved_model,
                                                        tmp_path_factory):
    at = data.draw(st.sampled_from(list(_paths(saved_model))))
    new = data.draw(st.sampled_from(VALUES))
    path = tmp_path_factory.getbasetemp() / "changed-model.json"
    path.write_text(json.dumps(_changed(saved_model, at, new)))
    try:
        load_model(path)
    except DataError:
        pass


@settings(max_examples=80, deadline=None)
@given(row=st.integers(1, len(REGISTRY) - 1), column=st.integers(0, 12),
       new=st.sampled_from(VALUES))
def test_a_changed_registry_cell_loads_or_is_a_data_error(row, column, new,
                                                          tmp_path_factory):
    rows = copy.deepcopy(REGISTRY)
    rows[row][column] = new if isinstance(new, str) else json.dumps(new)
    path = tmp_path_factory.getbasetemp() / "changed-registry.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    try:
        load_registry(path)
    except DataError:
        pass


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SourceModel)])
def test_a_changed_source_model_field_is_a_value_error_or_synthesizes(name):
    # a model that builds expands into samples under both samplings, or its
    # corpus is refused with ValueError (an alpha of 1e308 overflows the loss)
    crashes = []
    for new in VALUES + ("28",):
        try:
            model = make_model(**{name: new})
        except ValueError:
            continue
        for sampling in DISTANCE_SAMPLINGS:
            spec = SynthesisSpec(points_per_model=5, distance_sampling=sampling)
            try:
                with np.errstate(over="ignore"):
                    synthesize_from_model(model, spec, np.random.default_rng(0))
            except ValueError:
                pass
            except (TypeError, OverflowError) as exc:
                crashes.append(f"{name}={new!r} ({sampling}): {exc!r}")
    assert crashes == []


@settings(max_examples=150, deadline=None)
@given(at=st.sampled_from(list(_paths(TARGETS))), new=st.sampled_from(VALUES))
def test_changed_targets_load_or_are_a_data_error_and_gates_still_evaluate(
    at, new, tmp_path_factory, order_result, robust_result, integration_result,
    outlier_result,
):
    data = tmp_path_factory.getbasetemp() / "changed-targets"
    data.mkdir(exist_ok=True)
    (data / "reference_targets.json").write_text(json.dumps(_changed(TARGETS, at, new)))
    with mock.patch.dict(os.environ, PATHFUSE_DATA_DIR=str(data)):
        try:
            load_reference_targets()
        except DataError:
            return
        for result in (order_result, robust_result, integration_result, outlier_result):
            assert evaluate_gates(result)


# ---------------------------------------------------------------------------
# one config field changed at a time: a ConfigError, or a fit whose saved
# model loads back with the same provenance
# ---------------------------------------------------------------------------

ROUND_TRIP_MODELS = [m for m in load_registry() if m.scenario == "UMiSC"]
ROUND_TRIP_SIGMAS = sigma_map(ROUND_TRIP_MODELS)

#: the configs of one fit, in the order it builds them; ExperimentSpec's seed
#: draws the corpus, as in a study
ROUND_TRIP_CONFIGS = {
    ExperimentSpec: {"which": "IntegrationStudy", "trials": 1, "seed": 0},
    SynthesisSpec: {"points_per_model": 12},
    OutlierSpec: {},
    PipelineConfig: {},
}

#: what each field takes besides VALUES: its other valid values, each of which
#: leaves the corpus enough samples to fit, and values just outside its range
OTHER_VALUES = {
    "which": STUDIES, "trials": (3, 2**63 - 1, 2**63), "seed": (7, 2**64 + 3, 1.5),
    "points_per_model": (30, 2**63), "distance_sampling": ("UniformDistance",),
    "rho": (1e-9, 3, 1e300, 2e300), "band_width": (5, 400.0, "5"),
    "contamination_fraction": (1, 0.5, 1.5, "0.2"), "magnitude_scale": (55.0, -0.0),
    "order": (1, 2, 3, 2.0), "weighting": WEIGHTING_POLICIES,
    "robust": ("TheilSen", "RANSAC", "ransac"), "gas_correction": (0, "no"),
    "freq_band": ((2, 18), [28.0, 73.5], (18.0, 2.0), (1, 2, 3), "ab", (0.0, 5.0)),
}

CONFIG_FIELDS = [(config, field.name) for config in ROUND_TRIP_CONFIGS
                 for field in dataclasses.fields(config)]


@settings(max_examples=200, deadline=None)
@given(at=st.sampled_from(CONFIG_FIELDS), data=st.data())
def test_a_changed_config_field_is_a_config_error_or_a_fit_that_loads_back(
    at, data, tmp_path_factory,
):
    changed, name = at
    new = data.draw(st.sampled_from(VALUES + tuple(OTHER_VALUES[name])))
    try:
        spec, synth, outliers, cfg = (
            config(**{**fields, **({name: new} if config is changed else {})})
            for config, fields in ROUND_TRIP_CONFIGS.items())
    except ConfigError:
        return
    rng = substream(spec.seed, "round trip")
    corpus = synthesize_corpus(ROUND_TRIP_MODELS, synth, rng)
    corpus = inject_outliers(corpus, outliers, rng)[0]
    model, _ = fit_pathloss_model(corpus, cfg, sigma_by_source=ROUND_TRIP_SIGMAS)
    path = tmp_path_factory.getbasetemp() / "round-trip-model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.coefficients == model.coefficients
    assert loaded.provenance == model.provenance
