"""The samples CSV boundary: bad rows, retired weights, byte-stable round trips."""

import numpy as np
import pytest

from pathfuse.errors import DataError
from pathfuse.io import load_samples, save_samples
from pathfuse.seeding import substream
from pathfuse.synthesis import SynthesisSpec, synthesize_corpus

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
