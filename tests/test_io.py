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
