"""Gas-attenuation table: loading, lookup, correction round trips."""

import shutil
from pathlib import Path

import numpy as np
import pytest

import pathfuse
from pathfuse.atmosphere import GasAttenuationTable, load_default_table, remove_gas_loss
from pathfuse.errors import DataError, GasRangeError
from pathfuse.models import SampleBatch


@pytest.fixture(scope="module")
def table():
    return load_default_table()


def test_bundled_table_spans_the_working_band(table):
    assert table.freqs_ghz[0] <= 1.0
    assert table.freqs_ghz[-1] >= 100.0
    assert np.all(np.diff(table.freqs_ghz) > 0)
    assert np.all(table.atten_db_per_km > 0)


def test_oxygen_line_dominates_thirty_ghz(table):
    assert table.specific_attenuation(60.0) / table.specific_attenuation(30.0) > 10.0


def test_resonance_peaks_sit_where_physics_puts_them(table):
    f = np.arange(50.0, 70.0, 0.1)
    peak = f[np.argmax(table.specific_attenuation(f))]
    assert 58.0 <= peak <= 62.0
    f = np.arange(18.0, 28.0, 0.1)
    peak = f[np.argmax(table.specific_attenuation(f))]
    assert 21.5 <= peak <= 23.0


def test_lookup_interpolates_linearly_in_log_attenuation(table):
    i = int(np.searchsorted(table.freqs_ghz, 40.0))
    f0, f1 = table.freqs_ghz[i], table.freqs_ghz[i + 1]
    a0, a1 = table.atten_db_per_km[i], table.atten_db_per_km[i + 1]
    mid = (f0 + f1) / 2.0
    expect = 10.0 ** ((np.log10(a0) + np.log10(a1)) / 2.0)
    assert table.specific_attenuation(mid) == pytest.approx(expect, rel=1e-12)


def test_gas_loss_scales_linearly_with_distance(table):
    one_km = table.gas_loss(1000.0, 60.0)
    assert table.gas_loss(2000.0, 60.0) == pytest.approx(2.0 * one_km, rel=1e-12)
    assert 10.0 < one_km < 20.0  # the 60 GHz oxygen peak, roughly 15 dB/km
    assert table.gas_loss(0.0, 60.0) == 0.0


def test_out_of_range_frequency_raises(table):
    with pytest.raises(GasRangeError):
        table.specific_attenuation(0.5)
    with pytest.raises(GasRangeError):
        table.specific_attenuation(500.0)


def _samples(freqs):
    i = np.arange(len(freqs))
    return SampleBatch(100.0 * (i + 1), freqs, 100.0 + i, ["s"] * len(freqs))


def test_remove_then_reapply_is_identity(table):
    samples = _samples([2.0, 28.0, 60.0, 73.5])
    removed = remove_gas_loss(table, samples)
    back = removed.path_loss + table.gas_loss(removed.distance, removed.frequency)
    assert back == pytest.approx(samples.path_loss, abs=1e-12)
    assert removed.distance.tolist() == samples.distance.tolist()
    assert removed.source_id.tolist() == samples.source_id.tolist()


def test_remove_names_the_offending_sample(table):
    samples = _samples([2.0, 0.2])
    with pytest.raises(GasRangeError) as err:
        remove_gas_loss(table, samples)
    assert "sample 1" in str(err.value)


def _write_table(path, rows, header="# T=288.15 P=1013.25 rho=7.5"):
    lines = [header, "freq_ghz,atten_db_per_km"]
    lines += [f"{f},{a}" for f, a in rows]
    path.write_text("\n".join(lines) + "\n")


def test_table_validation_rejects_bad_inputs(tmp_path):
    p = tmp_path / "gas.csv"
    # span too small
    _write_table(p, [(f, 0.1) for f in np.arange(5.0, 50.0, 0.25)])
    with pytest.raises(DataError):
        GasAttenuationTable.from_csv(p)
    # non-increasing frequency
    with pytest.raises(DataError):
        GasAttenuationTable(
            np.array([1.0, 3.0, 2.0, 100.0]), np.ones(4)
        )
    # nonpositive attenuation
    with pytest.raises(DataError):
        GasAttenuationTable(
            np.array([1.0, 2.0, 3.0, 100.0]), np.array([0.1, -0.1, 0.1, 0.1])
        )
    # resonance zones must be finely gridded
    coarse = [1.0, 20.0, 25.0, 45.0, 75.0, 100.0]
    with pytest.raises(DataError):
        GasAttenuationTable(np.array(coarse), np.full(6, 0.1))
    # garbage rows, named by line after a comment line and the header
    p2 = tmp_path / "bad.csv"
    for row in ("1.0,abc", "1.0", "1.0,0.1,0.2"):
        p2.write_text(f"# a comment\nfreq_ghz,atten_db_per_km\n{row}\n")
        with pytest.raises(DataError, match=f"^{p2}:3: bad table row"):
            GasAttenuationTable.from_csv(p2)
    with pytest.raises(DataError):
        GasAttenuationTable.from_csv(tmp_path / "missing.csv")


def test_data_dir_override_reads_its_own_table(tmp_path, monkeypatch):
    # the cache is keyed by the table's path under PATHFUSE_DATA_DIR, so a
    # changed directory is read and unsetting the variable gives the bundled
    # table back
    bundled = Path(pathfuse.__file__).with_name("data")
    shutil.copytree(bundled, tmp_path / "data")
    path = tmp_path / "data" / "itu_p676_standard.csv"
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines):
        if line[:1].isdigit():
            f, a = line.split(",")
            lines[k] = f"{f},{2.0 * float(a)!r}"
    path.write_text("\n".join(lines) + "\n")
    d, f = np.array([100.0, 800.0]), np.array([28.0, 60.0])
    base = load_default_table().gas_loss(d, f)

    monkeypatch.setenv("PATHFUSE_DATA_DIR", str(tmp_path / "data"))
    assert load_default_table().gas_loss(d, f) == pytest.approx(2.0 * base, rel=1e-12)
    monkeypatch.delenv("PATHFUSE_DATA_DIR")
    assert load_default_table().gas_loss(d, f).tolist() == base.tolist()
