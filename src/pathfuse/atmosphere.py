# Atmospheric gas attenuation: table lookup, per-sample correction, restore.
#
# Millimetre-wave measurements absorb extra loss from oxygen and water-vapour
# resonances (the 60 GHz oxygen complex being the dominant feature).  Fitting
# a smooth surface across frequency bands works better when that non-smooth
# physical term is removed first and added back at prediction time, which
# ``predict_total`` does for exactly the models fitted on corrected samples.
#
# The bundled table gives specific attenuation (dB/km) on a fine frequency
# grid at standard surface conditions; lookups interpolate linearly in
# log10(attenuation), which tracks the resonance flanks far better than
# linear interpolation.  Requests outside the tabulated range raise rather
# than extrapolate.  ``load_default_table`` reads each table once per process.

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GasRangeError
from .io import data_path

__all__ = [
    "GasAttenuationTable",
    "load_default_table",
    "remove_gas_loss",
    "predict_total",
]

_DEFAULT_TABLE_FILE = "itu_p676_standard.csv"

# sanity requirements on any loaded table
_REQUIRED_SPAN = (1.0, 100.0)  # GHz the table must cover
_FINE_REGIONS = ((21.0, 24.0), (50.0, 70.0))  # resonance zones
_MAX_FINE_STEP = 0.5  # GHz


@dataclass(frozen=True)
class GasAttenuationTable:
    """Specific gas attenuation vs frequency at fixed surface conditions."""

    freqs_ghz: np.ndarray
    atten_db_per_km: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs_ghz, dtype=float)
        a = np.asarray(self.atten_db_per_km, dtype=float)
        if f.ndim != 1 or f.shape != a.shape or f.size < 2:
            raise DataError("attenuation table needs matching 1-D columns")
        if not (np.isfinite(f).all() and np.isfinite(a).all()):
            raise DataError("attenuation table contains non-finite entries")
        if np.any(np.diff(f) <= 0.0):
            raise DataError("table frequencies must be strictly increasing")
        if np.any(a <= 0.0):
            raise DataError("specific attenuation must be positive everywhere")
        if f[0] > _REQUIRED_SPAN[0] or f[-1] < _REQUIRED_SPAN[1]:
            raise DataError(
                f"table covers [{f[0]}, {f[-1]}] GHz; "
                f"needs at least {list(_REQUIRED_SPAN)}"
            )
        for lo, hi in _FINE_REGIONS:
            sel = (f >= lo) & (f <= hi)
            steps = np.diff(f[sel])
            if steps.size == 0 or steps.max() > _MAX_FINE_STEP + 1e-12:
                raise DataError(
                    f"table grid must be <= {_MAX_FINE_STEP} GHz within "
                    f"[{lo}, {hi}] GHz"
                )
        object.__setattr__(self, "freqs_ghz", f)
        object.__setattr__(self, "atten_db_per_km", a)
        object.__setattr__(self, "_log_atten", np.log10(a))

    @classmethod
    def from_csv(cls, path):
        """Load ``freq_ghz,atten_db_per_km`` rows; '#' lines are comments, and
        a bad row raises DataError at ``path:line``."""
        freqs, attens = [], []
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                for row in reader:
                    head = row[0].strip() if row else "#"
                    if head.startswith("#") or head == "freq_ghz":
                        continue
                    try:
                        freq, atten = map(float, row)
                    except ValueError as exc:
                        raise DataError(
                            f"{path}:{reader.line_num}: bad table row: {exc}"
                        ) from exc
                    freqs.append(freq)
                    attens.append(atten)
        except OSError as exc:
            raise DataError(f"cannot read attenuation table {path}: {exc}") from exc
        return cls(np.array(freqs), np.array(attens))

    def specific_attenuation(self, f_ghz):
        """dB/km at ``f_ghz`` (scalar or array); log-linear between nodes."""
        f = np.asarray(f_ghz, dtype=float)
        if not np.all(np.isfinite(f)):
            raise GasRangeError(f"frequency must be finite, got {f_ghz!r}")
        lo, hi = self.freqs_ghz[0], self.freqs_ghz[-1]
        out_of_range = (f < lo) | (f > hi)
        if np.any(out_of_range):
            bad = np.atleast_1d(f)[np.atleast_1d(out_of_range)][0]
            raise GasRangeError(
                f"frequency {bad:g} GHz outside table range [{lo:g}, {hi:g}] GHz"
            )
        out = 10.0 ** np.interp(f, self.freqs_ghz, self._log_atten)
        return float(out) if np.ndim(f_ghz) == 0 else out

    def gas_loss(self, d_m, f_ghz):
        """Total gaseous loss (dB) over a ``d_m``-metre path at ``f_ghz``."""
        d = np.asarray(d_m, dtype=float)
        if not np.all(np.isfinite(d) & (d >= 0.0)):
            raise ValueError(f"distance must be finite and >= 0, got {d_m!r}")
        out = self.specific_attenuation(f_ghz) * d / 1000.0
        return float(out) if np.ndim(d_m) == 0 and np.ndim(f_ghz) == 0 else out


_tables: dict = {}


def load_default_table():
    """The table of the data directory (``io.data_path``), each path read once
    per process."""
    path = data_path(_DEFAULT_TABLE_FILE)
    if path not in _tables:
        _tables[path] = GasAttenuationTable.from_csv(path)
    return _tables[path]


def _gas_losses(table, batch):
    """Gaseous loss (dB) of every row; a row outside the table raises, named."""
    f = batch.frequency
    lo, hi = table.freqs_ghz[0], table.freqs_ghz[-1]
    bad = np.nonzero((f < lo) | (f > hi))[0]
    if bad.size:
        i = int(bad[0])
        raise GasRangeError(
            f"(source {str(batch.ids[batch.group[i]])!r}): frequency "
            f"{f[i]:g} GHz outside table range [{lo:g}, {hi:g}] GHz", i
        )
    return table.gas_loss(batch.distance, f) if len(batch) else np.empty(0)


def remove_gas_loss(table, batch):
    """New batch with each path loss reduced by its gaseous component.

    Row order and the other columns are kept.  A sample whose frequency
    falls outside the table raises GasRangeError naming it.
    """
    return batch.with_path_loss(batch.path_loss - _gas_losses(table, batch))


def predict_total(model, d_m, f_ghz):
    """Total path loss (dB) of a fitted model at (d_m, f_ghz).

    A model fitted on gas-corrected samples gets the default table's gas
    loss added back; any other model's surface already includes it.
    """
    pred = model.predict(d_m, f_ghz)
    if model.gas_corrected:
        pred = pred + load_default_table().gas_loss(d_m, f_ghz)
    return pred
