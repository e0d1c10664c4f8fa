"""Core types: samples and log-polynomial surfaces (``io`` holds source models).

A path-loss surface over distance d (metres) and carrier frequency f (GHz) is
a polynomial in the decibel-domain coordinates

    Ld = 10*log10(d),   Lf = 10*log10(f)

truncated at total degree 1, 2 or 3.  The order-1 surface is the classic
floating-intercept power-law fit

    P(d, f) = alpha*Ld + beta + gamma*Lf

whose coefficients published measurement campaigns report; orders 2 and 3 add
curvature and distance-frequency interaction terms.

Column convention (shared by every fit and prediction in the package):

    order 1: [Ld, 1, Lf]
    order 2: [Ld, 1, Lf, Ld^2, Ld*Lf, Lf^2]
    order 3: [Ld, 1, Lf, Ld^2, Ld*Lf, Lf^2, Ld^3, Ld^2*Lf, Ld*Lf^2, Lf^3]

``predict`` is implemented as the product of ``design_matrix`` with the
coefficient vector, so the two are consistent by construction.

Samples travel as columns: a ``SampleBatch`` holds float64 ``distance`` (m),
``frequency`` (GHz) and ``path_loss`` (dB), sorted distinct source ``ids`` and
each row's int32 ``group`` code into them: 28 bytes a row.  It is checked once,
with vector operations, when built (the rules of ``PathLossSample``; the codes
index the ids, and ids no row uses are dropped) and never changed; the batches
``take`` and ``with_path_loss`` derive check only a new loss column.  Every
function in the package that takes samples takes a batch.  ``PathLossSample`` is
only the row that indexing a batch hands out; nothing iterates a batch by row.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, NumericError

__all__ = [
    "ORDER_SIZES",
    "ORDER",
    "PathLossSample",
    "SampleBatch",
    "InvalidSampleError",
    "CoefficientSet",
    "FittedModel",
    "predict_abg",
    "design_matrix",
    "column_names",
    "coefficient_names",
    "build_design_system",
]

#: number of free coefficients per polynomial order
ORDER_SIZES = {1: 3, 2: 6, 3: 10}
#: what an order must be, as a leaf of ``io.check``: an int key of ORDER_SIZES
ORDER = ("one of 1, 2, 3", lambda v: type(v) is int and v in ORDER_SIZES)

#: an order's coefficient and design-column names are a prefix of these
_COEFF_NAMES = (
    "alpha", "beta", "gamma",  # order 1
    "alpha2", "delta", "gamma2",  # order 2
    "alpha3", "eta", "zeta", "gamma3",  # order 3
)
_COLUMN_NAMES = (
    "Ld", "1", "Lf",
    "Ld^2", "Ld*Lf", "Lf^2",
    "Ld^3", "Ld^2*Lf", "Ld*Lf^2", "Lf^3",
)


def column_names(order: int) -> tuple[str, ...]:
    """Design-column labels for ``order`` (used in error messages/reports)."""
    _check_order(order)
    return _COLUMN_NAMES[:ORDER_SIZES[order]]


def coefficient_names(order: int) -> tuple[str, ...]:
    _check_order(order)
    return _COEFF_NAMES[:ORDER_SIZES[order]]


def _check_order(order: int) -> None:
    wording, test = ORDER
    if not test(order):
        raise ValueError(f"order must be {wording}, got {order!r}")


def _check_positive_finite(name: str, value) -> None:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be > 0, got {value!r}")


@dataclass(frozen=True)
class PathLossSample:
    """One (distance, frequency, path-loss) observation tagged by source."""

    distance: float  # m
    frequency: float  # GHz
    path_loss: float  # dB
    source_id: str

    def __post_init__(self):
        _check_positive_finite("distance", self.distance)
        _check_positive_finite("frequency", self.frequency)
        if not np.isfinite(self.path_loss):
            raise ValueError(f"path_loss must be finite, got {self.path_loss!r}")


class InvalidSampleError(ValueError):
    """A batch row that ``PathLossSample`` would reject; ``row`` is its index."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"sample {row}: {reason}")
        self.row = row


class SampleBatch:
    """Path-loss observations as columns; see the module docstring.

    Indexing with an integer (and so iterating) gives ``PathLossSample`` rows;
    a slice, mask or index array gives a batch, as ``take`` does.
    """

    __slots__ = ("distance", "frequency", "path_loss", "ids", "group")

    def __init__(self, distance, frequency, path_loss, ids, group):
        self.distance = np.asarray(distance, dtype=float)
        self.frequency = np.asarray(frequency, dtype=float)
        self.path_loss = np.asarray(path_loss, dtype=float)
        ids, group = np.asarray(ids, dtype=str), np.asarray(group)
        columns = (self.distance, self.frequency, self.path_loss, group)
        if self.distance.ndim != 1 or len({c.shape for c in columns}) != 1:
            raise ValueError("sample columns must be 1-D and of one length")
        names = ids.tolist()  # compared in Python: faster than numpy for a few ids
        if ids.ndim != 1 or not all(a < b for a, b in zip(names, names[1:])):
            raise ValueError("ids must be 1-D, sorted and distinct")
        if group.size and (group.dtype.kind not in "iu" or group.min() < 0
                           or group.max() >= ids.size):
            raise ValueError(f"group codes must be integers in [0, {ids.size})")
        self.ids, self.group = _drop_unused(ids, group.astype(np.int32, copy=False))
        bad = ~(
            np.isfinite(self.distance) & (self.distance > 0.0)
            & np.isfinite(self.frequency) & (self.frequency > 0.0)
            & np.isfinite(self.path_loss)
        )
        if bad.any():
            row = int(np.argmax(bad))
            try:
                self[row]  # the row type's own check gives the reason
            except ValueError as exc:
                raise InvalidSampleError(row, str(exc)) from None

    @property
    def source_id(self) -> np.ndarray:
        """Each row's source id, ``ids[group]``."""
        return self.ids[self.group]

    def __len__(self) -> int:
        return self.distance.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return PathLossSample(
                float(self.distance[index]), float(self.frequency[index]),
                float(self.path_loss[index]), str(self.ids[self.group[index]]))
        return self.take(index)

    def take(self, index) -> "SampleBatch":
        """The rows selected by ``index`` (a slice, boolean mask or index array)."""
        cols = (c[index] for c in (self.distance, self.frequency, self.path_loss))
        return _derived(*cols, *_drop_unused(self.ids, self.group[index]))

    def with_path_loss(self, path_loss) -> "SampleBatch":
        """The same rows with ``path_loss`` as their loss column, the one checked."""
        cols = self.distance, self.frequency, np.asarray(path_loss, dtype=float)
        if cols[2].shape != self.path_loss.shape or not np.isfinite(cols[2]).all():
            return SampleBatch(*cols, self.ids, self.group)  # raises, naming the row
        return _derived(*cols, self.ids, self.group)


def _drop_unused(ids, group):
    """``ids`` and int32 ``group`` codes less the ids that no row uses."""
    used = np.bincount(group, minlength=ids.size) > 0
    if used.all():
        return ids, group
    return ids[used], (np.cumsum(used, dtype=np.int32) - 1)[group]


def _derived(*columns):
    """A ``SampleBatch`` of columns that a checked one gave, not checked again."""
    batch = object.__new__(SampleBatch)
    for name, column in zip(SampleBatch.__slots__, columns):
        setattr(batch, name, column)
    return batch


def predict_abg(alpha: float, beta: float, gamma: float, d, f):
    """Order-1 surface: alpha*10*log10(d) + beta + gamma*10*log10(f)."""
    _check_positive_finite("d", d)
    _check_positive_finite("f", f)
    out = alpha * (10.0 * np.log10(d)) + beta + gamma * (10.0 * np.log10(f))
    return float(out) if np.ndim(d) == 0 and np.ndim(f) == 0 else out


def design_matrix(order: int, d, f) -> np.ndarray:
    """Design rows for distances ``d`` and frequencies ``f`` (broadcastable)."""
    _check_order(order)
    _check_positive_finite("d", d)
    _check_positive_finite("f", f)
    ld, lf = map(np.ravel, np.broadcast_arrays(*(
        10.0 * np.log10(np.asarray(v, dtype=float)) for v in (d, f))))
    cols = [ld, np.ones_like(ld), lf]
    if order >= 2:
        cols += [ld * ld, ld * lf, lf * lf]
    if order >= 3:
        cols += [ld**3, ld * ld * lf, ld * lf * lf, lf**3]
    return np.column_stack(cols)


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of one log-polynomial surface, in column order."""

    order: int
    values: tuple

    def __post_init__(self):
        _check_order(self.order)
        vals = tuple(float(v) for v in self.values)
        if len(vals) != ORDER_SIZES[self.order]:
            raise ValueError(
                f"order {self.order} needs {ORDER_SIZES[self.order]} coefficients, "
                f"got {len(vals)}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "values", vals)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def named(self) -> dict:
        return dict(zip(coefficient_names(self.order), self.values))

    def predict(self, d, f):
        """Path loss (dB) at (d, f); exact dot of design row and values."""
        out = design_matrix(self.order, d, f) @ self.as_array()
        return float(out[0]) if np.ndim(d) == 0 and np.ndim(f) == 0 else out


@dataclass(frozen=True)
class FittedModel:
    """A fitted surface plus everything needed to reuse it honestly.  A pipeline
    fit's ``provenance`` records its config (the weighting policy too), sample
    counts, design rank and condition, and ``loocv_db``."""

    coefficients: CoefficientSet
    sigma: float  # dB, weighted residual std on retained samples
    gas_corrected: bool
    freq_range: tuple  # (GHz, GHz) span of the samples actually fitted
    dist_range: tuple  # (m, m)
    provenance: dict = field(default_factory=dict)

    @property
    def order(self) -> int:
        return self.coefficients.order

    def predict(self, d, f):
        """``coefficients.predict``; a result that is not finite raises NumericError."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.coefficients.predict(d, f)
        if not np.all(np.isfinite(out)):
            raise NumericError("the model's prediction is not finite")
        return out

    def covers(self, d: float, f: float) -> bool:
        return (
            self.dist_range[0] <= d <= self.dist_range[1]
            and self.freq_range[0] <= f <= self.freq_range[1]
        )


def build_design_system(batch, order: int, pin_gamma: float | None = None):
    """Assemble (X, Y) for a least-squares fit of ``order`` to a SampleBatch.

    With ``pin_gamma`` set (order 1 only), the frequency slope is fixed at the
    given value: the Lf column is dropped and its contribution moved to the
    response, leaving the two-column system [Ld, 1] -> [alpha, beta].

    Raises InsufficientDataError when there are fewer samples than columns.
    """
    _check_order(order)
    if pin_gamma is not None and order != 1:
        raise ValueError("pin_gamma is only meaningful for order-1 fits")
    X = design_matrix(order, batch.distance, batch.frequency)
    y = batch.path_loss
    if pin_gamma is not None:
        y = y - pin_gamma * X[:, 2]
        X = X[:, :2]
    if len(batch) < X.shape[1]:
        raise InsufficientDataError(
            f"{len(batch)} samples cannot determine {X.shape[1]} coefficients"
        )
    return X, y
