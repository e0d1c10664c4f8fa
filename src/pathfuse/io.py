# CSV/JSON loading and saving: model registry, sample corpora, fit results,
# reference targets, study reports.  Fitted models and study reports carry their
# provenance (resolved config, seed); sample and grid CSVs hold only their columns.
# Each JSON file's fields are declared once, as a schema that ``check`` walks,
# and so are each config's, beside its class, and the registry row's: one table
# gives each ``SourceModel`` field its column, cell parser and leaf.  The rows'
# and the targets' vocabularies live here too: scenarios, study arms, robust
# methods, and ``SCENARIO_BANDS``, each study cell's samples per source model.
# ``save_study`` writes a study's whole ``--out-dir`` bundle.  Every load and
# save raises DataError naming the path it cannot read or write.

import csv
import dataclasses
import itertools
import json
import math
import operator
import os
import sys
from functools import partial

import numpy as np

from .errors import DataError
from .models import (
    ORDER,
    CoefficientSet,
    FittedModel,
    InvalidSampleError,
    SampleBatch,
    predict_abg,
)

__all__ = [
    "SourceModel",
    "data_path",
    "load_registry",
    "sigma_map",
    "load_samples",
    "save_samples",
    "save_model",
    "load_model",
    "load_reference_targets",
    "band_label",
    "save_study",
]

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
_REGISTRY_FILE = "table1_nlos.csv"
_TARGETS_FILE = "reference_targets.json"

_SAMPLE_FIELDS = ("distance_m", "freq_ghz", "path_loss_db", "source_id")
#: a row of a samples CSV as ``save_samples`` writes it
_CANONICAL_ROW = np.dtype([(name, float) for name in _SAMPLE_FIELDS[:3]]
                          + [(_SAMPLE_FIELDS[3], object)])


def data_path(name):
    """The data file ``name`` of ``PATHFUSE_DATA_DIR`` if set, else the bundled one."""
    return os.path.join(os.environ.get("PATHFUSE_DATA_DIR") or _DATA_DIR, name)


def load_samples(path):
    """A SampleBatch from a samples CSV; a bad row raises DataError at ``path:line``.

    A ``source_id`` must not be blank.  An optional ``weight`` column is
    accepted only with the value 1 (or empty): no fit reads per-sample weights.
    A file as ``save_samples`` writes it (that header, four fields a row, no
    quote or lone CR) is parsed in C by ``np.loadtxt``; any other file, or one
    that the C path refuses, is read by ``_load_rows``, the reference: every
    file gives the reference's columns and ids, or its DataError.
    """
    batch = _load_canonical(path)
    return _load_rows(path) if batch is None else batch


def _load_canonical(path):
    """The batch of a canonical samples CSV, or None.  ``np.loadtxt`` parses
    each float with ``float``'s own parser (it refuses some that ``float``
    takes, as ``1_0``), refuses a row of other than four fields and skips
    empty lines as ``csv`` does; each id is stripped."""
    try:
        with open(path, newline="") as fh:
            head, _, body = fh.read().replace("\r\n", "\n").partition("\n")
        if (head != ",".join(_SAMPLE_FIELDS) or not body.strip()
                or any(c in body for c in '"\r')):
            return None
        rows = np.loadtxt(body.split("\n"), dtype=_CANONICAL_ROW, delimiter=",",
                          comments=None, ndmin=1)
        ids = [source.strip() for source in rows["source_id"].tolist()]
        columns = (rows[name].copy() for name in _SAMPLE_FIELDS[:3])
        codes = np.unique(ids, return_inverse=True)
        return SampleBatch(*columns, *codes) if all(ids) else None
    except (OSError, ValueError):  # InvalidSampleError too
        return None


def _load_rows(path):
    """``load_samples`` row by row with ``csv``: the reference reader."""
    d, f, y, ids, lines = [], [], [], [], []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            # a header name's last column wins; other columns are ignored
            column = {name: i for i, name in enumerate(next(reader, []))}
            missing = [k for k in _SAMPLE_FIELDS if k not in column]
            fields = operator.itemgetter(*(column.get(k, 0) for k in _SAMPLE_FIELDS))
            at_weight = column.get("weight", -1)
            for row in reader:
                if not row:
                    continue  # a blank line
                try:
                    if missing:
                        raise ValueError(f"no {missing[0]!r} column")
                    dist, freq, loss, source = fields(row)
                    d.append(float(dist))
                    f.append(float(freq))
                    y.append(float(loss))
                    ids.append(source.strip())
                    if not ids[-1]:
                        raise ValueError("source_id is empty")
                    weight = row[at_weight] if 0 <= at_weight < len(row) else ""
                    if weight and float(weight) != 1.0:
                        raise ValueError(f"weight {weight!r} is not 1; no fit reads it")
                except (IndexError, ValueError) as exc:
                    raise DataError(
                        f"{path}:{reader.line_num}: bad sample row: {exc}"
                    ) from exc
                lines.append(reader.line_num)
    except OSError as exc:
        raise DataError(f"cannot read samples {path}: {exc}") from exc
    if not d:
        raise DataError(f"{path} contains no samples")
    try:
        return SampleBatch(d, f, y, *np.unique(ids, return_inverse=True))
    except InvalidSampleError as exc:
        raise DataError(f"{path}:{lines[exc.row]}: bad sample row: {exc}") from exc


def _write(path, kind, write):
    """``write(fh)`` on ``path`` opened for text; an OSError raises DataError."""
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise DataError(f"cannot write {kind} {path}: {exc}") from exc


def save_samples(batch, path):
    """Write a SampleBatch as CSV, each float as its shortest round-tripping repr."""
    rows = zip(map(repr, batch.distance.tolist()), map(repr, batch.frequency.tolist()),
               map(repr, batch.path_loss.tolist()), batch.source_id.tolist())
    _write(path, "samples",
           lambda fh: csv.writer(fh).writerows(itertools.chain([_SAMPLE_FIELDS], rows)))


def _jsonable(obj):
    """``obj`` as JSON values; a number that is not finite becomes None (null)."""
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def save_model(model, path):
    payload = {
        "order": model.order,
        "coefficients": list(model.coefficients.values),
        "coefficient_names": list(model.coefficients.named()),
        "sigma_db": model.sigma,
        "gas_corrected": model.gas_corrected,
        "freq_range_ghz": list(model.freq_range),
        "dist_range_m": list(model.dist_range),
        "provenance": model.provenance,
    }
    _write(path, "model", lambda fh: _dump_json(_jsonable(payload), fh))


def _dump_json(payload, fh):
    json.dump(payload, fh, indent=2, allow_nan=False)  # RFC 8259 has no NaN
    fh.write("\n")


def load_model(path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
        check(payload, _MODEL_FIELDS, DataError, f"{path} is not a saved model: ")
        return FittedModel(
            coefficients=CoefficientSet(payload["order"], payload["coefficients"]),
            sigma=float(payload["sigma_db"]),
            gas_corrected=payload["gas_corrected"],
            freq_range=tuple(payload["freq_range_ghz"]),
            dist_range=tuple(payload["dist_range_m"]),
            provenance=payload.get("provenance", {}),
        )
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path} is not a saved model: {exc}") from exc


def load_reference_targets():
    """The benchmark targets of the data directory.  An unreadable file,
    malformed JSON, a field of ``_TARGET_FIELDS`` that is missing, unknown or
    of the wrong kind, or a scenario x band of ``SCENARIO_BANDS`` without an
    ``integration_study.cells`` row raises DataError naming the file."""
    path = data_path(_TARGETS_FILE)
    try:
        with open(path) as fh:
            targets = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read reference targets {path}: {exc}") from exc
    check(targets, _TARGET_FIELDS, DataError, f"{path}: ")
    have = {(row["scenario"], tuple(row["band_ghz"]))
            for row in targets["integration_study"]["cells"]}
    for scenario, bands in SCENARIO_BANDS.items():
        for band in bands:
            if (scenario, band) not in have:
                raise DataError(f"{path}: integration_study.cells has no row for "
                                f"{scenario} {band_label(band)} GHz")
    return targets


def band_label(band):
    """A band ``(lo, hi)`` in GHz as the reports and gates spell it: ``2-18``."""
    return f"{band[0]:g}-{band[1]:g}"


def check(value, schema, error, prefix="", where=""):
    """Raise ``error`` (``prefix``, the field's path, what it must be) unless
    ``value`` fits ``schema``: None (any value), a leaf ``(wording, test)``,
    ``[schema]`` (an array of such items) or a dict (an object, each key
    mapped to its value's schema).  An object holds exactly its schema's keys,
    unless the schema has the key ``...``: such an open object may hold other
    keys and lack declared ones, which its reader then looks up itself.  Data
    files raise DataError; configs raise ConfigError, also on an undeclared field."""
    name = where or "the top level"
    if isinstance(schema, tuple):
        wording, test = schema
        if not test(value):
            raise error(f"{prefix}{name} must be {wording}, got {value!r}")
    elif isinstance(schema, list):
        check(value, _ARRAY, error, prefix, where)
        for i, item in enumerate(value):
            check(item, schema[0], error, prefix, f"{where}[{i}]")
    elif schema is not None:
        check(value, _OBJECT, error, prefix, where)
        if value.keys() != schema.keys() and ... not in schema:
            wrong = [f"lacks the key {k!r}" for k in schema if k not in value]
            wrong += [f"has an unknown key {k!r}" for k in value if k not in schema]
            raise error(f"{prefix}{name} {wrong[0]}")
        for key, below in schema.items():
            if key in value:
                check(value[key], below, error, prefix,
                      f"{where}.{key}" if where else key)


def finite(v):
    """A number that a float holds: not a bool, nan, infinite or too large."""
    return (isinstance(v, (int, float, np.integer, np.floating)) and type(v) is not bool
            and abs(v) <= sys.float_info.max)


def one_of(choices):
    """A value equal to one of ``choices`` and of its type (so not 2.0 for 2)."""
    kinds, wording = {type(c) for c in choices}, ", ".join(map(str, choices))
    return f"one of {wording}", lambda v: type(v) in kinds and v in choices


_OBJECT = ("a JSON object", lambda v: type(v) is dict)
_ARRAY = ("a JSON array", lambda v: type(v) is list)
_FINITE = ("a finite number", finite)
_FINITES = ("an object of finite numbers",
            lambda v: type(v) is dict and all(map(finite, v.values())))
_NUMBERS = ("a list of finite numbers",
            lambda v: type(v) is list and all(map(finite, v)))
_SPAN = ("two finite numbers 0 < lo <= hi", lambda v: type(v) is list and len(v) == 2
         and all(map(finite, v)) and 0 < v[0] <= v[1])
#: leaves the configs share with the data files (numpy sizes arrays below 2**63)
BOOLEAN = ("true or false", lambda v: type(v) is bool)
INTEGER = ("an integer", lambda v: type(v) is int)
COUNT = ("a positive integer below 2**63", lambda v: type(v) is int and 0 < v < 2**63)
POSITIVE = ("a finite number > 0", lambda v: finite(v) and v > 0)
NONNEGATIVE = ("a finite number >= 0", lambda v: finite(v) and v >= 0)

#: the fields ``load_model`` reads, in an open object: a saved model may hold
#: keys that nothing reads, and a missing ``provenance`` reads as {}
_MODEL_FIELDS = {
    "order": ORDER, "sigma_db": POSITIVE, "gas_corrected": BOOLEAN,
    "coefficients": _NUMBERS, "freq_range_ghz": _SPAN, "dist_range_m": _SPAN,
    "provenance": _OBJECT, ...: None,
}

#: the vocabularies of a registry row
ENVIRONMENTS = ("NLOS",)
SCENARIOS = ("UMa", "UMiOS", "UMiSC")
DATA_TYPES = ("Measurement", "Mixed", "RayTracing")


@dataclasses.dataclass(frozen=True)
class SourceModel:
    """A published single-frequency fit and its campaign: one registry row."""

    id: str
    environment: str
    scenario: str
    frequency: float  # GHz
    source: str
    n_points: int
    dist_min: float  # m
    dist_max: float  # m
    data_type: str
    alpha: float
    beta: float  # dB
    gamma: float
    sigma: float  # dB, shadow-fading std of the published fit

    def __post_init__(self):
        check(vars(self), _SOURCE_LEAVES, ValueError)
        if not self.dist_min < self.dist_max:
            raise ValueError(f"dist_min must be < dist_max, "
                             f"got [{self.dist_min}, {self.dist_max}]")

    def predict(self, d, f=None):
        """Path loss (dB) at distance d and frequency f (default: its own)."""
        if f is None:
            f = self.frequency
        return predict_abg(self.alpha, self.beta, self.gamma, d, f)


_TEXT = ("a non-empty string", lambda v: type(v) is str and v != "")
#: each ``SourceModel`` field: its registry column, how a cell becomes its
#: value, and what the value must be
_SOURCE_FIELDS = {
    "id": ("id", str.strip, _TEXT),
    "environment": ("env", str.strip, one_of(ENVIRONMENTS)),
    "scenario": ("scenario", str.strip, one_of(SCENARIOS)),
    "frequency": ("freq_ghz", float, POSITIVE),
    "source": ("source", str.strip, _TEXT),
    "n_points": ("n_points", int, COUNT),
    "dist_min": ("dist_min_m", float, POSITIVE),
    "dist_max": ("dist_max_m", float, POSITIVE),
    "data_type": ("type", str.strip, one_of(DATA_TYPES)),
    "alpha": ("alpha", float, _FINITE),
    "beta": ("beta_db", float, _FINITE),
    "gamma": ("gamma", float, _FINITE),
    "sigma": ("sigma_db", float, POSITIVE),
}
_SOURCE_LEAVES = {name: leaf for name, (_, _, leaf) in _SOURCE_FIELDS.items()}


def load_registry(path=None):
    """Source models from a registry CSV (the data directory's by default);
    a bad row raises DataError at ``path:line``."""
    if path is None:
        path = data_path(_REGISTRY_FILE)
    models = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                try:
                    fields = {}
                    for name, (column, parse, _) in _SOURCE_FIELDS.items():
                        if row.get(column) is None:
                            raise ValueError(f"no {column!r} cell")
                        fields[name] = parse(row[column])
                    models.append(SourceModel(**fields))
                except ValueError as exc:
                    raise DataError(
                        f"{path}:{reader.line_num}: bad registry row: {exc}"
                    ) from exc
    except OSError as exc:
        raise DataError(f"cannot read registry {path}: {exc}") from exc
    if not models:
        raise DataError(f"registry {path} contains no models")
    ids = [m.id for m in models]
    if len(set(ids)) != len(ids):
        raise DataError(f"registry {path} has duplicate model ids")
    return models


def sigma_map(models):
    """id -> published shadow-fading sigma, for the weighting policies."""
    return {m.id: m.sigma for m in models}


#: the method names of the reference targets, by study
ORDER_ARMS = ("linear-abg", "quadratic-abg", "cubic-abg")
STUDY_ARMS = ("pooled-abg", "weighted-abg", "quadratic-abg")
ROBUST_METHODS = ("ols", "ridge", "lasso", "elastic-net", "ransac", "theil-sen")
#: samples synthesized per source model in each scenario x band cell (GHz,
#: inclusive) that the integration and outlier studies sweep, in report order:
#: low band, high band, full span.  Each is the benchmark corpus total divided
#: by the number of in-band models.
SCENARIO_BANDS = {
    "UMiSC": {(2.0, 18.0): 212, (28.0, 73.5): 132, (2.0, 73.5): 172},
    "UMiOS": {(2.0, 18.0): 122, (29.0, 60.0): 78, (2.0, 60.0): 104},
    "UMa": {(2.0, 18.0): 1285, (28.0, 73.5): 927, (2.0, 73.5): 1080},
}

_CELL = {"scenario": one_of(SCENARIOS), "band_ghz": _SPAN}
_ROW = {**_CELL, "method": one_of(STUDY_ARMS)}
_NEEDS = (f"an object of true or false under some of {', '.join(ORDER_ARMS)}",
          lambda v: type(v) is dict and v.keys() <= set(ORDER_ARMS)
          and all(type(need) is bool for need in v.values()))

#: every field of ``reference_targets.json``
_TARGET_FIELDS = {
    "_comment": None,
    "order_study": {
        "sigma_18ghz_db": dict.fromkeys(ORDER_ARMS, _FINITE),
        "loocv_db": dict.fromkeys(ORDER_ARMS, _FINITE), "tolerance_db": _FINITE,
        "require_ordering": [one_of(ORDER_ARMS)], "nonmonotone_cells_required": _NEEDS,
    },
    "robust_study": {
        "sigma_with_outliers_db": dict.fromkeys(ROBUST_METHODS, _FINITE),
        "theil_sen_with_tolerance_db": _FINITE, "ols_with_tolerance_db": _FINITE,
        "clean_band_db": _SPAN,
    },
    "integration_study": {
        "tolerance_quadratic_db": _FINITE, "require_ordering": [one_of(STUDY_ARMS)],
        "cells": [{**_CELL, "sigma_db": dict.fromkeys(STUDY_ARMS, _FINITE)}],
    },
    "outlier_study": {
        "quadratic_max_abs_ratio_percent": _FINITE, "pooled_min_ratio_percent": _FINITE,
        "quadratic_exception": {**_CELL, "outlier_band_m": _FINITE,
                                "max_abs_ratio_percent": _FINITE},
        "pooled_min_ratio_cells": [{**_CELL, "outlier_band_m": _FINITE}],
        "published": [{**_ROW, "sigma_db": _FINITES, "ratio_percent": _FINITES}],
    },
    "published_coefficients": [{**_ROW, "values": _NUMBERS}],
}


def write_study_json(result, fh):
    """The whole study (reports, raw trial data, extras) as one JSON document."""
    _dump_json(_jsonable(result), fh)


def _keys(rows):
    """Every key of the dicts ``rows``, in first-seen order (CSV columns)."""
    return list(dict.fromkeys(key for row in rows for key in row))


def write_study_csv(result, fh):
    """Flatten the per-method report rows; raw trial data stays JSON-only."""
    rows = [_jsonable(r) for r in result.reports]
    if not rows:
        raise DataError("study produced no report rows")
    writer = csv.DictWriter(fh, fieldnames=_keys(rows))
    writer.writeheader()
    # csv writes None as an empty cell
    writer.writerows({k: json.dumps(v) if isinstance(v, (dict, list)) else v
                      for k, v in row.items()} for row in rows)


def _write_grid(extras, grid, fh):
    """A predicted-loss surface of ``extras`` as ``d,f,pl_db`` rows for plotting."""
    writer = csv.writer(fh)
    writer.writerow(["d", "f", "pl_db"])
    for i, d in enumerate(extras["grid_distances_m"]):
        for j, f in enumerate(extras["grid_freqs_ghz"]):
            writer.writerow([f"{d:.6g}", f"{f:.6g}", f"{grid[i, j]:.4f}"])


def _write_coefficients(reports, fh):
    """One row per fitted cell: scenario, method, band, then coefficients."""
    rows = [{"scenario": r.scenario, "method": r.method,
             "band_ghz": band_label(r.band_ghz),
             **{k: f"{v:.6g}" for k, v in r.coefficients.items()}} for r in reports]
    writer = csv.DictWriter(fh, fieldnames=_keys(rows), restval="")
    writer.writeheader()
    writer.writerows(rows)


def save_study(result, base):
    """Write a study's report bundle and return the paths written, in order:
    ``base.json`` (everything), ``base.csv`` (the report rows), one
    ``base_grid_<arm>.csv`` per surface in ``extras["grids_db"]`` and, for the
    integration study, ``base_coefficients.csv``."""
    files = {base + ".json": partial(write_study_json, result),
             base + ".csv": partial(write_study_csv, result)}
    for arm, grid in result.extras.get("grids_db", {}).items():
        files[f"{base}_grid_{arm}.csv"] = partial(_write_grid, result.extras, grid)
    if result.study == "IntegrationStudy":
        files[base + "_coefficients.csv"] = partial(_write_coefficients, result.reports)
    for path, write in files.items():
        _write(path, "study report", write)
    return list(files)
