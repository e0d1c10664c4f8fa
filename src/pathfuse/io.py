# CSV/JSON loading and saving: model registry, sample corpora, fit results,
# study reports.  File formats are deliberately boring; every writer embeds
# enough provenance (resolved config, seed) to rerun what produced it.

import csv
import dataclasses
import json
import operator
import os
from importlib import resources

import numpy as np

from .errors import DataError
from .models import (
    CoefficientSet,
    FittedModel,
    InvalidSampleError,
    SampleBatch,
    SourceModel,
)

__all__ = [
    "data_path",
    "load_registry",
    "sigma_map",
    "load_samples",
    "save_samples",
    "save_model",
    "load_model",
    "load_reference_targets",
    "save_study_json",
    "save_study_csv",
]

_REGISTRY_FILE = "table1_nlos.csv"
_TARGETS_FILE = "reference_targets.json"

_SAMPLE_FIELDS = ("distance_m", "freq_ghz", "path_loss_db", "source_id")


def data_path(name):
    """Resolve a bundled data file, honouring PATHFUSE_DATA_DIR."""
    override = os.environ.get("PATHFUSE_DATA_DIR")
    if override:
        return os.path.join(override, name)
    ref = resources.files("pathfuse").joinpath("data", name)
    with resources.as_file(ref) as p:
        return str(p)


def load_registry(path=None):
    """Source models from a registry CSV (bundled table by default)."""
    if path is None:
        path = data_path(_REGISTRY_FILE)
    models = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for lineno, row in enumerate(reader, start=2):
                try:
                    models.append(
                        SourceModel(
                            id=row["id"].strip(),
                            environment=row["env"].strip(),
                            scenario=row["scenario"].strip(),
                            frequency=float(row["freq_ghz"]),
                            source=row["source"].strip(),
                            n_points=int(row["n_points"]),
                            dist_min=float(row["dist_min_m"]),
                            dist_max=float(row["dist_max_m"]),
                            data_type=row["type"].strip(),
                            alpha=float(row["alpha"]),
                            beta=float(row["beta_db"]),
                            gamma=float(row["gamma"]),
                            sigma=float(row["sigma_db"]),
                        )
                    )
                except (KeyError, ValueError, TypeError) as exc:
                    raise DataError(
                        f"{path}:{lineno}: bad registry row: {exc}"
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


def load_samples(path):
    """A SampleBatch from a samples CSV; a bad row raises DataError at ``path:line``.

    A ``source_id`` must not be blank.  An optional ``weight`` column is
    accepted only with the value 1 (or empty): no fit reads per-sample weights.
    """
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
        return SampleBatch(d, f, y, ids)
    except InvalidSampleError as exc:
        raise DataError(f"{path}:{lines[exc.row]}: bad sample row: {exc}") from exc


def save_samples(batch, path):
    """Write a SampleBatch as CSV, each float as its shortest round-tripping repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SAMPLE_FIELDS)
        writer.writerows(
            zip(
                map(repr, batch.distance.tolist()),
                map(repr, batch.frequency.tolist()),
                map(repr, batch.path_loss.tolist()),
                batch.source_id.tolist(),
            )
        )


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
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
        "provenance": _jsonable(model.provenance),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
        order, sigma, gas, coeffs = (
            payload[k] for k in ("order", "sigma_db", "gas_corrected", "coefficients")
        )
        provenance = payload.get("provenance", {})
        if type(gas) is not bool:
            raise ValueError(f"gas_corrected must be true or false, got {gas!r}")
        if type(order) is not int:
            raise ValueError(f"order must be an integer, got {order!r}")
        if type(sigma) not in (int, float) or not 0 < sigma < np.inf:
            raise ValueError(f"sigma_db must be a finite number > 0, got {sigma!r}")
        if not (isinstance(coeffs, list)
                and all(type(v) in (int, float) for v in coeffs)):
            raise ValueError(f"coefficients must be a list of numbers, got {coeffs!r}")
        if not isinstance(provenance, dict):
            raise ValueError(f"provenance must be a JSON object, got {provenance!r}")
        return FittedModel(
            coefficients=CoefficientSet(order, tuple(coeffs)),
            sigma=float(sigma),
            gas_corrected=gas,
            freq_range=_span(payload, "freq_range_ghz"),
            dist_range=_span(payload, "dist_range_m"),
            provenance=provenance,
        )
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"{path} is not a saved model: {exc}") from exc


def _span(payload, key):
    """``payload[key]`` as (lo, hi) if it is two finite numbers with 0 < lo <= hi."""
    span = payload[key]
    if not (isinstance(span, list) and len(span) == 2
            and all(type(v) in (int, float) and np.isfinite(v) for v in span)
            and 0 < span[0] <= span[1]):
        raise ValueError(f"{key} must be two finite numbers 0 < lo <= hi, got {span!r}")
    return tuple(span)


def load_reference_targets(keys=None):
    """The bundled benchmark targets.  An unreadable file, malformed JSON or,
    given ``keys`` (see ``_check_keys``), a key missing or unknown raises
    DataError naming the file, the section and the key."""
    path = data_path(_TARGETS_FILE)
    try:
        with open(path) as fh:
            targets = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read reference targets {path}: {exc}") from exc
    _check_keys(targets, keys, path)
    return targets


def _check_keys(value, keys, path, where=""):
    """``keys`` lists an object's keys (a tuple), or maps each to the keys below
    it (a dict; None takes any value); ``[keys]`` applies to every row of a list."""
    if keys is None:
        return
    rows = isinstance(keys, list)
    if not isinstance(value, list if rows else dict):
        shape = "a JSON array" if rows else "a JSON object"
        raise DataError(f"{path}: {where or 'the top level'} must be {shape}")
    if rows:
        for i, row in enumerate(value):
            _check_keys(row, keys[0], path, f"{where}[{i}]")
        return
    keys = dict.fromkeys(keys) if isinstance(keys, tuple) else keys
    wrong = [f"lacks the key {key!r}" for key in keys if key not in value]
    wrong += [f"has an unknown key {key!r}" for key in value if key not in keys]
    if wrong:
        raise DataError(f"{path}: {where or 'the top level'} {wrong[0]}")
    for key, below in keys.items():
        _check_keys(value[key], below, path, f"{where}.{key}" if where else key)


def write_study_json(result, fh):
    """The whole study (reports, raw trial data, extras) as one JSON document."""
    json.dump(_jsonable(result), fh, indent=2)
    fh.write("\n")


def save_study_json(result, path):
    with open(path, "w") as fh:
        write_study_json(result, fh)


def save_grid_csv(distances_m, freqs_ghz, grid_db, path):
    """Write a predicted-loss surface as ``d,f,pl_db`` rows for plotting."""
    grid = np.asarray(grid_db)
    if grid.shape != (len(distances_m), len(freqs_ghz)):
        raise DataError(
            f"grid shape {grid.shape} does not match "
            f"{len(distances_m)} distances x {len(freqs_ghz)} frequencies"
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d", "f", "pl_db"])
        for i, d in enumerate(distances_m):
            for j, f in enumerate(freqs_ghz):
                writer.writerow([f"{d:.6g}", f"{f:.6g}", f"{grid[i, j]:.4f}"])


def _keys(rows):
    """Every key of the dicts ``rows``, in first-seen order (CSV columns)."""
    return list(dict.fromkeys(key for row in rows for key in row))


def save_coefficients_csv(result, path):
    """One row per fitted cell: scenario, band, method, then coefficients."""
    rows = []
    for r in result.reports:
        if not r.coefficients:
            continue
        row = {"scenario": r.scenario, "method": r.method}
        if r.band_ghz:
            row["band_ghz"] = f"{r.band_ghz[0]:g}-{r.band_ghz[1]:g}"
        row.update({k: f"{v:.6g}" for k, v in r.coefficients.items()})
        rows.append(row)
    if not rows:
        raise DataError("study reports carry no coefficients")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_keys(rows), restval="")
        writer.writeheader()
        writer.writerows(rows)


def write_study_csv(result, fh):
    """Flatten the per-method report rows; raw trial data stays JSON-only."""
    rows = [_jsonable(r) for r in result.reports]
    if not rows:
        raise DataError("study produced no report rows")
    writer = csv.DictWriter(fh, fieldnames=_keys(rows))
    writer.writeheader()
    for row in rows:
        flat = {}
        for k, v in row.items():
            if isinstance(v, (dict, list)):
                flat[k] = json.dumps(v)
            elif v is None:
                flat[k] = ""
            else:
                flat[k] = v
        writer.writerow(flat)


def save_study_csv(result, path):
    with open(path, "w", newline="") as fh:
        write_study_csv(result, fh)
