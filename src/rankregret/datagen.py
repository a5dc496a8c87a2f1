"""Synthetic dataset generation, CSV ingestion and result serialization.

The three synthetic families reproduce the usual qualitative shapes:
independent columns, columns clustered around the diagonal, and columns
trading off against each other near a constant-sum surface.  All
ingestion paths min-max normalize each attribute to [0, 1] unless the
file is declared pre-normalized, so a boundary tuple exists per
attribute.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .core import Dataset, RegretResult

FAMILIES = ("independent", "correlated", "anti-correlated")


@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int
    d: int
    seed: int = 0
    correlation_strength: float = 0.5

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.n < 1 or self.d < 2:
            raise ValueError("generation needs n >= 1 and d >= 2")
        if not 0 < self.correlation_strength <= 1:
            raise ValueError("correlation_strength must lie in (0, 1]")


def normalize_columns(values: np.ndarray) -> np.ndarray:
    """Min-max normalize each column to [0, 1]; constant columns become all 1."""
    values = np.asarray(values, dtype=float)
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    span = hi - lo
    out = np.ones_like(values)
    varying = span > 0
    out[:, varying] = (values[:, varying] - lo[varying]) / span[varying]
    return out


def generate(spec: GenSpec) -> Dataset:
    """Normalized synthetic dataset, deterministic for a given seed."""
    rng = np.random.default_rng(spec.seed)
    n, d, s = spec.n, spec.d, spec.correlation_strength
    if spec.family == "independent":
        raw = rng.random((n, d))
    elif spec.family == "correlated":
        center = rng.random((n, 1))
        noise_sd = 0.25 * (1 - s) + 1e-3
        raw = np.clip(center + noise_sd * rng.standard_normal((n, d)), 0.0, 1.0)
    else:  # anti-correlated: points near a constant-sum surface
        base = rng.dirichlet(np.ones(d), n)
        jitter_sd = 0.1 * (1 - s) + 0.02
        raw = np.clip(base + jitter_sd * rng.standard_normal((n, d)), 0.0, None)
    values = normalize_columns(raw)
    names = tuple(f"A{i}" for i in range(1, d + 1))
    return Dataset(values, names)


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(
            f"non-numeric cell {cell!r} at data row {row}, column {col}"
        ) from None


def load_csv(path, normalize: bool = True, negate_columns=()) -> Dataset:
    """Dataset from a comma-separated file with a header row.

    negate_columns (names or 1-based positions) are flipped via
    v -> max - v before normalization so that larger stays better.  A
    column named or numbered twice, or a name the header gives to more
    than one column, raises ValueError.
    """
    label = str(path)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{label}: empty file") from None
        names = tuple(h.strip() for h in header)
        width = len(names)
        if width < 2:
            raise ValueError(f"{label}: need at least 2 columns, header has {width}")
        rows: list[list[float]] = []
        for r, rec in enumerate(reader, start=1):
            if not rec:
                continue
            if len(rec) != width:
                raise ValueError(
                    f"{label}: ragged row {r} has {len(rec)} cells, expected {width}"
                )
            rows.append([_parse_cell(c, r, j + 1) for j, c in enumerate(rec)])
    if not rows:
        raise ValueError(f"{label}: no data rows")
    values = np.asarray(rows, dtype=float)
    cols: list[int] = []
    for spec in negate_columns:
        if isinstance(spec, str) and spec not in names:
            raise ValueError(f"{label}: negate column {spec!r} is not in the header")
        if isinstance(spec, str) and names.count(spec) > 1:
            raise ValueError(f"{label}: negate column {spec!r} is ambiguous: "
                             f"{names.count(spec)} header columns have that name")
        col = names.index(spec) if isinstance(spec, str) else int(spec) - 1
        if not 0 <= col < width:
            raise ValueError(f"{label}: negate column {spec!r} out of range")
        cols.append(col)
    for col in cols:
        if cols.count(col) > 1:
            raise ValueError(f"{label}: negate column {names[col]!r} is given more than once")
        values[:, col] = values[:, col].max() - values[:, col]
    if normalize:
        values = normalize_columns(values)
    return Dataset(values, names)


def save_csv(D: Dataset, path) -> None:
    """Exact round-trippable CSV (shortest exact float representation)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(D))


def csv_text(D: Dataset) -> str:
    buf = io.StringIO()
    buf.write(",".join(D.attribute_names) + "\n")
    for row in D.values:
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()


def result_to_json(result: RegretResult) -> str:
    """Canonical JSON: sorted keys, stable formatting, absent optional keys."""
    return json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n"


def save_result(result: RegretResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(result_to_json(result))


def load_result(path) -> RegretResult:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    keys = ("indices", "size", "rank_regret")
    missing = [k for k in keys if k not in data] if isinstance(data, dict) else list(keys)
    if missing:
        raise ValueError(f"{path}: expected a JSON result object, missing keys {missing}")
    return RegretResult(
        selected_indices=tuple(data["indices"]),
        size=data["size"],
        rank_regret=data["rank_regret"],
        solver_params=data.get("params", {}),
    )
