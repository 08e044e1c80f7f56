"""Test-only code: reference implementations and estimators that the
package itself does not need.

- ``csv_table``/``json_table``: the row writers that ``zstab._table``
  replaced.  They take one tuple of raw values per row, format every cell
  on its own and hand the rows to ``csv.writer`` and ``json.dumps``.  The
  columnar writers must produce the same bytes.
- ``compare_propagations``/``PropagationReport``: two 1-D propagations of
  one scheme and their per-depth sup-norm gaps, the oracle that the
  batched ``robustness_sweep`` is checked against.
- ``lipschitz_estimate``: an empirical Lipschitz ratio of one block.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from zstab.propagation import BlockMap, _log_slope, propagate
from zstab.schemes import Scheme

_DIGITS = ".10g"
_format = float.__format__


def _fmt(x: float) -> str:
    return _format(float(x), _DIGITS)


def _text(v) -> str:
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ";".join(map(_text, v))
    return str(v)


def _json(v):
    if isinstance(v, float):
        return float(_fmt(v)) if math.isfinite(v) else v
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (tuple, list)):
        return [_json(x) for x in v]
    return v


def _cells(row) -> list[str]:
    return [_format(v, _DIGITS) if type(v) is float else _text(v) for v in row]


def _spread(row) -> list:
    flat = []
    for v in row:
        if isinstance(v, np.ndarray):
            flat.extend(v.tolist())
        else:
            flat.append(v)
    return flat


def csv_table(columns: Sequence[str], rows: Iterable[tuple]) -> str:
    """A header line plus one CSV line per row."""
    rows = iter(rows)
    first = next(rows, None)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if first is None or not any(isinstance(v, np.ndarray) for v in first):
        writer.writerow(columns)
        writer.writerows(map(_cells, chain([] if first is None else [first], rows)))
        return buf.getvalue()
    header = []
    for name, v in zip(columns, first):
        if isinstance(v, np.ndarray):
            header.extend(f"{name}{i}" for i in range(v.size))
        else:
            header.append(name)
    writer.writerow(header)
    writer.writerows(_cells(_spread(row)) for row in chain([first], rows))
    return buf.getvalue()


def json_table(columns: Sequence[str], rows: Iterable[tuple]) -> str:
    """A JSON list with one object per row, keyed by column name."""
    objects = [dict(zip(columns, map(_json, row))) for row in rows]
    return json.dumps(objects, indent=2) + "\n"


def json_record(keys: Sequence[str], values: Sequence) -> str:
    """One row as a JSON object."""
    return json.dumps(dict(zip(keys, map(_json, values))), indent=2) + "\n"


def rows(columns: Sequence) -> list[tuple]:
    """Columns as the row writers take them: one tuple per row, a 1-D
    array's values as Python scalars and a 2-D array's rows as arrays."""
    return list(zip(*(
        c.tolist() if isinstance(c, np.ndarray) and c.ndim == 1 else list(c)
        for c in columns
    )))


@dataclass(frozen=True)
class PropagationReport:
    """Gap evolution between two propagations of the same scheme."""

    per_depth_gap: tuple[float, ...]
    final_gap: float
    growth_slope: Optional[float]
    blew_up_at: Optional[int] = None


def compare_propagations(
    s: Scheme,
    blocks: Sequence,
    init_a: Sequence[np.ndarray],
    init_b: Sequence[np.ndarray],
    depth: int,
    h: float = 1.0,
    fit_from: Optional[int] = None,
) -> PropagationReport:
    """Propagate two initializations and report per-depth sup-norm gaps.

    ``growth_slope`` is the least-squares slope of log gap against depth,
    fitted from ``fit_from`` (default: halfway) onward over positive finite
    gaps; None when fewer than 10 such gaps exist.
    """
    _, hist_a, blew_a = propagate(s, blocks, init_a, depth, h)
    _, hist_b, blew_b = propagate(s, blocks, init_b, depth, h)
    gaps = tuple(float(np.max(np.abs(a - b))) for a, b in zip(hist_a, hist_b))
    blew_up_at = min((b for b in (blew_a, blew_b) if b is not None), default=None)

    start = fit_from if fit_from is not None else len(gaps) // 2
    final_gap = gaps[-1] if blew_up_at is None else math.inf
    return PropagationReport(
        per_depth_gap=gaps,
        final_gap=final_gap,
        growth_slope=_log_slope(gaps, start),
        blew_up_at=blew_up_at,
    )


def lipschitz_estimate(
    block: BlockMap, n_pairs: int = 1000, seed: int = 0, box: float = 2.0
) -> float:
    """Empirical Lipschitz ratio of the block over sampled point pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        y = rng.uniform(-box, box, block.width)
        yh = rng.uniform(-box, box, block.width)
        denom = float(np.linalg.norm(y - yh))
        if denom == 0.0:
            continue
        ratio = float(np.linalg.norm(block(y) - block(yh))) / denom
        worst = max(worst, ratio)
    return worst
