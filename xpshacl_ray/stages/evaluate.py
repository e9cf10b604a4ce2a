"""Row-local constraint evaluation: ONE fused ``map_batches`` stage.

The reference validates with pyshacl then post-processes a report graph
(``src/extended_shacl_validator.py:161-258``).  Here evaluation and
violation extraction are fused: every compiled row-local predicate runs
vectorized over the same zero-copy Arrow batch and failed rows are emitted
directly as violation rows (SURVEY.md §2.3 E1) — no intermediate report.

Stateless by design: the compiled spec is small and picklable, so this
stage runs as plain Ray tasks (no actor pool needed — reference analog:
the shape/constraint caches are built once in the validator ``__init__``,
extended_shacl_validator.py:40-51; we build them once on the driver).
"""

from __future__ import annotations

import re
from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..model import VIOLATION_FIELDS
from ..spec import CompiledSpec


def render_focus(batch: pa.Table, template: str, offset: int = 0) -> pa.Array:
    """Vectorised focus-node rendering, e.g. ``file://{repo}/{path}@{commit}``.

    ``{__index__}`` renders the within-batch row index + offset.
    """
    parts = re.split(r"({\w+})", template)
    n = len(batch)
    arrays: List[pa.Array] = []
    for part in parts:
        if not part:
            continue
        if part.startswith("{") and part.endswith("}"):
            name = part[1:-1]
            if name == "__index__":
                arrays.append(pa.array((np.arange(n) + offset).astype("U")))
            else:
                col = batch[name]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                arrays.append(pc.cast(col, pa.string()))
        else:
            arrays.append(pa.array(np.repeat(part, n)))
    if len(arrays) == 1:
        return arrays[0]
    return pc.binary_join_element_wise(*arrays, "")


def _value_strings(batch: pa.Table, column: Optional[str]) -> pa.Array:
    if column is None or column not in batch.column_names:
        return pa.nulls(len(batch), pa.string())
    col = batch[column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    try:
        return pc.cast(col, pa.string())
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return pa.array([None if v is None else str(v) for v in col.to_pylist()],
                        pa.string())


def violations_schema(id_columns: List[str], id_types: List[pa.DataType]) -> pa.Schema:
    return pa.schema(
        list(zip(id_columns, id_types)) + VIOLATION_FIELDS
    )


def _empty_violations(batch: pa.Table, spec: CompiledSpec) -> pa.Table:
    id_types = [batch.schema.field(c).type for c in spec.id_columns]
    return violations_schema(spec.id_columns, id_types).empty_table()


def evaluate_row_local(batch: pa.Table, spec: CompiledSpec) -> pa.Table:
    """Apply every compiled row-local constraint to one Arrow batch.

    Returns a violations table (id columns + VIOLATION_FIELDS).  Fully
    vectorized: one mask + one filter per constraint; static fields are
    repeated constants.
    """
    out: List[pa.Table] = []
    n = len(batch)
    if n == 0 or not spec.row_local:
        return _empty_violations(batch, spec)
    focus = render_focus(batch, spec.focus_template)
    for cc in spec.row_local:
        mask = cc.constraint.mask(batch)
        if isinstance(mask, pa.ChunkedArray):
            mask = mask.combine_chunks()
        mask_np = np.asarray(mask, dtype=bool)
        k = int(mask_np.sum())
        if k == 0:
            continue
        idx = pa.array(np.flatnonzero(mask_np))
        cols: List[pa.Array] = []
        names: List[str] = []
        for c in spec.id_columns:
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            cols.append(col.take(idx))
            names.append(c)
        value = _value_strings(batch, cc.value_column or cc.property_path).take(idx)
        static = {
            "shape_id": cc.shape_id,
            "constraint_id": cc.constraint_id,
            "violation_type": cc.violation_type,
            "property_path": cc.property_path,
            "message": cc.message,
            "severity": cc.severity,
            "context": cc.context_json,
            "signature": cc.signature,
            "signature_key": cc.sig_key,
        }
        cols.append(focus.take(idx) if isinstance(focus, pa.Array)
                    else focus.combine_chunks().take(idx))
        names.append("focus_node")
        for name, _ in VIOLATION_FIELDS:
            if name in ("focus_node", "value"):
                continue
            v = static[name]
            if v is None:
                cols.append(pa.nulls(k, pa.string()))
            else:
                cols.append(pa.array(np.repeat(v, k)))
            names.append(name)
        cols.append(value)
        names.append("value")
        t = pa.table(dict(zip(names, cols)))
        # canonical column order: id cols then VIOLATION_FIELDS order
        order = list(spec.id_columns) + [f for f, _ in VIOLATION_FIELDS]
        out.append(t.select(order))
    if not out:
        return _empty_violations(batch, spec)
    return pa.concat_tables(out)
