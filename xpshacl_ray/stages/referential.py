"""Referential / FK existence checks (C4): driver-side key sets.

The reference's ``sh:class`` check (SURVEY.md C4) is an anti-join in
the validate scan's one exchange
(:func:`~xpshacl_ray.stages.grouped.evaluate_scan`), so the referenced
side never has to fit on the driver.  This module builds key sets for
callers that want one first: the exact set (:func:`distinct_keys`) or
the keys of the rows that conform to a shape (:func:`conforming_keys`,
sh:node at table scale), both for ``validate(ref_keys=…)``, and a Bloom
filter (:func:`bloom_keys`).  Each is one streamed pass with no
exchange: per-block partials merge on the driver.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def distinct_keys(ref_ds: "ray.data.Dataset", column: str) -> pa.Array:
    """Distinct non-null values of the referenced column, sorted."""
    return _merged_unique(ref_ds.select_columns([column]), column)


def _merged_unique(ds: "ray.data.Dataset", column: str) -> pa.Array:
    """Distinct non-null values of ``column`` over ``ds``, sorted, in the
    column's own Arrow type: ``pc.unique`` per block in one
    ``map_batches``, streamed to the driver and merged there with
    ``pc.unique`` once more.  The result is held by the driver, so it
    must fit there; no exchange is needed."""
    def block_unique(b: pa.Table) -> pa.Table:
        return pa.table({column: pc.unique(b[column])})

    parts = [b[column] for b in ds.map_batches(
        block_unique, batch_format="pyarrow", batch_size=None,
    ).iter_batches(batch_format="pyarrow", batch_size=None) if b.num_columns]
    if not parts:
        return pa.array([])
    vals = pc.unique(pa.chunked_array(parts)).drop_null()
    return vals.take(pc.array_sort_indices(vals))


def conforming_keys(dim_ds: "ray.data.Dataset", key_column: str,
                    constraints: list) -> pa.Array:
    """Distinct keys of dimension rows satisfying EVERY row-local
    constraint — the Parquet-scale half of sh:node.  The TTL path walks
    the graph driver-side (``sources/ttl._NodeChecker``); at table
    scale the referenced shape's facets are evaluated vectorized over
    the dimension table in one streamed pass, and the CONFORMING key
    set is the referenced side of a ``Referential`` check on the fact
    table (``validate(ref_keys=…)``).

    Engine-wide SHACL null policy applies: a NULL facet value never
    violates a value constraint (zero-valued rows are minCount /
    Required's job), so such rows still conform.  Keys are merged as in
    :func:`distinct_keys`."""
    return _merged_unique(dim_ds.map_batches(
        _conforming_filter(key_column, constraints),
        batch_format="pyarrow"), key_column)


def _conforming_filter(key_column: str, constraints: list):
    """Per-batch kernel of :func:`conforming_keys`: keep rows with a
    valid key that no constraint flags, project to the key column,
    pre-dedup."""
    import numpy as np

    def passing(b: pa.Table) -> pa.Table:
        key = b[key_column]
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        ok = np.asarray(pc.is_valid(key), dtype=bool)
        for c in constraints:
            m = c.mask(b)
            if isinstance(m, pa.ChunkedArray):
                m = m.combine_chunks()
            ok &= ~np.asarray(pc.fill_null(m, False), dtype=bool)
        return (b.filter(pa.array(ok)).select([key_column])
                .group_by([key_column]).aggregate([]))

    return passing


def bloom_keys(ref_ds: "ray.data.Dataset", column: str,
               expected_items: int, fp_rate: float = 0.01):
    """Mergeable Bloom filter of the referenced key set, in one streamed
    pass with no distinct exchange: per-batch partial filters OR-merge
    on the driver."""
    from ..functions.sketches import BloomFilter

    def partial(b: pa.Table) -> pa.Table:
        f = BloomFilter(n_items=expected_items, fp_rate=fp_rate)
        # Arrow cast-to-string rendering: a probe must render its keys
        # the same way (vectorized, no per-value str())
        s = pc.cast(b[column], pa.string())
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        f.add(s.drop_null().to_numpy(zero_copy_only=False))
        return pa.table({"bloom": pa.array([f.to_bytes()], pa.binary())})

    out = BloomFilter(n_items=expected_items, fp_rate=fp_rate)
    for r in ref_ds.select_columns([column]).map_batches(
            partial, batch_format="pyarrow").take_all():
        out.merge(BloomFilter.from_bytes(r["bloom"]))
    return out
