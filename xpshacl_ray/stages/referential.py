"""Referential / FK existence checks (C4) — broadcast anti-join.

The reference's ``sh:class`` check ("the FK value's referent has the
required type", SURVEY.md C4) becomes: broadcast the referenced key set once
via ``ray.put`` (zero-copy Arrow in the object store), then a vectorized
``pc.is_in`` anti-join inside ``map_batches``.  No shuffle: at 100 TB the
fact table streams while the dimension-key set is read from shared memory by
every task on a node.

There is no separate referential stage: ``ValidationEngine.validate`` fuses
:class:`_RefMask` into the row-local scan, so the probe costs no extra pass
over the input.  This module builds what gets broadcast — the exact key set
(:func:`distinct_keys`, :func:`conforming_keys`) or, for dimension sides too
big to ship exactly, a Bloom filter (:func:`bloom_keys`).  Either is built
in one streamed pass with no exchange: per-block partials (``pc.unique`` or
a partial filter) merge on the driver, which holds the broadcast value
anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def distinct_keys(ref_ds: "ray.data.Dataset", column: str) -> pa.Array:
    """Distinct non-null values of the referenced column, sorted."""
    return _merged_unique(ref_ds.select_columns([column]), column)


def _merged_unique(ds: "ray.data.Dataset", column: str) -> pa.Array:
    """Distinct non-null values of ``column`` over ``ds``, sorted, in the
    column's own Arrow type: ``pc.unique`` per block in one
    ``map_batches``, streamed to the driver and merged there with
    ``pc.unique`` once more.  The result is broadcast to every scan task
    anyway, so it must fit on the driver; no exchange is needed."""
    def block_unique(b: pa.Table) -> pa.Table:
        return pa.table({column: pc.unique(b[column])})

    parts = [b[column] for b in ds.map_batches(
        block_unique, batch_format="pyarrow", batch_size=None,
    ).iter_batches(batch_format="pyarrow", batch_size=None) if b.num_columns]
    if not parts:
        return pa.array([])
    vals = pc.unique(pa.chunked_array(parts)).drop_null()
    return vals.take(pc.array_sort_indices(vals))


@dataclass
class _RefMask:
    """Row-local adapter: violation where column value ∉ broadcast key set.

    The broadcast payload is either the exact key array (``pc.is_in``) or a
    :class:`~xpshacl_ray.functions.sketches.BloomFilter` — the scale path
    for dimension sides too large to ship exactly (one-sided error: a
    Bloom "absent" is a certain violation; up to fp_rate of true
    violations are missed — quantified, documented trade-off).

    ``null_is_violation=False`` (the default) excuses NULL FKs, matching
    the engine-wide SHACL null policy and the ``NOT IN`` oracle semantics;
    missing values are ``Required``'s responsibility.
    """

    column: str
    keys_ref: "ray.ObjectRef"
    null_is_violation: bool = False

    def mask(self, batch: pa.Table):
        from ..functions.sketches import BloomFilter

        keys = ray.get(self.keys_ref)  # zero-copy from local object store
        col = batch[self.column]
        if isinstance(keys, BloomFilter):
            import numpy as np

            # vectorized rendering: Arrow cast-to-string (no per-value
            # Python str()), null slots probed as "" then masked out
            s = pc.cast(col, pa.string())
            if isinstance(s, pa.ChunkedArray):
                s = s.combine_chunks()
            valid = np.asarray(pc.is_valid(s))
            rendered = pc.fill_null(s, "").to_numpy(zero_copy_only=False)
            present = keys.might_contain(rendered)
            if self.null_is_violation:
                return pa.array(~present | ~valid)
            return pa.array(~present & valid)
        if pa.types.is_null(keys.type):
            # an empty key set (a referenced side with no rows) has no
            # type of its own; every non-null key is then absent
            keys = keys.cast(col.type)
        # pc.is_in yields False (not null) for null inputs, so gate on
        # validity explicitly rather than via fill_null
        bad = pc.invert(pc.is_in(col, value_set=keys))
        if self.null_is_violation:
            return pc.fill_null(pc.or_(bad, pc.is_null(col)), True)
        return pc.fill_null(pc.and_(bad, pc.is_valid(col)), False)


def conforming_keys(dim_ds: "ray.data.Dataset", key_column: str,
                    constraints: list) -> pa.Array:
    """Distinct keys of dimension rows satisfying EVERY row-local
    constraint — the Parquet-scale half of sh:node.  The TTL path walks
    the graph driver-side (``sources/ttl._NodeChecker``); at table
    scale the referenced shape's facets are evaluated vectorized over
    the dimension table in one streamed pass and the CONFORMING key
    set is broadcast (``ray.put``) for the fact-table anti-join probe
    (:class:`_RefMask`) — no shuffle touches the fact side.

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
        # Arrow cast-to-string rendering — must match the probe side
        # (_RefMask) exactly; both are vectorized, no per-value str()
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
