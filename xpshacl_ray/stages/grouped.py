"""Grouped cardinality / uniqueness checks (C1/C2/C11) — shuffle #1.

Strategy (SURVEY.md §2.2, §4): never shuffle full rows.  Each grouped
constraint projects to its key columns only and pre-aggregates counts
*within each batch* via ``pyarrow.Table.group_by`` (the combiner,
:func:`partial_group_counts`).  The exchange then moves one row per
(key, batch) — bounded by distinct keys, not input rows.  At 100 TB the
wide `content` column never enters the exchange.

The exchange (:func:`_exchange`) is the co-location recipe of Ray's
``GroupedData.map_groups`` without its per-group Python: each row carries
``__h__``, the int64 view of the composite key hash; ``sort("__h__")``
puts equal keys in one block, and one ``map_batches(batch_size=None)``
call per block reduces it with Arrow ``group_by`` on the FULL key columns.
The hash only routes, so a collision co-locates two keys and nothing
else: results stay exact.  Violation rows are built in that same call,
with dynamic ``actualCount`` context exactly as the reference enriches
cardinality context (extended_shacl_validator.py:292-318).

Considered and rejected — combiner-side early-violation emit: a batch whose
partial count already exceeds ``max_count`` proves the group violates, but
the violation row must still report the EXACT global ``actualCount`` (the
reference's enrichment contract), so its partial cannot be dropped from the
exchange; capping partials at ``max_count + 1`` preserves the violates/
not-violates decision but corrupts the reported count.  The exchange already
moves only one (key, partial) row per group per batch — there is nothing
sound left to prune without a second count-recovery pass (an extra barrier
plus a second input scan, measured slower than this one exchange).
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.sketches import key_hash64
from ..spec import CompiledConstraint, CompiledSpec, MaxCount, MinCount
from .evaluate import violations_schema


def _with_route_hash(t: pa.Table, keys: List[str]) -> pa.Table:
    """``t`` plus ``__h__``: the int64 view of ``key_hash64`` folded over
    ``keys``.  ``key_hash64`` ignores the batch's null layout, so equal
    keys get equal hashes in every batch."""
    h = np.zeros(t.num_rows, np.uint64)
    for k in keys:
        h = h * np.uint64(0x9E3779B97F4A7C15) + key_hash64(t[k])
    return t.append_column("__h__", pa.array(h.view(np.int64)))


def _exchange(ds: "ray.data.Dataset",
              reduce: Callable[[pa.Table], pa.Table]) -> "ray.data.Dataset":
    """Route rows carrying ``__h__`` so equal hashes share one block, then
    ``reduce`` each whole block (``__h__`` dropped) in one Arrow call."""

    def sweep(block: pa.Table) -> pa.Table:
        return reduce(block.drop_columns(["__h__"]))

    return ds.sort("__h__").map_batches(sweep, batch_format="pyarrow",
                                        batch_size=None)


def partial_group_counts(batch: pa.Table, keys: List[str],
                         value_col: Optional[str]) -> pa.Table:
    """Within-batch combiner: one row per key with a partial count, plus
    its routing hash ``__h__``."""
    cols = list(keys) + ([value_col] if value_col and value_col not in keys else [])
    t = batch.select(cols)
    if value_col and value_col not in keys:
        agg = t.group_by(keys).aggregate([(value_col, "count")])
        n = agg.column(f"{value_col}_count")
        agg = agg.drop_columns([f"{value_col}_count"]).append_column("partial_n", n)
    else:
        agg = t.group_by(keys).aggregate([([], "count_all")])
        n = agg.column("count_all")
        agg = agg.drop_columns(["count_all"]).append_column("partial_n", n)
    return _with_route_hash(agg, keys)


def _grouped_violation_rows(
    groups: pa.Table,
    cc: CompiledConstraint,
    keys: List[str],
    spec: CompiledSpec,
    id_types: List[pa.DataType],
) -> pa.Table:
    """Build violation rows from violating groups — vectorized so a
    pathological spec (every group violating) still streams."""
    n = groups.num_rows
    params = json.loads(cc.context_json)
    schema = violations_schema(spec.id_columns, id_types)
    counts = groups["actual_count"]
    count_str = pc.cast(pc.cast(counts, pa.int64()), pa.string())

    # focus: "group:<k1>/<k2>/..."
    parts = [pa.array(np.repeat("group:", n))]
    for i, k in enumerate(keys):
        if i:
            parts.append(pa.array(np.repeat("/", n)))
        col = groups[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        parts.append(pc.cast(col, pa.string()))
    focus = pc.binary_join_element_wise(*parts, "")

    # context JSON with per-row actualCount (static params + dynamic count)
    prefix = json.dumps(params, sort_keys=True)[:-1]  # strip closing brace
    sep = ', "actualCount": ' if prefix.strip() != "{" else '"actualCount": '
    ctx = pc.binary_join_element_wise(
        pa.array(np.repeat(prefix + sep, n)), count_str,
        pa.array(np.repeat("}", n)), "",
    )

    cols = {}
    for c, t in zip(spec.id_columns, id_types):
        if c in groups.column_names:
            col = groups[c]
            cols[c] = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        else:
            cols[c] = pa.nulls(n, t)
    static = {
        "shape_id": cc.shape_id, "constraint_id": cc.constraint_id,
        "violation_type": cc.violation_type,
        "property_path": cc.property_path, "message": cc.message,
        "severity": cc.severity, "signature": cc.signature,
        "signature_key": cc.sig_key,
    }
    cols["focus_node"] = focus
    cols["value"] = count_str
    cols["context"] = ctx
    for name, v in static.items():
        cols[name] = (pa.nulls(n, pa.string()) if v is None
                      else pa.array(np.repeat(v, n)))
    return pa.table({name: cols[name] for name in schema.names})


def _id_types(ds: "ray.data.Dataset", spec: CompiledSpec,
              id_types: Optional[List[pa.DataType]]) -> List[pa.DataType]:
    """``id_types`` as given, else the id columns' types read off ``ds``."""
    if id_types is not None:
        return id_types
    sch = ds.schema()
    tmap = dict(zip(sch.names, sch.types))
    return [tmap[c] for c in spec.id_columns]


def _violations_of(bad: "ray.data.Dataset", cc: CompiledConstraint,
                   keys: List[str], spec: CompiledSpec,
                   id_types: List[pa.DataType]) -> "ray.data.Dataset":
    """Violating ``(keys, actual_count)`` groups → violation rows."""

    def to_rows(batch: pa.Table) -> pa.Table:
        return _grouped_violation_rows(batch, cc, keys, spec, id_types)

    return bad.map_batches(to_rows, batch_format="pyarrow")


def _key_hashes(batch: pa.Table, keys: List[str]) -> np.ndarray:
    """64-bit hash of the composite key (vectorized)."""
    from ..functions.sketches import hash64

    parts = []
    for i, k in enumerate(keys):
        if i:
            parts.append(pa.array(np.repeat("\x1f", len(batch))))
        col = batch[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        parts.append(pc.fill_null(pc.cast(col, pa.string()), "\x00"))
    joined = parts[0] if len(parts) == 1 else pc.binary_join_element_wise(
        *parts, "")
    # object ndarray straight from Arrow (no Python list detour —
    # measured 6x on 500k string keys; hash values are identical)
    return hash64(joined.to_numpy(zero_copy_only=False)).astype(np.uint64)


def estimate_group_count(ds: "ray.data.Dataset", keys: List[str],
                         hll_p: int = 14) -> float:
    """Distinct-group estimate in ONE streaming pass with NO shuffle.

    Per-batch HLL sketches of the composite key hash (one ~16 KB row per
    batch) merge on the driver — the planning primitive for choosing a
    broadcast or a shuffle plan / pre-sizing a shuffle ("Every Row
    Counts", CIDR 2019 motivates sketch-based group-by estimates).
    """
    from ..functions.sketches import HyperLogLog

    def partial(b: pa.Table) -> pa.Table:
        h = HyperLogLog(p=hll_p)
        h.add_hashes(_key_hashes(b, keys))
        return pa.table({"hll": pa.array([h.to_bytes()], pa.binary())})

    blobs = ds.map_batches(partial, batch_format="pyarrow").take_all()
    from ..functions.sketches import HyperLogLog as _H

    merged = _H.merge_many([r["hll"] for r in blobs])
    return merged.estimate() if blobs else 0.0


def evaluate_grouped(
    ds: "ray.data.Dataset",
    spec: CompiledSpec,
    id_types: Optional[List[pa.DataType]] = None,
) -> List["ray.data.Dataset"]:
    """Run every grouped constraint; returns one violations Dataset each.

    MaxCount/MinCount run the pre-aggregated key exchange: per-batch
    partials (:func:`partial_group_counts`) routed by :func:`_exchange`,
    whose per-block sweep sums ``partial_n`` per full key, keeps the
    groups outside the bound and builds their violation rows.  It stays
    lazy and pipelined with the row-local scan.  GroupedSparql
    constraints follow, each in its own :func:`_evaluate_grouped_sparql`
    pass.
    """
    from ..spec import GroupedSparql

    id_types = _id_types(ds, spec, id_types)
    out = []
    # stable: cardinality checks first, then GroupedSparql
    for cc in sorted(spec.grouped,
                     key=lambda cc: isinstance(cc.constraint, GroupedSparql)):
        c = cc.constraint
        if isinstance(c, GroupedSparql):
            out.append(_evaluate_grouped_sparql(ds, cc, spec, id_types))
            continue
        if not isinstance(c, (MaxCount, MinCount)):  # pragma: no cover
            raise TypeError(f"not a grouped constraint: {c}")
        keys = list(c.group_by)
        value_col = c.column if c.column not in keys else None

        def sweep(block: pa.Table, c=c, cc=cc, keys=keys) -> pa.Table:
            tot = block.group_by(keys).aggregate([("partial_n", "sum")])
            n = tot["partial_n_sum"]
            bad = tot.filter(pc.greater(n, int(c.max_count))
                             if isinstance(c, MaxCount)
                             else pc.less(n, int(c.min_count)))
            groups = pa.table({**{k: bad[k] for k in keys},
                               "actual_count": bad["partial_n_sum"]})
            return _grouped_violation_rows(groups, cc, keys, spec, id_types)

        partials = ds.map_batches(partial_group_counts, batch_format="pyarrow",
                                  fn_kwargs=dict(keys=keys,
                                                 value_col=value_col))
        out.append(_exchange(partials, sweep))
    return out


def _evaluate_grouped_sparql(
    ds: "ray.data.Dataset",
    cc: CompiledConstraint,
    spec: CompiledSpec,
    id_types: Optional[List[pa.DataType]] = None,
    force_map_groups: bool = False,
) -> "ray.data.Dataset":
    """C19 grouped form (GroupedSparql): one ``map_groups`` pass.

    The exchange ships only ``group_by`` + the fn's declared ``columns``
    (prune-at-the-read); each violating group emits ONE
    ``(keys, actual_count)`` row — SPARQL ``SELECT DISTINCT $this`` — then
    reuses the grouped violation-row builder so focus/value/context match
    the cardinality family byte-for-byte.

    A constraint carrying a declarative :class:`~xpshacl_ray.spec.
    GroupPredicate` instead routes to the fully vectorized bucket sweep
    (:func:`_evaluate_grouped_sparql_vectorized`) — no per-focus-group
    Python.  ``force_map_groups=True`` keeps such a constraint on the
    per-group path (via the predicate's derived fn) — the path-parity
    forcing knob, test-only."""
    id_types = _id_types(ds, spec, id_types)
    c = cc.constraint
    if getattr(c, "predicate", None) is not None and not force_map_groups:
        return _evaluate_grouped_sparql_vectorized(ds, cc, spec, id_types)
    keys = list(c.group_by)
    cols = keys + [x for x in _sparql_value_cols(c) if x not in keys]
    sub = ds.select_columns(cols)
    if (getattr(c, "path_rows_only", False) and c.path
            and "predicate" in cols):
        # contract: fn reads only predicate==path rows and a group
        # without them never violates — prune BEFORE the shuffle so
        # sparse-predicate groups do not shuffle at all
        path_iri = c.path

        def keep_path_rows(b: pa.Table) -> pa.Table:
            return b.filter(pc.fill_null(
                pc.equal(b["predicate"], path_iri), False))

        sub = sub.map_batches(keep_path_rows, batch_format="pyarrow")
    sch = ds.schema()
    tmap = dict(zip(sch.names, sch.types))
    out_schema = pa.schema([(k, tmap[k]) for k in keys]
                           + [("actual_count", pa.int64())])
    # predicate wins over fn when both are set ("fn is ignored when
    # predicate is given") — otherwise force_map_groups would compare
    # two DIFFERENT predicates in the path-parity test (ADVICE r4)
    pred = getattr(c, "predicate", None)
    fn = pred.fn if pred is not None else c.fn

    max_rows = getattr(c, "max_group_rows", 0) or 0

    def per_group(g: pa.Table) -> pa.Table:
        if max_rows and g.num_rows > max_rows:
            raise ValueError(
                f"GroupedSparql {c.name!r}: focus group of {g.num_rows} "
                f"rows exceeds max_group_rows={max_rows} — a skewed key "
                f"broke the rows-per-subject bound; cap or salt upstream")
        if g.num_rows and bool(fn(g)):
            row = {k: [g[k][0].as_py()] for k in keys}
            row["actual_count"] = [g.num_rows]
            return pa.table(row, schema=out_schema)
        return out_schema.empty_table()

    bad = sub.groupby(keys).map_groups(per_group, batch_format="pyarrow")

    return _violations_of(bad, cc, keys, spec, id_types)


def _sparql_value_cols(c) -> List[str]:
    """The non-key columns a GroupedSparql constraint reads: its
    declared ``columns`` plus whatever a declarative predicate needs."""
    cols = list(c.columns)
    p = getattr(c, "predicate", None)
    if p is not None:
        for extra in (p.agg_col, p.where_col, p.order_col):
            if extra and extra not in cols:
                cols.append(extra)
    return cols


def _monotone_metric_table(sel: pa.Table, keys: List[str], p) -> pa.Table:
    """(keys, __metric__) for ``agg='monotone'`` over ONE bucket: the
    count of violating order-runs per focus key, computed in one numpy
    segment sweep across ALL groups in the bucket — no per-group
    Python.  Mirrors :func:`xpshacl_ray.spec._monotone_violating_runs`
    run for run: a run of equal order values violates when its min
    value is below the max over strictly-smaller-order rows of the
    same key."""
    import pandas as pd

    empty = pa.table({**{k: sel[k].slice(0, 0) for k in keys},
                      "__metric__": pa.array([], pa.int64())})
    if sel.num_rows == 0:
        return empty
    # temporal → int64 keeps the numpy sweep on primitive kernels
    # (order-isomorphic, so the metric is unchanged)
    cast_cols = {}
    for cname in (p.order_col, p.agg_col):
        typ = sel.schema.field(cname).type
        if pa.types.is_temporal(typ):
            cast_cols[cname] = pc.cast(sel[cname], pa.int64())
    if cast_cols:
        for cname, arr in cast_cols.items():
            sel = sel.set_column(sel.schema.get_field_index(cname),
                                 cname, arr)
    df = sel.select(keys + [p.order_col, p.agg_col]).to_pandas()
    df = df.sort_values(keys + [p.order_col], kind="mergesort",
                        ignore_index=True)
    o = df[p.order_col].to_numpy()
    v = df[p.agg_col].to_numpy()
    if v.dtype.kind in ("O", "U", "S"):
        # strings → order-isomorphic int codes (np.unique sorts), so
        # reduceat/cummax stay on primitive C kernels
        _, v = np.unique(v, return_inverse=True)
    new_seg = np.zeros(len(df), dtype=bool)
    new_seg[0] = True
    for k in keys:
        col = df[k].to_numpy()
        new_seg[1:] |= col[1:] != col[:-1]
    new_run = new_seg.copy()
    new_run[1:] |= o[1:] != o[:-1]
    run_starts = np.flatnonzero(new_run)
    run_max = np.maximum.reduceat(v, run_starts)
    run_min = np.minimum.reduceat(v, run_starts)
    seg_id_row = np.cumsum(new_seg) - 1
    seg_of_run = seg_id_row[run_starts]
    # per-segment shifted prefix max over runs (pandas cummax is the
    # C-vectorized segmented cumulative max)
    s = pd.Series(run_max)
    prev = s.groupby(seg_of_run).cummax().groupby(seg_of_run).shift(1)
    with np.errstate(invalid="ignore"):
        viol = run_min < prev.to_numpy()  # NaN/NaT prev → False
    n_seg = int(seg_id_row[-1]) + 1
    metric = np.bincount(seg_of_run[viol],
                         minlength=n_seg).astype(np.int64)
    seg_starts = np.flatnonzero(new_seg)
    out = {}
    for k in keys:
        out[k] = pa.array(df[k].to_numpy()[seg_starts]).cast(
            empty.schema.field(k).type)
    out["__metric__"] = pa.array(metric, pa.int64())
    return pa.table(out)


def _evaluate_grouped_sparql_vectorized(
    ds: "ray.data.Dataset",
    cc: CompiledConstraint,
    spec: CompiledSpec,
    id_types: List[pa.DataType],
) -> "ray.data.Dataset":
    """Vectorized GroupedSparql for declarative predicates (VERDICT r3
    item 5) — one :func:`_exchange` instead of Python-per-focus-group
    ``map_groups``:

    1. prune to keys + predicate columns and tag each row with the
       routing hash ``__h__`` (many focus groups per block);
    2. the exchange co-locates each key; per block, everything is Arrow
       C kernels — per-key totals via ``group_by(keys).count_all``, the
       metric via count / distinct-pair-then-count, a left-outer join
       back to totals (absent-after-filter keys count 0, so ``< k``
       minCount-style ops stay correct), one comparison kernel;
    3. violating keys emit ``(keys, actual_count)`` rows into the same
       grouped violation-row builder as the map_groups path — outputs
       are row-for-row identical (pinned by the forcing test).

    Partitioning bound: a block holds one sort range of the PRUNED
    columns, and there are as many ranges as input blocks; the
    per-focus-group Python floor is gone."""
    c = cc.constraint
    p = c.predicate
    keys = list(c.group_by)
    cols = keys + [x for x in _sparql_value_cols(c) if x not in keys]

    def sweep(g: pa.Table) -> pa.Table:
        tot = g.group_by(keys).aggregate([([], "count_all")])
        sel = g
        if p.where_col is not None:
            sel = sel.filter(pc.equal(sel[p.where_col], p.where_val))
        if p.agg == "count":
            agg = sel.group_by(keys).aggregate([([], "count_all")])
            metric_col = "count_all"
        elif p.agg == "distinct":
            pairs = sel.group_by(keys + [p.agg_col]).aggregate([])
            agg = pairs.group_by(keys).aggregate([(p.agg_col, "count")])
            metric_col = f"{p.agg_col}_count"
        else:  # monotone: one numpy segment sweep over the whole block
            agg = _monotone_metric_table(sel, keys, p)
            metric_col = "__metric__"
        # rebuild by NAME (group_by output column order is an Arrow
        # implementation detail) and avoid a count_all name collision
        agg = pa.table({**{k: agg[k] for k in keys},
                        "__metric__": agg[metric_col]})
        j = tot.join(agg, keys=keys, join_type="left outer")
        metric = np.asarray(
            pc.fill_null(pc.cast(j["__metric__"], pa.int64()), 0))
        mask = np.asarray(p.compare(metric), dtype=bool)
        bad = j.filter(pa.array(mask))
        groups = pa.table({**{k: bad[k] for k in keys},
                           "actual_count": bad["count_all"]})
        return _grouped_violation_rows(groups, cc, keys, spec, id_types)

    routed = ds.select_columns(cols).map_batches(
        _with_route_hash, batch_format="pyarrow", fn_kwargs=dict(keys=keys))
    return _exchange(routed, sweep)


# ---------------------------------------------------------------------------
# SiblingAntiJoin (C19 join form) — broadcast probe or bucketed anti-join
# ---------------------------------------------------------------------------

#: per-worker memo of ray.get'd edge-pair sets, keyed by ObjectRef hex —
#: one fetch per worker process, not one per focus group
_SIBLING_PAIRS_CACHE: dict = {}


def normalized_edge_pairs(edges: pa.Table) -> frozenset:
    """Undirected ``(lo, hi)`` pair set of an edge table with
    ``subject``/``object`` columns.  Direction-insensitive because
    :class:`~xpshacl_ray.spec.SiblingAntiJoin` applies its two NOT
    EXISTS filters in BOTH directions, so only unordered relatedness
    matters."""
    s, o = edges["subject"], edges["object"]
    lo = pc.min_element_wise(s, o).to_pylist()
    hi = pc.max_element_wise(s, o).to_pylist()
    return frozenset((a, b) for a, b in zip(lo, hi)
                     if a is not None and b is not None)


def _sibling_pairs(ref):
    if isinstance(ref, frozenset):  # driver-side / unit tests
        return ref
    key = ref.hex()
    if key not in _SIBLING_PAIRS_CACHE:
        import ray

        _SIBLING_PAIRS_CACHE[key] = ray.get(ref)
    return _SIBLING_PAIRS_CACHE[key]


def sibling_fn(pairs_ref, c):
    """Per-group violation fn for the BROADCAST plan of
    :class:`~xpshacl_ray.spec.SiblingAntiJoin`: True iff some normalized
    pair of the group's sibling set is absent from the edge-pair set.
    ``pairs_ref`` is a ``ray.ObjectRef`` of :func:`normalized_edge_pairs`
    output — ``ray.put`` ONCE on the driver, fetched once per worker
    (module memo), never re-shipped per batch."""

    def fn(g: pa.Table) -> bool:
        S = c.sibling_set(g)
        n = len(S)
        if n < 2:
            return False
        pairs = _sibling_pairs(pairs_ref)
        # S is sorted, so (S[i], S[j]) with i<j is already (lo, hi);
        # sibling sets are data-model-bounded (values per subject), so
        # the pair scan is tiny and early-exits on the first hit
        for i in range(n):
            for j in range(i + 1, n):
                if (S[i], S[j]) not in pairs:
                    return True
        return False

    return fn


def evaluate_sibling_join(
    ds: "ray.data.Dataset",
    edges,
    cc: CompiledConstraint,
    spec: CompiledSpec,
    id_types: Optional[List[pa.DataType]] = None,
) -> "ray.data.Dataset":
    """Bucketed anti-join plan for SiblingAntiJoin — the scale path when
    the edge relation exceeds ``edge_broadcast_limit`` (or ``=0`` forces
    it, the path-parity test knob).

    No driver-side edge set at any point: candidate (lo, hi) pairs are
    generated per focus group, unioned with the normalized edge pairs,
    and co-partitioned by ONE ``groupby(["lo", "hi"])`` — a pair bucket
    holding no edge row marks all its candidate subjects violating.  A
    final tiny ``groupby(subject)`` dedupes subjects that violate via
    several pairs.  Partitioning assumption: one (lo, hi) pair bucket
    fits in a worker (bounded by duplicate-edge multiplicity, not corpus
    size).  Per-bucket work is Python, so the broadcast plan stays the
    default whenever the edge relation is TBox-sized.

    ``edges``: Dataset or pa.Table of (subject, object) rows of
    ``edge_pred`` over the FULL graph (not target-scoped — NOT EXISTS
    consults the whole graph)."""
    c = cc.constraint
    keys = list(c.group_by)
    id_types = _id_types(ds, spec, id_types)

    pair_schema = pa.schema([
        ("lo", pa.string()), ("hi", pa.string()),
        ("subject", pa.string()), ("n_rows", pa.int64()),
        ("is_edge", pa.int64()),
    ])

    def pairs_of(g: pa.Table) -> pa.Table:
        S = c.sibling_set(g)
        n = len(S)
        if n < 2:
            return pair_schema.empty_table()
        subj = g["subject"][0].as_py()
        lo: List[str] = []
        hi: List[str] = []
        for i in range(n):
            for j in range(i + 1, n):
                lo.append(S[i])
                hi.append(S[j])
        k = len(lo)
        return pa.table(
            {"lo": lo, "hi": hi, "subject": [subj] * k,
             "n_rows": [g.num_rows] * k, "is_edge": [0] * k},
            schema=pair_schema)

    cand = (ds.select_columns(["subject", "predicate", "object"])
            .groupby("subject").map_groups(pairs_of, batch_format="pyarrow"))

    if isinstance(edges, pa.Table):
        edges = ray.data.from_arrow(edges)

    def edge_rows(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b["subject"]), pc.is_valid(b["object"]))
        b = b.filter(keep)
        k = b.num_rows
        return pa.table(
            {"lo": pc.min_element_wise(b["subject"], b["object"]),
             "hi": pc.max_element_wise(b["subject"], b["object"]),
             "subject": pa.array([""] * k, pa.string()),
             "n_rows": pa.array([0] * k, pa.int64()),
             "is_edge": pa.array([1] * k, pa.int64())},
            schema=pair_schema)

    edge_pairs = edges.map_batches(edge_rows, batch_format="pyarrow")

    bad_schema = pa.schema([("subject", pa.string()),
                            ("n_rows", pa.int64())])

    def bucket(g: pa.Table) -> pa.Table:
        if pc.any(pc.equal(g["is_edge"], 1)).as_py():
            return bad_schema.empty_table()
        return g.select(["subject", "n_rows"])

    viol_pairs = (cand.union(edge_pairs).groupby(["lo", "hi"])
                  .map_groups(bucket, batch_format="pyarrow"))

    out_schema = pa.schema([("subject", pa.string()),
                            ("actual_count", pa.int64())])

    def dedupe(g: pa.Table) -> pa.Table:
        return pa.table({"subject": [g["subject"][0].as_py()],
                         "actual_count": [g["n_rows"][0].as_py()]},
                        schema=out_schema)

    bad = viol_pairs.groupby("subject").map_groups(
        dedupe, batch_format="pyarrow")

    return _violations_of(bad, cc, keys, spec, id_types)


def evaluate_node_isolation(
    ds: "ray.data.Dataset",
    full,
    cc: CompiledConstraint,
    spec: CompiledSpec,
    id_types: Optional[List[pa.DataType]] = None,
) -> "ray.data.Dataset":
    """Anti-join plan for :class:`~xpshacl_ray.spec.NodeIsolation`:
    candidates (one slim row per focus node) union witness rows
    (subjects of ``outgoing`` / objects of ``incoming`` triples of the
    FULL graph) through ONE exchange reduced in Arrow — fully
    distributed, no broadcast, no per-group Python.

    ``ds``: the target-scoped triples Dataset (focus nodes' own rows);
    ``full``: Dataset or pa.Table of the FULL graph's
    (subject, predicate, object) rows (NOT EXISTS consults every
    triple)."""
    c = cc.constraint
    out_pred = pa.array(sorted(set(c.outgoing)), pa.string())
    in_pred = pa.array(sorted(set(c.incoming)), pa.string())

    def witness_nodes(b: pa.Table) -> pa.Array:
        parts = []
        if len(out_pred):
            m = pc.is_in(b["predicate"], value_set=out_pred)
            parts.append(b.filter(pc.fill_null(m, False))["subject"])
        if len(in_pred):
            m = pc.is_in(b["predicate"], value_set=in_pred)
            parts.append(b.filter(pc.fill_null(m, False))["object"])
        return pa.concat_arrays(
            [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p
             for p in parts]) if parts else pa.array([], pa.string())

    return _focus_witness_groupby(
        ds, full, ["subject", "predicate", "object"], witness_nodes,
        cc, spec, id_types, violate_on_witness=False)


def evaluate_membership(
    ds: "ray.data.Dataset",
    members,
    cc: CompiledConstraint,
    spec: CompiledSpec,
    id_types: Optional[List[pa.DataType]] = None,
) -> "ray.data.Dataset":
    """Mark the focus nodes of ``ds`` that appear in ``members`` (a
    Dataset/Table with one ``node`` column) — the mirror image of
    :func:`evaluate_node_isolation` (violation iff the witness IS
    present).  Used by :class:`~xpshacl_ray.spec.TransitiveCycle` to
    scope cycle membership back to the shape's target class.  One
    exchange; no broadcast, no per-group Python."""
    def member_nodes(b: pa.Table) -> pa.Array:
        nodes = b["node"]
        if isinstance(nodes, pa.ChunkedArray):
            nodes = nodes.combine_chunks()
        if not pa.types.is_string(nodes.type) and not \
                pa.types.is_large_string(nodes.type):
            nodes = pc.cast(nodes, pa.string())
        return nodes

    return _focus_witness_groupby(ds, members, ["node"], member_nodes,
                                  cc, spec, id_types, violate_on_witness=True)


def _focus_witness_groupby(
    ds: "ray.data.Dataset",
    witnesses,
    witness_cols: List[str],
    witness_nodes,
    cc: CompiledConstraint,
    spec: CompiledSpec,
    id_types: Optional[List[pa.DataType]],
    violate_on_witness: bool,
) -> "ray.data.Dataset":
    """Shared plan of :func:`evaluate_node_isolation` and
    :func:`evaluate_membership`: one slim ``(node, partial_count)`` row
    per focus subject per batch, union one row per witness node
    (``witness_nodes(batch)`` over ``witnesses`` pruned to
    ``witness_cols``), through ONE :func:`_exchange` on ``node``.  A focus
    node violates iff it has a witness (``violate_on_witness``) or has
    none."""
    id_types = _id_types(ds, spec, id_types)
    keys = list(cc.constraint.group_by)
    node_schema = pa.schema([("node", pa.string()),
                             ("n_rows", pa.int64()),
                             ("is_witness", pa.int64())])

    def cand_rows(b: pa.Table) -> pa.Table:
        # per-batch combiner: one (node, partial_count) row per subject
        agg = b.select(["subject"]).group_by(["subject"]).aggregate(
            [([], "count_all")])
        k = agg.num_rows
        return _with_route_hash(pa.table(
            {"node": agg["subject"],
             "n_rows": pc.cast(agg["count_all"], pa.int64()),
             "is_witness": pa.array([0] * k, pa.int64())},
            schema=node_schema), ["node"])

    def witness_rows(b: pa.Table) -> pa.Table:
        # batch-local dedup: the exchange needs one witness per node, not
        # one per occurrence — shrinks it on dense graphs
        nodes = pc.unique(pc.drop_null(witness_nodes(b)))
        k = len(nodes)
        return _with_route_hash(pa.table(
            {"node": nodes, "n_rows": pa.array([0] * k, pa.int64()),
             "is_witness": pa.array([1] * k, pa.int64())},
            schema=node_schema), ["node"])

    def sweep(g: pa.Table) -> pa.Table:
        agg = g.group_by("node").aggregate([("is_witness", "max"),
                                            ("n_rows", "sum")])
        bad = agg.filter(pc.and_(
            pc.equal(agg["is_witness_max"], int(violate_on_witness)),
            pc.greater(agg["n_rows_sum"], 0)))
        groups = pa.table({"subject": bad["node"],
                           "actual_count": bad["n_rows_sum"]})
        return _grouped_violation_rows(groups, cc, keys, spec, id_types)

    if isinstance(witnesses, pa.Table):
        witnesses = ray.data.from_arrow(witnesses)
    cand = ds.select_columns(["subject"]).map_batches(
        cand_rows, batch_format="pyarrow")
    wit = witnesses.select_columns(witness_cols).map_batches(
        witness_rows, batch_format="pyarrow")
    return _exchange(cand.union(wit), sweep)
