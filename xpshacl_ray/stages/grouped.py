"""Grouped checks — shuffle #1: cardinality / uniqueness (C1/C2/C11),
referential existence (C4) and the multi-row SHACL-SPARQL forms (C19:
GroupedSparql, SiblingAntiJoin, NodeIsolation, cycle membership).

Strategy (SURVEY.md §2.2, §4): never shuffle full rows.  Each grouped
constraint projects to its key columns only and pre-aggregates counts
*within each batch* via ``pyarrow.Table.group_by`` (the combiner,
:func:`partial_group_counts`).  The exchange then moves one row per
(key, batch) — bounded by distinct keys, not input rows.  At 100 TB the
wide `content` column never enters the exchange.

Every plan here co-locates keys one way, :func:`_exchange`: each row
carries ``__h__``, the int64 view of the composite key hash; at most k
plain Ray tasks, each over a run of the materialized input blocks, cut
their rows into k fixed, equal hash ranges (k = the cluster's CPU
count), and one reduce task per range
concatenates that range's parts and reduces them in one Arrow call on
the FULL key columns.  The hash only routes, so a collision co-locates
two keys and nothing else: results stay exact.  A null key is a group of
its own, as under SQL ``GROUP BY``.  Violation rows are built in that
same call, with dynamic ``actualCount`` context exactly as the reference
enriches cardinality context (extended_shacl_validator.py:292-318).

The exchange is plain tasks, not Ray Data's ``sort``: the sort is a
barrier, and while the scan ran Ray Data reserved CPUs for the operator
after it, so at these sizes the sort's fixed scheduling costs were the
exchange's whole cost.  :func:`_exchange` names the alternatives that
were measured and rejected.

All checks of one ``validate`` share ONE exchange (:func:`evaluate_scan`):
one ``map_batches`` per input part emits the row-local violations, every
MaxCount/MinCount check's partials, every GroupedSparql check's pruned
rows, every referential check's probe rows and every NodeIsolation or
TransitiveCycle check's count partials as one table tagged by
``__tag__``; a Turtle validate's parts (one table per target class or
property shape) are scanned and exchanged together, their tags numbered
across parts.  Each join check's referenced side (a referenced table,
the full graph, the cycle members) is one more input, whose distinct
keys ride under a sibling build tag.  The violation rows ride the
exchange unchanged (routed by their focus hash) and pass straight
through the sweep; the tag is folded into the sweep's group keys, so K
cardinality checks cost one Arrow ``group_by`` per block, each
GroupedSparql check reduces its own tag's rows in the same call, a
referential or isolation check keeps its probes absent from its build
keys, and a membership check those present in them.  Only
:func:`evaluate_sibling_join` keeps exchanges of its own: its second
stage's ``(lo, hi)`` key comes out of a reduce, not out of a scan.

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

import functools
import json
import logging
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.sketches import key_hash64
from ..model import VIOLATION_FIELDS
from ..sources.ingest import cluster_cpus
from ..spec import (CompiledConstraint, CompiledSpec, MaxCount, MinCount,
                    NodeIsolation, Referential, TransitiveCycle)
from .evaluate import (_value_strings, render_focus, static_fields,
                       violation_rows, violations_schema)


def _with_route_hash(t: pa.Table, keys: List[str]) -> pa.Table:
    """``t`` plus ``__h__``: the int64 view of ``key_hash64`` folded over
    ``keys``.  ``key_hash64`` ignores the batch's null layout, so equal
    keys get equal hashes in every batch."""
    h = np.zeros(t.num_rows, np.uint64)
    for k in keys:
        h = h * np.uint64(0x9E3779B97F4A7C15) + key_hash64(t[k])
    return t.append_column("__h__", pa.array(h.view(np.int64)))


def _exchange_partitions() -> int:
    """k, the number of ``__h__`` ranges of one exchange: the cluster's
    CPU count, at least 1."""
    return cluster_cpus()


def _exchange_boundaries(k: int) -> List[int]:
    """The k-1 evenly spaced int64 boundaries that cut ``__h__`` into k
    equal ranges; none for k = 1."""
    lo = -2**63
    return [lo + i * 2**64 // k for i in range(1, k)]


@ray.remote
def _exchange_route(cuts: List[int], *blocks: pa.Table):
    """One map task of :func:`_exchange`: the rows of each of ``blocks``
    cut into ``len(cuts) + 1`` parts by their ``__h__`` range; part j is
    the list of the blocks' rows in range j, in block order.  A block
    without ``__h__`` (Ray's column-less empty block) adds nothing."""
    k = len(cuts) + 1
    parts = [[] for _ in range(k)]
    for block in blocks:
        if "__h__" not in block.column_names:
            continue
        idx = np.searchsorted(np.asarray(cuts, np.int64),
                              block["__h__"].to_numpy(), side="right")
        order = np.argsort(idx, kind="stable")
        ends = np.cumsum(np.bincount(idx, minlength=k))
        for part, a, b in zip(parts, np.append(0, ends[:-1]), ends):
            part.append(block.take(order[a:b]))
    return parts if k > 1 else parts[0]


@ray.remote
def _exchange_reduce(reduce: Callable[[pa.Table], pa.Table],
                     *routed: List[pa.Table]) -> pa.Table:
    """One reduce task of :func:`_exchange`: ``reduce`` over this range's
    parts, concatenated in block order, as one chunk per column.  A range
    with no rows is not reduced and yields a column-less empty block."""
    parts = [p for ps in routed for p in ps]
    if not any(p.num_rows for p in parts):
        return pa.table({})
    # empty parts bring their block's columns too; an int32 key column
    # meeting an int64 one (a referential build side) is widened
    block = pa.concat_tables(parts, promote_options="permissive")
    return reduce(block.drop_columns(["__h__"])).combine_chunks()


_EXECUTOR_LOG = logging.getLogger(
    "ray.data._internal.execution.streaming_executor_state")


def _same_schema_warning(record: logging.LogRecord) -> bool:
    """Drops Ray Data's warning that an operator's blocks differ in
    schema: a referenced side's key rows join the scan rows on purpose."""
    return not record.getMessage().startswith(
        "Operator produced a RefBundle with a different schema")


def _exchange(ds: "ray.data.Dataset",
              reduce: Callable[[pa.Table], pa.Table],
              tables: Sequence[pa.Table] = ()) -> "ray.data.Dataset":
    """Route rows carrying ``__h__`` so equal hashes share one block, then
    ``reduce`` each whole block (``__h__`` dropped) in one Arrow call.
    ``tables`` are driver-held blocks routed after ``ds``'s.

    A pull shuffle of plain Ray tasks over ``ds``'s materialized blocks
    (one Ray Data execution): ≤ k :func:`_exchange_route` tasks, each over
    a run of blocks (one task per block started a worker process per
    task past the CPU count), cut the rows at :func:`_exchange_boundaries`
    for k = :func:`_exchange_partitions`, the cluster's CPU count, and k
    :func:`_exchange_reduce` tasks each reduce one range; each task
    holds ~1/k of the rows.  The result holds the k reduced blocks in
    range order.  The hash is a uniform 64-bit fold, so equal
    ranges balance the load without sampling, and the layout depends on
    k alone.  k is fixed at plan time, not sized from the partials: an
    estimate of their distinct keys or bytes would cost an execution
    first.  A reducer relies on co-location only: its rows are in block
    order, not in ``__h__`` order.

    Plain tasks, not Ray Data's ``sort`` (the map/reduce that ``sort``
    runs internally, without its all-to-all operator): at these sizes
    the sort's fixed costs were the exchange's whole cost.  The sort is
    a barrier, and Ray Data reserved CPUs for the operator after it
    while the scan ran; the sort's own tasks used a small share of the
    wall time.  Rejected: materializing the scan and keeping the sort in
    a second execution (a smaller gain), and having every reducer read
    every block with no route step (faster on one node, but it moves k
    times the bytes across nodes).

    Rows need not all be partials: :func:`evaluate_scan` also routes the
    row-local violation rows (hashed by focus node), the GroupedSparql
    rows and every join check's probe and build rows through here, so one
    plan's checks and its violations share a single exchange.  Eager:
    the input executes before this returns, and a failing ``reduce``
    raises here."""
    k = _exchange_partitions()
    cuts = _exchange_boundaries(k)
    _EXECUTOR_LOG.addFilter(_same_schema_warning)
    try:
        blocks = ds.materialize().to_arrow_refs() + list(tables)
    finally:
        _EXECUTOR_LOG.removeFilter(_same_schema_warning)
    run = max(1, -(-len(blocks) // k))
    routed = [_exchange_route.options(num_returns=k).remote(
        cuts, *blocks[i:i + run]) for i in range(0, len(blocks), run)]
    if k == 1:  # num_returns=1 gives one ref, not a list of one
        routed = [[r] for r in routed]
    fn = ray.put(reduce)
    return ray.data.from_arrow_refs(
        [_exchange_reduce.remote(fn, *(r[j] for r in routed))
         for j in range(k)])


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

    cols = {c: groups[c] if c in groups.column_names else pa.nulls(n, t)
            for c, t in zip(spec.id_columns, id_types)}
    cols.update(static_fields(cc, n))
    cols["focus_node"] = focus
    cols["value"] = count_str
    cols["context"] = ctx
    return pa.table({name: cols[name] for name in schema.names})


def _id_types(ds: "ray.data.Dataset", spec: CompiledSpec,
              id_types: Optional[List[pa.DataType]]) -> List[pa.DataType]:
    """``id_types`` as given, else the id columns' types read off ``ds``."""
    if id_types is not None:
        return id_types
    sch = ds.schema()
    tmap = dict(zip(sch.names, sch.types))
    return [tmap[c] for c in spec.id_columns]


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
    """Run every grouped constraint of ``spec``; returns a list of at
    most one violations Dataset, empty when ``spec.grouped`` is.

    That Dataset is :func:`evaluate_scan` over ``spec.grouped`` alone,
    with no row-local or referential checks riding along: one scan and
    one exchange for the MaxCount/MinCount and GroupedSparql checks
    alike, a null key forming its own group.  ``id_types`` is unused:
    the sweep reads the id-column types off its blocks.
    """
    if not spec.grouped:
        return []
    return [evaluate_scan([(ds, replace(spec, row_local=[], referential=[]),
                            None)])]


_TAG = "__tag__"
_KEY = "__key__"  # prefix of the input columns a grouped check carries


# the checks whose probe rows meet build rows from a referenced side
_JOINS = (Referential, NodeIsolation, TransitiveCycle)


def _sums_partials(cc: CompiledConstraint) -> bool:
    """Whether ``cc``'s rows are count partials: a MaxCount/MinCount
    check's, or a NodeIsolation/TransitiveCycle check's probe rows."""
    return isinstance(cc.constraint,
                      (MaxCount, MinCount, NodeIsolation, TransitiveCycle))


def _build_tag(tag: int) -> int:
    """The tag of the build rows of the join check tagged ``tag``."""
    return -2 - tag


def _join_key(c) -> str:
    """The key column that join check ``c``'s probe and build rows share:
    a Referential's ``column``, the others' one ``group_by`` column."""
    return _KEY + (c.column if isinstance(c, Referential) else c.group_by[0])


def evaluate_scan(
        parts: Sequence[Tuple["ray.data.Dataset", CompiledSpec,
                              Optional[Dict[str, object]]]],
) -> "ray.data.Dataset":
    """Each ``(ds, spec, refs)`` part's ``spec.row_local`` and every check
    in its ``spec.grouped`` and ``spec.referential`` from ONE
    ``map_batches`` over ``ds``.  The parts share ``id_columns``; their
    inputs need not share a schema.

    ``refs`` maps each join check to its referenced side, a Dataset or a
    driver-held ``pa.Table``: a referential check under its ``column``
    (the side's ``ref_column`` values are the keys; an array of them
    also does), a NodeIsolation or TransitiveCycle check under its
    ``name`` (the full graph's ``subject``/``predicate``/``object``
    triples, or the cycle members' ``node`` column).  A check without
    its entry raises ``KeyError`` naming that key, before any execution.

    Without grouped or join checks the union of the scans is the
    violations.  With them, each scan emits one tagged table
    (:func:`_scan_batch`), its checks numbered after the previous
    parts', each referenced side's distinct keys (:func:`_build_keys`)
    are one more scan, or one driver-held block for a table or an
    array, and all are routed by one :func:`_exchange`, whose sweep
    (:func:`_grouped_sweep`) reduces every check per block.  Id-column
    types are read off each batch and block, so one part fetches no
    schema."""
    checks = [cc for _, spec, _ in parts
              for cc in spec.grouped + spec.referential]
    pad = (_scan_schema([(ds, spec) for ds, spec, _ in parts])
           if checks and len(parts) > 1 else None)
    scans, tables, first_tag = [], [], 0
    for ds, spec, refs in parts:
        scans.append(ds.map_batches(
            _scan_batch, batch_format="pyarrow", fn_kwargs=dict(
                spec=spec, first_tag=first_tag if checks else None,
                pad=pad)))
        for tag, cc in enumerate(spec.grouped + spec.referential, first_tag):
            c = cc.constraint
            if not isinstance(c, _JOINS):
                continue
            ref = (refs or {})[c.column if isinstance(c, Referential)
                               else c.name]
            kw = dict(c=c, tag=_build_tag(tag))
            if isinstance(ref, ray.data.Dataset):
                scans.append(ref.select_columns(_build_columns(c)).map_batches(
                    _build_keys, batch_format="pyarrow", fn_kwargs=kw))
            else:
                if not isinstance(ref, pa.Table):  # an array of keys
                    ref = pa.table({c.ref_column: ref})
                tables.append(_build_keys(ref, **kw))
        first_tag += len(spec.grouped) + len(spec.referential)
    scan = scans[0].union(*scans[1:]) if len(scans) > 1 else scans[0]
    if not checks:
        return scan
    spec = replace(parts[0][1], row_local=[], referential=[], grouped=checks)
    return _exchange(scan, functools.partial(_grouped_sweep, spec=spec),
                     tables)


def _scan_schema(parts: Sequence[Tuple["ray.data.Dataset", CompiledSpec]]
                 ) -> pa.Schema:
    """One schema for the :func:`_scan_batch` output of all ``parts``:
    their outputs on empty batches of their inputs, unified.  Padded to
    it, a reduce block that holds only other parts' rows still has every
    check's columns, typed.  Reads each input's schema, which an
    in-memory input knows without executing."""
    schemas = [(ds.schema(), spec) for ds, spec in parts]
    return pa.unify_schemas(
        [_scan_batch(pa.schema(list(zip(sch.names, sch.types))).empty_table(),
                     spec, 0).schema for sch, spec in schemas],
        promote_options="default")


def _scan_batch(batch: pa.Table, spec: CompiledSpec,
                first_tag: Optional[int],
                pad: Optional[pa.Schema] = None) -> pa.Table:
    """One input batch → its row-local violations (and a referential
    check's null keys under ``null_is_violation``), untagged when
    ``first_tag`` is None (no part of the scan has a grouped or
    referential check), and each such check's rows: a MaxCount/MinCount
    check's partials (:func:`partial_group_counts`), a GroupedSparql
    check's pruned input rows (:func:`_sparql_rows`), a referential
    check's probe rows: id columns, ``focus_node``, ``value`` and key.
    A NodeIsolation or TransitiveCycle check's probe rows are the same
    partials as a cardinality check's, counted over its focus key.

    The tagged output has one schema for every batch: the violation
    columns, ``__tag__`` (-1 for a violation row, ``first_tag + i`` for
    check i's rows), ``__h__``, one ``__key__<name>`` column per input
    column a check carries, and ``partial_n`` when a cardinality check
    is present, padded to ``pad`` (:func:`_scan_schema`) if given.  The
    prefix keeps an input column named like a violation field (say
    ``value``) apart from it.  A column a row does not use is null.
    Violation rows are routed by the hash of their focus node, a check's
    rows by its key."""
    focus = (render_focus(batch, spec.focus_template)
             if spec.referential else None)
    flags = ([(cc, cc.constraint.mask(batch)) for cc in spec.row_local]
             if batch.num_rows else [])
    flags += [(cc, pc.is_null(batch[cc.constraint.column]))
              for cc in spec.referential if cc.constraint.null_is_violation]
    viol = violation_rows(batch, spec, flags, focus)
    if first_tag is None:
        return viol
    focus_h = key_hash64(viol["focus_node"]).view(np.int64)
    parts = [viol.append_column(_TAG, pa.array(np.full(viol.num_rows, -1)))
             .append_column("__h__", pa.array(focus_h))]
    for i, cc in enumerate(spec.grouped + spec.referential, first_tag):
        c = cc.constraint
        if isinstance(c, Referential):
            # one probe row per non-null key, routed by the key
            key = _join_key(c)
            p = pa.table({**{k: batch[k] for k in spec.id_columns},
                          "focus_node": focus, "value": _value_strings(
                              batch, cc.value_column or cc.property_path),
                          key: batch[c.column]})
            p = _with_route_hash(p.filter(pc.is_valid(p[key])), [key])
        elif _sums_partials(cc):
            group_by = list(c.group_by)
            p = partial_group_counts(
                batch, group_by,
                c.column if c.column not in group_by else None)
            p = p.rename_columns([_KEY + k for k in group_by]
                                 + ["partial_n", "__h__"])
        else:
            p = _with_route_hash(_sparql_rows(batch, c), list(c.group_by))
            p = p.rename_columns([_KEY + k for k in c.read_columns()]
                                 + ["__h__"])
        parts.append(p.append_column(_TAG, pa.array(np.full(p.num_rows, i))))
    # the parts' schemas unify in one order, and Arrow fills the
    # columns a part lacks with nulls
    return pa.concat_tables(([] if pad is None else [pad.empty_table()])
                            + parts, promote_options="default")


def _build_columns(c) -> List[str]:
    """The columns of join check ``c``'s referenced side that
    :func:`_build_keys` reads."""
    if isinstance(c, Referential):
        return [c.ref_column]
    if isinstance(c, TransitiveCycle):
        return ["node"]
    return ["subject", "predicate", "object"]


def _build_keys(batch: pa.Table, c, tag: int) -> pa.Table:
    """Join check ``c``'s build rows from ``batch`` of its referenced
    side: the distinct non-null keys under :func:`_join_key`, tagged
    ``tag`` and routed as the probe rows are (``key_hash64`` hashes int32
    and int64 keys alike).  The keys are a referential check's
    ``ref_column`` values, a NodeIsolation check's witness nodes (the
    subjects of its ``outgoing`` and the objects of its ``incoming``
    triples) or a TransitiveCycle check's member ``node``s, as strings
    like the subjects they meet."""
    if isinstance(c, Referential):
        keys = batch[c.ref_column]
    elif isinstance(c, TransitiveCycle):
        keys = pc.cast(batch["node"], pa.string())
    else:
        hits = []
        for col, preds in (("subject", c.outgoing), ("object", c.incoming)):
            m = pc.is_in(batch["predicate"],
                         value_set=pa.array(list(preds), pa.string()))
            hits += batch.filter(pc.fill_null(m, False))[col].chunks
        keys = pa.chunked_array(hits, batch.schema.field("subject").type)
    keys = pc.unique(keys).drop_null()
    name = _join_key(c)
    return _with_route_hash(pa.table({
        name: keys, _TAG: pa.array(np.full(len(keys), tag))}), [name])


def _sparql_rows(batch: pa.Table, c) -> pa.Table:
    """The rows of ``batch`` GroupedSparql ``c`` ships, pruned to the
    columns it reads (prune-at-the-read).  Under ``path_rows_only`` (the
    ``fn`` form) only the rows whose ``predicate`` is ``path`` remain:
    ``fn`` reads no other row, and a group without them never violates,
    so it never ships."""
    cols = c.read_columns()
    t = batch.select(cols)
    if (c.predicate is None and c.path_rows_only and c.path
            and "predicate" in cols):
        t = t.filter(pc.fill_null(pc.equal(t["predicate"], c.path), False))
    return t


def _grouped_sweep(block: pa.Table, spec: CompiledSpec) -> pa.Table:
    """Reduce one routed block of :func:`_scan_batch` output: violation
    rows pass through; count partials sum per (``__tag__``, key columns)
    in one Arrow ``group_by`` — a check's unused key columns are all
    null, so they split nothing — and each cardinality check keeps its
    groups outside its bound, each NodeIsolation check the focus keys
    absent from its build keys in this block, and each TransitiveCycle
    check those present in them (a null key is a group of its own and
    matches no build key); each GroupedSparql check's rows, their prefix
    stripped, go to :func:`_sparql_groups`, and each referential check's
    to :func:`_dangling_rows`.  Every violating group becomes one
    violation row."""
    if "focus_node" not in block.column_names:
        # only build rows: no probe scan emitted a block with columns
        return pa.table({})
    tag = block[_TAG]
    names = list(spec.id_columns) + [f for f, _ in VIOLATION_FIELDS]
    out = [block.filter(pc.equal(tag, -1)).select(names)]
    id_types = [block.schema.field(c).type for c in spec.id_columns]
    card = [cc for cc in spec.grouped if _sums_partials(cc)]
    if card:
        keys = dict.fromkeys(_KEY + k for cc in card
                             for k in cc.constraint.group_by)
        # only the partial rows carry a count
        tot = block.filter(pc.is_valid(block["partial_n"])).group_by(
            [_TAG, *keys]).aggregate([("partial_n", "sum")])
    for i, cc in enumerate(spec.grouped):
        c = cc.constraint
        if isinstance(c, Referential):
            out.append(_dangling_rows(block, i, cc, names))
            continue
        group_by = list(c.group_by)
        if _sums_partials(cc):
            mine = tot.filter(pc.equal(tot[_TAG], i))
            n = mine["partial_n_sum"]
            if isinstance(c, MaxCount):
                keep = pc.greater(n, int(c.max_count))
            elif isinstance(c, MinCount):
                keep = pc.less(n, int(c.min_count))
            else:
                built = block.filter(pc.equal(tag, _build_tag(i)))
                keep = pc.is_in(mine[_join_key(c)], value_set=built[
                    _join_key(c)].combine_chunks())
                if isinstance(c, NodeIsolation):
                    keep = pc.invert(keep)
            bad = mine.filter(keep)
            groups = pa.table({**{k: bad[_KEY + k] for k in group_by},
                               "actual_count": bad["partial_n_sum"]})
        else:
            cols = c.read_columns()
            rows = block.filter(pc.equal(tag, i)).select(
                [_KEY + x for x in cols]).rename_columns(cols)
            groups = _sparql_groups(rows, c)
        out.append(_grouped_violation_rows(groups, cc, group_by, spec,
                                           id_types))
    return pa.concat_tables(out)


def _dangling_rows(block: pa.Table, i: int, cc: CompiledConstraint,
                   names: List[str]) -> pa.Table:
    """Referential check ``cc``'s (tag ``i``) probe rows in ``block``
    whose key is absent from its build rows there, static fields filled."""
    key = _join_key(cc.constraint)
    tag = block[_TAG]
    built = block.filter(pc.equal(tag, _build_tag(i)))[key]
    rows = block.filter(pc.equal(tag, i))
    rows = rows.filter(pc.invert(pc.is_in(
        rows[key], value_set=built.combine_chunks())))
    static = static_fields(cc, rows.num_rows)
    return pa.table({n: static[n] if n in static else rows[n]
                     for n in names})


def _key_runs(t: pa.Table, keys: List[str]) -> np.ndarray:
    """Start offsets of the runs of equal ``keys`` in ``t``, which is
    sorted by them.  A null equals a null (SQL ``GROUP BY``), so null
    keys form their own run instead of splitting or vanishing."""
    new = np.zeros(t.num_rows, bool)
    new[:1] = True
    for k in keys:
        a = t[k].combine_chunks()
        cur, prev = a[1:], a[:-1]
        same = pc.or_(pc.fill_null(pc.equal(cur, prev), False),
                      pc.and_(pc.is_null(cur), pc.is_null(prev)))
        new[1:] |= ~same.to_numpy(zero_copy_only=False)
    return np.flatnonzero(new)


def _sparql_groups(rows: pa.Table, c) -> pa.Table:
    """The violating focus groups of GroupedSparql ``c`` among ``rows``,
    which hold every row of each of their keys: one ``(keys,
    actual_count)`` row per group — SPARQL ``SELECT DISTINCT $this`` —
    for the grouped violation-row builder, so focus/value/context match
    the cardinality family byte-for-byte.

    ``rows`` are sorted by the full keys (nulls last) and split into runs
    of equal keys, one run per focus group; a null key is a group of its
    own, as under SQL ``GROUP BY``.

    - declarative :class:`~xpshacl_ray.spec.GroupPredicate` form (wins
      over ``fn``): every group's metric is one numpy/Arrow pass over the
      runs (:func:`_predicate_metric`) — no per-focus-group Python.
    - ``fn`` form: ``fn`` runs once per run, on a zero-copy slice;
      ``max_group_rows`` bounds a run."""
    p = c.predicate
    keys = list(c.group_by)
    order = keys + ([p.order_col] if p is not None and p.agg == "monotone"
                    else [])
    rows = rows.sort_by([(k, "ascending") for k in order],
                        null_placement="at_end")
    starts = _key_runs(rows, keys)
    sizes = np.diff(np.append(starts, rows.num_rows))
    if p is not None:
        violating = p.compare(_predicate_metric(rows, sizes, p))
    else:
        max_rows = c.max_group_rows or 0
        if max_rows and sizes.size and sizes.max() > max_rows:
            raise ValueError(
                f"GroupedSparql {c.name!r}: focus group of "
                f"{int(sizes.max())} rows exceeds max_group_rows="
                f"{max_rows} — a skewed key broke the rows-per-subject "
                f"bound; cap or salt upstream")
        violating = [bool(c.fn(rows.slice(s, n)))
                     for s, n in zip(starts, sizes)]
    bad = np.flatnonzero(np.asarray(violating, dtype=bool))
    groups = rows.take(pa.array(starts[bad], pa.int64())).select(keys)
    return groups.append_column("actual_count",
                                pa.array(sizes[bad], pa.int64()))


def _predicate_metric(block: pa.Table, sizes: np.ndarray, p) -> np.ndarray:
    """Per-group metric of :class:`~xpshacl_ray.spec.GroupPredicate` ``p``
    over a block sorted into runs of ``sizes`` rows (one run per group,
    ordered by ``order_col`` within a run for ``agg='monotone'``).  A
    group whose filtered rows are empty gets 0, so ``< k`` minCount-style
    forms see it."""
    n = len(sizes)
    seg = np.repeat(np.arange(n), sizes)
    m = np.ones(block.num_rows, bool)
    if p.where_col is not None:
        m = pc.fill_null(pc.equal(block[p.where_col], p.where_val),
                         False).to_numpy()
    if p.agg == "count":
        return np.bincount(seg[m], minlength=n)
    v = block[p.agg_col].filter(pa.array(m))
    if p.agg == "distinct":
        # COUNT(DISTINCT) ignores null, as GroupPredicate.fn does
        pairs = pa.table({"g": seg[m], "v": v}).filter(pc.is_valid(v))
        pairs = pairs.group_by(["g", "v"]).aggregate([])
        return np.bincount(pairs["g"].to_numpy(), minlength=n)
    o = block[p.order_col].filter(pa.array(m))
    return _monotone_metric(seg[m], _numeric(o), _numeric(v), n)


def _numeric(col) -> np.ndarray:
    """``col`` as numpy, temporal as int64 (order-isomorphic, so the
    monotone metric is unchanged and stays on primitive kernels)."""
    if pa.types.is_temporal(col.type):
        col = pc.cast(col, pa.int64())
    return col.to_numpy()


def _monotone_metric(seg: np.ndarray, o: np.ndarray, v: np.ndarray,
                     n: int) -> np.ndarray:
    """``agg='monotone'`` for ``n`` groups in ONE numpy segment sweep:
    rows are sorted by group ``seg`` then order ``o``.  Mirrors
    :func:`xpshacl_ray.spec._monotone_violating_runs` run for run: a run
    of equal order values violates when its min value is below the max
    over strictly-smaller-order rows of the same group."""
    import pandas as pd

    if len(seg) == 0:
        return np.zeros(n, np.int64)
    if v.dtype.kind in ("O", "U", "S"):
        # strings → order-isomorphic int codes (np.unique sorts), so
        # reduceat/cummax stay on primitive C kernels
        _, v = np.unique(v, return_inverse=True)
    new_run = np.ones(len(seg), bool)
    new_run[1:] = (seg[1:] != seg[:-1]) | (o[1:] != o[:-1])
    run_starts = np.flatnonzero(new_run)
    run_max = np.maximum.reduceat(v, run_starts)
    run_min = np.minimum.reduceat(v, run_starts)
    seg_of_run = seg[run_starts]
    # per-group shifted prefix max over runs (pandas cummax is the
    # C-vectorized segmented cumulative max)
    s = pd.Series(run_max)
    prev = s.groupby(seg_of_run).cummax().groupby(seg_of_run).shift(1)
    with np.errstate(invalid="ignore"):
        viol = run_min < prev.to_numpy()  # NaN/NaT prev → False
    return np.bincount(seg_of_run[viol], minlength=n)


# ---------------------------------------------------------------------------
# SiblingAntiJoin (C19 join form) — a bucketed anti-join on the pair key
# ---------------------------------------------------------------------------


def evaluate_sibling_join(
    ds: "ray.data.Dataset",
    full,
    cc: CompiledConstraint,
    spec: CompiledSpec,
    id_types: Optional[List[pa.DataType]] = None,
) -> "ray.data.Dataset":
    """Anti-join plan for :class:`~xpshacl_ray.spec.SiblingAntiJoin`:
    three :func:`_exchange` passes reduced in Arrow, no driver-side edge
    set and no per-subject Python.

    1. on ``subject``: each focus subject's row count and its DISTINCT
       ``path`` values (exclusions applied as masks) self-join into the
       candidate ``(lo, hi)`` pairs with ``lo < hi``;
    2. on ``(lo, hi)``: candidates against the normalized undirected
       ``edge_pred`` pairs of the FULL graph — a candidate whose pair has
       no edge row is unrelated in both directions;
    3. on ``subject``: dedupe subjects that violate via several pairs.

    Partitioning assumption: one subject's pairs (quadratic in its
    distinct ``path`` values, bounded by the data model) and one pair's
    edge rows fit in a worker.

    ``ds``: the target-scoped triples Dataset (focus nodes' own rows);
    ``full``: Dataset or pa.Table of the FULL graph's
    (subject, predicate, object) rows (NOT EXISTS consults every
    triple)."""
    c = cc.constraint
    keys = list(c.group_by)
    id_types = _id_types(ds, spec, id_types)
    excluded = pa.array(sorted(set(c.exclude)), pa.string())
    # one row per candidate pair; an edge pair has a null subject
    pair_schema = pa.schema([("lo", pa.string()), ("hi", pa.string()),
                             ("subject", pa.string()),
                             ("n_rows", pa.int64())])

    def focus_rows(b: pa.Table) -> pa.Table:
        # per-batch combiner: one (subject, null, count) row per subject
        # plus one (subject, value, 0) row per distinct sibling value
        b = b.filter(pc.is_valid(b["subject"]))
        tot = b.group_by(["subject"]).aggregate([([], "count_all")])
        m = pc.and_(pc.equal(b["predicate"], c.path),
                    pc.is_valid(b["object"]))
        m = pc.and_(m, pc.invert(pc.is_in(b["object"], value_set=excluded)))
        if c.exclude_self:
            m = pc.and_(m, pc.not_equal(b["object"], b["subject"]))
        vals = b.filter(pc.fill_null(m, False)).group_by(
            ["subject", "object"]).aggregate([])
        return _with_route_hash(pa.concat_tables([
            pa.table({"subject": tot["subject"],
                      "object": pa.nulls(tot.num_rows, b["object"].type),
                      "n_rows": pc.cast(tot["count_all"], pa.int64())}),
            pa.table({"subject": vals["subject"], "object": vals["object"],
                      "n_rows": pa.array(np.zeros(vals.num_rows, np.int64))}),
        ]), ["subject"])

    def candidate_pairs(g: pa.Table) -> pa.Table:
        n = g.group_by(["subject"]).aggregate([("n_rows", "sum")])
        vals = g.filter(pc.is_valid(g["object"])).group_by(
            ["subject", "object"]).aggregate([])
        lo = pa.table({"subject": vals["subject"], "lo": vals["object"]})
        hi = pa.table({"subject": vals["subject"], "hi": vals["object"]})
        pr = lo.join(hi, "subject")
        pr = pr.filter(pc.less(pr["lo"], pr["hi"])).join(n, "subject")
        return _with_route_hash(pa.table(
            {"lo": pr["lo"], "hi": pr["hi"], "subject": pr["subject"],
             "n_rows": pr["n_rows_sum"]}, schema=pair_schema), ["lo", "hi"])

    def edge_rows(b: pa.Table) -> pa.Table:
        b = b.filter(pc.fill_null(pc.equal(b["predicate"], c.edge_pred),
                                  False))
        b = b.filter(pc.and_(pc.is_valid(b["subject"]),
                             pc.is_valid(b["object"])))
        e = pa.table({"lo": pc.min_element_wise(b["subject"], b["object"]),
                      "hi": pc.max_element_wise(b["subject"], b["object"])})
        e = e.group_by(["lo", "hi"]).aggregate([])
        k = e.num_rows
        return _with_route_hash(pa.table(
            {"lo": e["lo"], "hi": e["hi"],
             "subject": pa.nulls(k, pa.string()),
             "n_rows": pa.array(np.zeros(k, np.int64))},
            schema=pair_schema), ["lo", "hi"])

    def unrelated(g: pa.Table) -> pa.Table:
        edge = g.filter(pc.is_null(g["subject"])).select(["lo", "hi"])
        cand = g.filter(pc.is_valid(g["subject"]))
        bad = cand.join(edge, keys=["lo", "hi"], join_type="left anti")
        return _with_route_hash(bad.select(["subject", "n_rows"]),
                                ["subject"])

    def dedupe(g: pa.Table) -> pa.Table:
        agg = g.group_by(["subject"]).aggregate([("n_rows", "max")])
        groups = pa.table({"subject": agg["subject"],
                           "actual_count": agg["n_rows_max"]})
        return _grouped_violation_rows(groups, cc, keys, spec, id_types)

    if isinstance(full, pa.Table):
        full = ray.data.from_arrow(full)
    triples = ["subject", "predicate", "object"]
    cand = _exchange(ds.select_columns(triples).map_batches(
        focus_rows, batch_format="pyarrow"), candidate_pairs)
    edges = full.select_columns(triples).map_batches(
        edge_rows, batch_format="pyarrow")
    bad = _exchange(cand.union(edges), unrelated)
    return _exchange(bad, dedupe)
