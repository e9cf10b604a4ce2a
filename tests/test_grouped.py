"""Grouped checks: the pre-aggregated key exchange of
``stages/grouped.py`` checked against DuckDB's ``GROUP BY ... HAVING``
and Counter oracles."""

import bisect
import dataclasses
import json
import re
from collections import Counter

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.cloudpickle
import ray.data
from ray.data import DataContext

from xpshacl_ray.pipelines.validate import ValidationEngine, validate_parts
from xpshacl_ray.spec import (GroupedSparql, GroupPredicate, MaxCount,
                              MinCount, NodeIsolation, Referential,
                              SiblingAntiJoin, TransitiveCycle,
                              ValidationSpec, compile_spec)
from xpshacl_ray.stages import grouped
from xpshacl_ray.stages.grouped import evaluate_grouped, evaluate_sibling_join

BIG = 2**60 + 1  # corrupts to 1.152921504606847e+18 under float64


def test_grouped_keys_matches_duckdb_with_int64_and_null_keys():
    t = pa.table({
        "k": pa.array([BIG, BIG, BIG, 7, 7, 7, 7, 9, 9, None, None, 5, 5],
                      pa.int64()),
        "j": pa.array(["x", "x", "x", "y", "y", "y", "z", "w", "w",
                       "x", "x", None, None], pa.string()),
        "v": pa.array(["a", "b", "c", "a", None, "b", "a", "a", None,
                       "a", "b", "a", "b"], pa.string()),
    })
    # three blocks: (7, y) and (NULL, x) each straddle a block boundary,
    # so their per-batch partial counts must merge in the exchange
    ds = ray.data.from_arrow([t.slice(0, 5), t.slice(5, 5), t.slice(10)])
    spec = compile_spec(ValidationSpec(
        constraints=[MaxCount(column="v", group_by=["k", "j"], max_count=1)],
        id_columns=[], focus_template="g:{k}/{j}"))

    parts = evaluate_grouped(ds, spec)
    assert len(parts) == 1
    got = pa.concat_tables(
        parts[0].iter_batches(batch_format="pyarrow", batch_size=None))

    oracle = duckdb.sql(
        "SELECT 'group:' || CAST(k AS VARCHAR) || '/' || j AS focus, "
        "count(v) AS n FROM t GROUP BY k, j HAVING count(v) > 1").arrow()
    want = Counter(zip(oracle["focus"].to_pylist(), oracle["n"].to_pylist()))
    have = Counter(zip(got["focus_node"].to_pylist(),
                       [int(x) for x in got["value"].to_pylist()]))
    assert have == want
    # the exact int64 key in the focus; count(v) skips nulls, so (9, w)
    # with two rows but one value conforms; a null key part renders a
    # NULL focus, as the oracle's || does
    assert want == Counter({("group:1152921504606846977/x", 3): 1,
                            ("group:7/y", 2): 1, (None, 2): 2})
    for ctx, value in zip(got["context"].to_pylist(),
                          got["value"].to_pylist()):
        assert json.loads(ctx)["actualCount"] == int(value)
    assert set(got["constraint_id"].to_pylist()) == {
        spec.grouped[0].constraint_id}


# ---------------------------------------------------------------------------
# The exchange: rows routed by ``sort("__h__")`` over k fixed hash ranges,
# reduced per block in Arrow, checked against Counter/set oracles or the
# per-group fn twin.
# ---------------------------------------------------------------------------


def _keyed_rows(n=2000, seed=3):
    """``(k, j, v)`` rows: int64 keys incl. ``BIG`` and its float64 twin
    ``2**60``, string keys, and nulls in ``k``, ``j`` and ``v``."""
    rng = np.random.default_rng(seed)
    ks = [BIG, 2**60, None] + list(range(40))
    js = ["x", "y", "z", None]
    # the three special keys are hot, so MaxCount flags them
    w = np.array([10.0] * 3 + [70 / 40] * 40) / 100
    k = [ks[i] for i in rng.choice(len(ks), n, p=w)]
    j = [js[i] for i in rng.integers(0, len(js), n)]
    v = [None if r < 0.2 else f"v{r:.3f}" for r in rng.random(n)]
    # a rare group with a null int key, for MinCount
    k[::500], j[::500] = [None] * 4, ["w"] * 4
    return pa.table({"k": pa.array(k, pa.int64()), "j": pa.array(j),
                     "v": pa.array(v)})


def _oracle(t, keep):
    """{(k, j, count(v))} for the groups ``keep(count)`` selects."""
    n = Counter()
    for k, j, v in zip(t["k"].to_pylist(), t["j"].to_pylist(),
                       t["v"].to_pylist()):
        n[(k, j)] += v is not None
    return Counter((k, j, c) for (k, j), c in n.items() if keep(c))


def _blocks(ds, constraint):
    """The non-empty violation blocks of ``constraint`` over ``ds``."""
    spec = compile_spec(ValidationSpec(
        constraints=[constraint], id_columns=["k", "j"],
        focus_template="g:{k}/{j}"))
    (part,) = evaluate_grouped(ds, spec)
    return [b for b in part.iter_batches(batch_format="pyarrow",
                                         batch_size=None) if b.num_rows]


def _counts(blocks):
    """{(k, j, actualCount)} of violation blocks, checking each focus."""
    got = pa.concat_tables(blocks)
    for k, j, focus in zip(got["k"].to_pylist(), got["j"].to_pylist(),
                           got["focus_node"].to_pylist()):
        # the null-focus rule: any null key part renders a NULL focus
        assert focus == (None if k is None or j is None
                         else f"group:{k}/{j}")
    return Counter(zip(got["k"].to_pylist(), got["j"].to_pylist(),
                       [int(x) for x in got["value"].to_pylist()]))


CARDINALITY = [
    (MaxCount(column="v", group_by=["k", "j"], max_count=30),
     lambda c: c > 30),
    (MinCount(column="v", group_by=["k", "j"], min_count=10),
     lambda c: c < 10),
]


@pytest.mark.parametrize("constraint,keep", CARDINALITY,
                         ids=["max_count", "min_count"])
@pytest.mark.parametrize("layout", ["1_block", "40_blocks", "tiny_blocks"])
def test_exchange_matches_counter(constraint, keep, layout, monkeypatch):
    t = _keyed_rows()
    if layout == "tiny_blocks":
        # every map output splits into ~100-row blocks, so the sort runs
        # with dozens of input blocks and reducers
        monkeypatch.setattr(DataContext.get_current(),
                            "target_max_block_size", 4096)
    if layout == "1_block":
        ds = ray.data.from_arrow(t)
    else:
        ds = ray.data.from_arrow([t.slice(i * 50, 50) for i in range(40)])
    want = _oracle(t, keep)
    # violating groups with a null in each key column
    assert any(k is None for k, _, _ in want)
    assert any(j is None for _, j, _ in want)
    if isinstance(constraint, MaxCount):
        assert {BIG, 2**60} <= {k for k, _, _ in want}
    assert _counts(_blocks(ds, constraint)) == want


def _constant_hash():
    def key_hash64(col):
        return np.zeros(len(col), np.uint64)

    return key_hash64


def test_forced_collision_keeps_output(monkeypatch):
    """Every key hashes alike, so the whole exchange lands in one block:
    the sweep still separates groups by their full keys."""
    t = _keyed_rows()
    ds = ray.data.from_arrow([t.slice(i * 200, 200) for i in range(10)])
    constraint, keep = CARDINALITY[0]
    want = _oracle(t, keep)

    # pickle the module by value so the Ray workers see the patched hash
    monkeypatch.setattr(grouped, "key_hash64", _constant_hash())
    ray.cloudpickle.register_pickle_by_value(grouped)
    try:
        blocks = _blocks(ds, constraint)
    finally:
        ray.cloudpickle.unregister_pickle_by_value(grouped)
    assert len(blocks) == 1  # the collision really co-located every key
    assert _counts(blocks) == want


def test_exchange_boundaries_cut_equal_ranges():
    for k in (1, 2, 3, 8):
        b = grouped._exchange_boundaries(k)
        assert b == grouped._exchange_boundaries(k) == sorted(b)
        assert len(b) == k - 1
        assert all(-2**63 <= x < 2**63 for x in b)
    assert grouped._exchange_boundaries(1) == []
    assert grouped._exchange_boundaries(2) == [0]
    edges = [-2**63] + grouped._exchange_boundaries(8) + [2**63]
    assert set(np.diff(edges).tolist()) == {2**61}


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_exchange_layout_is_fixed_by_k(k, monkeypatch):
    """Each routed block holds one hash range, at most k blocks hold
    rows, and a second run yields the same blocks."""
    rng = np.random.default_rng(k)
    h = np.append(rng.integers(-2**63, 2**63 - 1, 3000, dtype=np.int64),
                  [-2**63, 2**63 - 1, 0, -1])
    t = pa.table({"__h__": h, "x": h})
    ds = ray.data.from_arrow([t.slice(i * 151, 151) for i in range(20)])
    monkeypatch.setattr(grouped, "_exchange_partitions", lambda: k)

    def span(b):
        return pa.table({"lo": [b["x"][0].as_py()],
                         "hi": [b["x"][-1].as_py()], "n": [b.num_rows]})

    def layout():
        out = grouped._exchange(ds, span).take_all()
        return sorted((r["lo"], r["hi"], r["n"]) for r in out if r["n"])

    first = layout()
    assert first == layout()
    assert len(first) <= k
    assert sum(n for _, _, n in first) == t.num_rows
    edges = [-2**63] + grouped._exchange_boundaries(k) + [2**63]
    for lo, hi, _ in first:
        assert bisect.bisect(edges, lo) == bisect.bisect(edges, hi)


@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("case", ["zero_rows", "columnless_blocks",
                                  "many_blocks"])
def test_exchange_edge_inputs_match_counter(case, k, monkeypatch):
    """A zero-row input, an input holding Ray's column-less empty blocks
    and a many-block input each reduce to the Counter of their keys over
    k blocks, every column of a block with rows in one chunk."""
    t = grouped._with_route_hash(_keyed_rows(), ["k", "j"])
    if case == "zero_rows":
        t = t.slice(0, 0)
        blocks = [t, t]
    elif case == "columnless_blocks":
        blocks = [pa.table({}), t.slice(0, 700), pa.table({}),
                  t.slice(700)]
    else:
        blocks = [t.slice(i * 50, 50) for i in range(40)]
    monkeypatch.setattr(grouped, "_exchange_partitions", lambda: k)

    def count_keys(b):
        return b.group_by(["k", "j"]).aggregate([([], "count_all")])

    got = ray.get(grouped._exchange(ray.data.from_arrow(blocks),
                                    count_keys).to_arrow_refs())
    assert len(got) == k
    rows = []
    for b in got:
        if b.num_rows:
            assert {c.num_chunks for c in b.columns} == {1}
            rows += zip(b["k"].to_pylist(), b["j"].to_pylist(),
                        b["count_all"].to_pylist())
    # each key lands in one block, so no key is counted twice
    assert len({(kk, jj) for kk, jj, _ in rows}) == len(rows)
    want = Counter(zip(t["k"].to_pylist(), t["j"].to_pylist()))
    assert Counter({(kk, jj): n for kk, jj, n in rows}) == want
    assert (not want) == (case == "zero_rows")


def _sibling_case():
    """Focus triples and the full graph for a SiblingAntiJoin: subject
    ``c{i}`` has ``p`` values among ``n{i}/0..4``, related by ``e``."""
    rng = np.random.default_rng(4)
    focus, edges = [], []
    for i in range(40):
        nodes = [f"n{i}/{j}" for j in range(5)]
        focus += [(f"c{i}", "p", o) for o in rng.choice(nodes, 3)]
        focus.append((f"c{i}", "q", None))
        edges += [(a, "e", b) for a, b in zip(rng.choice(nodes, 4),
                                                rng.choice(nodes, 4))]

    def table(rows):
        return pa.table({c: pa.array([r[i] for r in rows], pa.string())
                         for i, c in enumerate(("subject", "predicate",
                                                "object"))})

    ft = table(focus)
    return (ray.data.from_arrow([ft.slice(i * 16, 16) for i in range(10)]),
            table(focus + edges))


@pytest.mark.parametrize("plan", ["max_count", "grouped_sparql",
                                  "sibling_antijoin"])
def test_exchange_output_is_independent_of_k(plan, monkeypatch):
    if plan == "max_count":
        t = _keyed_rows()
        ds = ray.data.from_arrow([t.slice(i * 50, 50) for i in range(40)])
        spec = compile_spec(ValidationSpec(
            constraints=[CARDINALITY[0][0]], id_columns=["k", "j"],
            focus_template="g:{k}/{j}"))

        def run():
            (part,) = evaluate_grouped(ds, spec)
            return part
    elif plan == "grouped_sparql":
        t = pa.table({"subject": [f"s{i % 23}" if i % 31 else None
                                  for i in range(600)],
                      "predicate": ["p", "q", "p"] * 200,
                      "object": [f"o{i % 7}" for i in range(600)]})
        ds = ray.data.from_arrow([t.slice(i * 60, 60) for i in range(10)])
        spec = _sparql_spec(GroupPredicate(agg="distinct", agg_col="object",
                                           op=">=", value=4))

        def run():
            (part,) = evaluate_grouped(ds, spec)
            return part
    else:
        ds, full = _sibling_case()
        spec = compile_spec(ValidationSpec(
            constraints=[SiblingAntiJoin(path="p", edge_pred="e",
                                         group_by=["subject"],
                                         columns=["predicate", "object"])],
            id_columns=["subject"], focus_template="{subject}"))

        def run():
            return evaluate_sibling_join(ds, full, spec.grouped[0], spec)

    outs = []
    for k in (1, 2, 3, 8):
        monkeypatch.setattr(grouped, "_exchange_partitions", lambda k=k: k)
        outs.append(_sorted_table(run()))
    assert outs[0].num_rows > 0
    for got in outs[1:]:
        assert got.equals(outs[0])
    if plan == "max_count":
        assert _counts([outs[0]]) == _oracle(t, CARDINALITY[0][1])


def test_grouped_sparql_reads_an_input_column_named_value():
    """A GroupedSparql reading an int64 input column named ``value``,
    next to a row-local check on the same column: its ``fn`` sees the
    int64 input values, and the violations' ``value`` stays a string."""
    from xpshacl_ray.pipelines.validate import ValidationEngine
    from xpshacl_ray.spec import MaxInclusive

    t = pa.table({"k": pa.array(["a", "a", "b", "b", "b", None]),
                  "value": pa.array([1, 2, 30, 40, 50, 7], pa.int64())})

    def big_total(g):
        assert g["value"].type == pa.int64(), g.schema
        return pc.sum(g["value"]).as_py() > 5

    spec = ValidationSpec(
        constraints=[MaxInclusive(column="value", bound=45),
                     GroupedSparql(group_by=["k"], columns=["value"],
                                   name="big-total", fn=big_total)],
        id_columns=["k"], focus_template="{k}")
    viol = ValidationEngine(spec).validate(
        ray.data.from_arrow([t.slice(0, 3), t.slice(3)]))
    got = _sorted_table(viol)
    assert got.schema.field("value").type == pa.string()
    assert Counter(zip(got["focus_node"].to_pylist(),
                       got["value"].to_pylist())) == Counter(
        {("b", "50"): 1, ("group:b", "3"): 1, (None, "1"): 1})

def _fn_twin(spec):
    """``spec`` with its one GroupedSparql's predicate run as a per-group
    ``fn`` — the reference the vectorized sweep is compared against."""
    c = spec.grouped[0].constraint
    return compile_spec(ValidationSpec(
        constraints=[dataclasses.replace(c, predicate=None,
                                         fn=c.predicate.fn)],
        id_columns=spec.id_columns, focus_template=spec.focus_template))


def _sorted_table(d):
    got = pa.concat_tables(d.iter_batches(batch_format="pyarrow",
                                          batch_size=None))
    return got.sort_by([("focus_node", "ascending"), ("value", "ascending")])


def _grouped_table(ds, spec):
    """:func:`_sorted_table` of ``spec``'s grouped checks over ``ds``."""
    (part,) = evaluate_grouped(ds, spec)
    return _sorted_table(part)


def _sparql_spec(pred):
    return compile_spec(ValidationSpec(
        constraints=[GroupedSparql(
            group_by=["subject"], columns=["predicate", "object"],
            name=pred.agg, predicate=pred)],
        id_columns=["subject"], focus_template="{subject}"))


def test_grouped_sparql_vectorized_equals_map_groups_twin():
    """The vectorized sweep equals its per-group ``fn`` twin under every
    GroupPredicate aggregate, and both keep the null subject as a group
    of its own."""
    rng = np.random.default_rng(5)
    n = 593
    t = pa.table({
        "subject": pa.array([f"s{r}" for r in rng.integers(0, 60, n)]
                            + [None] * 7, pa.string()),
        "predicate": pa.array([["p", "q", None][i]
                               for i in rng.integers(0, 3, n)]
                              + ["p"] * 5 + ["q"] * 2),
        "object": pa.array([f"o{i}" for i in rng.integers(0, 5, n)]
                           + [f"o{i}" for i in range(7)]),
    })
    t = t.take(rng.permutation(t.num_rows))
    ds = ray.data.from_arrow([t.slice(i * 100, 100) for i in range(6)])
    # (predicate, is the null subject reported?)
    cases = [(GroupPredicate(agg="count", op="<", value=4,
                             where_col="predicate", where_val="p"), False),
             (GroupPredicate(agg="distinct", agg_col="object", op=">=",
                             value=2), True),
             (GroupPredicate(agg="monotone", agg_col="object",
                             order_col="predicate", op="==", value=0), None)]
    for pred, null_reported in cases:
        spec = _sparql_spec(pred)
        fast = _grouped_table(ds, spec)
        slow = _grouped_table(ds, _fn_twin(spec))
        assert fast.num_rows > 0, pred
        if null_reported is not None:
            assert (None in fast["subject"].to_pylist()) == null_reported
        assert fast.equals(slow), pred


def test_grouped_sparql_vectorized_counts_null_key_group():
    """A null subject with 5 ``p`` rows is not reported under ``count <
    4``: its metric is its true count, not the 0 a null-dropping key join
    reads."""
    t = pa.table({
        "subject": pa.array([None] * 5 + ["s1"] * 2 + ["s2"] * 5,
                            pa.string()),
        "predicate": pa.array(["p"] * 12),
        "object": pa.array([f"o{i}" for i in range(12)]),
    })
    spec = _sparql_spec(GroupPredicate(agg="count", op="<", value=4,
                                       where_col="predicate", where_val="p"))
    got = _grouped_table(ray.data.from_arrow(t), spec)
    assert got["focus_node"].to_pylist() == ["group:s1"]
    assert got["value"].to_pylist() == ["2"]


@pytest.mark.parametrize("layout", ["1_block", "40_blocks", "tiny_blocks"])
def test_grouped_sparql_fn_null_key_matches_counter(layout, monkeypatch):
    """The ``fn`` form under SQL ``GROUP BY`` null semantics: a null key
    with fewer than 4 rows is reported, with a NULL focus."""
    rng = np.random.default_rng(11)
    keys = [f"k{i}" for i in rng.integers(0, 40, 594)]
    keys += ["rare1", "rare2", "rare2", None, None, None]  # small groups
    keys = [keys[i] for i in rng.permutation(len(keys))]
    t = pa.table({"k": pa.array(keys, pa.string()),
                  "v": pa.array(np.arange(len(keys)))})
    if layout == "tiny_blocks":
        monkeypatch.setattr(DataContext.get_current(),
                            "target_max_block_size", 1024)
    if layout == "1_block":
        ds = ray.data.from_arrow(t)
    else:
        ds = ray.data.from_arrow([t.slice(i * 15, 15) for i in range(40)])

    def fewer_than_four(g):
        return g.num_rows < 4

    spec = compile_spec(ValidationSpec(
        constraints=[GroupedSparql(group_by=["k"], columns=["v"],
                                   fn=fewer_than_four, name="lt4")],
        id_columns=["k"], focus_template="{k}"))
    (part,) = evaluate_grouped(ds, spec)
    got = pa.concat_tables(part.iter_batches(batch_format="pyarrow",
                                             batch_size=None))
    want = Counter({(k, n) for k, n in Counter(keys).items() if n < 4})
    assert (None, 3) in want
    assert Counter(zip(got["k"].to_pylist(),
                       map(int, got["value"].to_pylist()))) == want
    for k, focus in zip(got["k"].to_pylist(), got["focus_node"].to_pylist()):
        assert focus == (None if k is None else f"group:{k}")


# ---------------------------------------------------------------------------
# GroupedSparql parity on triples: the vectorized GroupPredicate sweep
# against its per-group ``fn`` twin, null semantics, predicate priority.
# ---------------------------------------------------------------------------


def _superclass_spec(pred=None, fn=None):
    """A compiled spec of one "at most one superclass" GroupedSparql over
    ``(subject, predicate, object)`` triples."""
    c = GroupedSparql(
        path="rdfs:subClassOf", group_by=["subject"],
        columns=["predicate", "object"], name="at-most-one-superclass",
        fn=fn, predicate=pred,
        message="Classes must have at most one superclass")
    return compile_spec(ValidationSpec(constraints=[c],
                                       id_columns=["subject"],
                                       focus_template="{subject}"))


def _grouped_pdf(ds, spec):
    """``spec``'s grouped violations over ``ds`` as a pandas frame."""
    (part,) = evaluate_grouped(ds, spec)
    return part.to_pandas()


def _triples_ds(n_subj=300, seed=3):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_subj):
        s = f"ex:S{i:04d}"
        rows.append({"subject": s, "predicate": "rdfs:label",
                     "object": f"label {i}"})
        n_parents = int(rng.integers(0, 4))
        for j in range(n_parents):
            # some duplicate parents: distinct != count
            rows.append({"subject": s, "predicate": "rdfs:subClassOf",
                         "object": f"ex:P{int(rng.integers(0, max(1, n_parents)))}"})
    return ray.data.from_items(rows)


def _null_triples():
    # ex:A has {x, null}: distinct (null-ignoring) == 1 → NOT a violation
    # ex:B has {x, y}: distinct == 2 → violation
    # ex:C has {null, null}: distinct == 0 → NOT a violation
    rows = [
        {"subject": "ex:A", "predicate": "rdfs:subClassOf", "object": "x"},
        {"subject": "ex:A", "predicate": "rdfs:subClassOf", "object": None},
        {"subject": "ex:B", "predicate": "rdfs:subClassOf", "object": "x"},
        {"subject": "ex:B", "predicate": "rdfs:subClassOf", "object": "y"},
        {"subject": "ex:C", "predicate": "rdfs:subClassOf", "object": None},
        {"subject": "ex:C", "predicate": "rdfs:subClassOf", "object": None},
    ]
    return ray.data.from_items(rows)


@pytest.mark.slow
def test_grouped_sparql_vectorized_path_parity():
    """predicate-driven vectorized bucket sweep ≡ its per-group fn twin
    (the same constraint with ``fn=pred.fn`` and no predicate), row for
    row."""
    ds = _triples_ds()
    pred = GroupPredicate(agg="distinct", agg_col="object", op=">=",
                          value=2, where_col="predicate",
                          where_val="rdfs:subClassOf")
    fast = _grouped_pdf(ds, _superclass_spec(pred=pred))
    slow = _grouped_pdf(ds, _superclass_spec(fn=pred.fn))
    assert len(fast) > 0  # the fixture produces real violations
    key = ["focus_node"]
    f = fast.sort_values(key).reset_index(drop=True)
    s = slow.sort_values(key).reset_index(drop=True)
    assert list(f.columns) == list(s.columns)
    for col in f.columns:
        assert list(f[col]) == list(s[col]), col


def test_group_predicate_count_lt_counts_empty_groups():
    """op '<' must see keys whose filtered metric is empty (0 matching
    rows): every group's metric starts at 0."""
    rows = [
        {"subject": "ex:A", "predicate": "rdfs:subClassOf", "object": "x"},
        {"subject": "ex:B", "predicate": "rdfs:label", "object": "b"},
    ]
    pred = GroupPredicate(agg="count", op="<", value=1,
                          where_col="predicate",
                          where_val="rdfs:subClassOf")
    out = _grouped_pdf(ray.data.from_items(rows),
                       _superclass_spec(pred=pred))
    assert [f.split(":", 1)[-1] if f.startswith("group:") else f
            for f in out["focus_node"]] == ["ex:B"]


@pytest.mark.slow
def test_grouped_sparql_monotone_vectorized_parity():
    """agg='monotone' bucket sweep ≡ per-group fn path (tie-robust
    non-decreasing check, the sparql_grouped production shape)."""
    rng = np.random.default_rng(11)
    rows = []
    for s in range(250):
        for _ in range(int(rng.integers(1, 7))):
            rows.append({"subject": f"s{s:03d}",
                         "predicate": str(int(rng.integers(0, 4))),
                         "object": str(int(rng.integers(0, 9)))})
    ds = ray.data.from_items(rows)
    pred = GroupPredicate(agg="monotone", agg_col="object",
                          order_col="predicate", op=">=", value=1)
    fast = _grouped_pdf(ds, _superclass_spec(pred=pred))
    slow = _grouped_pdf(ds, _superclass_spec(fn=pred.fn))
    assert len(fast) > 0
    f = fast.sort_values("focus_node").reset_index(drop=True)
    s2 = slow.sort_values("focus_node").reset_index(drop=True)
    for col in f.columns:
        assert list(f[col]) == list(s2[col]), col


def test_grouped_sparql_vectorized_multikey_parity():
    """Multi-column group_by exercises the combined key hashing in the
    bucket tagger (keys[1:] mixing path)."""
    rng = np.random.default_rng(23)
    rows = []
    for a in range(40):
        for bkey in ("x", "y"):
            for _ in range(int(rng.integers(1, 5))):
                rows.append({"k1": a, "k2": bkey,
                             "v": str(int(rng.integers(0, 3)))})
    ds = ray.data.from_items(rows)
    pred = GroupPredicate(agg="distinct", agg_col="v", op=">=", value=2)
    c = GroupedSparql(path="v", group_by=["k1", "k2"], columns=["v"],
                      name="mk", predicate=pred, message="m")
    spec = compile_spec(ValidationSpec(constraints=[c],
                                       id_columns=["k1"],
                                       focus_template="g:{k1}"))
    twin = compile_spec(ValidationSpec(
        constraints=[dataclasses.replace(c, predicate=None, fn=pred.fn)],
        id_columns=["k1"], focus_template="g:{k1}"))
    fast = _grouped_pdf(ds, spec)
    slow = _grouped_pdf(ds, twin)
    assert len(fast) > 0
    f = fast.sort_values("focus_node").reset_index(drop=True)
    s = slow.sort_values("focus_node").reset_index(drop=True)
    for col in f.columns:
        assert list(f[col]) == list(s[col]), col


def test_group_predicate_distinct_ignores_nulls_both_paths():
    """GroupPredicate agg='distinct' ignores null, as SQL/SPARQL
    COUNT(DISTINCT) do, on the vectorized sweep and its fn twin alike."""
    pred = GroupPredicate(agg="distinct", agg_col="object", op=">=",
                          value=2, where_col="predicate",
                          where_val="rdfs:subClassOf")
    ds = _null_triples()
    fast = _grouped_pdf(ds, _superclass_spec(pred=pred))
    slow = _grouped_pdf(ds, _superclass_spec(fn=pred.fn))
    # only ex:B violates on BOTH paths (null is not a distinct value)
    for out in (fast, slow):
        focs = sorted(out["focus_node"])
        assert len(focs) == 1 and focs[0].endswith("ex:B"), focs
    f = fast.sort_values("focus_node").reset_index(drop=True)
    s = slow.sort_values("focus_node").reset_index(drop=True)
    for col in f.columns:
        assert list(f[col]) == list(s[col]), col


def test_predicate_wins_over_fn():
    """A constraint with both ``fn`` and ``predicate`` is evaluated by its
    predicate."""
    def everything_violates(g):  # the decoy c.fn
        return True

    pred = GroupPredicate(agg="distinct", agg_col="object", op=">=",
                          value=2, where_col="predicate",
                          where_val="rdfs:subClassOf")
    out = _grouped_pdf(_null_triples(),
                       _superclass_spec(pred=pred, fn=everything_violates))
    # decoy fn would flag all 3 subjects; the predicate flags only ex:B
    assert len(out) == 1 and out["focus_node"].iloc[0].endswith("ex:B")


def test_node_isolation_matches_set_oracle():
    rng = np.random.default_rng(9)
    n = 400
    t = pa.table({
        "subject": pa.array([f"s{i}" for i in rng.integers(0, 80, n)]),
        "predicate": pa.array([["p", "q", "r"][i]
                               for i in rng.integers(0, 3, n)]),
        "object": pa.array([f"s{i}" for i in rng.integers(0, 120, n)]),
    })
    ds = ray.data.from_arrow([t.slice(i * 100, 100) for i in range(4)])
    c = NodeIsolation(outgoing=["p"], incoming=["q"], group_by=["subject"],
                      columns=["predicate", "object"])
    spec = compile_spec(ValidationSpec(constraints=[c],
                                       id_columns=["subject"],
                                       focus_template="{subject}"))
    # the full graph, driver-held, is the check's referenced side
    out = validate_parts([(ds, spec, {c.name: t})])
    got = pa.concat_tables(out.iter_batches(batch_format="pyarrow",
                                            batch_size=None))

    rows = list(zip(*(t[c].to_pylist()
                      for c in ("subject", "predicate", "object"))))
    witnessed = ({s for s, p, _ in rows if p == "p"}
                 | {o for _, p, o in rows if p == "q"})
    want = Counter(s for s, _, _ in rows if s not in witnessed)
    assert want
    assert Counter(dict(zip(got["subject"].to_pylist(),
                            map(int, got["value"].to_pylist())))) == want


def _join_graph(seed=41):
    """A full graph of (subject, predicate, object) triples over nodes
    s0..s119, with null subjects and objects, the probe (its rows whose
    subject is s0..s39 or null) and a member set with a null."""
    rng = np.random.default_rng(seed)
    n = 600

    def nodes(hi, nulls):
        return [None if rng.random() < nulls else f"s{i}"
                for i in rng.integers(0, hi, n)]

    full = pa.table({
        "subject": pa.array(nodes(90, 0.05), pa.string()),
        "predicate": pa.array([["p", "q", "r"][i]
                               for i in rng.integers(0, 3, n)]),
        "object": pa.array(nodes(120, 0.1), pa.string()),
    })
    focus = pa.array([f"s{i}" for i in range(40)])
    probe = full.filter(pc.or_(pc.is_null(full["subject"]),
                               pc.is_in(full["subject"], value_set=focus)))
    members = pa.table({"node": pa.array(
        [f"s{i}" for i in rng.choice(120, 30, replace=False)] + [None],
        pa.string())})
    return probe, full, members


# check name -> (its referenced side, DuckDB condition on focus group g)
JOIN_CHECKS = {
    "iso-full": ("graph", "NOT EXISTS (SELECT 1 FROM graph f WHERE "
                         "(f.predicate = 'p' AND f.subject = g.subject) OR "
                         "(f.predicate = 'q' AND f.object = g.subject))"),
    "iso-empty": ("graph_empty", "NOT EXISTS (SELECT 1 FROM graph_empty f "
                                 "WHERE f.subject = g.subject)"),
    "cyc-full": ("members", "EXISTS (SELECT 1 FROM members m "
                            "WHERE m.node = g.subject)"),
    "cyc-empty": ("members_empty", "EXISTS (SELECT 1 FROM members_empty m "
                                   "WHERE m.node = g.subject)"),
}


def _slices(t: pa.Table, blocks: int):
    step = -(-t.num_rows // blocks)
    return [t.slice(i * step, step) for i in range(blocks)]


def _join_oracle(probe: pa.Table, sides: dict) -> Counter:
    """Every check's ``(message, subject, focus_node, value)`` rows by
    DuckDB: ``GROUP BY subject`` with a ``NOT EXISTS`` over the witness
    triples (isolation) or an ``EXISTS`` over the member set
    (membership), the MaxCount's ``HAVING count(object) > 2`` and the
    Referential's ``NOT IN`` over the non-null member nodes.  A null
    subject is a group of its own and equals no witness or member."""
    con = duckdb.connect()
    con.register("probe", probe)
    for name, t in sides.items():
        con.register(name, t)
    groups = ("(SELECT subject, count(*) AS n FROM probe "
              "GROUP BY subject) g")
    want = Counter()
    for name, (_, cond) in JOIN_CHECKS.items():
        want.update((name, s, None if s is None else f"group:{s}", str(n))
                    for s, n in con.execute(
                        f"SELECT subject, n FROM {groups} WHERE {cond}"
                    ).fetchall())
    want.update(("max", s, None if s is None else f"group:{s}", str(n))
                for s, n in con.execute(
                    "SELECT subject, count(object) FROM probe "
                    "GROUP BY subject HAVING count(object) > 2").fetchall())
    want.update(("ref", s, s, o) for s, o in con.execute(
        "SELECT subject, object FROM probe WHERE object IS NOT NULL AND "
        "object NOT IN (SELECT node FROM members WHERE node IS NOT NULL)"
    ).fetchall())
    return want


@pytest.mark.parametrize("k", [1, 2, 3, 8])
@pytest.mark.parametrize("blocks", [1, 40])
@pytest.mark.parametrize("form", ["dataset", "table"])
def test_isolation_and_membership_match_duckdb(form, blocks, k,
                                               monkeypatch):
    """Two NodeIsolation and two TransitiveCycle checks — each with a
    full and an empty referenced side — a MaxCount and a Referential in
    one part give DuckDB's rows, whatever the exchange's k, the block
    count and the form of the referenced sides: their tags and build
    tags do not collide, and a null subject violates isolation but is
    no member."""
    monkeypatch.setattr(grouped, "_exchange_partitions", lambda: k)
    probe, full, members = _join_graph()
    assert probe["subject"].null_count and probe.num_rows < full.num_rows
    tables = {"graph": full, "graph_empty": full.slice(0, 0),
              "members": members, "members_empty": members.slice(0, 0)}

    def side(name):
        if form == "table":
            return tables[name]
        ds = ray.data.from_arrow(_slices(tables[name.replace("_empty", "")],
                                         blocks))
        return ds.filter(lambda r: False) if "_empty" in name else ds

    checks = [NodeIsolation(outgoing=["p"], incoming=["q"], name=n,
                            message=n, group_by=["subject"])
              for n in ("iso-full", "iso-empty")]
    checks += [TransitiveCycle(path="e", name=n, message=n,
                               group_by=["subject"])
               for n in ("cyc-full", "cyc-empty")]
    checks += [MaxCount(column="object", group_by=["subject"], max_count=2,
                        message="max"),
               Referential(column="object", ref_table="members",
                           ref_column="node", message="ref")]
    spec = compile_spec(ValidationSpec(constraints=checks,
                                       id_columns=["subject"],
                                       focus_template="{subject}"))
    refs = {n: side(s) for n, (s, _) in JOIN_CHECKS.items()}
    refs["object"] = side("members") if form == "dataset" else members["node"]
    viol = validate_parts([(ray.data.from_arrow(_slices(probe, blocks)),
                            spec, refs)])
    got = Counter((r["message"], r["subject"], r["focus_node"], r["value"])
                  for r in viol.take_all())
    assert got == _join_oracle(probe, tables)
    # every check flags something but the empty member side; isolation
    # against an empty graph flags every focus group, the null one too
    flagged = Counter(m for m, *_ in got.elements())
    assert set(flagged) == {"iso-full", "iso-empty", "cyc-full", "max",
                            "ref"}
    assert flagged["iso-empty"] == len(pc.unique(probe["subject"]))
    assert ("iso-full", None) in {(m, s) for m, s, _, _ in got}


@pytest.mark.parametrize("check", [
    NodeIsolation(outgoing=["p"], name="iso", group_by=["subject"]),
    TransitiveCycle(path="p", name="cyc", group_by=["subject"])])
def test_join_check_without_referenced_side_raises_key_error(check):
    """A NodeIsolation or TransitiveCycle check whose referenced side is
    not in ``refs`` raises ``KeyError`` naming the check, as a
    referential check without one does, on ``validate`` too."""
    ds = ray.data.from_arrow(pa.table({"subject": ["a", "b"],
                                       "predicate": ["p", "q"],
                                       "object": ["b", "a"]}))
    eng = ValidationEngine(ValidationSpec(
        constraints=[check], id_columns=["subject"],
        focus_template="{subject}"))
    for refs in (None, {"other": ds}):
        with pytest.raises(KeyError, match=check.name):
            eng.validate(ds, ref_datasets=refs)


def _two_key_rows(n=2400, seed=12):
    """Code-table-like rows: ``(repo, path, commit)`` duplicates, and a
    ``lang`` with rare values and nulls."""
    rng = np.random.default_rng(seed)
    langs = ["py", "go", "rs", "c", "zig", None]
    w = np.array([30, 30, 20, 17, 1, 2]) / 100
    return pa.table({
        "row_id": pa.array(np.arange(n), pa.int64()),
        "repo": pa.array([f"r{i}" for i in rng.integers(0, 6, n)]),
        "path": pa.array([f"p{i}" for i in rng.integers(0, 40, n)]),
        "commit": pa.array([f"c{i}" for i in rng.integers(0, 8, n)]),
        "lang": pa.array([langs[i] for i in rng.choice(len(langs), n, p=w)],
                         pa.string()),
    })


@pytest.mark.parametrize("k", [1, 2, 3, 8])
@pytest.mark.parametrize("blocks", [1, 40])
def test_cardinality_checks_share_one_exchange(blocks, k, monkeypatch):
    """Two cardinality checks on different keys (one with null keys), two
    GroupedSparql checks (a predicate and an ``fn``, both with a null
    key group) and a row-local check run as one scan and ONE exchange:
    ``validate`` starts one Ray Data execution, holds no ``Sort``
    operator and returns the exchange's k blocks.  Each grouped check's
    output equals its DuckDB ``GROUP BY`` or Counter oracle and the
    row-local violations equal the in-process kernel's."""
    from test_validate import _counting_executions
    from xpshacl_ray.pipelines.validate import ValidationEngine
    from xpshacl_ray.spec import InSet
    from xpshacl_ray.stages.evaluate import evaluate_row_local

    t = _two_key_rows()
    step = t.num_rows // blocks
    ds = ray.data.from_arrow([t.slice(i * step, step)
                              for i in range(blocks)])
    max_c = MaxCount(column="path", group_by=["repo", "path", "commit"],
                     max_count=1)
    min_c = MinCount(column=None, group_by=["lang"], min_count=100)
    in_set = InSet(column="lang", allowed=["py", "go", "rs", "c"])
    few_commits = GroupedSparql(
        group_by=["lang", "repo"], columns=["commit"], name="few-commits",
        predicate=GroupPredicate(agg="distinct", agg_col="commit", op="<",
                                 value=8))

    def few_paths(g):
        return len(set(g["path"].to_pylist())) < 40

    sparse = GroupedSparql(group_by=["lang"], columns=["path", "row_id"],
                           name="few-paths", fn=few_paths)
    spec = ValidationSpec(constraints=[max_c, min_c, in_set, few_commits,
                                       sparse],
                          id_columns=["row_id", "repo", "path", "commit",
                                      "lang"],
                          focus_template="file://{repo}/{path}@{commit}")
    monkeypatch.setattr(grouped, "_exchange_partitions", lambda: k)
    starts = _counting_executions(monkeypatch)
    viol = ValidationEngine(spec).validate(ds)
    assert len(starts) == 1
    assert not re.findall(r"Operator \d+ Sort\b", viol.stats())
    assert viol.num_blocks() == k
    got = _sorted_table(viol)
    messages = {id(cc.constraint): cc.message
                for cc in compile_spec(spec).all_compiled()}

    def rows_of(c):
        return got.filter(pc.and_(
            pc.equal(got["constraint_id"], c.constraint_id),
            pc.equal(got["message"], messages[id(c)])))

    dups = duckdb.sql("SELECT repo, path, commit, count(*) AS n FROM t "
                      "GROUP BY repo, path, commit HAVING count(*) > 1").arrow()
    m = rows_of(max_c)
    assert dups.num_rows > 0
    assert Counter(zip(m["repo"].to_pylist(), m["path"].to_pylist(),
                       m["commit"].to_pylist(),
                       map(int, m["value"].to_pylist()))) == Counter(
        zip(*(dups[c].to_pylist() for c in ("repo", "path", "commit", "n"))))
    rare = duckdb.sql("SELECT lang, count(*) AS n FROM t "
                      "GROUP BY lang HAVING count(*) < 100").arrow()
    m = rows_of(min_c)
    assert None in rare["lang"].to_pylist()
    assert Counter(zip(m["lang"].to_pylist(),
                       map(int, m["value"].to_pylist()))) == Counter(
        zip(rare["lang"].to_pylist(), rare["n"].to_pylist()))
    for lang, focus in zip(m["lang"].to_pylist(),
                           m["focus_node"].to_pylist()):
        assert focus == (None if lang is None else f"group:{lang}")
    thin = duckdb.sql("SELECT lang, repo, count(*) AS n FROM t "
                      "GROUP BY lang, repo "
                      "HAVING count(DISTINCT commit) < 8").arrow()
    m = rows_of(few_commits)
    assert None in thin["lang"].to_pylist()
    assert Counter(zip(m["lang"].to_pylist(), m["repo"].to_pylist(),
                       map(int, m["value"].to_pylist()))) == Counter(
        zip(*(thin[c].to_pylist() for c in ("lang", "repo", "n"))))
    paths, sizes = {}, Counter(t["lang"].to_pylist())
    for lang, path in zip(t["lang"].to_pylist(), t["path"].to_pylist()):
        paths.setdefault(lang, set()).add(path)
    want = Counter((lang, n) for lang, n in sizes.items()
                   if len(paths[lang]) < 40)
    m = rows_of(sparse)
    assert (None, sizes[None]) in want
    assert Counter(zip(m["lang"].to_pylist(),
                       map(int, m["value"].to_pylist()))) == want
    compiled = compile_spec(ValidationSpec(
        constraints=[in_set], id_columns=spec.id_columns,
        focus_template=spec.focus_template))
    want = evaluate_row_local(t, compiled)
    assert want.num_rows > 0
    order = [(c, "ascending") for c in want.column_names]
    assert rows_of(in_set).sort_by(order).equals(want.sort_by(order))


def _multi_part_inputs(blocks):
    """Three parts of one validate with different input schemas and one
    id column: a MaxCount plus a GroupedSparql check over ONE key value
    (so its rows fill one ``__h__`` range), a MaxCount on another column
    with a null key (both MaxCounts are check 0 of their part), and a
    row-local check alone."""
    from xpshacl_ray.spec import InSet

    a = pa.table({"id": [f"a{i}" for i in range(6)],
                  "k": pa.array([7] * 6, pa.int64()),
                  "v": ["x", "y", "y", "x", "z", "y"]})
    b = pa.table({"id": [f"b{i}" for i in range(60)],
                  "g": [None if i % 7 == 0 else f"g{i % 11}"
                        for i in range(60)],
                  "w": pa.array([i % 5 for i in range(60)], pa.int64())})
    c = pa.table({"id": [f"c{i}" for i in range(30)],
                  "s": [("ok", "bad", None)[i % 3] for i in range(30)]})

    def spec(*constraints):
        return ValidationSpec(constraints=list(constraints), id_columns=["id"],
                              focus_template="{id}")

    specs = [
        spec(MaxCount(column="v", group_by=["k"], max_count=1),
             GroupedSparql(group_by=["k"], columns=["v"], name="two-values",
                           predicate=GroupPredicate(
                               agg="distinct", agg_col="v", op=">=",
                               value=2))),
        spec(MaxCount(column="w", group_by=["g"], max_count=4)),
        spec(InSet(column="s", allowed=["ok"])),
    ]

    def split(t):
        step = -(-t.num_rows // blocks)
        return [t.slice(i * step, step) for i in range(blocks)]

    return [(split(t), compile_spec(s)) for t, s in zip((a, b, c), specs)]


def _row_counter(ds):
    return Counter(tuple(sorted(r.items()))
                   for b in ds.iter_batches(batch_format="pyarrow",
                                            batch_size=None)
                   for r in b.to_pylist())


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("blocks", [1, 3])
def test_multi_part_scan_equals_the_union_of_its_parts(blocks, k,
                                                       monkeypatch):
    """Parts with different inputs in one scan and one exchange give
    the multiset union of their one-part ``validate`` calls.  At k = 3
    the first part's rows fill one ``__h__`` range, so the other ranges
    reduce only the other parts' rows under every part's checks."""
    from test_validate import _counting_executions
    from xpshacl_ray.pipelines.validate import validate_parts

    monkeypatch.setattr(grouped, "_exchange_partitions", lambda: k)
    inputs = _multi_part_inputs(blocks)
    alone = Counter()
    for tables, spec in inputs:
        alone += _row_counter(validate_parts(
            [(ray.data.from_arrow(tables), spec, None)]))
    assert {dict(r)["constraint_id"].rsplit("#", 1)[-1] for r in alone} == {
        "MaxCountConstraintComponent", "InConstraintComponent",
        "SPARQLConstraintComponent"}
    # the null key group of the second part renders a null focus
    assert any(dict(r)["focus_node"] is None for r in alone)

    starts = _counting_executions(monkeypatch)
    together = validate_parts([(ray.data.from_arrow(tables), spec, None)
                               for tables, spec in inputs])
    assert len(starts) == 1
    monkeypatch.undo()
    assert together.num_blocks() == k
    assert _row_counter(together) == alone

    # the ranges each part's scan rows route to
    pad = grouped._scan_schema([(ray.data.from_arrow(tables), spec)
                                for tables, spec in inputs])
    cuts = np.asarray(grouped._exchange_boundaries(k), np.int64)
    ranges, first_tag = [], 0
    for tables, spec in inputs:
        h = np.concatenate([grouped._scan_batch(
            t, spec, first_tag, pad)["__h__"].to_numpy() for t in tables])
        ranges.append(set(np.searchsorted(cuts, h, side="right")))
        first_tag += len(spec.grouped)
    assert len(ranges[0]) == 1
    if k > 1:
        assert ranges[1] - ranges[0]


def test_multi_part_scan_needs_one_set_of_id_columns():
    from xpshacl_ray.pipelines.validate import validate_parts

    (tables, spec), *_ = _multi_part_inputs(1)
    other = compile_spec(ValidationSpec(
        constraints=[MaxCount(column="v", group_by=["k"], max_count=1)],
        id_columns=["v"], focus_template="{v}"))
    with pytest.raises(ValueError, match="id_columns"):
        validate_parts([(ray.data.from_arrow(tables), spec, None),
                        (ray.data.from_arrow(tables), other, None)])
