"""GroupedSparql (C19 grouped form): the graph-pattern SPARQL escape
hatch — per-focus-group predicates evaluated on the runs of equal keys
of ``validate``'s one hash-sorted exchange (reference multi-row
sh:sparql shapes: shark_shapes.ttl:48-67, 200-245)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from xpshacl_ray.spec import GroupedSparql, MaxCount, ValidationSpec, compile_spec
from xpshacl_ray.pipelines.validate import ValidationEngine


def _events():
    # user 1: ordered ts; user 2: decreasing pair; user 3: tie then drop
    return ray.data.from_arrow(pa.table({
        "user_id": [1, 1, 1, 2, 2, 3, 3, 3],
        "seq":     [1, 2, 3, 1, 2, 1, 1, 2],
        "ts":      [10, 20, 30, 50, 40, 5, 9, 7],
    }))


def _make_monotone_fn():
    # built inside a factory: cloudpickle serializes closures by VALUE,
    # while module-level functions of a test module pickle by reference
    # and fail to import on Ray workers
    def _monotone_fn(g: pa.Table) -> bool:
        t = g.sort_by("seq")
        seq = np.asarray(t["seq"].combine_chunks().cast(pa.int64()))
        ts = np.asarray(t["ts"].combine_chunks().cast(pa.int64()))
        runmax = np.maximum.accumulate(ts)
        prev = np.searchsorted(seq, seq, side="left") - 1
        return bool(((prev >= 0) & (ts < runmax[prev.clip(0)])).any())

    return _monotone_fn


_monotone_fn = _make_monotone_fn()


def _spec():
    return ValidationSpec(
        constraints=[GroupedSparql(
            path="ts", group_by=["user_id"], columns=["seq", "ts"],
            name="ts-monotone", fn=_monotone_fn,
            message="ts must not decrease across seq")],
        id_columns=["user_id"],
        focus_template="user:{user_id}",
    )


def test_grouped_sparql_flags_only_violating_groups():
    viol = ValidationEngine(_spec()).validate(_events()).to_pandas()
    # user 2 violates (40 < 50); user 3 violates (7 < 9, strictly
    # smaller seq); user 1 conforms
    assert sorted(viol["user_id"]) == [2, 3]
    assert set(viol["focus_node"]) == {"group:2", "group:3"}
    assert (viol["violation_type"] == "other").all()
    assert (viol["property_path"] == "ts").all()
    # one row per violating group (SELECT DISTINCT $this), value =
    # group row count, actualCount in context
    r = viol.set_index("user_id")
    assert r.loc[2, "value"] == "2" and r.loc[3, "value"] == "3"
    assert '"actualCount": 3' in r.loc[3, "context"]
    assert '"name": "ts-monotone"' in r.loc[2, "context"]


def test_grouped_sparql_tie_within_same_seq_is_not_a_violation():
    # equal seq values are unordered: a "drop" inside a tie must not fire
    ds = ray.data.from_arrow(pa.table({
        "user_id": [7, 7], "seq": [1, 1], "ts": [9, 5],
    }))
    viol = ValidationEngine(_spec()).validate(ds).to_pandas()
    assert len(viol) == 0


def test_grouped_sparql_composes_with_count_constraints():
    spec = ValidationSpec(
        constraints=[
            GroupedSparql(path="ts", group_by=["user_id"],
                          columns=["seq", "ts"], name="ts-monotone",
                          fn=_monotone_fn),
            MaxCount(column="seq", group_by=["user_id"], max_count=2),
        ],
        id_columns=["user_id"],
    )
    viol = ValidationEngine(spec).validate(_events()).to_pandas()
    by_cid = viol.groupby("constraint_id").size()
    assert by_cid["http://www.w3.org/ns/shacl#SPARQLConstraintComponent"] == 2
    # users 1 and 3 have 3 rows each -> MaxCount(2) violations
    assert by_cid["http://www.w3.org/ns/shacl#MaxCountConstraintComponent"] == 2


def test_grouped_sparql_required_columns_pruning():
    compiled = compile_spec(_spec())
    assert set(compiled.required_columns()) == {"user_id", "seq", "ts"}


def test_grouped_sparql_empty_input_yields_empty_violations():
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array([], pa.int64()),
        "seq": pa.array([], pa.int64()),
        "ts": pa.array([], pa.int64()),
    }))
    viol = ValidationEngine(_spec()).validate(ds)
    assert viol.count() == 0


def test_grouped_sparql_mega_group_guard():
    spec = ValidationSpec(
        constraints=[GroupedSparql(
            path="ts", group_by=["user_id"], columns=["seq", "ts"],
            name="ts-monotone", fn=_monotone_fn, max_group_rows=2)],
        id_columns=["user_id"],
    )
    with pytest.raises(Exception, match="max_group_rows"):
        ValidationEngine(spec).validate(_events()).to_pandas()
