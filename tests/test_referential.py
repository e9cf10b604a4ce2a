"""Referential checks: the driver-side key sets of
``stages/referential.py`` (``distinct_keys`` and ``conforming_keys``
merge per-block ``pc.unique`` on the driver and must equal one
``pc.unique`` over the whole column), and the exchange plan of
``validate``, forced against a DuckDB anti-join."""

from collections import Counter

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

from xpshacl_ray.pipelines.validate import ValidationEngine, validate_parts
from xpshacl_ray.spec import Referential, ValidationSpec, compile_spec
from xpshacl_ray.stages import grouped
from xpshacl_ray.stages.evaluate import static_fields
from xpshacl_ray.stages.referential import conforming_keys, distinct_keys

BIG = 2**60 + 1  # equal to 2**60 once widened to float64

COLUMNS = {
    "int64": pa.array([BIG, 2**60, None, 7, BIG, -3, 7, None] * 50,
                      pa.int64()),
    "large_string": pa.array(["b", None, "a", "é", "b", "", "a", "z"] * 50,
                             pa.large_string()),
}


def _unique(col: pa.Array) -> pa.Array:
    vals = pc.unique(col).drop_null()
    return vals.take(pc.array_sort_indices(vals))


@pytest.mark.parametrize("blocks", [1, 40])
@pytest.mark.parametrize("kind", sorted(COLUMNS))
def test_key_sets_match_pc_unique(kind, blocks):
    col = COLUMNS[kind]
    t = pa.table({"k": col})
    step = t.num_rows // blocks
    ds = ray.data.from_arrow([t.slice(i * step, step)
                              for i in range(blocks)])
    want = _unique(col)
    assert None not in want.to_pylist()
    if kind == "int64":
        assert {BIG, 2**60} <= set(want.to_pylist())
    for got in (distinct_keys(ds, "k"), conforming_keys(ds, "k", [])):
        assert got.type == col.type
        assert got.equals(want)


@pytest.mark.parametrize("null_is_violation", [False, True])
def test_empty_referenced_side_flags_every_key(null_is_violation):
    """A referenced Dataset with no rows gives an empty key set: every
    non-null ``fk`` violates, and a null one only under
    ``null_is_violation``."""
    facts = ray.data.from_arrow(pa.table({
        "id": pa.array([1, 2, 3, 4], pa.int64()),
        "fk": pa.array(["a", None, "b", "a"], pa.string())}))
    dim = ray.data.from_arrow(pa.table({"key": pa.array(["a", "b"])}))
    dim = dim.filter(lambda r: False)
    spec = ValidationSpec(
        constraints=[Referential(column="fk", ref_table="dim",
                                 ref_column="key",
                                 null_is_violation=null_is_violation)],
        id_columns=["id"], focus_template="row:{id}")
    viol = ValidationEngine(spec).validate(facts, ref_datasets={"fk": dim})
    got = sorted(r["id"] for r in viol.take_all())
    assert got == ([1, 2, 3, 4] if null_is_violation else [1, 3, 4])


# (probe fk, referenced keys) per key kind; each side mixes nulls,
# duplicates, keys present on both sides and keys on one side only
KINDS = {
    "string": (pa.array(["a", "", None, "b", "é", "zz", "", "b"], pa.string()),
               pa.array(["a", None, "", "é", "q", "a"], pa.string())),
    "int32-int64": (pa.array([1, 2, None, -5, 0, 7, 2, 1], pa.int32()),
                    pa.array([1, BIG, None, -5, 2**31, 7], pa.int64())),
    "int64-int32": (pa.array([BIG, 1, None, 2**60, 3, 2**31 + 3, 1, BIG],
                             pa.int64()),
                    pa.array([1, None, 3, 2**31 - 1, 3, -2], pa.int32())),
}
# probe column -> (referenced side, null_is_violation)
CHECKS = {"fk_a": ("full", False), "fk_b": ("full", True),
          "fk_c": ("empty", False), "fk_d": ("empty", True)}


def _blocks(t: pa.Table, blocks: int):
    step = -(-t.num_rows // blocks)
    return [t.slice(i * step, step) for i in range(blocks)]


def _oracle(probe: pa.Table, refs: dict, spec) -> Counter:
    """The violation rows of every check by DuckDB: an anti-join with
    ``NOT IN`` over the non-null referenced keys, plus ``OR fk IS NULL``
    under ``null_is_violation``.  ``NULL NOT IN (<no rows>)`` is true in
    SQL, so the null rule is spelled out, not left to ``NOT IN``."""
    con = duckdb.connect()
    con.register("probe", probe)
    want = Counter()
    for cc in spec.referential:
        col = cc.constraint.column
        side, null_is_violation = CHECKS[col]
        con.register("ref", refs[side])
        rows = con.execute(f"""
            SELECT id, CAST({col} AS VARCHAR) FROM probe
            WHERE ({col} IS NOT NULL AND {col} NOT IN
                   (SELECT key FROM ref WHERE key IS NOT NULL))
               OR ({null_is_violation} AND {col} IS NULL)""").fetchall()
        fields = {n: a[0].as_py() for n, a in static_fields(cc, 1).items()}
        want.update(tuple(sorted({"id": i, "focus_node": f"row:{i}",
                                  "value": v, **fields}.items()))
                    for i, v in rows)
    return want


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("blocks", [1, 40])
@pytest.mark.parametrize("k", [1, 2, 3, 8])
@pytest.mark.parametrize("form", ["dataset", "array"])
def test_referential_matches_duckdb_anti_join(form, k, blocks, kind,
                                              monkeypatch):
    """Four referential checks in one validate — a full and an empty
    referenced side, null FKs excused and flagged — give DuckDB's
    anti-join rows, whatever the exchange's k, the block count, the
    key types of the two sides and the form of the referenced side."""
    monkeypatch.setattr(grouped, "_exchange_partitions", lambda: k)
    fk, keys = KINDS[kind]
    n = 200
    col = pa.concat_arrays([fk] * (n // len(fk)))
    probe = pa.table({"id": pa.array(range(len(col)), pa.int64()),
                      **{c: col for c in CHECKS}})
    full = pa.table({"key": pa.concat_arrays([keys] * 10)})
    refs = {"full": full, "empty": full.slice(0, 0)}
    spec = compile_spec(ValidationSpec(
        constraints=[Referential(column=c, ref_table="dim", ref_column="key",
                                 null_is_violation=niv)
                     for c, (_, niv) in CHECKS.items()],
        id_columns=["id"], focus_template="row:{id}"))
    if form == "dataset":
        sides = {"full": ray.data.from_arrow(_blocks(full, blocks)),
                 "empty": ray.data.from_arrow(_blocks(full, blocks)).filter(
                     lambda r: False)}
    else:
        sides = {name: t["key"] for name, t in refs.items()}
    viol = validate_parts([(ray.data.from_arrow(_blocks(probe, blocks)),
                            spec, {c: sides[side]
                                   for c, (side, _) in CHECKS.items()})])
    got = Counter(tuple(sorted(r.items())) for r in viol.take_all())
    assert got == _oracle(probe, refs, spec)
    # the empty side flags every non-null key; a null one only under
    # null_is_violation
    flagged = Counter(dict(r)["property_path"] for r in got.elements())
    valid = probe.num_rows - col.null_count
    assert flagged["fk_c"] == valid
    assert flagged["fk_d"] == probe.num_rows
