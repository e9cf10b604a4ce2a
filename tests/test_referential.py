"""The broadcast key sets of ``stages/referential.py``: ``distinct_keys``
and ``conforming_keys`` merge per-block ``pc.unique`` on the driver, and
must equal one ``pc.unique`` over the whole column."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

from xpshacl_ray.pipelines.validate import ValidationEngine
from xpshacl_ray.spec import Referential, ValidationSpec
from xpshacl_ray.stages.referential import conforming_keys, distinct_keys

BIG = 2**60 + 1  # equal to 2**60 once widened to float64

COLUMNS = {
    "int64": pa.array([BIG, 2**60, None, 7, BIG, -3, 7, None] * 50,
                      pa.int64()),
    "large_string": pa.array(["b", None, "a", "é", "b", "", "a", "z"] * 50,
                             pa.large_string()),
}


def _oracle(col: pa.Array) -> pa.Array:
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
    want = _oracle(col)
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
