"""sh:node at Parquet scale: conforming_keys (dimension-side shape
evaluation, SHACL null policy) + a Referential check against the
conforming keys — the table-scale twin of sources/ttl._NodeChecker."""

import pyarrow as pa

import ray.data

from xpshacl_ray.pipelines.validate import ValidationEngine
from xpshacl_ray.spec import (InSet, MaxInclusive, MinLength, Referential,
                              ValidationSpec)
from xpshacl_ray.stages.referential import conforming_keys


def _dim():
    return ray.data.from_arrow(pa.table({
        "key": [1, 2, 3, 4, 5, None],
        "size": [10, 50, 20, None, 30, 7],
        "kind": ["A", "A", "B", "A", None, "A"],
    }))


def _flagged(fk: list, keys: pa.Array) -> list:
    """Per fact row, whether a Referential check on ``fk`` against
    ``keys`` flags it."""
    spec = ValidationSpec(
        constraints=[Referential(column="fk", ref_table="dim",
                                 ref_column="key")],
        id_columns=["row"], focus_template="row:{row}")
    fact = ray.data.from_arrow(pa.table({"row": list(range(len(fk))),
                                         "fk": fk}))
    viol = ValidationEngine(spec).validate(fact, ref_keys={"fk": keys})
    bad = {r["row"] for r in viol.take_all()}
    return [i in bad for i in range(len(fk))]


def test_conforming_keys_multi_facet(ray_session):
    keys = conforming_keys(_dim(), "key", [
        MaxInclusive(column="size", bound=45),
        InSet(column="kind", allowed=["A"]),
    ])
    # 1: ok; 2: size 50 > 45; 3: kind B; 4: NULL size CONFORMS (value
    # constraints excuse nulls — engine-wide policy); 5: NULL kind
    # conforms; None key dropped
    assert keys.to_pylist() == [1, 4, 5]


def test_conforming_keys_no_constraints_is_all_valid_keys(ray_session):
    keys = conforming_keys(_dim(), "key", [])
    assert keys.to_pylist() == [1, 2, 3, 4, 5]


def test_probe_flags_nonconforming_and_excuses_null_fk(ray_session):
    keys = conforming_keys(_dim(), "key", [
        MaxInclusive(column="size", bound=45)])
    assert keys.to_pylist() == [1, 3, 4, 5]
    # 2 violates (size 50 > 45); 6 violates (no such dimension key —
    # its size-7 row carries a NULL key and is dropped); NULL fk excused
    assert _flagged([1, 2, 6, None, 3], keys) == [False, True, True, False,
                                                   False]


def test_missing_referent_is_nonconforming(ray_session):
    # sh:node semantics at scale: an FK pointing at NO dimension row
    # cannot conform (the referenced shape's facets were never checked)
    keys = conforming_keys(_dim(), "key", [MinLength(column="kind",
                                                     min_length=1)])
    assert _flagged([99], keys) == [True]
