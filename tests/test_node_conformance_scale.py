"""sh:node at Parquet scale: conforming_keys (dimension-side shape
evaluation, SHACL null policy) + the broadcast _RefMask anti-join
probe — the table-scale twin of sources/ttl._NodeChecker."""

import pyarrow as pa

import ray
import ray.data

from xpshacl_ray.spec import InSet, MaxInclusive, MinLength
from xpshacl_ray.stages.referential import _RefMask, conforming_keys


def _dim():
    return ray.data.from_arrow(pa.table({
        "key": [1, 2, 3, 4, 5, None],
        "size": [10, 50, 20, None, 30, 7],
        "kind": ["A", "A", "B", "A", None, "A"],
    }))


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
    probe = _RefMask(column="fk", keys_ref=ray.put(keys))
    fact = pa.table({"fk": [1, 2, 6, None, 3]})
    m = probe.mask(fact)
    # 2 violates (size 50 > 45); 6 violates (no such dimension key —
    # its size-7 row carries a NULL key and is dropped); NULL fk excused
    assert m.to_pylist() == [False, True, True, False, False]


def test_missing_referent_is_nonconforming(ray_session):
    # sh:node semantics at scale: an FK pointing at NO dimension row
    # cannot conform (the referenced shape's facets were never checked)
    keys = conforming_keys(_dim(), "key", [MinLength(column="kind",
                                                     min_length=1)])
    probe = _RefMask(column="fk", keys_ref=ray.put(keys))
    m = probe.mask(pa.table({"fk": [99]}))
    assert m.to_pylist() == [True]
