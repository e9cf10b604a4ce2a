"""Grouped cardinality (C1/C2/C11): the pre-aggregated key exchange of
``stages/grouped.py`` checked against DuckDB's ``GROUP BY ... HAVING``."""

import json
from collections import Counter

import duckdb
import pyarrow as pa
import ray.data

from xpshacl_ray.spec import MaxCount, ValidationSpec, compile_spec
from xpshacl_ray.stages.grouped import evaluate_grouped

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
