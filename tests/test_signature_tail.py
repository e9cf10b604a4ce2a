"""The signature tail of ``ValidationEngine.run``: per-block signature
dedup merged on the driver, then in-process enrichment and explanation.

The representative of a signature must not depend on how the violations
are split into blocks or in which order the blocks arrive, and the run
must leave no Ray worker holding a CPU once it returns.
"""

import gc
import random
import time

import pyarrow as pa
import ray
import ray.data

from xpshacl_ray import MinInclusive, ValidationEngine, ValidationSpec
from xpshacl_ray.context import ContextRetriever
from xpshacl_ray.model import VIOLATION_SCHEMA
from xpshacl_ray.pipelines.validate import (add_enrichment,
                                            first_per_signature,
                                            unique_signature_table)

SCHEMA = pa.schema([("row_id", pa.int64())] + list(VIOLATION_SCHEMA))


def violation(row_id, sig, focus, value):
    row = {f.name: None for f in VIOLATION_SCHEMA}
    row.update(row_id=row_id, focus_node=focus, value=value,
               constraint_id=f"C{sig}", signature=f"sig-{sig}",
               signature_key=f"k{sig}", message=f"row {row_id}")
    return row


ROWS = [
    violation(0, "a", "n:5", "x"),
    violation(1, "a", "n:2", "z"),
    # same signature and same focus_node: value decides
    violation(2, "a", "n:2", "y"),
    violation(3, "b", None, "v"),
    violation(4, "b", "n:9", None),
    violation(5, "b", "n:9", "w"),
    violation(6, "c", "n:1", None),
    violation(7, "c", "n:3", None),
    violation(8, "d", None, None),
    violation(9, "d", None, "q"),
]


def reference_pick(rows):
    """First row per signature_key in (signature_key, focus_node, value)
    order with nulls last, by plain sorting."""

    def key(r):
        return tuple((r[c] is None, r[c] or "")
                     for c in ("signature_key", "focus_node", "value"))

    picked = {}
    for r in sorted(rows, key=key):
        picked.setdefault(r["signature_key"], r)
    return pa.Table.from_pylist(list(picked.values()), schema=SCHEMA)


def splits(rows):
    shuffled = list(rows)
    random.Random(7).shuffle(shuffled)
    yield [shuffled]
    yield [shuffled[0:3], shuffled[3:7], shuffled[7:]]
    yield [[r] for r in shuffled]


def test_representative_is_independent_of_the_block_split():
    want = reference_pick(ROWS)
    assert want["row_id"].to_pylist() == [2, 5, 6, 9]
    for blocks in splits(ROWS):
        tables = [pa.Table.from_pylist(b, schema=SCHEMA) for b in blocks]
        # the kernel alone, merged as the driver merges the block outputs
        merged = first_per_signature(
            pa.concat_tables([first_per_signature(t) for t in tables]))
        assert merged.equals(want)
        # the same kernel mapped over Ray blocks
        got = unique_signature_table(ray.data.from_arrow(tables))
        assert got.equals(want), len(tables)


def test_unique_signatures_of_a_lazy_dataset_equal_the_materialized():
    tables = [pa.Table.from_pylist(b, schema=SCHEMA)
              for b in ([ROWS[:3], ROWS[3:7], ROWS[7:]])]
    lazy = ray.data.from_arrow(tables).map_batches(lambda b: b,
                                                   batch_format="pyarrow")
    eng = ValidationEngine(spec())

    def table(ds):
        return pa.Table.from_pylist(ds.take_all(), schema=SCHEMA)

    got = table(eng.unique_signatures(lazy))
    assert got.equals(table(eng.unique_signatures(lazy.materialize())))
    assert got.equals(reference_pick(ROWS))


def test_empty_input_keeps_the_violation_schema():
    empty = VIOLATION_SCHEMA.empty_table()
    assert first_per_signature(empty).schema == VIOLATION_SCHEMA
    sigs = unique_signature_table(ray.data.from_arrow(empty))
    assert sigs.num_rows == 0
    assert sigs.schema == VIOLATION_SCHEMA
    enriched = add_enrichment(sigs, ContextRetriever([], {}))
    assert enriched.schema.names == VIOLATION_SCHEMA.names + [
        "justification_tree", "retrieved_context"]


def spec():
    return ValidationSpec(constraints=[MinInclusive(column="x", bound=0)],
                          id_columns=["id"], focus_template="r:{id}")


def test_run_tail_matches_the_dataset_wrappers(tmp_path):
    t = pa.table({"id": pa.array(range(40), pa.int64()),
                  "x": pa.array([i - 20 for i in range(40)], pa.int64())})
    eng = ValidationEngine(spec(), kg_path=str(tmp_path / "kg.parquet"),
                           languages=["en", "de"])
    viol = eng.validate(ray.data.from_arrow(t).repartition(4)).materialize()
    sigs, expl, kg = eng.explained_signatures(viol)
    assert sigs.num_rows == 1
    assert sigs["focus_node"].to_pylist() == ["r:0"]
    wrapped = eng.explain(eng.enrich(eng.unique_signatures(viol)))
    assert (pa.Table.from_pylist(wrapped.take_all(), schema=expl.schema)
            .equals(expl))
    assert sorted(expl["language"].to_pylist()) == ["de", "en"]
    assert len(kg) == 2


def test_run_frees_every_cpu_without_garbage_collection(tmp_path):
    total = ray.cluster_resources()["CPU"]

    def idle_within(seconds):
        t_end = time.monotonic() + seconds
        while ray.available_resources().get("CPU", 0) != total:
            if time.monotonic() > t_end:
                return False
            time.sleep(0.05)
        return True

    gc.collect()
    assert idle_within(10), "Ray was busy before the run"
    t = pa.table({"id": pa.array(range(200), pa.int64()),
                  "x": pa.array([i % 7 - 3 for i in range(200)], pa.int64())})
    eng = ValidationEngine(spec(), kg_path=str(tmp_path / "kg.parquet"))
    gc.disable()
    try:
        for i in range(2):
            res = eng.run(ray.data.from_arrow(t).repartition(4),
                          out_dir=str(tmp_path / f"report{i}"))
            assert res["violations"].count() == 87
            assert idle_within(2), ray.available_resources()
    finally:
        gc.enable()


def test_signatures_result_is_in_memory():
    t = pa.table({"id": pa.array(range(30), pa.int64()),
                  "x": pa.array([-1] * 30, pa.int64())})
    res = ValidationEngine(spec()).run(
        ray.data.from_arrow(t).repartition(5), save_kg=False)
    sigs = res["signatures"]
    # counting it must not re-run dedup and enrichment
    assert type(sigs._logical_plan.dag).__name__ == "FromArrow"
    assert sigs.count() == 1
    assert sigs.schema().names[-2:] == ["justification_tree",
                                        "retrieved_context"]
