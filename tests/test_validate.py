"""``ValidationEngine.validate`` and ``report`` contracts: the eager
missing-column check, how many times the input is scanned, how many Ray
Data executions one ``run`` starts, and the Arrow fan-out join of
explanations onto violations."""

import dataclasses
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from xpshacl_ray.pipelines.code_files import build_engine
from xpshacl_ray.pipelines.validate import ValidationEngine
from xpshacl_ray.sources.fixtures import generate_code_files
from xpshacl_ray.sources.ingest import add_lineage_columns, read_code_table
from xpshacl_ray.spec import (GroupedSparql, MaxCount, Required,
                              ValidationSpec)
from xpshacl_ray.stages.referential import distinct_keys


def test_validate_names_absent_column_eagerly():
    ds = ray.data.from_arrow(pa.table({"a": [1, 2], "b": ["x", "y"]}))
    ds = ds.map_batches(lambda b: b, batch_format="pyarrow")
    spec = ValidationSpec(
        constraints=[Required(column="a"),
                     MaxCount(column="nope", group_by=["b"], max_count=1)],
        id_columns=["a"], focus_template="row:{a}")
    # raised by validate() itself, before anything is materialized: the
    # same error raised inside a Ray task would surface as a
    # UserCodeException, which is not a ValueError
    with pytest.raises(ValueError, match="nope"):
        ValidationEngine(spec).validate(ds)


def _make_counting_lineage(log_path, fn=add_lineage_columns):
    def lineage(batch: pa.Table) -> pa.Table:
        with open(log_path, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return fn(batch)

    return lineage


def _rows_logged(log_path) -> int:
    if not os.path.exists(log_path):
        return 0
    with open(log_path) as f:
        return sum(int(line) for line in f)


def _settled_rows(log_path, quiet_s=1.0, limit_s=20.0) -> int:
    """Rows logged once no task has appended for ``quiet_s``: a streaming
    read may still finish a task after the call that started it
    returns."""
    n, t_end = _rows_logged(log_path), time.monotonic() + limit_s
    while time.monotonic() < t_end:
        time.sleep(quiet_s)
        m = _rows_logged(log_path)
        if m == n:
            break
        n = m
    return n


def test_validate_scans_input_once(tmp_path):
    """``validate`` is eager and reads its input exactly once: row-local,
    referential and grouped checks leave one ``map_batches`` over it,
    there is no schema probe, and the later ``materialize`` is free."""
    fx = generate_code_files(1200, seed=1)
    src = str(tmp_path / "code_files.parquet")
    pq.write_table(fx.table, src, row_group_size=300)
    log_path = str(tmp_path / "lineage.log")
    ds = ray.data.read_parquet(src).map_batches(
        _make_counting_lineage(log_path), batch_format="pyarrow")
    keys = distinct_keys(ray.data.from_arrow(fx.commits), "commit")
    engine = build_engine(kg_path=str(tmp_path / "kg.parquet"))

    viol = engine.validate(ds, ref_keys={"commit": keys})
    assert viol.materialize().count() > 0
    assert _settled_rows(log_path) == fx.table.num_rows


def _counting_executions(monkeypatch) -> list:
    """A list that gains one item per Ray Data execution started."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    starts = []
    execute = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        starts.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return starts


def test_validate_with_grouped_sparql_reads_input_once(tmp_path,
                                                       monkeypatch):
    """A GroupedSparql check rides the same scan and exchange as the
    row-local checks: ``validate`` starts one Ray Data execution and its
    input's lineage sees each row once."""
    t = pa.table({"user_id": [i % 70 for i in range(700)],
                  "seq": [i // 70 for i in range(700)],
                  "ts": [(i * 7919) % 1000 for i in range(700)]})
    log_path = str(tmp_path / "lineage.log")
    ds = ray.data.from_arrow([t.slice(i * 100, 100) for i in range(7)])
    ds = ds.map_batches(_make_counting_lineage(log_path, fn=lambda b: b),
                        batch_format="pyarrow")

    def decreasing(g):
        ts = g.sort_by("seq")["ts"].to_pylist()
        return any(b < a for a, b in zip(ts, ts[1:]))

    spec = ValidationSpec(
        constraints=[Required(column="ts"),
                     GroupedSparql(group_by=["user_id"],
                                   columns=["seq", "ts"], name="ts-up",
                                   fn=decreasing)],
        id_columns=["user_id"], focus_template="user:{user_id}")
    starts = _counting_executions(monkeypatch)
    viol = ValidationEngine(spec).validate(ds)
    assert len(starts) == 1
    monkeypatch.undo()
    assert viol.count() > 0
    assert _settled_rows(log_path) == t.num_rows


def _exploding_spec():
    @dataclasses.dataclass
    class Exploding(Required):
        def mask(self, batch):
            raise RuntimeError("mask exploded")

    return ValidationSpec(
        constraints=[Exploding(column="a"),
                     MaxCount(column="a", group_by=["b"], max_count=1)],
        id_columns=["a"], focus_template="row:{a}")


@pytest.mark.parametrize("schema_known", [True, False])
def test_validate_reraises_a_kernel_failure_unchanged(schema_known):
    """A failing check whose columns all exist is not reported as an
    absent column: its own error surfaces, whether or not the input knew
    its schema before executing."""
    ds = ray.data.from_arrow(pa.table({"a": [1, 2], "b": ["x", "x"]}))
    if not schema_known:
        ds = ds.map_batches(lambda b: b, batch_format="pyarrow")
    assert (ds.schema(fetch_if_missing=False) is not None) == schema_known
    with pytest.raises(Exception) as err:
        ValidationEngine(_exploding_spec()).validate(ds)
    assert not isinstance(err.value, ValueError)
    assert "mask exploded" in str(err.value)
    assert "absent" not in str(err.value)


def test_run_starts_two_executions(tmp_path, monkeypatch):
    """One ``run``: the referenced keys and validate.  ``validate`` probes
    no schema, and signature dedup and the report write run as plain
    tasks over the materialized violation blocks and start none."""
    fx = generate_code_files(1200, seed=1)
    src, commits = str(tmp_path / "code.parquet"), str(tmp_path / "c.parquet")
    pq.write_table(fx.table, src, row_group_size=300)
    pq.write_table(fx.commits, commits)
    engine = build_engine(kg_path=str(tmp_path / "kg.parquet"))
    starts = _counting_executions(monkeypatch)
    out = str(tmp_path / "report")
    res = engine.run(read_code_table(src),
                     ref_datasets={"commit": ray.data.read_parquet(commits)},
                     out_dir=out)
    assert len(starts) == 2
    monkeypatch.undo()
    n = res["violations"].count()
    assert n > 0
    assert pq.read_table(out).num_rows == n


def _dict_join(violations: pa.Table, explanations: pa.Table, languages):
    """The per-row dict lookup the Arrow join replaced."""
    m = {(r["signature_key"], r["language"]): r
         for r in explanations.to_pylist()}
    keys = violations["signature_key"].to_pylist()
    for lang in languages:
        for col in ("explanation", "suggestions"):
            violations = violations.append_column(
                f"{col}_{lang}",
                pa.array([(m.get((k, lang)) or {}).get(col) for k in keys],
                         pa.string()))
    return violations


def test_report_join_equals_dict_join():
    violations = pa.table({
        "focus_node": ["f1", "f2", "f3", "f4", "f5"],
        "signature_key": ["s1", "s2", "s1", "s_none", None],
    })
    explanations = pa.table({
        "signature_key": ["s1", "s1", "s2"],
        "language": ["en", "de", "en"],
        "explanation": ["s1 en", "s1 de", None],
        "suggestions": ["fix en", "fix de", "fix s2"],
        "cache_hit": ["true", "false", "false"],
    })
    languages = ["en", "de"]
    engine = ValidationEngine(
        ValidationSpec(constraints=[Required(column="focus_node")]),
        languages=languages)
    ds = ray.data.from_arrow([violations.slice(0, 2), violations.slice(2)])
    got = pa.concat_tables(engine.report(ds, explanations).iter_batches(
        batch_format="pyarrow", batch_size=None))
    want = _dict_join(violations, explanations, languages)
    assert got.schema == want.schema
    assert got.column_names[2:] == ["explanation_en", "suggestions_en",
                                    "explanation_de", "suggestions_de"]
    assert got.sort_by("focus_node").equals(want)
    # s2 has no German row and s_none no row at all: nulls, not errors
    de = dict(zip(got["focus_node"].to_pylist(),
                  got["suggestions_de"].to_pylist()))
    assert de["f2"] is None and de["f4"] is None and de["f5"] is None
