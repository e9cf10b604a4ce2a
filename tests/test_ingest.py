"""``sources.ingest``: the read sizing rule (a read of fewer files than
Ray's plan has blocks → one unsplit block per file, fused with the maps
after it; else Ray's own plan) and the lineage columns' sha256 against
``hashlib``.  The test session's Ray cluster has 4 CPUs, so Ray plans
at least 8 blocks."""

import hashlib
import re
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from xpshacl_ray.pipelines.code_files import build_engine
from xpshacl_ray.sources.fixtures import generate_code_files
from xpshacl_ray.sources.ingest import (add_lineage_columns, cluster_cpus,
                                        read_code_table, read_parquet,
                                        sha256_hex, stable_row_id)
from xpshacl_ray.stages.referential import distinct_keys


def _blocks(ds) -> int:
    return ds.materialize().num_blocks()


def _code_file(tmp_path, n=1200, seed=1):
    fx = generate_code_files(n, seed=seed)
    path = str(tmp_path / "code_files.parquet")
    pq.write_table(fx.table, path)
    return fx, path


def test_cluster_cpus_is_the_session_cpu_count():
    assert cluster_cpus() == 4


def _one_row_files(tmp_path, n):
    t = generate_code_files(n, seed=2).table
    files = []
    for i in range(n):
        files.append(str(tmp_path / f"part{i}.parquet"))
        pq.write_table(t.slice(i, 1), files[-1])
    return files


@pytest.mark.parametrize("n_files", ["1", "2", "k", "2k-1"])
def test_read_of_fewer_files_than_rays_plan_gives_one_block_per_file(
        tmp_path, n_files):
    """Ray plans at least 2 × CPUs blocks, so each of these reads would
    be cut after it is read; instead each file is one unsplit block."""
    k = cluster_cpus()
    n = {"1": 1, "2": 2, "k": k, "2k-1": 2 * k - 1}[n_files]
    ds = read_code_table(_one_row_files(tmp_path, n)).materialize()
    assert ds.num_blocks() == n
    assert "SplitBlocks" not in ds.stats()
    assert ds.count() == n


def test_read_of_many_small_files_keeps_rays_plan(tmp_path):
    files = _one_row_files(tmp_path, 40)
    for paths in (files, str(tmp_path)):
        assert (_blocks(read_parquet(paths))
                == _blocks(ray.data.read_parquet(paths)))


def test_explicit_override_num_blocks_wins(tmp_path):
    _, path = _code_file(tmp_path, n=400)
    assert _blocks(read_code_table(path, override_num_blocks=7)) == 7
    assert _blocks(read_parquet(path, override_num_blocks=1)) == 1


def _violations(engine, ds, keys) -> Counter:
    t = pa.concat_tables(ray.get(
        engine.validate(ds, ref_keys={"commit": keys}).to_arrow_refs()))
    return Counter(tuple(sorted(r.items())) for r in t.to_pylist())


def test_violations_do_not_depend_on_the_block_split(tmp_path):
    """``build_engine()``'s violations, MaxCount and Referential included,
    are the same multiset through ``read_code_table`` (1 block: one
    file) as through ``from_arrow`` of the same table in 1 and in 40
    blocks."""
    fx, path = _code_file(tmp_path)
    keys = distinct_keys(ray.data.from_arrow(fx.commits), "commit")
    engine = build_engine(kg_path=str(tmp_path / "kg.parquet"))
    want = _violations(engine, read_code_table(path), keys)
    components = Counter(dict(row)["constraint_id"].rsplit("#", 1)[-1]
                         for row in want.elements())
    assert components["MaxCountConstraintComponent"] > 0
    assert components["ClassConstraintComponent"] > 0
    table = add_lineage_columns(pq.read_table(path))
    step = -(-table.num_rows // 40)
    for parts in ([table], [table.slice(i, step)
                            for i in range(0, table.num_rows, step)]):
        assert _violations(engine, ray.data.from_arrow(parts), keys) == want


def test_validate_scan_fuses_the_read_with_scan_batch(tmp_path,
                                                      monkeypatch):
    """The validate scan over ``read_code_table`` of one file, with a
    MaxCount and a Referential check, is one fused operator: the read,
    the lineage map and ``_scan_batch`` run in one task per file, and
    nothing cuts the read's output."""
    fx, path = _code_file(tmp_path)
    keys = distinct_keys(ray.data.from_arrow(fx.commits), "commit")
    engine = build_engine(kg_path=str(tmp_path / "kg.parquet"))
    kinds = {type(cc.constraint).__name__ for cc in
             engine.compiled.grouped + engine.compiled.referential}
    assert {"MaxCount", "Referential"} <= kinds
    stats, materialize = [], ray.data.Dataset.materialize

    def recording(self):
        ds = materialize(self)
        stats.append(ds.stats())
        return ds

    monkeypatch.setattr(ray.data.Dataset, "materialize", recording)
    engine.validate(read_code_table(path), ref_keys={"commit": keys})
    monkeypatch.undo()
    ops = [op for s in stats
           for op in re.findall(r"^Operator \d+ (\S+):", s, re.M)]
    assert [op for op in ops if "ReadParquet" in op] == [
        "ReadParquet->MapBatches(add_lineage_columns)"
        "->MapBatches(_scan_batch)"]
    assert not any("SplitBlocks" in s for s in stats)


_VALUES = ["a", None, "", "héllo wörld ✓ 日本語", "x" * 5000, None, "\x00z"]


def _hashlib(values):
    return [None if v is None else hashlib.sha256(v.encode("utf-8")).hexdigest()
            for v in values]


@pytest.mark.parametrize("arr", [
    pa.array(_VALUES, pa.string()),
    pa.array(_VALUES, pa.large_string()),
    pa.array(["skip", "me"] + _VALUES, pa.string())[2:],
    pa.array(["skip"] + _VALUES, pa.large_string())[1:],
    pa.chunked_array([_VALUES[:3], [], _VALUES[3:]], pa.string()),
    pa.chunked_array([pa.array(["drop"] + _VALUES)[1:4],
                      pa.array(_VALUES[3:])]),
], ids=["string", "large_string", "sliced", "sliced_large", "chunked",
        "chunked_sliced"])
def test_sha256_hex_matches_hashlib(arr):
    got = sha256_hex(arr)
    assert got.type == pa.string()
    assert got.to_pylist() == _hashlib(_VALUES)


def test_sha256_hex_of_all_null_and_empty_arrays():
    assert sha256_hex(pa.array([None, None], pa.string())).to_pylist() == [
        None, None]
    assert sha256_hex(pa.array([], pa.string())).to_pylist() == []
    assert sha256_hex(pa.chunked_array([], pa.string())).to_pylist() == []


def test_lineage_columns_on_a_chunked_table():
    t = generate_code_files(300, seed=4).table
    t = pa.concat_tables([t.slice(0, 100), t.slice(100)])
    out = add_lineage_columns(t)
    assert out["content_sha256"].to_pylist() == _hashlib(
        t["content"].to_pylist())
    keys = ["|".join(k) for k in zip(*(t[c].to_pylist()
                                       for c in ("repo", "path", "commit")))]
    assert out["row_id"].to_pylist() == stable_row_id(keys).tolist()
