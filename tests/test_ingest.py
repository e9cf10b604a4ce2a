"""``sources.ingest``: the read sizing rule (fewer files than CPUs → one
block per CPU, else Ray's own plan) and the lineage columns' sha256
against ``hashlib``.  The test session's Ray cluster has 4 CPUs."""

import hashlib
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


def test_single_file_read_gives_one_block_per_cpu(tmp_path):
    fx, path = _code_file(tmp_path)
    ds = read_code_table(path)
    assert _blocks(ds) == 4
    assert ds.count() == fx.table.num_rows


def test_read_of_at_least_k_files_keeps_rays_plan(tmp_path):
    t = generate_code_files(600, seed=2).table
    files = []
    for i in range(6):
        files.append(str(tmp_path / f"part{i}.parquet"))
        pq.write_table(t.slice(i * 100, 100), files[-1])
    assert _blocks(read_parquet(files[:2])) == 4
    for paths in (files[:4], files, str(tmp_path)):
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
    are the same multiset through ``read_code_table`` (4 blocks) as
    through ``from_arrow`` of the same table in 1 and in 40 blocks."""
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
