"""validate_delta: only changed shards recompute; unchanged skip; stale
outputs of rewritten shards are pruned."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from xpshacl_ray import MinInclusive, ValidationEngine, ValidationSpec


def _write_shard(path, ids, vals):
    pq.write_table(pa.table({"id": pa.array(ids, pa.int64()),
                             "x": pa.array(vals, pa.int64())}), path)


def _engine():
    return ValidationEngine(ValidationSpec(
        constraints=[MinInclusive(column="x", bound=0)],
        id_columns=["id"], focus_template="row:{id}"))


def test_validate_delta_recomputes_only_changed(tmp_path):
    shards = []
    for i in range(3):
        p = str(tmp_path / f"shard{i}.parquet")
        _write_shard(p, [i * 10, i * 10 + 1], [5, -1])  # one violation each
        shards.append(p)
    out = str(tmp_path / "out")

    r1 = _engine().validate_delta(shards, out)
    assert len(r1["ran"]) == 3 and not r1["skipped"] and not r1["pruned"]
    v1 = ray.data.read_parquet(r1["data_dir"]).to_pandas()
    assert sorted(v1["id"]) == [1, 11, 21]

    # rerun untouched: everything skips
    r2 = _engine().validate_delta(shards, out)
    assert not r2["ran"] and len(r2["skipped"]) == 3 and not r2["pruned"]

    # rewrite shard1 in place (new content + mtime): only IT recomputes,
    # its stale partition output is pruned
    os.utime(shards[0])  # touch without content change → still skips? no:
    # mtime_ns changed → new id; document the stat-fingerprint semantics
    _write_shard(shards[1], [10, 11, 12], [-7, 3, -9])
    r3 = _engine().validate_delta(shards, out)
    assert len(r3["skipped"]) == 1  # shard2 untouched
    assert len(r3["ran"]) == 2      # shard0 (touched) + shard1 (rewritten)
    assert len(r3["pruned"]) == 2
    v3 = ray.data.read_parquet(r3["data_dir"]).to_pandas()
    assert sorted(v3["id"]) == [1, 10, 12, 21]

    # removing a shard prunes its partition from the output set
    removed = shards.pop()
    os.remove(removed)
    r4 = _engine().validate_delta(shards, out)
    assert not r4["ran"] and len(r4["skipped"]) == 2 and len(r4["pruned"]) == 1
    v4 = ray.data.read_parquet(r4["data_dir"]).to_pandas()
    assert sorted(v4["id"]) == [1, 10, 12]


def test_manifest_rows_out_equals_the_partition_files(tmp_path):
    """Each manifest's ``rows_out`` is the row count of its partition's
    Parquet files, for a fully-conforming (zero-row) shard too."""
    from xpshacl_ray.state.manifest import ManifestStore

    rows = {"shard0": ([1, 2, 3], [-1, -2, 5]), "shard1": ([4, 5], [1, 2]),
            "shard2": ([6], [-3])}
    shards = []
    for name, (ids, vals) in rows.items():
        shards.append(str(tmp_path / f"{name}.parquet"))
        _write_shard(shards[-1], ids, vals)
    out = str(tmp_path / "out")
    r = _engine().validate_delta(shards, out)
    assert len(r["ran"]) == 3
    store = ManifestStore(os.path.join(out, "manifests"))
    counts = []
    for pid in r["ran"]:
        m = store.load("violations", pid)
        counts.append(m.rows_out)
        assert m.rows_out == pq.read_table(m.output_path).num_rows
    assert sorted(counts) == [0, 1, 2]


def test_one_shard_validate_delta_starts_one_execution(tmp_path,
                                                       monkeypatch):
    """The shard's scan is the only Ray Data execution: the partition
    write runs as plain tasks over the materialized violation blocks."""
    from test_validate import _counting_executions

    shard = str(tmp_path / "shard0.parquet")
    _write_shard(shard, list(range(40)), [(-1) ** i * i for i in range(40)])
    out = str(tmp_path / "out")
    starts = _counting_executions(monkeypatch)
    r = _engine().validate_delta([shard], out)
    assert len(starts) == 1
    monkeypatch.undo()
    assert len(r["ran"]) == 1
    assert pq.read_table(r["data_dir"]).num_rows == 20


def _delta_runs(shards, out, engine):
    """ran/skipped/pruned counts and violation ids of a full run, an
    untouched rerun and a rerun after one shard is rewritten."""
    reports = [engine.validate_delta(shards, out)]
    reports.append(engine.validate_delta(shards, out))
    _write_shard(shards[1], list(range(100, 300)),
                 [(-1) ** i * i for i in range(200)])
    reports.append(engine.validate_delta(shards, out))
    return [(len(r["ran"]), len(r["skipped"]), len(r["pruned"]),
             sorted(pq.read_table(r["data_dir"])["id"].to_pylist()))
            for r in reports]


def test_validate_delta_reads_each_shard_in_one_block(tmp_path,
                                                      monkeypatch):
    """Each one-file shard read is one block, not cut after it is read,
    and ran/skipped/pruned and the violations match the same runs over
    Ray's own read plan."""
    from xpshacl_ray.pipelines import validate

    def write_shards(root):
        root.mkdir()
        paths = [str(root / f"shard{i}.parquet") for i in range(3)]
        for i, p in enumerate(paths):
            _write_shard(p, list(range(i * 50, i * 50 + 50)),
                         [(-1) ** j * j for j in range(50)])
        return paths

    engine, validate_fn, blocks = _engine(), ValidationEngine.validate, []

    def recording(self, ds, **kwargs):
        ds = ds.materialize()
        blocks.append((ds.num_blocks(), "SplitBlocks" in ds.stats()))
        return validate_fn(self, ds, **kwargs)

    monkeypatch.setattr(ValidationEngine, "validate", recording)
    sized = _delta_runs(write_shards(tmp_path / "a"),
                        str(tmp_path / "out_a"), engine)
    assert blocks == [(1, False)] * 4
    monkeypatch.setattr(validate, "read_parquet", ray.data.read_parquet)
    assert _delta_runs(write_shards(tmp_path / "b"),
                       str(tmp_path / "out_b"), engine) == sized
    assert sized[0][:3] == (3, 0, 0) and sized[1][:3] == (0, 3, 0)
    assert sized[2][:3] == (1, 2, 1)
