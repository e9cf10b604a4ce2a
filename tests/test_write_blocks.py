"""``state.manifest.write_blocks``: one plain Ray task per materialized
block writes what ``Dataset.write_parquet`` writes, skips empty and
column-less blocks, keeps an all-empty write readable, resolves a
relative directory on the driver and appends."""

import os
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from xpshacl_ray.pipelines.validate import join_explanations
from xpshacl_ray.state.manifest import write_blocks

ROWS = pa.table({
    "signature_key": ["s1", "s2", None, "s1", "s3"] * 24,
    "focus_node": [f"row:{i}" for i in range(120)],
    "value": pa.array([i if i % 7 else None for i in range(120)],
                      pa.int64()),
})
PER_LANG = [(lang, pa.table({"signature_key": ["s1", "s2"],
                             "explanation": [f"[{lang}] one",
                                             f"[{lang}] two"],
                             "suggestions": ["fix one", None]}))
            for lang in ("en", "de")]


def _blocks(n):
    step = ROWS.num_rows // n
    return [ROWS.slice(i * step, step if i < n - 1 else None)
            for i in range(n)]


def _rows(t: pa.Table) -> Counter:
    return Counter(tuple(sorted(r.items())) for r in t.to_pylist())


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize("n_blocks", [1, 3, 40])
def test_write_blocks_writes_what_write_parquet_writes(tmp_path, n_blocks,
                                                       joined):
    ds = ray.data.from_arrow(_blocks(n_blocks))
    assert ds.num_blocks() == n_blocks
    fn, arg = (join_explanations, PER_LANG) if joined else (None, None)
    ours, theirs = str(tmp_path / "ours"), str(tmp_path / "theirs")
    assert write_blocks(ds, ours, fn, arg) == ROWS.num_rows
    if joined:
        ds = ds.map_batches(lambda b: join_explanations(b, PER_LANG),
                            batch_format="pyarrow")
    ds.write_parquet(theirs)
    got, want = pq.read_table(ours), pq.read_table(theirs)
    assert got.schema == want.schema
    assert _rows(got) == _rows(want)
    assert len(os.listdir(ours)) == n_blocks


def test_write_blocks_skips_empty_and_columnless_blocks(tmp_path):
    full = _blocks(2)
    ds = ray.data.from_arrow([full[0], pa.table({}), ROWS.slice(0, 0),
                              full[1]])
    out = str(tmp_path / "out")
    # join_explanations would raise on the column-less block
    assert write_blocks(ds, out, join_explanations, PER_LANG) == 120
    assert len(os.listdir(out)) == 2
    got = pq.read_table(out)
    assert _rows(got) == _rows(join_explanations(ROWS, PER_LANG))


def test_write_blocks_all_empty_writes_one_zero_row_file(tmp_path):
    ds = ray.data.from_arrow([ROWS.slice(0, 0), pa.table({})])
    out = str(tmp_path / "out")
    assert write_blocks(ds, out, join_explanations, PER_LANG) == 0
    assert len(os.listdir(out)) == 1
    got = pq.read_table(out)
    assert got.num_rows == 0
    assert got.schema == join_explanations(ROWS.slice(0, 0),
                                           PER_LANG).schema


def test_write_blocks_resolves_a_relative_dir_on_the_driver(tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert write_blocks(ray.data.from_arrow(_blocks(3)), "rel/out") == 120
    assert pq.read_table(str(tmp_path / "rel" / "out")).num_rows == 120


def test_write_blocks_appends(tmp_path):
    out = str(tmp_path / "out")
    ds = ray.data.from_arrow(_blocks(3))
    write_blocks(ds, out)
    first = set(os.listdir(out))
    write_blocks(ds, out)
    assert len(first) == 3 and first < set(os.listdir(out))
    assert len(os.listdir(out)) == 6
    assert pq.read_table(out).num_rows == 240
