"""Sources: reading the code table and deriving lineage/invariant columns.

Reference analog S1 (``src/main.py:54-55`` parses the whole data graph on
the driver); here the input is a Parquet table of source-code files
``(repo, path, commit, lang, content)`` (BASELINE.json input_hint) read as a
streaming ``ray.data.Dataset`` with column pruning at the read.

Derived at ingest (SURVEY.md §1.3):

- ``content_sha256`` — the per-row invariant asserted against the reference
  oracle (BASELINE.json: "content sha256 equality").
- ``row_id``         — deterministic int64 lineage id derived from the
  natural key (md5 of ``repo|path|commit`` truncated to 63 bits), stable
  across runs, partitionings and resumes — no global counter needed, which
  matters because a streaming executor has no cheap global row offset.

Read sizing (:func:`read_parquet`): a read that resolves to fewer files
than the cluster has CPUs (k) is cut into exactly k blocks; any other read
keeps Ray's own plan.  Ray sizes a read as ``max(min(200, bytes / 1 MiB),
2 × CPUs)`` blocks, but one file is one read task, so Ray cuts that task's
output afterwards (``ReadParquet->SplitBlocks(N)``), and the split also
keeps the read from fusing with the map that follows it.  A 17.8 MB file
came out as 17 blocks of ~70 rows, a 179-row shard as 2 × CPUs blocks:
each block then costs one scan task, and at those sizes the tasks'
fixed costs were most of the scan's wall time.
k blocks is the same count the grouped exchange cuts its hash ranges
into, so the scan and the exchange each run k tasks.  Blocks stay bounded
by ``DataContext.target_max_block_size``: Ray's size-based split still
applies, so a single large file still streams in bounded blocks.  The rule
is set per read, not through ``DataContext`` (``read_op_min_num_blocks``
or ``target_min_block_size`` would change every Dataset in the session),
and a caller's own ``override_num_blocks`` wins.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def cluster_cpus(default: int = 1) -> int:
    """The Ray cluster's CPU count, at least 1; ``default`` when Ray is
    not initialized or reports no CPUs."""
    if not ray.is_initialized():
        return default
    return max(1, int(ray.cluster_resources().get("CPU", default)))


def read_parquet(paths, **read_kwargs) -> "ray.data.Dataset":
    """:func:`ray.data.read_parquet`, cut into one block per CPU when it
    resolves to fewer files than the cluster has CPUs (module docstring).

    The files are listed by the first read's plan without an execution;
    the re-planned read reuses that read's datasource, whose construction
    already sampled the files (a Ray task per read)."""
    ds = ray.data.read_parquet(paths, **read_kwargs)
    k = cluster_cpus()
    if "override_num_blocks" in read_kwargs or len(ds.input_files()) >= k:
        return ds
    read = ds._logical_plan.dag
    return ray.data.read_datasource(
        read._datasource, override_num_blocks=k,
        ray_remote_args=read._ray_remote_args, concurrency=read._concurrency)


def sha256_hex(values) -> pa.Array:
    """sha256 hexdigest of each value's UTF-8 bytes, null for null.

    Hashes each value straight from the string array's offsets and data
    buffer through a ``memoryview``: no value is decoded to ``str`` and
    encoded again."""
    chunks = (values.chunks if isinstance(values, pa.ChunkedArray)
              else [values])
    out: List[Optional[str]] = []
    for arr in chunks:
        large = pa.types.is_large_string(arr.type)
        if not (large or pa.types.is_string(arr.type)):
            arr = arr.cast(pa.string())
        _, offsets, data = arr.buffers()
        width = np.int64 if large else np.int32
        offs = np.frombuffer(offsets, width, len(arr) + 1,
                             arr.offset * np.dtype(width).itemsize).tolist()
        view = memoryview(data if data is not None else b"")
        out += [hashlib.sha256(view[a:b]).hexdigest() if ok else None
                for a, b, ok in zip(offs, offs[1:],
                                    arr.is_valid().to_pylist())]
    return pa.array(out, pa.string())


def stable_row_id(keys: Sequence[str]) -> np.ndarray:
    """Deterministic 63-bit int64 id per natural-key string.

    Vectorized keyed siphash (fixed key) — stable across runs, resumes and
    partitionings; ~100× faster than per-row md5 at ingest rates.
    """
    from ..functions.sketches import hash64

    h = hash64(np.asarray(keys, dtype=object))
    return (h & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


def add_lineage_columns(
    batch: pa.Table,
    content_col: str = "content",
    key_cols: Sequence[str] = ("repo", "path", "commit"),
) -> pa.Table:
    """Append ``content_sha256`` and ``row_id`` to a batch."""
    sha = sha256_hex(batch[content_col])
    key_parts = []
    for c in key_cols:
        key_parts.append(pc.cast(batch[c], pa.string()))
        key_parts.append(pa.array(np.repeat("|", len(batch))))
    joined = pc.binary_join_element_wise(*key_parts[:-1], "")
    rid = pa.array(stable_row_id(joined.to_numpy(zero_copy_only=False)),
                   pa.int64())
    return batch.append_column("content_sha256", sha).append_column("row_id", rid)


def read_code_table(
    paths,
    columns: Optional[List[str]] = None,
    with_lineage: bool = True,
    content_col: str = "content",
    key_cols: Sequence[str] = ("repo", "path", "commit"),
    **read_kwargs,
) -> "ray.data.Dataset":
    """:func:`read_parquet` with column pruning + lineage columns.

    Resume path analog S2 (``src/main.py:75-114``): pass a violations
    directory to :func:`ray.data.read_parquet` directly to re-enter the
    pipeline from a persisted violations table.
    """
    ds = read_parquet(paths, columns=columns, **read_kwargs)
    if with_lineage:
        ds = ds.map_batches(
            lambda b: add_lineage_columns(b, content_col, key_cols),
            batch_format="pyarrow",
        )
    return ds
