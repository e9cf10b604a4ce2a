"""Per-partition lineage manifests + checkpoint/resume (SURVEY.md §4).

The reference's resume surfaces are ``--input_report`` (re-enter after
validation, ``src/main.py:75-114``) and the KG cache (skip LLM work across
runs, ``src/main.py:179-186``).  At 100 TB the same "reuse prior results"
semantics must be *per-partition*: every stage writes
``manifests/<stage>/<partition_id>.json`` recording input files, row
counts, violation counts, output sha and wall time; a restarted run skips
partitions whose manifests exist and whose outputs still verify.

Writes are atomic (tmp file + ``os.replace``; output dirs are written to a
tmp dir then renamed) so a kill mid-write never leaves a manifest that
claims unfinished work.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import pyarrow as pa
import pyarrow.parquet as pq

import ray
from ray.data.dataset import MaterializedDataset

from ..model import VIOLATION_SCHEMA


@dataclass
class PartitionManifest:
    partition_id: str
    stage: str
    input_files: List[str]
    rows_in: int
    rows_out: int
    violation_rows: int
    output_path: str
    output_sha: str
    wall_time_s: float
    completed_at: float
    metrics: Dict[str, float] = field(default_factory=dict)


def _dir_sha(path: str) -> str:
    """Cheap content fingerprint of an output dir: sorted (name, size)."""
    h = hashlib.sha256()
    if os.path.isdir(path):
        for root, _, names in sorted(os.walk(path)):
            for n in sorted(names):
                p = os.path.join(root, n)
                h.update(n.encode())
                h.update(str(os.path.getsize(p)).encode())
    return h.hexdigest()


def empty_table(ds: "ray.data.Dataset") -> pa.Table:
    """A zero-row table with the schema of ``ds``, or with the violation
    schema when Ray has lost it (as it may for a fully-empty Dataset)."""
    sch = ds.schema(fetch_if_missing=True)
    if sch is None or not sch.names:
        return VIOLATION_SCHEMA.empty_table()
    return pa.schema(list(zip(sch.names, sch.types))).empty_table()


@ray.remote
def _write_block(block, path: str, fn, arg) -> int:
    if not (block.num_rows and block.num_columns):
        return 0
    if fn is not None:
        block = fn(block, arg)
    pq.write_table(block, path)
    return block.num_rows


def write_blocks(ds: "ray.data.Dataset", dir_path: str,
                 fn: Optional[Callable] = None, arg=None) -> int:
    """Write ``ds`` as Parquet into ``dir_path`` with one plain Ray task
    per materialized block, and return the number of rows written.

    Each task applies ``fn(block, arg)`` when ``fn`` is given and writes
    one file ``<uuid>_<i:06d>.parquet``.  The uuid is fresh per call, so
    a second write into the same directory adds its files, as
    ``write_parquet`` does.  Blocks without rows or columns (an
    exchange's empty ranges) are skipped before ``fn`` runs.  When no
    row is written, one zero-row file of ``fn(empty_table(ds))`` keeps
    the directory readable and schema-stable.

    A lazy ``ds`` is materialized first; a materialized one starts no Ray
    Data execution.  ``dir_path`` is resolved here, on the driver, because
    a worker's working directory is not the driver's."""
    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    dir_path = os.path.abspath(dir_path)
    os.makedirs(dir_path, exist_ok=True)
    prefix = os.path.join(dir_path, uuid.uuid4().hex)
    arg_ref = ray.put(arg)
    rows = sum(ray.get([
        _write_block.remote(ref, f"{prefix}_{i:06d}.parquet", fn, arg_ref)
        for i, ref in enumerate(ds.to_arrow_refs())]))
    if not rows:
        empty = empty_table(ds)
        pq.write_table(empty if fn is None else fn(empty, arg),
                       prefix + "_000000.parquet")
    return rows


class ManifestStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, stage: str, pid: str) -> str:
        return os.path.join(self.root, stage, f"{pid}.json")

    def write(self, m: PartitionManifest) -> str:
        path = self._path(m.stage, m.partition_id)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(asdict(m), f, indent=1, sort_keys=True)
        os.replace(tmp, path)  # atomic
        return path

    def load(self, stage: str, pid: str) -> Optional[PartitionManifest]:
        path = self._path(stage, pid)
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return PartitionManifest(**json.load(f))

    def is_complete(self, stage: str, pid: str, verify_output: bool = True) -> bool:
        m = self.load(stage, pid)
        if m is None:
            return False
        if verify_output:
            if not os.path.exists(m.output_path):
                return False
            if _dir_sha(m.output_path) != m.output_sha:
                return False
        return True

    def completed(self, stage: str) -> List[str]:
        d = os.path.join(self.root, stage)
        if not os.path.isdir(d):
            return []
        return sorted(
            n[:-5] for n in os.listdir(d) if n.endswith(".json")
        )


def partition_input_files(
    files: Sequence[str],
    files_per_partition: int = 1,
    fingerprint: str = "path",
) -> Dict[str, List[str]]:
    """Deterministic partition ids from sorted input file groups.

    ``fingerprint="path"`` content-addresses a partition by its file PATH
    list only (resume semantics: same paths = same work).
    ``fingerprint="stat"`` folds each file's size + mtime_ns into the id —
    DELTA semantics: an in-place rewritten shard gets a NEW partition id,
    so its stale output is pruned and only it recomputes."""
    files = sorted(files)
    out: Dict[str, List[str]] = {}
    for i in range(0, len(files), files_per_partition):
        group = files[i : i + files_per_partition]
        if fingerprint == "stat":
            parts = []
            for f in group:
                st = os.stat(f)
                parts.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
            key_src = "|".join(parts)
        else:
            key_src = "|".join(group)
        key = hashlib.md5(key_src.encode()).hexdigest()[:12]
        out[f"p{i // files_per_partition:05d}_{key}"] = group
    return out


def prune_stale_partitions(
    out_dir: str, stage: str, live_partition_ids: Sequence[str]
) -> List[str]:
    """Delete outputs + manifests of partitions no longer in the input set.

    Delta semantics: partition ids are content-addressed by their input
    file list, so a changed/removed shard simply stops appearing in the
    live set — its stale output must not leak into downstream reads of
    ``data/<stage>/*``.
    """
    store = ManifestStore(os.path.join(out_dir, "manifests"))
    live = set(live_partition_ids)
    pruned = []
    for pid in store.completed(stage):
        if pid in live:
            continue
        m = store.load(stage, pid)
        if m is not None and os.path.isdir(m.output_path):
            shutil.rmtree(m.output_path, ignore_errors=True)
        os.remove(store._path(stage, pid))
        pruned.append(pid)
    return pruned


def run_resumable(
    input_files: Sequence[str],
    out_dir: str,
    process: Callable[[List[str]], "ray.data.Dataset"],
    stage: str = "violations",
    files_per_partition: int = 1,
    max_partitions: Optional[int] = None,
    prune_stale: bool = True,
    fingerprint: str = "path",
) -> Dict[str, object]:
    """Shard → process each shard → partitioned Parquet + manifest.

    A killed run resumes by skipping every partition whose manifest exists
    and whose output dir still matches its recorded sha.  Output layout is
    one directory per partition (never one giant file), so downstream reads
    can consume ``<out_dir>/data/<stage>/*``.

    NOTE (documented partitioning assumption): grouped constraints inside
    ``process`` see one shard at a time — shard boundaries must align with
    group keys (e.g. input Parquet partitioned by repo bucket), the same
    assumption any partitioned validation holds at 10^12-file scale.
    """
    store = ManifestStore(os.path.join(out_dir, "manifests"))
    parts = partition_input_files(input_files, files_per_partition,
                                  fingerprint=fingerprint)
    pruned = (
        prune_stale_partitions(out_dir, stage, list(parts))
        if prune_stale and max_partitions is None
        else []
    )
    ran, skipped = [], []
    for n, (pid, files) in enumerate(parts.items()):
        if max_partitions is not None and n >= max_partitions:
            break
        if store.is_complete(stage, pid):
            skipped.append(pid)
            continue
        t0 = time.perf_counter()
        ds = process(list(files))
        final_dir = os.path.join(out_dir, "data", stage, pid)
        tmp_dir = final_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(final_dir, ignore_errors=True)
        rows_out = write_blocks(ds, tmp_dir)
        os.replace(tmp_dir, final_dir)
        wall = time.perf_counter() - t0
        store.write(
            PartitionManifest(
                partition_id=pid,
                stage=stage,
                input_files=list(files),
                rows_in=-1,
                rows_out=rows_out,
                violation_rows=rows_out if stage == "violations" else -1,
                output_path=final_dir,
                output_sha=_dir_sha(final_dir),
                wall_time_s=wall,
                completed_at=time.time(),
            )
        )
        ran.append(pid)
    return {"ran": ran, "skipped": skipped, "pruned": pruned,
            "data_dir": os.path.join(out_dir, "data", stage)}
