"""Seeded, disk-cached inputs and per-iteration oracles for the benchmark.

Three workloads, all over the ``code_files`` table
``(repo, path, commit, lang, content)`` validated by
``pipelines.code_files.build_engine``:

- ``code_report``: ``generate_code_files`` rows (~40% violate, 6
  signatures) through ``ValidationEngine.run``.
- ``code_wide``: few wide rows (~16 KB of content each) with ~0.5%
  injected overlong rows (1 signature) through ``ValidationEngine.run``.
- ``code_delta``: the ``code_report`` rows plus lineage columns, split
  into repo-bucketed shards, through ``ValidationEngine.validate_delta``
  while one shard is rewritten in place between calls.

Inputs are generated from the seed alone and cached under
``<cache>/<workload>-s<seed>-n<rows>/``; the engine only ever sees the
Parquet files.  Expected violation counts come from the generators'
injection sidecars, never from the engine.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import random
import shutil
import time
import zlib
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# constraint component (suffix of constraint_id) -> sidecar kinds it counts
COMPONENTS = {
    "InConstraintComponent": ("in",),
    "MaxLengthConstraintComponent": ("maxlength",),
    "MinCountConstraintComponent": ("required",),
    "PatternConstraintComponent": ("pattern",),
    "MaxCountConstraintComponent": ("duplicate",),
    # malformed commits are also absent from the commits dim
    "ClassConstraintComponent": ("referential", "pattern"),
}
RAW_COLUMNS = ["repo", "path", "commit", "lang", "content"]
DELTA_SHARDS = 16
WIDE_MAX_CONTENT_LEN = 20_000
WIDE_ROW_BYTES = (12_000, 18_000)
WIDE_DEFECT_RATE = 0.005
SHA_SAMPLE = 64


def expected_components(kinds: Dict[str, int]) -> Dict[str, int]:
    """Sidecar per-kind counts -> expected rows per constraint component."""
    out = {c: sum(kinds.get(k, 0) for k in ks) for c, ks in COMPONENTS.items()}
    return {c: n for c, n in out.items() if n}


def component_counts(table: pa.Table) -> Dict[str, int]:
    return dict(collections.Counter(
        c.rsplit("#", 1)[-1] for c in table["constraint_id"].to_pylist()))


def sha_by_key(table: pa.Table) -> Dict[tuple, str]:
    """Natural key -> hashlib sha256 of content (duplicates share content)."""
    cols = [table[c].to_pylist() for c in RAW_COLUMNS]
    return {(r, p, c): hashlib.sha256(x.encode("utf-8")).hexdigest()
            for r, p, c, _, x in zip(*cols)}


def check_sha_sample(out: pa.Table, oracle: Dict[tuple, str],
                     seed: int) -> List[str]:
    """A seeded sample of row-level violations (grouped ones carry no
    ``content_sha256``) must hold the hashlib digest of their content."""
    out = out.filter(out["content_sha256"].is_valid())
    if out.num_rows == 0:
        return []
    rng = random.Random(seed)
    n = min(SHA_SAMPLE, out.num_rows)
    idx = sorted(rng.sample(range(out.num_rows), n))
    rows = out.select(["repo", "path", "commit", "content_sha256"]).take(idx)
    errors = []
    for r in rows.to_pylist():
        want = oracle.get((r["repo"], r["path"], r["commit"]))
        if want != r["content_sha256"]:
            errors.append("content_sha256 mismatch for "
                          f"{r['repo']}/{r['path']}")
    return errors


def check_counts(got: Dict[str, int], want: Dict[str, int],
                 what: str) -> List[str]:
    if got == want:
        return []
    return [f"{what}: per-constraint counts {got} != expected {want}"]


def read_dir(path: str) -> pa.Table:
    """All Parquet files under ``path`` as one table (pyarrow, no Ray)."""
    files = sorted(os.path.join(root, n) for root, _, names in os.walk(path)
                   for n in names if n.endswith(".parquet"))
    tables = [pq.read_table(f) for f in files]
    tables = [t for t in tables if t.num_rows] or tables[:1]
    return pa.concat_tables(tables, promote_options="default")


# -- generation --------------------------------------------------------


def cached(cache_root: str, workload: str, seed: int, rows: int,
           build) -> tuple:
    """Return (dir, meta, seconds spent generating); build on a miss.

    ``build(tmp_dir) -> meta`` writes the inputs; the directory is renamed
    into place only once complete, so an interrupted run leaves no
    half-written cache entry.
    """
    d = os.path.join(cache_root, f"{workload}-s{seed}-n{rows}")
    meta_path = os.path.join(d, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            return d, json.load(f), 0.0
    t0 = time.perf_counter()
    tmp = f"{d}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    meta = build(tmp)
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(meta, f, sort_keys=True)
    shutil.rmtree(d, ignore_errors=True)
    os.replace(tmp, d)
    return d, meta, time.perf_counter() - t0


def build_report(seed: int, rows: int):
    from xpshacl_ray.sources.fixtures import generate_code_files

    def build(d: str) -> dict:
        fx = generate_code_files(rows, seed=seed)
        pq.write_table(fx.table, os.path.join(d, "code_files.parquet"))
        pq.write_table(fx.commits, os.path.join(d, "commits.parquet"))
        return {"kinds": fx.expected_by_kind(), "rows": fx.table.num_rows}
    return build


def build_wide(seed: int, rows: int):
    """~16 KB rows, ~0.5% of them overlong (the only violations)."""
    from xpshacl_ray.sources.fixtures import LANGS, WORDS

    def build(d: str) -> dict:
        rng = np.random.default_rng(seed)
        words = np.array(WORDS)
        blocks = []
        for _ in range(32):
            text = " ".join(words[rng.integers(len(WORDS), size=3_500)])
            blocks.append(text[: int(rng.integers(*WIDE_ROW_BYTES))])
        n_bad = max(1, int(round(WIDE_DEFECT_RATE * rows)))
        bad = set(rng.choice(rows, size=n_bad, replace=False).tolist())
        hexd = np.array(list("0123456789abcdef"))
        commits = ["".join(hexd[rng.integers(16, size=40)])
                   for _ in range(rows)]
        repos, paths, langs, contents = [], [], [], []
        for i in range(rows):
            lang = LANGS[int(rng.integers(len(LANGS)))]
            repos.append(f"org{i % 7}/repo{i % 53}")
            paths.append(f"src/wide/f{i}.{lang}")
            langs.append(lang)
            body = blocks[int(rng.integers(len(blocks)))] + f" #{i}"
            if i in bad:
                body = (body * 2)[:WIDE_MAX_CONTENT_LEN] + "x" * (
                    1 + int(rng.integers(500)))
            contents.append(body)
        t = pa.table({"repo": repos, "path": paths, "commit": commits,
                      "lang": langs, "content": contents})
        pq.write_table(t, os.path.join(d, "code_files.parquet"))
        pq.write_table(pa.table({"commit": sorted(set(commits))}),
                       os.path.join(d, "commits.parquet"))
        return {"kinds": {"maxlength": n_bad}, "rows": rows}
    return build


def shard_of(repo: str) -> int:
    return zlib.crc32(repo.encode()) % DELTA_SHARDS


def build_delta(seed: int, rows: int):
    """code_report rows + lineage columns in repo-bucketed shards.

    Every shard has version ``a``; the rewritten shard (the non-empty
    shard with the median row count, so neither the skewed megarepo shard
    nor a near-empty one) also gets version ``b`` = ``a`` with ~5% of its
    valid ``lang`` values replaced by an invalid one.
    """
    from xpshacl_ray.sources.fixtures import LANGS, generate_code_files
    from xpshacl_ray.sources.ingest import add_lineage_columns

    def build(d: str) -> dict:
        fx = generate_code_files(rows, seed=seed)
        table = add_lineage_columns(fx.table)
        repos = table["repo"].to_pylist()
        shard = np.array([shard_of(r) for r in repos])
        kinds = [collections.Counter() for _ in range(DELTA_SHARDS)]
        for e in fx.expected:
            kinds[shard_of(repos[e.row_index])][e.kind] += 1
        os.makedirs(os.path.join(d, "a"))
        sizes = []
        for s in range(DELTA_SHARDS):
            part = table.filter(pa.array(shard == s))
            sizes.append(part.num_rows)
            if part.num_rows:
                pq.write_table(part,
                               os.path.join(d, "a", f"shard{s:02d}.parquet"))
        live = sorted((n, s) for s, n in enumerate(sizes) if n)
        target = live[len(live) // 2][1]
        part = table.filter(pa.array(shard == target))
        langs = part["lang"].to_pylist()
        valid = [i for i, x in enumerate(langs) if x in LANGS]
        rng = np.random.default_rng(seed + 1)
        flip = rng.choice(valid, size=max(1, len(valid) // 20), replace=False)
        for i in flip:
            langs[int(i)] = "klingon"
        part = part.set_column(part.schema.get_field_index("lang"), "lang",
                               pa.array(langs, pa.string()))
        pq.write_table(part, os.path.join(d, f"shard{target:02d}.b.parquet"))
        pq.write_table(fx.commits, os.path.join(d, "commits.parquet"))
        kinds_b = collections.Counter(kinds[target])
        kinds_b["in"] += len(flip)
        return {"kinds_a": [dict(k) for k in kinds], "kinds_b": dict(kinds_b),
                "target": target, "rows": table.num_rows,
                "target_rows": part.num_rows}
    return build
