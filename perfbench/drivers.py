"""One driver per workload: set-up, one timed call, and its oracle.

Each driver calls the engine only through its public entry points
(``ValidationEngine.run`` / ``ValidationEngine.validate_delta``).
``prepare(i)`` is untimed input mutation, ``iterate(i)`` is the timed call
(its output is written and readable when it returns) and ``check(out, i)``
is the untimed oracle, returning a list of mismatch messages.
"""

from __future__ import annotations

import collections
import glob
import os
import shutil
from typing import Dict, List

import pyarrow as pa
import pyarrow.parquet as pq

import workloads as wl


class RunDriver:
    """``code_report`` / ``code_wide``: the CLI ``validate`` path."""

    def __init__(self, cache_dir: str, meta: dict, work: str,
                 max_content_len=None):
        self.input = os.path.join(cache_dir, "code_files.parquet")
        self.commits = os.path.join(cache_dir, "commits.parquet")
        self.expected = wl.expected_components(meta["kinds"])
        self.rows = meta["rows"]
        self.work = work
        self.kg_path = os.path.join(work, "kg.parquet")
        self.max_content_len = max_content_len
        self.sha = wl.sha_by_key(pq.read_table(self.input))
        self.engine = None

    def build(self) -> None:
        from xpshacl_ray.pipelines.code_files import build_engine

        kw = ({} if self.max_content_len is None
              else {"max_content_len": self.max_content_len})
        self.engine = build_engine(kg_path=self.kg_path, languages=["en"],
                                   **kw)

    def full_pass(self) -> None:
        """Nothing beyond the warm-up: it already fills the KG cache."""

    def prepare(self, i: int) -> None:
        pass

    def iterate(self, i: int) -> str:
        import ray.data

        from xpshacl_ray.sources.ingest import read_code_table

        out = os.path.join(self.work, f"report{i}")
        self.engine.run(
            read_code_table(self.input),
            ref_datasets={"commit": ray.data.read_parquet(self.commits)},
            out_dir=out,
        )
        return out

    def check_report(self, out: str, expected: Dict[str, int],
                     i: int) -> List[str]:
        t = wl.read_dir(out)
        errors = wl.check_counts(wl.component_counts(t), expected, "report")
        if t.num_rows != sum(expected.values()):
            errors.append(f"report rows {t.num_rows} != violations "
                          f"{sum(expected.values())}")
        n_sig = len(set(t["signature_key"].to_pylist()))
        if n_sig != len(expected):
            errors.append(f"{n_sig} signatures, expected {len(expected)}")
        if t.num_rows and t["explanation_en"].null_count:
            errors.append("report rows without explanation_en")
        return errors + wl.check_sha_sample(t, self.sha, i)

    def check(self, out: str, i: int) -> List[str]:
        try:
            return self.check_report(out, self.expected, i)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class DeltaDriver(RunDriver):
    """``code_delta``: write-beside-read incremental validation."""

    def __init__(self, cache_dir: str, meta: dict, work: str):
        shards = os.path.join(work, "shards")
        shutil.copytree(os.path.join(cache_dir, "a"), shards)
        self.files = sorted(glob.glob(os.path.join(shards, "*.parquet")))
        self.target = meta["target"]
        name = f"shard{self.target:02d}"
        self.target_path = os.path.join(shards, f"{name}.parquet")
        self.versions = {
            "a": os.path.join(cache_dir, "a", f"{name}.parquet"),
            "b": os.path.join(cache_dir, f"{name}.b.parquet"),
        }
        self.kinds = {"a": meta["kinds_a"][self.target], "b": meta["kinds_b"]}
        self.kinds_rest = collections.Counter()
        for s, k in enumerate(meta["kinds_a"]):
            if s != self.target:
                self.kinds_rest.update(k)
        self.current = "a"
        self.rows = meta["target_rows"]
        self.out = os.path.join(work, "delta")
        self.work = work
        self.kg_path = os.path.join(work, "kg.parquet")
        self.max_content_len = None
        self.commits = os.path.join(cache_dir, "commits.parquet")
        self.keys = pa.array(sorted(
            pq.read_table(self.commits)["commit"].to_pylist()))
        self.sha = {}
        for f in self.files + [self.versions["b"]]:
            self.sha.update(wl.sha_by_key(pq.read_table(f)))
        self.engine = None

    def full_pass(self) -> None:
        rep = self.validate_delta()
        if len(rep["ran"]) != len(self.files):
            raise RuntimeError(f"full pass ran {len(rep['ran'])} of "
                               f"{len(self.files)} partitions")

    def validate_delta(self) -> dict:
        return self.engine.validate_delta(self.files, self.out,
                                          ref_keys={"commit": self.keys})

    def prepare(self, i: int) -> None:
        """Rewrite the target shard in place with the other version."""
        self.current = "b" if self.current == "a" else "a"
        shutil.copyfile(self.versions[self.current], self.target_path)

    def iterate(self, i: int) -> dict:
        return self.validate_delta()

    def expected_target(self) -> Dict[str, int]:
        return wl.expected_components(self.kinds[self.current])

    def check(self, rep: dict, i: int) -> List[str]:
        k = len(self.files)
        got = tuple(len(rep[x]) for x in ("ran", "skipped", "pruned"))
        errors = []
        if got != (1, k - 1, 1):
            errors.append(f"ran/skipped/pruned {got} != (1, {k - 1}, 1)")
        t = wl.read_dir(rep["data_dir"])
        want = self.kinds_rest + collections.Counter(self.kinds[self.current])
        errors += wl.check_counts(wl.component_counts(t),
                                  wl.expected_components(want), "delta union")
        return errors + wl.check_sha_sample(t, self.sha, i)


def make_driver(workload: str, cache_root: str, seed: int, rows: int,
                work: str):
    """Return (driver, seconds spent generating inputs, 0 on a cache hit)."""
    if workload == "code_report":
        d, meta, gen_s = wl.cached(cache_root, workload, seed, rows,
                                   wl.build_report(seed, rows))
        return RunDriver(d, meta, work), gen_s
    if workload == "code_wide":
        d, meta, gen_s = wl.cached(cache_root, workload, seed, rows,
                                   wl.build_wide(seed, rows))
        return RunDriver(d, meta, work, wl.WIDE_MAX_CONTENT_LEN), gen_s
    if workload == "code_delta":
        d, meta, gen_s = wl.cached(cache_root, workload, seed, rows,
                                   wl.build_delta(seed, rows))
        return DeltaDriver(d, meta, work), gen_s
    raise ValueError(f"unknown workload {workload!r}")
