"""Traced layer run: spans around each layer's public calls, Ray Data
stats per materialized layer output, and Ray-free kernel timings.

The steps of ``ValidationEngine.run`` are called one at a time with a
``materialize()`` barrier after each, so every layer's wall time, counts
and ``Dataset.stats()`` are taken at its own boundary.  The barriers
change Ray's operator fusion, so the traced sum differs from an untraced
``run`` by more than tracing cost; ``trace_gap_s`` reports that gap.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List

import pyarrow as pa
import pyarrow.parquet as pq

import workloads as wl

RAY_LAYERS = ["ingest", "validate", "row_local", "grouped", "dedup",
              "enrich", "explain"]
KERNEL_REPEATS = 3


class Tracer:
    """In-memory spans: name, start, end, parent, iteration, counts."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, iteration: int):
        rec = {"id": next(self._ids), "name": name, "iteration": iteration,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def last_counts(self, name: str) -> dict:
        return [s for s in self.spans if s["name"] == name][-1]["counts"]


def ray_stats(ds, *upstream) -> dict:
    """Tasks, CPU seconds and spilled MB of one materialized layer output.

    Walks the dataset's stats tree but stops at the (already
    materialized) ``upstream`` layer outputs, so each layer counts only
    its own operators.
    """
    stop = {u._get_stats_summary().dataset_uuid for u in upstream}
    seen, ops = set(), []

    def walk(summary):
        if summary.dataset_uuid in stop or id(summary) in seen:
            return
        seen.add(id(summary))
        ops.extend(summary.operators_stats)
        for parent in summary.parents:
            walk(parent)

    top = ds._get_stats_summary()
    walk(top)
    tasks = 0
    for op in ops:
        m = re.search(r"(\d+) tasks executed", op.block_execution_summary_str)
        tasks += int(m.group(1)) if m else 0
    cpu = sum((op.cpu_time or {}).get("sum", 0.0) for op in ops)
    return {"ray_tasks": tasks, "ray_cpu_s": cpu,
            "spilled_mb": top.dataset_bytes_spilled / 1e6}


def to_table(ds) -> pa.Table:
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def dir_mb(path: str) -> float:
    return sum(os.path.getsize(os.path.join(r, n))
               for r, _, names in os.walk(path) for n in names) / 1e6


def traced_run_steps(tr: Tracer, it: int, engine, input_path: str,
                     commits_path: str, out_dir: str) -> dict:
    """``ValidationEngine.run`` step by step, a barrier after each step.

    Returns the materialized layer outputs for branch and kernel timings.
    """
    import ray
    import ray.data

    from xpshacl_ray.explain import ViolationKnowledgeGraph, merge_kg_updates
    from xpshacl_ray.sources.ingest import read_code_table
    from xpshacl_ray.stages.referential import distinct_keys

    with tr.span("run", it):
        with tr.span("referential.keys", it) as s:
            keys = distinct_keys(ray.data.read_parquet(commits_path),
                                 "commit")
        s["counts"]["keys"] = len(keys)
        with tr.span("ingest", it) as s:
            ds = read_code_table(input_path, columns=wl.RAW_COLUMNS)
            ds = ds.materialize()
        s["counts"].update(rows=ds.count(), mb=ds.size_bytes() / 1e6,
                           **ray_stats(ds))
        with tr.span("validate", it) as s:
            viol = engine.validate(ds, ref_keys={"commit": keys}).materialize()
        vt = to_table(viol)
        comps = wl.component_counts(vt) if vt.num_rows else {}
        s["counts"].update(violations=vt.num_rows, blocks=viol.num_blocks(),
                           referential=comps.get("ClassConstraintComponent",
                                                 0),
                           **ray_stats(viol, ds))
        with tr.span("dedup", it) as s:
            sigs = engine.unique_signatures(viol).materialize()
        s["counts"].update(signatures=sigs.count(), **ray_stats(sigs, viol))
        with tr.span("enrich", it) as s:
            enriched = engine.enrich(sigs).materialize()
        s["counts"].update(ray_stats(enriched, sigs))
        with tr.span("explain", it) as s:
            expl = engine.explain(enriched).materialize()
            expl_table = pa.Table.from_pylist(expl.take_all())
        hits = (expl_table["cache_hit"].to_pylist()
                if expl_table.num_rows else [])
        s["counts"].update(rows=len(hits),
                           cache_hit_ratio=(hits.count("true") / len(hits)
                                            if hits else 0.0),
                           **ray_stats(expl, enriched))
        with tr.span("report", it) as s:
            engine.report(viol, expl_table).write_parquet(out_dir)
        s["counts"].update(rows=wl.read_dir(out_dir).num_rows,
                           mb_written=dir_mb(out_dir))
        with tr.span("kg.save", it):
            kg = ViolationKnowledgeGraph(engine.kg_path)
            merge_kg_updates(kg, expl_table)
            kg.save()
    return {"ingested": ds, "sigs": to_table(sigs),
            "enriched": to_table(enriched)}


def traced_branches(tr: Tracer, engine, ingested, kg_path,
                    max_content_len) -> None:
    """Row-local alone and grouped alone, over the materialized ingest."""
    from xpshacl_ray.pipelines.code_files import build_engine
    from xpshacl_ray.stages.grouped import (evaluate_grouped,
                                            partial_group_counts)

    kw = {} if max_content_len is None else {"max_content_len":
                                             max_content_len}
    row_local = build_engine(kg_path=kg_path, languages=["en"], **kw)
    row_local.compiled.grouped.clear()
    row_local.compiled.referential.clear()
    with tr.span("row_local", 0) as s:
        rl = row_local.validate(ingested).materialize()
    s["counts"].update(violations=rl.count(), **ray_stats(rl, ingested))

    compiled = engine.compiled
    sch = ingested.schema()
    types = dict(zip(sch.names, sch.types))
    with tr.span("grouped", 0) as s:
        parts = evaluate_grouped(ingested, compiled,
                                 [types[c] for c in compiled.id_columns])
        grouped = parts[0]
        for p in parts[1:]:
            grouped = grouped.union(p)
        grouped = grouped.materialize()
    partial_rows = 0
    for cc in compiled.grouped:
        keys, col = grouped_keys(cc)
        partial_rows += ingested.map_batches(
            functools.partial(partial_group_counts, keys=keys, value_col=col),
            batch_format="pyarrow").count()
    s["counts"].update(violations=grouped.count(), partial_rows=partial_rows,
                       **ray_stats(grouped, ingested))


def grouped_keys(cc):
    keys = list(cc.constraint.group_by)
    col = cc.constraint.column
    return keys, (col if col not in keys else None)


def timed(fn) -> float:
    """Median wall seconds of ``KERNEL_REPEATS`` calls of ``fn``."""
    walls = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def kernel_times(engine, input_path: str, sigs: pa.Table,
                 enriched: pa.Table) -> Dict[str, float]:
    """The layers' compute kernels on one in-process Arrow table, no Ray."""
    from xpshacl_ray.context import ContextRetriever
    from xpshacl_ray.explain import ExplainerActor
    from xpshacl_ray.justify import tree_json_for_row
    from xpshacl_ray.sources.ingest import add_lineage_columns
    from xpshacl_ray.spec import CompiledSpec
    from xpshacl_ray.stages.evaluate import evaluate_row_local
    from xpshacl_ray.stages.grouped import partial_group_counts

    raw = pq.read_table(input_path, columns=wl.RAW_COLUMNS)
    lineage = add_lineage_columns(raw)
    c = engine.compiled
    row_spec = CompiledSpec(row_local=list(c.row_local), grouped=[],
                            referential=[], id_columns=c.id_columns,
                            focus_template=c.focus_template)
    retriever = ContextRetriever(engine.rules, engine.spec_docs)
    sig_rows = sigs.to_pylist()
    actor = ExplainerActor(kg_path=engine.kg_path, languages=engine.languages,
                           model_name=engine.model_name)

    def grouped():
        for cc in c.grouped:
            keys, col = grouped_keys(cc)
            partial_group_counts(lineage, keys, col)

    def enrich():
        for r in sig_rows:
            tree_json_for_row(r)
            retriever.retrieve(r).to_json()

    return {
        "ingest": timed(lambda: add_lineage_columns(raw)),
        "row_local": timed(lambda: evaluate_row_local(lineage, row_spec)),
        "grouped": timed(grouped),
        "enrich": timed(enrich),
        "explain": timed(lambda: actor(enriched)),
    }


def manifest_check(files: List[str], out_dir: str) -> int:
    """Partition fingerprinting + ``is_complete`` over every partition;
    returns how many partitions are complete."""
    from xpshacl_ray.state.manifest import ManifestStore, partition_input_files

    parts = partition_input_files(files, fingerprint="stat")
    store = ManifestStore(os.path.join(out_dir, "manifests"))
    return sum(store.is_complete("violations", pid) for pid in parts)


def layer_metrics(tr: Tracer, kernels: Dict[str, float],
                  untraced_s: List[float], gap_span: str) -> Dict[str, dict]:
    """The per-layer metrics, from the spans' medians and last counts."""
    m: Dict[str, float] = {}
    c = tr.last_counts
    wall = {
        "ingest": tr.median("ingest"),
        "row_local": tr.median("row_local"),
        "grouped": tr.median("grouped"),
        "enrich": tr.median("enrich"),
        "explain": tr.median("explain"),
    }
    for layer, w in wall.items():
        m[f"{layer}.wall_s"] = w
        m[f"{layer}.kernel_s"] = kernels[layer]
        m[f"{layer}.overhead_ratio"] = w / max(kernels[layer], 1e-9)
    m["ingest.rows"] = c("ingest")["rows"]
    m["ingest.mb"] = c("ingest")["mb"]
    m["referential.keys_s"] = tr.median("referential.keys")
    m["referential.keys"] = c("referential.keys")["keys"]
    m["referential.violations"] = c("validate")["referential"]
    m["row_local.violations"] = c("row_local")["violations"]
    m["grouped.partial_rows"] = c("grouped")["partial_rows"]
    m["grouped.violations"] = c("grouped")["violations"]
    m["validate.wall_s"] = tr.median("validate")
    m["validate.violations"] = c("validate")["violations"]
    m["validate.blocks"] = c("validate")["blocks"]
    m["dedup.wall_s"] = tr.median("dedup")
    m["dedup.signatures"] = c("dedup")["signatures"]
    m["dedup.ratio"] = (c("dedup")["signatures"]
                        / max(c("validate")["violations"], 1))
    m["report.wall_s"] = tr.median("report")
    m["report.rows"] = c("report")["rows"]
    m["report.mb_written"] = c("report")["mb_written"]
    m["explain.cache_hit_ratio"] = c("explain")["cache_hit_ratio"]
    m["explain.rows"] = c("explain")["rows"]
    m["kg.save_s"] = tr.median("kg.save")
    mc = c("manifest.check")
    m["manifest.ran"] = mc.get("ran", 0)
    m["manifest.skipped"] = mc.get("skipped", 0)
    m["manifest.pruned"] = mc.get("pruned", 0)
    m["manifest.check_s"] = tr.median("manifest.check")
    for layer in RAY_LAYERS:
        lc = c(layer)
        for k in ("ray_tasks", "ray_cpu_s", "spilled_mb"):
            m[f"{layer}.{k}"] = lc[k]
    m["trace_gap_s"] = tr.median(gap_span) - statistics.median(untraced_s)
    return {k: {"value": v, "unit": unit_of(k)} for k, v in m.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("mb", "_mb", "mb_written")):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    return "count"
