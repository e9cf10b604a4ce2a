"""CLI entry point — the ``ray job submit`` surface (north rule).

Reference analog: ``src/main.py``'s argparse CLI (:21-47).  Usage::

    # local
    python -m xpshacl_ray validate --input /data/code_files \\
        --commits /data/commits --out /data/run1 --languages en,pt

    # on a cluster
    ray job submit --working-dir . -- python -m xpshacl_ray validate \\
        --input s3://bucket/code_files --out s3://bucket/run1 --resumable

This module owns a Ray session (guarded ``ray.init``) — the library never
does.
"""

from __future__ import annotations

import argparse
import json
import os
import time


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xpshacl_ray")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a code_files parquet table")
    v.add_argument("--input", required=True,
                   help="parquet file/dir of (repo,path,commit,lang,content)")
    v.add_argument("--commits", default=None,
                   help="parquet of the commits dimension (enables C4)")
    v.add_argument("--out", required=True, help="output root directory")
    v.add_argument("--kg", default=None,
                   help="explanation-cache parquet (default <out>/kg.parquet)")
    v.add_argument("--languages", default="en",
                   help="comma-separated explanation languages (main.py:35-38)")
    v.add_argument("--model", default="template-nlg-v1",
                   help="explanation backend name (main.py:25-28)")
    v.add_argument("--inference", default=None,
                   help="accepted for reference parity; documented no-op")
    v.add_argument("--resumable", action="store_true",
                   help="per-shard manifests + resume-skip (violations only)")
    v.add_argument("--stats", action="store_true",
                   help="also emit the per-(repo,lang) sketch profile")
    v.add_argument("--num-cpus", type=int,
                   default=int(os.environ.get("RAY_GRAFT_CPUS", "0")) or None)

    t = sub.add_parser(
        "validate-ttl",
        help="the reference CLI surface: validate Turtle data against "
             "SHACL shapes (src/main.py analog, rdflib-free)")
    t.add_argument("--data", required=True, help="RDF data .ttl file")
    t.add_argument("--shapes", required=True, help="SHACL shapes .ttl file")
    t.add_argument("--out", default=None, help="output directory (Parquet)")
    t.add_argument("--kg", default=None,
                   help="explanation-cache parquet (reference KG analog)")
    t.add_argument("--language", default="en",
                   help="comma-separated explanation languages")
    t.add_argument("--model", default="template-nlg-v1",
                   help="accepted for reference parity; template backend")
    t.add_argument("--num-cpus", type=int,
                   default=int(os.environ.get("RAY_GRAFT_CPUS", "0")) or None)
    t.add_argument("--long-form", action="store_true",
                   help="also evaluate sh:maxCount / sh:minCount>1 / "
                        "sh:nodeKind / sh:class / sh:languageIn over the "
                        "triples table (multi-valued predicates)")
    t.add_argument("--sparql", action="store_true",
                   help="auto-translate FILTER-only sh:sparql constraints "
                        "to SQL checks (graph-pattern queries are skipped "
                        "loudly, surfaced via sparql_constraints)")

    c = sub.add_parser(
        "curate", help="training-data curation over a documents parquet "
                       "table: quality/lang filters + exact dedup, "
                       "attrition-reported")
    c.add_argument("--input", required=True,
                   help="corpus file/dir: parquet, jsonl(.gz), csv or "
                        "raw text (normalized via read_text_corpus)")
    c.add_argument("--format", default=None,
                   choices=["parquet", "jsonl", "csv", "text"],
                   help="override format inference from the extension")
    c.add_argument("--text-col", default="text",
                   help="source text column (renamed to 'text')")
    c.add_argument("--out", required=True, help="output directory")
    c.add_argument("--min-quality", type=float, default=0.5)
    c.add_argument("--langs", default=None,
                   help="comma-separated allowed langs (default: keep all)")
    c.add_argument("--dedup", default="auto",
                   choices=["auto", "broadcast", "join"],
                   help="dedup strategy (auto switches to the no-broadcast "
                        "semi-join past the size threshold)")
    c.add_argument("--num-cpus", type=int,
                   default=int(os.environ.get("RAY_GRAFT_CPUS", "0")) or None)
    return p


def _init_ray(num_cpus):
    import ray

    if not ray.is_initialized():
        kwargs = dict(address=os.environ.get("RAY_ADDRESS", "local"),
                      include_dashboard=False, ignore_reinit_error=True)
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)


def cmd_validate(args) -> int:
    _init_ray(args.num_cpus)
    import ray

    from .pipelines.code_files import build_engine, code_files_stats_config
    from .sources.ingest import read_code_table, read_parquet
    from .stages.referential import distinct_keys
    from .state.manifest import run_resumable

    t0 = time.perf_counter()
    languages = [x.strip() for x in args.languages.split(",") if x.strip()]
    kg_path = args.kg or os.path.join(args.out, "kg.parquet")
    engine = build_engine(kg_path=kg_path, languages=languages)
    ref = {"commit": read_parquet(args.commits)} if args.commits else None
    if ref is None:
        engine.compiled.referential.clear()

    summary = {"input": args.input, "out": args.out}
    if args.resumable:
        files = []
        if os.path.isdir(args.input):
            for root, _, names in os.walk(args.input):
                files += [os.path.join(root, n) for n in names
                          if n.endswith(".parquet")]
        else:
            files = [args.input]

        keys = {}  # the key sets, read once by the first shard that runs

        def process(shard_files):
            if not keys:
                keys.update(
                    (cc.constraint.column, ray.put(distinct_keys(
                        ref[cc.constraint.column], cc.constraint.ref_column)))
                    for cc in engine.compiled.referential)
            ds = read_code_table(shard_files)
            return engine.validate(ds, ref_keys=keys)

        r = run_resumable(files, args.out, process)
        summary.update(ran=r["ran"], skipped=r["skipped"],
                       data_dir=r["data_dir"])
    else:
        ds = read_code_table(args.input)
        res = engine.run(ds, ref_datasets=ref,
                         out_dir=os.path.join(args.out, "report"))
        summary.update(
            n_violations=res["violations"].count(),
            n_signatures=res["signatures"].count(),
            kg_path=res["kg_path"],
        )
        if args.stats:
            from .stages.stats import StatsConfig, profile

            import pyarrow.compute as pc

            ds2 = read_code_table(args.input).map_batches(
                lambda b: b.append_column(
                    "content_len", pc.utf8_length(b["content"])),
                batch_format="pyarrow",
            )
            prof = profile(ds2, code_files_stats_config())
            stats_path = os.path.join(args.out, "stats.parquet")
            import pyarrow as pa
            import pyarrow.parquet as pq

            pq.write_table(pa.Table.from_pandas(prof), stats_path)
            summary["stats_path"] = stats_path
    summary["wall_time_s"] = round(time.perf_counter() - t0, 3)
    print(json.dumps(summary, default=str))
    return 0


def cmd_validate_ttl(args) -> int:
    _init_ray(args.num_cpus)
    from .sources.ttl import run_ttl

    t0 = time.perf_counter()
    languages = [x.strip() for x in args.language.split(",") if x.strip()]
    res = run_ttl(args.data, args.shapes, languages=languages,
                  kg_path=args.kg, out_dir=args.out,
                  long_form=getattr(args, "long_form", False),
                  sparql=getattr(args, "sparql", False))
    report = res["report"].to_pandas()
    summary = {
        "data": args.data,
        "shapes": args.shapes,
        "n_violations": len(report),
        "n_signatures": int(report["signature_key"].nunique()),
        "languages": languages,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    if args.out:
        summary["out"] = args.out
    print(json.dumps(summary, default=str))
    return 0


def cmd_curate(args) -> int:
    _init_ray(args.num_cpus)
    import dataclasses
    import ray.data

    from .pipelines.curate import CurationConfig, curate
    from .sources.corpus import read_text_corpus

    t0 = time.perf_counter()
    ds = read_text_corpus(args.input, format=args.format,
                          text_col=args.text_col)
    langs = ([x.strip() for x in args.langs.split(",") if x.strip()]
             if args.langs else None)
    # corpora without a lang column filter on the pipeline's own
    # language-ID output (LanguageId runs before the filter stage)
    lang_col = ("lang" if "lang" in (ds.schema().names or [])
                else "lang_pred")
    cfg = CurationConfig(min_quality=args.min_quality,
                         allowed_langs=langs,
                         lang_col=lang_col,
                         dedup_strategy=args.dedup)
    curated, report = curate(ds, cfg)
    out_data = os.path.join(args.out, "curated")
    curated.write_parquet(out_data)
    summary = dataclasses.asdict(report)
    summary.update(input=args.input, out=out_data,
                   wall_time_s=round(time.perf_counter() - t0, 3))
    print(json.dumps(summary, default=str))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "validate-ttl":
        return cmd_validate_ttl(args)
    if args.command == "curate":
        return cmd_curate(args)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
