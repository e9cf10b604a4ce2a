"""ValidationEngine — the library facade (SURVEY.md §3.1/§3.2).

Engine equivalent of the reference's ``main.py`` lifecycle::

    driver: compile constraint spec                       # ST1
    scan  = ds.map_batches(scan)       # ONE scan: C1..C20 fused (E1),
                                       # C1/C2/C11 partials, C19
                                       # GroupedSparql rows and C4 probe
                                       # rows, tagged
            ∪ ref.map_batches(unique)  # C4/C19 build sides: distinct
                                       # keys, witness or member nodes
            .materialize()                                # one execution
    parts = [route.remote(block, k __h__ ranges)          # plain tasks:
             for block in scan.to_arrow_refs()]           # the exchange
    viol  = from_arrow_refs([reduce.remote(sweep, parts[:, j])
                             for j in range(k)])          # violations pass,
                                       # partials reduce, GroupedSparql
                                       # runs are judged, C4 probe rows
                                       # absent from the keys violate,
                                       # C19 focus keys absent from
                                       # (isolation) or in (membership)
                                       # the build keys violate
    sigs  = first_per_signature(∪ first_per_signature.remote(block)
                                  for block in viol.to_arrow_refs())
                                                          # G2 exact dedup
    sigs  = add_enrichment(sigs)                          # E2-E7, X1-X5
    expl  = ExplainerActor(kg_path)(sigs)                 # G4/G5/N1-N3
    write_blocks(viol, out, join_explanations, per_lang)  # G8 join + S3
    kg.save(kg_path)                                      # S5

The per-signature expensive work (trees, context, explanation) runs on the
small deduped signature table — never per violation instance — exactly the
reference's "first instance is representative" semantics (main.py:139-211).
Of that work only the per-block dedup runs as Ray tasks, one plain task
per materialized violation block; it returns at most one row per signature
and block, and the merge, enrichment and explanation of those few rows
run in the driver process, with the KG cache loaded once there.

:func:`validate_parts` is eager and scans each of its input parts, and
each referenced side, once, in one ``map_batches`` call each; all of
them cross one exchange.  Over the engine's Parquet reads
(:func:`~xpshacl_ray.sources.ingest.read_parquet`), which never cut a
file after reading it, each scan fuses with its read: the task that
reads a file also scans it.  It checks each spec's columns without a
schema probe (free when the input knows its schema, else only after a
failed execution).  ``validate`` is its one-part case, and a Turtle
validate (:func:`~xpshacl_ray.sources.ttl.validate_ttl`) passes one
part per table.  One ``run`` thus starts one Ray Data execution.  The
report join and write run as one plain task per materialized violation
block (:func:`~xpshacl_ray.state.manifest.write_blocks`), and so does
each partition write of ``validate_delta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.dataset import MaterializedDataset

from ..context import ContextRetriever, DomainRule
from ..explain import DEFAULT_MODEL, ExplainerActor
from ..justify import tree_json_for_row
from ..sources.ingest import read_parquet
from ..spec import CompiledSpec, ValidationSpec, compile_spec
from ..stages.grouped import evaluate_scan
from ..state.manifest import empty_table, run_resumable, write_blocks


def first_per_signature(batch: pa.Table) -> pa.Table:
    """G2 kernel: the first row per ``signature_key`` in
    (signature_key, focus_node, value) order, nulls last; the output is
    in ``signature_key`` order.

    The reference keeps the FIRST instance as representative
    (main.py:164); streamed blocks have no first, so the order above
    stands in for it.  The pick is the minimum of one fixed order, so the
    kernel is associative: applied per block and once more over the
    concatenated block outputs, it picks what one pass over every row
    picks.  Rows equal on all three columns keep their input order.
    """
    if batch.num_rows == 0:
        return batch
    order = [(c, "ascending") for c in ("signature_key", "focus_node", "value")]
    ordered = batch.take(pc.sort_indices(batch, sort_keys=order,
                                         null_placement="at_end"))
    firsts = (ordered.select(["signature_key"])
              .append_column("pos", pa.array(range(ordered.num_rows),
                                              pa.int64()))
              .group_by("signature_key", use_threads=False)
              .aggregate([("pos", "min")]))
    return ordered.take(firsts["pos_min"])


@ray.remote
def _first_per_signature_task(block: pa.Table) -> pa.Table:
    return first_per_signature(block)


def unique_signature_table(violations: "ray.data.Dataset") -> pa.Table:
    """:func:`first_per_signature` as one Ray task per block, then once
    more on the driver over the at most K rows each block returns.

    The blocks are those of the materialized ``violations`` (a lazy
    Dataset is materialized first), so the per-block pass starts no Ray
    Data execution of its own."""
    if not isinstance(violations, MaterializedDataset):
        violations = violations.materialize()
    partials = ray.get([_first_per_signature_task.remote(ref)
                        for ref in violations.to_arrow_refs()])
    tables = [t for t in partials if t.num_rows]
    if tables:
        return first_per_signature(pa.concat_tables(
            tables, promote_options="default"))
    # Ray drops the columns of empty blocks
    return empty_table(violations)


def join_explanations(batch: pa.Table, per_lang) -> pa.Table:
    """G8 kernel: append ``explanation_<lang>`` and ``suggestions_<lang>``
    to a violation block.

    ``per_lang`` holds (language, rows) pairs, the rows being one
    explanation row per signature in that language.  Each block finds its
    signatures there with ``pc.index_in`` and ``take``s both columns,
    nulls where a signature has no row (main.py:218-248 re-keys every
    instance by signature).
    """
    for lang, t in per_lang:
        keys = t["signature_key"].combine_chunks()
        idx = pc.index_in(batch["signature_key"], value_set=keys,
                          skip_nulls=True)
        for col in ("explanation", "suggestions"):
            batch = batch.append_column(
                f"{col}_{lang}", pc.cast(t[col].take(idx), pa.string()))
    return batch


def add_enrichment(sigs: pa.Table, retriever: ContextRetriever) -> pa.Table:
    """E2-E7 + X1-X5: justification tree and retrieved context per row."""
    rows = sigs.to_pylist()
    trees = [tree_json_for_row(r) for r in rows]
    ctxs = [retriever.retrieve(r).to_json() for r in rows]
    return sigs.append_column(
        "justification_tree", pa.array(trees, pa.string())
    ).append_column("retrieved_context", pa.array(ctxs, pa.string()))


def _check_columns(spec: CompiledSpec, names: Sequence[str],
                   cause=None) -> None:
    """Raise ``ValueError`` naming the columns of ``spec`` absent from
    ``names`` (chained to ``cause``), if there are any."""
    missing = set(spec.required_columns()) - set(names)
    if missing:
        raise ValueError(
            f"spec references columns absent from the dataset: "
            f"{sorted(missing)} (have: {list(names)})"
        ) from cause


def validate_parts(parts: Sequence[Tuple["ray.data.Dataset", CompiledSpec,
                                         Optional[Dict[str, object]]]]
                   ) -> "ray.data.Dataset":
    """The violations of every ``(ds, spec, refs)`` part from ONE
    :func:`~xpshacl_ray.stages.grouped.evaluate_scan`: each input, and
    each referenced side in ``refs``, is scanned once and all cross one
    exchange.  The parts must share ``id_columns``.

    Eager: the violations are materialized before returning, and a spec
    column absent from its part's input raises ``ValueError`` here.  The
    columns are checked up front when the input knows its schema without
    executing; otherwise only a failed execution reads the schema, and a
    failure that no absent column explains is re-raised as is.
    """
    if len({tuple(spec.id_columns) for _, spec, _ in parts}) > 1:
        raise ValueError("the parts of one validate must share id_columns")
    unchecked = []
    for ds, spec, _ in parts:
        if not spec.all_compiled():
            raise ValueError("spec has no constraints")
        sch = ds.schema(fetch_if_missing=False)
        if sch is None:
            unchecked.append((ds, spec))
        else:
            _check_columns(spec, sch.names)
    try:
        return evaluate_scan(parts).materialize()
    except Exception as err:
        for ds, spec in unchecked:
            try:
                names = ds.schema().names
            except Exception:
                raise err
            _check_columns(spec, names, cause=err)
        raise


@dataclass
class ValidationResult:
    """(conforms, report, stats) — the library-facade API the reference's
    ``ExplainableShaclSystem`` sketches (explanation_generator.py:166-210)."""

    violations: "ray.data.Dataset"
    _n_violations: Optional[int] = None

    @property
    def n_violations(self) -> int:
        if self._n_violations is None:
            self._n_violations = self.violations.count()
        return self._n_violations

    @property
    def conforms(self) -> bool:
        return self.n_violations == 0


class ValidationEngine:
    """Compile once on the driver; evaluate as streamed Arrow batches."""

    def __init__(
        self,
        spec: ValidationSpec,
        rules: Sequence[DomainRule] = (),
        kg_path: Optional[str] = None,
        languages: Sequence[str] = ("en",),
        model_name: str = DEFAULT_MODEL,
        inference: Optional[str] = None,
    ):
        # ``inference`` mirrors the reference's --inference rdfs/owlrl flag
        # (main.py:30-33): pyshacl-internal graph pre-processing with no
        # analog on a tabular engine — accepted and documented as a no-op
        # (SURVEY.md §2.8).
        self.inference = inference
        self.spec = spec
        self.compiled: CompiledSpec = compile_spec(spec)
        self.rules = list(rules)
        self.kg_path = kg_path
        self.languages = list(languages)
        self.model_name = model_name
        # constraint docs keyed by signature for context retrieval (X2)
        self.spec_docs = {
            cc.sig_key: {
                "name": getattr(cc.constraint, "name", None)
                if isinstance(getattr(cc.constraint, "name", None), str)
                else None,
                "description": cc.message,
            }
            for cc in self.compiled.all_compiled()
        }

    # -- validation ------------------------------------------------------

    def validate(
        self,
        ds: "ray.data.Dataset",
        ref_datasets: Optional[Dict[str, "ray.data.Dataset"]] = None,
        ref_keys: Optional[Dict[str, pa.Array]] = None,
    ) -> "ray.data.Dataset":
        """Full violations Dataset, materialized: :func:`validate_parts`
        with ``ds`` as its one part.  A referential check's referenced
        keys are its column's entry of ``ref_keys`` (an array), else the
        ``ref_column`` values of its ``ref_datasets`` entry."""
        return validate_parts([(ds, self.compiled,
                                {**(ref_datasets or {}), **(ref_keys or {})})])

    def validate_delta(
        self,
        input_files,
        out_dir: str,
        ref_keys=None,
        files_per_partition: int = 1,
        stage: str = "violations",
    ):
        """Incremental validation as a first-class API: re-validate ONLY
        the shards that changed since the last run.

        Partitions are content-addressed by (path, size, mtime_ns) of
        their input files, so an in-place rewritten shard gets a new
        partition id — its stale output is pruned and only it recomputes;
        unchanged shards are skipped end-to-end (their violation Parquet +
        manifest are reused untouched).  Returns the
        :func:`~xpshacl_ray.state.manifest.run_resumable` report dict
        (``ran`` / ``skipped`` / ``pruned`` / ``data_dir``) — read the
        combined violations from ``data_dir``.

        Partitioning assumption (same as ``run_resumable``): grouped
        constraints see one shard at a time, so shard boundaries must
        align with group keys.
        """
        cols = self.compiled.required_columns()

        def process(files):
            ds = read_parquet(files, columns=cols)
            return self.validate(ds, ref_keys=ref_keys)

        return run_resumable(
            list(input_files), out_dir, process, stage=stage,
            files_per_partition=files_per_partition, fingerprint="stat",
        )

    # -- signature dedup + enrichment + explanation ----------------------

    def unique_signatures(self, violations: "ray.data.Dataset") -> "ray.data.Dataset":
        """G2: one representative row per signature (see
        :func:`first_per_signature`), as an in-memory Dataset."""
        return ray.data.from_arrow(unique_signature_table(violations))

    def enrich(self, sigs: "ray.data.Dataset") -> "ray.data.Dataset":
        """E2-E7 + X1-X5 on the deduped signature table (small)."""
        return sigs.map_batches(add_enrichment,
                                fn_kwargs=dict(retriever=self._retriever()),
                                batch_format="pyarrow")

    def explain(self, sigs: "ray.data.Dataset") -> "ray.data.Dataset":
        """G4/G5/N1-N3: cache probe + template NLG per (signature, lang).

        The explainer and its KG cache are built once on the driver and
        shipped to the tasks."""
        return sigs.map_batches(self._explainer(), batch_format="pyarrow")

    def explained_signatures(self, violations: "ray.data.Dataset"):
        """The signature tail of :meth:`run`: per-block dedup in Ray tasks,
        then the merge, enrichment and explanation in this process.

        Returns ``(signatures, explanations, kg)``: the enriched
        signature table, one explanation row per (signature, language),
        and the KG cache with this call's new explanations added.
        """
        sigs = add_enrichment(unique_signature_table(violations),
                              self._retriever())
        explainer = self._explainer()
        return sigs, explainer(sigs), explainer.kg

    def _retriever(self) -> ContextRetriever:
        return ContextRetriever(self.rules, self.spec_docs)

    def _explainer(self) -> ExplainerActor:
        return ExplainerActor(kg_path=self.kg_path, languages=self.languages,
                              model_name=self.model_name)

    # -- report reconstruction (G8) --------------------------------------

    def _per_language(self, explanations: pa.Table) -> list:
        """(language, explanation rows) per engine language: the
        ``per_lang`` argument of :func:`join_explanations`."""
        lang_col = explanations["language"]
        return [(lang, explanations.filter(pc.equal(lang_col, lang)))
                for lang in self.languages]

    def report(
        self,
        violations: "ray.data.Dataset",
        explanations: pa.Table,
    ) -> "ray.data.Dataset":
        """Fan explanations back onto every violation instance, lazily:
        :func:`join_explanations` per block, with its K-row explanation
        slices shipped once via ``ray.put``."""
        ref = ray.put(self._per_language(explanations))
        return violations.map_batches(
            lambda b: join_explanations(b, ray.get(ref)),
            batch_format="pyarrow")

    def write_report(self, violations: "ray.data.Dataset",
                     explanations: pa.Table, out_dir: str) -> int:
        """Write :meth:`report` into ``out_dir`` with
        :func:`~xpshacl_ray.state.manifest.write_blocks`, one plain Ray
        task per violation block, and return its row count."""
        return write_blocks(violations, out_dir, join_explanations,
                            self._per_language(explanations))

    # -- end-to-end ------------------------------------------------------

    def run(
        self,
        ds: "ray.data.Dataset",
        ref_datasets: Optional[Dict[str, "ray.data.Dataset"]] = None,
        out_dir: Optional[str] = None,
        out_json: Optional[str] = None,
        save_kg: bool = True,
        stats_config=None,
    ) -> Dict[str, object]:
        """Full explainable-validation pipeline (main.py:49-264 analog).

        ``out_dir`` → partitioned Parquet report (S3, the checkpoint unit);
        ``out_json`` → additional human-readable JSON report (main.py's
        ``json.dumps`` console/file output, :250-264);
        ``stats_config`` → also run the one-pass sketch profile (ST5) and
        return it as ``stats``.
        """
        # violations feed three consumers (dedup, report join, write);
        # validate materializes them, so the input is scanned once — the
        # violations table is small relative to the input by design
        violations = self.validate(ds, ref_datasets=ref_datasets)
        sigs, expl_table, kg = self.explained_signatures(violations)
        report = self.report(violations, expl_table)
        kg_saved = kg.save() if save_kg and self.kg_path else None
        stats = None
        if stats_config is not None:
            from ..stages.stats import profile

            stats = profile(ds, stats_config)
        if out_dir:
            self.write_report(violations, expl_table, out_dir)
        if out_json:
            report.write_json(out_json)
        return {
            "violations": violations,
            "signatures": ray.data.from_arrow(sigs),
            "explanations": expl_table,
            "report": report,
            "kg_path": kg_saved,
            "stats": stats,
        }
