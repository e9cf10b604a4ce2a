"""Text-analysis operators for large-scale training-data pipelines.

Actor-pool ``map_batches`` stages over a documents table
(``doc_id, text, lang, source, n_chars``): language-ID (n-gram heuristic),
quality scoring (length/punct/stopword ratios), token counting (whitespace
+ a BPE-ish regex), and document fingerprinting (md5 + 64-bit rolling
hash).  All stateful setup (compiled regexes, stopword tables, n-gram
profiles) happens once per actor in ``__init__``.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Tiny per-language stopword profiles (public common words); enough for a
# deterministic heuristic language-ID over the synthetic corpora.
_STOPWORDS: Dict[str, frozenset] = {
    "en": frozenset("the a of and to in is it you that was for on are".split()),
    "de": frozenset("der die das und ist ich nicht ein zu es du wir".split()),
    "fr": frozenset("le la les et est je ne pas un une que des".split()),
    "es": frozenset("el la los y es no un una que de en se".split()),
    "pt": frozenset("o a os e é não um uma que de em para".split()),
}

_EN_STOP = _STOPWORDS["en"]

# BPE-ish pre-tokenizer: word pieces, numbers, or single non-space symbols
# (the common GPT-2-style pre-tokenization regex family, simplified).
# The whitespace class is spelled out as explicit ASCII characters so the
# pattern means the SAME thing under RE2 (Arrow kernel, ASCII \s) and
# Python re (Unicode \s) — a literal \s here would silently change token
# counts for NBSP/thin-space text depending on the engine.
_BPEISH = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n\r\f\v]"


def token_count_whitespace(batch: pa.Table, text_col: str = "text",
                           out_col: str = "n_tokens") -> pa.Table:
    """Whitespace token count, fully vectorized in Arrow.

    count = split-on-space parts (matches DuckDB ``len(str_split(text,' '))``).
    """
    txt = batch[text_col]
    spaces = pc.count_substring(txt, " ")
    n = pc.add(spaces, 1)
    n = pc.if_else(pc.is_null(txt), pa.scalar(None, pa.int64()),
                   pc.cast(n, pa.int64()))
    return batch.append_column(out_col, n)


class Tokenizer:
    """BPE-ish token counting actor.

    Vectorized: non-overlapping match counting runs as ONE Arrow RE2
    kernel (``pc.count_substring_regex``) over the whole batch.  RE2
    semantics are canonical (same dialect as the DuckDB oracles); note
    RE2 treats class shorthands (``\\s``/``\\w``/``\\d``) as ASCII where
    Python ``re`` is Unicode — spell out explicit classes (as the
    default pattern does) when the distinction matters.  Patterns RE2
    REJECTS outright (lookarounds/backrefs) fall back to a
    lazily-compiled Python loop, the documented slow path — lazy so
    RE2-only syntax (``\\p{L}``) that Python ``re`` rejects still
    constructs and runs on the fast path (ADVICE r3)."""

    # shorthand classes whose RE2 (ASCII) and Python re (Unicode)
    # semantics differ — counts would silently change if the engine
    # picked a different path for the same pattern
    _AMBIGUOUS = re.compile(r"\\[swdbSWDB]")

    def __init__(self, pattern: str = _BPEISH, text_col: str = "text",
                 out_col: str = "n_bpeish_tokens"):
        self.pattern = pattern
        self._re = None  # fallback path only; compiled on first use
        self.text_col = text_col
        self.out_col = out_col
        if pattern is not _BPEISH and self._AMBIGUOUS.search(pattern):
            import warnings

            warnings.warn(
                "Tokenizer pattern contains \\s/\\w/\\d/\\b shorthand, "
                "which is ASCII under the Arrow/RE2 fast path but "
                "Unicode under the Python-re fallback — spell out an "
                "explicit character class if the distinction matters",
                stacklevel=2)

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = batch[self.text_col]
        try:
            counts = pc.cast(
                pc.count_substring_regex(txt, self.pattern), pa.int64())
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            if self._re is None:
                self._re = re.compile(self.pattern)
            texts = txt.to_pylist()
            counts = pa.array(
                [None if t is None else len(self._re.findall(t))
                 for t in texts], pa.int64())
        return batch.append_column(self.out_col, counts)


def _token_lists(text_col) -> "pa.ListArray":
    """Lower-cased letter-run token lists, fully in Arrow kernels."""
    low = pc.utf8_lower(text_col)
    toks = pc.split_pattern_regex(low, r"[^\p{L}]+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    return toks


def _segment_sums(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    cs = np.concatenate([[0], np.cumsum(x)])
    return cs[offsets[1:]] - cs[offsets[:-1]]


class LanguageId:
    """Heuristic language-ID: stopword-profile scoring, fully vectorized.

    Tokenization and membership run as Arrow kernels over the flattened
    token array; per-document hit counts come from segment sums over the
    list offsets — no Python loop over documents.  Ties break
    deterministically by language code (first max of sorted languages).
    Emits ``lang_pred`` and ``lang_score``.
    """

    def __init__(self, profiles: Optional[Dict[str, frozenset]] = None):
        self.profiles = profiles or _STOPWORDS
        self.langs = sorted(self.profiles)
        self.stop_arrays = {
            lang: pa.array(sorted(self.profiles[lang]))
            for lang in self.langs
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        toks = _token_lists(batch["text"])
        flat = toks.flatten()
        offsets = np.asarray(toks.offsets)
        valid = np.asarray(
            pc.fill_null(pc.greater(pc.utf8_length(flat), 0), False)
        )
        totals = _segment_sums(valid.astype(np.int64), offsets)
        scores = np.empty((len(self.langs), n))
        for i, lang in enumerate(self.langs):
            hit = np.asarray(
                pc.fill_null(pc.is_in(flat, value_set=self.stop_arrays[lang]),
                             False)
            )
            scores[i] = _segment_sums(hit.astype(np.int64), offsets)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = scores / np.maximum(totals, 1)
        best_idx = scores.argmax(axis=0)
        best = np.round(scores[best_idx, np.arange(n)], 6)
        is_null = np.asarray(pc.is_null(batch["text"]).combine_chunks()
                             if isinstance(batch["text"], pa.ChunkedArray)
                             else pc.is_null(batch["text"]))
        empty_text = np.asarray(
            pc.fill_null(pc.equal(pc.utf8_length(batch["text"]), 0), True)
        )
        no_tokens = totals == 0
        preds = [
            None if (is_null[i] or empty_text[i] or no_tokens[i])
            else self.langs[best_idx[i]]
            for i in range(n)
        ]
        score_out = [
            None if (is_null[i] or empty_text[i])
            else (0.0 if no_tokens[i] else float(best[i]))
            for i in range(n)
        ]
        return batch.append_column(
            "lang_pred", pa.array(preds, pa.string())
        ).append_column("lang_score", pa.array(score_out, pa.float64()))


class QualityScorer:
    """Quality-signal stage: length/punct/stopword/repetition ratios.

    Emits ``q_len`` (chars), ``q_punct_ratio``, ``q_stopword_ratio``,
    ``q_dup_line_ratio`` and an aggregate ``quality_score`` ∈ [0,1] —
    the shape of Gopher/C4-style quality filters.  Length, punctuation
    and stopword ratios are Arrow kernels + segment sums; only documents
    that actually contain newlines take the per-document line-dedup path.
    """

    def __init__(self, stopwords: frozenset = _EN_STOP):
        self.stop_array = pa.array(sorted(stopwords))

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n_rows = len(batch)
        lens = np.asarray(pc.fill_null(pc.utf8_length(col), 0),
                          dtype=np.int64)
        is_null = np.asarray(pc.is_null(col))
        empty = is_null | (lens == 0)
        # python \w is unicode-aware; RE2's isn't — use \p classes
        punct_n = np.asarray(
            pc.fill_null(
                pc.count_substring_regex(col, r"[^\p{L}\p{N}_\s]"), 0),
            dtype=np.int64)
        toks = _token_lists(col)
        flat = toks.flatten()
        offsets = np.asarray(toks.offsets)
        valid = np.asarray(
            pc.fill_null(pc.greater(pc.utf8_length(flat), 0), False))
        totals = _segment_sums(valid.astype(np.int64), offsets)
        hits = np.asarray(
            pc.fill_null(pc.is_in(flat, value_set=self.stop_array), False))
        stop_n = _segment_sums(hits.astype(np.int64), offsets)

        safe_len = np.maximum(lens, 1)
        p = punct_n / safe_len
        s = np.where(totals > 0, stop_n / np.maximum(totals, 1), 0.0)
        # line-duplication: only documents containing newlines need the
        # per-document set path
        has_nl = np.asarray(
            pc.fill_null(pc.greater(pc.count_substring(col, "\n"), 0), False))
        d = np.zeros(n_rows)
        if has_nl.any():
            texts = col.to_pylist()
            for i in np.flatnonzero(has_nl):
                lines = [ln for ln in texts[i].splitlines() if ln.strip()]
                if lines:
                    d[i] = 1.0 - len(set(lines)) / len(lines)
        q = np.ones(n_rows)
        q = np.where((lens < 50) | (lens > 100_000), q * 0.5, q)
        q = np.where(p > 0.3, q * 0.5, q)
        q = np.where(s < 0.01, q * 0.7, q)
        q = q * (1.0 - d)
        q = np.where(empty, 0.0, q)

        def col_out(arr, as_ratio=True):
            vals = np.round(arr, 6)
            return pa.array(
                [None if empty[i] else float(vals[i]) for i in range(n_rows)],
                pa.float64())

        return (
            batch.append_column("q_len", pa.array(lens, pa.int64()))
            .append_column("q_punct_ratio", col_out(p))
            .append_column("q_stopword_ratio", col_out(s))
            .append_column("q_dup_line_ratio", col_out(d))
            .append_column("quality_score",
                           pa.array(np.round(q, 6), pa.float64()))
        )


def md5_fingerprint(batch: pa.Table, text_col: str = "text",
                    out_col: str = "fingerprint_md5") -> pa.Table:
    """md5 hexdigest fingerprint (DuckDB ``md5(text)``-compatible)."""
    out = [
        None if t is None else hashlib.md5(t.encode("utf-8")).hexdigest()
        for t in batch[text_col].to_pylist()
    ]
    return batch.append_column(out_col, pa.array(out, pa.string()))


def sha256_column(batch: pa.Table, text_col: str = "text",
                  out_col: str = "content_sha256") -> pa.Table:
    """sha256 hexdigest (DuckDB ``sha256(text)``-compatible) — the per-row
    invariant column (BASELINE.json)."""
    out = [
        None if t is None else hashlib.sha256(t.encode("utf-8")).hexdigest()
        for t in batch[text_col].to_pylist()
    ]
    return batch.append_column(out_col, pa.array(out, pa.string()))


_ROLL_BASE = np.uint64(1000003)


def rolling_fingerprint(values: Sequence[Optional[str]]) -> List[Optional[int]]:
    """Deterministic 63-bit polynomial rolling hash per document."""
    out: List[Optional[int]] = []
    mask = np.uint64(0x7FFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):  # uint64 wraparound IS the hash
        for t in values:
            if t is None:
                out.append(None)
                continue
            b = np.frombuffer(t.encode("utf-8"),
                              dtype=np.uint8).astype(np.uint64)
            h = np.uint64(5381)
            # vectorised Horner via precomputed powers in chunks
            for chunk in np.array_split(b, max(1, len(b) // 4096)):
                powers = np.empty(len(chunk), dtype=np.uint64)
                if len(chunk) == 0:
                    continue
                powers[0] = np.uint64(1)
                for i in range(1, len(chunk)):
                    powers[i] = powers[i - 1] * _ROLL_BASE
                base_pow = powers[-1] * _ROLL_BASE
                h = h * base_pow + (chunk[::-1] * powers).sum()
            out.append(int(h & mask))
    return out


# ---------------------------------------------------------------------------
# corpus-global term statistics + stopword scrub (round-2 additions)
# ---------------------------------------------------------------------------


def _space_token_lists(col) -> pa.ListArray:
    """Lower-cased split-on-single-space token lists (Arrow kernels only;
    matches DuckDB ``str_split(lower(text), ' ')`` exactly, including
    empty tokens from consecutive spaces)."""
    toks = pc.split_pattern(pc.utf8_lower(col), " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    return toks


def partial_doc_frequency(batch: pa.Table,
                          text_col: str = "text") -> pa.Table:
    """Within-batch combiner for global document frequency: distinct
    (row, term) pairs → one (term, partial_df) row per term per batch.

    Exact under any partitioning: a document is ONE row, and rows never
    split across batches, so summing per-batch distinct-doc counts per
    term is the true document frequency.  The shuffle moves only the
    per-batch vocabulary — never text."""
    toks = _space_token_lists(batch[text_col])
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks)
    t = pa.table({"term": flat, "rid": parent})
    t = t.filter(pc.not_equal(t["term"], ""))
    t = t.group_by(["rid", "term"]).aggregate([])      # distinct per doc
    agg = t.group_by(["term"]).aggregate([([], "count_all")])
    return pa.table({
        "term": agg["term"],
        "partial_df": pc.cast(agg["count_all"], pa.int64()),
    })


def term_doc_frequency(ds: "ray.data.Dataset", text_col: str = "text",
                       k: int = 20) -> "ray.data.Dataset":
    """Top-k corpus terms by document frequency (the IDF denominator —
    the classic vocabulary-aggregation wide step of a TF-IDF pipeline).

    per-batch combiner (:func:`partial_doc_frequency`) →
    ``groupby(term).sum`` → sort (df desc, term asc) → limit k.  The
    exchange carries (term, int64) pairs bounded by per-batch vocabulary;
    the final sort runs on the aggregated vocabulary table only.
    Deterministic tie-break on the term so the top-k SET matches the SQL
    oracle's ``ORDER BY df DESC, term``."""
    import ray.data  # noqa: F401  (type only)
    from ray.data.aggregate import Sum

    df = (
        ds.map_batches(lambda b: partial_doc_frequency(b, text_col),
                       batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("partial_df", alias_name="df"))
    )
    return df.sort(key=["df", "term"], descending=[True, False]).limit(k)


def remove_stopwords(batch: pa.Table, stopwords: Sequence[str] = ("a", "the"),
                     text_col: str = "text",
                     out_col: str = "text_clean") -> pa.Table:
    """Vectorized stopword scrub: drop exact-match tokens, re-join on
    single spaces — byte-parity with DuckDB's
    ``array_to_string(list_filter(str_split(text, ' '), x -> x NOT IN
    (...)), ' ')`` (empty tokens from repeated spaces survive on both
    sides).  Pure Arrow/numpy per batch: explode → membership mask →
    offset rebuild (bincount) → ``binary_join``."""
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pc.split_pattern(col, " ")  # case-preserving scrub
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = pc.list_flatten(toks)
    parent = np.asarray(pc.list_parent_indices(toks))
    keep = pc.invert(pc.is_in(flat, value_set=pa.array(list(stopwords))))
    keep_np = np.asarray(keep)
    counts = np.bincount(parent[keep_np], minlength=len(batch)) \
        if len(parent) else np.zeros(len(batch), dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    vals = flat.filter(keep)
    la = pa.ListArray.from_arrays(pa.array(offsets, pa.int64()), vals)
    joined = pc.binary_join(pc.cast(la, pa.list_(pa.string())), " ")
    joined = pc.if_else(pc.is_null(col), pa.scalar(None, pa.string()),
                        joined)
    return batch.append_column(out_col, joined)


def _term_frequencies(batch: pa.Table, text_col: str,
                      doc_id_col: str) -> pa.Table:
    """Exploded per-doc term frequencies for one batch: (doc_id, term, tf)
    with empty tokens dropped.  In-batch exact — a document is one row."""
    toks = _space_token_lists(batch[text_col])
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks)
    t = pa.table({"term": flat, "rid": parent})
    t = t.filter(pc.not_equal(t["term"], ""))
    tf = t.group_by(["rid", "term"]).aggregate([([], "count_all")])
    doc_ids = batch[doc_id_col]
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    return pa.table({
        "doc_id": doc_ids.take(tf["rid"]),
        "term": tf["term"],
        "tf": pc.cast(tf["count_all"], pa.int64()),
    })


def _topk_per_doc(doc_ids: np.ndarray, terms: np.ndarray,
                  tfidf: np.ndarray, top_k: int):
    """Vectorized per-doc top-k: lexsort by (doc, -tfidf, term), keep the
    first k rows of each doc run (tie-break on term matches the oracle's
    ``ORDER BY tfidf DESC, term``)."""
    order = np.lexsort((terms, -tfidf, doc_ids))
    d = doc_ids[order]
    starts = np.flatnonzero(np.concatenate([[True], d[1:] != d[:-1]]))
    run = np.arange(len(d)) - np.repeat(starts, np.diff(
        np.concatenate([starts, [len(d)]])))
    keep = order[run < top_k]
    rank = run[run < top_k] + 1
    return keep, rank


def tfidf_top_terms(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    doc_id_col: str = "doc_id",
    top_k: int = 3,
    vocab_broadcast_limit: int = 2_000_000,
    n_buckets: int = 64,
    min_df: int = 1,
) -> "ray.data.Dataset":
    """Top-k TF-IDF terms per document: ``tf · ln(N / df)`` with the
    oracle's exact float64 expression and (tfidf desc, term asc)
    tie-break.

    Two passes over the text, never shuffling it:

    1. global DF (per-batch vocabulary combiner → ``groupby(term).sum``)
       and N = row count;
    2. per-doc scoring — tf is in-batch exact (a document is one row).

    The DF side is applied by size (the ``curate``-style auto switch):

    - vocabulary ≤ ``vocab_broadcast_limit``: collected once into sorted
      numpy arrays, shipped via ``ray.put``, probed with searchsorted
      inside the scoring ``map_batches`` — no second shuffle;
    - larger vocabularies: the exploded (doc_id, term, tf) table joins DF
      through the engine's bucketed :func:`~xpshacl_ray.functions.joins.
      hash_join` on ``term``, then top-k per doc via a ``doc_id`` hash
      groupby — two bounded exchanges, no driver materialization.
    """
    import ray as _ray
    import ray.data  # noqa: F401
    from ray.data.aggregate import Sum

    df_tbl = (
        ds.map_batches(lambda b: partial_doc_frequency(b, text_col),
                       batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("partial_df", alias_name="df"))
    )
    if min_df > 1:
        # web-scale vocabulary prune: hapax/rare terms dominate the long
        # tail of a large corpus's vocabulary; dropping df < min_df
        # shrinks the broadcast table (or join exchange) by orders of
        # magnitude.  SEMANTIC CHANGE, opt-in: pruned terms become
        # unscorable and never rank (document the cutoff in results).
        df_tbl = df_tbl.filter(expr=f"df >= {int(min_df)}")
    df_tbl = df_tbl.materialize()
    n_docs = ds.count()
    vocab_n = df_tbl.count()

    out_schema = pa.schema([("doc_id", pa.int64()), ("term", pa.string()),
                            ("tfidf", pa.float64()),
                            ("rank", pa.int64())])

    if vocab_n <= vocab_broadcast_limit:
        rows = df_tbl.take_all()
        terms_sorted = np.array(sorted(r["term"] for r in rows), dtype=object)
        df_map = {r["term"]: r["df"] for r in rows}
        dfs_sorted = np.array([df_map[t] for t in terms_sorted],
                              dtype=np.float64)
        ref = _ray.put((pa.array(terms_sorted.tolist(), pa.string()),
                        dfs_sorted))

        def score(batch: pa.Table) -> pa.Table:
            terms_pa, dfs_s = _ray.get(ref)
            tf = _term_frequencies(batch, text_col, doc_id_col)
            if tf.num_rows == 0:
                return out_schema.empty_table()
            t_np = tf["term"].to_numpy(zero_copy_only=False)
            # Arrow hash-probe (C kernel) instead of an object-array
            # searchsorted whose comparisons are per-element Python
            idx_arr = pc.index_in(tf["term"], value_set=terms_pa)
            hit = np.asarray(pc.is_valid(idx_arr))
            idx = np.asarray(pc.fill_null(idx_arr, 0), dtype=np.int64)
            # every batch term is in the global vocabulary when ds is
            # deterministic; the hit mask guards re-execution divergence
            # (nondeterministic upstream) from reading a wrong df —
            # unseen terms are unscorable and dropped
            tf = tf.filter(pa.array(hit))
            if tf.num_rows == 0:
                return out_schema.empty_table()
            t_np = t_np[hit]
            dfv = dfs_s[idx[hit]]
            tfv = np.asarray(tf["tf"], dtype=np.float64)
            tfidf = tfv * np.log(np.float64(n_docs) / dfv)
            doc_np = np.asarray(tf["doc_id"], dtype=np.int64)
            keep, rank = _topk_per_doc(doc_np, t_np, tfidf, top_k)
            return pa.table({
                "doc_id": pa.array(doc_np[keep], pa.int64()),
                "term": pa.array(t_np[keep].tolist(), pa.string()),
                "tfidf": pa.array(tfidf[keep], pa.float64()),
                "rank": pa.array(rank, pa.int64()),
            })

        return ds.map_batches(score, batch_format="pyarrow")

    # big-vocabulary path: bucketed join + per-doc groupby
    from .joins import hash_join

    tf_ds = ds.map_batches(
        lambda b: _term_frequencies(b, text_col, doc_id_col),
        batch_format="pyarrow")
    joined = hash_join(tf_ds, df_tbl, key="term", n_buckets=n_buckets)

    def score_group(g) -> "pa.Table":
        import pandas as pd

        tfidf = g["tf"].to_numpy(np.float64) * np.log(
            np.float64(n_docs) / g["df"].to_numpy(np.float64))
        keep, rank = _topk_per_doc(g["doc_id"].to_numpy(np.int64),
                                   g["term"].to_numpy(object), tfidf, top_k)
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64)[keep],
            "term": g["term"].to_numpy(object)[keep],
            "tfidf": tfidf[keep],
            "rank": rank,
        })

    return joined.groupby("doc_id").map_groups(score_group,
                                               batch_format="pandas")


# --- PII redaction ----------------------------------------------------------

# (name, RE2 pattern, replacement token).  RE2 syntax only — the same
# literal patterns run under pyarrow.compute (RE2) here and DuckDB
# ``regexp_replace`` (also RE2) in the oracle, so redaction is
# byte-for-byte comparable.  Order matters (applied top to bottom; the
# replacement tokens contain no digits so no chain re-triggering).
PII_PATTERNS: tuple = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IPV4>"),
    ("ssn", r"\b\d{3}-\d{2}-\d{4}\b", "<SSN>"),
    ("phone", r"\b\d{3}-\d{3}-\d{4}\b", "<PHONE>"),
)


def redact_pii(batch: pa.Table, text_col: str = "text",
               out_col: str = "text_redacted") -> pa.Table:
    """Redact PII (emails, IPv4s, SSNs, US phone numbers) from a text
    column — the scrubbing pass of a training-data curation pipeline.

    Fully vectorized: one ``replace_substring_regex`` kernel per class,
    chained in ``PII_PATTERNS`` order, plus a per-class match count
    (``pii_<name>_n``, counted on the ORIGINAL text).  Row-local — no
    shuffle, streams at read speed; safe at any scale.

    Reference scope note: the reference engine has no PII pass; this is
    part of the LLM-training-data operator family the engine adds
    (SURVEY.md §2 addendum).
    """
    col = batch[text_col]
    out = col
    counts = []
    for _name, pat, repl in PII_PATTERNS:
        counts.append(pc.fill_null(pc.count_substring_regex(col, pat), 0))
        out = pc.replace_substring_regex(out, pat, repl)
    t = batch.append_column(out_col, out)
    for (name, _, _), c in zip(PII_PATTERNS, counts):
        t = t.append_column(f"pii_{name}_n", pc.cast(c, pa.int64()))
    return t


def _partial_term_counts(batch: pa.Table, text_col: str,
                         capacity: int) -> pa.Table:
    """Pass-1 combiner for heavy hitters: exact within-batch term counts
    folded into one serialized Misra–Gries blob per batch — the exchange
    carries ≤ capacity (term, count) pairs per batch, never text."""
    from xpshacl_ray.functions.sketches import MisraGries

    toks = _space_token_lists(batch[text_col])
    flat = pc.list_flatten(toks)
    t = pa.table({"term": flat}).filter(pc.not_equal(flat, ""))
    agg = t.group_by(["term"]).aggregate([([], "count_all")])
    mg = MisraGries(capacity=capacity)
    mg.add_counts(agg["term"].to_pylist(),
                  np.asarray(agg["count_all"], dtype=np.int64))
    return pa.table({"mg": pa.array([mg.to_bytes()], pa.binary()),
                     "n_tokens": pa.array([mg.n_total], pa.int64())})


def heavy_hitter_terms(ds: "ray.data.Dataset",
                       threshold_frac: float = 0.001,
                       capacity: int = 4096,
                       text_col: str = "text") -> "ray.data.Dataset":
    """EXACT corpus-wide heavy-hitter terms (count ≥ threshold_frac · N)
    in two streaming passes — no full-vocabulary shuffle.

    Pass 1 folds each batch into a Misra–Gries summary (mergeable,
    ≤ ``capacity`` entries) and merges the per-batch blobs on the driver
    (bytes moved: ~capacity × n_batches entries).  The MG guarantee makes
    the merged sketch's ``candidates()`` a SUPERSET of the true heavy
    hitters whenever ``threshold > error_bound()`` — verified at runtime;
    if the corpus is too adversarial for the capacity (error bound ≥
    threshold) the operator raises with the capacity needed rather than
    silently returning approximate counts.  Pass 2 re-scans the corpus
    counting ONLY the candidate terms (closure-broadcast value set,
    ≤ capacity strings) and sums per-batch partials with a bounded
    groupby (≤ capacity keys), so the final counts are exact.

    At 100 TB: pass 1's exchange is independent of corpus size
    (one blob per batch); pass 2's groupby moves ≤ capacity × n_batches
    short rows.  Tokenization matches DuckDB
    ``str_split(lower(text), ' ')`` for oracle parity.
    """
    import ray.data

    from xpshacl_ray.functions.sketches import MisraGries

    parts = ds.map_batches(
        lambda b: _partial_term_counts(b, text_col, capacity),
        batch_format="pyarrow").take_all()
    mg = MisraGries.merge_many([p["mg"] for p in parts])
    n_tokens = sum(p["n_tokens"] for p in parts)
    min_count = threshold_frac * n_tokens
    if n_tokens == 0:
        return ray.data.from_arrow(pa.table(
            {"term": pa.array([], pa.string()),
             "n_occurrences": pa.array([], pa.int64())}))
    if mg.error_bound() >= min_count:
        raise ValueError(
            f"MisraGries capacity {capacity} too small for "
            f"threshold_frac={threshold_frac} (error bound "
            f"{mg.error_bound()} >= min_count {min_count:.1f}); "
            f"raise capacity above ~{int(1 / threshold_frac)}")
    cand = pa.array(mg.candidates(min_count), pa.string())

    def count_candidates(b: pa.Table) -> pa.Table:
        toks = _space_token_lists(b[text_col])
        flat = pc.list_flatten(toks)
        keep = pc.and_(pc.not_equal(flat, ""),
                       pc.is_in(flat, value_set=cand))
        t = pa.table({"term": flat}).filter(pc.fill_null(keep, False))
        agg = t.group_by(["term"]).aggregate([([], "count_all")])
        return pa.table({"term": agg["term"],
                         "n": pc.cast(agg["count_all"], pa.int64())})

    def finish(b: pa.Table) -> pa.Table:
        n = pc.cast(b["sum(n)"], pa.int64())
        t = pa.table({"term": b["term"], "n_occurrences": n})
        return t.filter(pc.greater_equal(pc.cast(n, pa.float64()),
                                         min_count))

    return (ds.map_batches(count_candidates, batch_format="pyarrow")
              .groupby("term").sum("n")
              .map_batches(finish, batch_format="pyarrow"))


def _term_doc_pairs(batch: pa.Table, text_col: str,
                    doc_id_col: str) -> pa.Table:
    """Distinct (term, doc_id) pairs for one batch — the posting-list
    shuffle input.  Exact under any partitioning (a document is one row);
    text itself never enters the exchange."""
    toks = _space_token_lists(batch[text_col])
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks)
    t = pa.table({"term": flat, "rid": parent})
    t = t.filter(pc.not_equal(t["term"], ""))
    t = t.group_by(["rid", "term"]).aggregate([])
    ids = batch[doc_id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    return pa.table({
        "term": t["term"],
        "doc_id": pc.cast(ids.take(t["rid"]), pa.int64()),
    })


def inverted_index(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    doc_id_col: str = "doc_id",
    min_df: int = 1,
    max_df: Optional[int] = None,
    vocab_broadcast_limit: int = 2_000_000,
    n_buckets: int = 64,
) -> "ray.data.Dataset":
    """Posting-list index build: one row per term — ``(term, df,
    postings)`` with ``postings`` the SORTED list<int64> of doc_ids
    containing the term.

    Two passes, text never shuffled:

    1. global DF (:func:`partial_doc_frequency` combiner →
       ``groupby(term).sum``) — (term, int64) rows only;
    2. distinct (term, doc_id) pairs, FILTERED to the ``[min_df,
       max_df]`` band BEFORE the posting shuffle, then
       ``groupby(term).map_groups`` assembling each sorted list.

    The df band is the skew control, applied up front by design:
    stopword-tier terms (df ≈ corpus size) are exactly the groups that
    would dwarf a `map_groups` task AND the terms an index is useless
    for — ``max_df`` prunes them before their pairs ever enter the
    exchange (standard IR vocabulary pruning).  The band-vocabulary side
    is broadcast via ``ray.put`` when ≤ ``vocab_broadcast_limit`` terms,
    else bucketed-joined (``functions.joins.hash_join``) — the same
    auto-switch as :func:`tfidf_top_terms`.  At 100 TB each term group
    must fit one task: cap it with ``max_df`` (a posting list a task
    can't hold is a term no lookup wants)."""
    import ray as _ray
    import ray.data  # noqa: F401
    from ray.data.aggregate import Sum

    pairs_ds = ds.map_batches(
        lambda b: _term_doc_pairs(b, text_col, doc_id_col),
        batch_format="pyarrow")

    if min_df > 1 or max_df is not None:
        df_tbl = (
            ds.map_batches(lambda b: partial_doc_frequency(b, text_col),
                           batch_format="pyarrow")
            .groupby("term")
            .aggregate(Sum("partial_df", alias_name="df"))
        )
        lo = int(min_df)
        hi = int(max_df) if max_df is not None else (1 << 62)
        kept = df_tbl.filter(expr=f"df >= {lo} and df <= {hi}").materialize()
        if kept.count() <= vocab_broadcast_limit:
            terms = pa.array(
                sorted(r["term"] for r in kept.take_all()), pa.string())
            ref = _ray.put(terms)

            def band_filter(b: pa.Table) -> pa.Table:
                vocab = _ray.get(ref)
                return b.filter(pc.fill_null(
                    pc.is_in(b["term"], value_set=vocab), False))

            pairs_ds = pairs_ds.map_batches(band_filter,
                                            batch_format="pyarrow")
        else:
            from .joins import hash_join

            pairs_ds = hash_join(
                pairs_ds,
                kept.map_batches(
                    lambda b: pa.table({"term": b["term"]}),
                    batch_format="pyarrow"),
                key="term", n_buckets=n_buckets,
            ).select_columns(["term", "doc_id"])

    # term-bucket shuffle + ONE vectorized sweep per partition — not
    # groupby(term).map_groups, which pays a Python roundtrip per TERM
    # (millions of calls on a web-scale vocabulary).  Same partitioning
    # shape as sessionize: all pairs of a term land in one partition,
    # assembly is a lexsort + run-length split + ListArray offsets.
    from .sketches import hash64

    n_parts = int(n_buckets)

    def tag(b: pa.Table) -> pa.Table:
        part = (hash64(b["term"].to_numpy(zero_copy_only=False))
                % n_parts).astype(np.int32)
        return b.append_column("__part__", pa.array(part))

    def assemble_partition(g: "pd.DataFrame") -> pa.Table:
        if len(g) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64()),
                             "postings": pa.array([], pa.list_(pa.int64()))})
        terms = g["term"].to_numpy(dtype=object)
        ids = g["doc_id"].to_numpy(dtype=np.int64)
        order = np.lexsort((ids, terms))
        t_s, i_s = terms[order], ids[order]
        # drop duplicate (term, doc_id) pairs surviving cross-batch
        dup = np.concatenate(
            [[False], (t_s[1:] == t_s[:-1]) & (i_s[1:] == i_s[:-1])])
        t_s, i_s = t_s[~dup], i_s[~dup]
        new_term = np.concatenate([[True], t_s[1:] != t_s[:-1]])
        starts = np.flatnonzero(new_term)
        offsets = np.concatenate([starts, [len(i_s)]])
        return pa.table({
            "term": pa.array(t_s[starts], pa.string()),
            "df": pa.array(np.diff(offsets), pa.int64()),
            "postings": pa.ListArray.from_arrays(
                pa.array(offsets, pa.int64()),
                pa.array(i_s, pa.int64())),
        })

    return (pairs_ds.map_batches(tag, batch_format="pyarrow")
            .groupby("__part__")
            .map_groups(
                lambda g: assemble_partition(g.drop(columns="__part__")),
                batch_format="pandas"))


def partial_term_counts(batch: pa.Table,
                        text_col: str = "text") -> pa.Table:
    """Per-batch unigram OCCURRENCE counts (term, n) — the combiner for
    corpus-LM builds (cf. :func:`partial_doc_frequency`, which counts
    distinct DOCS per term instead)."""
    toks = _space_token_lists(batch[text_col])
    flat = pc.list_flatten(toks)
    t = pa.table({"term": flat}).filter(pc.not_equal(flat, ""))
    agg = t.group_by(["term"]).aggregate([([], "count_all")])
    return pa.table({"term": agg["term"],
                     "n": pc.cast(agg["count_all"], pa.int64())})


def unigram_logprob(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    doc_id_col: str = "doc_id",
    vocab_broadcast_limit: int = 2_000_000,
    append: bool = False,
) -> "ray.data.Dataset":
    """Per-document average unigram log-probability under the corpus's
    own unigram LM — the standard cheap perplexity proxy for quality
    gating (docs of rare/garbled tokens score low).

    score(d) = Σ_t tf(d,t)·ln(count(t)/T) / len(d), with count(t) the
    corpus occurrence count and T total tokens.

    ``append=True`` keeps every input column and appends
    (n_tokens, avg_logprob) — the gating form: a downstream filter needs
    no join back to the documents.

    Pass 1 builds the LM: per-batch term-count combiner →
    ``groupby(term).sum`` — the exchange carries (term, int64) only.
    Pass 2 scores by vocabulary size (the ``tfidf_top_terms`` auto
    switch):

    - ≤ ``vocab_broadcast_limit`` distinct terms: the vocabulary
      (sorted term array + counts) ships once via ``ray.put`` and every
      batch probes it with searchsorted — no join shuffle, text never
      moves;
    - larger vocabularies: the exploded (doc_id, term, tf) rows join
      the count table through the engine's bucketed
      :func:`~xpshacl_ray.functions.joins.hash_join` on ``term``, then
      one ``doc_id`` groupby sums contributions — two bounded
      (term/int exchanges, no text) shuffles, no driver vocabulary.
      Zero-token documents still emit (n_tokens=0) rows: a slim
      all-docs zero table unions into the groupby.  The join path
      assumes doc ids are unique (a document is one row — the same
      contract the broadcast path's in-batch tf relies on).

    Scoring is exact for any partitioning; per-term log-probabilities
    are computed with the identical float64 expression on both paths
    (only the per-doc summation order differs)."""
    import ray as _ray
    from ray.data.aggregate import Sum

    lm = (ds.map_batches(
        lambda b: partial_term_counts(b, text_col),
        batch_format="pyarrow")
          .groupby("term").aggregate(Sum("n", alias_name="n"))
          .materialize())
    vocab_n = lm.count()
    if vocab_n > vocab_broadcast_limit:
        return _unigram_logprob_join(ds, lm, text_col, doc_id_col, append)
    rows = lm.take_all()
    terms = np.array(sorted(r["term"] for r in rows), dtype=object)
    cmap = {r["term"]: r["n"] for r in rows}
    cnts = np.array([cmap[t] for t in terms], dtype=np.float64)
    total = float(cnts.sum())
    ref = _ray.put((pa.array(terms, pa.string()),
                    np.log(cnts / total) if total else cnts))

    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("n_tokens", pa.int64()),
                            ("avg_logprob", pa.float64())])

    def score(b: pa.Table) -> pa.Table:
        terms_s, logp_s = _ray.get(ref)
        tf = _term_frequencies(b, text_col, doc_id_col)
        ids = b[doc_id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ids_np = np.asarray(pc.cast(ids, pa.int64()))
        if tf.num_rows == 0:
            # a batch of only zero-token docs still emits its rows
            # (n_tokens=0) — dropping them would make the output depend
            # on block layout
            zeros_i = pa.array(np.zeros(len(ids_np), np.int64))
            zeros_f = pa.array(np.zeros(len(ids_np)))
            if append:
                return b.append_column("n_tokens", zeros_i) \
                        .append_column("avg_logprob", zeros_f)
            return pa.table({
                "doc_id": pa.array(ids_np, pa.int64()),
                "n_tokens": zeros_i,
                "avg_logprob": zeros_f,
            }).cast(out_schema)
        # Arrow hash-probe (C, no per-string Python compare); null idx =
        # term unseen in the LM — only possible under nondeterministic
        # re-execution; such tokens contribute nothing
        idx_arr = pc.index_in(tf["term"], value_set=terms_s)
        hit = np.asarray(pc.is_valid(idx_arr))
        idx = np.asarray(pc.fill_null(idx_arr, 0), dtype=np.int64)
        tfv = np.asarray(tf["tf"], dtype=np.float64) * hit
        contrib = tfv * np.where(hit, logp_s[idx], 0.0)
        did = np.asarray(pc.cast(tf["doc_id"], pa.int64()))
        pos = np.searchsorted(np.sort(ids_np), did)
        order = np.argsort(ids_np)
        sums = np.zeros(len(ids_np)); ntok = np.zeros(len(ids_np))
        np.add.at(sums, order[pos], contrib)
        np.add.at(ntok, order[pos], tfv)
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(ntok > 0, sums / ntok, 0.0)
        if append:  # batch order is preserved: per-row alignment holds
            return b.append_column(
                "n_tokens", pa.array(ntok.astype(np.int64), pa.int64())
            ).append_column("avg_logprob", pa.array(avg, pa.float64()))
        return pa.table({
            "doc_id": pa.array(ids_np, pa.int64()),
            "n_tokens": pa.array(ntok.astype(np.int64), pa.int64()),
            "avg_logprob": pa.array(avg, pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def _unigram_logprob_join(
    ds: "ray.data.Dataset",
    lm: "ray.data.Dataset",
    text_col: str,
    doc_id_col: str,
    append: bool,
) -> "ray.data.Dataset":
    """Big-vocabulary scoring path for :func:`unigram_logprob`
    (VERDICT r3 item 4): bucketed ``hash_join`` of the exploded
    (doc_id, term, tf) rows against the aggregated (term, n) LM table,
    then one doc_id groupby — nothing broadcasts, nothing
    driver-materializes.  ``append=True`` joins the slim score table
    back to the input on ``doc_id_col`` (one extra bucketed exchange of
    the full rows — unavoidable without a broadcastable score side).
    Doc ids must be int64-castable — the same contract the broadcast
    path's non-append output already imposes."""
    from ray.data.aggregate import Sum

    from .joins import hash_join

    total = float(lm.sum("n") or 0)

    tf_ds = ds.map_batches(
        lambda b: _term_frequencies(b, text_col, doc_id_col),
        batch_format="pyarrow")
    joined = hash_join(tf_ds, lm, key="term")

    def contrib(b: pa.Table) -> pa.Table:
        tfv = np.asarray(b["tf"], dtype=np.float64)
        nv = np.asarray(b["n"], dtype=np.float64)
        # identical float64 expression to the broadcast probe's
        # np.log(cnts / total) — path parity up to summation order
        logp = np.log(nv / total) if total else np.zeros(len(nv))
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "sum_lp": pa.array(tfv * logp, pa.float64()),
            "n_tok": pa.array(tfv, pa.float64()),
        })

    def zero_rows(b: pa.Table) -> pa.Table:
        # every doc gets a (0, 0) seed row so zero-token documents
        # survive the inner join + groupby (output must not depend on
        # which docs happen to tokenize empty)
        ids = b[doc_id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        z = np.zeros(len(ids), dtype=np.float64)
        return pa.table({
            "doc_id": pc.cast(ids, pa.int64()),
            "sum_lp": pa.array(z, pa.float64()),
            "n_tok": pa.array(z, pa.float64()),
        })

    per_doc = (
        joined.map_batches(contrib, batch_format="pyarrow")
        .union(ds.map_batches(zero_rows, batch_format="pyarrow"))
        .groupby("doc_id")
        .aggregate(Sum("sum_lp", alias_name="sum_lp"),
                   Sum("n_tok", alias_name="n_tok")))

    def finish(b: pa.Table) -> pa.Table:
        s = np.asarray(b["sum_lp"], dtype=np.float64)
        nt = np.asarray(b["n_tok"], dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(nt > 0, s / np.maximum(nt, 1.0), 0.0)
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "n_tokens": pa.array(nt.astype(np.int64), pa.int64()),
            "avg_logprob": pa.array(avg, pa.float64()),
        })

    scored = per_doc.map_batches(finish, batch_format="pyarrow")
    if not append:
        return scored
    if doc_id_col != "doc_id":
        scored = scored.map_batches(
            lambda b: b.rename_columns(
                [doc_id_col, "n_tokens", "avg_logprob"]),
            batch_format="pyarrow")
    return hash_join(ds, scored, key=doc_id_col)


def char_entropy(batch: pa.Table, text_col: str = "text",
                 doc_id_col: str = "doc_id") -> pa.Table:
    """Per-document Shannon entropy over codepoints (bits/char) — a
    cheap garbled-text / binary-spill detector: natural language sits
    ~3.5–4.5 bits, base64 blobs and key-mashing score high, repeated
    filler scores near 0.

    Row-local (map-only, no shuffle) and fully vectorized per batch:
    one UTF-32 decode of the concatenated batch text, one lexsort over
    (doc, codepoint), run-length counts, then
    ``H = log2(n) − Σ c·log2(c) / n`` per doc via ``np.add.at`` —
    no per-character Python."""
    txt = batch[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    ids = batch[doc_id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    texts = ["" if t is None else t for t in txt.to_pylist()]
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    ids_np = np.asarray(pc.cast(ids, pa.int64()))
    out_ids, out_n, out_h = ids_np, lens, np.zeros(len(lens))
    if lens.sum() > 0:
        flat = np.frombuffer("".join(texts).encode("utf-32-le"),
                             dtype=np.uint32)
        doc = np.repeat(np.arange(len(lens)), lens)
        order = np.lexsort((flat, doc))
        fs, ds_ = flat[order], doc[order]
        new_run = np.concatenate(
            [[True], (fs[1:] != fs[:-1]) | (ds_[1:] != ds_[:-1])])
        starts = np.flatnonzero(new_run)
        run_len = np.diff(np.concatenate([starts, [len(fs)]]))
        run_doc = ds_[starts]
        s = np.zeros(len(lens))
        np.add.at(s, run_doc, run_len * np.log2(run_len))
        with np.errstate(invalid="ignore", divide="ignore"):
            out_h = np.where(lens > 0, np.log2(
                np.maximum(lens, 1)) - s / np.maximum(lens, 1), 0.0)
    return pa.table({
        "doc_id": pa.array(out_ids, pa.int64()),
        "n_chars_text": pa.array(out_n, pa.int64()),
        "entropy": pa.array(out_h, pa.float64()),
    })


def bigram_pmi(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    min_count: int = 5,
    top_k: int = 20,
    vocab_broadcast_limit: int = 2_000_000,
) -> "ray.data.Dataset":
    """Top-k adjacent-token collocations by pointwise mutual information:
    ``pmi = ln((c12/T12) / ((c1/T1)·(c2/T1)))`` with c12 the corpus
    bigram count, c1/c2 unigram counts, T the respective totals —
    the classic phrase-mining / tokenizer-merge signal.

    One pass over text: each batch emits per-batch bigram counts
    (vectorized — tokens shifted against themselves, doc-boundary and
    empty-token pairs masked) AND per-batch unigram counts; each
    aggregates in its own small ``groupby(key).sum`` exchange carrying
    (term(s), int64) rows only.  Scoring picks its path by unigram
    vocabulary size (the ``tfidf_top_terms`` auto switch): ≤
    ``vocab_broadcast_limit`` terms broadcast via ``ray.put`` and score
    the aggregated bigram table map-side; larger vocabularies join the
    (min_count-pruned) bigram table against the unigram counts twice —
    once per endpoint — through the bucketed ``hash_join``, with the
    identical pmi float64 expression.  Totals are two tiny ``sum``
    aggregates.  ``min_count`` prunes noise collocations before
    ranking; the final sort runs on the min_count-surviving vocabulary
    only."""
    import ray as _ray
    from ray.data.aggregate import Sum

    def bigrams(b: pa.Table) -> pa.Table:
        toks = _space_token_lists(b[text_col])
        flat = pc.list_flatten(toks)
        parent = np.asarray(pc.list_parent_indices(toks))
        w = np.asarray(flat.to_pylist(), dtype=object)
        if len(w) < 2:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        same_doc = parent[1:] == parent[:-1]
        nonempty = (w[1:] != "") & (w[:-1] != "")
        m = same_doc & nonempty
        t = pa.table({"w1": pa.array(w[:-1][m], pa.string()),
                      "w2": pa.array(w[1:][m], pa.string())})
        agg = t.group_by(["w1", "w2"]).aggregate([([], "count_all")])
        return pa.table({"w1": agg["w1"], "w2": agg["w2"],
                         "n": pc.cast(agg["count_all"], pa.int64())})

    bg = (ds.map_batches(bigrams, batch_format="pyarrow")
          .groupby(["w1", "w2"]).aggregate(Sum("n", alias_name="c12"))
          .materialize())
    ug = (ds.map_batches(
        lambda b: partial_term_counts(b, text_col),
        batch_format="pyarrow")
          .groupby("term").aggregate(Sum("n", alias_name="c"))
          .materialize())
    t12 = bg.sum("c12") or 0
    t1 = float(ug.sum("c") or 0)
    if ug.count() > vocab_broadcast_limit:
        return _bigram_pmi_join(bg, ug, t12, t1, min_count, top_k)
    rows = ug.take_all()
    terms = np.array(sorted(r["term"] for r in rows), dtype=object)
    cmap = {r["term"]: r["c"] for r in rows}
    cnts = np.array([cmap[t] for t in terms], dtype=np.float64)
    ref = _ray.put((pa.array(terms, pa.string()), cnts))
    mc = int(min_count)

    def score(b: pa.Table) -> pa.Table:
        terms_s, cnts_s = _ray.get(ref)
        keep = pc.greater_equal(b["c12"], mc)
        t = b.filter(keep)
        if t.num_rows == 0:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "c12": pa.array([], pa.int64()),
                             "pmi": pa.array([], pa.float64())})
        c12 = np.asarray(t["c12"], dtype=np.float64)
        # Arrow hash-probe; every bigram endpoint is in the unigram
        # vocabulary by construction (same tokenization, non-empty)
        i1 = np.asarray(pc.index_in(t["w1"], value_set=terms_s),
                        dtype=np.int64)
        i2 = np.asarray(pc.index_in(t["w2"], value_set=terms_s),
                        dtype=np.int64)
        c1, c2 = cnts_s[i1], cnts_s[i2]
        pmi = np.log((c12 / t12) / ((c1 / t1) * (c2 / t1)))
        return pa.table({"w1": t["w1"], "w2": t["w2"],
                         "c12": pc.cast(t["c12"], pa.int64()),
                         "pmi": pa.array(pmi, pa.float64())})

    return (bg.map_batches(score, batch_format="pyarrow")
            .sort(key=["pmi", "w1", "w2"], descending=[True, False, False])
            .limit(top_k))


def _bigram_pmi_join(
    bg: "ray.data.Dataset",
    ug: "ray.data.Dataset",
    t12: float,
    t1: float,
    min_count: int,
    top_k: int,
) -> "ray.data.Dataset":
    """Big-vocabulary scoring path for :func:`bigram_pmi` (VERDICT r3
    item 4): the aggregated bigram table — pruned to ``c12 >=
    min_count`` FIRST, so the exchanges carry only rank candidates —
    joins the unigram count table twice through the bucketed
    ``hash_join``, once per endpoint.  The pmi float64 expression is
    identical to the broadcast probe's, so the two paths agree
    bit-for-bit per row; the final (pmi desc, w1, w2) sort normalizes
    row order."""
    from .joins import hash_join

    kept = bg.filter(expr=f"c12 >= {int(min_count)}")
    u1 = ug.map_batches(
        lambda b: pa.table({"w1": b["term"], "c1": b["c"]}),
        batch_format="pyarrow")
    u2 = ug.map_batches(
        lambda b: pa.table({"w2": b["term"], "c2": b["c"]}),
        batch_format="pyarrow")
    j = hash_join(hash_join(kept, u1, key="w1"), u2, key="w2")

    def score(b: pa.Table) -> pa.Table:
        c12 = np.asarray(b["c12"], dtype=np.float64)
        c1 = np.asarray(b["c1"], dtype=np.float64)
        c2 = np.asarray(b["c2"], dtype=np.float64)
        pmi = np.log((c12 / t12) / ((c1 / t1) * (c2 / t1)))
        return pa.table({"w1": b["w1"], "w2": b["w2"],
                         "c12": pc.cast(b["c12"], pa.int64()),
                         "pmi": pa.array(pmi, pa.float64())})

    return (j.map_batches(score, batch_format="pyarrow")
            .sort(key=["pmi", "w1", "w2"], descending=[True, False, False])
            .limit(top_k))


def normalize_text(
    batch: pa.Table,
    text_col: str = "text",
    out_col: str = "text_norm",
    lowercase: bool = False,
) -> pa.Table:
    """Canonical text normalization (map-only, all Arrow/RE2 kernels):
    NFC unicode normalization → control chars (C0 + DEL) to spaces →
    whitespace runs collapsed to one space → trim.  Byte-parity with
    DuckDB ``trim(regexp_replace(regexp_replace(nfc_normalize(text),
    '[\\x00-\\x1f\\x7f]', ' ', 'g'), '\\s+', ' ', 'g'))`` — both engines
    run RE2, so the character classes agree exactly."""
    import unicodedata

    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # NFC: pyarrow's utf8_normalize does not COMPOSE in this build
    # (e + U+0301 stays decomposed under form="NFC"), so composition
    # falls back to unicodedata — but only for the non-ASCII minority:
    # ASCII is NFC-invariant, and codeunits == codepoints detects it
    # vectorized (binary_length == utf8_length).
    ascii_mask = pc.equal(pc.binary_length(col), pc.utf8_length(col))
    if not pc.min(pc.fill_null(ascii_mask, True)).as_py():
        vals = col.to_pylist()
        mask_np = np.asarray(pc.fill_null(ascii_mask, True))
        s = pa.array(
            [v if v is None or m else unicodedata.normalize("NFC", v)
             for v, m in zip(vals, mask_np)], pa.string())
    else:
        s = col
    s = pc.replace_substring_regex(s, r"[\x00-\x1f\x7f]", " ")
    s = pc.replace_substring_regex(s, r"\s+", " ")
    s = pc.utf8_trim(s, " ")
    if lowercase:
        s = pc.utf8_lower(s)
    return batch.append_column(out_col, s)


def feature_hash(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    doc_id_col: str = "doc_id",
    n_buckets: int = 64,
) -> "ray.data.Dataset":
    """Hashing-trick sparse features: (doc_id, bucket, count) with
    ``bucket = md5(term) % n_buckets`` — the fixed-width, vocabularyless
    featurization for linear classifiers / dedup sketches at corpus
    scale (no global vocabulary pass, no shuffle: a document is one row,
    so its sparse vector assembles entirely in-batch).

    md5 (not a fast noncryptographic hash) so the SAME bucket assignment
    is reproducible by any downstream consumer or SQL engine
    (``CAST(('0x' || substr(md5(term),1,8)) AS BIGINT) % n``).  The
    per-batch md5 cost is amortized over the batch VOCABULARY (each
    distinct term hashed once, then joined back positionally), not per
    token."""
    import hashlib as _hl

    def feats(b: pa.Table) -> pa.Table:
        tf = _term_frequencies(b, text_col, doc_id_col)
        if tf.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64()),
                             "count": pa.array([], pa.int64())})
        terms = tf["term"]
        vocab = pc.unique(terms)
        vmap = {
            t: int(_hl.md5(t.encode("utf-8")).hexdigest()[:8], 16)
            % n_buckets
            for t in vocab.to_pylist()
        }
        buckets = np.array([vmap[t] for t in terms.to_pylist()],
                           dtype=np.int64)
        t = pa.table({
            "doc_id": tf["doc_id"],
            "bucket": pa.array(buckets, pa.int64()),
            "count": tf["tf"],
        })
        agg = t.group_by(["doc_id", "bucket"]).aggregate([("count", "sum")])
        return pa.table({"doc_id": agg["doc_id"], "bucket": agg["bucket"],
                         "count": pc.cast(agg["count_sum"], pa.int64())})

    return ds.map_batches(feats, batch_format="pyarrow")


def filter_badwords(
    ds: "ray.data.Dataset",
    words: Sequence[str],
    text_col: str = "text",
    max_hits: int = 0,
) -> "ray.data.Dataset":
    """Token-blocklist document filter (the C4-style "bad words" gate):
    keep a document iff it contains at most ``max_hits`` blocklisted
    TOKENS (exact lower-cased token match — substring matching would
    drop 'class' for 'ass'; token semantics are the defensible ones).

    Map-only and fully vectorized: one flatten + ``is_in`` membership
    over the batch's token array, per-doc hit counts by segment sum
    over the list offsets — no per-doc Python, text never shuffles.
    Null texts are kept (unscannable ≠ flagged; filter them upstream if
    the corpus contract requires text)."""
    vocab = pa.array(sorted({w.lower() for w in words}), pa.string())

    def keep(b: pa.Table) -> pa.Table:
        toks = _space_token_lists(b[text_col])
        flat = pc.list_flatten(toks)
        parent = np.asarray(pc.list_parent_indices(toks))
        hit = np.asarray(pc.fill_null(
            pc.is_in(flat, value_set=vocab), False))
        hits = np.bincount(parent[hit], minlength=len(b)) if len(parent) \
            else np.zeros(len(b), dtype=np.int64)
        return b.filter(pa.array(hits <= max_hits))

    return ds.map_batches(keep, batch_format="pyarrow")


def token_dropout(batch: pa.Table, rate_pct: int = 10,
                  text_col: str = "text", id_col: str = "doc_id",
                  salt: str = "") -> pa.Table:
    """Deterministic token-dropout augmentation: token ``i`` of doc
    ``d`` is dropped iff ``md5(salt + d + ':' + i) % 100 < rate_pct`` —
    reproducible across re-runs/resumes/repartitions and replayable in
    SQL (the augmentation equivalent of the md5 sampling family).

    Row-local map stage, no shuffle.  Tokens are the raw single-space
    split (empties kept, like the stopword scrub) and survivors re-join
    on single spaces; NULL text stays NULL.  The per-token md5 is the
    price of SQL-grade reproducibility — swap the keep-mask for a
    vectorized ``hash64`` when auditability can be dropped.

    Output: ``doc_id, text_aug, n_tokens, n_dropped``.
    """
    import hashlib as _hashlib

    col = batch[text_col]
    ids = pc.cast(batch[id_col], pa.string()).to_pylist()
    is_null = np.asarray(pc.is_null(col))
    texts = pc.fill_null(col, "").to_pylist()
    out_txt: list = []
    n_tok = np.zeros(len(texts), np.int64)
    n_drop = np.zeros(len(texts), np.int64)
    for r, (d, txt) in enumerate(zip(ids, texts)):
        if is_null[r]:
            out_txt.append(None)
            continue
        toks = txt.split(" ")
        kept = [
            t for i, t in enumerate(toks)
            if int(_hashlib.md5(f"{salt}{d}:{i}".encode())
                   .hexdigest()[:8], 16) % 100 >= rate_pct
        ]
        n_tok[r] = len(toks)
        n_drop[r] = len(toks) - len(kept)
        out_txt.append(" ".join(kept))
    return pa.table({
        "doc_id": batch[id_col],
        "text_aug": pa.array(out_txt, pa.string()),
        "n_tokens": pa.array(n_tok),
        "n_dropped": pa.array(n_drop),
    })


def _filtered_tokens(col, lower: bool = True) -> Tuple[pa.Array, np.ndarray]:
    """(flat non-empty tokens, per-row int64 offsets) — the
    list_filter(str_split(text, ' '), <> '') layout shared by the bigram
    operators (``lower=True``, the default) and the case-preserving
    boilerplate line derivation (``lower=False``)."""
    if lower:
        toks = _space_token_lists(pc.fill_null(col, ""))
    else:
        toks = pc.split_pattern(pc.fill_null(col, ""), " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks)
    keep = pc.not_equal(flat, "")
    flat_k = pc.cast(flat.filter(keep), pa.string())
    parent_k = np.asarray(parent.filter(keep), dtype=np.int64)
    counts = np.bincount(parent_k, minlength=len(toks))
    offsets = np.zeros(len(toks) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return flat_k, offsets


def _doc_bigrams(col) -> Tuple[pa.Array, np.ndarray]:
    """(composite 'w1 w2' bigram strings, doc row index per bigram) for
    one batch — adjacent pairs within each doc's filtered token list
    (tokens cannot contain spaces, so the space-joined composite is a
    collision-free key)."""
    flat, offsets = _filtered_tokens(col)
    T = len(flat)
    if T < 2:
        return pa.array([], pa.string()), np.empty(0, np.int64)
    pos = np.arange(T - 1, dtype=np.int64)
    doc = np.searchsorted(offsets, pos, side="right") - 1
    valid = pos + 1 < offsets[doc + 1]  # pair stays inside its doc
    if not valid.any():
        return pa.array([], pa.string()), np.empty(0, np.int64)
    i = pa.array(pos[valid])
    comp = pc.binary_join_element_wise(flat.take(i),
                                       flat.take(pa.array(pos[valid] + 1)),
                                       " ")
    return comp, doc[valid]


def bigram_logprob(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    doc_id_col: str = "doc_id",
    vocab_broadcast_limit: int = 2_000_000,
    ndigits: int = 6,
) -> "ray.data.Dataset":
    """Per-document average bigram log-probability with add-1 (Laplace)
    smoothing under the corpus's own bigram LM — the order-sensitive
    perplexity proxy (:func:`unigram_logprob` scores a bag of words;
    this one penalizes scrambled or template-stitched text too):

    ``P(w2|w1) = (c(w1 w2) + 1) / (c(w1·) + V)`` where ``c(w1·)`` counts
    bigram positions starting with ``w1`` and ``V`` is the distinct
    unigram vocabulary; ``score(d) = Σ ln P / n_bigrams(d)``.

    Two count passes (unigram vocab + bigram table, both (term, int64)
    exchanges) then a scoring pass picked by LM size (the
    ``tfidf_top_terms`` auto switch): ≤ ``vocab_broadcast_limit``
    distinct bigrams broadcast-probe via ``ray.put`` (text never
    shuffles); larger LMs go through the bucketed-join path
    (:func:`_bigram_logprob_join`) — c(w1·) derived by one extra
    (w1, int64) groupby + join on the aggregated bigram table, then the
    documents' exploded (doc_id, bg, cnt) rows join the logp table —
    nothing broadcasts, nothing driver-materializes."""
    import ray as _ray
    from ray.data.aggregate import Sum

    vocab_size = (
        ds.map_batches(lambda b: partial_term_counts(b, text_col),
                       batch_format="pyarrow")
        .groupby("term").aggregate(Sum("n", alias_name="n")).count())

    def partial_bg(b: pa.Table) -> pa.Table:
        comp, _doc = _doc_bigrams(b[text_col])
        t = pa.table({"bg": comp})
        agg = t.group_by(["bg"]).aggregate([([], "count_all")])
        return pa.table({"bg": agg["bg"],
                         "n": pc.cast(agg["count_all"], pa.int64())})

    bgc = (ds.map_batches(partial_bg, batch_format="pyarrow")
           .groupby("bg").aggregate(Sum("n", alias_name="n"))
           .materialize())
    n_bigrams = bgc.count()
    if n_bigrams > vocab_broadcast_limit:
        return _bigram_logprob_join(ds, bgc, vocab_size, text_col,
                                    doc_id_col, ndigits)
    rows = bgc.take_all()
    comps = np.array(sorted(r["bg"] for r in rows), dtype=object)
    cmap = {r["bg"]: r["n"] for r in rows}
    c12 = np.array([cmap[c] for c in comps], dtype=np.float64)
    w1s = np.array([c.split(" ", 1)[0] for c in comps], dtype=object)
    c1 = np.zeros(len(comps))
    uniq_w1, inv = np.unique(w1s, return_inverse=True)
    sums_w1 = np.zeros(len(uniq_w1))
    np.add.at(sums_w1, inv, c12)
    c1 = sums_w1[inv]
    logp = np.log((c12 + 1.0) / (c1 + float(vocab_size)))
    ref = _ray.put((pa.array(comps.tolist(), pa.string()), logp))

    def score(b: pa.Table) -> pa.Table:
        comps_s, logp_s = _ray.get(ref)
        comp, doc = _doc_bigrams(b[text_col])
        sums = np.zeros(len(b))
        nbg = np.zeros(len(b), np.int64)
        if len(comp):
            idx_arr = pc.index_in(comp, value_set=comps_s)
            idx = np.asarray(pc.fill_null(idx_arr, 0), dtype=np.int64)
            hit = np.asarray(pc.is_valid(idx_arr))
            np.add.at(sums, doc, np.where(hit, logp_s[idx], 0.0))
            np.add.at(nbg, doc, hit.astype(np.int64))
        with np.errstate(invalid="ignore"):
            avg = np.where(nbg > 0, np.round(sums / np.maximum(nbg, 1),
                                             ndigits), 0.0)
        return pa.table({
            # id column passes through untyped — string ids are legal
            "doc_id": b[doc_id_col],
            "n_bigrams": pa.array(nbg),
            "avg_logprob": pa.array(avg, pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def _bigram_logprob_join(
    ds: "ray.data.Dataset",
    bgc: "ray.data.Dataset",
    vocab_size: int,
    text_col: str,
    doc_id_col: str,
    ndigits: int,
) -> "ray.data.Dataset":
    """Big-LM scoring path for :func:`bigram_logprob` (VERDICT r3 item
    4).  The smoothed logp table is built ON the aggregated bigram
    table: w1 is sliced off each composite key map-side, c(w1·) comes
    from one (w1, int64) groupby, and a bucketed ``hash_join`` on w1
    attaches it — the identical float64 expression as the broadcast
    probe.  Documents then score by joining their exploded
    (doc_id, bg, cnt) rows against the logp table and summing per doc;
    a slim all-docs zero table unions in so zero-bigram documents still
    emit (n_bigrams=0) rows.  Per-bigram logp values match the
    broadcast path exactly; only per-doc summation order differs, which
    the ``ndigits`` rounding of the public contract absorbs."""
    from ray.data.aggregate import Sum

    from .joins import hash_join

    def add_w1(b: pa.Table) -> pa.Table:
        # tokens cannot contain spaces, so the first space ends w1
        w1 = pc.list_element(
            pc.split_pattern(b["bg"], " ", max_splits=1), 0)
        return b.append_column("w1", w1)

    bg_w1 = bgc.map_batches(add_w1, batch_format="pyarrow")
    w1_tot = bg_w1.groupby("w1").aggregate(Sum("n", alias_name="c1"))
    v = float(vocab_size)

    def lp(b: pa.Table) -> pa.Table:
        c12 = np.asarray(b["n"], dtype=np.float64)
        c1 = np.asarray(b["c1"], dtype=np.float64)
        return pa.table({
            "bg": b["bg"],
            "logp": pa.array(np.log((c12 + 1.0) / (c1 + v)), pa.float64()),
        })

    lp_ds = hash_join(bg_w1, w1_tot, key="w1").map_batches(
        lp, batch_format="pyarrow")

    def doc_bg(b: pa.Table) -> pa.Table:
        comp, doc = _doc_bigrams(b[text_col])
        ids = b[doc_id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        if len(comp) == 0:
            return pa.table({"doc_id": ids.slice(0, 0),
                             "bg": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        t = pa.table({"doc_id": ids.take(pa.array(doc)), "bg": comp})
        g = t.group_by(["doc_id", "bg"]).aggregate([([], "count_all")])
        return pa.table({"doc_id": g["doc_id"], "bg": g["bg"],
                         "cnt": pc.cast(g["count_all"], pa.int64())})

    joined = hash_join(
        ds.map_batches(doc_bg, batch_format="pyarrow"), lp_ds, key="bg")

    def contrib(b: pa.Table) -> pa.Table:
        cnt = np.asarray(b["cnt"], dtype=np.float64)
        logp = np.asarray(b["logp"], dtype=np.float64)
        return pa.table({
            "doc_id": b["doc_id"],
            "sum_lp": pa.array(cnt * logp, pa.float64()),
            "n_bg": pc.cast(b["cnt"], pa.int64()),
        })

    def zero_rows(b: pa.Table) -> pa.Table:
        ids = b[doc_id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        n = len(ids)
        return pa.table({
            "doc_id": ids,
            "sum_lp": pa.array(np.zeros(n), pa.float64()),
            "n_bg": pa.array(np.zeros(n, np.int64), pa.int64()),
        })

    per_doc = (
        joined.map_batches(contrib, batch_format="pyarrow")
        .union(ds.map_batches(zero_rows, batch_format="pyarrow"))
        .groupby("doc_id")
        .aggregate(Sum("sum_lp", alias_name="sum_lp"),
                   Sum("n_bg", alias_name="n_bg")))

    def finish(b: pa.Table) -> pa.Table:
        s = np.asarray(b["sum_lp"], dtype=np.float64)
        nbg = np.asarray(b["n_bg"], dtype=np.int64)
        with np.errstate(invalid="ignore"):
            avg = np.where(nbg > 0,
                           np.round(s / np.maximum(nbg, 1), ndigits), 0.0)
        return pa.table({
            "doc_id": b["doc_id"],
            "n_bigrams": pa.array(nbg, pa.int64()),
            "avg_logprob": pa.array(avg, pa.float64()),
        })

    return per_doc.map_batches(finish, batch_format="pyarrow")


def keyness_by_key(
    ds: "ray.data.Dataset",
    key_col: str = "source",
    text_col: str = "text",
    min_count: int = 5,
    ndigits: int = 6,
) -> "ray.data.Dataset":
    """Log-likelihood keyness (Dunning's G²) of every term per corpus
    shard: which words are statistically over-represented in shard s
    versus the rest of the corpus — the standard corpus-comparison
    readout for spotting a feed gone off-topic (spam burst, language
    drift, template flood).

    ``G² = 2·(a·ln(a/E1) + b·ln(b/E2))`` with ``a`` the term count in
    the shard, ``b`` its count elsewhere, ``E`` the expected splits.

    One (key, term, int64) count exchange builds the contingency table;
    per-term and per-key totals broadcast (vocab-bounded, the unigram-LM
    contract) and scoring is a map over the aggregated table.  Rows
    with ``a < min_count`` are dropped (G² is noise at tiny counts) —
    output is the full filtered table, deliberately NOT a top-k: float
    ULP differences between numpy and SQL ``ln`` could flip a rank
    boundary, a value table can't be flipped."""
    import ray as _ray
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        flat, offsets = _filtered_tokens(b[text_col])
        rid = np.searchsorted(offsets, np.arange(len(flat)),
                              side="right") - 1
        keys = b[key_col].take(pa.array(rid))
        t = pa.table({key_col: keys, "term": flat})
        g = t.group_by([key_col, "term"]).aggregate([([], "count_all")])
        return pa.table({key_col: g[key_col], "term": g["term"],
                         "n": pc.cast(g["count_all"], pa.int64())})

    st = (ds.map_batches(partial, batch_format="pyarrow")
          .groupby([key_col, "term"]).aggregate(Sum("n", alias_name="a"))
          .materialize())

    # totals come from two DISTRIBUTED groupby-sums over the already
    # aggregated table (the driver previously looped Python-per-row over
    # every (key, term) row): key totals are tiny (shards), term totals
    # are vocab-bounded (the unigram-LM contract) and broadcast sorted
    term_rows = st.groupby("term").aggregate(
        Sum("a", alias_name="ct")).take_all()
    key_rows = st.groupby(key_col).aggregate(
        Sum("a", alias_name="kt")).take_all()
    key_tot = {r[key_col]: int(r["kt"]) for r in key_rows}
    total = float(sum(key_tot.values()))
    terms_sorted = np.array(sorted(r["term"] for r in term_rows),
                            dtype=object)
    tmap = {r["term"]: r["ct"] for r in term_rows}
    ct_sorted = np.array([tmap[t] for t in terms_sorted], dtype=np.float64)
    keys_sorted = sorted(key_tot)
    kt_arr = np.array([key_tot[k] for k in keys_sorted], dtype=np.float64)
    ref = _ray.put((pa.array(terms_sorted.tolist(), pa.string()),
                    ct_sorted, pa.array(keys_sorted), kt_arr, total))

    def score(b: pa.Table) -> pa.Table:
        terms_s, ct_s, keys_s, kt_s, n = _ray.get(ref)
        a = np.asarray(b["a"], dtype=np.float64)
        keep = a >= min_count
        t = b.filter(pa.array(keep))
        if t.num_rows == 0:
            # typed-from-input empty block: a hardcoded string key here
            # would split the unioned schema for non-string key columns
            return pa.table({key_col: t[key_col], "term": t["term"],
                             "n": pc.cast(t["a"], pa.int64()),
                             "g2": pa.array([], pa.float64())})
        a = a[keep]
        idx = np.asarray(pc.fill_null(
            pc.index_in(t["term"], value_set=terms_s), 0), dtype=np.int64)
        ct = ct_s[idx]
        kidx = np.asarray(pc.fill_null(
            pc.index_in(t[key_col], value_set=keys_s), 0), dtype=np.int64)
        ns = kt_s[kidx]
        bb = ct - a
        with np.errstate(divide="ignore", invalid="ignore"):
            g2 = 2.0 * (a * np.log(a / (ns * ct / n))
                        + np.where(bb > 0,
                                   bb * np.log(np.where(bb > 0, bb, 1.0)
                                               / ((n - ns) * ct / n)),
                                   0.0))
        return pa.table({
            key_col: t[key_col],
            "term": t["term"],
            "n": pc.cast(t["a"], pa.int64()),
            "g2": pa.array(np.round(g2, ndigits)),
        })

    return st.map_batches(score, batch_format="pyarrow")
