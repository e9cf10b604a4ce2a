"""Driver contract for the Ray-Data-native validation engine (xpshacl_ray).

``entry()`` runs the flagship explainable-validation pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator/pipeline from
SURVEY.md §2 (plus the training-data operators); ``oracle_sql()`` gives the
DuckDB-equivalent SQL for every SQL-expressible one.  Column names and
float rounding match on both sides (the driver's value-hash sorts columns
by name and is order-insensitive across rows).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in xpshacl_ray) calls ``ray.init()``/``ray.shutdown()``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from xpshacl_ray.tuning import apply_recommended_context

apply_recommended_context()  # hash shuffle + quiet progress (no ray.init)

from xpshacl_ray import (
    And,
    Datatype,
    Disjoint,
    Equals,
    GroupedSparql,
    GroupPredicate,
    InSet,
    LessThan,
    LessThanOrEquals,
    MaxCount,
    MaxLength,
    MinCount,
    MinInclusive,
    MinLength,
    NodeKind,
    Not,
    Or,
    Pattern,
    Referential,
    Required,
    SqlCheck,
    UniqueLang,
    ValidationEngine,
    ValidationSpec,
    Xone,
)
from xpshacl_ray.functions.dedup import (
    embedding_near_dups,
    exact_dedup,
    minhash_lsh_candidates,
    simhash_near_dups,
    verify_pairs_ngram,
)
from xpshacl_ray.functions.sketches import CategoricalHistogram, psi
from xpshacl_ray.functions.similarity import (
    ivf_assign,
    knn_cosine_bruteforce,
    knn_cosine_ivf,
    train_centroids,
)
from xpshacl_ray.functions.text import (
    LanguageId,
    QualityScorer,
    md5_fingerprint,
    sha256_column,
    token_count_whitespace,
)
from xpshacl_ray.stages.referential import distinct_keys
from xpshacl_ray.stages.stats import StatsConfig, profile
from xpshacl_ray.stages.window import sessionize, tumbling_aggregate

# ---------------------------------------------------------------------------
# shared specs
# ---------------------------------------------------------------------------

DOC_LANGS = ["de", "en", "fr"]


def _documents_spec() -> ValidationSpec:
    """Flagship row-local constraint spec over the documents table."""
    return ValidationSpec(
        constraints=[
            InSet(column="lang", allowed=DOC_LANGS),
            MinLength(column="text", min_length=100),
            MaxLength(column="text", max_length=400),
            MinInclusive(column="n_chars", bound=50),
        ],
        id_columns=["doc_id"],
        focus_template="doc:{doc_id}",
    )


def _docs(sf_dir: str, columns=None) -> "ray.data.Dataset":
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=columns)


VIOLATION_COLS = [
    "doc_id", "constraint_id", "violation_type", "property_path", "value",
    "message", "severity",
]

# The UNION ALL oracle mirroring the four compiled constraints, with the
# engine's exact message literals.
_VIOLATIONS_SQL = """
SELECT doc_id,
       'http://www.w3.org/ns/shacl#InConstraintComponent' AS constraint_id,
       'other' AS violation_type, 'lang' AS property_path,
       lang AS value,
       'Value is not in [''de'', ''en'', ''fr'']' AS message,
       'Violation' AS severity
FROM documents WHERE lang IS NOT NULL AND lang NOT IN ('de','en','fr')
UNION ALL
SELECT doc_id, 'http://www.w3.org/ns/shacl#MinLengthConstraintComponent',
       'other', 'text', text,
       'String length is less than 100', 'Violation'
FROM documents WHERE length(text) < 100
UNION ALL
SELECT doc_id, 'http://www.w3.org/ns/shacl#MaxLengthConstraintComponent',
       'other', 'text', text,
       'String length is greater than 400', 'Violation'
FROM documents WHERE length(text) > 400
UNION ALL
SELECT doc_id, 'http://www.w3.org/ns/shacl#MinInclusiveConstraintComponent',
       'value_range', 'n_chars', CAST(n_chars AS VARCHAR),
       'Value is not >= Literal("50")', 'Violation'
FROM documents WHERE n_chars IS NOT NULL AND NOT (n_chars >= 50)
"""


# QualityScorer's formula transcribed to DuckDB SQL (same RE2 character
# classes, same factor order so the float products are bit-identical):
# len/punct/stopword ratios + dup-line ratio → quality_score ∈ [0, 1].
_STOP_SQL = ("'the','a','of','and','to','in','is','it','you','that',"
             "'was','for','on','are'")
_NB_SQL = "list_filter(str_split(text, chr(10)), x -> trim(x) <> '')"
_TOKS_SQL = "str_split_regex(lower(text), '[^\\p{L}]+')"
_NTOK_SQL = f"len(list_filter({_TOKS_SQL}, x -> length(x) > 0))"
_PUNCT_SQL = "length(regexp_replace(text, '[\\p{L}\\p{N}_\\s]', '', 'g'))"

# LanguageId's stopword profiles transcribed to SQL (xpshacl_ray.functions
# .text._STOPWORDS); argmax with first-max-by-sorted-language tie-breaking.
_LANG_STOPWORDS = {
    "de": "der die das und ist ich nicht ein zu es du wir",
    "en": "the a of and to in is it you that was for on are",
    "es": "el la los y es no un una que de en se",
    "fr": "le la les et est je ne pas un une que des",
    "pt": "o a os e é não um uma que de em para",
}
_LANGS_SORTED = sorted(_LANG_STOPWORDS)


def _lang_score_sql(lang: str) -> str:
    lst = ",".join(f"'{w}'" for w in sorted(_LANG_STOPWORDS[lang].split()))
    return (f"len(list_filter({_TOKS_SQL}, x -> x IN ({lst}))) * 1.0"
            f" / greatest({_NTOK_SQL}, 1)")


def _lang_argmax_sql() -> str:
    cases = []
    for lang in _LANGS_SORTED:
        others = " AND ".join(f"s_{lang} >= s_{o}"
                              for o in _LANGS_SORTED if o != lang)
        cases.append(f"WHEN {others} THEN '{lang}'")
    return "CASE " + " ".join(cases) + " END"


_LANG_ID_SQL = f"""
    WITH t AS (
        SELECT doc_id, text, {_NTOK_SQL} AS n_tok,
               {", ".join(f"{_lang_score_sql(lg)} AS s_{lg}"
                          for lg in _LANGS_SORTED)}
        FROM documents)
    SELECT doc_id,
           CASE WHEN text IS NULL OR length(text) = 0 OR n_tok = 0 THEN NULL
                ELSE {_lang_argmax_sql()} END AS lang_pred,
           CASE WHEN text IS NULL OR length(text) = 0 THEN NULL
                WHEN n_tok = 0 THEN 0.0
                ELSE round(greatest({", ".join(f"s_{lg}" for lg in _LANGS_SORTED)}), 6)
           END AS lang_score
    FROM t
"""
_QUALITY_SQL = f"""
    SELECT doc_id, lang, text,
           CASE WHEN text IS NULL OR length(text) = 0 THEN 0.0 ELSE
           round(
             (CASE WHEN length(text) < 50 OR length(text) > 100000
                   THEN 0.5 ELSE 1.0 END)
           * (CASE WHEN length(regexp_replace(
                        text, '[\\p{{L}}\\p{{N}}_\\s]', '', 'g')) * 1.0
                        / greatest(length(text), 1) > 0.3
                   THEN 0.5 ELSE 1.0 END)
           * (CASE WHEN (CASE WHEN len(list_filter({_TOKS_SQL},
                                       x -> length(x) > 0)) > 0
                         THEN len(list_filter({_TOKS_SQL},
                                  x -> x IN ({_STOP_SQL}))) * 1.0
                              / len(list_filter({_TOKS_SQL},
                                    x -> length(x) > 0))
                         ELSE 0.0 END) < 0.01 THEN 0.7 ELSE 1.0 END)
           * (1.0 - CASE WHEN contains(text, chr(10)) THEN
                      CASE WHEN len({_NB_SQL}) = 0 THEN 0.0
                           ELSE 1.0 - len(list_distinct({_NB_SQL})) * 1.0
                                      / len({_NB_SQL}) END
                    ELSE 0.0 END), 6) END AS quality_score
    FROM documents
"""


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------



def _to_scaled_int(x: np.ndarray, scale: float) -> np.ndarray:
    """float → int64 at ``scale`` with HALF-AWAY-FROM-ZERO rounding —
    matching DuckDB's round(), NOT numpy's half-to-even (1.125*100 =
    112.5 exactly: np.round → 112, DuckDB → 113).  NaN/None contribute 0,
    matching SQL SUM's ignore-NULL semantics."""
    v = np.where(np.isnan(x), 0.0, x) * scale
    return (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)


def _div_round_half_away(num, den):
    """Integer division with HALF-AWAY-FROM-ZERO rounding, sign-correct
    (plain ``(x + h) // den`` is half-up and disagrees with DuckDB
    round() for negative totals, e.g. refunds)."""
    num = np.asarray(num, dtype=np.int64)
    return np.sign(num) * ((np.abs(num) + den // 2) // den)


def _money_cents(ds: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
    """Replace a cents-exact float column with int64 cents — sums become
    exact integer arithmetic, so results are independent of summation
    order (repartition/resume-stable) and bit-identical to fixed-point
    oracle SQL (float sums drift ~1e-8 with order and can flip rounding
    at a boundary — observed on pricing_summary at sf0.001).  Rounding is
    half-away (DuckDB round()) and nulls contribute 0 (SQL SUM)."""

    def to_cents(b: pa.Table) -> pa.Table:
        x = np.asarray(
            pc.cast(b[col], pa.float64()).to_numpy(zero_copy_only=False))
        c = _to_scaled_int(x, 100)
        return b.set_column(b.schema.get_field_index(col), col, pa.array(c))

    return ds.map_batches(to_cents, batch_format="pyarrow")


def q_violations_documents(sf_dir: str):
    eng = ValidationEngine(_documents_spec())
    # prune at the read: only the columns the compiled spec touches
    viol = eng.validate(_docs(sf_dir, columns=eng.compiled.required_columns()))
    return viol.select_columns(VIOLATION_COLS)


def q_violation_summary(sf_dir: str):
    eng = ValidationEngine(_documents_spec())
    viol = eng.validate(_docs(sf_dir))
    from ray.data.aggregate import Count

    return viol.groupby(["constraint_id", "violation_type", "severity"]).aggregate(
        Count(alias_name="n_violations")
    )


# --- constraint-family queries (C3/C5/C8/C11/C12-C18/C19-grouped) ----------
# One oracle-checked query per family that previously had only pytest
# coverage; each UNION-ALL oracle mirrors the engine's exact message
# literals and null semantics (a NULL has no value node → never violates
# a value constraint; Required covers missing values).

GROUPED_VIOLATION_COLS = [
    "focus_node", "constraint_id", "violation_type", "property_path",
    "value", "message", "severity", "context",
]


def q_datatype_violations(sf_dir: str):
    """sh:datatype (C3): events.value must parse as int64 (safe-cast
    probe — fractional/NaN doubles violate); event_type exercises the
    already-target-type fast path (zero rows)."""
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "value", "event_type"])
    spec = ValidationSpec(
        constraints=[
            Datatype(column="value", datatype="int64"),
            Datatype(column="event_type", datatype="string"),
        ],
        id_columns=["event_id"],
        focus_template="event:{event_id}",
    )
    viol = ValidationEngine(spec).validate(ev)
    return viol.select_columns(["event_id"] + VIOLATION_COLS[1:])


def q_nodekind_violations(sf_dir: str):
    """sh:nodeKind (C5): value-form regexes — source must be a
    well-formed id (IRI analog), text must mention a known entity."""
    spec = ValidationSpec(
        constraints=[
            NodeKind(column="source", pattern=r"^[a-z]+[0-9]+$", kind="IRI"),
            NodeKind(column="text", pattern="(spark|vector)", kind="Literal"),
        ],
        id_columns=["doc_id"],
        focus_template="doc:{doc_id}",
    )
    eng = ValidationEngine(spec)
    viol = eng.validate(_docs(sf_dir, columns=eng.compiled.required_columns()))
    return viol.select_columns(VIOLATION_COLS)


def q_pattern_violations(sf_dir: str):
    """sh:pattern + sh:flags (C8): three regex constraints incl. a
    case-insensitive flags fold (``(?i)`` prefix, same RE2 dialect as
    the DuckDB oracle)."""
    spec = ValidationSpec(
        constraints=[
            Pattern(column="text", pattern=" the "),
            Pattern(column="lang", pattern="^(DE|EN|FR|ES|ZH)$", flags="i"),
            Pattern(column="source", pattern="^src[0-9]+$"),
        ],
        id_columns=["doc_id"],
        focus_template="doc:{doc_id}",
    )
    eng = ValidationEngine(spec)
    viol = eng.validate(_docs(sf_dir, columns=eng.compiled.required_columns()))
    return viol.select_columns(VIOLATION_COLS)


def q_property_pair_violations(sf_dir: str):
    """sh:equals/disjoint/lessThan(OrEquals) (C12-C14) over lineitem
    column pairs (int/string columns only — float-to-string rendering
    differs between Arrow and SQL on integral doubles)."""
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_returnflag",
                 "l_linestatus", "l_suppkey", "l_partkey"])
    spec = ValidationSpec(
        constraints=[
            Equals(column="l_returnflag", other_column="l_linestatus"),
            Disjoint(column="l_suppkey", other_column="l_linenumber"),
            LessThan(column="l_suppkey", other_column="l_partkey"),
            LessThanOrEquals(column="l_linenumber", other_column="l_suppkey"),
        ],
        id_columns=["l_orderkey", "l_linenumber"],
        focus_template="li:{l_orderkey}/{l_linenumber}",
    )
    viol = ValidationEngine(spec).validate(li)
    return viol.select_columns(["l_orderkey", "l_linenumber"]
                               + VIOLATION_COLS[1:])


def q_logical_violations(sf_dir: str):
    """sh:not/and/or/xone (C15-C18) over documents, composing the
    row-local sub-constraints exactly as the reference's logical shapes
    do (synthetic_data_generator.py:122-142)."""
    spec = ValidationSpec(
        constraints=[
            Not(column="lang", inner=InSet(column="lang", allowed=["zh"])),
            And(column="text", shapes=[
                MinLength(column="text", min_length=100),
                Pattern(column="text", pattern=" the "),
            ]),
            Or(column="lang", shapes=[
                InSet(column="lang", allowed=["de", "en"]),
                Pattern(column="text", pattern=" spark "),
            ]),
            Xone(column="lang", shapes=[
                InSet(column="lang", allowed=["en"]),
                Pattern(column="text", pattern=" the "),
            ]),
        ],
        id_columns=["doc_id"],
        focus_template="doc:{doc_id}",
    )
    eng = ValidationEngine(spec)
    viol = eng.validate(_docs(sf_dir, columns=eng.compiled.required_columns()))
    return viol.select_columns(VIOLATION_COLS)


def q_uniquelang_violations(sf_dir: str):
    """sh:uniqueLang (C11): no two documents may share a language tag
    per source (MaxCount(1) over group_by+[lang], shark_shapes.ttl:37,45)."""
    spec = ValidationSpec(
        constraints=[UniqueLang(column="lang", group_by=["source"],
                                lang_column="lang")],
    )
    eng = ValidationEngine(spec)
    viol = eng.validate(_docs(sf_dir, columns=["source", "lang"]))
    return viol.select_columns(GROUPED_VIOLATION_COLS)


def q_sparql_grouped(sf_dir: str):
    """C19 graph-pattern SPARQL shape, end-to-end through the grouped
    escape hatch: the tabular analog of the shark multi-row sh:sparql
    shapes (shark_shapes.ttl:48-67, 200-245) — a per-focus-group ordered
    pattern ("ship dates must not decrease across line numbers") that no
    row-local mask can express.  Expressed as the DECLARATIVE
    GroupPredicate(agg='monotone') (VERDICT r3 item 5), so the engine
    evaluates it fully vectorized — numpy segment kernels over the
    key-sorted runs of each exchange block — instead of Python per group;
    one violation per violating group (SELECT DISTINCT $this
    semantics).  Tie-robust: a violation needs a row with a STRICTLY
    smaller line number and a later ship date (duplicate line numbers
    exist), matching the oracle."""
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_shipdate"])

    spec = ValidationSpec(
        constraints=[GroupedSparql(
            path="l_shipdate",
            group_by=["l_orderkey"],
            columns=["l_linenumber", "l_shipdate"],
            name="shipdate-monotone",
            predicate=GroupPredicate(agg="monotone", agg_col="l_shipdate",
                                     order_col="l_linenumber",
                                     op=">=", value=1),
            shape_id="http://example.org/shape/OrderShipMonotone",
            message="Ship dates must not decrease across line numbers",
        )],
        id_columns=["l_orderkey"],
        focus_template="order:{l_orderkey}",
    )
    viol = ValidationEngine(spec).validate(li)
    return viol.select_columns(["l_orderkey"] + GROUPED_VIOLATION_COLS)


def _violating_group_counts(ds, constraint):
    """``(key, actual_count)`` of the groups ``constraint`` (a MaxCount or
    MinCount on its own key column) flags, read off the engine's
    grouped violation rows."""
    key = constraint.column
    spec = ValidationSpec(constraints=[constraint], id_columns=[key],
                          focus_template=f"{{{key}}}")
    viol = ValidationEngine(spec).validate(ds)
    return viol.map_batches(
        lambda b: pa.table({key: b[key],
                            "actual_count": pc.cast(b["value"], pa.int64())}),
        batch_format="pyarrow")


def q_cardinality_orders(sf_dir: str):
    """sh:maxCount analog (C2): customers with more than 15 orders."""
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey"])
    return _violating_group_counts(orders, MaxCount(
        column="o_custkey", group_by=["o_custkey"], max_count=15))


def q_mincount_clicks(sf_dir: str):
    """sh:minCount grouped (C1): users with fewer than 10 click events."""
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type"])
    clicks = ev.filter(expr="event_type == 'click'")
    return _violating_group_counts(clicks, MinCount(
        column="user_id", group_by=["user_id"], min_count=10))


def q_required_customer(sf_dir: str):
    """sh:minCount row form (C1): customers missing an account balance."""
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_acctbal"])
    spec = ValidationSpec(
        constraints=[Required(column="c_acctbal")],
        id_columns=["c_custkey"],
        focus_template="customer:{c_custkey}",
    )
    viol = ValidationEngine(spec).validate(cust)
    # materialize with an explicit schema: an empty Dataset loses its
    # column list on to_pandas conversion (result is tiny by definition)
    rows = [r["c_custkey"] for r in viol.select_columns(["c_custkey"]).take_all()]
    return pa.table({"c_custkey": pa.array(rows, pa.int64())})


def q_range_customer(sf_dir: str):
    """sh:minInclusive (C6): negative account balances."""
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_acctbal"])
    spec = ValidationSpec(
        constraints=[MinInclusive(column="c_acctbal", bound=0)],
        id_columns=["c_custkey"],
        focus_template="customer:{c_custkey}",
    )
    viol = ValidationEngine(spec).validate(cust)

    def shape(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": b["c_custkey"],
                "observed_balance": pc.cast(b["value"], pa.float64()),
            }
        )

    return viol.map_batches(shape, batch_format="pyarrow")


def q_referential_orders(sf_dir: str):
    """sh:class / FK check (C4): orders referencing customers that are not
    in good standing (acctbal >= 0) — broadcast anti-join."""
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_acctbal"])
    good = cust.filter(expr="c_acctbal >= 0")
    keys = distinct_keys(good, "c_custkey")
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_custkey"])
    spec = ValidationSpec(
        constraints=[Referential(column="o_custkey", ref_table="customer",
                                 ref_column="c_custkey")],
        id_columns=["o_orderkey"],
        focus_template="order:{o_orderkey}",
    )
    viol = ValidationEngine(spec).validate(orders,
                                           ref_keys={"o_custkey": keys})

    def shape(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "o_custkey": pc.cast(b["value"], pa.int64()),
            }
        )

    return viol.map_batches(shape, batch_format="pyarrow")


def q_node_conformance_scale(sf_dir: str):
    """sh:node at PARQUET scale — the table-side twin of the TTL
    recursive checker (``sources/ttl._NodeChecker`` walks driver-parsed
    graphs; here the referenced shape's facets are evaluated vectorized
    over the dimension table in one streamed pass): lineitems whose
    part does not CONFORM to PartShape (p_size <= 45 AND p_type in the
    non-promo set).  ``conforming_keys`` ships only the distinct
    conforming key set (per-batch pre-agg before the small unique
    exchange); the broadcast ``_RefMask`` anti-join probes the fact
    table with zero shuffle on the fact side.  Reference parity: the
    reference gets sh:node free from pyshacl
    (src/xpshacl_engine.py)."""
    from xpshacl_ray.spec import InSet, MaxInclusive
    from xpshacl_ray.stages.referential import (
        _RefMask,
        conforming_keys,
    )

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_size", "p_type"])
    keys = conforming_keys(part, "p_partkey", [
        MaxInclusive(column="p_size", bound=45),
        InSet(column="p_type",
              allowed=["ECONOMY", "SMALL", "MEDIUM", "LARGE",
                       "STANDARD"]),
    ])
    probe = _RefMask(column="l_partkey", keys_ref=ray.put(keys))
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def flag(b: pa.Table) -> pa.Table:
        m = probe.mask(b)
        if isinstance(m, pa.ChunkedArray):
            m = m.combine_chunks()
        return b.filter(m)

    return li.map_batches(flag, batch_format="pyarrow")


def q_stats_profile_documents(sf_dir: str):
    """One-pass sketch profile per (source, lang) — exact fields only."""
    cfg = StatsConfig(group_keys=["source", "lang"],
                      numeric_cols=["n_chars"], categorical_cols=["lang"],
                      distinct_cols=["doc_id"])
    prof = profile(_docs(sf_dir), cfg, concurrency=4)
    out = prof[["source", "lang", "n_rows", "n_chars_nulls", "n_chars_min",
                "n_chars_max"]].copy()
    out["n_rows"] = out["n_rows"].astype("int64")
    out["n_chars_nulls"] = out["n_chars_nulls"].astype("int64")
    out["n_chars_min"] = out["n_chars_min"].astype("float64")
    out["n_chars_max"] = out["n_chars_max"].astype("float64")
    return out


def q_quantiles_nchars(sf_dir: str):
    """Exact per-group quantiles (sort-within-group map_groups)."""

    def qtiles(g: pd.DataFrame) -> pd.DataFrame:
        v = g["n_chars"].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "lang": [g["lang"].iloc[0]],
                "p50": [round(float(np.percentile(v, 50)), 4)],
                "p90": [round(float(np.percentile(v, 90)), 4)],
            }
        )

    return (
        _docs(sf_dir)
        .select_columns(["lang", "n_chars"])
        .groupby("lang")
        .map_groups(qtiles, batch_format="pandas")
    )


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary: per-batch partial aggregation, one
    small groupby over partials, averages derived from sums (G9 analog).

    All money math runs in EXACT integer space (prices are cent-exact,
    discounts basis-point-exact in this data): per-row cents/bp integers,
    int64 partial sums, integer half-away-from-zero rounding for derived
    values.  This makes the result independent of summation order —
    stable across repartitions/resumes and bit-identical to the DuckDB
    oracle computing the same fixed-point formula (float sums drift by
    ~1e-8 with order, which flips cent-boundary rounding)."""
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"],
    )
    keys = ["l_returnflag", "l_linestatus"]

    def partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less_equal(b["l_shipdate"],
                                   pa.scalar(np.datetime64("1998-09-01", "us"))))
        qty = _to_scaled_int(
            np.asarray(b["l_quantity"], dtype=np.float64), 1)
        ep_c = _to_scaled_int(
            np.asarray(b["l_extendedprice"], dtype=np.float64), 100)
        disc_bp = _to_scaled_int(
            np.asarray(b["l_discount"], dtype=np.float64), 100)
        t = pa.table({
            keys[0]: b[keys[0]], keys[1]: b[keys[1]],
            "qty_i": pa.array(qty),
            "ep_c": pa.array(ep_c),
            "dp_e4": pa.array(ep_c * (100 - disc_bp)),
            "disc_bp": pa.array(disc_bp),
        })
        agg = t.group_by(keys).aggregate(
            [("qty_i", "sum"), ("ep_c", "sum"), ("dp_e4", "sum"),
             ("disc_bp", "sum"), ([], "count_all")]
        )
        return agg.rename_columns(
            keys + ["s_qty", "s_price", "s_disc_price", "s_disc", "n"]
        )

    from ray.data.aggregate import Sum

    merged = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .aggregate(
            Sum("s_qty", alias_name="t_qty"),
            Sum("s_price", alias_name="t_price"),
            Sum("s_disc_price", alias_name="t_disc_price"),
            Sum("s_disc", alias_name="t_disc"),
            Sum("n", alias_name="count_order"),
        )
        .to_pandas()
    )
    n = merged["count_order"].astype("int64")
    t_qty = merged["t_qty"].astype("int64")
    t_disc = merged["t_disc"].astype("int64")
    out = pd.DataFrame(
        {
            "l_returnflag": merged["l_returnflag"],
            "l_linestatus": merged["l_linestatus"],
            "sum_qty": t_qty.astype("float64"),
            "sum_base_price": merged["t_price"].astype("int64") / 100.0,
            # sign-correct integer half-away rounding of fixed-point sums
            "sum_disc_price": _div_round_half_away(
                merged["t_disc_price"].astype("int64"), 100) / 100.0,
            "avg_qty": _div_round_half_away(t_qty * 10_000, n) / 10_000.0,
            "avg_disc": _div_round_half_away(t_disc * 100, n) / 10_000.0,
            "count_order": n,
        }
    )
    return out


def q_orders_by_nation(sf_dir: str):
    """BIG-BIG bucketed hash join (no broadcast): orders ⋈ customer on
    c_custkey through `functions.joins.hash_join` (both sides shuffled by
    key hash, co-grouped buckets merged per task — the path for when
    NEITHER side fits a broadcast), then order counts + exact-cents
    revenue per nation key."""
    from xpshacl_ray.functions.joins import hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "c_custkey": b["o_custkey"].to_numpy(),
            "o_cents": _to_scaled_int(b["o_totalprice"].to_numpy(), 100),
        })

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    joined = hash_join(
        orders.map_batches(to_cents, batch_format="pandas"),
        cust, key="c_custkey", n_buckets=32)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby("c_nationkey", sort=False)
                .agg(p_rev=("o_cents", "sum"), p_n=("o_cents", "size"))
                .reset_index())

    from ray.data.aggregate import Sum

    agg = (joined.map_batches(partial, batch_format="pandas")
           .groupby("c_nationkey")
           .aggregate(Sum("p_rev", alias_name="rev_cents"),
                      Sum("p_n", alias_name="n_orders"))
           .to_pandas())
    agg["revenue"] = agg["rev_cents"].astype("int64") / 100.0
    agg["n_orders"] = agg["n_orders"].astype("int64")
    agg["c_nationkey"] = agg["c_nationkey"].astype("int64")
    return agg[["c_nationkey", "n_orders", "revenue"]].sort_values(
        "c_nationkey").reset_index(drop=True)


def _round_cents(col, scale: int = 100) -> "pa.Array":
    """float column → int64 cents with half-away-from-zero rounding
    (DuckDB round() parity), NULL-preserving (unlike `_to_scaled_int`,
    which maps NaN→0 for SUM semantics)."""
    opts = pc.RoundOptions(round_mode="half_towards_infinity")
    r = pc.round(pc.multiply(col, scale), options=opts)
    return pc.cast(r, pa.int64())


def q_histogram_prices(sf_dir: str):
    """Fixed-width value histogram (bin=floor(cents/500k)): per-batch
    bincount combiner, the groupby exchange carries (bin, n, sum) rows
    bounded by batches × occupied bins."""
    from xpshacl_ray.functions.analytics import histogram

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_extendedprice"])
    cents = li.map_batches(
        lambda b: pa.table({"cents": _round_cents(b["l_extendedprice"])}),
        batch_format="pyarrow")
    return histogram(cents, "cents", width=500_000.0)


def q_pivot_orders(sf_dir: str):
    """Wide crosstab (priority × status): distributed cell combiner +
    one groupby over key pairs; driver reshape sees only the aggregated
    cell table (bounded by the key-domain product)."""
    from xpshacl_ray.functions.analytics import pivot_counts

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": b["o_orderpriority"],
            "o_orderstatus": b["o_orderstatus"],
            "cents": _round_cents(b["o_totalprice"]),
        })

    return pivot_counts(orders.map_batches(prep, batch_format="pyarrow"),
                        "o_orderpriority", "o_orderstatus",
                        col_values=["F", "O", "P"], value_col="cents")


def q_rollup_revenue(sf_dir: str):
    """GROUP BY ROLLUP(region, nation): BIG-BIG bucketed join
    orders⋈customer, tiny dims probed via sorted broadcast arrays with a
    miss check (closed-world dimension), finest level aggregated
    distributed, subtotal levels re-aggregated from it on the driver."""
    import pyarrow.parquet as pq

    from xpshacl_ray.functions.analytics import rollup_sum
    from xpshacl_ray.functions.joins import hash_join

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"])
    rmap = dict(zip(region["r_regionkey"].to_pylist(),
                    region["r_name"].to_pylist()))
    nk = np.asarray(nation["n_nationkey"], dtype=np.int64)
    order = np.argsort(nk)
    nk = nk[order]
    n_names = np.asarray(nation["n_name"].to_pylist(), dtype=object)[order]
    r_names = np.asarray([rmap[k] for k in
                          nation["n_regionkey"].to_pylist()],
                         dtype=object)[order]

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey", "o_totalprice"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": b["o_custkey"],
                         "cents": _round_cents(b["o_totalprice"])})

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_nationkey"])
    joined = hash_join(orders.map_batches(to_cents, batch_format="pyarrow"),
                       cust, key="c_custkey", n_buckets=32)

    def tag(b: pa.Table) -> pa.Table:
        keys = np.asarray(b["c_nationkey"], dtype=np.int64)
        idx = np.clip(np.searchsorted(nk, keys), 0, len(nk) - 1)
        if not np.all(nk[idx] == keys):  # closed dim: a miss is corrupt
            raise ValueError("c_nationkey not present in nation dim")
        return pa.table({"r_name": pa.array(r_names[idx]),
                         "n_name": pa.array(n_names[idx]),
                         "cents": b["cents"]})

    return rollup_sum(joined.map_batches(tag, batch_format="pyarrow"),
                      ["r_name", "n_name"], "cents")


def q_winsorize_prices(sf_dir: str):
    """Exact-quantile winsorization (clip to [P05, P95]): ONE value-
    distribution groupby yields both thresholds, then a map-only clamp
    against the broadcast scalars; NULL-preserving."""
    from xpshacl_ray.functions.sampling import winsorize

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": b["l_orderkey"],
                         "l_linenumber": b["l_linenumber"],
                         "cents": _round_cents(b["l_extendedprice"])})

    out, _bounds = winsorize(li.map_batches(prep, batch_format="pyarrow"),
                             "cents", lo_bp=500, hi_bp=9500,
                             out_col="cents_w")
    return out


def q_corr_matrix(sf_dir: str):
    """Pearson correlation of four lineitem measures in one pass: the
    per-batch moment combiner ships one fixed-width row per batch — no
    shuffle at all."""
    from xpshacl_ray.functions.analytics import correlation_matrix

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount", "l_tax"])
    return correlation_matrix(
        li, ["l_quantity", "l_extendedprice", "l_discount", "l_tax"])


def q_dup_rate_by_source(sf_dir: str):
    """Per-source duplication monitoring: distinct text-hash pairs per
    key; both exchanges carry fixed-width rows, never text."""
    from xpshacl_ray.functions.dedup import dup_rate_by_key

    return dup_rate_by_key(_docs(sf_dir, columns=["source", "text"]),
                           key_col="source")


def q_source_overlap(sf_dir: str):
    """Pairwise shard-contamination matrix: distinct content keys
    (100-char prefix fingerprints — whole texts never cross sources in
    this corpus, truncated re-posts do) shared by each source pair.
    Distinct (hash, source) rows + bucketed self-join on the hash
    (per-hash fan-out bounded by #shards); text never moves."""
    from xpshacl_ray.functions.dedup import source_overlap_matrix

    docs = _docs(sf_dir, columns=["source", "text"]).map_batches(
        lambda b: pa.table({
            "source": b["source"],
            "text": pc.utf8_slice_codeunits(b["text"], 0, 100),
        }), batch_format="pyarrow")
    return source_overlap_matrix(docs, key_col="source")


def q_mad_outliers(sf_dir: str):
    """Median/MAD robust z of n_chars per language — the outlier gate
    a corrupt tail can't drag.  One value-distribution groupby; medians
    exact (interpolated, SQL median() parity) on the driver; broadcast
    LUT map pass."""
    from xpshacl_ray.stages.stats import mad_robust_z

    return mad_robust_z(
        _docs(sf_dir, columns=["doc_id", "lang", "n_chars"]),
        "n_chars", ["lang"])


def q_profile_columns(sf_dir: str):
    """Generic exact column profiler over orders (n / nulls / distinct
    / min / max per column): one (value, count) distribution exchange
    per column, native-typed min/max rendered as strings for the
    heterogeneous output."""
    from xpshacl_ray.stages.stats import profile_columns

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus",
                 "o_orderpriority", "o_orderdate"])
    return profile_columns(orders, ["o_orderkey", "o_custkey",
                                    "o_orderstatus", "o_orderpriority",
                                    "o_orderdate"])


def q_minmax_scale(sf_dir: str):
    """Per-group min-max feature scaling of n_chars by lang: moment
    combiner (one (group, min, max) row per group per batch) → tiny
    groupby → broadcast LUT map pass.  Scaled value rounded to 6."""
    from ray.data.aggregate import Max, Min

    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])

    def part(b: pa.Table) -> pa.Table:
        g = b.group_by(["lang"]).aggregate([("n_chars", "min"),
                                            ("n_chars", "max")])
        return g.rename_columns(["lang", "p_min", "p_max"])

    stats = (ds.map_batches(part, batch_format="pyarrow")
             .groupby("lang")
             .aggregate(Min("p_min", alias_name="lo"),
                        Max("p_max", alias_name="hi")).take_all())
    lut = {r["lang"]: (r["lo"], r["hi"]) for r in stats}
    lut_ref = ray.put(lut)

    def scale(b: pa.Table) -> pa.Table:
        m = ray.get(lut_ref)
        langs = b["lang"].to_pylist()
        x = np.asarray(pc.cast(b["n_chars"], pa.int64()), dtype=np.float64)
        lo = np.array([m[l][0] for l in langs], dtype=np.float64)
        hi = np.array([m[l][1] for l in langs], dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(hi > lo, np.round((x - lo) / (hi - lo), 6),
                         np.nan)
        return pa.table({"doc_id": b["doc_id"], "lang": b["lang"],
                         "n_chars": b["n_chars"],
                         "scaled": pa.array(s, pa.float64())})

    return ds.map_batches(scale, batch_format="pyarrow")


def q_cume_distinct_users(sf_dir: str):
    """Cumulative distinct users by day: distributed min(date) per user
    (first-seen combiner), then counts per first-seen day and a driver
    cumsum over the bounded date domain."""
    from ray.data.aggregate import Min

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    def part(b: pa.Table) -> pa.Table:
        d = pc.cast(b["ts"], pa.date32())
        t = pa.table({"user_id": b["user_id"], "d": d})
        g = t.group_by(["user_id"]).aggregate([("d", "min")])
        return g.rename_columns(["user_id", "p_d"])

    first_seen = (ev.map_batches(part, batch_format="pyarrow")
                  .groupby("user_id")
                  .aggregate(Min("p_d", alias_name="first_day")))

    def day_counts(b: pa.Table) -> pa.Table:
        g = b.group_by(["first_day"]).aggregate([([], "count_all")])
        return pa.table({"day": g["first_day"],
                         "p_n": pc.cast(g["count_all"], pa.int64())})

    from ray.data.aggregate import Sum

    daily = (first_seen.map_batches(day_counts, batch_format="pyarrow")
             .groupby("day").aggregate(Sum("p_n", alias_name="n"))
             .to_pandas().sort_values("day").reset_index(drop=True))
    daily["cume_users"] = daily["n"].astype("int64").cumsum()
    daily["new_users"] = daily["n"].astype("int64")
    return daily[["day", "new_users", "cume_users"]]


def q_latest_event(sf_dir: str):
    """Upsert/CDC compaction: the most recent event per user
    (lexicographic max of (ts, event_id) — the id breaks timestamp
    ties).  Per-batch combiner collapses to one row per key per batch
    before the key shuffle."""
    from xpshacl_ray.functions.compaction import latest_by_key

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"])
    return latest_by_key(ev, "user_id", ["ts", "event_id"])


def q_kfold(sf_dir: str):
    """Deterministic 5-fold cross-validation assignment
    (md5(doc_id) % 5): map-only, layout/resume-stable."""
    from xpshacl_ray.functions.compaction import kfold_assign

    return kfold_assign(_docs(sf_dir, columns=["doc_id"]), "doc_id", k=5)


def q_budget_sample(sf_dir: str):
    """Budget-constrained greedy prefix sample: keep docs in md5(id)
    order while cumulative n_chars <= 50k.  Bucketed two-phase cutoff —
    no global sort; only the boundary bucket's (md5, cost) pairs reach
    the driver."""
    from xpshacl_ray.functions.compaction import budget_sample

    out, _report = budget_sample(
        _docs(sf_dir, columns=["doc_id", "n_chars"]),
        "doc_id", "n_chars", budget=50_000)
    return out


def q_revenue_by_segment(sf_dir: str):
    """Broadcast hash join orders⋈customer + grouped revenue."""
    import ray as _ray

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_mktsegment"]).to_pandas()
    cust = cust.sort_values("c_custkey")
    # broadcast as numpy arrays (zero-copy via plasma) + searchsorted probe —
    # a pickled dict would deserialize per task
    keys_ref = _ray.put(cust["c_custkey"].to_numpy())
    segs_ref = _ray.put(cust["c_mktsegment"].to_numpy())
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey", "o_totalprice"])

    def join_partial(b: pd.DataFrame) -> pd.DataFrame:
        # probe + combiner fused: the groupby shuffle then moves one partial
        # row per (segment, batch) instead of every order row; revenue in
        # exact int64 cents (order-insensitive, see _money_cents)
        keys, segs = _ray.get(keys_ref), _ray.get(segs_ref)
        lk = b["o_custkey"].to_numpy()
        idx = np.clip(np.searchsorted(keys, lk), 0, len(keys) - 1)
        hit = keys[idx] == lk  # orphan FKs drop (inner join), never mis-map
        cents = _to_scaled_int(b["o_totalprice"].to_numpy()[hit], 100)
        b = pd.DataFrame({"c_mktsegment": segs[idx][hit], "p_rev": cents})
        return (
            b.groupby("c_mktsegment", sort=False)
            .agg(p_rev=("p_rev", "sum"), p_n=("p_rev", "size"))
            .reset_index()
        )

    from ray.data.aggregate import Sum

    merged = (
        orders.map_batches(join_partial, batch_format="pandas")
        .groupby("c_mktsegment")
        .aggregate(Sum("p_rev", alias_name="revenue"),
                   Sum("p_n", alias_name="n_orders"))
        .to_pandas()
    )
    cents = merged["revenue"].astype("int64")
    merged["revenue"] = _div_round_half_away(cents, 10) / 10.0
    merged["n_orders"] = merged["n_orders"].astype("int64")
    return merged


def q_topk_users(sf_dir: str):
    """Top-10 users by total event value (groupby + sort + limit)."""
    ev = _money_cents(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["user_id", "value"]), "value")
    from ray.data.aggregate import Sum

    totals = ev.groupby("user_id").aggregate(
        Sum("value", alias_name="total_value")).to_pandas()
    totals["total_value"] = totals["total_value"].astype("int64") / 100.0
    totals = totals.sort_values(["total_value", "user_id"],
                                ascending=[False, True]).head(10)
    return totals.reset_index(drop=True)


def q_window_hourly(sf_dir: str):
    """Tumbling-window aggregate over the event log."""
    ev = _money_cents(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["event_type", "ts", "value"]), "value")
    out = tumbling_aggregate(ev, ["event_type"], "value", unit="hour").to_pandas()
    out["sum_value"] = out["sum_value"].astype("int64") / 100.0
    out["window_start"] = out["window_start"].astype("datetime64[us]")
    out["n_events"] = out["n_events"].astype("int64")
    return out


def q_ewma_value(sf_dir: str):
    """Per-user bounded-window EWMA (α=0.3, W=8) over event values —
    one hash shuffle + a vectorized (n×W) strided sweep per partition;
    the bounded form is exactly SQL-replayable (self-join over
    rn BETWEEN rn-7 AND rn), unlike the overflow-prone closed form of
    the infinite recursive EWMA."""
    from xpshacl_ray.stages.window import ewma_by_key

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_id", "ts",
                                        "value"])
    out = ewma_by_key(ev, "user_id", ["ts", "event_id"], "value",
                      alpha=0.3, window=8)
    return out.select_columns(["user_id", "event_id", "value", "ewma"])


def q_rolling_window(sf_dir: str):
    """Sliding window: 15-min buckets + 2-bucket rolling sum per type."""
    from xpshacl_ray.stages.window import rolling_window_aggregate

    ev = _money_cents(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["event_type", "ts", "value"]), "value")
    out = rolling_window_aggregate(ev, ["event_type"], "value").to_pandas()
    out["bucket_sum"] = out["bucket_sum"].astype("int64") / 100.0
    out["rolling_sum"] = out["rolling_sum"].astype("int64") / 100.0
    out["bucket_start"] = out["bucket_start"].astype("datetime64[us]")
    out["n_events"] = out["n_events"].astype("int64")
    out["rolling_n"] = out["rolling_n"].astype("int64")
    return out


def q_topk_per_group(sf_dir: str):
    """Top-2 users by total value per event type (grouped top-k)."""
    ev = _money_cents(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["event_type", "user_id", "value"]),
        "value")

    def partial(b: pa.Table) -> pa.Table:
        agg = b.group_by(["event_type", "user_id"]).aggregate(
            [("value", "sum")])
        return agg.rename_columns(["event_type", "user_id", "p_sum"])

    from ray.data.aggregate import Sum

    totals = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Sum("p_sum", alias_name="total_value"))
    )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(total_value=g["total_value"].astype("int64") / 100.0)
        g = g.sort_values(["total_value", "user_id"],
                          ascending=[False, True]).head(2)
        g["rnk"] = np.arange(1, len(g) + 1, dtype="int64")
        return g

    return totals.groupby("event_type").map_groups(topk,
                                                   batch_format="pandas")


def q_distinct_users(sf_dir: str):
    """Exact distinct count per group, pre-deduplicated per batch."""
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id"])
    pairs = ev.map_batches(
        lambda b: b.group_by(["event_type", "user_id"]).aggregate([]),
        batch_format="pyarrow",
    )

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": [g["event_type"].iloc[0]],
             "n_users": np.array([g["user_id"].nunique()], dtype="int64")}
        )

    return pairs.groupby("event_type").map_groups(count_distinct,
                                                  batch_format="pandas")


def q_token_counts(sf_dir: str):
    return (
        _docs(sf_dir)
        .map_batches(token_count_whitespace, batch_format="pyarrow")
        .select_columns(["doc_id", "n_tokens"])
    )


def q_term_doc_frequency(sf_dir: str):
    """Top-20 corpus terms by document frequency — the IDF-denominator
    wide step of a TF-IDF pipeline (per-batch vocabulary combiner, the
    exchange never carries text)."""
    from xpshacl_ray.functions.text import term_doc_frequency

    return term_doc_frequency(_docs(sf_dir, columns=["doc_id", "text"]),
                              k=20)


def q_tfidf_top_terms(sf_dir: str):
    """Top-3 TF-IDF terms per document (tf · ln(N/df), ties on term) —
    two passes, text never shuffled; DF side broadcast (auto-switches to
    a bucketed join past the vocabulary limit)."""
    from xpshacl_ray.functions.text import tfidf_top_terms

    out = tfidf_top_terms(_docs(sf_dir, columns=["doc_id", "text"]),
                          top_k=3)
    # rank/tie-break use the raw score; the EMITTED score rounds to 6
    # decimals because numpy and DuckDB ln() differ by ~1 ULP (measured
    # ≤ 9e-16), which would flip an exact value-hash
    return out.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("tfidf"), "tfidf",
            pc.round(b["tfidf"], ndigits=6)),
        batch_format="pyarrow")


def q_unigram_logprob(sf_dir: str):
    """Per-doc average unigram log-probability under the corpus's own
    unigram LM (cheap perplexity proxy): term-count combiner builds the
    LM, the vocabulary broadcasts once, scoring is row-local — text
    never enters a shuffle."""
    from xpshacl_ray.functions.text import unigram_logprob

    out = unigram_logprob(_docs(sf_dir, columns=["doc_id", "text"]))

    def fin(b: pa.Table) -> pa.Table:
        # zero-token docs are unscorable: the library emits them
        # (n_tokens=0) for attrition accounting; the SQL side has no tf
        # rows for them, so the query drops them for oracle parity
        t = pa.table({
            "doc_id": b["doc_id"], "n_tokens": b["n_tokens"],
            "avg_logprob": pc.round(b["avg_logprob"], ndigits=4)})
        return t.filter(pc.greater(t["n_tokens"], 0))

    return out.map_batches(fin, batch_format="pyarrow")


def q_outliers_zscore(sf_dir: str):
    """Per-language z-score outliers on n_chars: per-batch moment
    combiner (count/Σx/Σx²) → tiny per-group stat broadcast → row-local
    flagging; population stddev for SQL stddev_pop parity."""
    from xpshacl_ray.stages.stats import zscore_outliers

    docs = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"]).map_batches(
        # null group keys: the engine would flag within the null group,
        # SQL's JOIN USING (lang) drops them — filter for oracle parity
        lambda b: b.filter(pc.is_valid(b["lang"])),
        batch_format="pyarrow")
    out = zscore_outliers(docs, value_col="n_chars", group_cols=["lang"],
                          z_threshold=1.8)

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"], "lang": b["lang"],
            "n_chars": b["n_chars"],
            "zscore": pc.round(b["zscore"], ndigits=4),
        })

    return out.map_batches(fin, batch_format="pyarrow")


def q_inverted_index(sf_dir: str):
    """Posting-list index over the rare/mid-band vocabulary (df ≤ 380):
    per-batch distinct (term, doc_id) combiner, df-band filter BEFORE
    the posting shuffle (stopword-tier skew control), sorted lists via
    groupby(term).map_groups.  Postings serialize to a canonical
    comma-joined string so the value-hash is list-representation-proof
    on both sides."""
    from xpshacl_ray.functions.text import inverted_index

    idx = inverted_index(_docs(sf_dir, columns=["doc_id", "text"]),
                         max_df=380)

    def serialize(b: pa.Table) -> pa.Table:
        lst = b["postings"]
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        joined = pc.binary_join(
            pc.cast(lst, pa.list_(pa.string())), ",")
        return pa.table({"term": b["term"],
                         "df": pc.cast(b["df"], pa.int64()),
                         "postings": joined})

    return idx.map_batches(serialize, batch_format="pyarrow")


def q_badwords_filter(sf_dir: str):
    """C4-style token-blocklist gate: drop docs containing any
    blocklisted token (exact token match, vectorized membership +
    segment sums, map-only)."""
    from xpshacl_ray.functions.text import filter_badwords

    return filter_badwords(
        _docs(sf_dir, columns=["doc_id", "lang", "text"]),
        words=["slow", "dup"],
    ).select_columns(["doc_id", "lang"])


def q_stopword_scrub(sf_dir: str):
    """Vectorized stopword removal (training-data text normalization);
    byte-parity with the list_filter SQL oracle."""
    from xpshacl_ray.functions.text import remove_stopwords

    return (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(remove_stopwords, batch_format="pyarrow")
        .select_columns(["doc_id", "text_clean"])
    )


def _pii_augment(b: pa.Table) -> pa.Table:
    """Deterministically weave PII-shaped strings (derived from doc_id)
    into the synthetic corpus so the redaction pass is actually
    exercised — mirrored exactly by the CASE/|| chain in the oracle SQL.
    All-Arrow (lpad/join/if_else kernels)."""
    did = np.asarray(b["doc_id"], dtype=np.int64)
    s = pc.cast(b["doc_id"], pa.string())
    text = pc.fill_null(b["text"], "")

    def lp(mod, width):
        return pc.utf8_lpad(pc.cast(pa.array(did % mod), pa.string()),
                            width, "0")

    def gate(mod, part):
        return pc.if_else(pa.array(did % mod == 0), part, "")

    email = gate(3, pc.binary_join_element_wise(
        " contact user", s, "@example.com", ""))
    ipv4 = gate(2, pc.binary_join_element_wise(
        " ip 10.0.", pc.cast(pa.array(did % 256), pa.string()), ".",
        pc.cast(pa.array(did % 100), pa.string()), ""))
    ssn = gate(5, pc.binary_join_element_wise(
        " ssn 123-45-", lp(10000, 4), ""))
    phone = gate(7, pc.binary_join_element_wise(
        " call 555-", lp(1000, 3), "-", lp(10000, 4), ""))
    aug = pc.binary_join_element_wise(text, email, ipv4, ssn, phone, "")
    return b.set_column(b.schema.get_field_index("text"), "text", aug)


def q_pii_redact(sf_dir: str):
    """PII scrubbing (emails/IPv4/SSN/phones) over the documents table —
    row-local regex redaction + per-class counts, RE2 patterns shared
    verbatim with the DuckDB oracle."""
    from xpshacl_ray.functions.text import redact_pii

    return (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(_pii_augment, batch_format="pyarrow")
        .map_batches(redact_pii, batch_format="pyarrow")
        .select_columns(["doc_id", "text_redacted", "pii_email_n",
                         "pii_ipv4_n", "pii_ssn_n", "pii_phone_n"])
    )


def _pii_oracle_sql() -> str:
    from xpshacl_ray.functions.text import PII_PATTERNS

    repl = "text_aug"
    for _name, pat, tok in PII_PATTERNS:
        repl = f"regexp_replace({repl}, '{pat}', '{tok}', 'g')"
    counts = ",\n  ".join(
        f"len(regexp_extract_all(text_aug, '{pat}')) AS pii_{name}_n"
        for name, pat, _tok in PII_PATTERNS)
    return f"""
WITH aug AS (
  SELECT doc_id,
    coalesce(text, '')
    || CASE WHEN doc_id % 3 = 0 THEN ' contact user' ||
         CAST(doc_id AS VARCHAR) || '@example.com' ELSE '' END
    || CASE WHEN doc_id % 2 = 0 THEN ' ip 10.0.' ||
         CAST(doc_id % 256 AS VARCHAR) || '.' ||
         CAST(doc_id % 100 AS VARCHAR) ELSE '' END
    || CASE WHEN doc_id % 5 = 0 THEN ' ssn 123-45-' ||
         lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') ELSE '' END
    || CASE WHEN doc_id % 7 = 0 THEN ' call 555-' ||
         lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0') || '-' ||
         lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') ELSE '' END
    AS text_aug
  FROM documents)
SELECT doc_id, {repl} AS text_redacted,
  {counts}
FROM aug
"""


def q_cms_term_counts(sf_dir: str):
    """Corpus-wide term counts via mergeable count-min sketch partials
    (one CMS blob per batch, cell-wise merge, point queries for the
    full vocabulary).  CMS never under-counts; at this vocabulary /
    width the collision overcount is zero, so the SQL exact counts are
    a hard oracle — the approximation bound is the documented ε·N."""
    from ray.data.aggregate import Sum

    from xpshacl_ray.functions.sketches import CountMinSketch
    from xpshacl_ray.functions.text import partial_term_counts

    docs = _docs(sf_dir, columns=["doc_id", "text"])

    def cms_partial(b: pa.Table) -> pa.Table:
        tc = partial_term_counts(b)
        s = CountMinSketch(width=8192, depth=4)
        s.add(tc["term"].to_pylist(), np.asarray(tc["n"]))
        return pa.table({"cms": pa.array([s.to_bytes()], pa.binary())})

    blobs = [r["cms"] for r in
             docs.map_batches(cms_partial, batch_format="pyarrow")
             .take_all()]
    cms = CountMinSketch.merge_many(blobs)
    vocab = (docs.map_batches(partial_term_counts, batch_format="pyarrow")
             .groupby("term").aggregate(Sum("n", alias_name="n")))
    terms = sorted(r["term"] for r in vocab.take_all())
    est = cms.query(terms)
    return pa.table({"term": pa.array(terms, pa.string()),
                     "n": pa.array(est, pa.int64())})


def q_heavy_hitters(sf_dir: str):
    """Exact corpus heavy hitters (terms with count >= 0.1% of all
    tokens) via the two-pass Misra-Gries candidates + exact-recount
    operator: the exchange never carries more than `capacity` entries
    per batch regardless of corpus size."""
    from xpshacl_ray.functions.text import heavy_hitter_terms

    return heavy_hitter_terms(_docs(sf_dir, columns=["text"]),
                              threshold_frac=0.001, capacity=4096)


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag corpus docs sharing a distinct
    5-gram with the benchmark slice (doc_id % 97 == 0) — broadcast
    benchmark hash set, row-local corpus pass (no shuffle)."""
    from xpshacl_ray.functions.decontam import decontaminate

    corpus = _docs(sf_dir, columns=["doc_id", "text"])
    bench = corpus.map_batches(
        lambda b: b.filter(
            pa.array(np.asarray(b["doc_id"], dtype=np.int64) % 97 == 0)),
        batch_format="pyarrow")
    return (
        decontaminate(corpus, bench, n=5)
        .select_columns(["doc_id", "contaminated_ngrams",
                         "is_contaminated"])
    )


def q_duplicate_spans(sf_dir: str):
    """Cross-document duplicate 13-gram span statistics (Lee et al.
    exact-substring-dedup signal): per-doc duplicated-position counts
    via bucketed gram-hash totals — compact rows only in both
    exchanges."""
    from xpshacl_ray.functions.decontam import duplicate_ngram_stats

    return duplicate_ngram_stats(_docs(sf_dir, columns=["doc_id", "text"]),
                                 n=13)


def q_repetition(sf_dir: str):
    """Within-doc n-gram repetition ratios (Gopher-style quality rule) —
    row-local, no shuffle."""
    from xpshacl_ray.functions.decontam import repetition_signals

    return (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(repetition_signals, batch_format="pyarrow")
        .select_columns(["doc_id", "rep_2gram_frac", "rep_3gram_frac"])
    )


def q_interval_join(sf_dir: str):
    """Point-in-interval range join (lineitem ship dates vs 30-day order
    windows): binned interval replication + one-bucket-per-point, pairs
    expanded vectorized inside each bucket."""
    from xpshacl_ray.functions.joins import interval_join

    points = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_shipdate"])

    def make_intervals(b: pa.Table) -> pa.Table:
        keep = np.asarray(b["o_orderkey"], dtype=np.int64) % 1499 == 0
        t = b.filter(pa.array(keep))
        start = np.asarray(t["o_orderdate"]).astype("datetime64[ns]")
        end = start + np.timedelta64(30, "D")
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "iv_start": pa.array(start),
                         "iv_end": pa.array(end)})

    intervals = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(make_intervals, batch_format="pyarrow")
    out = interval_join(points, intervals, "l_shipdate",
                        "iv_start", "iv_end")
    return out.select_columns(["l_orderkey", "l_linenumber", "o_orderkey"])


def q_fingerprints(sf_dir: str):
    return (
        _docs(sf_dir)
        .map_batches(lambda b: sha256_column(md5_fingerprint(b)),
                     batch_format="pyarrow")
        .select_columns(["doc_id", "fingerprint_md5", "content_sha256"])
    )


def q_corpus_diff(sf_dir: str):
    """Snapshot diff: documents whose CONTENT is absent from the
    even-doc_id half (simulating the previous crawl) — distinct B-side
    hashes broadcast once, vectorized A-side probe, text never
    shuffles."""
    from xpshacl_ray.functions.dedup import corpus_diff

    # null texts: the library keeps them (unscannable = new), SQL's
    # NOT IN drops them (NULL comparison) — filter for oracle parity
    docs = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: b.filter(pc.is_valid(b["text"])),
        batch_format="pyarrow")
    prev = docs.map_batches(
        lambda b: b.filter(pa.array(
            np.asarray(pc.cast(b["doc_id"], pa.int64())) % 2 == 0)),
        batch_format="pyarrow")
    return corpus_diff(docs, prev).select_columns(["doc_id"])


def q_exact_dedup(sf_dir: str):
    return exact_dedup(_docs(sf_dir))


def q_knn_cosine(sf_dir: str):
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    q0 = np.asarray(
        emb.filter(expr="vec_id == 0").take(1)[0]["embedding"], dtype=np.float64
    )
    got = knn_cosine_bruteforce(emb, q0, k=10)
    out = got[["vec_id", "cosine", "rank"]].copy()
    out["cosine"] = out["cosine"].round(3)
    out["rank"] = out["rank"].astype("int64")
    out["vec_id"] = out["vec_id"].astype("int64")
    return out.reset_index(drop=True)


def q_quantized_knn(sf_dir: str):
    """Two-stage quantized ANN: int8 scan (4-16x less memory traffic)
    -> exact float rerank of the 100-candidate shortlist, so the final
    top-10 ORDER is exact precision and shares the exact-kNN oracle —
    the 10^9-vector memory-bound scale path, hard-checked against the
    same SQL as the float scan."""
    from xpshacl_ray.functions.similarity import (
        knn_cosine_quantized,
        quantize_embeddings,
    )

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    q0 = np.asarray(
        emb.filter(expr="vec_id == 0").take(1)[0]["embedding"],
        dtype=np.float64)
    qds = quantize_embeddings(emb)
    got = knn_cosine_quantized(qds, emb, q0, k=10, shortlist=100)
    out = got[["vec_id", "cosine", "rank"]].copy()
    out["cosine"] = out["cosine"].round(3)
    out["rank"] = out["rank"].astype("int64")
    out["vec_id"] = out["vec_id"].astype("int64")
    return out.reset_index(drop=True)


def q_embedding_near_dups(sf_dir: str):
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    pairs = embedding_near_dups(emb, threshold=0.99).to_pandas()
    if "cosine" not in pairs.columns:  # empty Dataset loses its schema
        pairs = pd.DataFrame(
            {"id_a": pd.Series(dtype="int64"),
             "id_b": pd.Series(dtype="int64"),
             "cosine": pd.Series(dtype="float64")}
        )
    pairs["cosine"] = pairs["cosine"].round(3)
    return pairs


# --- rows-only queries (no SQL-expressible oracle) --------------------------


def q_lang_id(sf_dir: str):
    return (
        _docs(sf_dir)
        .map_batches(LanguageId(), batch_format="pyarrow")
        .select_columns(["doc_id", "lang_pred", "lang_score"])
    )


def q_quality_scores(sf_dir: str):
    return (
        _docs(sf_dir)
        .map_batches(QualityScorer(), batch_format="pyarrow")
        .select_columns(["doc_id", "q_len", "q_punct_ratio",
                         "q_stopword_ratio", "quality_score"])
    )


def q_simhash(sf_dir: str):
    from xpshacl_ray.functions.dedup import SimHasher

    return (
        _docs(sf_dir)
        .map_batches(SimHasher(), batch_format="pyarrow")
        .select_columns(["doc_id", "simhash64"])
    )


def q_minhash_pairs(sf_dir: str):
    return minhash_lsh_candidates(_docs(sf_dir), jaccard_threshold=0.8)


def q_ngram_jaccard_pairs(sf_dir: str):
    ds = _docs(sf_dir)
    cand = minhash_lsh_candidates(ds, jaccard_threshold=0.8)
    return verify_pairs_ngram(ds, cand, threshold=0.8)


def q_simhash_pairs(sf_dir: str):
    return simhash_near_dups(_docs(sf_dir), max_hamming=3)


def q_canonical_dups(sf_dir: str):
    """Production near-dup dedup semantics: within each duplicate
    CLUSTER (connected components over the LSH pair graph), keep the
    BEST-QUALITY copy, not the lowest id — (doc_id, cluster,
    quality_score, is_canonical) for every clustered doc.  Cluster
    labels come from the distributed propagation; the label table
    (bounded by the dup-graph node count, ≪ corpus) broadcasts to tag
    quality-scored docs map-side; canonical selection is one tiny
    per-cluster argmax.  Oracle: recursive-CTE components over the
    independent golden pairs + the shared SQL quality formula + a
    window argmax."""
    from xpshacl_ray.functions.dedup import cluster_labels_distributed

    docs = _docs(sf_dir)
    pairs = minhash_lsh_candidates(docs, jaccard_threshold=0.8)
    labels = cluster_labels_distributed(pairs)
    lab_rows = labels.take_all()  # bounded: dup-graph nodes only
    lab_map = {int(r["node"]): int(r["label"]) for r in lab_rows}
    lab_ref = ray.put(lab_map)

    def tag(b: pa.Table) -> pa.Table:
        m = ray.get(lab_ref)
        ids = np.asarray(pc.cast(b["doc_id"], pa.int64()))
        keep = np.array([int(v) in m for v in ids], dtype=bool)
        t = b.filter(pa.array(keep))
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             "quality_score": pa.array([], pa.float64())})
        tids = np.asarray(pc.cast(t["doc_id"], pa.int64()))
        return pa.table({
            "doc_id": pa.array(tids, pa.int64()),
            "cluster": pa.array([m[int(v)] for v in tids], pa.int64()),
            "quality_score": pc.round(t["quality_score"], ndigits=6),
        })

    scored = docs.map_batches(QualityScorer(), batch_format="pyarrow")
    clustered = scored.map_batches(tag, batch_format="pyarrow")

    def pick(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["quality_score", "doc_id"],
                          ascending=[False, True])
        g = g.copy()
        g["is_canonical"] = np.arange(len(g)) == 0
        return g

    return clustered.groupby("cluster").map_groups(
        pick, batch_format="pandas")


def q_containment_pairs(sf_dir: str):
    """Asymmetric containment (|A∩B|/min) over the LSH candidate pairs —
    the sub-document-duplication verdict; kernel hard-checked against a
    pure-SQL word-trigram computation over the independent golden pair
    set (no golden values for the metric itself)."""
    ds = _docs(sf_dir)
    cand = minhash_lsh_candidates(ds, jaccard_threshold=0.8)
    return verify_pairs_ngram(ds, cand, threshold=0.9,
                              metric="containment")


def q_edit_distance_pairs(sf_dir: str):
    """Character-level edit similarity (1 − lev/maxlen) over the LSH
    candidate pairs — the strictest near-dup verification tier (order-
    sensitive, no tokenization); vectorized-row DP kernel through the
    same broadcast/bucketed-join verify paths."""
    ds = _docs(sf_dir)
    cand = minhash_lsh_candidates(ds, jaccard_threshold=0.8)
    return verify_pairs_ngram(ds, cand, threshold=0.0,
                              metric="edit_sim")


def q_dup_clusters(sf_dir: str):
    """Duplicate-cluster resolution: connected components over the
    MinHash-LSH candidate-pair graph via distributed min-label
    propagation with pointer jumping (``cluster_labels_distributed``,
    one small groupby shuffle per round, no driver union-find) —
    (doc_id, cluster) where ``cluster`` is the smallest doc_id in the
    component.  Oracle: a DuckDB recursive CTE computing reachability
    closure over the INDEPENDENT brute-force golden pair set
    (tools/make_goldens.py) — the engine's iterative algorithm is
    checked against SQL recursion, not against itself."""
    from xpshacl_ray.functions.dedup import cluster_labels_distributed

    pairs = minhash_lsh_candidates(_docs(sf_dir), jaccard_threshold=0.8)
    labels = cluster_labels_distributed(pairs)
    return labels.map_batches(
        lambda b: pa.table({"doc_id": b["node"], "cluster": b["label"]}),
        batch_format="pyarrow",
    )


def q_leakage_safe_split(sf_dir: str):
    """Group-aware train/test split: every member of a near-dup cluster
    gets the SAME side (md5 of the cluster label, not the doc id), so
    near-duplicates can never straddle the split and leak eval data
    into training.  Cluster labels (bounded by dup-graph node count)
    broadcast as sorted arrays; assignment is map-only."""
    from xpshacl_ray.functions.dedup import cluster_labels_distributed
    from xpshacl_ray.functions.sampling import md5_bucket

    pairs = minhash_lsh_candidates(_docs(sf_dir), jaccard_threshold=0.8)
    labels = cluster_labels_distributed(pairs).to_pandas()
    order = np.argsort(labels["node"].to_numpy())
    nodes_ref = ray.put(labels["node"].to_numpy()[order])
    labs_ref = ray.put(labels["label"].to_numpy()[order])

    def assign(b: pa.Table) -> pa.Table:
        nodes, labs = ray.get(nodes_ref), ray.get(labs_ref)
        ids = np.asarray(pc.cast(b["doc_id"], pa.int64()))
        if len(nodes):
            idx = np.clip(np.searchsorted(nodes, ids), 0, len(nodes) - 1)
            hit = nodes[idx] == ids
            cluster = np.where(hit, labs[idx], ids)
        else:
            cluster = ids
        fold = md5_bucket([str(int(c)) for c in cluster], 100)
        split = np.where(fold < 20, "test", "train")
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "cluster": pa.array(cluster, pa.int64()),
            "split": pa.array(split.tolist(), pa.string()),
        })

    return _docs(sf_dir, columns=["doc_id"]).map_batches(
        assign, batch_format="pyarrow")


def q_knn_batch(sf_dir: str):
    """Batched multi-query exact kNN (the real ANN workload shape): one
    broadcast (n_q × d) query matrix, ONE matmul per batch covers all
    queries, per-(query, block) partial top-k → tree merge."""
    import pyarrow.parquet as pq

    from xpshacl_ray.functions.similarity import knn_cosine_bruteforce

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "<", 5)])
    order = np.argsort(np.asarray(qt["vec_id"], dtype=np.int64))
    qm = np.stack([np.asarray(qt["embedding"][int(i)].as_py(),
                              dtype=np.float64) for i in order])
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    res = knn_cosine_bruteforce(emb, qm, k=5)
    return pd.DataFrame({
        "query_id": res["query_idx"].astype("int64"),
        "vec_id": res["vec_id"].astype("int64"),
        "cosine": res["cosine"].round(3),
        "rank": res["rank"].astype("int64"),
    })


def q_embedding_dim_stats(sf_dir: str):
    """Per-dimension corpus statistics of the embedding column (the
    whitening/normalization prep): per-batch (n, Σx, Σx²) vectors —
    ONE fixed-width row per batch, no shuffle at all; driver finalizes
    mean and population std per dim."""
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["embedding"])

    def part(b: pa.Table) -> pa.Table:
        from xpshacl_ray.functions.similarity import _as_matrix
        m = _as_matrix(b, "embedding").astype(np.float64)
        mom = np.concatenate([[float(len(m))], m.sum(axis=0),
                              (m * m).sum(axis=0)])
        return pa.table({"m": pa.array([mom.tolist()],
                                       pa.list_(pa.float64()))})

    parts = emb.map_batches(part, batch_format="pyarrow").take_all()
    tot = np.sum([np.asarray(p["m"]) for p in parts], axis=0)
    n = tot[0]
    d = (len(tot) - 1) // 2
    s1, s2 = tot[1:1 + d], tot[1 + d:]
    mean = s1 / n
    var = s2 / n - mean * mean
    return pa.table({
        "dim": pa.array(np.arange(d, dtype=np.int64)),
        "mean": pa.array(np.round(mean, 6)),
        "std": pa.array(np.round(np.sqrt(np.maximum(var, 0.0)), 6)),
    })


def q_dup_size_histogram(sf_dir: str):
    """Duplicate-group size distribution (how bad is the dup problem
    before paying for dedup): exact_dedup's (hash, count) output over
    100-char prefix fingerprints (full texts are all unique in this
    corpus; truncated re-posts collide — 22 biting groups),
    re-aggregated by group size — both exchanges carry aggregate rows."""
    from ray.data.aggregate import Count

    from xpshacl_ray.functions.dedup import exact_dedup

    docs = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"],
            "text": pc.utf8_slice_codeunits(b["text"], 0, 100),
        }), batch_format="pyarrow")
    groups = exact_dedup(docs)

    def to_size(b: pa.Table) -> pa.Table:
        return pa.table({
            "group_size": pc.add(b["n_dupes"], 1)})

    return (groups.map_batches(to_size, batch_format="pyarrow")
            .groupby("group_size")
            .aggregate(Count(alias_name="n_groups")))


def q_lang_source_mi(sf_dir: str):
    """Mutual information between source and lang (is a feed drifting
    to one language?): one (source, lang, count) exchange (≤ shards ×
    langs rows), closed-form MI/entropies on the driver."""
    from ray.data.aggregate import Sum

    docs = _docs(sf_dir, columns=["source", "lang"])

    def part(b: pa.Table) -> pa.Table:
        g = b.group_by(["source", "lang"]).aggregate([([], "count_all")])
        return pa.table({"source": g["source"], "lang": g["lang"],
                         "p_n": pc.cast(g["count_all"], pa.int64())})

    cells = (docs.map_batches(part, batch_format="pyarrow")
             .groupby(["source", "lang"])
             .aggregate(Sum("p_n", alias_name="n")).take_all())
    n = float(sum(r["n"] for r in cells))
    ps: dict = {}
    pl: dict = {}
    for r in cells:
        ps[r["source"]] = ps.get(r["source"], 0.0) + r["n"]
        pl[r["lang"]] = pl.get(r["lang"], 0.0) + r["n"]
    mi = sum((r["n"] / n) * np.log((r["n"] / n)
                                   / ((ps[r["source"]] / n)
                                      * (pl[r["lang"]] / n)))
             for r in cells)
    h_s = -sum((v / n) * np.log(v / n) for v in ps.values())
    h_l = -sum((v / n) * np.log(v / n) for v in pl.values())
    return pa.table({"mi": pa.array([round(float(mi), 6)]),
                     "h_source": pa.array([round(float(h_s), 6)]),
                     "h_lang": pa.array([round(float(h_l), 6)])})


def q_mean_pool(sf_dir: str):
    """Chunk→doc embedding pooling: element-wise mean of embeddings per
    group (vec_id // 10 plays the "chunks of one document" role).
    Raw vectors never shuffle — one d-dim partial per group per batch;
    flat (grp, dim, avg) output."""
    from xpshacl_ray.functions.similarity import mean_pool_by_group

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    return mean_pool_by_group(
        emb, lambda b: np.asarray(pc.cast(b["vec_id"], pa.int64())) // 10)


def q_ivf_knn(sf_dir: str):
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    cent = train_centroids(emb, n_centroids=8, iters=5)
    indexed = ivf_assign(emb, cent)
    q0 = np.asarray(
        emb.filter(expr="vec_id == 0").take(1)[0]["embedding"], dtype=np.float64
    )
    out = knn_cosine_ivf(indexed, cent, q0, k=10, nprobe=4)
    out["cosine"] = out["cosine"].round(3)
    return out[["vec_id", "cosine", "rank"]].reset_index(drop=True)


def q_kmeans_clusters(sf_dir: str):
    """Full-data distributed spherical k-means (Lloyd's via per-batch
    partial sums — the scale path past sample-trained centroids) +
    per-vector assignment; golden oracle from an independent numpy
    reimplementation (tools/make_goldens.kmeans_clusters_golden)."""
    from xpshacl_ray.functions.similarity import kmeans_assign, kmeans_fit

    # materialize once: Lloyd's scans the table iters+2 times (seed, one
    # pass per iteration, final assign) — object-store-cached blocks
    # (with spill past memory) beat re-reading Parquet every pass
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet").materialize()
    cents = kmeans_fit(emb, k=8, iters=5)
    out = kmeans_assign(emb, cents).to_pandas()
    out["cosine"] = out["cosine"].round(6)
    return out.sort_values("vec_id").reset_index(drop=True)


def q_funnel(sf_dir: str):
    """First-touch ordered funnel view→click→purchase over events: one
    user-bucket shuffle, vectorized per-bucket evaluation, tiny driver
    merge."""
    from xpshacl_ray.stages.window import funnel_counts

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_type"])
    return funnel_counts(ev, ["view", "click", "purchase"])


def q_ohlc_hourly(sf_dir: str):
    """Hourly open/high/low/close per user: order-aware mergeable
    combiner — each batch collapses to one row per (user, hour)
    carrying the order keys, the groupby merges partials by comparing
    them; raw events never shuffle."""
    from xpshacl_ray.stages.window import ohlc

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"])
    return ohlc(ev, key_cols=["user_id"], ts_col="ts",
                value_col="value", tie_col="event_id",
                window_seconds=3600)


def q_late_events(sf_dir: str):
    """Watermark late-data triage: per-user running-max ts over ARRIVAL
    order (deterministic md5 scramble of event_id — the fixture's
    events are perfectly ordered, so the scramble simulates network
    reordering reproducibly on both sides); events lagging the
    watermark by >60 s flag late.  Key-bucket shuffle + vectorized
    grouped-cummax sweep."""
    import hashlib as _hl

    from xpshacl_ray.stages.window import flag_late_events

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts"])

    def add_arrival(b: pa.Table) -> pa.Table:
        arr = [_hl.md5(str(v).encode()).hexdigest()
               for v in b["event_id"].to_pylist()]
        return b.append_column("arrival", pa.array(arr, pa.string()))

    out = flag_late_events(ev.map_batches(add_arrival,
                                          batch_format="pyarrow"),
                           key_cols=["user_id"], ts_col="ts",
                           arrival_col="arrival",
                           max_lateness_seconds=60.0)
    return out.drop_columns(["arrival"])


def q_throttle_events(sf_dir: str):
    """Burst throttling: drop events of the same (user, type) arriving
    < 300 s after their immediate predecessor (lag semantics, event_id
    tie-break).  One user-bucket shuffle + vectorized per-partition
    sweep; null users excluded on both sides (SQL PARTITION BY groups
    nulls, the engine treats each null key as first-of-key)."""
    from xpshacl_ray.stages.window import throttle_events

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "ts"],
    ).map_batches(
        lambda b: b.filter(pc.is_valid(b["user_id"])),
        batch_format="pyarrow")
    out = throttle_events(ev, ["user_id", "event_type"], ts_col="ts",
                          min_gap_seconds=300.0, tie_col="event_id")
    return out.select_columns(["event_id", "user_id", "event_type", "ts"])


def q_window_distinct(sf_dir: str):
    """Exact distinct users per (event_type, hour window): two-level
    dedup — per-batch distinct-triple combiner, one triple-dedup
    groupby, tiny count groupby; raw events never shuffle."""
    from xpshacl_ray.stages.window import tumbling_distinct

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "user_id"])
    out = tumbling_distinct(ev, ["event_type"], "user_id", unit="hour")
    return out.map_batches(
        lambda b: pa.table({
            "event_type": b["event_type"],
            "window_start": pc.cast(b["window_start"],
                                    pa.timestamp("us")),
            "n_distinct": pc.cast(b["n_distinct"], pa.int64())}),
        batch_format="pyarrow")


def q_percentile_rank(sf_dir: str):
    """SQL percent_rank() as a distributed two-pass operator: per-group
    value histograms (distinct-pair-bounded exchange) broadcast once,
    then row-local vectorized searchsorted."""
    from xpshacl_ray.stages.stats import percentile_rank

    docs = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
    docs = docs.map_batches(
        lambda b: b.filter(pc.is_valid(b["n_chars"])),
        batch_format="pyarrow")
    out = percentile_rank(docs, "n_chars", ["lang"])
    return out.map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"], "lang": b["lang"],
            "n_chars": b["n_chars"],
            "pct_rank": pc.round(b["pct_rank"], ndigits=6)}),
        batch_format="pyarrow")


def q_sessions(sf_dir: str):
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])
    out = sessionize(ev, "user_id", gap_seconds=1800).to_pandas()
    out["n_events"] = out["n_events"].astype("int64")
    return out


def q_json_project(sf_dir: str):
    """Declarative SQL-on-batch projection (sql_project, the map-stage
    generalization of SqlCheck): typed JSON field extraction from the
    events props column, DuckDB per Arrow batch, distributed by Ray."""
    from xpshacl_ray.functions.sqlmap import sql_project

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    return sql_project(
        ev,
        """SELECT event_id,
                  CAST(json_extract_string(props, '$.k') AS BIGINT) AS k,
                  json_extract_string(props, '$.tag') AS tag
           FROM batch""",
        columns=["event_id", "props"],
    )


def q_asof_next_click(sf_dir: str):
    """FORWARD as-of join: each view matched to the user's next click at
    or after it (direction='forward' through the same bucketed
    merge-asof machinery as the backward query)."""
    from xpshacl_ray.functions.joins import asof_join

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "event_type"])
    views = ev.filter(expr="event_type == 'view'").select_columns(
        ["event_id", "user_id", "ts"])

    def carry_ts(b: pa.Table) -> pa.Table:
        return b.append_column("click_ts", b["ts"])

    clicks = (
        ev.filter(expr="event_type == 'click'")
        .select_columns(["user_id", "ts"])
        .map_batches(carry_ts, batch_format="pyarrow")
    )
    joined = asof_join(views, clicks, key="user_id", ts="ts",
                       direction="forward")

    def shape(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": pc.cast(b["event_id"], pa.int64()),
            "user_id": pc.cast(b["user_id"], pa.int64()),
            "ts": b["ts"],
            "click_ts": b["click_ts"],
        })

    return joined.map_batches(shape, batch_format="pyarrow")


def q_supplier_item_rollup(sf_dir: str):
    """LEFT OUTER bucketed hash join: every supplier keeps its row,
    suppliers absent from the (restricted, so the outer side BITES)
    lineitem aggregate get NULL measures.  The right side is
    pre-aggregated per key before the join — the exchange carries one
    row per (supplier, batch), never lineitems."""
    from ray.data.aggregate import Sum

    from xpshacl_ray.functions.joins import hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_orderkey", "l_quantity"])

    def part(b: pa.Table) -> pa.Table:
        b = b.filter(pa.array(
            np.asarray(pc.cast(b["l_orderkey"], pa.int64())) % 499 == 0))
        t = pa.table({
            "s_suppkey": b["l_suppkey"],
            "p_n": pa.array(np.ones(len(b), np.int64)),
            "p_qty": pa.array(_to_scaled_int(
                b["l_quantity"].to_numpy(zero_copy_only=False), 100)),
        })
        g = t.group_by(["s_suppkey"]).aggregate(
            [("p_n", "sum"), ("p_qty", "sum")])
        return g.rename_columns(["s_suppkey", "p_n", "p_qty"])

    agg = (li.map_batches(part, batch_format="pyarrow")
           .groupby("s_suppkey")
           .aggregate(Sum("p_n", alias_name="n_items"),
                      Sum("p_qty", alias_name="qty_cents")))
    sup = ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                                columns=["s_suppkey"])
    j = hash_join(sup, agg, key="s_suppkey", how="left")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        # NULL-fill promotes per-bucket dtypes inconsistently; pin BOTH
        # measure columns to float64 so the unioned schema is stable
        return pd.DataFrame({
            "s_suppkey": b["s_suppkey"].astype("int64"),
            "n_items": b["n_items"].astype("float64"),
            "qty_cents": b["qty_cents"].astype("float64"),
        })

    return j.map_batches(finish, batch_format="pandas")


def q_pagerank(sf_dir: str):
    """Fixed-iteration PageRank over the supplier→customer trade graph
    (edges = DISTINCT pairs through lineitem⋈orders).  Each round scans
    the distributed edge table against a broadcast rank vector;
    per-batch partials pre-sum per destination before the one groupby.
    Oracle: the same three rounds UNROLLED in SQL."""
    import pyarrow.parquet as pq

    from xpshacl_ray.functions.graph import pagerank
    from xpshacl_ray.functions.joins import broadcast_join

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_suppkey"])
    # orders is key-unique and two-int-columns narrow — the broadcast
    # tier (ray.put once, searchsorted probe per batch) beats a bucketed
    # shuffle join by ~10 s at sf0.1; swap to hash_join past ~10^8 keys
    odf = pq.read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_custkey"]).to_pandas()
    odf = odf.rename(columns={"o_orderkey": "l_orderkey"})
    j = broadcast_join(li, odf, key="l_orderkey")

    def to_edges(b: pa.Table) -> pa.Table:
        # drop broadcast-join misses (FK-clean here; belt-and-braces)
        b = b.filter(pc.is_valid(b["o_custkey"]))
        # int node encoding (suppkey*2 / custkey*2+1): keeps the
        # per-round broadcast probe a vectorized int searchsorted
        s = np.asarray(pc.cast(b["l_suppkey"], pa.int64())) * 2
        c = np.asarray(pc.cast(b["o_custkey"], pa.int64())) * 2 + 1
        return pa.table({"src": pa.array(s), "dst": pa.array(c)})

    return pagerank(j.map_batches(to_edges, batch_format="pyarrow"),
                    damping=0.85, iters=3)


def q_cycle_members(sf_dir: str):
    """Directed-cycle membership over a deterministic functional graph
    derived from customers (``dst = (c² + 3) mod N + 1`` — squaring is
    many-to-one, so the ρ-shaped out-degree-1 graph has long acyclic
    tails feeding small cycles; the oracle computes the exact cycle set
    via a recursive reachability CTE).  Engine plan
    (:func:`xpshacl_ray.functions.graph.cycle_members`): distributed
    TRIM to fixpoint (tails peel off round by round with only the
    distinct node set broadcast) + exact Tarjan SCC on the surviving
    cyclic core — the iterative operator behind the shark
    ``subClassOf+`` shape, here checked against closed-form SQL
    recursion rather than a generation-rule VALUES list."""
    from xpshacl_ray.functions.graph import cycle_members

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey"])
    n = int(cust.max("c_custkey"))

    def to_edges(b: pa.Table) -> pa.Table:
        s = np.asarray(pc.cast(b["c_custkey"], pa.int64()))
        d = (s * s + 3) % np.int64(n) + 1
        return pa.table({"src": pa.array(s, pa.int64()),
                         "dst": pa.array(d, pa.int64())})

    edges = cust.map_batches(to_edges, batch_format="pyarrow")
    return cycle_members(edges)


_CYCLE_MEMBERS_SQL = """
    WITH RECURSIVE e AS (
        SELECT s, t FROM (
            SELECT c_custkey AS s,
                   (c_custkey * c_custkey + 3) % (SELECT max(c_custkey)
                                                  FROM customer) + 1 AS t
            FROM customer) raw
    ),
    reach(s, t) AS (
        SELECT s, t FROM e
        UNION
        SELECT r.s, e.t FROM reach r JOIN e ON r.t = e.s
    )
    SELECT DISTINCT s AS node FROM reach WHERE s = t
"""


def q_suppliers_no_lineitems(sf_dir: str):
    """Explicit distributed anti-join: suppliers with no lineitem —
    distinct-key build (combiner-bounded) + broadcast miss-probe, the
    same machinery the referential constraint fuses into its scan."""
    from xpshacl_ray.stages.referential import distinct_keys

    # restrict the build side (orderkey % 499 == 0) so the anti-join
    # BITES at test scale — every supplier appears somewhere in the
    # dense full table, which would make a 0-row check vacuous
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_orderkey"],
    ).map_batches(
        lambda b: b.filter(pa.array(
            np.asarray(pc.cast(b["l_orderkey"], pa.int64())) % 499 == 0)),
        batch_format="pyarrow")
    li_keys = distinct_keys(li, "l_suppkey")
    keys_ref = ray.put(np.sort(np.asarray(li_keys, dtype=np.int64)))

    def probe(b: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        sk = np.asarray(pc.cast(b["s_suppkey"], pa.int64()))
        pos = np.clip(np.searchsorted(ks, sk), 0, max(0, len(ks) - 1))
        hit = ks[pos] == sk if len(ks) else np.zeros(len(sk), bool)
        return b.filter(pa.array(~hit))

    sup = ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                                columns=["s_suppkey", "s_name"])
    return sup.map_batches(probe, batch_format="pyarrow")


def q_reassemble_chunks(sf_dir: str):
    """Chunk→reassemble ROUNDTRIP: non-overlapping chunking (stride =
    size) then ordered per-doc concatenation must reproduce every
    non-empty document byte-for-byte — the oracle is simply the
    documents table itself.  Reassembly is a doc-bucket shuffle + one
    vectorized sort + offset-join sweep per partition."""
    from xpshacl_ray.functions.packing import chunk_documents
    from xpshacl_ray.functions.sketches import hash64

    chunks = chunk_documents(_docs(sf_dir, columns=["doc_id", "text"]),
                             chunk_size=150, stride=150)

    def tag(b: pa.Table) -> pa.Table:
        part = (hash64(np.asarray(b["doc_id"])) % 32).astype(np.int32)
        return b.append_column("__part__", pa.array(part))

    def reassemble(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["doc_id", "chunk_id"])
        out = g.groupby("doc_id", sort=False)["chunk_text"].agg("".join)
        return out.reset_index().rename(columns={"chunk_text": "text"})

    return (chunks.map_batches(tag, batch_format="pyarrow")
            .groupby("__part__")
            .map_groups(lambda g: reassemble(g.drop(columns="__part__")),
                        batch_format="pandas"))


def q_json_extract_sum(sf_dir: str):
    """C19 custom-UDF surface with an oracle: parse the JSON props column
    and aggregate the extracted field per event type (per-batch combiner)."""
    import json as _json

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "props"])

    def extract_partial(b: pa.Table) -> pa.Table:
        ks = [
            None if p is None else int(_json.loads(p).get("k"))
            for p in b["props"].to_pylist()
        ]
        t = pa.table({"event_type": b["event_type"],
                      "k": pa.array(ks, pa.int64())})
        agg = t.group_by(["event_type"]).aggregate(
            [("k", "sum"), ([], "count_all")])
        return agg.rename_columns(["event_type", "p_sum", "p_n"])

    from ray.data.aggregate import Sum

    out = (
        ev.map_batches(extract_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("p_sum", alias_name="sum_k"),
                   Sum("p_n", alias_name="n_events"))
        .to_pandas()
    )
    out["sum_k"] = out["sum_k"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    return out


def q_asof_purchase_signup(sf_dir: str):
    """As-of join: each purchase matched to the user's latest prior signup."""
    from xpshacl_ray.functions.joins import asof_join

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "event_type"])
    purchases = ev.filter(expr="event_type == 'purchase'").select_columns(
        ["event_id", "user_id", "ts"])

    def carry_ts(b: pa.Table) -> pa.Table:
        return b.append_column("signup_ts", b["ts"])

    signups = (
        ev.filter(expr="event_type == 'signup'")
        .select_columns(["user_id", "ts"])
        .map_batches(carry_ts, batch_format="pyarrow")
    )
    joined = asof_join(purchases, signups, key="user_id", ts="ts")

    def shape(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "ts": b["ts"],
                "signup_ts": b["signup_ts"],
            }
        )

    return joined.map_batches(shape, batch_format="pyarrow")


def q_sql_check(sf_dir: str):
    """C19 declarative variant ("constraint as data"): a SQL-string
    predicate evaluated per Arrow batch by DuckDB inside the fused
    row-local scan — the tabular analog of the reference's SPARQL-string
    constraints (shark_shapes.ttl), no Python callable required."""
    spec = ValidationSpec(
        constraints=[
            SqlCheck(column="n_chars", name="short_de_doc",
                     where="lang = 'de' AND n_chars < 150",
                     columns=["lang", "n_chars"]),
        ],
        id_columns=["doc_id"],
        focus_template="doc:{doc_id}",
    )
    eng = ValidationEngine(spec)
    viol = eng.validate(_docs(sf_dir, columns=eng.compiled.required_columns()))
    return viol.select_columns(["doc_id", "constraint_id", "message", "value"])


def q_ttl_parity(sf_dir: str):
    """Head-to-head with the reference on its OWN fixtures: parse the
    reference's example_data.ttl + example_shapes.ttl with the stdlib
    Turtle shim, validate, and emit the violation rows — the oracle pins
    the README example's 4 violations including the byte-exact pyshacl
    MinInclusive message.  (sf_dir-independent by design.)"""
    from xpshacl_ray.sources.ttl import validate_ttl

    viol = validate_ttl("/root/reference/data/example_data.ttl",
                        "/root/reference/data/example_shapes.ttl")
    return viol.select_columns(
        ["subject", "constraint_id", "property_path", "value", "message"])


_TTL_PARITY_SQL = """
    SELECT * FROM (VALUES
      ('http://example.org/resource1',
       'http://www.w3.org/ns/shacl#MinCountConstraintComponent',
       'http://example.org/hasName', NULL,
       'Less than 1 values on http://example.org/hasName'),
      ('http://example.org/resource1',
       'http://www.w3.org/ns/shacl#MinInclusiveConstraintComponent',
       'http://example.org/hasAge', '-20',
       'Value is not >= Literal("0", datatype=xsd:integer)'),
      ('http://example.org/resource2',
       'http://www.w3.org/ns/shacl#MinCountConstraintComponent',
       'http://example.org/hasName', NULL,
       'Less than 1 values on http://example.org/hasName'),
      ('http://example.org/resource3',
       'http://www.w3.org/ns/shacl#MinCountConstraintComponent',
       'http://example.org/foundedOn', NULL,
       'Less than 1 values on http://example.org/foundedOn')
    ) AS t(subject, constraint_id, property_path, value, message)
"""


_TTL_AUTO_EX = "http://example.org/"


def _ttl_auto_fixture() -> tuple:
    """Deterministic shark-style fixture for the auto-translated SPARQL
    subset (VERDICT r3 item 6): 50 owl:Class subjects (every 5th has two
    DISTINCT superclasses; every 3rd repeats its first parent, which
    must NOT count) and 20 ex:Prop subjects (every 4th is inverseOf
    itself).  Returns (data_ttl, shapes_ttl, expected) where expected
    is the (subject, message) violation list derived INDEPENDENTLY from
    the generation rule — the oracle, not the engine, decides."""
    ex = _TTL_AUTO_EX
    data = [
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .",
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .",
        f"@prefix ex: <{ex}> .",
    ]
    expected = []
    for i in range(50):
        lines = [f"ex:C{i:02d} a owl:Class", f'rdfs:label "class {i}"',
                 f"rdfs:subClassOf ex:P{i % 7}"]
        if i % 3 == 0:
            lines.append(f"rdfs:subClassOf ex:P{i % 7}")  # duplicate
        if i % 5 == 0:
            lines.append(f"rdfs:subClassOf ex:P{(i + 1) % 7}")
            expected.append((f"{ex}C{i:02d}",
                             "Classes must have at most one superclass"))
        data.append(" ; ".join(lines) + " .")
    for j in range(20):
        inv = j if j % 4 == 0 else (j + 1) % 20
        data.append(f'ex:R{j:02d} a ex:Prop ; rdfs:label "prop {j}" ; '
                    f"ex:inverseOf ex:R{inv:02d} .")
        if j % 4 == 0:
            expected.append((f"{ex}R{j:02d}",
                             "Relationships must not be inverse to "
                             "themselves"))
    shapes = f"""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <{ex}> .

ex:ClassShape a sh:NodeShape ;
  sh:targetClass owl:Class ;
  sh:property [
    sh:path rdfs:label ;
    sh:minCount 1 ;
  ] ;
  sh:property [
    sh:path rdfs:subClassOf ;
    sh:sparql [
      sh:message "Classes must have at most one superclass" ;
      sh:select \"\"\"
      PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
      SELECT DISTINCT $this
      WHERE {{
        $this rdfs:subClassOf ?v1 .
        $this rdfs:subClassOf ?v2 .
        FILTER(?v1 != ?v2) .
      }}
      \"\"\" ;
    ] ;
  ] .

ex:PropShape a sh:NodeShape ;
  sh:targetClass ex:Prop ;
  sh:property [
    sh:path rdfs:label ;
    sh:minCount 1 ;
  ] ;
  sh:property [
    sh:path ex:inverseOf ;
    sh:sparql [
      sh:message "Relationships must not be inverse to themselves" ;
      sh:select \"\"\"
      PREFIX ex: <{ex}>
      SELECT $this
      WHERE {{
        $this a ?property .
        FILTER(?property IN (ex:Prop)) .
        $this ex:inverseOf $this .
      }}
      \"\"\" ;
    ] ;
  ] .
"""
    return "\n".join(data) + "\n", shapes, sorted(expected)


def q_epoch_shuffle(sf_dir: str):
    """Deterministic resumable training-epoch shuffle: every doc's rank
    is a pure function of (doc_id, seed, epoch) — reproducible across
    retries/resumes (unlike ``random_shuffle``, whose re-executed blocks
    draw new randomness), epochs differ, and the identical int64
    expression evaluates in the SQL oracle.  One distributed sort is the
    only wide step; the head-1000 of the epoch order verifies both rank
    values and ordering."""
    from xpshacl_ray.functions.sampling import epoch_shuffle

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    return epoch_shuffle(docs, "doc_id", seed=42, epoch=3, limit=1000)


def q_ttl_sparql_auto(sf_dir: str):
    """Shark-style multi-row ``sh:sparql`` blocks AUTO-translated from
    Turtle (VERDICT r3 item 6, no hand-bound ``sparql_impls``): the
    two-triple self-join becomes a vectorized
    GroupPredicate(distinct>=2) and the ``$this p $this`` self-inverse
    a per-group fn, both scoped to their shape's target class.  The
    oracle is derived independently from the fixture's generation rule.
    (sf_dir-independent by design, like ``ttl_parity``.)"""
    import os
    import tempfile

    from xpshacl_ray.sources.ttl import validate_ttl

    data_ttl, shapes_ttl, _ = _ttl_auto_fixture()
    d = os.path.join(tempfile.gettempdir(), "xpshacl_ttl_auto")
    os.makedirs(d, exist_ok=True)
    dp, sp = os.path.join(d, "data.ttl"), os.path.join(d, "shapes.ttl")
    with open(dp, "w") as f:
        f.write(data_ttl)
    with open(sp, "w") as f:
        f.write(shapes_ttl)
    viol = validate_ttl(dp, sp, sparql=True)
    return viol.select_columns(["subject", "message"])


def _ttl_sparql_auto_sql() -> str:
    _, _, expected = _ttl_auto_fixture()
    rows = ",\n      ".join(
        f"('{s}', '{m}')" for s, m in expected)
    return (f"SELECT * FROM (VALUES\n      {rows}\n"
            "    ) AS t(subject, message)")


def _ttl_shark_fixture() -> tuple:
    """Deterministic fixture for the round-5 SPARQL translations
    (VERDICT r4 items 2+3), mirroring the shark shapes' EXACT select
    texts (``/root/reference/data/shark_shapes.ttl:48-67, 200-214,
    231-245``):

    - superclass NOT-EXISTS sibling anti-join: 40 classes cycle through
      5 hierarchy layouts — two unrelated parents (VIOLATION), two
      related parents, owl:Thing + one parent, self + one parent, one
      parent (all fine);
    - BIND/REPLACE class naming: every 4th class name starts lowercase
      (VIOLATION of the ``/([a-z][1]?[A-z0-9]*)$`` regex);
    - BIND/REPLACE property naming over a THREE-targetClass shape:
      24 properties cycle rdf:Property / owl:DatatypeProperty /
      owl:ObjectProperty; every 3rd has a capital-letter name
      (VIOLATION of ``/[A-Z][A-z0-9]*$``);
    - multi-BIND ``||`` is-a check (ObjectProperty only): names
      containing ``isA`` / case-insensitive ``is_a`` VIOLATE;
    - must-have-instances (``OPTIONAL {?v a $this}`` +
      ``HAVING(COUNT(?v)=0)``, ``shark_shapes.ttl:86-99``): every 8th
      class gets no instance (VIOLATION), Island classes none either;
    - unconnected classes (six conjunctive NOT EXISTS,
      ``shark_shapes.ttl:118-136``): two Island classes with no edges
      at all VIOLATE; everything else is connected by construction;
    - synonyms (shared REPLACE namespace image over
      ``owl:equivalentClass``, ``shark_shapes.ttl:101-116``): SynA ≡
      SynB share the ex: namespace (VIOLATION); SynC's equivalent lives
      in another namespace (fine);
    - hierarchy cycles (``$this rdfs:subClassOf+ $this``,
      ``shark_shapes.ttl:128-137``): the CycA→CycB→CycC→CycA trio and
      the i%5==3 classes' 1-edge self-loops VIOLATE — evaluated by the
      iterative trim+SCC plan, so the full shark sh:sparql inventory
      now translates.

    Returns (data_ttl, shapes_ttl, expected) with expected derived
    INDEPENDENTLY from the generation rule — the oracle, not the
    engine, decides."""
    ex = _TTL_AUTO_EX
    rdfs = "http://www.w3.org/2000/01/rdf-schema#"
    owl = "http://www.w3.org/2002/07/owl#"
    rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    data = [
        f"@prefix rdfs: <{rdfs}> .",
        f"@prefix rdf: <{rdf}> .",
        f"@prefix owl: <{owl}> .",
        f"@prefix ex: <{ex}> .",
        "ex:Top a owl:Class .",
        "ex:Mid a owl:Class ; rdfs:subClassOf ex:Top .",
        "ex:Other a owl:Class .",
    ]
    expected = []
    m_super = "Classes must have at most one superclass"
    m_lower = "Classes names must not start with a lowercase letter"
    m_cap = "Properties names must not start with a capital letter"
    m_isa = "Detect wrongly defined relationship 'is'"
    m_inst = "Classes must have instances"
    m_unconn = "Detect unconnected classes"
    m_syn = "Detect synonyms created as classes"
    # the hierarchy roots are connected (incoming/outgoing subClassOf)
    # and instantiated, so they violate nothing
    data += ["ex:instTop a ex:Top .", "ex:instMid a ex:Mid .",
             "ex:instOther a ex:Other ."]
    for i in range(40):
        name = f"klass{i:02d}" if i % 4 == 0 else f"Class{i:02d}"
        lines = [f"ex:{name} a owl:Class"]
        if i % 5 == 0:
            lines.append("rdfs:subClassOf ex:Top , ex:Other")
            expected.append((ex + name, m_super))
        elif i % 5 == 1:
            lines.append("rdfs:subClassOf ex:Mid , ex:Top")
        elif i % 5 == 2:
            lines.append("rdfs:subClassOf owl:Thing , ex:Top")
        elif i % 5 == 3:
            lines.append(f"rdfs:subClassOf ex:{name} , ex:Top")
        else:
            lines.append("rdfs:subClassOf ex:Top")
        if i % 4 == 0:
            expected.append((ex + name, m_lower))
        if i % 8 == 0:
            expected.append((ex + name, m_inst))  # no instance emitted
        else:
            data.append(f"ex:i{i:02d} a ex:{name} .")
        data.append(" ; ".join(lines) + " .")
    # isolation: two classes with no edges at all — unconnected AND
    # uninstantiated (everything else is connected by construction:
    # every Class/klass has outgoing subClassOf, the roots have incoming)
    for nm in ("Island1", "Island2"):
        data.append(f"ex:{nm} a owl:Class .")
        expected.append((ex + nm, m_inst))
        expected.append((ex + nm, m_unconn))
    # synonyms: SynA ≡ SynB within the ex: namespace (violation); SynC's
    # equivalent lives elsewhere (fine).  equivalentClass edges keep all
    # three connected; instances keep them instantiated.
    data += [
        "ex:SynA a owl:Class ; owl:equivalentClass ex:SynB .",
        "ex:SynB a owl:Class .",
        "ex:SynC a owl:Class ; owl:equivalentClass "
        "<http://other.org/vocab#SynC> .",
        "ex:instSynA a ex:SynA .", "ex:instSynB a ex:SynB .",
        "ex:instSynC a ex:SynC .",
    ]
    expected.append((ex + "SynA", m_syn))
    # transitive cycles ($this subClassOf+ $this): a 3-cycle trio plus
    # the i%5==3 classes' 1-edge self-loops; everything on a cycle is
    # connected and instantiated, and single parents dodge the sibling
    # shape
    m_cycle = "Detect cycles in the class hierarchy"
    data += [
        "ex:CycA a owl:Class ; rdfs:subClassOf ex:CycB .",
        "ex:CycB a owl:Class ; rdfs:subClassOf ex:CycC .",
        "ex:CycC a owl:Class ; rdfs:subClassOf ex:CycA .",
        "ex:instCycA a ex:CycA .", "ex:instCycB a ex:CycB .",
        "ex:instCycC a ex:CycC .",
    ]
    for nm in ("CycA", "CycB", "CycC"):
        expected.append((ex + nm, m_cycle))
    for i in range(40):
        if i % 5 == 3:  # self-loop parent: a 1-edge subClassOf cycle
            name = f"klass{i:02d}" if i % 4 == 0 else f"Class{i:02d}"
            expected.append((ex + name, m_cycle))
    ptypes = ["rdf:Property", "owl:DatatypeProperty", "owl:ObjectProperty"]
    for j in range(24):
        pt = ptypes[j % 3]
        if j % 3 == 2 and j % 4 == 2:
            pname = f"rel_isA_{j:02d}" if j % 2 == 0 else f"rel_IS_a{j:02d}"
            expected.append((ex + pname, m_isa))
        elif j % 3 == 0:
            pname = f"Prop{j:02d}"
            expected.append((ex + pname, m_cap))
        else:
            pname = f"prop{j:02d}"
        data.append(f"ex:{pname} a {pt} .")
    shapes = f"""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix rdfs: <{rdfs}> .
@prefix rdf: <{rdf}> .
@prefix owl: <{owl}> .
@prefix ex: <{ex}> .

ex:ClassShape a sh:NodeShape ;
  sh:targetClass owl:Class ;
  sh:sparql [
    sh:message "{m_super}" ;
    sh:select \"\"\"
  PREFIX owl: <{owl}>
  PREFIX rdfs: <{rdfs}>
  PREFIX rdf: <{rdf}>
  SELECT DISTINCT $this
  WHERE {{
    $this rdf:type owl:Class .
    $this rdfs:subClassOf ?v1 .
    $this rdfs:subClassOf ?v2 .
    FILTER NOT EXISTS {{?v1 rdfs:subClassOf ?v2 }}.
    FILTER NOT EXISTS {{?v2 rdfs:subClassOf ?v1 }}.
    FILTER(?v1 != ?v2) .
    FILTER(?v1 != owl:Thing) .
    FILTER(?v2 != owl:Thing) .
    FILTER($this != ?v1) .
    FILTER($this != ?v2) .
  }}
  \"\"\" ;
  ] ;
  sh:sparql [
    sh:message "{m_lower}" ;
    sh:select \"\"\"
  PREFIX owl: <{owl}>
  PREFIX rdfs: <{rdfs}>
  PREFIX rdf: <{rdf}>
  SELECT $this
  WHERE {{
    $this a owl:Class .
    BIND(REPLACE(STR($this), '/([a-z][1]?[A-z0-9]*)$', '' ) as ?str1) .
    FILTER(STR($this) != STR(?str1)) .
  }}
  \"\"\" ;
  ] ;
  sh:sparql [
    sh:message "{m_inst}" ;
    sh:select \"\"\"
  PREFIX owl: <{owl}>
  PREFIX rdfs: <{rdfs}>
  PREFIX rdf: <{rdf}>
  SELECT DISTINCT ?value $this
  WHERE {{
    $this a owl:Class .
    OPTIONAL {{ ?value a $this }} .
  }}
  GROUP BY $this ?value
  HAVING (COUNT(?value) = 0 )
  \"\"\" ;
  ] ;
  sh:sparql [
    sh:message "{m_syn}" ;
    sh:select \"\"\"
  PREFIX owl: <{owl}>
  PREFIX rdfs: <{rdfs}>
  PREFIX rdf: <{rdf}>
  SELECT $this
  WHERE {{
    $this a owl:Class .
    $this owl:equivalentClass ?other
    BIND(REPLACE(STR($this), '(#|/)[^#/]*$', '$1' ) as ?ns1) .
    BIND(REPLACE(STR(?other), '(#|/)[^#/]*$', '$1' ) as ?ns2) .
    FILTER(?ns1 = ?ns2) .
  }}
  \"\"\" ;
  ] ;
  sh:sparql [
    sh:message "{m_unconn}" ;
    sh:select \"\"\"
  PREFIX owl: <{owl}>
  PREFIX rdfs: <{rdfs}>
  PREFIX rdf: <{rdf}>
  SELECT $this WHERE
  {{
    $this a owl:Class .
    FILTER NOT EXISTS {{$this rdfs:subClassOf ?any1}} .
    FILTER NOT EXISTS {{?any2 owl:equivalentClass $this}} .
    FILTER NOT EXISTS {{$this owl:equivalentClass ?any3}} .
    FILTER NOT EXISTS {{?any4 rdfs:subClassOf $this}} .
    FILTER NOT EXISTS {{?any5 rdfs:range $this}} .
    FILTER NOT EXISTS {{?any6 rdfs:domain $this}} .
  }}
  \"\"\" ;
  ] ;
  sh:sparql [
    sh:message "{m_cycle}" ;
    sh:select \"\"\"
  PREFIX owl: <{owl}>
  PREFIX rdfs: <{rdfs}>
  PREFIX rdf: <{rdf}>
  SELECT $this WHERE
  {{
    $this a owl:Class .
    $this rdfs:subClassOf+ $this .
  }}
  \"\"\" ;
  ] .

ex:PropShape a sh:NodeShape ;
  sh:targetClass rdf:Property ;
  sh:targetClass owl:DatatypeProperty ;
  sh:targetClass owl:ObjectProperty ;
  sh:sparql [
    sh:message "{m_cap}" ;
    sh:select \"\"\"
  PREFIX owl: <{owl}>
  PREFIX rdfs: <{rdfs}>
  PREFIX rdf: <{rdf}>
  SELECT $this
  WHERE {{
    $this a ?property .
    FILTER(?property IN (rdf:Property, owl:DatatypeProperty, owl:ObjectProperty)) .
    BIND(REPLACE(STR($this), '/[A-Z][A-z0-9]*$', '' ) as ?str1) .
    FILTER(STR($this) != STR(?str1)) .
  }}
  \"\"\" ;
  ] ;
  sh:sparql [
    sh:message "{m_isa}" ;
    sh:select \"\"\"
  PREFIX owl: <{owl}>
  PREFIX rdfs: <{rdfs}>
  PREFIX rdf: <{rdf}>
  SELECT $this
  WHERE {{
    $this a owl:ObjectProperty .
    BIND(REPLACE(STR($this), 'isA', '' ) as ?str1) .
    BIND(REPLACE(STR($this), 'is_a', '' ,'i') as ?str2) .
    FILTER(STR($this) != STR(?str1) || STR($this) != STR(?str2)) .
  }}
  \"\"\" ;
  ] .
"""
    return "\n".join(data) + "\n", shapes, sorted(expected)


def q_ttl_sparql_shark(sf_dir: str):
    """Round-5 SPARQL auto-translation frontier (VERDICT r4 items 2+3):
    the shark BIND/REPLACE naming shapes become target-scoped
    :class:`~xpshacl_ray.spec.RegexMatch` row constraints and the
    NOT-EXISTS superclass shape a join-aware
    :class:`~xpshacl_ray.spec.SiblingAntiJoin` (one anti-join plan:
    candidate pairs against edge pairs in a hash-routed exchange) — all translated
    from the Turtle shapes, zero hand-bound ``sparql_impls``.  The
    oracle is derived independently from the fixture's generation rule.
    (sf_dir-independent by design, like ``ttl_parity``.)"""
    import os
    import tempfile

    from xpshacl_ray.sources.ttl import validate_ttl

    data_ttl, shapes_ttl, _ = _ttl_shark_fixture()
    d = os.path.join(tempfile.gettempdir(), "xpshacl_ttl_shark")
    os.makedirs(d, exist_ok=True)
    dp, sp = os.path.join(d, "data.ttl"), os.path.join(d, "shapes.ttl")
    with open(dp, "w") as f:
        f.write(data_ttl)
    with open(sp, "w") as f:
        f.write(shapes_ttl)
    viol = validate_ttl(dp, sp, sparql=True)
    return viol.select_columns(["subject", "message"])


def _ttl_sparql_shark_sql() -> str:
    _, _, expected = _ttl_shark_fixture()
    rows = ",\n      ".join(
        "('{}', '{}')".format(s, m.replace("'", "''")) for s, m in expected)
    return (f"SELECT * FROM (VALUES\n      {rows}\n"
            "    ) AS t(subject, message)")


def _ttl_paths_fixture() -> tuple:
    """Deterministic fixture for SHACL property PATHS beyond a plain
    predicate (inverse + sequence forms, ``sources/ttl.py:resolve_path``
    — the reference gets these free from pyshacl): 60 persons / 12
    companies with rule-derived violations:

    - ``[sh:inversePath ex:knows]`` maxCount 1: person i knows
      P(i%15), so P00–P14 are each known by 4 (VIOLATION);
    - ``(ex:worksFor ex:name)`` minCount 1: every 10th-ends-in-7
      person has no employer and companies F02/F06/F10 have no name
      (VIOLATION for their staff);
    - same path, pattern ^[A-Z]: odd-numbered companies are named
      lowercase (VIOLATION per walked value);
    - ``([sh:inversePath ex:worksFor] ex:age)`` minInclusive 18 on
      Company: ages are 15+i%30, so employees 0,1,2,30,31,32 are
      minors (VIOLATION per distinct underage age value per firm).

    Returns (data_ttl, shapes_ttl, expected) with expected derived
    INDEPENDENTLY from the generation rules — the oracle, not the
    engine, decides."""
    ex = _TTL_AUTO_EX
    data = [f"@prefix ex: <{ex}> ."]
    expected = []
    comp_name: dict = {}
    for j in range(12):
        nm = (None if j % 4 == 2
              else f"firm{j}" if j % 2 == 1 else f"Firm{j}")
        comp_name[j] = nm
        lines = [f"ex:F{j:02d} a ex:Company"]
        if nm is not None:
            lines.append(f'ex:name "{nm}"')
        data.append(" ; ".join(lines) + " .")
    ages, emp = {}, {}
    for i in range(60):
        ages[i] = 15 + i % 30
        lines = [f"ex:P{i:02d} a ex:Person",
                 f"ex:knows ex:P{i % 15:02d}",
                 f"ex:age {ages[i]}"]
        if i % 10 != 7:
            emp[i] = i % 12
            lines.append(f"ex:worksFor ex:F{i % 12:02d}")
        data.append(" ; ".join(lines) + " .")
    for j in range(15):  # known by {j, j+15, j+30, j+45}
        expected.append((f"{ex}P{j:02d}", "known by too many"))
    for i in range(60):
        if i not in emp or comp_name[emp[i]] is None:
            expected.append((f"{ex}P{i:02d}", "employer name required"))
        elif not comp_name[emp[i]][0].isupper():
            expected.append((f"{ex}P{i:02d}",
                             "employer name capitalized"))
    minors: dict = {}
    for i, j in emp.items():
        if ages[i] < 18:
            minors.setdefault(j, set()).add(ages[i])
    for j in sorted(minors):
        for _ in minors[j]:  # one row per DISTINCT underage value node
            expected.append((f"{ex}F{j:02d}", "employee under 18"))
    shapes = f"""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <{ex}> .

ex:PopularShape a sh:NodeShape ; sh:targetClass ex:Person ;
  sh:property [ sh:path [ sh:inversePath ex:knows ] ; sh:maxCount 1 ;
                sh:message "known by too many" ] .

ex:EmpNameReq a sh:NodeShape ; sh:targetClass ex:Person ;
  sh:property [ sh:path ( ex:worksFor ex:name ) ; sh:minCount 1 ;
                sh:message "employer name required" ] .

ex:EmpNameCap a sh:NodeShape ; sh:targetClass ex:Person ;
  sh:property [ sh:path ( ex:worksFor ex:name ) ; sh:pattern "^[A-Z]" ;
                sh:message "employer name capitalized" ] .

ex:YoungShape a sh:NodeShape ; sh:targetClass ex:Company ;
  sh:property [ sh:path ( [ sh:inversePath ex:worksFor ] ex:age ) ;
                sh:minInclusive 18 ;
                sh:message "employee under 18" ] .
"""
    return "\n".join(data) + "\n", shapes, sorted(expected)


def _ttl_closed_fixture() -> tuple:
    """Deterministic fixture for sh:closed / sh:ignoredProperties /
    sh:hasValue / sh:deactivated (``sources/ttl.py:closed_node_shapes``
    — the reference gets these free from pyshacl): 40 Things where
    every 3rd is not "active" (hasValue VIOLATION) and every 5th
    carries an undeclared ex:extra predicate (closed VIOLATION);
    rdf:type is ignored, and a deactivated minCount-99 shape must NOT
    fire.  Expected derives from the generation rule."""
    ex = _TTL_AUTO_EX
    data = [f"@prefix ex: <{ex}> ."]
    expected = []
    for k in range(5):  # owners: odd ones lack the email OwnerShape needs
        lines = [f"ex:U{k} a ex:Owner"]
        if k % 2 == 0:
            lines.append(f'ex:email "u{k}@example.org"')
        data.append(" ; ".join(lines) + " .")
    for i in range(40):
        lines = [f"ex:T{i:02d} a ex:Thing",
                 f'ex:name "Item{i}"',
                 'ex:status "active"' if i % 3 else 'ex:status "retired"']
        if i % 3 == 0:
            expected.append((f"{ex}T{i:02d}", "things must be active"))
        if i % 5 == 0:
            lines.append(f'ex:extra "x{i}"')
            expected.append((f"{ex}T{i:02d}", "undeclared property"))
        if i % 2 == 0:
            lines.append(f"ex:owner ex:U{i % 5}")
            if (i % 5) % 2 == 1:  # sh:node: owner without email
                expected.append((f"{ex}T{i:02d}",
                                 "owner must have an email"))
        data.append(" ; ".join(lines) + " .")
    shapes = f"""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix ex: <{ex}> .

ex:ThingShape a sh:NodeShape ; sh:targetClass ex:Thing ;
  sh:closed true ;
  sh:message "undeclared property" ;
  sh:ignoredProperties ( rdf:type ) ;
  sh:property [ sh:path ex:name ; sh:minLength 1 ] ;
  sh:property [ sh:path ex:status ; sh:hasValue "active" ;
                sh:message "things must be active" ] ;
  sh:property [ sh:path ex:owner ; sh:node ex:OwnerShape ;
                sh:message "owner must have an email" ] ;
  sh:property [ sh:path ex:status ; sh:minCount 99 ;
                sh:deactivated true ] .

ex:OwnerShape a sh:NodeShape ;
  sh:property [ sh:path ex:email ; sh:minCount 1 ] .
"""
    return "\n".join(data) + "\n", shapes, sorted(expected)


def q_ttl_closed(sf_dir: str):
    """sh:closed (undeclared predicates, with ignoredProperties) +
    sh:hasValue (grouped required-value via the vectorized
    GroupPredicate sweep) + sh:node (value-node conformance against a
    referenced node shape) + sh:deactivated (skipped shapes) — the
    standard-SHACL surface beyond the reference's own fixtures.  The
    oracle is derived independently from the fixture's generation rule.
    (sf_dir-independent by design, like ``ttl_parity``.)"""
    import os
    import tempfile

    from xpshacl_ray.sources.ttl import validate_ttl

    data_ttl, shapes_ttl, _ = _ttl_closed_fixture()
    d = os.path.join(tempfile.gettempdir(), "xpshacl_ttl_closed")
    os.makedirs(d, exist_ok=True)
    dp, sp = os.path.join(d, "data.ttl"), os.path.join(d, "shapes.ttl")
    with open(dp, "w") as f:
        f.write(data_ttl)
    with open(sp, "w") as f:
        f.write(shapes_ttl)
    viol = validate_ttl(dp, sp, long_form=True)
    return viol.select_columns(["subject", "message"])


def _ttl_closed_sql() -> str:
    _, _, expected = _ttl_closed_fixture()
    rows = ",\n      ".join(
        f"('{s}', '{m}')" for s, m in expected)
    return (f"SELECT * FROM (VALUES\n      {rows}\n"
            "    ) AS t(subject, message)")


def _ttl_node_recursive_fixture() -> tuple:
    """Deterministic fixture for RECURSIVE sh:node conformance
    (``sources/ttl.py:_NodeChecker`` — the reference gets sh:node free
    from pyshacl): a depth-3 chain Project → lead Person → employer
    Company → hq Address, where each level can fail independently:

    - ``i % 5 == 0``: the lead has no ``ex:name`` (depth 1, minCount);
    - ``i % 4 == 0``: the company has TWO CEOs (depth 2 — a GROUPED
      facet inside the referenced shape, invisible to the round-4
      depth-1 entity pivot);
    - ``i % 3 == 0``: the HQ city starts lowercase (depth 3 — nested
      sh:node two hops below the constrained value);
    - ``i % 7 == 0``: the budget literal is "n/a" (NODE-LEVEL facets of
      the referenced shape applied to the value term itself).

    Any of the first three makes the LEAD nonconforming → exactly one
    NodeConstraintComponent row per affected project.  Expected derives
    from the generation rule."""
    ex = _TTL_AUTO_EX
    data = [f"@prefix ex: <{ex}> ."]
    expected = []
    for i in range(30):
        data.append(f"ex:Proj{i:02d} a ex:Project ; ex:lead ex:L{i} ; "
                    f'ex:budget "{"n/a" if i % 7 == 0 else 50 + i}" .')
        lead = [f"ex:L{i} ex:employer ex:C{i}"]
        if i % 5:
            lead.append(f'ex:name "Lead{i}"')
        data.append(" ; ".join(lead) + " .")
        comp = [f"ex:C{i} ex:hq ex:A{i}", f"ex:C{i} ex:ceo ex:boss{i}"]
        if i % 4 == 0:
            comp.append(f"ex:C{i} ex:ceo ex:cofounder{i}")
        data.extend(c + " ." for c in comp)
        city = f"city{i}" if i % 3 == 0 else f"City{i}"
        data.append(f'ex:A{i} ex:city "{city}" .')
        if i % 5 == 0 or i % 4 == 0 or i % 3 == 0:
            expected.append((f"{ex}Proj{i:02d}",
                             "lead fails the person shape"))
        if i % 7 == 0:
            expected.append((f"{ex}Proj{i:02d}",
                             "budget must be a positive integer"))
    shapes = f"""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix ex: <{ex}> .

ex:ProjectShape a sh:NodeShape ; sh:targetClass ex:Project ;
  sh:property [ sh:path ex:lead ; sh:node ex:PersonShape ;
                sh:message "lead fails the person shape" ] ;
  sh:property [ sh:path ex:budget ; sh:node ex:BudgetShape ;
                sh:message "budget must be a positive integer" ] .

ex:PersonShape a sh:NodeShape ;
  sh:property [ sh:path ex:name ; sh:minCount 1 ] ;
  sh:property [ sh:path ex:employer ; sh:node ex:CompanyShape ] .

ex:CompanyShape a sh:NodeShape ;
  sh:property [ sh:path ex:ceo ; sh:maxCount 1 ] ;
  sh:property [ sh:path ex:hq ; sh:node ex:AddressShape ] .

ex:AddressShape a sh:NodeShape ;
  sh:property [ sh:path ex:city ; sh:minCount 1 ; sh:pattern "^[A-Z]" ] .

ex:BudgetShape a sh:NodeShape ;
  sh:datatype xsd:integer ; sh:minInclusive 1 .
"""
    return "\n".join(data) + "\n", shapes, sorted(expected)


def _ttl_shacl_full_fixture() -> tuple:
    """Deterministic fixture for the round-5 continuation-3 SHACL
    surfaces (``sources/ttl.py`` — the reference gets all of this free
    from pyshacl): 40 resources where

    - NODE-LEVEL ``sh:or ( [sh:class Gold] [sh:class Silver] )`` on the
      targeted shape flags every focus that is neither (``i % 3`` and
      ``i % 5`` both nonzero);
    - a STRUCTURAL ``sh:qualifiedValueShape [sh:property [sh:path tag ;
      minCount 1]]`` + qualifiedMinCount 1 flags refs without a tagged
      item (``i % 4 == 0`` items carry no tag);
    - a STRUCTURAL-operand property ``sh:or ( [sh:class Ok]
      [sh:pattern "9$"] )`` flags alt values that are neither Ok-class
      (``i % 2 == 0``) nor digit-9-ending IRIs (``i % 10 == 9``).

    Expected derives from the generation rule."""
    ex = _TTL_AUTO_EX
    data = [f"@prefix ex: <{ex}> ."]
    expected = []
    for i in range(40):
        lines = [f"ex:R{i:02d} a ex:R",
                 f"ex:R{i:02d} ex:ref ex:I{i:02d}",
                 f"ex:R{i:02d} ex:alt ex:A{i:02d}",
                 f"ex:A{i:02d} a ex:Alt"]
        if i % 3 == 0:
            lines.append(f"ex:R{i:02d} a ex:Gold")
        if i % 5 == 0:
            lines.append(f"ex:R{i:02d} a ex:Silver")
        if i % 3 and i % 5:
            expected.append((f"{ex}R{i:02d}", "must be gold or silver"))
        if i % 4 == 0:
            expected.append((f"{ex}R{i:02d}", "needs a tagged ref"))
        else:
            lines.append(f'ex:I{i:02d} ex:tag "t{i}"')
        if i % 2 == 0:
            lines.append(f"ex:A{i:02d} a ex:Ok")
        elif i % 10 != 9:
            expected.append((f"{ex}R{i:02d}",
                             "alt must be ok or end in nine"))
        data.extend(ln + " ." for ln in lines)
    shapes = f"""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <{ex}> .

ex:RShape a sh:NodeShape ; sh:targetClass ex:R ;
  sh:message "must be gold or silver" ;
  sh:or ( [ sh:class ex:Gold ] [ sh:class ex:Silver ] ) ;
  sh:property [ sh:path ex:ref ;
                sh:qualifiedValueShape [ sh:property [
                    sh:path ex:tag ; sh:minCount 1 ] ] ;
                sh:qualifiedMinCount 1 ;
                sh:message "needs a tagged ref" ] ;
  sh:property [ sh:path ex:alt ;
                sh:or ( [ sh:class ex:Ok ] [ sh:pattern "9$" ] ) ;
                sh:message "alt must be ok or end in nine" ] .
"""
    return "\n".join(data) + "\n", shapes, sorted(expected)


def q_ttl_shacl_full(sf_dir: str):
    """The continuation-3 SHACL surfaces end-to-end from Turtle:
    node-level logical operators on the TARGETED shape (applied to the
    focus node), STRUCTURAL sh:qualifiedValueShape (counted through the
    recursive checker) and structural-operand property logicals — all
    three families in one shape graph, one violations Dataset.  The
    oracle is derived independently from the fixture's generation rule.
    (sf_dir-independent by design, like ``ttl_parity``.)"""
    import os
    import tempfile

    from xpshacl_ray.sources.ttl import validate_ttl

    data_ttl, shapes_ttl, _ = _ttl_shacl_full_fixture()
    d = os.path.join(tempfile.gettempdir(), "xpshacl_ttl_full")
    os.makedirs(d, exist_ok=True)
    dp, sp = os.path.join(d, "data.ttl"), os.path.join(d, "shapes.ttl")
    with open(dp, "w") as f:
        f.write(data_ttl)
    with open(sp, "w") as f:
        f.write(shapes_ttl)
    viol = validate_ttl(dp, sp, long_form=True)
    return viol.select_columns(["subject", "message"])


def _ttl_shacl_full_sql() -> str:
    _, _, expected = _ttl_shacl_full_fixture()
    rows = ",\n      ".join(
        f"('{s}', '{m}')" for s, m in expected)
    return (f"SELECT * FROM (VALUES\n      {rows}\n"
            "    ) AS t(subject, message)")


def q_ttl_node_recursive(sf_dir: str):
    """Recursive sh:node conformance from Turtle: nested sh:node at
    unbounded depth, grouped facets inside the referenced shape, and
    node-level facets applied to the value term itself
    (``sources/ttl.py:_NodeChecker``; the reference delegates sh:node
    to pyshacl — src/xpshacl_engine.py).  The oracle is derived
    independently from the fixture's generation rule.
    (sf_dir-independent by design, like ``ttl_parity``.)"""
    import os
    import tempfile

    from xpshacl_ray.sources.ttl import validate_ttl

    data_ttl, shapes_ttl, _ = _ttl_node_recursive_fixture()
    d = os.path.join(tempfile.gettempdir(), "xpshacl_ttl_node_rec")
    os.makedirs(d, exist_ok=True)
    dp, sp = os.path.join(d, "data.ttl"), os.path.join(d, "shapes.ttl")
    with open(dp, "w") as f:
        f.write(data_ttl)
    with open(sp, "w") as f:
        f.write(shapes_ttl)
    viol = validate_ttl(dp, sp, long_form=True)
    return viol.select_columns(["subject", "message"])


def _ttl_node_recursive_sql() -> str:
    _, _, expected = _ttl_node_recursive_fixture()
    rows = ",\n      ".join(
        f"('{s}', '{m}')" for s, m in expected)
    return (f"SELECT * FROM (VALUES\n      {rows}\n"
            "    ) AS t(subject, message)")


def q_ttl_paths(sf_dir: str):
    """SHACL property paths beyond a plain predicate: inverse paths,
    sequence paths and mixed forms compile to walked value rows and run
    through the SAME grouped/row-local constraint machinery; operators
    outside the subset (alternative / zeroOrMore / ...) are surfaced as
    data by ``unsupported_path_shapes`` — never mistranslated.  The
    oracle is derived independently from the fixture's generation rule.
    (sf_dir-independent by design, like ``ttl_parity``.)"""
    import os
    import tempfile

    from xpshacl_ray.sources.ttl import validate_ttl

    data_ttl, shapes_ttl, _ = _ttl_paths_fixture()
    d = os.path.join(tempfile.gettempdir(), "xpshacl_ttl_paths")
    os.makedirs(d, exist_ok=True)
    dp, sp = os.path.join(d, "data.ttl"), os.path.join(d, "shapes.ttl")
    with open(dp, "w") as f:
        f.write(data_ttl)
    with open(sp, "w") as f:
        f.write(shapes_ttl)
    viol = validate_ttl(dp, sp, long_form=True)
    return viol.select_columns(["subject", "message"])


def _ttl_paths_sql() -> str:
    _, _, expected = _ttl_paths_fixture()
    rows = ",\n      ".join(
        f"('{s}', '{m}')" for s, m in expected)
    return (f"SELECT * FROM (VALUES\n      {rows}\n"
            "    ) AS t(subject, message)")


def q_media_features(sf_dir: str):
    """Real multimodal decode pipeline: deterministic synthesized media
    (P6 PPM / 24-bit BMP images, PCM WAV audio — stdlib+numpy codecs, no
    media libraries) → actor-pool decode → 8 real features per row.
    (sf_dir-independent: the media table is synthesized with a fixed
    seed.)"""
    from xpshacl_ray.stages.multimodal import (
        decode_features,
        make_real_media_table,
    )

    ds = ray.data.from_arrow(make_real_media_table(12))
    out = decode_features(ds, real=True, batch_size=4).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    feats = np.stack([np.asarray(f) for f in out["features"]])
    res = pd.DataFrame({"media_id": out["media_id"].astype("int64"),
                        "mime": out["mime"]})
    for i in range(feats.shape[1]):
        res[f"f{i}"] = np.round(feats[:, i], 6)
    return res


def q_video_frames(sf_dir: str):
    """Video corpus probe: deterministic synthesized MP4s (MJPEG tracks
    plus one AVC track per five) → actor-pool ISO-BMFF container parse
    (codec/dims/sample-count/duration from the real sample tables) +
    3-sampled-frame JPEG decode and per-frame features.  Undecodable
    codecs surface as ok=false rows with null features — errors travel
    in-band.  (sf_dir-independent: fixed-seed fixture, frozen golden.)"""
    from xpshacl_ray.stages.multimodal import make_video_table, probe_videos

    ds = ray.data.from_arrow(make_video_table(10))
    out = probe_videos(ds, k=3, batch_size=2).to_pandas()
    out = out.sort_values("video_id").reset_index(drop=True)
    for j in range(8):
        out[f"f{j}"] = np.round(out[f"f{j}"].astype(float), 6)
    return out


def q_tar_ingest(sf_dir: str):
    """WebDataset-style tar-shard on-ramp: deterministic on-disk shard
    fixture (PPM + caption + JSON per sample key, one WAV per shard) →
    ``read_tar_shards`` (one read task per shard, members exploded
    in-task, no shuffle) → per-member listing with payload sha256.
    Oracle: an independent stdlib-``tarfile`` walk of the same files in
    tools/make_goldens.py (no engine code).  (sf_dir-independent.)"""
    import hashlib
    import os

    from xpshacl_ray.sources.tar import make_tar_fixture, read_tar_shards

    paths = make_tar_fixture("/tmp/xpshacl_tar_fixture")
    ds = read_tar_shards(paths)

    def digest(batch):
        batch = batch.append_column("sha16", pa.array(
            [hashlib.sha256(p).hexdigest()[:16]
             for p in batch["payload"].to_pylist()], pa.string()))
        sh = pa.array([os.path.basename(s)
                       for s in batch["shard"].to_pylist()], pa.string())
        batch = batch.set_column(batch.column_names.index("shard"),
                                 "shard", sh)
        return batch.select(["shard", "key", "member", "ext", "mime",
                             "n_bytes", "sha16"])

    out = ds.map_batches(digest, batch_format="pyarrow").to_pandas()
    return out.sort_values(["shard", "member"]).reset_index(drop=True)


def q_audio_spectral(sf_dir: str):
    """Audio featurization: mixed real-media fixture → actor-pool
    decode (PCM/µ-law/ADPCM WAV + FLAC) → time-averaged log-mel
    energies (Hann STFT + triangular mel filterbank, pure numpy, built
    once per actor).  Non-audio rows skipped in-stage.  (sf_dir-
    independent: fixed-seed fixture, frozen golden.)"""
    from xpshacl_ray.stages.multimodal import (
        AudioSpectral,
        make_real_media_table,
    )

    ds = ray.data.from_arrow(make_real_media_table(22))
    out = ds.map_batches(AudioSpectral(), batch_format="pyarrow",
                         batch_size=6, concurrency=2).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    for j in range(AudioSpectral.N_MELS):
        out[f"m{j}"] = np.round(out[f"m{j}"].astype(float), 6)
    return out


def q_image_phash(sf_dir: str):
    """Perceptual image hashing: near-dup fixture (each base image as a
    lossless PNG and a JPEG re-encode) → actor-pool decode → 64-bit DCT
    pHash.  Oracle: an explicit-formula from-scratch reimplementation
    in tools/make_goldens.py (loop DCT, loop bin-means — no engine
    kernels).  (sf_dir-independent.)"""
    from xpshacl_ray.stages.multimodal import PHashStage, make_phash_fixture

    ds = ray.data.from_arrow(make_phash_fixture(6))
    out = ds.map_batches(PHashStage, batch_format="pyarrow",
                         batch_size=4, concurrency=2).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


def q_phash_pairs(sf_dir: str):
    """Image near-dup pairs: pHash per image, then the generic 64-bit
    banding sweep (8 bands of 8 bits — pigeonhole-exact for Hamming
    ≤ 7; the exchange is 8 bytes/image, never pixels).  PNG-vs-JPEG
    re-encodes of the same base pair up; distinct bases stay apart.
    Oracle: brute-force all-pairs Hamming over the independent hashes."""
    from xpshacl_ray.functions.dedup import hash64_near_dups
    from xpshacl_ray.stages.multimodal import PHashStage, make_phash_fixture

    hashed = ray.data.from_arrow(make_phash_fixture(6)).map_batches(
        PHashStage, batch_format="pyarrow", batch_size=4, concurrency=2)
    pairs = hash64_near_dups(hashed, hash_col="phash64",
                             id_col="media_id", max_hamming=7, n_bands=8)
    out = pairs.to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_wds_dedup(sf_dir: str):
    """End-to-end WebDataset image dedup — the composition a training
    pipeline actually runs: tar shards → member explode (one task per
    shard) → actor-pool decode + 64-bit pHash (8 bytes/image leaves the
    task, never pixels) → banded near-dup sweep (8×8-bit bands,
    pigeonhole-exact for Hamming ≤ 7) → drop the larger id of every
    near-dup pair.  The fixture plants each duplicate in a DIFFERENT
    shard than its original, so shard-local dedup cannot catch it.
    Oracle: independent stdlib-tarfile walk + explicit-formula pHash +
    brute-force pairs in tools/make_goldens.py."""
    from xpshacl_ray.functions.dedup import hash64_near_dups
    from xpshacl_ray.stages.multimodal import (
        PHashStage,
        make_wds_dup_fixture,
    )
    from xpshacl_ray.sources.tar import read_tar_shards

    paths = make_wds_dup_fixture("/tmp/xpshacl_wds_dup")

    def to_media(batch):
        ids = pa.array([int(k) for k in batch["key"].to_pylist()],
                       pa.int64())
        return pa.table({"media_id": ids, "mime": batch["mime"],
                         "payload": batch["payload"]})

    hashed = (read_tar_shards(paths)
              .map_batches(to_media, batch_format="pyarrow")
              .map_batches(PHashStage, batch_format="pyarrow",
                           batch_size=4, concurrency=2))
    pairs = hash64_near_dups(hashed, hash_col="phash64",
                             id_col="media_id", max_hamming=7,
                             n_bands=8).to_pandas()
    # drop rule: every id that is the LARGER side of a near-dup pair
    drop = set(pairs["id_b"].tolist())
    out = hashed.to_pandas().sort_values("media_id").reset_index(drop=True)
    out["keep"] = ~out["media_id"].isin(drop)
    return out[["media_id", "mime", "phash64", "keep"]]


def q_media_integrity(sf_dir: str):
    """Corpus integrity probe: media fixture with KNOWN planted
    corruption (truncation / scrambled magic / mid-container cut) →
    ``decode_features(on_error="null")`` streams past the bad rows and
    nulls their features instead of failing the task (the web-corpus
    policy).  Oracle: the corruption plan itself — ok=false exactly at
    the planted ids, independent of any decoder.  (sf_dir-independent.)"""
    from xpshacl_ray.stages.multimodal import (
        decode_features,
        make_corrupt_media_table,
    )

    ds = ray.data.from_arrow(make_corrupt_media_table(11))
    out = decode_features(ds, real=True, batch_size=4,
                          on_error="null").to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    return pd.DataFrame({
        "media_id": out["media_id"].astype("int64"),
        "mime": out["mime"],
        "ok": out["features"].notna(),
    })


def q_zip_ingest(sf_dir: str):
    """Zip-shard on-ramp: deterministic fixture (QOI image + GZIPPED
    caption + JSON per sample) → ``read_zip_shards`` (central-directory
    member walk, transparent .gz inflation) → per-member listing with
    payload sha256.  Oracle: an independent stdlib-zipfile walk in
    tools/make_goldens.py.  (sf_dir-independent.)"""
    import hashlib
    import os

    from xpshacl_ray.sources.tar import make_zip_fixture, read_zip_shards

    paths = make_zip_fixture("/tmp/xpshacl_zip_fixture")
    ds = read_zip_shards(paths)

    def digest(batch):
        batch = batch.append_column("sha16", pa.array(
            [hashlib.sha256(p).hexdigest()[:16]
             for p in batch["payload"].to_pylist()], pa.string()))
        sh = pa.array([os.path.basename(s)
                       for s in batch["shard"].to_pylist()], pa.string())
        batch = batch.set_column(batch.column_names.index("shard"),
                                 "shard", sh)
        return batch.select(["shard", "key", "member", "ext", "mime",
                             "n_bytes", "sha16"])

    out = ds.map_batches(digest, batch_format="pyarrow").to_pandas()
    return out.sort_values(["shard", "member"]).reset_index(drop=True)


def q_exif_extract(sf_dir: str):
    """Typed-metadata extraction: JPEG fixture with a KNOWN EXIF plan
    (orientation cycling 1-8, make/model/iso from the id, every 4th row
    carrying no EXIF) → actor-pool APP1/TIFF-IFD parse → named columns,
    nulls in-band for EXIF-less rows.  Oracle: the plan itself — the
    fixture's construction, independent of the parser.
    (sf_dir-independent.)"""
    from xpshacl_ray.stages.exif import ExifExtractor, make_exif_fixture

    table, _plan = make_exif_fixture(8)
    out = (ray.data.from_arrow(table)
           .map_batches(ExifExtractor, batch_format="pyarrow",
                        batch_size=3, concurrency=2)
           .to_pandas().sort_values("media_id").reset_index(drop=True))
    return out


def q_image_hashes(sf_dir: str):
    """Perceptual-hash ensemble: pHash (DCT) + dHash (gradient) +
    aHash (mean threshold) per image over the near-dup fixture — the
    three standard 64-bit image fingerprints a dedup pipeline combines.
    Oracle: loop-based from-scratch reimplementations of all three in
    tools/make_goldens.py.  (sf_dir-independent.)"""
    from xpshacl_ray.stages.multimodal import (
        _DECODABLE_IMAGE,
        image_ahash,
        image_dhash,
        image_phash,
        make_phash_fixture,
    )

    def hash_all(batch):
        ids, ph, dh, ah = [], [], [], []
        for mid, mime, payload in zip(batch["media_id"].to_pylist(),
                                      batch["mime"].to_pylist(),
                                      batch["payload"].to_pylist()):
            img = _DECODABLE_IMAGE[mime](payload)
            ids.append(mid)
            ph.append(image_phash(img))
            dh.append(image_dhash(img))
            ah.append(image_ahash(img))
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "phash64": pa.array(ph, pa.int64()),
                         "dhash64": pa.array(dh, pa.int64()),
                         "ahash64": pa.array(ah, pa.int64())})

    out = (ray.data.from_arrow(make_phash_fixture(6))
           .map_batches(hash_all, batch_format="pyarrow", batch_size=4)
           .to_pandas())
    return out.sort_values("media_id").reset_index(drop=True)


def q_audio_fingerprint(sf_dir: str):
    """Audio fingerprinting: near-dup clip fixture (each base as 16-bit
    PCM and as a µ-law or FLAC re-encode) → actor-pool decode → 64-bit
    spectral-envelope fingerprint (8 bytes/clip leave the task).
    Oracle: a from-scratch per-frame reimplementation in
    tools/make_goldens.py.  (sf_dir-independent.)"""
    from xpshacl_ray.stages.multimodal import (
        AudioFingerprint,
        make_audio_dup_fixture,
    )

    out = (ray.data.from_arrow(make_audio_dup_fixture(5))
           .map_batches(AudioFingerprint, batch_format="pyarrow",
                        batch_size=4, concurrency=2)
           .to_pandas().sort_values("media_id").reset_index(drop=True))
    return out


def q_audio_dup_pairs(sf_dir: str):
    """Audio near-dup pairs: fingerprints → the generic 64-bit banding
    sweep (8×8-bit bands, pigeonhole-exact for Hamming ≤ 7).  Codec
    re-encodes of the same clip pair up (µ-law ≤ 3 bits, lossless 0);
    distinct clips stay ≥ 15 apart.  Oracle: brute-force all-pairs
    Hamming over the independent fingerprints."""
    from xpshacl_ray.functions.dedup import hash64_near_dups
    from xpshacl_ray.stages.multimodal import (
        AudioFingerprint,
        make_audio_dup_fixture,
    )

    hashed = ray.data.from_arrow(make_audio_dup_fixture(5)).map_batches(
        AudioFingerprint, batch_format="pyarrow", batch_size=4,
        concurrency=2)
    pairs = hash64_near_dups(hashed, hash_col="afp64",
                             id_col="media_id", max_hamming=7, n_bands=8)
    return (pairs.to_pandas().sort_values(["id_a", "id_b"])
            .reset_index(drop=True))


def q_video_dup_pairs(sf_dir: str):
    """Video near-dup: fixture where each MJPEG track re-appears
    re-encoded at a different JPEG quality AND re-muxed with different
    chunking → actor-pool per-video fingerprint (majority dHash over 5
    container-sampled frames, 8 bytes/video) → banded pairs.  Oracle:
    independent loop-dHash + majority + brute-force pairs in
    tools/make_goldens.py.  (sf_dir-independent.)"""
    from xpshacl_ray.functions.dedup import hash64_near_dups
    from xpshacl_ray.stages.multimodal import (
        VideoFingerprint,
        make_video_dup_fixture,
    )

    hashed = ray.data.from_arrow(make_video_dup_fixture(4)).map_batches(
        VideoFingerprint, batch_format="pyarrow", batch_size=3,
        concurrency=2)
    pairs = hash64_near_dups(hashed, hash_col="vfp64",
                             id_col="media_id", max_hamming=7, n_bands=8)
    return (pairs.to_pandas().sort_values(["id_a", "id_b"])
            .reset_index(drop=True))


def q_subtitle_cues(sf_dir: str):
    """Subtitle on-ramp: deterministic SRT + WebVTT fixture (mixed
    formats, NOTE blocks, cue settings) → actor-pool parse → exploded
    (doc_id, cue_idx, start_ms, end_ms, text) rows — the alignment key
    for frame-caption pair mining.  Oracle: the fixture's cue PLAN,
    independent of the parser.  (sf_dir-independent.)"""
    from xpshacl_ray.sources.subtitles import (
        SubtitleParser,
        make_subtitle_fixture,
    )

    table, _plan = make_subtitle_fixture(4)
    out = (ray.data.from_arrow(table)
           .map_batches(SubtitleParser, batch_format="pyarrow",
                        batch_size=2, concurrency=2)
           .to_pandas().sort_values(["doc_id", "cue_idx"])
           .reset_index(drop=True))
    return out


def q_frame_captions(sf_dir: str):
    """Frame-caption pair mining: per doc an MJPEG MP4 + SRT cues →
    k evenly-spaced sample times from the CONTAINER duration (metadata
    only, no frame decodes) matched to the covering cue; gaps yield
    null captions in-band.  Oracle: the same alignment computed from
    the fixture PLAN (durations + cue windows) in tools/make_goldens.py
    — no container or subtitle parsing.  (sf_dir-independent.)"""
    from xpshacl_ray.sources.subtitles import (
        FrameCaptionAligner,
        make_av_fixture,
    )

    table, _plan = make_av_fixture(3)
    out = (ray.data.from_arrow(table)
           .map_batches(FrameCaptionAligner, batch_format="pyarrow",
                        fn_constructor_kwargs=dict(k=6),
                        batch_size=2, concurrency=2)
           .to_pandas().sort_values(["doc_id", "sample_idx"])
           .reset_index(drop=True))
    return out


def q_id3_extract(sf_dir: str):
    """Audio metadata without decoding: MP3 payloads stay honestly
    undecodable, but their ID3v2 tags are pure container structure —
    fixture mixes v2.4 / v2.3 / untagged rows per a KNOWN plan →
    actor-pool parse → named columns with nulls in-band.  Oracle: the
    plan itself, independent of the parser.  (sf_dir-independent.)"""
    from xpshacl_ray.stages.id3 import Id3Extractor, make_id3_fixture

    table, _plan = make_id3_fixture(6)
    out = (ray.data.from_arrow(table)
           .map_batches(Id3Extractor, batch_format="pyarrow",
                        batch_size=3, concurrency=2)
           .to_pandas().sort_values("media_id").reset_index(drop=True))
    return out


def q_drift_lang_psi(sf_dir: str):
    """PSI of each source's lang mix vs the global mix — fully distributed:
    one ``sketch_rows`` pass builds a mergeable histogram per source (the
    shuffle moves sketch rows only, never documents), the driver merges a
    handful of per-source histogram blobs into the global mix and emits one
    PSI row per source."""
    from xpshacl_ray.stages.stats import sketch_rows

    cfg = StatsConfig(group_keys=["source"], categorical_cols=["lang"])
    sk = sketch_rows(_docs(sf_dir, columns=["source", "lang"]), cfg,
                     concurrency=2).to_pandas()
    overall = CategoricalHistogram.merge_many(sk["lang__hist"])
    rows = [
        {
            "source": r["source"],
            "lang_psi": round(
                psi(overall, CategoricalHistogram.from_bytes(r["lang__hist"])),
                6),
        }
        for _, r in sk.sort_values("source").iterrows()
    ]
    return pd.DataFrame(rows)


def q_stratified_sample(sf_dir: str):
    """Per-language deterministic downsampling (corpus rebalancing):
    keep 50% of en, 20% of de, 100% of fr — md5-bucket selection, so the
    SQL oracle picks the IDENTICAL rows."""
    from xpshacl_ray.functions.sampling import sample_stratified

    return sample_stratified(
        _docs(sf_dir, columns=["doc_id", "lang"]),
        id_col="doc_id", strata_col="lang",
        rates={"en": 50, "de": 20, "fr": 100}, default_percent=10,
    ).select_columns(["doc_id", "lang"])


def q_sample_exact_k(sf_dir: str):
    """Exactly-k global deterministic sample (md5 rank, id tie-break):
    distributed partial top-k + tree merge — a fixed eval budget, not a
    binomial rate."""
    from xpshacl_ray.functions.sampling import sample_exact_k

    out = sample_exact_k(_docs(sf_dir, columns=["doc_id", "lang"]),
                         id_col="doc_id", k=50)
    return out.select_columns(["doc_id", "lang"])


def q_take_per_group(sf_dir: str):
    """Per-domain cap: at most 10 docs per source, chosen by md5(id)
    order — unbiased within the group, layout-stable, and reproducible
    as a SQL QUALIFY row_number window."""
    from xpshacl_ray.functions.sampling import take_per_group

    out = take_per_group(
        _docs(sf_dir, columns=["doc_id", "source"]),
        group_cols=["source"], id_col="doc_id", n=10)
    return out.select_columns(["doc_id", "source"])


def q_train_test_split(sf_dir: str):
    """Deterministic md5-bucket split — reproducible in SQL, resumes and
    repartitionings (never random_sample, which depends on block layout)."""
    from xpshacl_ray.functions.sampling import add_split_column

    return (
        _docs(sf_dir, columns=["doc_id"])
        .map_batches(lambda b: add_split_column(b, "doc_id", 20),
                     batch_format="pyarrow")
        .select_columns(["doc_id", "split"])
    )


def q_sample_weighted_k(sf_dir: str):
    """Exactly-k weighted sampling without replacement (Efraimidis–
    Spirakis priorities on deterministic md5 randomness): per-batch
    partial top-k → tree merge, SQL-replayable ORDER BY + LIMIT."""
    from xpshacl_ray.functions.sampling import sample_weighted_k

    return sample_weighted_k(
        _docs(sf_dir, columns=["doc_id", "n_chars"]),
        id_col="doc_id", weight_col="n_chars", k=100)


def q_sample_weighted(sf_dir: str):
    """Quality-weighted importance sampling: keep probability
    ∝ n_chars/500 (clipped to 1), decided by md5(doc_id) basis points —
    map-only, layout-stable, SQL-reproducible row selection."""
    from xpshacl_ray.functions.sampling import sample_weighted

    docs = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
    weighted = docs.map_batches(
        lambda b: b.append_column(
            "weight", pc.divide(pc.cast(b["n_chars"], pa.float64()), 500.0)),
        batch_format="pyarrow")
    return (sample_weighted(weighted, id_col="doc_id", weight_col="weight")
            .select_columns(["doc_id", "lang", "n_chars"]))


def q_bigram_pmi(sf_dir: str):
    """Top-20 adjacent-token collocations by PMI (min bigram count 5):
    per-batch vectorized bigram+unigram combiners, two (term, int64)
    exchanges, broadcast unigram scoring, vocabulary-sized final sort."""
    from xpshacl_ray.functions.text import bigram_pmi

    out = bigram_pmi(_docs(sf_dir, columns=["doc_id", "text"]),
                     min_count=5, top_k=20)
    return out.map_batches(
        lambda b: pa.table({"w1": b["w1"], "w2": b["w2"], "c12": b["c12"],
                            "pmi": pc.round(b["pmi"], ndigits=4)}),
        batch_format="pyarrow")


def q_normalize_text(sf_dir: str):
    """Canonical text normalization (NFC, control-strip, whitespace
    collapse, trim): map-only Arrow/RE2 kernels, byte-parity with the
    DuckDB regexp_replace chain."""
    from xpshacl_ray.functions.text import normalize_text

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"],
                            "text_norm": normalize_text(b)["text_norm"]}),
        batch_format="pyarrow")


def q_strip_boilerplate(sf_dir: str):
    """C4/Dolma boilerplate-line removal: lines (deterministic 8-token
    windows) recurring in >=2 distinct docs are stripped corpus-wide.
    Census shuffle carries (hash, count) pairs only; the scrub pass is
    map-only against a broadcast hash set."""
    from xpshacl_ray.functions.boilerplate import strip_boilerplate

    return strip_boilerplate(_docs(sf_dir, columns=["doc_id", "text"]),
                             min_docs=2, line_tokens=8)


def q_keyness_terms(sf_dir: str):
    """Dunning G² keyness per source shard (corpus-comparison: which
    terms are over-represented in a feed vs the rest).  One
    (key, term, int64) exchange; totals broadcast; full value table
    output (top-k ranking would be ULP-fragile)."""
    from xpshacl_ray.functions.text import keyness_by_key

    return keyness_by_key(_docs(sf_dir, columns=["source", "text"]),
                          key_col="source", min_count=5)


def q_daily_orders_ma7(sf_dir: str):
    """Daily order counts + 7-row moving average: per-batch date-count
    combiner → one small groupby; the MA runs on the aggregated date
    table (bounded by the date domain, not the data)."""
    from ray.data.aggregate import Sum

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderdate"])

    def part(b: pa.Table) -> pa.Table:
        g = b.group_by(["o_orderdate"]).aggregate([([], "count_all")])
        return pa.table({"o_orderdate": g["o_orderdate"],
                         "p_n": pc.cast(g["count_all"], pa.int64())})

    agg = (orders.map_batches(part, batch_format="pyarrow")
           .groupby("o_orderdate").aggregate(Sum("p_n", alias_name="n"))
           .to_pandas())  # bounded: one row per calendar date
    agg = agg.sort_values("o_orderdate").reset_index(drop=True)
    agg["n_orders"] = agg["n"].astype("int64")
    agg["ma7"] = (agg["n_orders"].rolling(7, min_periods=1).mean()
                  .round(6))
    return agg[["o_orderdate", "n_orders", "ma7"]]


def q_bigram_logprob(sf_dir: str):
    """Order-sensitive perplexity proxy: per-doc average add-1-smoothed
    bigram log-probability under the corpus's own bigram LM.  Two
    (term, int64) count exchanges + a broadcast-probe scoring pass."""
    from xpshacl_ray.functions.text import bigram_logprob

    return bigram_logprob(_docs(sf_dir, columns=["doc_id", "text"]))


def q_bigram_logprob_bucketed(sf_dir: str):
    """The LM-family bucketed-join scoring path exercised at a REALISTIC
    vocabulary (VERDICT r4 item 6): ``vocab_broadcast_limit=100`` is a
    small-but-nonzero bound the corpus's distinct-bigram count (916 at
    sf0.01) genuinely exceeds, so the auto-switch — not a =0 forcing
    knob — routes scoring through ``_bigram_logprob_join`` (two
    (term, int64) groupby exchanges + two bucketed hash_joins, nothing
    broadcast, nothing driver-materialized).  Same oracle SQL as
    ``bigram_logprob``: the two paths are contract-identical."""
    from xpshacl_ray.functions.text import bigram_logprob

    return bigram_logprob(_docs(sf_dir, columns=["doc_id", "text"]),
                          vocab_broadcast_limit=100)


def q_token_dropout(sf_dir: str):
    """Deterministic md5 token-dropout augmentation (10%): row-local,
    resume-stable, fully replayable in SQL."""
    from xpshacl_ray.functions.text import token_dropout

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: token_dropout(b, rate_pct=10), batch_format="pyarrow")


def q_feature_hash(sf_dir: str):
    """Hashing-trick sparse features (md5(term) % 64): vocabularyless,
    in-batch assembly, no shuffle; bucket assignment SQL-reproducible."""
    from xpshacl_ray.functions.text import feature_hash

    return feature_hash(_docs(sf_dir, columns=["doc_id", "text"]))


def q_char_entropy(sf_dir: str):
    """Per-doc codepoint Shannon entropy (garbled-text detector):
    map-only, one lexsort + run-length count per batch, no shuffle."""
    from xpshacl_ray.functions.text import char_entropy

    def fin(b: pa.Table) -> pa.Table:
        t = char_entropy(b)
        t = t.set_column(2, "entropy", pc.round(t["entropy"], ndigits=4))
        # empty docs are unscorable: SQL side has no char rows for them
        return t.filter(pc.greater(t["n_chars_text"], 0))

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fin, batch_format="pyarrow")


def q_chunk_documents(sf_dir: str):
    """Overlapping character-window chunking (size 200, stride 150):
    map-only fan-out, no shuffle; tails shorter than a window survive."""
    from xpshacl_ray.functions.packing import chunk_documents

    return chunk_documents(_docs(sf_dir, columns=["doc_id", "text"]),
                           chunk_size=200, stride=150)


def q_pack_sequences(sf_dir: str):
    """Sequence packing (concat-then-chunk, the pretraining layout step):
    md5-sharded, id-ordered token prefix sums → per-doc context-window
    span.  Metadata-only — text never enters the shuffle; the oracle
    reproduces the layout with the identical hash + window expressions."""
    from xpshacl_ray.functions.packing import pack_sequences

    return pack_sequences(
        _docs(sf_dir, columns=["doc_id", "text"]),
        seq_len=128, n_shards=8,
    ).select_columns(["shard", "doc_id", "n_tokens", "start_tok",
                      "chunk_first", "chunk_last"])


def q_quantile_filter(sf_dir: str):
    """Exact global-percentile gating (keep docs at/above the P25 of
    n_chars): value-distribution groupby + driver cumsum threshold —
    never a full sort — then a map-only filter."""
    from xpshacl_ray.functions.sampling import quantile_filter

    out, _thr = quantile_filter(
        _docs(sf_dir, columns=["doc_id", "n_chars"]), "n_chars",
        q_bp=2500, keep="upper",
    )
    return out.select_columns(["doc_id", "n_chars"])


def q_equidepth_buckets(sf_dir: str):
    """Equi-depth (quartile) bucketing of n_chars: three exact type-1
    thresholds from ONE value-distribution pass, then a map-only
    searchsorted assignment.  Value-deterministic (ties share a bucket)
    unlike SQL NTILE's row-position splits — the oracle replays the
    same order-statistic thresholds + CASE."""
    from xpshacl_ray.functions.sampling import exact_quantile_thresholds

    ds = _docs(sf_dir, columns=["doc_id", "n_chars"])
    thr, _n = exact_quantile_thresholds(ds, "n_chars",
                                        [2500, 5000, 7500])
    thr_arr = np.asarray(thr, dtype=np.int64)

    def assign(b: pa.Table) -> pa.Table:
        x = np.asarray(pc.cast(b["n_chars"], pa.int64()))
        bucket = np.searchsorted(thr_arr, x, side="left")
        return pa.table({"doc_id": b["doc_id"],
                         "n_chars": b["n_chars"],
                         "bucket": pa.array(bucket.astype(np.int64))})

    return ds.map_batches(assign, batch_format="pyarrow")


def q_rebalance_mixture(sf_dir: str):
    """Domain-mixture rebalancing to a 50/30/20 target over three
    sources (drop the rest): exact integer rate derivation + md5-bucket
    selection, mirrored bit-for-bit by the SQL oracle."""
    from xpshacl_ray.functions.sampling import rebalance_mixture

    out, _report = rebalance_mixture(
        _docs(sf_dir, columns=["doc_id", "source"]),
        id_col="doc_id", domain_col="source",
        target_bp={"src0": 5000, "src1": 3000, "src2": 2000},
    )
    return out.select_columns(["doc_id", "source"])


def q_curation(sf_dir: str):
    """Full curation composition: quality → lang filter → exact dedup.

    min_quality=0.3 makes the quality gate bite (short docs score 0.35,
    most score 0.7 on this corpus); the DuckDB oracle reproduces the whole
    composition including the quality formula."""
    from xpshacl_ray.pipelines.curate import CurationConfig, curate

    docs = _docs(sf_dir)
    curated, _report = curate(
        docs,
        CurationConfig(allowed_langs=["en", "de", "fr"], min_quality=0.3),
    )
    return curated.select_columns(["doc_id", "lang", "quality_score"])


def q_curation_gates(sf_dir: str):
    """Gated curation v2 — composition of the session's new operators:
    corpus-LM scoring (append mode) + codepoint-entropy gate → exact
    text dedup (hash-bucketed vectorized first-wins sweep, min doc_id)
    → importance-weighted downsampling (md5 bp ∝ n_chars/400).  The
    oracle reproduces the ENTIRE chain in one SQL query."""
    from xpshacl_ray.functions.dedup import add_text_hash
    from xpshacl_ray.functions.sampling import sample_weighted
    from xpshacl_ray.functions.sketches import hash64
    from xpshacl_ray.functions.text import char_entropy, unigram_logprob

    docs = _docs(sf_dir)
    scored = unigram_logprob(docs, append=True)

    def gate(b: pa.Table) -> pa.Table:
        ent = char_entropy(b)  # batch order preserved: rows align
        t = b.append_column("entropy", ent["entropy"])
        m = pc.and_(pc.greater_equal(t["entropy"], 4.0),
                    pc.greater_equal(t["avg_logprob"], -3.41))
        return t.filter(pc.fill_null(m, False))

    gated = scored.map_batches(gate, batch_format="pyarrow")

    # exact dedup among survivors: hash-bucket by text md5, one
    # vectorized first-wins sweep per partition (min doc_id per text)
    def tag(b: pa.Table) -> pa.Table:
        h = add_text_hash(b)["text_md5"]
        part = (hash64(np.asarray(h.to_pylist(), dtype=object)) % 32
                ).astype(np.int32)
        return b.append_column("__md5__", h).append_column(
            "__part__", pa.array(part))

    def first_wins(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["__md5__", "doc_id"])
        keep = ~g["__md5__"].duplicated()
        return g.loc[keep].drop(columns=["__md5__", "__part__"])

    deduped = (gated.map_batches(tag, batch_format="pyarrow")
               .groupby("__part__")
               .map_groups(first_wins, batch_format="pandas"))

    weighted = deduped.map_batches(
        lambda b: b.append_column(
            "weight", pc.divide(pc.cast(b["n_chars"], pa.float64()),
                                400.0)),
        batch_format="pyarrow")
    out = sample_weighted(weighted, id_col="doc_id", weight_col="weight")
    return out.map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"], "lang": b["lang"],
            "n_chars": b["n_chars"],
            "entropy": pc.round(b["entropy"], ndigits=4),
            "avg_logprob": pc.round(b["avg_logprob"], ndigits=4)}),
        batch_format="pyarrow")


def q_curation_v3(sf_dir: str):
    """Curation v3 — composition of this session's operators:
    boilerplate-line stripping → template-ratio gate (docs more than
    half boilerplate are template spam, dropped; integer compare, no
    float boundary) → first-wins exact dedup on the CLEANED text (the
    whole point: dedup AFTER stripping catches docs that differed only
    in their boilerplate).  One SQL statement replays the chain."""
    from xpshacl_ray.functions.boilerplate import strip_boilerplate
    from xpshacl_ray.functions.sketches import hash64

    stripped = strip_boilerplate(
        _docs(sf_dir, columns=["doc_id", "text"]), min_docs=2)

    def gate(b: pa.Table) -> pa.Table:
        nl = np.asarray(b["n_lines"], dtype=np.int64)
        nb = np.asarray(b["n_boiler"], dtype=np.int64)
        return b.filter(pa.array((nl > 0) & (nb * 2 <= nl)))

    def tag(b: pa.Table) -> pa.Table:
        h = hash64(b["text_clean"].to_numpy(
            zero_copy_only=False)).view(np.int64)
        return (b.append_column("__h__", pa.array(h))
                 .append_column("__part__",
                                pa.array((h % 32).astype(np.int32))))

    def first_wins(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["__h__", "doc_id"])
        return (g.loc[~g["__h__"].duplicated()]
                .drop(columns=["__h__", "__part__"]))

    return (stripped.map_batches(gate, batch_format="pyarrow")
            .map_batches(tag, batch_format="pyarrow")
            .groupby("__part__")
            .map_groups(first_wins, batch_format="pandas"))


def q_partition_verdicts(sf_dir: str):
    """North-star per-partition pass/fail: violations + self-drift by lang."""
    from xpshacl_ray.pipelines.verdicts import VerdictConfig, partition_verdicts
    from xpshacl_ray.stages.stats import StatsConfig, sketch_rows

    eng = ValidationEngine(_documents_spec())
    eng.compiled.id_columns = ["doc_id", "lang"]
    docs = _docs(sf_dir)
    viol = eng.validate(docs).materialize()
    cfg = StatsConfig(group_keys=["lang"], numeric_cols=["n_chars"],
                      categorical_cols=["source"])
    ref = sketch_rows(docs, cfg, concurrency=2).to_pandas()
    out = partition_verdicts(
        viol,
        VerdictConfig(partition_keys=["lang"], max_violations=0),
        current_sketches=ref, reference_sketches=ref, stats_cfg=cfg,
    )
    out = out[["lang", "n_violations", "n_chars_ks", "source_psi",
               "verdict"]].copy()
    out["n_chars_ks"] = out["n_chars_ks"].round(6)
    out["source_psi"] = out["source_psi"].round(6)
    return out


def q_justification_trees(sf_dir: str):
    eng = ValidationEngine(_documents_spec())
    viol = eng.validate(_docs(sf_dir))
    sigs = eng.enrich(eng.unique_signatures(viol))
    return sigs.select_columns(
        ["signature_key", "constraint_id", "violation_type",
         "justification_tree", "retrieved_context"]
    )


def q_explanations(sf_dir: str):
    eng = ValidationEngine(_documents_spec(), languages=["en", "pt"])
    viol = eng.validate(_docs(sf_dir))
    sigs = eng.enrich(eng.unique_signatures(viol))
    return eng.explain(sigs).select_columns(
        ["signature_key", "language", "explanation", "suggestions", "model"]
    )


# ---------------------------------------------------------------------------
# driver contract
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship explainable-validation pipeline on sf0.001."""
    sf_dir = "/root/testdata/sf0.001"
    eng = ValidationEngine(_documents_spec(), languages=["en"])
    res = eng.run(_docs(sf_dir), save_kg=False)
    return res["report"]


def _rotate_never_green_first(
    order: dict[str, Callable[[str], Any]],
    _here: str | None = None,
) -> dict[str, Callable[[str], Any]]:
    """Order the query dict so the driver's 50-entry verification window
    is spent where it matters most:

    1. entries the DRIVER has never hash-greened (no green row in any
       ``CORRECTNESS_r*.json``) come first — within them, entries with
       no green evidence anywhere precede sweep-green-only ones.  The
       driver's independent execution is the hard gate; a query green
       only in the builder-run ``ORACLE_SWEEP`` still deserves a
       driver slot (VERDICT r2 item 1 + r4 item 7 refinement);
    2. driver-green entries follow ordered by LEAST-recently-green —
       the round number of their newest hash-green row across BOTH
       artifact families, ascending — so the spare window slots
       re-verify the stalest greens each round instead of a fixed
       prefix (VERDICT r3 item 3), and a full sweep this round keeps
       its re-verified queries out of the window's scarce slots
       (VERDICT r4 item 7).

    Relative order inside each tier is preserved, so the hand-curated
    priority of the static dict below still decides ties; with no
    correctness files the static order stands unchanged."""
    import glob
    import json
    import re

    here = _here or os.path.dirname(os.path.abspath(__file__))
    last_green: dict[str, int] = {}
    driver_green: set = set()
    try:
        files = (glob.glob(os.path.join(here, "CORRECTNESS_r*.json"))
                 + glob.glob(os.path.join(here, "ORACLE_SWEEP_r*.json")))
        for f in sorted(files):
            m = re.search(r"_r(\d+)\.json$", f)
            rnd = int(m.group(1)) if m else 0
            is_driver = "CORRECTNESS" in os.path.basename(f)
            for k, v in json.load(open(f)).items():
                if v and v.get("hash_match"):
                    last_green[k] = max(last_green.get(k, 0), rnd)
                    if is_driver:
                        driver_green.add(k)
    except Exception:
        return order
    pos = {k: i for i, k in enumerate(order)}
    keys = sorted(order, key=lambda k: (k in driver_green,
                                        last_green.get(k, -1), pos[k]))
    return {k: order[k] for k in keys}


def queries() -> dict[str, Callable[[str], Any]]:
    return _rotate_never_green_first({
        # static priority order: never-driver-green first as of round 3
        # (the driver checks the first 50 entries per round; round-2
        # burned its window on already-green queries — VERDICT r2 item
        # 1); _rotate_never_green_first keeps this rotation automatic in
        # later rounds
        "lang_id": q_lang_id,
        "quality_scores": q_quality_scores,
        "simhash": q_simhash,
        "minhash_pairs": q_minhash_pairs,
        "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
        "simhash_pairs": q_simhash_pairs,
        "ivf_knn": q_ivf_knn,
        "drift_lang_psi": q_drift_lang_psi,
        "partition_verdicts": q_partition_verdicts,
        "curation": q_curation,
        "justification_trees": q_justification_trees,
        "explanations": q_explanations,
        "ttl_parity": q_ttl_parity,
        "ttl_sparql_auto": q_ttl_sparql_auto,
        "ttl_sparql_shark": q_ttl_sparql_shark,
        "ttl_paths": q_ttl_paths,
        "ttl_closed": q_ttl_closed,
        "ttl_node_recursive": q_ttl_node_recursive,
        "ttl_shacl_full": q_ttl_shacl_full,
        "node_conformance_scale": q_node_conformance_scale,
        "epoch_shuffle": q_epoch_shuffle,
        "sql_check": q_sql_check,
        "media_features": q_media_features,
        "video_frames": q_video_frames,
        "tar_ingest": q_tar_ingest,
        "audio_spectral": q_audio_spectral,
        "image_phash": q_image_phash,
        "phash_pairs": q_phash_pairs,
        "wds_dedup": q_wds_dedup,
        "media_integrity": q_media_integrity,
        "zip_ingest": q_zip_ingest,
        "exif_extract": q_exif_extract,
        "image_hashes": q_image_hashes,
        "audio_fingerprint": q_audio_fingerprint,
        "audio_dup_pairs": q_audio_dup_pairs,
        "video_dup_pairs": q_video_dup_pairs,
        "subtitle_cues": q_subtitle_cues,
        "frame_captions": q_frame_captions,
        "id3_extract": q_id3_extract,
        "datatype_violations": q_datatype_violations,
        "nodekind_violations": q_nodekind_violations,
        "pattern_violations": q_pattern_violations,
        "uniquelang_violations": q_uniquelang_violations,
        "property_pair_violations": q_property_pair_violations,
        "logical_violations": q_logical_violations,
        "sparql_grouped": q_sparql_grouped,
        "ewma_value": q_ewma_value,
        "dup_clusters": q_dup_clusters,
        "containment_pairs": q_containment_pairs,
        "edit_distance_pairs": q_edit_distance_pairs,
        "canonical_dups": q_canonical_dups,
        "kmeans_clusters": q_kmeans_clusters,
        "funnel": q_funnel,
        "throttle_events": q_throttle_events,
        "late_events": q_late_events,
        "ohlc_hourly": q_ohlc_hourly,
        "window_distinct": q_window_distinct,
        "percentile_rank": q_percentile_rank,
        "asof_next_click": q_asof_next_click,
        "suppliers_no_lineitems": q_suppliers_no_lineitems,
        "supplier_item_rollup": q_supplier_item_rollup,
        "pagerank": q_pagerank,
        "cycle_members": q_cycle_members,
        "mean_pool": q_mean_pool,
        "embedding_dim_stats": q_embedding_dim_stats,
        "dup_size_histogram": q_dup_size_histogram,
        "lang_source_mi": q_lang_source_mi,
        "knn_batch": q_knn_batch,
        "minmax_scale": q_minmax_scale,
        "profile_columns": q_profile_columns,
        "cume_distinct_users": q_cume_distinct_users,
        "equidepth_buckets": q_equidepth_buckets,
        "reassemble_chunks": q_reassemble_chunks,
        "json_project": q_json_project,
        "curation_gates": q_curation_gates,
        "curation_v3": q_curation_v3,
        "stratified_sample": q_stratified_sample,
        "sample_exact_k": q_sample_exact_k,
        "take_per_group": q_take_per_group,
        "sample_weighted": q_sample_weighted,
        "sample_weighted_k": q_sample_weighted_k,
        "bigram_pmi": q_bigram_pmi,
        "normalize_text": q_normalize_text,
        "strip_boilerplate": q_strip_boilerplate,
        "token_dropout": q_token_dropout,
        "bigram_logprob": q_bigram_logprob,
        "bigram_logprob_bucketed": q_bigram_logprob_bucketed,
        "keyness_terms": q_keyness_terms,
        "daily_orders_ma7": q_daily_orders_ma7,
        "feature_hash": q_feature_hash,
        "char_entropy": q_char_entropy,
        "chunk_documents": q_chunk_documents,
        "pack_sequences": q_pack_sequences,
        "quantile_filter": q_quantile_filter,
        "rebalance_mixture": q_rebalance_mixture,
        "violations_documents": q_violations_documents,
        "violation_summary": q_violation_summary,
        "cardinality_orders": q_cardinality_orders,
        "mincount_clicks": q_mincount_clicks,
        "required_customer": q_required_customer,
        "range_customer": q_range_customer,
        "referential_orders": q_referential_orders,
        "stats_profile_documents": q_stats_profile_documents,
        "quantiles_nchars": q_quantiles_nchars,
        "pricing_summary": q_pricing_summary,
        "revenue_by_segment": q_revenue_by_segment,
        "orders_by_nation": q_orders_by_nation,
        "histogram_prices": q_histogram_prices,
        "pivot_orders": q_pivot_orders,
        "rollup_revenue": q_rollup_revenue,
        "winsorize_prices": q_winsorize_prices,
        "latest_event": q_latest_event,
        "leakage_safe_split": q_leakage_safe_split,
        "corr_matrix": q_corr_matrix,
        "dup_rate_by_source": q_dup_rate_by_source,
        "source_overlap": q_source_overlap,
        "mad_outliers": q_mad_outliers,
        "kfold": q_kfold,
        "budget_sample": q_budget_sample,
        "topk_users": q_topk_users,
        "window_hourly": q_window_hourly,
        "rolling_window": q_rolling_window,
        "topk_per_group": q_topk_per_group,
        "distinct_users": q_distinct_users,
        "token_counts": q_token_counts,
        "term_doc_frequency": q_term_doc_frequency,
        "tfidf_top_terms": q_tfidf_top_terms,
        "inverted_index": q_inverted_index,
        "outliers_zscore": q_outliers_zscore,
        "unigram_logprob": q_unigram_logprob,
        "badwords_filter": q_badwords_filter,
        "stopword_scrub": q_stopword_scrub,
        "pii_redact": q_pii_redact,
        "cms_term_counts": q_cms_term_counts,
        "heavy_hitters": q_heavy_hitters,
        "decontaminate": q_decontaminate,
        "duplicate_spans": q_duplicate_spans,
        "repetition": q_repetition,
        "interval_join": q_interval_join,
        "fingerprints": q_fingerprints,
        "corpus_diff": q_corpus_diff,
        "exact_dedup": q_exact_dedup,
        "knn_cosine": q_knn_cosine,
        "quantized_knn": q_quantized_knn,
        "embedding_near_dups": q_embedding_near_dups,
        "sessions": q_sessions,
        "asof_purchase_signup": q_asof_purchase_signup,
        "json_extract_sum": q_json_extract_sum,
        "train_test_split": q_train_test_split,
    })


def oracle_sql() -> dict[str, str]:
    # Golden oracles (VALUES-literal SQL generated by tools/make_goldens.py)
    # for queries with no closed-form SQL: brute-force all-pairs ground
    # truth for the LSH/ANN family (independent reimplementation) + frozen
    # snapshots for the explanation strings.
    from xpshacl_ray.goldens import GOLDEN_SQL

    # Connected components over the golden candidate pairs: recursive
    # reachability closure + per-node min — SQL recursion checks the
    # engine's iterative label propagation against independent ground
    # truth (the pairs VALUES literal is the brute-force golden).
    strip_boilerplate_sql = """
        WITH corpus AS (
            SELECT doc_id, text IS NULL AS is_null,
                   list_filter(str_split(coalesce(text, ''), ' '),
                               x -> x <> '') AS toks
            FROM documents),
        numbered AS (
            SELECT doc_id,
                   unnest(range(0, CAST(ceil(len(toks) / 8.0)
                                        AS BIGINT))) AS line_no,
                   toks
            FROM corpus),
        lined AS (
            SELECT doc_id, line_no,
                   array_to_string(
                       toks[(line_no * 8 + 1):(line_no * 8 + 8)],
                       ' ') AS line
            FROM numbered),
        boiler AS (
            SELECT line FROM lined
            GROUP BY line HAVING count(DISTINCT doc_id) >= 2),
        kept AS (
            SELECT doc_id, line_no, line FROM lined
            WHERE line NOT IN (SELECT line FROM boiler)),
        agg AS (
            SELECT doc_id, count(*) AS n_kept,
                   string_agg(line, chr(10) ORDER BY line_no)
                       AS text_clean
            FROM kept GROUP BY doc_id),
        nl AS (
            SELECT doc_id, is_null,
                   CAST(ceil(len(toks) / 8.0) AS BIGINT) AS n_lines
            FROM corpus)
        SELECT n.doc_id, n.n_lines,
               n.n_lines - coalesce(a.n_kept, 0) AS n_boiler,
               CASE WHEN n.is_null THEN NULL
                    ELSE coalesce(a.text_clean, '') END AS text_clean
        FROM nl n LEFT JOIN agg a USING (doc_id)
    """

    # Composition oracle: the strip chain + template-ratio gate +
    # first-wins dedup on the CLEANED text, all in one statement.
    curation_v3_sql = f"""
        SELECT doc_id, n_lines, n_boiler, text_clean FROM (
            SELECT *, row_number() OVER (
                       PARTITION BY text_clean ORDER BY doc_id) AS rn
            FROM ({strip_boilerplate_sql})
            WHERE n_lines > 0 AND n_boiler * 2 <= n_lines
        ) WHERE rn = 1
    """

    dup_clusters_sql = f"""
        WITH RECURSIVE pairs AS ({GOLDEN_SQL["minhash_pairs"]}),
        edges AS (
            SELECT id_a AS src, id_b AS dst FROM pairs
            UNION ALL
            SELECT id_b AS src, id_a AS dst FROM pairs
        ),
        walk (node, lab) AS (
            SELECT src, src FROM edges
            UNION
            SELECT e.src, w.lab
            FROM edges e JOIN walk w ON e.dst = w.node
        )
        SELECT CAST(node AS BIGINT) AS doc_id,
               CAST(min(lab) AS BIGINT) AS cluster
        FROM walk GROUP BY node
    """

    # Same recursive closure, composed with the split expression: every
    # doc inherits its component's min-id label (itself when unclustered)
    # and the md5 split is taken on the LABEL — the leakage-safety
    # property the oracle checks end-to-end.
    leakage_split_sql = f"""
        WITH RECURSIVE pairs AS ({GOLDEN_SQL["minhash_pairs"]}),
        edges AS (
            SELECT id_a AS src, id_b AS dst FROM pairs
            UNION ALL
            SELECT id_b AS src, id_a AS dst FROM pairs
        ),
        walk (node, lab) AS (
            SELECT src, src FROM edges
            UNION
            SELECT e.src, w.lab
            FROM edges e JOIN walk w ON e.dst = w.node
        ),
        lab AS (
            SELECT CAST(node AS BIGINT) AS doc_id,
                   CAST(min(lab) AS BIGINT) AS cluster
            FROM walk GROUP BY node
        )
        SELECT d.doc_id,
               coalesce(l.cluster, d.doc_id) AS cluster,
               CASE WHEN ('0x' || substr(md5(CAST(
                        coalesce(l.cluster, d.doc_id) AS VARCHAR)),
                        1, 8))::BIGINT % 100 < 20
                    THEN 'test' ELSE 'train' END AS split
        FROM documents d LEFT JOIN lab l USING (doc_id)
    """

    edit_pairs_sql = f"""
        WITH pairs AS ({GOLDEN_SQL["minhash_pairs"]})
        SELECT p.id_a, p.id_b,
               CASE WHEN length(coalesce(da.text, '')) = 0
                     AND length(coalesce(db.text, '')) = 0 THEN 1.0
                    ELSE round(1.0 - levenshtein(coalesce(da.text, ''),
                                                 coalesce(db.text, ''))
                               * 1.0 / greatest(length(coalesce(da.text,
                                                                '')),
                                                length(coalesce(db.text,
                                                                ''))),
                               6) END AS edit_sim
        FROM pairs p
        JOIN documents da ON da.doc_id = p.id_a
        JOIN documents db ON db.doc_id = p.id_b
    """

    containment_sql = f"""
        WITH pairs AS ({GOLDEN_SQL["minhash_pairs"]}),
        toks AS (
            SELECT doc_id,
                   list_filter(str_split(lower(text), ' '),
                               x -> x <> '') AS tk
            FROM documents
        ),
        grams AS (
            SELECT doc_id,
                   CASE
                     WHEN len(tk) >= 3 THEN list_distinct(list_transform(
                         generate_series(1, len(tk) - 2),
                         i -> tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2]))
                     WHEN len(tk) > 0 THEN [array_to_string(tk, ' ')]
                     ELSE CAST([] AS VARCHAR[])
                   END AS g
            FROM toks
        ),
        scored AS (
            SELECT p.id_a, p.id_b,
                   round(CASE
                     WHEN len(ga.g) = 0 AND len(gb.g) = 0 THEN 1.0
                     WHEN len(ga.g) = 0 OR len(gb.g) = 0 THEN 0.0
                     ELSE len(list_intersect(ga.g, gb.g))
                          / CAST(least(len(ga.g), len(gb.g)) AS DOUBLE)
                   END, 6) AS containment
            FROM pairs p
            JOIN grams ga ON ga.doc_id = p.id_a
            JOIN grams gb ON gb.doc_id = p.id_b
        )
        SELECT id_a, id_b, containment FROM scored
        WHERE containment >= 0.9
    """

    canonical_sql = f"""
        WITH RECURSIVE pairs AS ({GOLDEN_SQL["minhash_pairs"]}),
        edges AS (
            SELECT id_a AS src, id_b AS dst FROM pairs
            UNION ALL SELECT id_b, id_a FROM pairs
        ),
        walk (node, lab) AS (
            SELECT src, src FROM edges
            UNION
            SELECT e.src, w.lab FROM edges e JOIN walk w ON e.dst = w.node
        ),
        comp AS (
            SELECT node AS doc_id, min(lab) AS cluster
            FROM walk GROUP BY node
        ),
        q AS ({_QUALITY_SQL})
        SELECT c.doc_id, CAST(c.cluster AS BIGINT) AS cluster,
               q.quality_score,
               (row_number() OVER (
                   PARTITION BY c.cluster
                   ORDER BY q.quality_score DESC, c.doc_id) = 1)
               AS is_canonical
        FROM comp c JOIN q ON q.doc_id = c.doc_id
    """

    out = {
        **GOLDEN_SQL,
        "dup_clusters": dup_clusters_sql,
        "leakage_safe_split": leakage_split_sql,
        "edit_distance_pairs": edit_pairs_sql,
        "containment_pairs": containment_sql,
        "canonical_dups": canonical_sql,
        "violations_documents": _VIOLATIONS_SQL,
        # constraint-family oracles (C3/C5/C8/C11/C12-C18/C19-grouped):
        # each mirrors the engine's exact message literals and SHACL null
        # semantics (NULL has no value node -> no violation)
        "datatype_violations": """
            SELECT event_id,
                   'http://www.w3.org/ns/shacl#DatatypeConstraintComponent'
                       AS constraint_id,
                   'value_type' AS violation_type, 'value' AS property_path,
                   CAST(value AS VARCHAR) AS value,
                   'Value is not of datatype int64' AS message,
                   'Violation' AS severity
            FROM events
            WHERE value IS NOT NULL
              AND (isnan(value) OR value <> trunc(value))
        """,
        "nodekind_violations": """
            SELECT doc_id,
                   'http://www.w3.org/ns/shacl#NodeKindConstraintComponent'
                       AS constraint_id,
                   'value_type' AS violation_type, 'source' AS property_path,
                   source AS value,
                   'Value is not a well-formed IRI' AS message,
                   'Violation' AS severity
            FROM documents WHERE NOT regexp_matches(source, '^[a-z]+[0-9]+$')
            UNION ALL
            SELECT doc_id,
                   'http://www.w3.org/ns/shacl#NodeKindConstraintComponent',
                   'value_type', 'text', text,
                   'Value is not a well-formed Literal', 'Violation'
            FROM documents WHERE NOT regexp_matches(text, '(spark|vector)')
        """,
        "pattern_violations": """
            SELECT doc_id,
                   'http://www.w3.org/ns/shacl#PatternConstraintComponent'
                       AS constraint_id,
                   'pattern' AS violation_type, 'text' AS property_path,
                   text AS value,
                   'Value does not match pattern '' the ''' AS message,
                   'Violation' AS severity
            FROM documents WHERE NOT regexp_matches(text, ' the ')
            UNION ALL
            SELECT doc_id,
                   'http://www.w3.org/ns/shacl#PatternConstraintComponent',
                   'pattern', 'lang', lang,
                   'Value does not match pattern ''^(DE|EN|FR|ES|ZH)$''',
                   'Violation'
            FROM documents
            WHERE NOT regexp_matches(lang, '(?i)^(DE|EN|FR|ES|ZH)$')
            UNION ALL
            SELECT doc_id,
                   'http://www.w3.org/ns/shacl#PatternConstraintComponent',
                   'pattern', 'source', source,
                   'Value does not match pattern ''^src[0-9]+$''', 'Violation'
            FROM documents WHERE NOT regexp_matches(source, '^src[0-9]+$')
        """,
        "property_pair_violations": """
            SELECT l_orderkey, l_linenumber,
                   'http://www.w3.org/ns/shacl#EqualsConstraintComponent'
                       AS constraint_id,
                   'property_pair' AS violation_type,
                   'l_returnflag' AS property_path,
                   l_returnflag AS value,
                   'Value of l_returnflag must equal value of l_linestatus'
                       AS message,
                   'Violation' AS severity
            FROM lineitem WHERE NOT (l_returnflag = l_linestatus)
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'http://www.w3.org/ns/shacl#DisjointConstraintComponent',
                   'property_pair', 'l_suppkey',
                   CAST(l_suppkey AS VARCHAR),
                   'Value of l_suppkey must not equal value of l_linenumber',
                   'Violation'
            FROM lineitem WHERE l_suppkey = l_linenumber
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'http://www.w3.org/ns/shacl#LessThanConstraintComponent',
                   'property_pair', 'l_suppkey',
                   CAST(l_suppkey AS VARCHAR),
                   'Value of l_suppkey must be < value of l_partkey',
                   'Violation'
            FROM lineitem WHERE NOT (l_suppkey < l_partkey)
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'http://www.w3.org/ns/shacl#LessThanOrEqualsConstraintComponent',
                   'property_pair', 'l_linenumber',
                   CAST(l_linenumber AS VARCHAR),
                   'Value of l_linenumber must be <= value of l_suppkey',
                   'Violation'
            FROM lineitem WHERE NOT (l_linenumber <= l_suppkey)
        """,
        "logical_violations": """
            SELECT doc_id,
                   'http://www.w3.org/ns/shacl#NotConstraintComponent'
                       AS constraint_id,
                   'logical' AS violation_type, 'lang' AS property_path,
                   lang AS value,
                   'Value conforms to negated shape (InConstraintComponent)'
                       AS message,
                   'Violation' AS severity
            FROM documents WHERE lang IS NULL OR lang IN ('zh')
            UNION ALL
            SELECT doc_id,
                   'http://www.w3.org/ns/shacl#AndConstraintComponent',
                   'logical', 'text', text,
                   'Node does not conform to all shapes in sh:and list',
                   'Violation'
            FROM documents
            WHERE (text IS NOT NULL AND length(text) < 100)
               OR (text IS NOT NULL AND NOT regexp_matches(text, ' the '))
            UNION ALL
            SELECT doc_id,
                   'http://www.w3.org/ns/shacl#OrConstraintComponent',
                   'logical', 'lang', lang,
                   'Node does not conform to any shape in sh:or list',
                   'Violation'
            FROM documents
            WHERE (lang IS NOT NULL AND lang NOT IN ('de', 'en'))
              AND (text IS NOT NULL AND NOT regexp_matches(text, ' spark '))
            UNION ALL
            SELECT doc_id,
                   'http://www.w3.org/ns/shacl#XoneConstraintComponent',
                   'logical', 'lang', lang,
                   'Node does not conform to exactly one shape in sh:xone list',
                   'Violation'
            FROM documents
            WHERE (CASE WHEN lang IS NULL OR lang = 'en' THEN 1 ELSE 0 END)
                + (CASE WHEN text IS NULL
                        OR regexp_matches(text, ' the ') THEN 1 ELSE 0 END)
                <> 1
        """,
        "uniquelang_violations": """
            SELECT 'group:' || source || '/' || lang AS focus_node,
                   'http://www.w3.org/ns/shacl#UniqueLangConstraintComponent'
                       AS constraint_id,
                   'other' AS violation_type, 'lang' AS property_path,
                   CAST(count(*) AS VARCHAR) AS value,
                   'More than one value shares a language tag (lang) per [''source'']'
                       AS message,
                   'Violation' AS severity,
                   '{"uniqueLang": true, "actualCount": ' || count(*) || '}'
                       AS context
            FROM documents GROUP BY source, lang HAVING count(*) > 1
        """,
        "ewma_value": """
            WITH s AS (
                SELECT user_id, event_id, value,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS rn
                FROM events)
            SELECT a.user_id, a.event_id, a.value,
                   round(sum(b.value * pow(0.7, a.rn - b.rn))
                         / sum(pow(0.7, a.rn - b.rn)), 6) AS ewma
            FROM s a JOIN s b
              ON b.user_id = a.user_id AND b.rn BETWEEN a.rn - 7 AND a.rn
            GROUP BY a.user_id, a.event_id, a.value
        """,
        "sparql_grouped": """
            WITH viol AS (
                SELECT DISTINCT l_orderkey FROM (
                    SELECT l_orderkey, l_shipdate,
                           max(l_shipdate) OVER (
                               PARTITION BY l_orderkey ORDER BY l_linenumber
                               RANGE BETWEEN UNBOUNDED PRECEDING
                                         AND 1 PRECEDING) AS prevmax
                    FROM lineitem)
                WHERE prevmax IS NOT NULL AND l_shipdate < prevmax),
            sz AS (SELECT l_orderkey, count(*) AS n
                   FROM lineitem GROUP BY l_orderkey)
            SELECT v.l_orderkey,
                   'group:' || CAST(v.l_orderkey AS VARCHAR) AS focus_node,
                   'http://www.w3.org/ns/shacl#SPARQLConstraintComponent'
                       AS constraint_id,
                   'other' AS violation_type, 'l_shipdate' AS property_path,
                   CAST(sz.n AS VARCHAR) AS value,
                   'Ship dates must not decrease across line numbers'
                       AS message,
                   'Violation' AS severity,
                   '{"name": "shipdate-monotone", "actualCount": ' || sz.n || '}'
                       AS context
            FROM viol v JOIN sz ON v.l_orderkey = sz.l_orderkey
        """,
        "violation_summary": f"""
            SELECT constraint_id, violation_type, severity,
                   count(*) AS n_violations
            FROM ({_VIOLATIONS_SQL})
            GROUP BY constraint_id, violation_type, severity
        """,
        "cardinality_orders": """
            SELECT o_custkey, count(*) AS actual_count
            FROM orders GROUP BY o_custkey HAVING count(*) > 15
        """,
        "mincount_clicks": """
            SELECT user_id, count(*) AS actual_count
            FROM events WHERE event_type = 'click'
            GROUP BY user_id HAVING count(*) < 10
        """,
        "required_customer": """
            SELECT c_custkey FROM customer WHERE c_acctbal IS NULL
        """,
        "range_customer": """
            SELECT c_custkey, c_acctbal AS observed_balance
            FROM customer WHERE c_acctbal < 0
        """,
        "referential_orders": """
            SELECT o_orderkey, o_custkey FROM orders
            WHERE o_custkey NOT IN
                  (SELECT c_custkey FROM customer WHERE c_acctbal >= 0)
        """,
        "stats_profile_documents": """
            SELECT source, lang, count(*) AS n_rows,
                   count(*) - count(n_chars) AS n_chars_nulls,
                   CAST(min(n_chars) AS DOUBLE) AS n_chars_min,
                   CAST(max(n_chars) AS DOUBLE) AS n_chars_max
            FROM documents GROUP BY source, lang
        """,
        "quantiles_nchars": """
            SELECT lang,
                   round(quantile_cont(n_chars, 0.5), 4) AS p50,
                   round(quantile_cont(n_chars, 0.9), 4) AS p90
            FROM documents GROUP BY lang
        """,
        # exact fixed-point arithmetic mirroring the engine: cent/bp
        # integers per row, int64 sums, integer half-away rounding —
        # order-insensitive on both sides (float sums drift ~1e-8 with
        # summation order and flip cent-boundary rounding)
        "pricing_summary": """
            WITH f AS (
                SELECT l_returnflag, l_linestatus,
                       CAST(round(l_quantity) AS BIGINT) AS qty_i,
                       CAST(round(l_extendedprice * 100) AS BIGINT) AS ep_c,
                       CAST(round(l_discount * 100) AS BIGINT) AS disc_bp
                FROM lineitem
                WHERE l_shipdate <= TIMESTAMP '1998-09-01'
            )
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(qty_i) AS DOUBLE) AS sum_qty,
                   CAST(sum(ep_c) AS DOUBLE) / 100 AS sum_base_price,
                   CAST(CASE WHEN sum(ep_c * (100 - disc_bp)) >= 0
                        THEN (sum(ep_c * (100 - disc_bp)) + 50) // 100
                        ELSE -((-sum(ep_c * (100 - disc_bp)) + 50) // 100)
                        END AS DOUBLE) / 100 AS sum_disc_price,
                   CAST(CASE WHEN sum(qty_i) >= 0
                        THEN (sum(qty_i) * 10000 + count(*) // 2) // count(*)
                        ELSE -((-sum(qty_i) * 10000 + count(*) // 2)
                               // count(*))
                        END AS DOUBLE) / 10000 AS avg_qty,
                   CAST(CASE WHEN sum(disc_bp) >= 0
                        THEN (sum(disc_bp) * 100 + count(*) // 2) // count(*)
                        ELSE -((-sum(disc_bp) * 100 + count(*) // 2)
                               // count(*))
                        END AS DOUBLE) / 10000 AS avg_disc,
                   count(*) AS count_order
            FROM f GROUP BY l_returnflag, l_linestatus
        """,
        "revenue_by_segment": """
            SELECT c_mktsegment,
                   CAST(CASE WHEN sum(CAST(round(o_totalprice * 100)
                                            AS BIGINT)) >= 0
                        THEN (sum(CAST(round(o_totalprice * 100) AS BIGINT))
                              + 5) // 10
                        ELSE -((-sum(CAST(round(o_totalprice * 100)
                                          AS BIGINT)) + 5) // 10)
                        END AS DOUBLE) / 10 AS revenue,
                   count(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "histogram_prices": """
            WITH v AS (
                SELECT CAST(round(l_extendedprice * 100) AS BIGINT)
                           AS cents
                FROM lineitem WHERE l_extendedprice IS NOT NULL)
            SELECT CAST(floor(cents / 500000.0) AS BIGINT) AS bin,
                   CAST(floor(cents / 500000.0) AS BIGINT)
                       * 500000.0 AS lo,
                   (CAST(floor(cents / 500000.0) AS BIGINT) + 1)
                       * 500000.0 AS hi,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(cents) AS DOUBLE) AS sum_value
            FROM v GROUP BY 1
        """,
        "pivot_orders": """
            WITH o AS (
                SELECT o_orderpriority, o_orderstatus,
                       CAST(round(o_totalprice * 100) AS BIGINT) AS cents
                FROM orders)
            SELECT o_orderpriority,
                   CAST(count(*) FILTER (o_orderstatus = 'F')
                        AS BIGINT) AS n_F,
                   CAST(coalesce(sum(cents) FILTER (o_orderstatus = 'F'),
                                 0) AS BIGINT) AS sum_F,
                   CAST(count(*) FILTER (o_orderstatus = 'O')
                        AS BIGINT) AS n_O,
                   CAST(coalesce(sum(cents) FILTER (o_orderstatus = 'O'),
                                 0) AS BIGINT) AS sum_O,
                   CAST(count(*) FILTER (o_orderstatus = 'P')
                        AS BIGINT) AS n_P,
                   CAST(coalesce(sum(cents) FILTER (o_orderstatus = 'P'),
                                 0) AS BIGINT) AS sum_P
            FROM o GROUP BY o_orderpriority
        """,
        "rollup_revenue": """
            WITH o AS (
                SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                       c_nationkey
                FROM orders JOIN customer ON o_custkey = c_custkey)
            SELECT r_name, n_name,
                   CAST(sum(cents) AS BIGINT) AS total,
                   CAST(count(*) AS BIGINT) AS n
            FROM o
            JOIN nation ON n_nationkey = c_nationkey
            JOIN region ON r_regionkey = n_regionkey
            GROUP BY ROLLUP(r_name, n_name)
        """,
        "corr_matrix": """
            WITH pairs(col_a, col_b) AS (VALUES
                ('l_quantity', 'l_extendedprice'),
                ('l_quantity', 'l_discount'),
                ('l_quantity', 'l_tax'),
                ('l_extendedprice', 'l_discount'),
                ('l_extendedprice', 'l_tax'),
                ('l_discount', 'l_tax')),
            c AS (
                SELECT * FROM lineitem
                WHERE l_quantity IS NOT NULL
                  AND l_extendedprice IS NOT NULL
                  AND l_discount IS NOT NULL AND l_tax IS NOT NULL),
            vals AS (
                SELECT 'l_quantity' AS col_a, 'l_extendedprice' AS col_b,
                       corr(l_quantity, l_extendedprice) AS c0 FROM c
                UNION ALL SELECT 'l_quantity', 'l_discount',
                       corr(l_quantity, l_discount) FROM c
                UNION ALL SELECT 'l_quantity', 'l_tax',
                       corr(l_quantity, l_tax) FROM c
                UNION ALL SELECT 'l_extendedprice', 'l_discount',
                       corr(l_extendedprice, l_discount) FROM c
                UNION ALL SELECT 'l_extendedprice', 'l_tax',
                       corr(l_extendedprice, l_tax) FROM c
                UNION ALL SELECT 'l_discount', 'l_tax',
                       corr(l_discount, l_tax) FROM c)
            SELECT col_a, col_b, round(c0, 6) AS corr FROM vals
        """,
        "dup_rate_by_source": """
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(DISTINCT text) AS BIGINT) AS n_unique,
                   round((count(*) - count(DISTINCT text)) * 1.0
                         / count(*), 6) AS dup_fraction
            FROM documents GROUP BY source
        """,
        "source_overlap": """
            WITH d AS (
                SELECT DISTINCT source, substr(text, 1, 100) AS text
                FROM documents WHERE text IS NOT NULL)
            SELECT a.source AS source_a, b.source AS source_b,
                   CAST(count(*) AS BIGINT) AS n_shared
            FROM d a JOIN d b
              ON a.text = b.text AND a.source < b.source
            GROUP BY 1, 2
        """,
        "mad_outliers": """
            WITH med AS (
                SELECT lang, median(n_chars) AS med
                FROM documents GROUP BY lang),
            mad AS (
                SELECT d.lang,
                       median(abs(d.n_chars - m.med)) AS mad
                FROM documents d JOIN med m USING (lang)
                GROUP BY d.lang),
            z AS (
                SELECT d.doc_id, d.lang, d.n_chars,
                       CASE WHEN mad.mad > 0
                            THEN round((d.n_chars - med.med)
                                       / (1.4826 * mad.mad), 6)
                       END AS robust_z
                FROM documents d
                JOIN med USING (lang) JOIN mad USING (lang))
            SELECT * FROM z
        """,
        "profile_columns": """
            SELECT 'o_orderkey' AS "column",
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(count(*) - count(o_orderkey) AS BIGINT) AS n_null,
                   CAST(count(DISTINCT o_orderkey) AS BIGINT)
                       AS n_distinct,
                   CAST(min(o_orderkey) AS VARCHAR) AS min_str,
                   CAST(max(o_orderkey) AS VARCHAR) AS max_str
            FROM orders
            UNION ALL
            SELECT 'o_custkey', count(*),
                   count(*) - count(o_custkey),
                   count(DISTINCT o_custkey),
                   CAST(min(o_custkey) AS VARCHAR),
                   CAST(max(o_custkey) AS VARCHAR)
            FROM orders
            UNION ALL
            SELECT 'o_orderstatus', count(*),
                   count(*) - count(o_orderstatus),
                   count(DISTINCT o_orderstatus),
                   min(o_orderstatus), max(o_orderstatus)
            FROM orders
            UNION ALL
            SELECT 'o_orderpriority', count(*),
                   count(*) - count(o_orderpriority),
                   count(DISTINCT o_orderpriority),
                   min(o_orderpriority), max(o_orderpriority)
            FROM orders
            UNION ALL
            SELECT 'o_orderdate', count(*),
                   count(*) - count(o_orderdate),
                   count(DISTINCT o_orderdate),
                   CAST(min(o_orderdate) AS VARCHAR),
                   CAST(max(o_orderdate) AS VARCHAR)
            FROM orders
        """,
        "minmax_scale": """
            WITH s AS (
                SELECT lang, min(n_chars) AS lo, max(n_chars) AS hi
                FROM documents GROUP BY lang)
            SELECT d.doc_id, d.lang, d.n_chars,
                   CASE WHEN s.hi > s.lo
                        THEN round((d.n_chars - s.lo) * 1.0
                                   / (s.hi - s.lo), 6)
                   END AS scaled
            FROM documents d JOIN s USING (lang)
        """,
        "cume_distinct_users": """
            WITH fs AS (
                SELECT user_id, min(CAST(ts AS DATE)) AS day
                FROM events GROUP BY user_id),
            daily AS (
                SELECT day, CAST(count(*) AS BIGINT) AS new_users
                FROM fs GROUP BY day)
            SELECT day, new_users,
                   CAST(sum(new_users) OVER (ORDER BY day)
                        AS BIGINT) AS cume_users
            FROM daily
        """,
        "sample_weighted_k": """
            WITH pri AS (
                SELECT doc_id, n_chars,
                       -ln((('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                            1, 8))::BIGINT + 1.0)
                           / 4294967297.0) / n_chars AS p
                FROM documents WHERE n_chars > 0)
            SELECT doc_id, n_chars FROM pri
            ORDER BY round(p, 9), doc_id LIMIT 100
        """,
        "latest_event": """
            SELECT event_id, ts, user_id, event_type, value
            FROM events
            QUALIFY row_number() OVER (
                PARTITION BY user_id
                ORDER BY ts DESC, event_id DESC) = 1
        """,
        "kfold": """
            SELECT doc_id,
                   ('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                   1, 8))::BIGINT % 5 AS fold
            FROM documents
        """,
        "budget_sample": """
            WITH c AS (
                SELECT doc_id, n_chars,
                       md5(CAST(doc_id AS VARCHAR)) AS h
                FROM documents),
            cum AS (
                SELECT doc_id, n_chars,
                       sum(n_chars) OVER (ORDER BY h) AS cum
                FROM c)
            SELECT doc_id, n_chars FROM cum WHERE cum <= 50000
        """,
        "winsorize_prices": """
            WITH v AS (
                SELECT l_orderkey, l_linenumber,
                       CAST(round(l_extendedprice * 100) AS BIGINT)
                           AS cents
                FROM lineitem),
            cnt AS (SELECT count(cents) AS c FROM v),
            ranked AS (
                SELECT cents, row_number() OVER (ORDER BY cents) AS rn
                FROM v WHERE cents IS NOT NULL),
            lo AS (SELECT min(cents) AS lo FROM ranked, cnt
                   WHERE rn >= (c * 500 + 9999) // 10000),
            hi AS (SELECT min(cents) AS hi FROM ranked, cnt
                   WHERE rn >= (c * 9500 + 9999) // 10000)
            SELECT v.l_orderkey, v.l_linenumber, v.cents,
                   least(greatest(v.cents, lo.lo), hi.hi) AS cents_w
            FROM v, lo, hi
        """,
        "orders_by_nation": """
            SELECT c_nationkey,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS DOUBLE) / 100.0 AS revenue
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_nationkey
        """,
        "topk_users": """
            SELECT user_id,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE)
                       / 100 AS total_value
            FROM events GROUP BY user_id
            ORDER BY total_value DESC, user_id
            LIMIT 10
        """,
        "window_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS window_start,
                   count(*) AS n_events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE)
                       / 100 AS sum_value
            FROM events GROUP BY event_type, date_trunc('hour', ts)
        """,
        "rolling_window": """
            WITH buckets AS (
                SELECT event_type,
                       time_bucket(INTERVAL '15 minutes', ts) AS bucket_start,
                       count(*) AS n_events,
                       sum(CAST(round(value * 100) AS BIGINT)) AS cents
                FROM events GROUP BY 1, 2
            )
            SELECT event_type, bucket_start, n_events,
                   CAST(cents AS DOUBLE) / 100 AS bucket_sum,
                   CAST(sum(cents) OVER w AS DOUBLE) / 100 AS rolling_sum,
                   CAST(sum(n_events) OVER w AS BIGINT) AS rolling_n
            FROM buckets
            WINDOW w AS (PARTITION BY event_type ORDER BY bucket_start
                         ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)
        """,
        "topk_per_group": """
            WITH totals AS (
                SELECT event_type, user_id,
                       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE)
                           / 100 AS total_value
                FROM events GROUP BY 1, 2
            )
            SELECT event_type, user_id, total_value, rnk FROM (
                SELECT *, CAST(row_number() OVER (
                           PARTITION BY event_type
                           ORDER BY total_value DESC, user_id) AS BIGINT)
                       AS rnk
                FROM totals
            ) WHERE rnk <= 2
        """,
        "distinct_users": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY event_type
        """,
        "token_counts": """
            SELECT doc_id, CAST(len(str_split(text, ' ')) AS BIGINT)
                   AS n_tokens
            FROM documents
        """,
        "term_doc_frequency": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(str_split(lower(text), ' ')) AS term
                FROM documents
            ), dt AS (
                SELECT DISTINCT doc_id, term FROM toks WHERE term <> ''
            )
            SELECT term, CAST(count(*) AS BIGINT) AS df
            FROM dt GROUP BY term
            ORDER BY df DESC, term LIMIT 20
        """,
        "unigram_logprob": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(str_split(lower(text), ' ')) AS term
                FROM documents
            ), tf AS (
                SELECT doc_id, term, count(*) AS tf
                FROM toks WHERE term <> '' GROUP BY doc_id, term
            ), lm AS (
                SELECT term, count(*) AS n
                FROM toks WHERE term <> '' GROUP BY term
            ), tot AS (SELECT sum(n) AS t FROM lm)
            SELECT tf.doc_id,
                   CAST(sum(tf.tf) AS BIGINT) AS n_tokens,
                   round(sum(tf.tf * ln(lm.n / CAST(tot.t AS DOUBLE)))
                         / sum(tf.tf), 4) AS avg_logprob
            FROM tf JOIN lm USING (term) CROSS JOIN tot
            GROUP BY tf.doc_id
        """,
        "outliers_zscore": """
            WITH st AS (
                SELECT lang, avg(n_chars) AS mu,
                       stddev_pop(n_chars) AS sd
                FROM documents GROUP BY lang
            )
            SELECT d.doc_id, d.lang, d.n_chars,
                   round((d.n_chars - st.mu) / st.sd, 4) AS zscore
            FROM documents d JOIN st USING (lang)
            WHERE st.sd > 0
              AND abs((d.n_chars - st.mu) / st.sd) >= 1.8
        """,
        "inverted_index": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(str_split(lower(text), ' ')) AS term
                FROM documents
            ), dt AS (
                SELECT DISTINCT doc_id, term FROM toks WHERE term <> ''
            ), pl AS (
                SELECT term, CAST(count(*) AS BIGINT) AS df,
                       array_to_string(
                           list(doc_id ORDER BY doc_id), ',') AS postings
                FROM dt GROUP BY term
            )
            SELECT term, df, postings FROM pl WHERE df <= 380
        """,
        "tfidf_top_terms": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(str_split(lower(text), ' ')) AS term
                FROM documents
            ), tf AS (
                SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
                FROM toks WHERE term <> '' GROUP BY doc_id, term
            ), df AS (
                SELECT term, count(DISTINCT doc_id) AS df
                FROM toks WHERE term <> '' GROUP BY term
            ), n AS (SELECT count(*) AS n FROM documents),
            scored AS (
                SELECT tf.doc_id, tf.term,
                       tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS tfidf
                FROM tf JOIN df USING (term) CROSS JOIN n
            ), ranked AS (
                SELECT doc_id, term, tfidf,
                       CAST(row_number() OVER (
                           PARTITION BY doc_id
                           ORDER BY tfidf DESC, term) AS BIGINT) AS rank
                FROM scored
            )
            SELECT doc_id, term, round(tfidf, 6) AS tfidf, rank
            FROM ranked WHERE rank <= 3
        """,
        "badwords_filter": """
            SELECT doc_id, lang FROM documents
            WHERE NOT list_has_any(
                list_filter(str_split(lower(text), ' '), x -> x <> ''),
                ['slow', 'dup'])
        """,
        "stopword_scrub": """
            -- coalesce: DuckDB's array_to_string returns NULL for an
            -- empty list, the engine returns '' for an all-stopword doc
            SELECT doc_id,
                   CASE WHEN text IS NULL THEN NULL
                        ELSE coalesce(array_to_string(
                            list_filter(str_split(text, ' '),
                                        x -> x NOT IN ('a', 'the')),
                            ' '), '') END AS text_clean
            FROM documents
        """,
        "pii_redact": _pii_oracle_sql(),
        "decontaminate": """
            WITH corpus AS (
                SELECT doc_id,
                       str_split(lower(coalesce(text, '')), ' ') AS toks
                FROM documents),
            grams AS (
                SELECT doc_id,
                       unnest(list_transform(
                           range(1, greatest(len(toks) - 5 + 1, 0) + 1),
                           i -> array_to_string(toks[i:i+4], ' '))) AS g
                FROM corpus),
            bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0),
            hits AS (
                SELECT c.doc_id, count(DISTINCT c.g) AS n_hits
                FROM grams c JOIN bench b USING (g) GROUP BY c.doc_id)
            SELECT d.doc_id,
                   coalesce(h.n_hits, 0) AS contaminated_ngrams,
                   coalesce(h.n_hits, 0) >= 1 AS is_contaminated
            FROM documents d LEFT JOIN hits h USING (doc_id)
        """,
        "duplicate_spans": """
            WITH corpus AS (
                SELECT doc_id,
                       str_split(lower(coalesce(text, '')), ' ') AS toks
                FROM documents),
            grams AS (
                SELECT doc_id,
                       unnest(list_transform(
                           range(1, greatest(len(toks) - 13 + 1, 0) + 1),
                           i -> array_to_string(toks[i:i+12], ' '))) AS g
                FROM corpus),
            counted AS (SELECT g, count(*) AS total FROM grams GROUP BY g),
            perdoc AS (SELECT doc_id, count(*) AS n_ngrams
                       FROM grams GROUP BY doc_id),
            dupdoc AS (
                SELECT doc_id, count(*) AS dup_ngrams
                FROM grams JOIN counted USING (g)
                WHERE total >= 2 GROUP BY doc_id)
            SELECT d.doc_id, p.n_ngrams, d.dup_ngrams,
                   round(d.dup_ngrams * 1.0 / p.n_ngrams, 6) AS dup_fraction
            FROM dupdoc d JOIN perdoc p USING (doc_id)
        """,
        "repetition": """
            WITH corpus AS (
                SELECT doc_id, text IS NULL AS is_null,
                       str_split(lower(coalesce(text, '')), ' ') AS toks
                FROM documents),
            r2 AS (
                SELECT doc_id,
                       round(1.0 - count(DISTINCT g) * 1.0 / count(*), 6)
                           AS f
                FROM (SELECT doc_id,
                             unnest(list_transform(
                                 range(1, greatest(len(toks) - 1, 0) + 1),
                                 i -> array_to_string(toks[i:i+1], ' ')))
                                 AS g
                      FROM corpus)
                GROUP BY doc_id),
            r3 AS (
                SELECT doc_id,
                       round(1.0 - count(DISTINCT g) * 1.0 / count(*), 6)
                           AS f
                FROM (SELECT doc_id,
                             unnest(list_transform(
                                 range(1, greatest(len(toks) - 2, 0) + 1),
                                 i -> array_to_string(toks[i:i+2], ' ')))
                                 AS g
                      FROM corpus)
                GROUP BY doc_id)
            SELECT c.doc_id,
                   CASE WHEN c.is_null THEN NULL
                        ELSE coalesce(r2.f, 0.0) END AS rep_2gram_frac,
                   CASE WHEN c.is_null THEN NULL
                        ELSE coalesce(r3.f, 0.0) END AS rep_3gram_frac
            FROM corpus c
            LEFT JOIN r2 USING (doc_id) LEFT JOIN r3 USING (doc_id)
        """,
        "interval_join": """
            WITH iv AS (
                SELECT o_orderkey, o_orderdate AS iv_start,
                       o_orderdate + INTERVAL 30 DAY AS iv_end
                FROM orders WHERE o_orderkey % 1499 = 0)
            SELECT l.l_orderkey, l.l_linenumber, iv.o_orderkey
            FROM lineitem l JOIN iv
              ON l.l_shipdate BETWEEN iv.iv_start AND iv.iv_end
        """,
        "cms_term_counts": """
            SELECT term, CAST(count(*) AS BIGINT) AS n FROM (
                SELECT unnest(str_split(lower(text), ' ')) AS term
                FROM documents)
            WHERE term <> '' GROUP BY term
        """,
        "heavy_hitters": """
            WITH toks AS (
                SELECT unnest(str_split(lower(text), ' ')) AS term
                FROM documents WHERE text IS NOT NULL
            ), nz AS (SELECT term FROM toks WHERE term <> ''),
            tot AS (SELECT count(*) AS n FROM nz)
            SELECT term, count(*) AS n_occurrences
            FROM nz, tot
            GROUP BY term, tot.n
            HAVING count(*) >= 0.001 * tot.n
        """,
        "fingerprints": """
            SELECT doc_id, md5(text) AS fingerprint_md5,
                   sha256(text) AS content_sha256
            FROM documents
        """,
        "corpus_diff": """
            SELECT doc_id FROM documents
            WHERE text NOT IN
                  (SELECT text FROM documents
                   WHERE doc_id % 2 = 0 AND text IS NOT NULL)
        """,
        "exact_dedup": """
            SELECT md5(text) AS text_md5, min(doc_id) AS keep_id,
                   count(*) - 1 AS n_dupes
            FROM documents GROUP BY text
        """,
        "knn_cosine": """
            WITH sims AS (
                SELECT vec_id,
                       list_cosine_similarity(
                           embedding,
                           (SELECT embedding FROM embeddings WHERE vec_id = 0)
                       ) AS c
                FROM embeddings
            )
            SELECT vec_id, round(CAST(c AS DOUBLE), 3) AS cosine,
                   CAST(row_number() OVER (ORDER BY c DESC, vec_id)
                        AS BIGINT) AS rank
            FROM sims ORDER BY c DESC, vec_id LIMIT 10
        """,
        "quantized_knn": """
            WITH sims AS (
                SELECT vec_id,
                       list_cosine_similarity(
                           embedding,
                           (SELECT embedding FROM embeddings WHERE vec_id = 0)
                       ) AS c
                FROM embeddings
            )
            SELECT vec_id, round(CAST(c AS DOUBLE), 3) AS cosine,
                   CAST(row_number() OVER (ORDER BY c DESC, vec_id)
                        AS BIGINT) AS rank
            FROM sims ORDER BY c DESC, vec_id LIMIT 10
        """,
        "embedding_near_dups": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   round(CAST(list_cosine_similarity(a.embedding, b.embedding)
                              AS DOUBLE), 3) AS cosine
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.99
        """,
        "stratified_sample": """
            SELECT doc_id, lang FROM documents
            WHERE ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::BIGINT
                  % 100
                  < CASE lang WHEN 'en' THEN 50 WHEN 'de' THEN 20
                              WHEN 'fr' THEN 100 ELSE 10 END
        """,
        "sample_exact_k": """
            SELECT doc_id, lang FROM documents
            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
            LIMIT 50
        """,
        "take_per_group": """
            SELECT doc_id, source FROM documents
            QUALIFY row_number() OVER (
                PARTITION BY source
                ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= 10
        """,
        "train_test_split": """
            SELECT doc_id,
                   CASE WHEN ('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                             1, 8))::BIGINT % 100 < 20
                        THEN 'test' ELSE 'train' END AS split
            FROM documents
        """,
        "sample_weighted": """
            SELECT doc_id, lang, n_chars FROM documents
            WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                       AS BIGINT) % 10000
                  < least(greatest(floor(
                        (n_chars / 500.0) * 10000 + 0.5), 0), 10000)
        """,
        "bigram_pmi": """
            WITH t AS (
                SELECT doc_id, str_split(lower(text), ' ') AS l
                FROM documents
            ), bg AS (
                SELECT l[s.i] AS w1, l[s.i + 1] AS w2, count(*) AS c12
                FROM t, unnest(generate_series(1, len(l) - 1)) AS s(i)
                WHERE l[s.i] <> '' AND l[s.i + 1] <> ''
                GROUP BY 1, 2
            ), ug AS (
                SELECT term, count(*) AS c FROM (
                    SELECT unnest(str_split(lower(text), ' ')) AS term
                    FROM documents) WHERE term <> '' GROUP BY term
            ), tot AS (
                SELECT (SELECT sum(c12) FROM bg) AS t12,
                       (SELECT sum(c) FROM ug) AS t1
            )
            SELECT bg.w1, bg.w2, CAST(bg.c12 AS BIGINT) AS c12,
                   round(ln((bg.c12 / CAST(tot.t12 AS DOUBLE)) /
                            ((u1.c / CAST(tot.t1 AS DOUBLE)) *
                             (u2.c / CAST(tot.t1 AS DOUBLE)))), 4) AS pmi
            FROM bg
            JOIN ug u1 ON bg.w1 = u1.term
            JOIN ug u2 ON bg.w2 = u2.term
            CROSS JOIN tot
            WHERE bg.c12 >= 5
            ORDER BY ln((bg.c12 / CAST(tot.t12 AS DOUBLE)) /
                        ((u1.c / CAST(tot.t1 AS DOUBLE)) *
                         (u2.c / CAST(tot.t1 AS DOUBLE)))) DESC,
                     bg.w1, bg.w2
            LIMIT 20
        """,
        "normalize_text": """
            SELECT doc_id,
                   trim(regexp_replace(regexp_replace(
                       nfc_normalize(text),
                       '[\\x00-\\x1f\\x7f]', ' ', 'g'),
                       '\\s+', ' ', 'g'), ' ') AS text_norm
            FROM documents
        """,
        "strip_boilerplate": strip_boilerplate_sql,
        "curation_v3": curation_v3_sql,
        "keyness_terms": """
            WITH corpus AS (
                SELECT source,
                       unnest(list_filter(str_split(lower(
                           coalesce(text, '')), ' '), x -> x <> ''))
                           AS t
                FROM documents),
            st AS (
                SELECT source, t, CAST(count(*) AS DOUBLE) AS a
                FROM corpus GROUP BY 1, 2),
            ks AS (SELECT source, sum(a) AS ns FROM st GROUP BY 1),
            tt AS (SELECT t, sum(a) AS ct FROM st GROUP BY 1),
            tot AS (SELECT sum(a) AS n FROM st)
            SELECT st.source, st.t AS term, CAST(st.a AS BIGINT) AS n,
                   round(2 * (st.a * ln(st.a / (ks.ns * tt.ct / tot.n))
                         + CASE WHEN tt.ct - st.a > 0
                                THEN (tt.ct - st.a)
                                     * ln((tt.ct - st.a)
                                          / ((tot.n - ks.ns) * tt.ct
                                             / tot.n))
                                ELSE 0 END), 6) AS g2
            FROM st JOIN ks USING (source) JOIN tt USING (t)
            CROSS JOIN tot
            WHERE st.a >= 5
        """,
        "daily_orders_ma7": """
            WITH daily AS (
                SELECT o_orderdate, CAST(count(*) AS BIGINT) AS n_orders
                FROM orders GROUP BY o_orderdate)
            SELECT o_orderdate, n_orders,
                   round(avg(n_orders) OVER (
                       ORDER BY o_orderdate
                       ROWS BETWEEN 6 PRECEDING AND CURRENT ROW),
                       6) AS ma7
            FROM daily
        """,
        "bigram_logprob": """
            WITH corpus AS (
                SELECT doc_id,
                       list_filter(str_split(lower(coalesce(text, '')),
                                             ' '), x -> x <> '') AS tk
                FROM documents),
            uni AS (
                SELECT CAST(count(DISTINCT t) AS DOUBLE) AS v
                FROM (SELECT unnest(tk) AS t FROM corpus)),
            docbg AS (
                SELECT doc_id, tk[s.i] AS w1, tk[s.i + 1] AS w2
                FROM corpus,
                     unnest(generate_series(1, len(tk) - 1)) AS s(i)),
            bgc AS (
                SELECT w1, w2, CAST(count(*) AS DOUBLE) AS c12
                FROM docbg GROUP BY 1, 2),
            pre AS (
                SELECT w1, sum(c12) AS c1 FROM bgc GROUP BY 1),
            scored AS (
                SELECT d.doc_id,
                       ln((bgc.c12 + 1.0) / (pre.c1 + uni.v)) AS lp
                FROM docbg d
                JOIN bgc USING (w1, w2) JOIN pre USING (w1)
                CROSS JOIN uni),
            agg AS (
                SELECT doc_id, CAST(count(*) AS BIGINT) AS n,
                       sum(lp) AS t
                FROM scored GROUP BY doc_id)
            SELECT c.doc_id,
                   coalesce(a.n, 0) AS n_bigrams,
                   coalesce(round(a.t / a.n, 6), 0.0) AS avg_logprob
            FROM corpus c LEFT JOIN agg a USING (doc_id)
        """,
        "token_dropout": """
            WITH t AS (
                SELECT doc_id, str_split(text, ' ') AS toks
                FROM documents),
            f AS (
                SELECT doc_id, toks,
                       list_filter(toks, (x, i) ->
                           ('0x' || substr(md5(CAST(doc_id AS VARCHAR)
                                               || ':'
                                               || CAST(i - 1 AS VARCHAR)),
                                           1, 8))::BIGINT % 100 >= 10)
                           AS kept
                FROM t)
            SELECT d.doc_id,
                   CASE WHEN d.text IS NULL THEN NULL
                        ELSE coalesce(array_to_string(f.kept, ' '), '')
                   END AS text_aug,
                   CASE WHEN d.text IS NULL THEN 0
                        ELSE len(f.toks) END AS n_tokens,
                   CASE WHEN d.text IS NULL THEN 0
                        ELSE len(f.toks) - len(f.kept) END AS n_dropped
            FROM documents d JOIN f USING (doc_id)
        """,
        "feature_hash": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(str_split(lower(text), ' ')) AS term
                FROM documents
            )
            SELECT doc_id,
                   CAST(('0x' || substr(md5(term), 1, 8)) AS BIGINT)
                       % 64 AS bucket,
                   CAST(count(*) AS BIGINT) AS count
            FROM toks WHERE term <> ''
            GROUP BY 1, 2
        """,
        "char_entropy": """
            WITH ch AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '[\\s\\S]')) AS c
                FROM documents
            ), cc AS (
                SELECT doc_id, c, count(*) AS n FROM ch GROUP BY doc_id, c
            ), tot AS (
                SELECT doc_id, sum(n) AS t FROM cc GROUP BY doc_id
            )
            SELECT cc.doc_id,
                   CAST(tot.t AS BIGINT) AS n_chars_text,
                   round(log2(tot.t)
                         - sum(cc.n * log2(cc.n)) / tot.t, 4) AS entropy
            FROM cc JOIN tot USING (doc_id)
            GROUP BY cc.doc_id, tot.t
        """,
        "chunk_documents": """
            SELECT d.doc_id,
                   CAST(s.i AS BIGINT) AS chunk_id,
                   CAST(s.i * 150 AS BIGINT) AS start,
                   CAST(least(length(d.text) - s.i * 150, 200)
                        AS BIGINT) AS chunk_len,
                   substr(d.text, s.i * 150 + 1, 200) AS chunk_text
            FROM documents d,
                 unnest(generate_series(
                     0, CAST(ceil(length(d.text) / 150.0)
                             AS BIGINT) - 1)) AS s(i)
            WHERE length(d.text) > 0
        """,
        "pack_sequences": """
            WITH t AS (
                SELECT doc_id,
                       ('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                       1, 8))::BIGINT % 8 AS shard,
                       CAST(len(str_split(text, ' ')) AS BIGINT) AS n_tokens
                FROM documents
            ), c AS (
                SELECT *,
                       CAST(COALESCE(sum(n_tokens) OVER (
                           PARTITION BY shard ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS BIGINT)
                           AS start_tok
                FROM t
            )
            SELECT shard, doc_id, n_tokens, start_tok,
                   start_tok // 128 AS chunk_first,
                   greatest(start_tok, start_tok + n_tokens - 1) // 128
                       AS chunk_last
            FROM c
        """,
        "quantile_filter": """
            WITH dist AS (
                SELECT n_chars AS v, count(*) AS c FROM documents
                WHERE n_chars IS NOT NULL GROUP BY 1
            ), tot AS (SELECT sum(c) AS n FROM dist),
            thr AS (
                SELECT min(v) AS t FROM (
                    SELECT v, sum(c) OVER (ORDER BY v) AS cum FROM dist
                ), tot
                WHERE cum >= (n * 2500 + 9999) // 10000
            )
            SELECT doc_id, n_chars FROM documents, thr WHERE n_chars >= t
        """,
        "rebalance_mixture": """
            WITH tgt(source, bp) AS (
                VALUES ('src0', 5000), ('src1', 3000), ('src2', 2000)
            ), counts AS (
                SELECT source, count(*) AS c FROM documents
                GROUP BY source
            ), t AS (
                SELECT min(c * 10000 // bp) AS total
                FROM counts JOIN tgt USING (source)
            ), rates AS (
                SELECT source, bp * total // c AS rate_bp
                FROM counts JOIN tgt USING (source), t
            )
            SELECT d.doc_id, d.source
            FROM documents d JOIN rates r ON d.source = r.source
            WHERE ('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)),
                                  1, 8))::BIGINT % 10000 < r.rate_bp
        """,
        "funnel": """
            WITH s1 AS (
                SELECT user_id, min(ts) AS t FROM events
                WHERE event_type = 'view' AND user_id IS NOT NULL
                GROUP BY user_id
            ), s2 AS (
                SELECT e.user_id, min(e.ts) AS t FROM events e
                JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t
                WHERE e.event_type = 'click' GROUP BY e.user_id
            ), s3 AS (
                SELECT e.user_id, min(e.ts) AS t FROM events e
                JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t
                WHERE e.event_type = 'purchase' GROUP BY e.user_id
            )
            SELECT CAST(1 AS BIGINT) AS step, 'view' AS step_name,
                   CAST((SELECT count(*) FROM s1) AS BIGINT) AS n_users
            UNION ALL
            SELECT CAST(2 AS BIGINT), 'click',
                   CAST((SELECT count(*) FROM s2) AS BIGINT)
            UNION ALL
            SELECT CAST(3 AS BIGINT), 'purchase',
                   CAST((SELECT count(*) FROM s3) AS BIGINT)
        """,
        "window_distinct": """
            SELECT event_type,
                   date_trunc('hour', ts) AS window_start,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events WHERE user_id IS NOT NULL
            GROUP BY event_type, date_trunc('hour', ts)
        """,
        "percentile_rank": """
            SELECT doc_id, lang, n_chars,
                   round(percent_rank() OVER (
                       PARTITION BY lang ORDER BY n_chars), 6) AS pct_rank
            FROM documents WHERE n_chars IS NOT NULL
        """,
        "ohlc_hourly": """
            WITH w AS (
                SELECT user_id,
                       date_trunc('hour', ts) AS window_start, value,
                       first_value(value) OVER (
                           PARTITION BY user_id, date_trunc('hour', ts)
                           ORDER BY ts, event_id) AS o,
                       last_value(value) OVER (
                           PARTITION BY user_id, date_trunc('hour', ts)
                           ORDER BY ts, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND UNBOUNDED FOLLOWING) AS c
                FROM events)
            SELECT user_id, window_start,
                   min(o) AS open, min(c) AS close,
                   min(value) AS lo, max(value) AS hi,
                   CAST(count(*) AS BIGINT) AS n
            FROM w GROUP BY user_id, window_start
        """,
        "late_events": """
            WITH e AS (
                SELECT event_id, user_id, ts,
                       md5(CAST(event_id AS VARCHAR)) AS arrival
                FROM events),
            w AS (
                SELECT event_id, user_id, ts,
                       max(ts) OVER (
                           PARTITION BY user_id ORDER BY arrival
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS wm
                FROM e)
            SELECT event_id, user_id, ts,
                   round(greatest(coalesce(
                       (epoch_us(wm) - epoch_us(ts)) / 1000000.0, 0.0),
                       0.0), 6) AS lateness_sec,
                   coalesce((epoch_us(wm) - epoch_us(ts)) / 1000000.0
                            > 60.0, FALSE) AS is_late
            FROM w
        """,
        "throttle_events": """
            WITH e AS (
                SELECT event_id, user_id, event_type, ts FROM events
                WHERE user_id IS NOT NULL
            ), l AS (
                SELECT event_id, user_id, event_type, ts,
                       lag(ts) OVER (PARTITION BY user_id, event_type
                                     ORDER BY ts, event_id) AS prev
                FROM e
            )
            SELECT event_id, user_id, event_type, ts FROM l
            WHERE prev IS NULL OR ts - prev >= INTERVAL 300 SECOND
        """,
        "sessions": """
            WITH flagged AS (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL OR
                                 ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ), numbered AS (
                SELECT user_id, ts,
                       sum(new_s) OVER (PARTITION BY user_id ORDER BY ts)
                           AS sid
                FROM flagged
            )
            SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
                   count(*) AS n_events
            FROM numbered GROUP BY user_id, sid
        """,
        "json_project": """
            SELECT event_id,
                   CAST(json_extract_string(props, '$.k') AS BIGINT) AS k,
                   json_extract_string(props, '$.tag') AS tag
            FROM events
        """,
        "json_extract_sum": """
            SELECT event_type,
                   CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT))
                        AS BIGINT) AS sum_k,
                   count(*) AS n_events
            FROM events GROUP BY event_type
        """,
        "asof_next_click": """
            SELECT v.event_id, v.user_id, v.ts, c.ts AS click_ts
            FROM (SELECT event_id, user_id, ts FROM events
                  WHERE event_type = 'view') v
            ASOF LEFT JOIN
                 (SELECT user_id, ts FROM events
                  WHERE event_type = 'click') c
            ON v.user_id = c.user_id AND v.ts <= c.ts
        """,
        "embedding_dim_stats": """
            WITH flat AS (
                SELECT s.i - 1 AS dim,
                       CAST(embedding[s.i] AS DOUBLE) AS x
                FROM embeddings,
                     unnest(generate_series(1, len(embedding))) AS s(i))
            SELECT CAST(dim AS BIGINT) AS dim,
                   round(avg(x), 6) AS mean,
                   round(stddev_pop(x), 6) AS std
            FROM flat GROUP BY dim
        """,
        "dup_size_histogram": """
            SELECT CAST(cnt AS BIGINT) AS group_size,
                   CAST(count(*) AS BIGINT) AS n_groups
            FROM (SELECT count(*) AS cnt FROM documents
                  GROUP BY substr(text, 1, 100))
            GROUP BY cnt
        """,
        "lang_source_mi": """
            WITH c AS (
                SELECT source, lang, CAST(count(*) AS DOUBLE) AS n
                FROM documents GROUP BY 1, 2),
            tot AS (SELECT sum(n) AS t FROM c),
            s AS (SELECT source, sum(n) AS ns FROM c GROUP BY 1),
            l AS (SELECT lang, sum(n) AS nl FROM c GROUP BY 1)
            SELECT round(sum((c.n / tot.t)
                             * ln((c.n / tot.t)
                                  / ((s.ns / tot.t) * (l.nl / tot.t)))),
                         6) AS mi,
                   (SELECT round(-sum((ns / t) * ln(ns / t)), 6)
                    FROM s, tot) AS h_source,
                   (SELECT round(-sum((nl / t) * ln(nl / t)), 6)
                    FROM l, tot) AS h_lang
            FROM c JOIN s USING (source) JOIN l USING (lang)
            CROSS JOIN tot
        """,
        "knn_batch": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe
                FROM embeddings WHERE vec_id < 5),
            sims AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(e.embedding, q.qe) AS c
                FROM embeddings e CROSS JOIN q),
            ranked AS (
                SELECT query_id, vec_id,
                       round(CAST(c AS DOUBLE), 3) AS cosine,
                       row_number() OVER (
                           PARTITION BY query_id
                           ORDER BY c DESC, vec_id) AS rank
                FROM sims)
            SELECT query_id, vec_id, cosine, CAST(rank AS BIGINT) AS rank
            FROM ranked WHERE rank <= 5
        """,
        "mean_pool": """
            WITH flat AS (
                SELECT vec_id // 10 AS grp,
                       s.i - 1 AS dim,
                       embedding[s.i] AS x
                FROM embeddings,
                     unnest(generate_series(1, len(embedding))) AS s(i))
            SELECT grp, CAST(dim AS BIGINT) AS dim,
                   round(avg(CAST(x AS DOUBLE)), 6) AS avg
            FROM flat GROUP BY grp, dim
        """,
        "equidepth_buckets": """
            WITH ranked AS (
                SELECT n_chars AS c,
                       row_number() OVER (ORDER BY n_chars) AS rn,
                       count(*) OVER () AS n
                FROM documents WHERE n_chars IS NOT NULL),
            t1 AS (SELECT min(c) AS t FROM ranked
                   WHERE rn >= (n * 2500 + 9999) // 10000),
            t2 AS (SELECT min(c) AS t FROM ranked
                   WHERE rn >= (n * 5000 + 9999) // 10000),
            t3 AS (SELECT min(c) AS t FROM ranked
                   WHERE rn >= (n * 7500 + 9999) // 10000)
            SELECT d.doc_id, d.n_chars,
                   CASE WHEN d.n_chars <= t1.t THEN 0
                        WHEN d.n_chars <= t2.t THEN 1
                        WHEN d.n_chars <= t3.t THEN 2
                        ELSE 3 END AS bucket
            FROM documents d, t1, t2, t3
        """,
        "pagerank": """
            WITH edges AS (
                SELECT DISTINCT
                       CAST(l.l_suppkey * 2 AS BIGINT) AS src,
                       CAST(o.o_custkey * 2 + 1 AS BIGINT) AS dst
                FROM lineitem l JOIN orders o
                  ON l.l_orderkey = o.o_orderkey),
            deg AS (SELECT src, CAST(count(*) AS DOUBLE) AS d
                    FROM edges GROUP BY src),
            nodes AS (SELECT src AS node FROM edges
                      UNION SELECT dst FROM edges),
            nn AS (SELECT CAST(count(*) AS DOUBLE) AS cnt FROM nodes),
            p0 AS (SELECT node, 1.0 / cnt AS pr FROM nodes, nn),
            s1 AS (SELECT e.dst AS node, sum(p.pr / deg.d) AS m
                   FROM edges e JOIN p0 p ON p.node = e.src
                   JOIN deg ON deg.src = e.src GROUP BY e.dst),
            p1 AS (SELECT nd.node,
                          0.15 / nn.cnt + 0.85 * coalesce(s1.m, 0) AS pr
                   FROM nodes nd CROSS JOIN nn
                   LEFT JOIN s1 ON s1.node = nd.node),
            s2 AS (SELECT e.dst AS node, sum(p.pr / deg.d) AS m
                   FROM edges e JOIN p1 p ON p.node = e.src
                   JOIN deg ON deg.src = e.src GROUP BY e.dst),
            p2 AS (SELECT nd.node,
                          0.15 / nn.cnt + 0.85 * coalesce(s2.m, 0) AS pr
                   FROM nodes nd CROSS JOIN nn
                   LEFT JOIN s2 ON s2.node = nd.node),
            s3 AS (SELECT e.dst AS node, sum(p.pr / deg.d) AS m
                   FROM edges e JOIN p2 p ON p.node = e.src
                   JOIN deg ON deg.src = e.src GROUP BY e.dst),
            p3 AS (SELECT nd.node,
                          0.15 / nn.cnt + 0.85 * coalesce(s3.m, 0) AS pr
                   FROM nodes nd CROSS JOIN nn
                   LEFT JOIN s3 ON s3.node = nd.node)
            SELECT node, round(pr, 6) AS pr FROM p3
        """,
        "supplier_item_rollup": """
            WITH agg AS (
                SELECT l_suppkey AS s_suppkey,
                       CAST(count(*) AS BIGINT) AS n_items,
                       sum(CAST(round(l_quantity * 100) AS BIGINT))
                           AS qty_cents
                FROM lineitem WHERE l_orderkey % 499 = 0
                GROUP BY 1)
            SELECT s.s_suppkey,
                   CAST(a.n_items AS DOUBLE) AS n_items,
                   CAST(a.qty_cents AS DOUBLE) AS qty_cents
            FROM supplier s LEFT JOIN agg a USING (s_suppkey)
        """,
        "suppliers_no_lineitems": """
            SELECT s_suppkey, s_name FROM supplier
            WHERE s_suppkey NOT IN
                  (SELECT l_suppkey FROM lineitem
                   WHERE l_orderkey % 499 = 0)
        """,
        "reassemble_chunks": """
            SELECT doc_id, text FROM documents WHERE length(text) > 0
        """,
        "asof_purchase_signup": """
            SELECT p.event_id, p.user_id, p.ts, s.ts AS signup_ts
            FROM (SELECT event_id, user_id, ts FROM events
                  WHERE event_type = 'purchase') p
            ASOF LEFT JOIN
                 (SELECT user_id, ts FROM events
                  WHERE event_type = 'signup') s
            ON p.user_id = s.user_id AND p.ts >= s.ts
        """,
        # LanguageId heuristic transcribed to SQL: per-language stopword-hit
        # ratios over the same tokenization, argmax with the engine's
        # first-max-by-sorted-language tie-break
        "lang_id": _LANG_ID_SQL,
        # QualityScorer's signals transcribed to SQL (same RE2 classes,
        # same ratio and rounding structure; quality_score reuses the
        # factor product verified by the curation oracle)
        "quality_scores": f"""
            WITH scored AS ({_QUALITY_SQL})
            SELECT d.doc_id,
                   coalesce(length(d.text), 0) AS q_len,
                   CASE WHEN d.text IS NULL OR length(d.text) = 0 THEN NULL
                        ELSE round({_PUNCT_SQL.replace('text', 'd.text')} * 1.0
                                   / greatest(length(d.text), 1), 6)
                   END AS q_punct_ratio,
                   CASE WHEN d.text IS NULL OR length(d.text) = 0 THEN NULL
                        ELSE round(CASE WHEN {_NTOK_SQL.replace('text', 'd.text')} > 0
                             THEN len(list_filter({_TOKS_SQL.replace('text', 'd.text')},
                                      x -> x IN ({_STOP_SQL}))) * 1.0
                                  / greatest({_NTOK_SQL.replace('text', 'd.text')}, 1)
                             ELSE 0.0 END, 6)
                   END AS q_stopword_ratio,
                   s.quality_score
            FROM documents d JOIN scored s ON d.doc_id = s.doc_id
        """,
        "ttl_parity": _TTL_PARITY_SQL,
        "ttl_sparql_auto": _ttl_sparql_auto_sql(),
        "ttl_sparql_shark": _ttl_sparql_shark_sql(),
        "ttl_paths": _ttl_paths_sql(),
        "ttl_closed": _ttl_closed_sql(),
        "ttl_node_recursive": _ttl_node_recursive_sql(),
        "ttl_shacl_full": _ttl_shacl_full_sql(),
        # engine null policy mirrored: NULL facet values conform (value
        # constraints excuse nulls), NULL FKs are excused on the probe
        "node_conformance_scale": """
            SELECT l.l_orderkey, l.l_linenumber, l.l_partkey
            FROM lineitem l
            WHERE l.l_partkey IS NOT NULL
              AND l.l_partkey NOT IN (
                SELECT p_partkey FROM part
                WHERE p_partkey IS NOT NULL
                  AND (p_size <= 45 OR p_size IS NULL)
                  AND (p_type IN ('ECONOMY','SMALL','MEDIUM','LARGE',
                                  'STANDARD') OR p_type IS NULL))
        """,
        "epoch_shuffle": __import__(
            "xpshacl_ray.functions.sampling",
            fromlist=["epoch_shuffle_sql"]).epoch_shuffle_sql(
                seed=42, epoch=3, limit=1000),
        "sql_check": """
            SELECT doc_id,
                   'http://www.w3.org/ns/shacl#SPARQLConstraintComponent'
                       AS constraint_id,
                   'SQL constraint ''short_de_doc'' failed' AS message,
                   CAST(n_chars AS VARCHAR) AS value
            FROM documents WHERE lang = 'de' AND n_chars < 150
        """,
        # closed-form PSI: p/q are the global/source lang shares + the
        # engine's 1e-6 epsilon, summed over the union of categories
        "drift_lang_psi": """
            WITH total AS (SELECT count(*) AS n FROM documents
                           WHERE lang IS NOT NULL),
            langs AS (SELECT lang, count(*) AS cnt FROM documents
                      WHERE lang IS NOT NULL GROUP BY lang),
            srcs AS (SELECT source, count(*) AS n FROM documents
                     WHERE lang IS NOT NULL GROUP BY source),
            sl AS (SELECT source, lang, count(*) AS cnt FROM documents
                   WHERE lang IS NOT NULL GROUP BY source, lang),
            grid AS (
              SELECT s.source,
                     l.cnt * 1.0 / t.n + 1e-6 AS p,
                     coalesce(x.cnt, 0) * 1.0 / s.n + 1e-6 AS q
              FROM srcs s CROSS JOIN langs l CROSS JOIN total t
              LEFT JOIN sl x ON x.source = s.source AND x.lang = l.lang)
            SELECT source, round(sum((q - p) * ln(q / p)), 6) AS lang_psi
            FROM grid GROUP BY source
        """,
        # self-drift is exactly 0 (same sketch both sides); the verdict
        # reduces to the per-lang violation budget
        "partition_verdicts": """
            WITH v AS (
              SELECT lang FROM documents
              WHERE lang IS NOT NULL AND lang NOT IN ('de','en','fr')
              UNION ALL SELECT lang FROM documents WHERE length(text) < 100
              UNION ALL SELECT lang FROM documents WHERE length(text) > 400
              UNION ALL SELECT lang FROM documents
              WHERE n_chars IS NOT NULL AND NOT (n_chars >= 50)
            ), vc AS (SELECT lang, count(*) AS n FROM v
                      WHERE lang IS NOT NULL GROUP BY lang),
            langs AS (SELECT DISTINCT lang FROM documents
                      WHERE lang IS NOT NULL)
            SELECT l.lang, CAST(coalesce(vc.n, 0) AS BIGINT) AS n_violations,
                   0.0 AS n_chars_ks, 0.0 AS source_psi,
                   CASE WHEN coalesce(vc.n, 0) <= 0
                        THEN 'pass' ELSE 'fail' END AS verdict
            FROM langs l LEFT JOIN vc ON l.lang = vc.lang
        """,
        # full compositional oracle: quality formula → lang+quality filter
        # → keep min-doc_id per distinct text
        "curation_gates": """
            WITH ch AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '[\\s\\S]')) AS c
                FROM documents
            ), cc AS (
                SELECT doc_id, c, count(*) AS n FROM ch GROUP BY doc_id, c
            ), ctot AS (
                SELECT doc_id, sum(n) AS t FROM cc GROUP BY doc_id
            ), ent AS (
                SELECT cc.doc_id,
                       log2(ctot.t) - sum(cc.n * log2(cc.n)) / ctot.t AS e
                FROM cc JOIN ctot USING (doc_id)
                GROUP BY cc.doc_id, ctot.t
            ), toks AS (
                SELECT doc_id,
                       unnest(str_split(lower(text), ' ')) AS term
                FROM documents
            ), tf AS (
                SELECT doc_id, term, count(*) AS tf
                FROM toks WHERE term <> '' GROUP BY doc_id, term
            ), lm AS (
                SELECT term, count(*) AS n
                FROM toks WHERE term <> '' GROUP BY term
            ), ltot AS (SELECT sum(n) AS t FROM lm),
            lp AS (
                SELECT tf.doc_id,
                       sum(tf.tf * ln(lm.n / CAST(ltot.t AS DOUBLE)))
                       / sum(tf.tf) AS a
                FROM tf JOIN lm USING (term) CROSS JOIN ltot
                GROUP BY tf.doc_id
            ), gated AS (
                SELECT d.doc_id, d.lang, d.n_chars, d.text,
                       ent.e, lp.a
                FROM documents d
                JOIN ent ON ent.doc_id = d.doc_id
                JOIN lp ON lp.doc_id = d.doc_id
                WHERE ent.e >= 4.0 AND lp.a >= -3.41
            ), deduped AS (
                SELECT * FROM gated
                QUALIFY row_number() OVER (
                    PARTITION BY text ORDER BY doc_id) = 1
            )
            SELECT doc_id, lang, n_chars,
                   round(e, 4) AS entropy, round(a, 4) AS avg_logprob
            FROM deduped
            WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                       AS BIGINT) % 10000
                  < least(greatest(floor(
                        (n_chars / 400.0) * 10000 + 0.5), 0), 10000)
        """,
        "curation": f"""
            WITH scored AS ({_QUALITY_SQL}),
            kept AS (SELECT * FROM scored
                     WHERE quality_score >= 0.3
                       AND lang IN ('en','de','fr'))
            SELECT doc_id, lang, quality_score FROM kept
            QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1
        """,
    }
    # the bucketed-join LM scoring path is contract-identical to the
    # broadcast path — one oracle, two engine plans (VERDICT r4 item 6)
    out["bigram_logprob_bucketed"] = out["bigram_logprob"]
    out["cycle_members"] = _CYCLE_MEMBERS_SQL
    return out
