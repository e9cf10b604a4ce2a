"""Stats layer tests: one-pass profile, salted merge equivalence, drift."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from xpshacl_ray.stages.stats import (
    DriftThresholds,
    StatsConfig,
    drift_report,
    finalize_stats,
    profile,
    sketch_rows,
)


@pytest.fixture(scope="module")
def docs_ds():
    return ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")


CFG = StatsConfig(
    group_keys=["lang"],
    numeric_cols=["n_chars"],
    categorical_cols=["source"],
    distinct_cols=["doc_id"],
)


def test_profile_counts_match_exact(docs_ds):
    prof = profile(docs_ds, CFG).set_index("lang").sort_index()
    exact = (
        docs_ds.to_pandas()
        .groupby("lang")
        .agg(n=("doc_id", "size"), nulls=("n_chars", lambda s: s.isna().sum()),
             lo=("n_chars", "min"), hi=("n_chars", "max"),
             distinct=("doc_id", "nunique"))
        .sort_index()
    )
    assert (prof["n_rows"] == exact["n"]).all()
    assert (prof["n_chars_nulls"] == exact["nulls"]).all()
    assert (prof["n_chars_min"] == exact["lo"]).all()
    assert (prof["n_chars_max"] == exact["hi"]).all()
    # HLL within 5% (exact at this cardinality it's linear counting)
    rel = (prof["doc_id_distinct_est"] - exact["distinct"]).abs() / exact["distinct"]
    assert (rel < 0.05).all()


def test_profile_quantiles_close(docs_ds):
    prof = profile(docs_ds, CFG).set_index("lang")
    pdf = docs_ds.to_pandas()
    for lang, g in pdf.groupby("lang"):
        true_p50 = g["n_chars"].quantile(0.5)
        est = prof.loc[lang, "n_chars_p50"]
        assert abs(est - true_p50) / true_p50 < 0.1


def test_salted_merge_equals_unsalted(docs_ds):
    plain = sketch_rows(docs_ds, CFG).to_pandas()
    salted_cfg = StatsConfig(**{**CFG.__dict__, "salt_buckets": 4})
    salted = sketch_rows(docs_ds, salted_cfg).to_pandas()
    a = finalize_stats(plain, CFG).set_index("lang").sort_index()
    b = finalize_stats(salted, salted_cfg).set_index("lang").sort_index()
    # counts & null counts identical; sketches register-identical for HLL
    assert (a["n_rows"] == b["n_rows"]).all()
    assert (a["doc_id_distinct_est"] == b["doc_id_distinct_est"]).all()
    # t-digest quantiles within sketch tolerance
    assert np.allclose(a["n_chars_p50"], b["n_chars_p50"], rtol=0.05)


def test_salted_profile_is_deterministic():
    # enough rows per group that the t-digest compresses, so a different
    # salt layout shows up in the merged quantiles
    rng = np.random.default_rng(0)
    n = 60_000
    t = pa.table({"g": rng.choice(["a", "b"], n), "x": rng.lognormal(size=n),
                  "d": rng.integers(0, 5000, n)})
    ds = ray.data.from_arrow([t.slice(i, 5000) for i in range(0, n, 5000)])
    cfg = StatsConfig(group_keys=["g"], numeric_cols=["x"],
                      distinct_cols=["d"])
    salted_cfg = StatsConfig(**{**cfg.__dict__, "salt_buckets": 4})

    def run(c):
        rows = sketch_rows(ds, c, batch_size=1000).to_pandas()
        return finalize_stats(rows, c).set_index("g").sort_index()

    salted = run(salted_cfg)
    pd.testing.assert_frame_equal(salted, run(salted_cfg))
    plain = run(cfg)
    assert (salted["n_rows"] == plain["n_rows"]).all()
    assert (salted["d_distinct_est"] == plain["d_distinct_est"]).all()
    assert np.allclose(salted["x_p50"], plain["x_p50"], rtol=0.02)


@pytest.mark.parametrize("blocks", [1, 40])
@pytest.mark.parametrize("first_key_null", [True, False])
def test_profile_null_group_key_matches_duckdb(blocks, first_key_null):
    """A null string key is one group of its own, as under SQL GROUP BY,
    whether or not the first row's key is null and however the partial
    sketch rows are split into blocks."""
    import duckdb

    n, off = 400, 0 if first_key_null else 3
    rng = np.random.default_rng(2)
    x = rng.normal(size=n)
    t = pa.table({
        "g": pa.array([None if i % 7 == off else f"k{i % 5}"
                       for i in range(n)], pa.string()),
        "x": pa.array(x, mask=np.arange(n) % 11 == 0),
    })
    cfg = StatsConfig(group_keys=["g"], numeric_cols=["x"])
    step = n // blocks
    ds = ray.data.from_arrow([t.slice(i * step, step)
                              for i in range(blocks)])
    # one partial sketch row per (group, block), merged across blocks
    got = profile(ds, cfg, batch_size=step)
    want = duckdb.sql("SELECT g, count(*) AS n, count(*) - count(x) AS "
                      "nulls, min(x) AS lo, max(x) AS hi FROM t "
                      "GROUP BY g").arrow().to_pylist()
    assert len(got) == len(want) == 6
    have = {r["g"]: r for r in got.to_dict("records")}
    for w in want:
        r = have[w["g"]]
        assert (r["n_rows"], r["x_nulls"]) == (w["n"], w["nulls"])
        assert (r["x_min"], r["x_max"]) == pytest.approx((w["lo"], w["hi"]))


def test_drift_self_passes_shifted_fails(docs_ds):
    ref = sketch_rows(docs_ds, CFG).to_pandas()
    # self vs self → pass
    rep = drift_report(ref, ref, CFG)
    assert (rep["verdict"] == "pass").all()
    # shift n_chars +3x and skew source → fail
    shifted = docs_ds.map_batches(
        lambda df: df.assign(n_chars=df["n_chars"] * 3, source="srcX"),
        batch_format="pandas",
    )
    cur = sketch_rows(shifted, CFG).to_pandas()
    rep2 = drift_report(cur, ref, CFG)
    assert (rep2["verdict"] == "fail").all()
    assert (rep2["n_chars_ks"] > 0.5).all()
    assert (rep2["source_psi"] > 1.0).all()


def test_drift_missing_reference_group_fails(docs_ds):
    ref = sketch_rows(docs_ds, CFG).to_pandas()
    ref_no_en = ref[ref["lang"] != "en"]
    cur = ref[ref["lang"] == "en"]
    rep = drift_report(cur, ref_no_en, CFG)
    assert (rep["verdict"] == "fail").all()
    assert not rep["reference_found"].iloc[0]


def test_estimate_group_count_no_shuffle(docs_ds):
    from xpshacl_ray.stages.grouped import estimate_group_count

    est = estimate_group_count(docs_ds, ["lang"])
    assert abs(est - 5) < 1  # 5 langs, sparse-HLL exact at this cardinality
    est2 = estimate_group_count(docs_ds, ["source", "lang"])
    exact = docs_ds.to_pandas().groupby(["source", "lang"]).ngroups
    assert abs(est2 - exact) / exact < 0.05


def test_merge_sketch_tables_incremental_reference(sf_dir):
    """Profile(full) == merge(profile(half A), profile(half B)) — the
    incremental-reference-maintenance property: sketches merge across
    RUNS, not just within one."""
    import pandas as pd

    from xpshacl_ray.stages.stats import (
        StatsConfig,
        finalize_stats,
        merge_sketch_tables,
        sketch_rows,
    )

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    cfg = StatsConfig(group_keys=["lang"], numeric_cols=["n_chars"],
                      categorical_cols=["source"], distinct_cols=["doc_id"])
    full = sketch_rows(docs, cfg, concurrency=2).to_pandas()
    import pyarrow.compute as _pc

    def _half(rem):
        return docs.map_batches(
            lambda t, rem=rem: t.filter(
                _pc.equal(_pc.bit_wise_and(t["doc_id"], 1), rem)),
            batch_format="pyarrow")

    a = sketch_rows(_half(0), cfg, concurrency=2).to_pandas()
    b = sketch_rows(_half(1), cfg, concurrency=2).to_pandas()
    merged = merge_sketch_tables([a, b], cfg)

    f_full = finalize_stats(full, cfg).set_index("lang").sort_index()
    f_merged = finalize_stats(merged, cfg).set_index("lang").sort_index()
    assert f_full.index.equals(f_merged.index)
    for col in ["n_rows", "n_chars_nulls", "n_chars_min", "n_chars_max",
                "doc_id_distinct_est"]:
        assert (f_full[col] == f_merged[col]).all(), col
    # histogram merge is exact
    assert (f_full["source_histogram"] == f_merged["source_histogram"]).all()
    # t-digest quantiles agree within sketch tolerance
    import numpy as np

    assert np.allclose(f_full["n_chars_p50"], f_merged["n_chars_p50"],
                       rtol=0.05)


def test_null_rate_drift_fails_verdict(docs_ds):
    import pyarrow as pa
    import ray.data

    # reference: documents as-is; current: same values but n_chars 90% null
    ref = sketch_rows(docs_ds, CFG).to_pandas()

    def nullify(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        n = len(b)
        keep = np.arange(n) % 10 == 0  # keep 10%, null the rest
        vals = pc.if_else(pa.array(keep), b["n_chars"],
                          pa.scalar(None, b["n_chars"].type))
        return b.set_column(b.column_names.index("n_chars"), "n_chars",
                            vals)

    cur = sketch_rows(docs_ds.map_batches(nullify, batch_format="pyarrow"),
                      CFG).to_pandas()
    rep = drift_report(cur, ref, CFG)
    # the non-null value DISTRIBUTION barely moves, but the null rate
    # jumps ~0.9 — null_rate_delta_max must fail the verdict
    assert (rep["n_chars_null_rate_delta"] > 0.5).all()
    assert (rep["verdict"] == "fail").all()
