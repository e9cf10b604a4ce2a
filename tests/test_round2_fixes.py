"""Round-2 fixes: null-FK semantics, join miss-checks, LSH hardening
(validation, hot-bucket caps, digest exchange parity), SimHash full-64-bit
fingerprints + vectorized sweep, kNN empty-batch + distributed merge."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from xpshacl_ray import Referential, ValidationEngine, ValidationSpec
from xpshacl_ray.functions.dedup import (
    SimHasher,
    hamming64,
    minhash_lsh_candidates,
    popcount_u64,
    simhash_near_dups,
    verify_pairs_ngram,
)
from xpshacl_ray.functions.similarity import knn_cosine_bruteforce


# --- null FK semantics (ADVICE: referential.py) ----------------------------


def _ref_violations(null_is_violation):
    t = pa.table({"oid": [1, 2, 3, 4],
                  "fk": pa.array([10, 99, None, 10], pa.int64())})
    ds = ray.data.from_arrow(t)
    spec = ValidationSpec(
        constraints=[Referential(column="fk", ref_table="dim",
                                 ref_column="k",
                                 null_is_violation=null_is_violation)],
        id_columns=["oid"],
        focus_template="row:{oid}",
    )
    viol = ValidationEngine(spec).validate(
        ds, ref_keys={"fk": pa.array([10, 20])})
    return sorted(r["oid"] for r in viol.select_columns(["oid"]).take_all())


def test_null_fk_not_violating_by_default():
    # oid=2 dangles (99); oid=3 is NULL → excused (Required's job),
    # matching the SQL NOT-IN oracle semantics
    assert _ref_violations(False) == [2]


def test_null_fk_flagged_when_opted_in():
    assert _ref_violations(True) == [2, 3]


# --- revenue_by_segment orphan FK (ADVICE: __ray_entry__.py) ---------------


def test_revenue_by_segment_orphan_custkey(tmp_path):
    import __ray_entry__ as entrymod

    cust = pa.table({"c_custkey": [1, 2, 3],
                     "c_mktsegment": ["A", "B", "A"]})
    orders = pa.table(
        {"o_custkey": [1, 2, 3, 999, 0],  # 999 above max, 0 below min
         "o_totalprice": [10.0, 20.0, 30.0, 1000.0, 2000.0]})
    pq.write_table(cust, str(tmp_path / "customer.parquet"))
    pq.write_table(orders, str(tmp_path / "orders.parquet"))
    out = entrymod.q_revenue_by_segment(str(tmp_path))
    out = out.sort_values("c_mktsegment").reset_index(drop=True)
    # orphans neither crash (IndexError) nor mis-map into a segment
    assert out["c_mktsegment"].tolist() == ["A", "B"]
    assert out["revenue"].tolist() == [40.0, 20.0]
    assert out["n_orders"].tolist() == [2, 1]


# --- MinHash LSH hardening -------------------------------------------------


def test_minhash_rejects_indivisible_bands(sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    with pytest.raises(ValueError, match="divisible"):
        minhash_lsh_candidates(ds, num_perm=64, bands=7)


@pytest.fixture(scope="module")
def docs_with_dups(sf_dir):
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    rows = docs.take(5)
    near = [dict(r, doc_id=r["doc_id"] + 20_000) for r in rows]
    return docs.union(ray.data.from_items(near))


def test_quantized_and_full_width_sigs_agree(docs_with_dups):
    # 16-bit slot quantization (the 128 B-exchange default) finds the same
    # pair set as full 64-bit slots on this fixture
    def key(df):
        return sorted(zip(df.id_a, df.id_b))

    q16 = minhash_lsh_candidates(docs_with_dups, jaccard_threshold=0.9,
                                 sig_bits=16).to_pandas()
    q64 = minhash_lsh_candidates(docs_with_dups, jaccard_threshold=0.9,
                                 sig_bits=64).to_pandas()
    assert len(q16) >= 5
    assert key(q16) == key(q64)
    # exact copies estimate 1.0 under both widths
    assert (q16.sort_values(["id_a", "id_b"]).jaccard_est.iloc[0] == 1.0)
    with pytest.raises(ValueError, match="sig_bits"):
        minhash_lsh_candidates(docs_with_dups, sig_bits=32)


@pytest.mark.slow
def test_ngram_verify_join_path_matches_broadcast(docs_with_dups):
    cand = minhash_lsh_candidates(docs_with_dups, jaccard_threshold=0.9)
    bcast = verify_pairs_ngram(docs_with_dups, cand,
                               threshold=0.9).to_pandas()
    joined = verify_pairs_ngram(docs_with_dups, cand, threshold=0.9,
                                broadcast_limit=1).to_pandas()
    key = lambda df: sorted(zip(df.id_a, df.id_b, df.jaccard))  # noqa: E731
    assert len(bcast) >= 5
    assert key(bcast) == key(joined)


def test_hot_bucket_cap_degenerate_simhash_completes():
    # 10k empty docs all simhash to 0 → one degenerate bucket per band;
    # the capped vectorized sweep must complete (was O(n²) pure Python)
    n = 10_000
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": [""] * n})
    pairs = simhash_near_dups(ray.data.from_arrow(t), max_hamming=3,
                              hot_bucket_cap=256).to_pandas()
    # capped: exactly C(256, 2) pairs from the one hot bucket, all hamming 0
    assert len(pairs) == 256 * 255 // 2
    assert (pairs["hamming"] == 0).all()
    # deterministic cap: lowest ids kept
    assert pairs["id_a"].min() == 0 and pairs["id_b"].max() == 255


# --- SimHash full-64-bit fingerprints (ADVICE bit-63) ----------------------


def test_simhash_uses_full_64_bits():
    sh = SimHasher()
    # find any doc whose top bit is set — int64 view must go negative
    # (the old masked version could never produce a negative value)
    texts = [f"word{i} token{i * 7} thing{i * 13} stuff{i}" for i in range(200)]
    vals = [sh.simhash(t) for t in texts]
    assert any(v < 0 for v in vals), "bit 63 never set — still masked?"
    assert all(-(1 << 63) <= v < (1 << 63) for v in vals)


def test_popcount_and_hamming_agree():
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 1 << 63, size=100, dtype=np.uint64)
    ys = rng.integers(0, 1 << 63, size=100, dtype=np.uint64)
    got = popcount_u64(xs ^ ys)
    for x, y, g in zip(xs, ys, got):
        a = int(x) - (1 << 64) if int(x) >= (1 << 63) else int(x)
        b = int(y) - (1 << 64) if int(y) >= (1 << 63) else int(y)
        assert hamming64(a, b) == int(g)
    assert hamming64(-1, 0) == 64  # all 64 bits differ — bit 63 counted


# --- kNN empty batch + distributed merge -----------------------------------


def test_knn_handles_empty_blocks(sf_dir):
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    q = np.asarray(emb.take(1)[0]["embedding"], dtype=np.float64)
    # a filter that empties some blocks entirely
    few = emb.filter(expr="vec_id < 3")
    got = knn_cosine_bruteforce(few, q, k=10)
    assert set(got["vec_id"]) == {0, 1, 2}
    none = emb.filter(expr="vec_id < 0")
    got_empty = knn_cosine_bruteforce(none, q, k=10)
    assert len(got_empty) == 0
    assert list(got_empty.columns) == ["query_idx", "vec_id", "cosine", "rank"]


def test_choose_bands_s_curve(docs_with_dups):
    from xpshacl_ray.functions.dedup import choose_bands

    b_high = choose_bands(64, 0.9)
    b_mid = choose_bands(64, 0.8)
    b_low = choose_bands(64, 0.3)
    # lower thresholds need more bands (smaller rows per band)
    assert b_high <= b_mid <= b_low
    assert 64 % b_mid == 0
    with pytest.raises(ValueError):
        choose_bands(64, 1.5)
    # bands=None autotunes and still finds the injected dups
    pairs = minhash_lsh_candidates(docs_with_dups, bands=None,
                                   jaccard_threshold=0.9).to_pandas()
    assert len(pairs) >= 5


def test_embedding_near_dups_multi_table(sf_dir):
    from xpshacl_ray.functions.dedup import embedding_near_dups

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    rows = emb.take(3)
    dups = [dict(r, vec_id=r["vec_id"] + 60_000) for r in rows]
    ds = emb.union(ray.data.from_items(dups))
    one = embedding_near_dups(ds, threshold=0.9, num_tables=1).to_pandas()
    multi = embedding_near_dups(ds, threshold=0.9, num_tables=3).to_pandas()
    # no duplicate pair rows despite 3 tables (first-catching-table rule)
    assert not multi.duplicated(["id_a", "id_b"]).any()
    # multi-table recall dominates single-table
    k1 = set(zip(one.id_a, one.id_b))
    k3 = set(zip(multi.id_a, multi.id_b))
    assert k1 <= k3
    for r in rows:  # exact copies always caught
        assert (r["vec_id"], r["vec_id"] + 60_000) in k3


def test_hot_bucket_cap_degenerate_minhash_completes():
    # thousands of IDENTICAL texts collide in every band of minhash LSH;
    # the capped bucket sweep must complete and stay deterministic
    n = 4000
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": ["same exact document text here"] * n})
    pairs = minhash_lsh_candidates(ray.data.from_arrow(t),
                                   jaccard_threshold=0.9,
                                   hot_bucket_cap=128).to_pandas()
    # identical docs agree on band 0 first → one capped bucket emits
    assert len(pairs) == 128 * 127 // 2
    assert (pairs["jaccard_est"] == 1.0).all()
    assert pairs["id_a"].min() == 0 and pairs["id_b"].max() == 127


def test_apply_wide_content_context_sizing():
    from ray.data import DataContext

    from xpshacl_ray.tuning import apply_wide_content_context

    ctx = DataContext.get_current()
    orig = ctx.target_max_block_size
    try:
        # 400 KB rows: 64-row blocks = 25.6 MB target, batch == block rows
        bs = apply_wide_content_context(400 * 1024)
        assert ctx.target_max_block_size == 400 * 1024 * 64
        assert bs == 64
        # tiny rows: floor at 4 MiB, batch covers the whole block
        bs = apply_wide_content_context(100)
        assert ctx.target_max_block_size == 4 * 1024 * 1024
        assert bs == (4 * 1024 * 1024) // 100
        # giant rows: cap at 128 MiB, at least one row per batch
        bs = apply_wide_content_context(1 << 30)
        assert ctx.target_max_block_size == 128 * 1024 * 1024
        assert bs == 1  # floor: a batch is never zero rows
    finally:
        ctx.target_max_block_size = orig


def test_kmeans_small_input_raises_clear_error():
    import ray.data

    import pyarrow as pa
    import pytest

    from xpshacl_ray.functions.similarity import kmeans_fit

    t = pa.table({"vec_id": pa.array(range(3), pa.int64()),
                  "embedding": pa.array([[1.0, 0.0], [0.0, 1.0],
                                         [1.0, 1.0]],
                                        pa.list_(pa.float64()))})
    with pytest.raises(ValueError, match="at least k=8"):
        kmeans_fit(ray.data.from_arrow(t), k=8, iters=1)


def test_kmeans_assign_respects_id_col():
    import numpy as np
    import pyarrow as pa
    import ray.data

    from xpshacl_ray.functions.similarity import kmeans_assign

    t = pa.table({"doc_id": pa.array([7, 9], pa.int64()),
                  "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]],
                                        pa.list_(pa.float64()))})
    cents = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = kmeans_assign(ray.data.from_arrow(t), cents,
                        id_col="doc_id").to_pandas()
    assert list(out.columns) == ["doc_id", "cluster", "cosine"]
    assert sorted(out["doc_id"]) == [7, 9]


def test_sparql_sqlchecks_translates_every_block_on_a_holder():
    from xpshacl_ray.sources.ttl import parse_turtle, sparql_sqlchecks

    shapes = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://example.org/> .
    ex:S a sh:NodeShape ; sh:targetClass ex:T ;
      sh:PropertyConstraintComponent ex:H .
    ex:H sh:path ex:v ;
      sh:sparql ex:C1 ;
      sh:sparql ex:C2 ;
      sh:sparql ex:C3 .
    ex:C1 sh:select "SELECT $this WHERE { FILTER ( $this < 0 ) }" .
    ex:C2 sh:select "SELECT $this WHERE { FILTER ( ($this % 2) != 0 ) }" .
    ex:C3 sh:select "SELECT $this WHERE { ?x a ?y . FILTER ( ?x > 1 ) }" .
    """
    triples, _ = parse_turtle(shapes)
    checks, skipped = sparql_sqlchecks(triples)
    # C1+C2 translate, C3 (graph pattern) surfaces as skipped — nothing
    # silently dropped
    assert len(checks["http://example.org/T"]) == 2
    assert len(skipped) == 1
