"""Round-5 fixes pinned by tests (ADVICE r4 items 1-5).

1. GroupPredicate agg='distinct' null semantics: SQL COUNT(DISTINCT) /
   SPARQL COUNT(DISTINCT ?x) ignore null — both the vectorized bucket
   sweep and its per-group fn twin must agree (the medium finding:
   they used to diverge on groups containing nulls).
2. A constraint with BOTH fn and predicate set is evaluated by its
   predicate ("fn is ignored when predicate is given").
   Both plan-level tests of 1 and 2 live in test_grouped.py.
3. hash_join bucket hashing is independent of a batch's null layout
   (nullable int keys used to widen to float64 and re-bucket).
4. exact_quantile_thresholds gates its count short-circuit on cheap
   metadata — lazy inputs pay ONE planning pass, not two.
5. bench.py stdout truncation emits an explicit queries_truncated
   marker.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data


# ---------------------------------------------------------------------------
# 1. GroupPredicate.fn null-distinct semantics
# ---------------------------------------------------------------------------


def test_group_predicate_fn_drops_nulls():
    from xpshacl_ray.spec import GroupPredicate

    pred = GroupPredicate(agg="distinct", agg_col="object", op=">=",
                          value=2)
    g = pa.table({"object": pa.array(["x", None], pa.string())})
    assert pred.fn(g) is False  # {x, null} → distinct 1, not 2
    g2 = pa.table({"object": pa.array(["x", "y", None], pa.string())})
    assert pred.fn(g2) is True


# ---------------------------------------------------------------------------
# 3. null-layout-independent key hashing
# ---------------------------------------------------------------------------


def test_key_hash64_independent_of_null_layout():
    from xpshacl_ray.functions.sketches import key_hash64

    clean = pa.array([5, 7], pa.int64())
    dirty = pa.array([5, None, 7], pa.int64())
    hc = key_hash64(clean)
    hd = key_hash64(dirty)
    assert hc[0] == hd[0] and hc[1] == hd[2]
    # chunked arrays and int32 widen consistently too
    chunked = pa.chunked_array([pa.array([5], pa.int32()),
                                pa.array([None, 7], pa.int32())])
    hk = key_hash64(chunked)
    assert hk[0] == hc[0] and hk[2] == hc[1]


def test_hash_join_nullable_int_keys_do_not_drop_matches():
    """A null in one batch must not re-bucket that batch's other keys
    away from their matches (ADVICE r4: float64 widening)."""
    from xpshacl_ray.functions.joins import hash_join

    # left: keys 0..199, one null per block (blocks of 50 → several
    # batches with different null layouts)
    left_rows = [{"k": i, "lv": i * 10} for i in range(200)]
    left_rows[25]["k"] = None
    left = ray.data.from_items(left_rows).repartition(4)
    right = ray.data.from_items(
        [{"k": i, "rv": i * 100} for i in range(200)])
    out = hash_join(left, right, "k", n_buckets=8).to_pandas()
    # every non-null left key has exactly one match
    assert len(out) == 199
    assert (out["rv"] == out["k"] * 100).all()
    assert (out["lv"] == out["k"] * 10).all()


# ---------------------------------------------------------------------------
# 4. exact-quantile planning: lazy inputs pay one pass
# ---------------------------------------------------------------------------


def test_exact_quantile_lazy_input_uses_hll_not_count(monkeypatch):
    """For a lazy mapped input (no metadata count), the planner must NOT
    call ds.count() (a full pipeline execution) before the HLL scan."""
    from xpshacl_ray.functions import sampling
    from xpshacl_ray.stages import grouped

    calls = {"hll": 0}
    real = grouped.estimate_group_count

    def counting(ds, keys):
        calls["hll"] += 1
        return real(ds, keys)

    monkeypatch.setattr(sampling, "estimate_group_count", counting,
                        raising=False)
    monkeypatch.setattr(grouped, "estimate_group_count", counting)

    base = ray.data.from_items([{"v": i % 7} for i in range(100)])
    lazy = base.map_batches(lambda b: b, batch_format="pyarrow")
    assert lazy._meta_count() is None  # genuinely lazy
    (thr,), n = sampling.exact_quantile_thresholds(lazy, "v", [5000])
    assert n == 100 and thr in range(7)
    assert calls["hll"] == 1  # exactly one planning scan, no count() pass


def test_exact_quantile_metadata_count_skips_hll(monkeypatch):
    from xpshacl_ray.functions import sampling
    from xpshacl_ray.stages import grouped

    def boom(*a, **k):
        raise AssertionError("HLL planning scan should be skipped")

    monkeypatch.setattr(grouped, "estimate_group_count", boom)
    ds = ray.data.from_items([{"v": i % 7} for i in range(100)])
    assert ds._meta_count() == 100  # metadata-cheap
    (thr,), n = sampling.exact_quantile_thresholds(ds, "v", [5000])
    assert n == 100 and thr in range(7)


# ---------------------------------------------------------------------------
# 5. bench stdout truncation marker
# ---------------------------------------------------------------------------


def test_bench_truncation_emits_marker():
    """Simulate the bench.py __main__ trimming loop on an oversized
    payload: the printed JSON must carry queries_truncated == number of
    dropped entries."""
    import json

    out = {"metric": "x" * 50, "value": 1.0, "unit": "sec",
           "queries": {f"quite_a_long_query_name_{i:03d}": 1.234567
                       for i in range(200)},
           "sf": 0.1, "num_cpus": 32}
    line = json.dumps(out, separators=(",", ":"))
    assert len(line) > 1900  # the scenario under test
    dropped = 0
    while len(line) > 1900 and out["queries"]:
        out["queries"].pop(next(reversed(out["queries"])))
        dropped += 1
        out["queries_truncated"] = dropped
        line = json.dumps(out, separators=(",", ":"))
    parsed = json.loads(line)
    assert parsed["queries_truncated"] == dropped > 0
    assert len(parsed["queries"]) + dropped == 200


def test_bench_main_source_has_truncation_marker():
    """The real bench.py __main__ block carries the marker logic."""
    src = open("/root/repo/bench.py").read()
    assert "queries_truncated" in src


# ---------------------------------------------------------------------------
# VERDICT r4 item 8: epoch_shuffle over the FULL int64 id domain
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

I64 = np.iinfo(np.int64)


@given(st.lists(st.integers(I64.min, I64.max), min_size=1, max_size=64),
       st.integers(0, 2**31), st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_epoch_shuffle_rank_full_int64_matches_sql(ids, seed, epoch):
    """numpy rank == DuckDB rank for ANY int64 id (the zigzag fold and
    the SQL CASE are the same function), and ranks stay in [0, 2^32)."""
    import duckdb

    from xpshacl_ray.functions.sampling import (epoch_shuffle_rank,
                                                epoch_shuffle_sql)

    arr = np.array(ids, dtype=np.int64)
    got = epoch_shuffle_rank(arr, seed, epoch)
    assert (got >= 0).all() and (got < 2**32).all()

    con = duckdb.connect()
    con.register("t", pd.DataFrame({"doc_id": arr}))
    sql = epoch_shuffle_sql("t", "doc_id", seed=seed, epoch=epoch)
    want = con.execute(sql).fetchdf()
    con.close()
    got_df = pd.DataFrame({"doc_id": arr, "shuffle_rank": got}) \
        .sort_values(["shuffle_rank", "doc_id"]).reset_index(drop=True)
    assert list(got_df["shuffle_rank"]) == list(want["shuffle_rank"])
    assert list(got_df["doc_id"]) == list(want["doc_id"])


def test_epoch_shuffle_zigzag_interleaves_small_ids():
    """zigzag keeps small positive and negative ids on DISTINCT residues
    (no trivial collisions around 0)."""
    from xpshacl_ray.functions.sampling import _zigzag_mod_p

    ids = np.arange(-1000, 1000, dtype=np.int64)
    z = _zigzag_mod_p(ids)
    assert len(np.unique(z)) == len(ids)


# ---------------------------------------------------------------------------
# VERDICT r4 items 1+7: ORACLE_SWEEP artifacts feed the rotation
# ---------------------------------------------------------------------------


def test_rotation_consumes_oracle_sweep_artifacts(tmp_path):
    """Green evidence from ORACLE_SWEEP_r*.json counts exactly like
    CORRECTNESS_r*.json: the full sweep re-verifies every query each
    round, so window slots point at genuinely stale entries (VERDICT
    r4 item 7)."""
    import json

    from __ray_entry__ import _rotate_never_green_first

    order = {k: (lambda sf, _k=k: _k) for k in "abcde"}
    # driver window r1 greens a,b; the r2 FULL sweep re-greens b,c,d;
    # driver window r3 re-greens a. e never green anywhere.
    (tmp_path / "CORRECTNESS_r01.json").write_text(
        json.dumps({k: {"hash_match": True} for k in ["a", "b"]}))
    (tmp_path / "ORACLE_SWEEP_r02.json").write_text(
        json.dumps({k: {"hash_match": True} for k in ["b", "c", "d"]}))
    (tmp_path / "CORRECTNESS_r03.json").write_text(
        json.dumps({"a": {"hash_match": True}}))
    out = list(_rotate_never_green_first(order, _here=str(tmp_path)))
    # never-DRIVER-green tier first: e (never anywhere) < c,d (sweep-
    # green only, r2) — the driver's independent gate still owes them a
    # slot; then driver-greens by last green round across BOTH
    # families: b (max(r1, sweep r2)=r2) < a (r3)
    assert out == ["e", "c", "d", "b", "a"]


def test_rotation_sweep_rows_only_entries_not_green(tmp_path):
    """Sweep entries for rows-only queries carry hash_match=None and
    must NOT count as hash-green."""
    import json

    from __ray_entry__ import _rotate_never_green_first

    order = {k: (lambda sf: None) for k in ["a", "b"]}
    (tmp_path / "ORACLE_SWEEP_r01.json").write_text(json.dumps({
        "a": {"hash_match": None, "rows_match": True},
        "b": {"hash_match": True, "rows_match": True}}))
    out = list(_rotate_never_green_first(order, _here=str(tmp_path)))
    assert out == ["a", "b"]


# ---------------------------------------------------------------------------
# VERDICT r4 item 4: dup_clusters round summary fused into one execution
# ---------------------------------------------------------------------------


def test_label_round_summary_fuses_sum_hll_and_vals():
    import pyarrow as pa

    from xpshacl_ray.functions.dedup import _label_round_summary
    from xpshacl_ray.functions.sketches import HyperLogLog

    b = pa.table({"node": pa.array([5, 6, 7, 8], pa.int64()),
                  "label": pa.array([5, 5, 7, 7], pa.int64())})
    s = _label_round_summary(b)
    assert s["partial_sum"][0].as_py() == 24
    assert not s["capped"][0].as_py()
    assert sorted(s["vals"][0].as_py()) == [5, 7]
    est = HyperLogLog.from_bytes(s["hll"][0].as_py()).estimate()
    assert 1 <= est <= 4


def test_label_round_summary_caps_diverse_batches(monkeypatch):
    import pyarrow as pa

    import xpshacl_ray.functions.dedup as dedup

    monkeypatch.setattr(dedup, "_SUMMARY_VALS_CAP", 3)
    b = pa.table({"node": pa.array(range(5), pa.int64()),
                  "label": pa.array(range(5), pa.int64())})
    s = dedup._label_round_summary(b)
    assert s["capped"][0].as_py()
    assert s["vals"][0].as_py() == []  # nothing shipped past the cap


@pytest.mark.slow
def test_shuffle_path_jump_engages_from_fused_vals(ray_session):
    """jump_broadcast_limit small-but-nonzero keeps the label table on
    the shuffle-propagate path while letting the pointer jump engage
    once the distinct-label HLL collapses under the limit — the jump's
    label values must come from the FUSED summary (no separate pass)."""
    import pandas as pd

    import ray
    from xpshacl_ray.functions.dedup import (
        cluster_labels,
        cluster_labels_distributed,
    )

    pairs = [(i, i + 1) for i in range(16)]  # 17-node chain
    want = cluster_labels(pairs)
    ds = ray.data.from_pandas(pd.DataFrame(pairs, columns=["id_a", "id_b"]))
    got = {r["node"]: r["label"]
           for r in cluster_labels_distributed(
               ds, n_buckets=4, max_rounds=16,
               jump_broadcast_limit=10).take_all()}
    assert got == want


# ---------------------------------------------------------------------------
# VERDICT r4 item 6: bucketed LM path at a REALISTIC vocabulary
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_bigram_bucketed_autoswitch_at_realistic_vocab(ray_session,
                                                       monkeypatch):
    """A corpus whose distinct-bigram count exceeds a small-but-NONZERO
    vocab_broadcast_limit must route through _bigram_logprob_join via
    the auto-switch (not the =0 forcing knob) and agree with the
    broadcast path bit-for-bit after the public rounding."""
    import numpy as np
    import ray.data

    from xpshacl_ray.functions import text as text_mod

    rng = np.random.default_rng(11)
    words = [f"w{i:03d}" for i in range(60)]
    rows = [{"doc_id": i,
             "text": " ".join(rng.choice(words, 12).tolist())}
            for i in range(80)]
    ds = ray.data.from_items(rows)

    took_join = {"n": 0}
    real = text_mod._bigram_logprob_join

    def spy(*a, **k):
        took_join["n"] += 1
        return real(*a, **k)

    monkeypatch.setattr(text_mod, "_bigram_logprob_join", spy)
    a = text_mod.bigram_logprob(ds).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert took_join["n"] == 0  # default limit: broadcast path
    b = text_mod.bigram_logprob(
        ds, vocab_broadcast_limit=50).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert took_join["n"] == 1  # vocabulary genuinely exceeded the limit
    assert list(a["doc_id"]) == list(b["doc_id"])
    assert list(a["n_bigrams"]) == list(b["n_bigrams"])
    np.testing.assert_allclose(a["avg_logprob"], b["avg_logprob"],
                               rtol=0, atol=1e-9)
