"""Round-4 fixes pinned by unit tests (VERDICT r3 'Next round' items).

Item 3: queries() rotation must order never-green first, then
least-recently-green (ascending round of newest hash-green row), with
static-dict order breaking ties inside each tier.

Item 1: bench.py's final stdout line must stay under the driver's
~2,000-char capture window.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from __ray_entry__ import _rotate_never_green_first  # noqa: E402


def _fake_corr(tmp_path, rnd, greens):
    rows = {k: {"hash_match": True, "rows_match": True} for k in greens}
    (tmp_path / f"CORRECTNESS_r{rnd:02d}.json").write_text(json.dumps(rows))


def test_rotation_never_green_then_least_recently_green(tmp_path):
    order = {k: (lambda sf, _k=k: _k) for k in "abcdef"}
    # a,b green in r1; c green in r2; d re-verified in r3 (newest wins);
    # e,f never green.
    _fake_corr(tmp_path, 1, ["a", "b", "d"])
    _fake_corr(tmp_path, 2, ["c"])
    _fake_corr(tmp_path, 3, ["d"])
    out = list(_rotate_never_green_first(order, _here=str(tmp_path)))
    assert out == ["e", "f", "a", "b", "c", "d"]


def test_rotation_no_files_preserves_static_order(tmp_path):
    order = {k: (lambda sf: None) for k in ["z", "m", "a"]}
    out = list(_rotate_never_green_first(order, _here=str(tmp_path)))
    assert out == ["z", "m", "a"]


def test_rotation_non_green_rows_do_not_count(tmp_path):
    order = {k: (lambda sf: None) for k in ["a", "b"]}
    rows = {"a": {"hash_match": False}, "b": {"hash_match": True}}
    (tmp_path / "CORRECTNESS_r01.json").write_text(json.dumps(rows))
    out = list(_rotate_never_green_first(order, _here=str(tmp_path)))
    assert out == ["a", "b"]


def test_bench_final_line_fits_driver_capture():
    """The compact-line fallback in bench.py __main__ trims the queries
    map until the line fits ~1,900 chars; simulate an oversized summary
    through the same logic."""
    out = {
        "metric": "m" * 100,
        "value": 1.0,
        "unit": "sec",
        "sf": 0.1,
        "num_cpus": 32,
        "queries": {f"query_with_a_long_name_{i:03d}": 1.2345 for i in range(200)},
    }
    line = json.dumps(out, separators=(",", ":"))
    assert len(line) > 1900  # the simulated overflow
    while len(line) > 1900 and out["queries"]:
        out["queries"].pop(next(reversed(out["queries"])))
        line = json.dumps(out, separators=(",", ":"))
    assert len(line) <= 1900
    parsed = json.loads(line)
    assert parsed["queries"]  # still carries a per-query map


# ---------------------------------------------------------------------------
# VERDICT r3 item 4: LM-family bucketed-join fallback path parity.
# vocab_broadcast_limit=0 forces the hash_join path; results must match
# the broadcast-probe path (the jump_broadcast_limit=0 pattern).
# ---------------------------------------------------------------------------
import numpy as np  # noqa: E402
import pytest  # noqa: E402


def _lm_docs():
    import ray.data

    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
             "eta", "theta", "iota", "kappa"]
    rows = []
    for i in range(40):
        n = int(rng.integers(0, 12))
        rows.append({"doc_id": i,
                     "text": " ".join(rng.choice(words, n).tolist())})
    rows.append({"doc_id": 40, "text": ""})       # zero-token doc
    rows.append({"doc_id": 41, "text": "   "})    # whitespace-only doc
    return ray.data.from_items(rows)


def _sorted_pdf(ds, by):
    df = ds.to_pandas().sort_values(by).reset_index(drop=True)
    return df[sorted(df.columns)]


@pytest.mark.slow
def test_unigram_logprob_join_path_parity():
    from xpshacl_ray.functions.text import unigram_logprob

    ds = _lm_docs()
    a = _sorted_pdf(unigram_logprob(ds), "doc_id")
    b = _sorted_pdf(unigram_logprob(ds, vocab_broadcast_limit=0), "doc_id")
    assert list(a["doc_id"]) == list(b["doc_id"])
    assert list(a["n_tokens"]) == list(b["n_tokens"])
    np.testing.assert_allclose(a["avg_logprob"], b["avg_logprob"],
                               rtol=1e-12, atol=1e-12)
    # zero-token docs survive the join path
    assert set(b.loc[b["n_tokens"] == 0, "doc_id"]) >= {40, 41}


@pytest.mark.slow
def test_unigram_logprob_join_path_parity_append():
    from xpshacl_ray.functions.text import unigram_logprob

    ds = _lm_docs()
    a = _sorted_pdf(unigram_logprob(ds, append=True), "doc_id")
    b = _sorted_pdf(unigram_logprob(ds, append=True,
                                    vocab_broadcast_limit=0), "doc_id")
    assert sorted(a.columns) == sorted(b.columns)
    assert list(a["text"]) == list(b["text"])
    assert list(a["n_tokens"]) == list(b["n_tokens"])
    np.testing.assert_allclose(a["avg_logprob"], b["avg_logprob"],
                               rtol=1e-12, atol=1e-12)


@pytest.mark.slow
def test_bigram_logprob_join_path_parity():
    from xpshacl_ray.functions.text import bigram_logprob

    ds = _lm_docs()
    a = _sorted_pdf(bigram_logprob(ds), "doc_id")
    b = _sorted_pdf(bigram_logprob(ds, vocab_broadcast_limit=0), "doc_id")
    assert list(a["doc_id"]) == list(b["doc_id"])
    assert list(a["n_bigrams"]) == list(b["n_bigrams"])
    # per-bigram logp is bit-identical across paths; per-doc summation
    # order differs, absorbed by the public ndigits=6 rounding
    np.testing.assert_allclose(a["avg_logprob"], b["avg_logprob"],
                               rtol=0, atol=1e-9)
    assert set(b.loc[b["n_bigrams"] == 0, "doc_id"]) >= {40, 41}


@pytest.mark.slow
def test_bigram_pmi_join_path_parity():
    from xpshacl_ray.functions.text import bigram_pmi

    ds = _lm_docs()
    a = _sorted_pdf(bigram_pmi(ds, min_count=2, top_k=15), ["w1", "w2"])
    b = _sorted_pdf(bigram_pmi(ds, min_count=2, top_k=15,
                               vocab_broadcast_limit=0), ["w1", "w2"])
    assert list(a["w1"]) == list(b["w1"])
    assert list(a["w2"]) == list(b["w2"])
    assert list(a["c12"]) == list(b["c12"])
    # identical float64 expression on both paths: bit-for-bit
    assert list(a["pmi"]) == list(b["pmi"])


# ---------------------------------------------------------------------------
# ADVICE r3 low items
# ---------------------------------------------------------------------------


def test_tokenizer_re2_only_pattern_constructs_and_runs():
    """\\p{L} is RE2-only; eager Python-re compilation used to fail at
    __init__ even though the Arrow fast path would have handled it."""
    import pyarrow as pa
    from xpshacl_ray.functions.text import Tokenizer

    t = Tokenizer(pattern=r"\p{L}+", out_col="n")
    out = t(pa.table({"text": ["héllo wörld", None, ""]}))
    assert out["n"].to_pylist() == [2, None, 0]


def test_tokenizer_warns_on_ambiguous_shorthand():
    import warnings
    from xpshacl_ray.functions.text import Tokenizer

    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        Tokenizer(pattern=r"\w+")
    assert any("shorthand" in str(x.message) for x in w)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        Tokenizer()  # default pattern: no warning
    assert not w


def test_tokenizer_python_fallback_still_works():
    import pyarrow as pa
    from xpshacl_ray.functions.text import Tokenizer

    # lookahead: RE2 rejects, Python re handles (lazy compile path)
    t = Tokenizer(pattern=r"a(?=b)", out_col="n")
    out = t(pa.table({"text": ["ab ab a", None]}))
    assert out["n"].to_pylist() == [2, None]


def test_exact_quantile_skips_hll_scan_for_small_inputs(monkeypatch):
    """ds.count() <= distinct_limit short-circuits the HLL planning
    scan (the profile_columns pattern)."""
    import ray.data
    from xpshacl_ray.functions import sampling
    from xpshacl_ray.stages import grouped

    def boom(*a, **k):
        raise AssertionError("HLL planning scan should be skipped")

    monkeypatch.setattr(grouped, "estimate_group_count", boom)
    ds = ray.data.from_items([{"v": i % 7} for i in range(100)])
    (thr,), n = sampling.exact_quantile_thresholds(ds, "v", [5000])
    assert n == 100 and thr in range(7)


# ---------------------------------------------------------------------------
# VERDICT r3 item 5: declarative GroupedSparql → vectorized bucket sweep
# (the plan's parity tests live in test_grouped.py).
# ---------------------------------------------------------------------------


def test_group_predicate_validates_inputs():
    from xpshacl_ray.spec import GroupPredicate

    with pytest.raises(ValueError):
        GroupPredicate(agg="distinct")  # needs agg_col
    with pytest.raises(ValueError):
        GroupPredicate(op="~")
    with pytest.raises(ValueError):
        GroupPredicate(agg="median")


# ---------------------------------------------------------------------------
# Property tests: pure kernels of the round-4 additions.
# ---------------------------------------------------------------------------
from hypothesis import given, settings, strategies as st


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3)),
                min_size=0, max_size=40))
@settings(max_examples=200, deadline=None)
def test_monotone_violating_runs_matches_bruteforce(pairs):
    """_monotone_violating_runs == brute force 'runs whose min value is
    below the max over strictly-smaller-order rows'."""
    from xpshacl_ray.spec import _monotone_violating_runs

    pairs = sorted(pairs)
    o = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    got = _monotone_violating_runs(o, v)
    runs = sorted(set(o))
    exp = 0
    for r in runs:
        smaller = v[o < r]
        if len(smaller) and v[o == r].min() < smaller.max():
            exp += 1
    assert got == exp


@given(st.integers(0, 2**31), st.integers(0, 100), st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_epoch_shuffle_rank_bounds_and_determinism(seed, e1, e2):
    from xpshacl_ray.functions.sampling import _SHUFFLE_P, epoch_shuffle_rank

    ids = np.arange(0, 64, dtype=np.int64)
    r1 = epoch_shuffle_rank(ids, seed, e1)
    assert (r1 >= 0).all() and (r1 < 2**32).all()
    assert (r1 == epoch_shuffle_rank(ids, seed, e1)).all()  # deterministic
    if e1 != e2:
        # distinct epochs reorder (affine+xor mixes can't be identical
        # on 64 consecutive ids unless the parameters collide)
        assert (r1 != epoch_shuffle_rank(ids, seed, e2)).any()


def test_epoch_shuffle_dataset_resumable_and_epoch_distinct():
    import ray.data
    from xpshacl_ray.functions.sampling import epoch_shuffle

    ds = ray.data.from_items([{"doc_id": i} for i in range(300)])
    a = epoch_shuffle(ds, "doc_id", seed=1, epoch=0).to_pandas()
    b = epoch_shuffle(ds.repartition(7), "doc_id", seed=1,
                      epoch=0).to_pandas()
    # identical order regardless of block layout (the resumability claim)
    assert list(a["doc_id"]) == list(b["doc_id"])
    assert sorted(a["doc_id"]) == list(range(300))  # a permutation
    c = epoch_shuffle(ds, "doc_id", seed=1, epoch=1).to_pandas()
    assert list(a["doc_id"]) != list(c["doc_id"])


def test_unigram_logprob_join_append_with_renamed_id_col():
    """append=True join path with a non-default id column exercises the
    rename-before-join branch."""
    import ray.data
    from xpshacl_ray.functions.text import unigram_logprob

    rows = [{"my_id": i, "text": "alpha beta"} for i in range(20)]
    rows.append({"my_id": 20, "text": ""})
    ds = ray.data.from_items(rows)
    out = unigram_logprob(ds, doc_id_col="my_id", append=True,
                          vocab_broadcast_limit=0).to_pandas()
    out = out.sort_values("my_id").reset_index(drop=True)
    assert set(out.columns) == {"my_id", "text", "n_tokens", "avg_logprob"}
    assert list(out["my_id"]) == list(range(21))
    assert list(out["n_tokens"]) == [2] * 20 + [0]


def test_epoch_shuffle_accepts_negative_ids():
    """Round-5 supersedes the r4 rejection: negative / signed-hash ids
    fold through the residue-side zigzag instead of raising (VERDICT r4
    item 8).  Full-domain oracle parity lives in test_round5_fixes."""
    from xpshacl_ray.functions.sampling import _SHUFFLE_P, epoch_shuffle_rank

    r = epoch_shuffle_rank(
        np.array([-1, 2, np.iinfo(np.int64).min], dtype=np.int64), 0, 0)
    assert (r >= 0).all() and (r < 2**32).all()
