"""Bloom filter: no false negatives, bounded false positives, merge law,
and ``bloom_keys`` over a referenced key set."""

import numpy as np
import ray.data

from xpshacl_ray.functions.sketches import BloomFilter
from xpshacl_ray.stages.referential import bloom_keys, distinct_keys


def test_no_false_negatives():
    keys = [f"k{i}" for i in range(10_000)]
    f = BloomFilter(n_items=10_000, fp_rate=0.01).add(keys)
    assert f.might_contain(keys).all()


def test_false_positive_rate_bounded():
    f = BloomFilter(n_items=10_000, fp_rate=0.01)
    f.add([f"k{i}" for i in range(10_000)])
    probes = [f"absent{i}" for i in range(20_000)]
    fp = f.might_contain(probes).mean()
    assert fp < 0.03  # ~2x headroom over the configured 1%


def test_merge_and_roundtrip():
    a = BloomFilter(n_items=1000).add([f"a{i}" for i in range(500)])
    b = BloomFilter(n_items=1000, m=a.m, k=a.k,
                    bits=np.zeros_like(a.bits)).add(
        [f"b{i}" for i in range(500)])
    merged = BloomFilter.from_bytes(a.to_bytes()).merge(b)
    assert merged.might_contain([f"a{i}" for i in range(500)]).all()
    assert merged.might_contain([f"b{i}" for i in range(500)]).all()


def test_bloom_referential_path(sf_dir):
    # the Bloom filter of a referenced key set, built in one streamed
    # pass, holds every exact key and admits ~fp_rate of absent ones
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_acctbal"])
    good = cust.filter(expr="c_acctbal >= 0")
    exact = distinct_keys(good, "c_custkey").to_pylist()
    assert exact
    bloom = bloom_keys(good, "c_custkey", expected_items=2000, fp_rate=0.01)
    # built over Arrow's string rendering of the keys; probe likewise
    assert bloom.might_contain([str(k) for k in exact]).all()
    absent = sorted(set(range(1, 40_001)) - set(exact))
    assert bloom.might_contain([str(k) for k in absent]).mean() < 0.03
