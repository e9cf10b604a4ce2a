"""Bloom filter: no false negatives, bounded false positives, merge law,
and the approximate referential-check path."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from xpshacl_ray import Referential, ValidationEngine, ValidationSpec
from xpshacl_ray.functions.sketches import BloomFilter
from xpshacl_ray.stages.referential import bloom_keys


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
    # restrict the allowed customer set; the bloom path must find all the
    # definite violations that the exact path finds (minus ≤fp misses)
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_acctbal"])
    good = cust.filter(expr="c_acctbal >= 0")
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_custkey"])
    spec = ValidationSpec(
        constraints=[Referential(column="o_custkey", ref_table="customer",
                                 ref_column="c_custkey")],
        id_columns=["o_orderkey"],
        focus_template="order:{o_orderkey}",
    )
    eng = ValidationEngine(spec)
    from xpshacl_ray.stages.referential import distinct_keys

    exact_keys = distinct_keys(good, "c_custkey")
    exact = eng.validate(orders, ref_keys={"o_custkey": exact_keys}).count()

    # bloom is built over stringified keys; probe side stringifies too
    bloom = bloom_keys(good, "c_custkey", expected_items=2000, fp_rate=0.01)
    approx = eng.validate(orders, ref_keys={"o_custkey": bloom}).count()
    assert approx <= exact          # false positives can only HIDE violations
    assert approx >= exact * 0.9    # and only ~fp_rate of them
