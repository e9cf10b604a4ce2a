"""Per-partition column statistics + distribution drift — the wide step.

North-star stage (SURVEY.md ST5): count / null-rate / distinct-HLL /
t-digest quantiles / categorical histograms computed in a SINGLE streaming
pass by a stateful actor pool, then merged through hash-routed exchanges
keyed on the profile keys (e.g. ``(repo, lang)``), with optional
salted two-level merging to defuse mega-repo skew (sketches are mergeable,
so the two-level merge is exact-enough by design — SURVEY.md §4).

Dataflow::

    ds.map_batches(StatsActor(cfg), concurrency=N)     # partial sketch rows
      [_exchange on (keys, salt) → merge runs]         # optional pre-merge
      _exchange on keys → merge runs                   # final sketch rows
      → finalize → stats rows (quantiles, estimates)   # tiny table
      → drift vs reference profile → verdicts

The shuffle moves one sketch row (KBs) per (group, input batch) — never the
data itself; the wide ``content`` column never enters the exchange.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.arrowutil import agg_select
from ..functions.sketches import (
    CategoricalHistogram,
    HyperLogLog,
    TDigest,
    ks_statistic,
    psi,
)
from .grouped import _exchange, _key_runs, _with_route_hash

QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.99)


@dataclass
class StatsConfig:
    group_keys: List[str] = field(default_factory=list)
    numeric_cols: List[str] = field(default_factory=list)
    categorical_cols: List[str] = field(default_factory=list)
    distinct_cols: List[str] = field(default_factory=list)
    hll_p: int = 12
    tdigest_delta: float = 200.0
    salt_buckets: int = 0  # >0 enables two-level salted merge

    def needed_columns(self) -> List[str]:
        seen, out = set(), []
        for c in (
            list(self.group_keys)
            + list(self.numeric_cols)
            + list(self.categorical_cols)
            + list(self.distinct_cols)
        ):
            if c not in seen:
                seen.add(c)
                out.append(c)
        return out


class StatsActor:
    """Actor-pool combiner: per-batch partial sketch rows per group.

    Stateful stage (reference analog ST2: state loaded once, reused across
    the run — here the compiled config and reusable numpy scratch live for
    the actor's lifetime; use via ``map_batches(StatsActor,
    fn_constructor_kwargs=dict(cfg=cfg), concurrency=N)``).
    """

    def __init__(self, cfg: StatsConfig):
        self.cfg = cfg

    @staticmethod
    def _as_float64(col: pa.ChunkedArray) -> np.ndarray:
        """Arrow column → float64 ndarray with nulls as NaN, no pandas
        DataFrame round-trip (zero-copy where the type allows)."""
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        try:
            return np.asarray(
                arr.cast(pa.float64()).to_numpy(zero_copy_only=False))
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            return pd.to_numeric(
                pd.Series(arr.to_pandas()), errors="coerce"
            ).to_numpy(dtype=np.float64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        rows: Dict[str, list] = {"n_rows": []}
        for c in cfg.numeric_cols:
            rows[f"{c}__nulls"] = []
            rows[f"{c}__tdigest"] = []
        for c in cfg.categorical_cols:
            rows[f"{c}__nulls"] = []
            rows[f"{c}__hist"] = []
        for c in cfg.distinct_cols:
            rows[f"{c}__hll"] = []
        # segment ONCE with an Arrow group_by on the key columns: keys keep
        # their type (an int64 key is not widened to float64) and a null
        # key is a group of its own, as under SQL GROUP BY
        keys = list(cfg.group_keys)
        rowid = pa.array(np.arange(len(batch), dtype=np.int64))
        if keys:
            seg = (batch.select(keys).append_column("__row__", rowid)
                   .group_by(keys, use_threads=False)
                   .aggregate([("__row__", "list")]))
            lists = seg["__row___list"].combine_chunks()
            flat = lists.values.to_numpy()
            offs = lists.offsets.to_numpy()
            groups = [flat[a:b] for a, b in zip(offs[:-1], offs[1:])]
        else:
            seg, groups = pa.table({}), [rowid.to_numpy()]

        def _obj(col):
            arr = (col.combine_chunks()
                   if isinstance(col, pa.ChunkedArray) else col)
            return np.asarray(arr.to_numpy(zero_copy_only=False))

        num_np = {c: self._as_float64(batch[c]) for c in cfg.numeric_cols}
        cat_np = {c: _obj(batch[c]) for c in cfg.categorical_cols}
        cat_null = {
            c: np.asarray(
                pc.is_null(batch[c], nan_is_null=True).combine_chunks()
                if isinstance(batch[c], pa.ChunkedArray)
                else pc.is_null(batch[c], nan_is_null=True))
            for c in cfg.categorical_cols
        }
        dist_np = {c: _obj(batch[c]) for c in cfg.distinct_cols}
        dist_null = {
            c: np.asarray(
                pc.is_null(batch[c], nan_is_null=True).combine_chunks()
                if isinstance(batch[c], pa.ChunkedArray)
                else pc.is_null(batch[c], nan_is_null=True))
            for c in cfg.distinct_cols
        }
        for idx in groups:
            rows["n_rows"].append(len(idx))
            for c in cfg.numeric_cols:
                v = num_np[c][idx]
                rows[f"{c}__nulls"].append(int(np.isnan(v).sum()))
                td = TDigest(delta=cfg.tdigest_delta).add(v)
                rows[f"{c}__tdigest"].append(td.to_bytes())
            for c in cfg.categorical_cols:
                nulls = cat_null[c][idx]
                rows[f"{c}__nulls"].append(int(nulls.sum()))
                hist = CategoricalHistogram().add(cat_np[c][idx][~nulls])
                rows[f"{c}__hist"].append(hist.to_bytes())
            for c in cfg.distinct_cols:
                hll = HyperLogLog(p=cfg.hll_p)
                hll.add(dist_np[c][idx][~dist_null[c][idx]])
                rows[f"{c}__hll"].append(hll.to_bytes())
        return pa.table(
            {
                **{k: seg[k] for k in keys},
                **{k: pa.array(v, type=pa.binary())
                   if k.endswith(("__tdigest", "__hist", "__hll"))
                   else pa.array(v)
                   for k, v in rows.items()},
            }
        )


def _merge_sketch_runs(block: pa.Table, cfg: StatsConfig,
                       run_keys: List[str]) -> pa.Table:
    """One merged sketch row per run of equal ``run_keys`` in ``block``
    (sorted here, nulls last; a null key is a run of its own).  Key
    columns are taken from the block, so they keep their Arrow type."""
    if run_keys:
        block = block.sort_by([(k, "ascending") for k in run_keys],
                              null_placement="at_end")
    starts = _key_runs(block, run_keys)
    ends = np.append(starts[1:], block.num_rows)
    idx = pa.array(starts, pa.int64())
    out = {k: block[k].take(idx) for k in cfg.group_keys}
    for col in ["n_rows"] + [f"{c}__nulls" for c in
                             [*cfg.numeric_cols, *cfg.categorical_cols]]:
        out[col] = np.add.reduceat(block[col].to_numpy(), starts)
    sketches = ([(f"{c}__tdigest", TDigest) for c in cfg.numeric_cols]
                + [(f"{c}__hist", CategoricalHistogram)
                   for c in cfg.categorical_cols]
                + [(f"{c}__hll", HyperLogLog) for c in cfg.distinct_cols])
    for col, cls in sketches:
        blobs = block[col].to_pylist()
        out[col] = pa.array([cls.merge_many(blobs[a:b]).to_bytes()
                             for a, b in zip(starts, ends)], pa.binary())
    return pa.table(out).select(
        [n for n in block.column_names if n in out])


def sketch_rows(
    ds: "ray.data.Dataset",
    cfg: StatsConfig,
    concurrency: Optional[int] = None,
    batch_size: int = 8192,
) -> "ray.data.Dataset":
    """Partial sketches → (optionally salted) merged sketch row per group.

    The combiner runs as STATELESS tasks by default: ``StatsActor``'s
    state is only the compiled config (sub-ms to ship in the closure),
    so an actor pool adds nothing but its startup latency — measured 2×
    slower at bench scale.  Pass ``concurrency=(min, max)`` / an int to
    opt into a pool for a combiner subclass with genuinely heavy
    per-actor state.

    The partials merge through the grouped checks' hash-routed exchange
    (:func:`~xpshacl_ray.stages.grouped._exchange`), so a null key is a
    group of its own, as under SQL ``GROUP BY``."""
    from ..tuning import map_batches_maybe_pool

    partials = map_batches_maybe_pool(
        ds, StatsActor, dict(cfg=cfg), concurrency,
        batch_format="pyarrow", batch_size=batch_size,
    )
    keys = list(cfg.group_keys)

    def merged(parts: "ray.data.Dataset",
               run_keys: List[str]) -> "ray.data.Dataset":
        routed = parts.map_batches(_with_route_hash, batch_format="pyarrow",
                                   fn_kwargs=dict(keys=run_keys))
        return _exchange(routed,
                         lambda b: _merge_sketch_runs(b, cfg, run_keys))

    if cfg.salt_buckets > 0:
        # level 1: spread each hot group over salt buckets — by row
        # position in the partial batch, so the layout is deterministic
        # (a key-hash salt would send a hot group to ONE bucket)
        def add_salt(b: pa.Table) -> pa.Table:
            salt = np.arange(len(b), dtype=np.int32) % cfg.salt_buckets
            return b.append_column("__salt__", pa.array(salt, pa.int32()))

        partials = merged(partials.map_batches(add_salt,
                                               batch_format="pyarrow"),
                          keys + ["__salt__"])
    return merged(partials, keys)


def finalize_stats(sketches: pd.DataFrame, cfg: StatsConfig) -> pd.DataFrame:
    """Decode sketch rows into the human/stats table (tiny)."""
    recs = []
    for _, r in sketches.iterrows():
        rec: Dict[str, object] = {k: r[k] for k in cfg.group_keys}
        n = int(r["n_rows"])
        rec["n_rows"] = n
        for c in cfg.numeric_cols:
            nulls = int(r[f"{c}__nulls"])
            td = TDigest.from_bytes(r[f"{c}__tdigest"])
            qs = td.quantile(list(QUANTILES))
            rec[f"{c}_nulls"] = nulls
            rec[f"{c}_null_rate"] = nulls / max(n, 1)
            rec[f"{c}_min"] = td._min if td.count else None
            rec[f"{c}_max"] = td._max if td.count else None
            for q, v in zip(QUANTILES, qs):
                rec[f"{c}_p{int(q * 100)}"] = float(v)
        for c in cfg.categorical_cols:
            hist = CategoricalHistogram.from_bytes(r[f"{c}__hist"])
            rec[f"{c}_nulls"] = int(r[f"{c}__nulls"])
            rec[f"{c}_histogram"] = json.dumps(hist.counts, sort_keys=True)
        for c in cfg.distinct_cols:
            hll = HyperLogLog.from_bytes(r[f"{c}__hll"])
            rec[f"{c}_distinct_est"] = float(hll.estimate())
        recs.append(rec)
    return pd.DataFrame(recs)


def profile(
    ds: "ray.data.Dataset",
    cfg: StatsConfig,
    concurrency: Optional[int] = None,
    batch_size: int = 8192,
) -> pd.DataFrame:
    """One-pass profile of a Dataset → small stats DataFrame per group."""
    sk = sketch_rows(ds, cfg, concurrency=concurrency, batch_size=batch_size)
    return finalize_stats(sk.to_pandas(), cfg)


def merge_sketch_tables(frames: List[pd.DataFrame],
                        cfg: StatsConfig) -> pd.DataFrame:
    """Merge sketch-row tables from SEPARATE runs into one profile.

    Sketches are mergeable, so a reference profile can be maintained
    incrementally: profile yesterday's partitions, merge with the running
    reference, drift-check today against it — no re-scan of history.
    Driver-side, with the same run merge :func:`sketch_rows` uses: sketch
    tables are one small row per group."""
    frames = [f for f in frames if f is not None and len(f)]
    if not frames:
        raise ValueError("no sketch tables to merge")
    allrows = pa.Table.from_pandas(pd.concat(frames, ignore_index=True),
                                   preserve_index=False)
    return _merge_sketch_runs(allrows, cfg, list(cfg.group_keys)).to_pandas()


# ---------------------------------------------------------------------------
# Drift: compare a profile's sketches against a reference profile
# ---------------------------------------------------------------------------


@dataclass
class DriftThresholds:
    ks_max: float = 0.2
    psi_max: float = 0.25
    null_rate_delta_max: float = 0.05


def drift_report(
    current: pd.DataFrame,
    reference: pd.DataFrame,
    cfg: StatsConfig,
    thresholds: DriftThresholds = DriftThresholds(),
) -> pd.DataFrame:
    """KS (t-digest) + PSI (histogram) drift per group vs a reference.

    Inputs are *sketch* rows (from :func:`sketch_rows`), indexed by
    ``cfg.group_keys``.  Emits one row per group with per-column KS/PSI and
    an overall pass/fail verdict — the per-partition verdict the north star
    requires.
    """
    keys = list(cfg.group_keys)
    ref = reference.set_index(keys) if keys else reference
    recs = []
    for _, r in current.iterrows():
        key = tuple(r[k] for k in keys)
        rec: Dict[str, object] = {k: r[k] for k in keys}
        ok = True
        try:
            rr = ref.loc[key if len(key) > 1 else key[0]] if keys else ref.iloc[0]
            found = True
        except KeyError:
            rr, found = None, False
        rec["reference_found"] = found
        for c in cfg.numeric_cols:
            if not found:
                rec[f"{c}_ks"] = None
                rec[f"{c}_null_rate_delta"] = None
                continue
            ks = ks_statistic(
                TDigest.from_bytes(r[f"{c}__tdigest"]),
                TDigest.from_bytes(rr[f"{c}__tdigest"]),
            )
            rec[f"{c}_ks"] = ks
            ok &= ks <= thresholds.ks_max
            # null-rate drift: KS runs over NON-null values only, so a
            # partition whose values went 0% → 90% null would otherwise
            # pass — enforce the declared null_rate_delta_max
            cur_rate = (r[f"{c}__nulls"] / r["n_rows"]
                        if r["n_rows"] else 0.0)
            ref_rate = (rr[f"{c}__nulls"] / rr["n_rows"]
                        if rr["n_rows"] else 0.0)
            delta = abs(float(cur_rate) - float(ref_rate))
            rec[f"{c}_null_rate_delta"] = delta
            ok &= delta <= thresholds.null_rate_delta_max
        for c in cfg.categorical_cols:
            if not found:
                rec[f"{c}_psi"] = None
                continue
            p = psi(
                CategoricalHistogram.from_bytes(rr[f"{c}__hist"]),
                CategoricalHistogram.from_bytes(r[f"{c}__hist"]),
            )
            rec[f"{c}_psi"] = p
            ok &= p <= thresholds.psi_max
        rec["verdict"] = "pass" if (found and ok) else "fail"
        recs.append(rec)
    return pd.DataFrame(recs)


# ---------------------------------------------------------------------------
# per-group z-score outlier detection
# ---------------------------------------------------------------------------


def zscore_outliers(
    ds: "ray.data.Dataset",
    value_col: str,
    group_cols: List[str],
    z_threshold: float = 3.0,
    group_broadcast_limit: int = 2_000_000,
) -> "ray.data.Dataset":
    """Rows whose ``value_col`` deviates ≥ ``z_threshold`` POPULATION
    standard deviations from their group mean — the classic per-domain
    numeric-anomaly gate of a curation pipeline.

    Two passes, no row shuffle:

    1. per-batch moment combiner (count, Σx, Σx²) →
       ``groupby(group_cols).sum`` — the exchange carries one tiny
       moment row per group per batch;
    2. the finalized per-group (mean, stddev_pop) table — one row per
       group — is broadcast via ``ray.put`` and probed per batch with a
       vectorized merge (pandas index join), emitting only outlier rows.

    Population stddev (÷ n, not n−1) for SQL ``stddev_pop`` parity.
    Degenerate groups (stddev 0, e.g. a single row) emit nothing — a
    deviation needs spread to be measured against.  Null GROUP keys
    form their own group and CAN flag (pandas merge matches nulls);
    SQL's ``JOIN USING (key)`` drops them — pre-filter null keys when
    mirroring a SQL oracle.  The broadcast is
    bounded by the number of GROUPS (not rows); past
    ``group_broadcast_limit`` groups raise rather than silently ship an
    oversized table (at that cardinality use a bucketed join on the
    group key instead)."""
    import ray as _ray
    from ray.data.aggregate import Sum

    def moments(b: pa.Table) -> pa.Table:
        v = b[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        vf = pc.cast(v, pa.float64())
        cols = {c: b[c] for c in group_cols}
        cols["__n"] = pc.cast(pc.is_valid(vf), pa.int64())
        cols["__s1"] = pc.fill_null(vf, 0.0)
        cols["__s2"] = pc.fill_null(pc.multiply(vf, vf), 0.0)
        t = pa.table(cols)
        agg = t.group_by(group_cols).aggregate(
            [("__n", "sum"), ("__s1", "sum"), ("__s2", "sum")])
        return agg_select(agg, {**{c: c for c in group_cols},
                                "__n_sum": "n", "__s1_sum": "s1",
                                "__s2_sum": "s2"})

    stats = (
        ds.map_batches(moments, batch_format="pyarrow")
        .groupby(group_cols)
        .aggregate(Sum("n", alias_name="n"),
                   Sum("s1", alias_name="s1"),
                   Sum("s2", alias_name="s2"))
        .materialize()
    )
    n_groups = stats.count()
    if n_groups > group_broadcast_limit:
        raise ValueError(
            f"{n_groups} groups exceeds group_broadcast_limit="
            f"{group_broadcast_limit}; bucketed-join the stats table "
            "on the group key instead of broadcasting")
    sdf = stats.to_pandas()
    n = sdf["n"].to_numpy(dtype=np.float64)
    mean = np.divide(sdf["s1"].to_numpy(dtype=np.float64), n,
                     out=np.zeros_like(n), where=n > 0)
    var = np.maximum(
        np.divide(sdf["s2"].to_numpy(dtype=np.float64), n,
                  out=np.zeros_like(n), where=n > 0) - mean * mean, 0.0)
    sdf = pd.DataFrame({
        **{c: sdf[c] for c in group_cols},
        "__mean": mean, "__std": np.sqrt(var),
    })
    ref = _ray.put(sdf)
    thr = float(z_threshold)

    def flag(b: pa.Table) -> pa.Table:
        st = _ray.get(ref)
        m = b.to_pandas().merge(st, on=group_cols, how="left")
        std = m["__std"].to_numpy(dtype=np.float64)
        v = pd.to_numeric(m[value_col], errors="coerce").to_numpy(
            dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (v - m["__mean"].to_numpy(dtype=np.float64)) / std
        keep = np.isfinite(z) & (np.abs(z) >= thr) & (std > 0)
        kept = b.filter(pa.array(keep))
        return kept.append_column(
            "zscore", pa.array(z[keep], pa.float64()))

    return ds.map_batches(flag, batch_format="pyarrow")


def percentile_rank(
    ds: "ray.data.Dataset",
    value_col: str,
    group_cols: List[str],
    out_col: str = "pct_rank",
    hist_broadcast_limit: int = 5_000_000,
) -> "ray.data.Dataset":
    """SQL ``percent_rank() OVER (PARTITION BY group ORDER BY value)``
    as a two-pass distributed operator: ``(rank−1)/(n−1)`` where rank
    counts rows strictly below (ties share the min rank); single-row
    groups rank 0.  Null VALUES are dropped (order them explicitly if
    you need SQL NULLS LAST semantics); rows with a null GROUP key rank
    NaN (SQL's PARTITION BY groups nulls together — pre-filter or
    fill-null the keys if you need that).

    Pass 1 builds per-group VALUE HISTOGRAMS — a per-batch distinct
    (group, value, count) combiner then one ``groupby.sum`` — so the
    exchange is bounded by distinct (group, value) pairs, never rows.
    The histogram table (collected driver-side, broadcast via
    ``ray.put``; raises past ``hist_broadcast_limit`` distinct pairs —
    at that cardinality switch to the t-digest APPROXIMATE rank in
    ``StatsActor``) converts to per-group sorted value arrays +
    strictly-less cumulative counts; pass 2 is a row-local vectorized
    searchsorted per batch."""
    import ray as _ray
    from ray.data.aggregate import Sum

    def hist(b: pa.Table) -> pa.Table:
        t = b.select(group_cols + [value_col])
        t = t.filter(pc.is_valid(t[value_col]))
        agg = t.group_by(group_cols + [value_col]).aggregate(
            [([], "count_all")])
        return agg_select(agg, {**{c: c for c in group_cols},
                                value_col: value_col, "count_all": "n"})

    htbl = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby(group_cols + [value_col])
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )
    n_pairs = htbl.count()
    if n_pairs > hist_broadcast_limit:
        raise ValueError(
            f"{n_pairs} distinct (group, value) pairs exceeds "
            f"hist_broadcast_limit={hist_broadcast_limit}; use the "
            "t-digest approximate-rank path instead")
    hdf = htbl.to_pandas().sort_values(group_cols + [value_col])
    lut = {}
    for g, sub in hdf.groupby(group_cols, sort=False):
        vals = sub[value_col].to_numpy()
        cnts = sub["n"].to_numpy(dtype=np.int64)
        cum_less = np.concatenate([[0], np.cumsum(cnts)[:-1]])
        lut[g if isinstance(g, tuple) else (g,)] = (
            vals, cum_less, int(cnts.sum()))
    ref = _ray.put(lut)

    def rank_rows(b: pa.Table) -> pa.Table:
        table = _ray.get(ref)
        df = b.to_pandas()
        v = df[value_col].to_numpy()
        out = np.full(len(df), np.nan)
        for g, idx in df.groupby(group_cols, sort=False).indices.items():
            key = g if isinstance(g, tuple) else (g,)
            entry = table.get(key)
            if entry is None:
                continue
            vals, cum_less, n = entry
            pos = np.searchsorted(vals, v[idx])
            ok = ~pd.isna(v[idx])
            r = np.where(n > 1, cum_less[np.clip(pos, 0, len(vals) - 1)]
                         / max(n - 1, 1), 0.0)
            out[idx] = np.where(ok, r, np.nan)
        return b.append_column(out_col, pa.array(out, pa.float64()))

    return ds.map_batches(rank_rows, batch_format="pyarrow")


def _weighted_median(vals: np.ndarray, cnts: np.ndarray) -> float:
    """Interpolated median of a (value, count) distribution — SQL
    ``median()`` / ``percentile_cont(0.5)`` parity: for even n the mean
    of the two middle order statistics, else the middle one.  ``vals``
    must be sorted ascending."""
    n = int(cnts.sum())
    cum = np.cumsum(cnts)
    if n % 2:
        return float(vals[np.searchsorted(cum, (n + 1) // 2)])
    lo = float(vals[np.searchsorted(cum, n // 2)])
    hi = float(vals[np.searchsorted(cum, n // 2 + 1)])
    return (lo + hi) / 2.0


def mad_robust_z(
    ds: "ray.data.Dataset",
    value_col: str,
    group_cols: List[str],
    out_col: str = "robust_z",
    ndigits: int = 6,
    hist_broadcast_limit: int = 5_000_000,
) -> "ray.data.Dataset":
    """Median/MAD robust z-score per group:
    ``(x − median) / (1.4826 · MAD)`` with ``MAD = median(|x −
    median|)`` — the outlier gate that, unlike :func:`zscore_outliers`,
    is not itself dragged by the outliers it hunts (a handful of
    corrupt 10^9-char docs shifts a mean, not a median).

    Same scale shape as :func:`percentile_rank`: ONE value-distribution
    groupby (exchange = distinct (group, value) pairs, bounded by
    ``hist_broadcast_limit``), both medians computed per group on the
    driver from the weighted distribution (exact, interpolated — SQL
    ``median()`` parity), then a broadcast-LUT map pass.  Zero-MAD
    groups (over half the mass on one value) and null group keys yield
    NULL — mirror a SQL oracle with ``JOIN USING (key)`` semantics.
    """
    import ray as _ray
    from ray.data.aggregate import Sum

    def hist(b: pa.Table) -> pa.Table:
        t = pa.table({**{c: b[c] for c in group_cols},
                      value_col: b[value_col]})
        t = t.filter(pc.is_valid(t[value_col]))
        g = t.group_by(group_cols + [value_col]).aggregate(
            [([], "count_all")])
        return agg_select(g, {**{c: c for c in group_cols},
                              value_col: value_col, "count_all": "n"})

    htbl = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby(group_cols + [value_col])
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )
    n_pairs = htbl.count()
    if n_pairs > hist_broadcast_limit:
        raise ValueError(
            f"{n_pairs} distinct (group, value) pairs exceeds "
            f"hist_broadcast_limit={hist_broadcast_limit}; use the "
            "t-digest approximate path instead")
    hdf = htbl.to_pandas().sort_values(group_cols + [value_col])
    lut = {}
    for g, sub in hdf.groupby(group_cols, sort=False, dropna=True):
        vals = sub[value_col].to_numpy(dtype=np.float64)
        cnts = sub["n"].to_numpy(dtype=np.int64)
        med = _weighted_median(vals, cnts)
        d = np.abs(vals - med)
        order = np.argsort(d, kind="stable")
        mad = _weighted_median(d[order], cnts[order])
        lut[g if isinstance(g, tuple) else (g,)] = (med, mad)
    ref = _ray.put(lut)

    def score(b: pa.Table) -> pa.Table:
        table = _ray.get(ref)
        df = b.to_pandas()
        v = df[value_col].to_numpy(dtype=np.float64)
        out = np.full(len(df), np.nan)
        for g, idx in df.groupby(group_cols, sort=False).indices.items():
            key = g if isinstance(g, tuple) else (g,)
            entry = table.get(key)
            if entry is None:
                continue
            med, mad = entry
            if mad > 0:
                out[idx] = np.round((v[idx] - med) / (1.4826 * mad),
                                    ndigits)
        return b.append_column(out_col, pa.array(out, pa.float64()))

    return ds.map_batches(score, batch_format="pyarrow")


#: distinct-cardinality ceiling for the exact profile path: past this,
#: ``groupby(col).count().take_all()`` would materialize the full distinct
#: distribution on the driver (ID-like columns at scale => driver OOM), so
#: the profiler auto-falls back to the one-pass sketch path below
PROFILE_EXACT_DISTINCT_LIMIT = 1_000_000


def _estimate_distinct_all(sub: "ray.data.Dataset", columns: List[str],
                           hll_p: int = 14) -> Dict[str, float]:
    """Per-column distinct estimates from ONE no-shuffle pass: each batch
    emits one row holding an HLL blob per requested column; blobs merge
    per column on the driver (O(batches × columns) tiny rows)."""
    from ..functions.sketches import HyperLogLog
    from .grouped import _key_hashes

    def partial(b: pa.Table) -> pa.Table:
        row = {}
        for c in columns:
            col = b[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            vv = col.drop_null()
            h = HyperLogLog(p=hll_p)
            if len(vv):
                h.add_hashes(_key_hashes(pa.table({c: vv}), [c]))
            row[c] = pa.array([h.to_bytes()], pa.binary())
        return pa.table(row)

    parts = sub.map_batches(partial, batch_format="pyarrow").take_all()
    return {c: (HyperLogLog.merge_many([r[c] for r in parts]).estimate()
                if parts else 0.0)
            for c in columns}


def _profile_column_sketch(sub: "ray.data.Dataset", c: str, n: int,
                           hll_p: int = 14) -> dict:
    """Unbounded-cardinality fallback: ONE map-only pass emitting a tiny
    per-batch partial (HLL bytes + null count + native-typed min/max);
    partials merge on the driver — O(batches) rows, never O(distinct)."""
    from ..functions.sketches import HyperLogLog
    from .grouped import _key_hashes

    def partial(b: pa.Table) -> pa.Table:
        col = b[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vv = col.drop_null()
        h = HyperLogLog(p=hll_p)
        if len(vv):
            h.add_hashes(_key_hashes(pa.table({c: vv}), [c]))
            mm = pc.min_max(vv)
            lo, hi = mm["min"], mm["max"]
        else:
            lo = hi = pa.scalar(None, col.type)
        return pa.table({
            "hll": pa.array([h.to_bytes()], pa.binary()),
            "n_null": pa.array([len(b) - len(vv)], pa.int64()),
            "lo": pa.array([lo.as_py()], col.type),
            "hi": pa.array([hi.as_py()], col.type),
        })

    parts = sub.map_batches(partial, batch_format="pyarrow").take_all()
    n_null = sum(r["n_null"] for r in parts)
    los = [r["lo"] for r in parts if r["lo"] is not None]
    his = [r["hi"] for r in parts if r["hi"] is not None]
    merged = HyperLogLog.merge_many([r["hll"] for r in parts]) if parts else None
    n_distinct = int(round(merged.estimate())) if parts else 0
    return {"n": n, "n_null": n_null, "n_distinct": n_distinct,
            "min_str": str(min(los)) if los else None,
            "max_str": str(max(his)) if his else None}


def profile_columns(ds: "ray.data.Dataset", columns: List[str],
                    exact_distinct_limit: int = PROFILE_EXACT_DISTINCT_LIMIT,
                    ) -> pa.Table:
    """Generic per-column profile — the first thing a data engineer
    runs on an unknown table: ``(column, n, n_null, n_distinct,
    min_str, max_str)`` per requested column.

    Each column is profiled from its own value distribution
    (``groupby(col).count()`` — the exchange carries (value, count)
    pairs, bounded by the column's distinct cardinality like the
    exact-quantile family; min/max are taken on the NATIVE type from
    that distribution, then rendered as strings so heterogeneous
    columns share one output schema).  One column-pruned pass per
    column — at petabyte width, fold the per-column combiners into a
    single melt pass instead.

    The exact path is GUARDED: one no-shuffle HLL planning pass
    (:func:`_estimate_distinct_all`, all columns at once; skipped
    entirely when the row count already bounds distincts under the
    limit) plans each column, and any column whose distinct cardinality
    exceeds ``exact_distinct_limit`` routes to a one-pass sketch
    profile instead (exact n/n_null/min/max,
    HLL ±~1% ``n_distinct``) — an ID-like column at 100x scale must not
    ``take_all()`` its distinct distribution onto the driver.
    """
    # total row count once for the whole table (metadata-cheap on a
    # plain read; one pipeline execution otherwise) — per-column null
    # counts then fall out of each column's distribution for free
    n = ds.count()
    # plan ALL columns in one pass (or zero: row count bounds distinct
    # count, so a table under the limit needs no estimate at all) — a
    # per-column planning scan would double I/O for the common case
    if n <= exact_distinct_limit:
        ests = {c: 0.0 for c in columns}
    else:
        ests = _estimate_distinct_all(ds.select_columns(columns), columns)
    out = {"column": [], "n": [], "n_null": [], "n_distinct": [],
           "min_str": [], "max_str": []}
    for c in columns:
        sub = ds.select_columns([c])
        if ests[c] > exact_distinct_limit:
            prof = _profile_column_sketch(sub, c, n)
            out["column"].append(c)
            for k, v in prof.items():
                out[k].append(v)
            continue
        # nulls are filtered BEFORE the groupby (Ray's sort-based
        # shuffle cannot order null string keys) and recovered as
        # n - sum(non-null counts) — one scan per column, not two
        dist = (sub.map_batches(
            lambda b, c=c: b.filter(pc.is_valid(b[c])),
            batch_format="pyarrow")
            .groupby(c).count().take_all())
        n_null = n - sum(r["count()"] for r in dist)
        vals = [r[c] for r in dist if r[c] is not None]
        out["column"].append(c)
        out["n"].append(n)
        out["n_null"].append(n_null)
        out["n_distinct"].append(len(vals))
        out["min_str"].append(str(min(vals)) if vals else None)
        out["max_str"].append(str(max(vals)) if vals else None)
    return pa.table({
        "column": pa.array(out["column"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "n_null": pa.array(out["n_null"], pa.int64()),
        "n_distinct": pa.array(out["n_distinct"], pa.int64()),
        "min_str": pa.array(out["min_str"], pa.string()),
        "max_str": pa.array(out["max_str"], pa.string()),
    })
