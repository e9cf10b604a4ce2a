"""Windowed aggregates over event-log tables (streaming-shaped workloads).

Ray Data is a batch engine with no event-time watermarks; tumbling/sliding
windows become: vectorized window-key derivation (``pc.floor_temporal``)
inside ``map_batches`` + per-batch partial aggregation (combiner) + one
small ``groupby(keys + window)`` over the partials.  Ordering assumption:
none — tumbling aggregation is order-insensitive; session windows would
need per-key sorted ``map_groups`` (see ``sessionize``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Sum

from ..functions.arrowutil import agg_select
from ..sources.ingest import cluster_cpus


def add_tumbling_window(
    batch: pa.Table,
    ts_col: str = "ts",
    unit: str = "hour",
    out_col: str = "window_start",
) -> pa.Table:
    """Vectorized tumbling window key: timestamp truncated to the unit."""
    w = pc.floor_temporal(batch[ts_col], unit=unit)
    return batch.append_column(out_col, w)


def tumbling_aggregate(
    ds: "ray.data.Dataset",
    key_cols: Sequence[str],
    value_col: str,
    ts_col: str = "ts",
    unit: str = "hour",
) -> "ray.data.Dataset":
    """count + sum(value) per (key, window) with per-batch pre-aggregation.

    The shuffle moves one partial row per (key, window, batch) — bounded by
    windows × keys, not events.
    """
    keys = list(key_cols) + ["window_start"]

    def partial(batch: pa.Table) -> pa.Table:
        b = add_tumbling_window(batch, ts_col, unit)
        agg = b.select(keys + [value_col]).group_by(keys).aggregate(
            [(value_col, "sum"), (value_col, "count")]
        )
        return agg_select(agg, {**{k: k for k in keys},
                                f"{value_col}_sum": "partial_sum",
                                f"{value_col}_count": "partial_n"})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(keys).aggregate(
        Sum("partial_n", alias_name="n_events"),
        Sum("partial_sum", alias_name="sum_value"),
    )


def rolling_window_aggregate(
    ds: "ray.data.Dataset",
    key_cols: Sequence[str],
    value_col: str,
    ts_col: str = "ts",
    bucket_minutes: int = 15,
    window_buckets: int = 2,
) -> "ray.data.Dataset":
    """Sliding-window aggregate as tumbling buckets + per-key rolling sum.

    The classic batch formulation of a sliding window: aggregate into
    ``bucket_minutes`` tumbling buckets (pre-aggregated shuffle, tiny),
    then a per-key ordered rolling sum over ``window_buckets`` buckets —
    the bucket table is buckets × keys rows, so the rolling pass is small
    regardless of input size.
    """
    import pyarrow.compute as pc

    keys = list(key_cols)

    def partial(batch: pa.Table) -> pa.Table:
        w = pc.floor_temporal(batch[ts_col], multiple=bucket_minutes,
                              unit="minute")
        b = batch.append_column("bucket_start", w)
        agg = b.select(keys + ["bucket_start", value_col]).group_by(
            keys + ["bucket_start"]
        ).aggregate([(value_col, "sum"), (value_col, "count")])
        return agg_select(agg, {**{k: k for k in keys},
                                "bucket_start": "bucket_start",
                                f"{value_col}_sum": "p_sum",
                                f"{value_col}_count": "p_n"})

    from ray.data.aggregate import Sum

    buckets = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys + ["bucket_start"])
        .aggregate(Sum("p_n", alias_name="n_events"),
                   Sum("p_sum", alias_name="bucket_sum"))
    )

    def rolling(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("bucket_start")
        g["rolling_sum"] = (
            g["bucket_sum"].rolling(window=window_buckets, min_periods=1).sum()
        )
        g["rolling_n"] = (
            g["n_events"].rolling(window=window_buckets, min_periods=1).sum()
        ).astype("int64")
        return g

    if len(keys) == 1:
        return buckets.groupby(keys[0]).map_groups(rolling,
                                                   batch_format="pandas")
    return buckets.groupby(keys).map_groups(rolling, batch_format="pandas")


def ewma_by_key(
    ds: "ray.data.Dataset",
    key_col: str,
    order_cols: Sequence[str],
    value_col: str,
    alpha: float = 0.3,
    window: int = 8,
    out_col: str = "ewma",
    ndigits: int = 6,
    num_partitions: int = 64,
) -> "ray.data.Dataset":
    """Per-key bounded-window EWMA over an ordered series.

    ``ewma[t] = Σ_{i<W} (1-α)^i · x[t-i]  /  Σ_{i<W} (1-α)^i`` over the
    rows of the same key at offsets ``i`` back from ``t`` (shorter
    normalization while the window fills — pandas ``ewm(adjust=True)``
    semantics, capped at ``window`` rows).

    The BOUNDED form is deliberate: it is exactly SQL-replayable (a
    self-join over ``rn BETWEEN rn-W+1 AND rn`` with ``pow(1-α, Δ)``
    weights stays in safe float range), whereas the closed-form oracle
    of the infinite recursive EWMA needs ``pow(1-α, -i)`` which
    overflows for long series — the reason this operator was previously
    oracle-blocked.

    Execution shape (same as :func:`sessionize`): ONE hash shuffle
    co-locates each key's rows, then each partition runs one vectorized
    sweep — the windowed dot products are an ``(n × W)`` strided-matrix
    product with a per-row validity mask that resets at key boundaries,
    no per-key Python call.  Partitioning assumption: a partition fits
    one task (W is small; the matrix is n×W floats).
    """
    import numpy as np

    from ..functions.sketches import hash64

    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    weights = (1.0 - alpha) ** np.arange(window)  # i = 0 (current) .. W-1

    def tag(b: pa.Table) -> pa.Table:
        part = (hash64(np.asarray(b[key_col])) % num_partitions
                ).astype(np.int32)
        return b.append_column("__part__", pa.array(part))

    def part_ewma(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_col] + list(order_cols),
                            kind="stable").reset_index(drop=True)
        n = len(df)
        x = df[value_col].to_numpy(dtype=np.float64)
        if np.isnan(x).any():
            # a NULL value inside the window would silently skew the
            # weighted mean (SQL SUM skips the product but not the
            # weight) — reject loudly; filter nulls upstream
            raise ValueError(
                f"ewma_by_key: value column {value_col!r} contains NULLs")
        key = df[key_col].to_numpy()
        # first row index of each key run — the window may not cross it
        run_start = np.zeros(n, dtype=np.int64)
        if n:
            new_run = np.r_[True, key[1:] != key[:-1]]
            run_start = np.maximum.accumulate(
                np.where(new_run, np.arange(n), 0))
        t = np.arange(n)
        # lagged matrix M[t, i] = x[t-i], masked where t-i precedes the
        # key run or the series start
        lag_idx = t[:, None] - np.arange(window)[None, :]
        valid = lag_idx >= run_start[:, None]
        m = x[np.clip(lag_idx, 0, max(n - 1, 0))]
        num = (np.where(valid, m, 0.0) * weights[None, :]).sum(axis=1)
        den = (valid * weights[None, :]).sum(axis=1)
        df[out_col] = np.round(num / den, ndigits)
        return df

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__part__")
        .map_groups(
            lambda g: part_ewma(g.drop(columns="__part__")),
            batch_format="pandas",
        )
    )


def sessionize(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str = "ts",
    gap_seconds: float = 1800.0,
) -> "ray.data.Dataset":
    """Session windows per key: hash-partition keys, then one vectorized
    sort + gap-split sweep per partition (no per-key Python call — a
    ``map_groups`` per user costs a Python roundtrip per key and dominates
    at millions of keys).

    Partitioning assumption: all events of one key land in one partition
    (hash co-location) and a partition fits one task — the same per-key
    bound any keyed-window system needs.
    """
    import numpy as np
    import pyarrow as pa

    from ..functions.sketches import hash64

    n_parts = 64

    def tag(b: pa.Table) -> pa.Table:
        part = (hash64(np.asarray(b[key_col])) % n_parts).astype(np.int32)
        return b.append_column("__part__", pa.array(part))

    def part_sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_col, ts_col])
        key = df[key_col]
        gap = df[ts_col].diff().dt.total_seconds()
        new_session = (key != key.shift()) | (gap > gap_seconds)
        sid = new_session.cumsum()
        out = (
            df.groupby(sid, sort=False)
            .agg(
                **{
                    key_col: (key_col, "first"),
                    "session_start": (ts_col, "min"),
                    "session_end": (ts_col, "max"),
                    "n_events": (ts_col, "size"),
                }
            )
            .reset_index(drop=True)
        )
        return out

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__part__")
        .map_groups(
            lambda g: part_sessions(g.drop(columns="__part__")),
            batch_format="pandas",
        )
    )


def funnel_counts(
    events: "ray.data.Dataset",
    steps: Sequence[str],
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    n_buckets: int = 0,
) -> pd.DataFrame:
    """Ordered-funnel conversion: for each prefix of ``steps``, how many
    users performed those event types in order (each step strictly after
    the previous step's FIRST qualifying occurrence — the standard
    first-touch funnel).  NULL users are excluded (mirror the oracle
    with ``WHERE user_id IS NOT NULL``).

    One hash shuffle on the user bucket co-locates each user's events;
    inside a bucket the whole multi-user frame evaluates vectorized
    (per-step: filter by type → per-user min-ts after the previous
    step's ts — pandas groupby-min, no per-user Python).  Per-bucket
    partial counts (``n_buckets × len(steps)`` rows, tiny) merge on the
    driver.  Returns (step, step_name, n_users).

    Partitioning bound: each bucket task holds events/n_buckets rows of
    the PRUNED (user, ts, type) projection as one pandas frame — size
    ``n_buckets`` so that fits a worker heap (the default 0 autosizes to
    4 × cluster CPUs; raise it explicitly for 10^9+-row event logs: the
    bucket count, not the cluster size, bounds both parallelism and
    per-task memory)."""
    import numpy as np

    from ..functions.sketches import hash64

    if n_buckets <= 0:
        n_buckets = 4 * cluster_cpus(default=8)

    cols = [user_col, ts_col, type_col]
    pruned = events.select_columns(cols)

    def add_bucket(b: pa.Table) -> pa.Table:
        col = b[user_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        b = b.filter(pa.compute.is_valid(col))  # NULL users excluded
        users = b[user_col]
        if isinstance(users, pa.ChunkedArray):
            users = users.combine_chunks()
        bk = (hash64(np.asarray(users)) % np.uint64(n_buckets)).astype(
            np.int32)
        return b.append_column("__bucket__", pa.array(bk))

    steps_l = list(steps)

    def bucket_funnel(g: pd.DataFrame) -> pd.DataFrame:
        prev = None  # Series: user -> ts of the previous step's first hit
        counts = []
        for i, s in enumerate(steps_l):
            sub = g[g[type_col] == s]
            if prev is not None:
                sub = sub[sub[user_col].isin(prev.index)]
                if len(sub):
                    sub = sub[sub[ts_col] > sub[user_col].map(prev)]
            prev = (sub.groupby(user_col)[ts_col].min()
                    if len(sub) else pd.Series(dtype="datetime64[us]"))
            counts.append(len(prev))
        return pd.DataFrame({
            "step": np.arange(1, len(steps_l) + 1, dtype="int64"),
            "step_name": steps_l,
            "n_users_partial": np.asarray(counts, dtype="int64"),
        })

    partials = (
        pruned.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket__")
        .map_groups(bucket_funnel, batch_format="pandas")
        .to_pandas()  # n_buckets × len(steps) rows — driver merge is tiny
    )
    if partials.empty:
        # no events (or every user NULL): zero groups yield a column-less
        # frame — return explicit zero counts per step
        return pd.DataFrame({
            "step": np.arange(1, len(steps_l) + 1, dtype="int64"),
            "step_name": steps_l,
            "n_users": np.zeros(len(steps_l), dtype="int64"),
        })
    out = (partials.groupby(["step", "step_name"], as_index=False)
           ["n_users_partial"].sum()
           .rename(columns={"n_users_partial": "n_users"})
           .sort_values("step").reset_index(drop=True))
    out["n_users"] = out["n_users"].astype("int64")
    return out[["step", "step_name", "n_users"]]


def throttle_events(
    ds: "ray.data.Dataset",
    key_cols: Sequence[str],
    ts_col: str = "ts",
    min_gap_seconds: float = 60.0,
    tie_col: Optional[str] = None,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Lag-based event throttling (burst dedup): keep a row iff it is
    the key's first event or arrived ≥ ``min_gap_seconds`` after the
    PREVIOUS event of the same key — the standard bot-burst /
    double-fire scrub before sessionization or funnel analysis.

    Lag semantics (each event compares to its immediate predecessor,
    kept or not), exactly SQL's
    ``lag(ts) OVER (PARTITION BY key ORDER BY ts, tie)``, so an oracle
    can reproduce the selection row-for-row; ``tie_col`` (e.g. an
    event id) makes ordering of equal timestamps deterministic on both
    sides.

    Same partitioning shape as :func:`sessionize`: one hash shuffle on
    the key bucket co-locates each key's events, then a single
    vectorized sort + diff sweep per partition (no per-key Python); a
    partition must fit one task — the per-key bound any keyed-window
    system needs (raise ``n_parts`` for hot-key corpora)."""
    from ..functions.sketches import hash64

    key_cols = list(key_cols)
    order = key_cols + [ts_col] + ([tie_col] if tie_col else [])

    def tag(b: pa.Table) -> pa.Table:
        part = (hash64(np.asarray(b[key_cols[0]])) % n_parts).astype(
            np.int32)
        return b.append_column("__part__", pa.array(part))

    def sweep(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(order)
        same_key = np.ones(len(df), dtype=bool)
        for c in key_cols:
            same_key &= df[c].eq(df[c].shift()).to_numpy(dtype=bool)
        gap = df[ts_col].diff().dt.total_seconds().to_numpy()
        keep = ~same_key | (gap >= min_gap_seconds)
        return df.loc[keep]

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__part__")
        .map_groups(lambda g: sweep(g.drop(columns="__part__")),
                    batch_format="pandas")
    )


def tumbling_distinct(
    ds: "ray.data.Dataset",
    key_cols: Sequence[str],
    distinct_col: str,
    ts_col: str = "ts",
    unit: str = "hour",
) -> "ray.data.Dataset":
    """EXACT distinct count per (key, tumbling window) — e.g. hourly
    active users per event type.

    Two-level dedup so raw events never shuffle: each batch first
    reduces to its DISTINCT (key, window, value) triples (the combiner —
    a batch of 100k events with 5k distinct users sends 5k rows), one
    ``groupby`` dedups the triples globally, then a per-batch (key,
    window) count combiner + a second tiny ``groupby`` sums partial
    counts.  Both exchanges are bounded by distinct triples, not events.
    For approximate counting at higher cardinalities use the HLL sketch
    path (``stages.stats``) — this is the exact small-result variant."""
    from ray.data.aggregate import Count

    keys = list(key_cols) + ["window_start"]

    def triples(batch: pa.Table) -> pa.Table:
        b = add_tumbling_window(batch, ts_col, unit)
        t = b.select(keys + [distinct_col])
        t = t.filter(pc.is_valid(t[distinct_col]))
        return t.group_by(keys + [distinct_col]).aggregate([])

    def partial_counts(batch: pa.Table) -> pa.Table:
        agg = batch.select(keys).group_by(keys).aggregate(
            [([], "count_all")])
        return agg_select(agg, {**{k: k for k in keys},
                                "count_all": "partial_n"})

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(triples, batch_format="pyarrow")
        .groupby(keys + [distinct_col])
        .aggregate(Count())                # global triple dedup
        .map_batches(partial_counts, batch_format="pyarrow")
        .groupby(keys)
        .aggregate(Sum("partial_n", alias_name="n_distinct"))
    )


def flag_late_events(
    ds: "ray.data.Dataset",
    key_cols: Sequence[str],
    ts_col: str = "ts",
    arrival_col: str = "event_id",
    max_lateness_seconds: float = 60.0,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Watermark-style late-data flagging: an event is LATE when its
    timestamp lags the key's running-max timestamp (the watermark,
    taken over ARRIVAL order = ``arrival_col``) by more than
    ``max_lateness_seconds`` — the triage every event-time window
    needs before deciding to drop, side-output, or re-open a window.

    Exactly SQL's
    ``max(ts) OVER (PARTITION BY key ORDER BY arrival ROWS BETWEEN
    UNBOUNDED PRECEDING AND 1 PRECEDING)`` comparison, so an oracle
    replays the flags row-for-row.  Same shape as
    :func:`throttle_events`: one key-bucket shuffle, then a vectorized
    sort + grouped cummax sweep per partition (no per-key Python); a
    partition must fit one task — raise ``n_parts`` for hot keys."""
    from ..functions.sketches import hash64

    key_cols = list(key_cols)
    order = key_cols + [arrival_col]

    def tag(b: pa.Table) -> pa.Table:
        part = (hash64(np.asarray(b[key_cols[0]])) % n_parts).astype(
            np.int32)
        return b.append_column("__part__", pa.array(part))

    def sweep(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(order)
        # running max BEFORE each row, per key: grouped cummax then a
        # grouped shift — both cython kernels, no per-key Python
        g = df.groupby(key_cols, sort=False)
        cm = g[ts_col].cummax()
        df = df.assign(__cm__=cm)
        wm = df.groupby(key_cols, sort=False)["__cm__"].shift()
        df = df.drop(columns="__cm__")
        lag = (wm - df[ts_col]).dt.total_seconds()
        df = df.copy()
        df["lateness_sec"] = lag.fillna(0.0).clip(lower=0.0).round(6)
        df["is_late"] = (lag > max_lateness_seconds).fillna(False)
        return df

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__part__")
        .map_groups(lambda g: sweep(g.drop(columns="__part__")),
                    batch_format="pandas")
    )


def ohlc(
    ds: "ray.data.Dataset",
    key_cols: Sequence[str],
    ts_col: str = "ts",
    value_col: str = "value",
    tie_col: str = "event_id",
    window_seconds: int = 3600,
) -> "ray.data.Dataset":
    """Open/high/low/close aggregation per key per tumbling window —
    the order-aware summary min/max alone can't give (open/close are
    argmin/argmax over (ts, tie), not extremes of the value).

    Mergeable-combiner shape: each batch collapses to ONE row per
    (key, window) carrying (first_key, open, last_key, close, lo, hi,
    n); the groupby then merges partials by comparing the carried
    order keys — so the exchange holds one fixed-width row per (key,
    window) per batch and raw events never shuffle.  ``tie_col`` makes
    equal timestamps deterministic (SQL ``arg_min(v, (ts, tie))``
    parity).  NULL values/timestamps raise (an unorderable event has
    no place in an order-aware summary)."""
    from ray.data.aggregate import AggregateFn  # noqa: F401  (doc ref)

    key_cols = list(key_cols)
    win_us = np.int64(window_seconds) * 1_000_000

    def partial(b: pa.Table) -> pa.Table:
        for c in (ts_col, value_col, tie_col):
            if b[c].null_count:
                raise ValueError(f"ohlc: column {c!r} contains NULLs")
        ts = pc.cast(pc.cast(b[ts_col], pa.timestamp("us")),
                     pa.int64()).to_numpy(
            zero_copy_only=False)  # µs since epoch, any input resolution
        win = (ts // win_us) * win_us
        tie = np.asarray(b[tie_col], dtype=np.int64)
        val = b[value_col].to_numpy(zero_copy_only=False).astype(
            np.float64)
        df = b.select(key_cols).to_pandas()
        df["__win__"] = win
        df["__ts__"] = ts
        df["__tie__"] = tie
        df["__val__"] = val
        order = df.sort_values(key_cols + ["__win__", "__ts__", "__tie__"])
        g = order.groupby(key_cols + ["__win__"], sort=False)
        out = g.agg(
            open_ts=("__ts__", "first"), open_tie=("__tie__", "first"),
            open=("__val__", "first"),
            close_ts=("__ts__", "last"), close_tie=("__tie__", "last"),
            close=("__val__", "last"),
            lo=("__val__", "min"), hi=("__val__", "max"),
            n=("__val__", "size"),
        ).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    def merge(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["open_ts", "open_tie"])
        first = g.iloc[0]
        gl = g.sort_values(["close_ts", "close_tie"])
        last = gl.iloc[-1]
        out = g.iloc[[0]][key_cols + ["__win__"]].copy()
        out["open"] = first["open"]
        out["close"] = last["close"]
        out["lo"] = g["lo"].min()
        out["hi"] = g["hi"].max()
        out["n"] = int(g["n"].sum())
        return out

    merged = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(key_cols + ["__win__"])
              .map_groups(merge, batch_format="pandas"))

    def finish(b: pa.Table) -> pa.Table:
        win = pc.cast(pc.cast(b["__win__"], pa.int64()),
                      pa.timestamp("us"))
        t = b.drop_columns(["__win__"]).add_column(
            len(key_cols), "window_start", win)
        return t

    return merged.map_batches(finish, batch_format="pyarrow")
