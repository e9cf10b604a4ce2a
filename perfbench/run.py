"""Benchmark of the code-table validator (``xpshacl_ray``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload code_report --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --smoke

One driver process runs a closed loop on one Ray session: the next call
into the engine starts only after the previous call's output is written.
Each timed call is checked against an oracle built from the input
generator's sidecar.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run (``layers.py``).  Lines before it are ``#`` comments with the
same numbers plus the sample count, tail percentile, error rate, input
generation time and run environment; the full record and the trace spans
are written under ``.bench_out/`` in the checkout.

Everything the benchmark writes stays inside the checkout:
``.bench_cache/`` (inputs, keyed by workload, seed and size),
``.bench_work/`` (outputs, removed at exit), ``.bench_out/`` and
``.bench_ray/`` (the Ray session's temp dir).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NUM_CPUS = 3  # smallest value at which ValidationEngine.run completes
OBJECT_STORE_BYTES = 512 * 1024 * 1024
ROWS = {"code_report": 4000, "code_wide": 1200, "code_delta": 4000}
SMOKE_ROWS = {"code_report": 400, "code_wide": 200, "code_delta": 400}
MIN_ITERATIONS = 3
WARMUP_TIMEOUT_S = 90.0
MIN_TIMEOUT_S = 15.0
TIMEOUT_FACTOR = 4.0
RUN_BUDGET_S = 165.0  # every run must exit within 180 s
RSS_SAMPLE_S = 0.2
QUIESCE_LIMIT_S = 10.0
WARM_WORKERS = 8
# Ray's AF_UNIX sockets live at <temp>/session_<time>_<pid>/sockets/<name>,
# and a socket path may hold at most 107 bytes
MAX_TEMP_DIR_BYTES = 107 - 72


class IterationTimeout(Exception):
    pass


def call_with_timeout(fn, timeout: float):
    """Run ``fn`` in a daemon thread; raise IterationTimeout past
    ``timeout`` seconds (the stuck thread is abandoned, the process then
    tears Ray down and exits)."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # re-raised in the caller's thread
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise IterationTimeout(f"no result after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


class RssSampler:
    """Peak RSS summed over the driver and its Ray worker processes."""

    def __init__(self):
        import psutil

        self.me = psutil.Process()
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> int:
        import psutil

        total = self.me.memory_info().rss
        for p in self.me.children(recursive=True):
            try:
                cmd = p.cmdline()
                if cmd and cmd[0].startswith("ray::"):
                    total += p.memory_info().rss
            except (psutil.NoSuchProcess, psutil.AccessDenied):
                pass
        return total

    def _loop(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, self.sample())
            self._stop.wait(RSS_SAMPLE_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def quiesce(num_cpus: int) -> float:
    """Untimed pause between calls; returns the seconds it took.

    A reference cycle keeps the previous call's ``ExplainerActor`` pool
    alive until the garbage collector runs, and a call that starts while
    those actors still hold CPUs can stall in its explain step.  Collect
    and wait until every CPU is free again.
    """
    import gc

    import ray

    t0 = time.perf_counter()
    gc.collect()
    while (ray.available_resources().get("CPU", 0) < num_cpus
           and time.perf_counter() - t0 < QUIESCE_LIMIT_S):
        time.sleep(0.05)
    return time.perf_counter() - t0


def environment(num_cpus: int) -> dict:
    import subprocess

    import pyarrow
    import ray

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        nproc = None
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "ray_num_cpus": num_cpus,
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "python": sys.version.split()[0]}


def start_ray(num_cpus: int) -> None:
    import ray

    temp_dir = os.path.join(ROOT, ".bench_ray")
    if len(temp_dir.encode()) > MAX_TEMP_DIR_BYTES:
        print(f"# checkout path too long for Ray's sockets; Ray uses its "
              f"default temp dir instead of {temp_dir}")
        temp_dir = None
    ray.init(num_cpus=num_cpus, object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=temp_dir)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False


def stop_ray() -> None:
    """Shut Ray down and make sure every process this run started ended."""
    import psutil

    def shutdown():
        import ray

        ray.shutdown()

    th = threading.Thread(target=shutdown, daemon=True)
    th.start()
    th.join(30)
    children = psutil.Process().children(recursive=True)
    for p in children:
        try:
            p.kill()
        except psutil.NoSuchProcess:
            pass
    psutil.wait_procs(children, timeout=10)


def percentile_report(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return (f"n={n}: too few samples for a tail percentile; "
                f"max {max(values):.4f}")
    p = int(100 * (1 - 10 / n))
    q = statistics.quantiles(values, n=100)[p - 1]
    return f"n={n}: p{p} {q:.4f}"


class Bench:
    """One workload's set-up, timed loop and traced run."""

    def __init__(self, workload: str, seed: int, rows: int, num_cpus: int,
                 work: str):
        import drivers

        self.workload = workload
        self.num_cpus = num_cpus
        self.work = work
        os.makedirs(work, exist_ok=True)
        self.driver, self.gen_s = drivers.make_driver(
            workload, os.path.join(ROOT, ".bench_cache"), seed, rows, work)
        self.failures = []
        self.quiesce_s = []

    def pause(self) -> None:
        self.quiesce_s.append(quiesce(self.num_cpus))

    def setup(self) -> float:
        """build_engine + full pass + one checked warm-up call; seconds."""
        t0 = time.perf_counter()
        self.driver.build()
        call_with_timeout(self.driver.full_pass, WARMUP_TIMEOUT_S)
        self.pause()
        self.driver.prepare(0)
        out = call_with_timeout(lambda: self.driver.iterate(0),
                                WARMUP_TIMEOUT_S)
        setup_s = time.perf_counter() - t0
        errors = self.driver.check(out, 0)
        if errors:
            raise RuntimeError(f"warm-up output wrong: {errors}")
        return setup_s

    def timeout(self, walls, warmup_s: float) -> float:
        base = statistics.median(walls) if walls else warmup_s
        left = RUN_BUDGET_S - (time.perf_counter() - T_START)
        return max(1.0, min(left, max(MIN_TIMEOUT_S, TIMEOUT_FACTOR * base)))

    def one(self, i: int, walls, warmup_s: float):
        """Prepare, time and check call ``i``; returns (wall, ok)."""
        self.pause()
        self.driver.prepare(i)
        t0 = time.perf_counter()
        try:
            out = call_with_timeout(lambda: self.driver.iterate(i),
                                    self.timeout(walls, warmup_s))
        except IterationTimeout as e:
            self.failures.append(f"call {i}: {e}")
            raise
        except Exception as e:  # a failed call is counted, not fatal
            self.failures.append(f"call {i}: {type(e).__name__}: {e}")
            return time.perf_counter() - t0, False
        wall = time.perf_counter() - t0
        errors = self.driver.check(out, i)
        self.failures += [f"call {i}: {e}" for e in errors]
        return wall, not errors

    def timed(self, seconds: float, warmup_s: float):
        """Closed loop for ``seconds``; returns (walls, attempted, failed)."""
        walls, attempted, failed = [], 0, 0
        t_end = time.perf_counter() + seconds
        while attempted < MIN_ITERATIONS or time.perf_counter() < t_end:
            attempted += 1
            try:
                wall, ok = self.one(attempted, walls, warmup_s)
            except IterationTimeout:
                failed += 1
                break
            failed += not ok
            if ok:
                walls.append(wall)
            slowest = max(walls or [warmup_s])
            if time.perf_counter() - T_START > RUN_BUDGET_S - 2 * slowest:
                break
        return walls, attempted, failed

    def traced(self, seconds: float, warmup_s: float):
        """Alternate untraced calls and traced step-by-step runs."""
        import layers

        tr = layers.Tracer()
        d = self.driver
        untraced, attempted, failed = [], 0, 0
        t_end = time.perf_counter() + seconds
        it = 0
        delta = self.workload == "code_delta"
        if delta:
            # validate_delta never explains: fill the KG once, untraced,
            # so traced explain steps hit the cache as on the run path
            fill = os.path.join(self.work, "kg_fill")
            call_with_timeout(
                lambda: layers.traced_run_steps(layers.Tracer(), 0, d.engine,
                                                d.target_path, d.commits,
                                                fill),
                WARMUP_TIMEOUT_S)
        while it == 0 or time.perf_counter() < t_end:
            it += 1
            attempted += 1
            wall, ok = self.one(2 * it - 1, untraced, warmup_s)
            failed += not ok
            if ok:
                untraced.append(wall)
            self.pause()
            d.prepare(2 * it)
            if delta:
                with tr.span("delta", it):
                    with tr.span("manifest.check", it) as s:
                        layers.manifest_check(d.files, d.out)
                    rep = call_with_timeout(d.validate_delta,
                                            self.timeout(untraced, warmup_s))
                s["counts"].update(ran=len(rep["ran"]),
                                   skipped=len(rep["skipped"]),
                                   pruned=len(rep["pruned"]))
                errors = d.check(rep, 2 * it)
                run_input, expected = d.target_path, d.expected_target()
            else:
                with tr.span("manifest.check", it):
                    layers.manifest_check([d.input],
                                          os.path.join(self.work, "trace"))
                errors = []
                run_input, expected = d.input, d.expected
            out = os.path.join(self.work, f"traced{it}")
            steps = call_with_timeout(
                lambda: layers.traced_run_steps(tr, it, d.engine, run_input,
                                                d.commits, out),
                self.timeout(untraced, 3 * warmup_s))
            errors += d.check_report(out, expected, it)
            shutil.rmtree(out, ignore_errors=True)
            attempted += 1
            failed += bool(errors)
            self.failures += [f"traced {it}: {e}" for e in errors]
        self.pause()
        layers.traced_branches(tr, d.engine, steps["ingested"], d.kg_path,
                               d.max_content_len)
        kernels = layers.kernel_times(d.engine, run_input, steps["sigs"],
                                      steps["enriched"])
        metrics = layers.layer_metrics(tr, kernels, untraced,
                                       "delta" if delta else "run")
        return metrics, tr.spans, attempted, failed


def run_workload(args, rows: int, work: str) -> dict:
    """Set up and measure one workload; returns the full record."""
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    import pyarrow  # noqa: F401
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    import xpshacl_ray  # noqa: F401
    from xpshacl_ray.pipelines.code_files import build_engine  # noqa: F401

    import_s = time.perf_counter() - t0
    bench = Bench(args.workload, args.seed, rows, args.num_cpus, work)
    t0 = time.perf_counter()
    if not args.ray_started:
        start_ray(args.num_cpus)
    init_s = time.perf_counter() - t0
    record = {"workload": args.workload, "seed": args.seed, "rows": rows,
              "trace": args.trace, "gen_s": bench.gen_s,
              "env": environment(args.num_cpus), "load_before": load_before}
    try:
        setup_s = import_s + init_s + bench.setup()
    except (IterationTimeout, RuntimeError) as e:
        record.update(correct=False, attempted=1, failed=1, metrics={},
                      failures=[f"set-up: {e}"], load_after=os.getloadavg())
        return record
    record["setup_s"] = setup_s
    if args.trace:
        try:
            metrics, spans, attempted, failed = bench.traced(args.seconds,
                                                             setup_s)
        except IterationTimeout as e:
            bench.failures.append(f"traced run: {e}")
            metrics, spans, attempted, failed = {}, [], 1, 1
        record["spans"] = spans
    else:
        with RssSampler() as rss:
            walls, attempted, failed = bench.timed(args.seconds, setup_s)
        metrics = {}
        if walls:
            run_s = statistics.median(walls)
            metrics = {
                "run_s": {"value": run_s, "unit": "s"},
                "files_per_s": {"value": bench.driver.rows / run_s,
                                "unit": "1/s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": rss.peak / 1e6, "unit": "MB"},
            }
            record["walls"] = walls
            record["tail"] = percentile_report(walls)
    record["quiesce_s"] = bench.quiesce_s
    record.update(correct=not bench.failures and bool(metrics),
                  attempted=attempted, failed=failed, metrics=metrics,
                  failures=bench.failures, load_after=os.getloadavg())
    return record


def comments(record: dict) -> list:
    lines = [f"# workload {record['workload']} seed {record['seed']} "
             f"rows {record['rows']} trace {record['trace']}",
             f"# env {json.dumps(record['env'], sort_keys=True)} "
             f"load {record['load_before']} -> {record['load_after']}",
             f"# input generation {record['gen_s']:.3f} s (0 = cached)"]
    for k, v in record["metrics"].items():
        lines.append(f"# {k} = {v['value']:.6g} {v['unit']}")
    if "tail" in record:
        lines.append(f"# run_s samples {record['tail']}")
    if record.get("quiesce_s"):
        lines.append(f"# untimed pause between calls: max "
                     f"{max(record['quiesce_s']):.3f} s")
    rate = record["failed"] / max(record["attempted"], 1)
    lines.append(f"# error_rate = {rate:.4g} "
                 f"({record['failed']} of {record['attempted']} failed)")
    lines += [f"# FAILED {f}" for f in record["failures"][:20]]
    return lines


def write_record(record: dict) -> None:
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    name = f"{record['workload']}-s{record['seed']}-trace{record['trace']}"
    with open(os.path.join(out, name + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(ROWS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--num-cpus", type=int, default=NUM_CPUS,
                   help="Ray num_cpus (run does not complete below 3)")
    p.add_argument("--smoke", action="store_true",
                   help="every workload once at tiny size, both modes")
    args = p.parse_args(argv)
    if not args.smoke and not args.workload:
        p.error("--workload is required unless --smoke")
    return args


def prepare_environment() -> bool:
    """Make the package importable here and in Ray workers."""
    if not os.path.isfile(os.path.join(ROOT, "xpshacl_ray", "__init__.py")):
        print(f"error: no xpshacl_ray package next to {HERE}; run from the "
              "root of a checkout", file=sys.stderr)
        return False
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    # keep task workers alive between calls: with Ray's default idle-worker
    # killing, worker process churn swings per-call times by up to 50%
    os.environ["RAY_num_workers_soft_limit"] = str(WARM_WORKERS)
    os.environ["RAY_idle_worker_killing_time_threshold_ms"] = "600000"
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    os.environ.pop("RAY_ADDRESS", None)
    return True


def smoke(args) -> int:
    """Every workload once at tiny size, timed and traced, all oracles."""
    ok = True
    for workload in sorted(ROWS):
        for trace in (0, 1):
            a = argparse.Namespace(**vars(args))
            a.workload, a.trace, a.seconds = workload, trace, 0
            work = os.path.join(ROOT, ".bench_work",
                                f"smoke-{workload}-{trace}-{os.getpid()}")
            try:
                rec = run_workload(a, SMOKE_ROWS[workload], work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            args.ray_started = a.ray_started = True
            write_record(rec)
            for line in comments(rec):
                print(line)
            ok = ok and rec["correct"] and not rec["failed"]
    print(json.dumps({"smoke": "passed" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare_environment():
        return 2
    args.ray_started = False
    try:
        if args.smoke:
            return smoke(args)
        work = os.path.join(ROOT, ".bench_work",
                            f"{args.workload}-s{args.seed}-{os.getpid()}")
        try:
            record = run_workload(args, ROWS[args.workload], work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        write_record(record)
        for line in comments(record):
            print(line)
        print(json.dumps({k: record[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        sys.stdout.flush()
        return 0 if record["correct"] and not record["failed"] else 1
    finally:
        if "ray" in sys.modules:
            stop_ray()


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # a timed-out call leaves a stuck thread behind; do not wait for it
    os._exit(code)
