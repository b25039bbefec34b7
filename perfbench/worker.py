"""Runs one workload in this interpreter and prints its result.

Started by ``run.py`` in a fresh interpreter from the root of a checkout,
with ``src`` on the path, ``PYTHONHASHSEED`` fixed and ``SYNCHRO_THREADS``
unset.  Closed loop, one caller: each CLI call starts when the previous one
has returned.  Only the ``synchro.cli.main`` call is timed; its output is
checked right after, outside the timed span.

Times are calibrated.  Shared hosts change speed by tens of percent over
seconds, which would drown the changes the benchmark exists to show.  So a
short fixed pure-Python loop runs between calls, and each call's wall time
is scaled by how fast that loop ran around it, relative to
``CAL_REFERENCE_S``.  The raw figures are printed alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import random
import sys
from time import perf_counter

import corpus
from checks import Checker
from spans import TRACED, Tracer, count_names

SETUP_REPEATS = 7
MIN_SAMPLES = 100
SCHEMA = os.path.join("docs", "report-schema.json")
WORKDIR = ".perfbench"

CAL_ROUNDS = 72
CAL_REFERENCE_S = 0.0022  # the calibration loop's typical time on a 2-core Xeon VM
CAL_WINDOW = (2, 4)  # samples taken before and after a call that set its scale
_cal_rng = random.Random(0)
_CAL_PERM = _cal_rng.sample(range(256), 256)
_CAL_BYTES = _cal_rng.randbytes(1 << 22)
_CAL_READS = [_cal_rng.randrange(1 << 22) for _ in range(8192)]


def calibration_sample() -> float:
    """Seconds a fixed loop takes now: small-int arithmetic on a 256-entry
    table, then reads at random offsets of a 4 MB buffer.

    The first half follows the core's speed and the second half memory
    contention; together they tracked the host's slow phases better than
    either alone.  The loop allocates nothing (every value it makes is below
    256, inside the interpreter's small-int cache), so its time does not
    depend on the heap that earlier calls left behind.
    """
    perm, buf = _CAL_PERM, _CAL_BYTES
    x = 0
    start = perf_counter()
    for _ in range(CAL_ROUNDS):
        for j in range(256):
            x = perm[x ^ j]
            x = perm[(x + j) & 255]
    for i in _CAL_READS:
        x = buf[i]
    return perf_counter() - start


def import_synchro():
    """Import ``synchro`` and its CLI afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "synchro" or m.startswith("synchro.")]:
        del sys.modules[name]
    synchro = importlib.import_module("synchro")
    importlib.import_module("synchro.cli")
    return synchro


def set_up(workload: str, seed: int, blocks: int, corpus_dir: str):
    """Import synchro, build the corpus and write its files; return the ops."""
    shutil.rmtree(corpus_dir, ignore_errors=True)
    os.makedirs(corpus_dir)
    synchro = import_synchro()
    return corpus.BUILDERS[workload](synchro, seed, blocks, corpus_dir)


class Runner:
    """Calls the CLI for each op, times the call alone and checks its report."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.raw: list[float] = []  # wall seconds per call
        self.families: list[str] = []
        self.cal = [calibration_sample()]  # cal[i] just before call i, cal[i + 1] just after

    def call(self, op: corpus.Op) -> None:
        main = sys.modules["synchro.cli"].main  # looked up per call, so a tracer's rebinding applies
        out, err = io.StringIO(), io.StringIO()
        problems: list[str] = []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an op that raises counts as failed, the run goes on
                code, problems = -1, [f"raised {type(exc).__name__}: {exc}"]
            elapsed = perf_counter() - start
        self.cal.append(calibration_sample())
        self.raw.append(elapsed)
        self.families.append(op.family)
        self.attempted += 1
        if not problems:
            try:
                problems = self.checker.check(op, code, out.getvalue())
            except Exception as exc:  # a malformed report must not stop the run
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            detail = err.getvalue().strip().splitlines()[-1:]
            print(f"FAIL {op.label} ({' '.join(op.argv)}): {'; '.join(problems)} {detail}", file=sys.stderr)

    def clear(self) -> None:
        self.raw.clear()
        self.families.clear()
        del self.cal[:-1]

    def scale(self) -> list[float]:
        """Per call: CAL_REFERENCE_S over the median of the calibration
        samples in a short window around the call."""
        before, after = CAL_WINDOW
        return [CAL_REFERENCE_S / statistics.median(self.cal[max(0, i + 1 - before):i + 1 + after])
                for i in range(len(self.raw))]

    def scaled(self, first: int = 0) -> list[float]:
        return [t * s for t, s in zip(self.raw[first:], self.scale()[first:])]

    def run_blocks(self, ops, block_ops: int, *, seconds: float | None = None, blocks: int | None = None) -> None:
        """Run whole blocks, cycling the corpus, until ``blocks`` are done, or
        until ``seconds`` of wall time in calls have passed and at least
        MIN_SAMPLES calls are timed."""
        first_call = len(self.raw)
        done = 0
        while True:
            if blocks is not None and done >= blocks:
                return
            if seconds is not None and len(self.raw) - first_call >= MIN_SAMPLES \
                    and math.fsum(self.raw[first_call:]) >= seconds:
                return
            first = (done * block_ops) % len(ops)
            for op in ops[first:first + block_ops]:
                self.call(op)
            done += 1


def machine_info() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), model)
    commit = "unknown"
    with contextlib.suppress(OSError):
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as handle:
                head = handle.read().strip()
        commit = head
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": sys.version.split()[0],
        "commit": commit,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timing_run(workload, seed, seconds, corpus_dir):
    blocks = math.ceil(1.5 * seconds / corpus.BLOCK_SECONDS[workload]) + 1
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = calibration_sample()
        start = perf_counter()
        ops = set_up(workload, seed, blocks, corpus_dir)
        elapsed = perf_counter() - start
        setup_times.append(elapsed * 2 * CAL_REFERENCE_S / (before + calibration_sample()))
    runner = Runner(Checker(SCHEMA))
    runner.call(ops[0])  # warm-up, left out of the timing
    runner.clear()
    runner.run_blocks(ops, len(ops) // blocks, seconds=seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat_ms = [t * 1000 for t in runner.scaled()]
    raw_ms = [t * 1000 for t in runner.raw]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "throughput_ops_s": metric(1000 * len(lat_ms) / math.fsum(lat_ms), "ops/s"),
        "latency_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "latency_p90_ms": metric(statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    by_family: dict[str, list[float]] = {}
    for family, ms in zip(runner.families, lat_ms):
        by_family.setdefault(family, []).append(ms)
    extra = {
        "samples": len(lat_ms),
        "fail_frac": runner.failed / runner.attempted,
        "median_ms_by_family": {f: round(statistics.median(v), 1) for f, v in by_family.items()},
        "raw_throughput_ops_s": round(1000 * len(raw_ms) / math.fsum(raw_ms), 4),
        "raw_latency_p50_p90_ms": [round(statistics.median(raw_ms), 2),
                                   round(statistics.quantiles(raw_ms, n=10)[8], 2)],
        "median_speed_scale": round(statistics.median(runner.scale()), 4),
    }
    if runner.checker.word_bound:
        extra["synth_len_ratio"] = runner.checker.word_length / runner.checker.word_bound
    return runner, metrics, extra


def traced_run(workload, seed, seconds, corpus_dir):
    """Run the same whole blocks untraced, then traced; the traced pass gives
    per-layer stats and the pair gives the tracing overhead.  The op list is
    fixed by seed and seconds, so counts repeat exactly."""
    blocks = max(1, round(seconds / 3 / corpus.BLOCK_SECONDS[workload]))
    ops = set_up(workload, seed, blocks, corpus_dir)
    runner = Runner(Checker(SCHEMA))
    runner.call(ops[0])  # warm-up
    runner.clear()
    runner.run_blocks(ops, len(ops) // blocks, blocks=blocks)
    plain = math.fsum(runner.scaled())
    first = len(runner.raw)
    tracer = Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            runner.call(op)
    finally:
        tracer.uninstall()
    traced = math.fsum(runner.scaled(first))
    for qual in tracer.missing:
        print(f"trace: synchro has no {qual}; its stats read 0", file=sys.stderr)
    tracer.write(os.path.join(WORKDIR, f"spans-{workload}-seed{seed}.json"))
    metrics = {}
    for qual, stats in tracer.layer_stats(runner.scale()[first:]).items():
        metrics[f"{qual}.calls"] = metric(stats["calls"], "count")
        metrics[f"{qual}.self_s"] = metric(stats["self_s"], "s")
    for name in count_names():
        metrics[name] = metric(tracer.counts.get(name, 0), "count")
    length, bound = (tracer.counts.get(f"bounds.synthesize_reset_word.{k}", 0) for k in ("length", "bound"))
    metrics["bounds.synthesize_reset_word.len_ratio"] = metric(length / bound if bound else 0.0, "ratio")
    metrics["trace.overhead_frac"] = metric(traced / plain - 1, "ratio")
    return runner, metrics, {"ops_per_pass": len(ops), "untraced_s": plain, "traced_s": traced}


def report(workload, seed, trace, runner, metrics, extra) -> None:
    print(f"machine: {json.dumps(machine_info())}")
    print(f"workload {workload} seed {seed} trace {trace}: "
          f"{runner.attempted} ops attempted (warm-up included), {runner.failed} failed")
    for key, value in extra.items():
        print(f"  {key:<40} {value}")
    width = max(len(k) for k in metrics)
    if trace:
        total = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
        for qual in sorted(TRACED, key=lambda q: -metrics[f"{q}.self_s"]["value"]):
            self_s = metrics[f"{qual}.self_s"]["value"]
            share = self_s / total if total else 0.0
            print(f"  {qual:<40} calls {metrics[f'{qual}.calls']['value']:>8}  "
                  f"self {self_s:9.4f} s  {share:6.1%}")
        for key, m in metrics.items():
            if not key.endswith((".calls", ".self_s")):
                print(f"  {key:<{width}} {m['value']} {m['unit']}")
    else:
        for key, m in metrics.items():
            print(f"  {key:<{width}} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    corpus_dir = os.path.join(WORKDIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        run = traced_run if args.trace else timing_run
        runner, metrics, extra = run(args.workload, args.seed, args.seconds, corpus_dir)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    report(args.workload, args.seed, args.trace, runner, metrics, extra)
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
