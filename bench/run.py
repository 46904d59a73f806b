"""Benchmark runner: one workload run, closed loop, one client.

    python3 bench/run.py --workload bridge-scan --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

The runner makes the workload's inputs from the seed, starts a fresh warm
worker (or, for catalog-cli, one fresh ``jnum`` process per op), sends the
next op only after the previous one has answered, and stops once the next
op would be expected to end after ``--seconds``; bridge-scan instead runs
its whole fixed pass, so that every run attempts the same ops (see
workloads.py). Every op is checked; no
op aborts the run. With ``--trace 0`` the last line of stdout is the
end-to-end result, with ``--trace 1`` the per-layer result of a traced run
of the same ops, together with the tracing overhead against an untraced
run of them. The lines before it are a readable summary. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACE_DIR = ROOT / ".bench_build" / "bench"

# Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("answered_frac", "ratio"))


class BenchError(RuntimeError):
    """The run cannot produce a result (no program, or a worker died)."""


def child_env():
    """The environment of every process that runs jnum: the checkout's
    sources, thread pools capped at the core count, no tolerance override."""
    env = {k: v for k, v in os.environ.items() if k != "JNUM_TOL"}
    env["PYTHONPATH"] = str(ROOT / "src")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = nproc
    return env


class Worker:
    """A warm worker process; ``setup_s`` runs from spawn until it is ready."""

    def __init__(self, warmup, trace_out=None):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--warmup", json.dumps(warmup)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        start = perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT, text=True)
        try:
            self._recv()
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - start

    def _recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def _send(self, msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def call(self, op, argv):
        self._send({"op": op, "argv": argv})
        reply = self._recv()
        return reply["rc"], reply["stdout"], reply["error"], reply["seconds"]

    def close(self):
        """Stop the worker; its peak RSS in KB."""
        try:
            self._send({})
            maxrss_kb = self._recv()["maxrss_kb"]
            self.proc.stdin.close()
            self.proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            self.kill()
        return maxrss_kb

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def run_child(cmd):
    """Run one process to its end: (exit code, stdout, stderr, seconds, peak RSS KB)."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err[0], seconds, usage.ru_maxrss


def jnum_child(argv, op=None, trace_out=None):
    """The command of one catalog-cli op: plain ``python -m jnum.cli``, or
    the same command under the tracer entry."""
    if trace_out is None:
        return [sys.executable, "-m", "jnum.cli", *argv]
    return [sys.executable, str(BENCH / "worker.py"), "--trace-out", str(trace_out),
            "--op", str(op), "--once", *argv]


def closed_loop(call, ops, seconds):
    """Run ops one after another until the next would end after ``seconds``.

    ``call(op_id, argv)`` returns (rc, stdout, error, seconds); the result
    is the list of (argv, rc, stdout, error, seconds) and the loop's wall
    time. At least one op always runs.
    """
    done = []
    start = perf_counter()
    for op_id, argv in enumerate(ops):
        done.append((argv, *call(op_id, argv)))
        elapsed = perf_counter() - start
        if elapsed * (len(done) + 1) / len(done) > seconds:
            break
    return done, perf_counter() - start


def _catalog_call(trace_dir, rss):
    """``call`` of closed_loop for catalog-cli; appends each op's peak RSS to ``rss``."""
    def call(op_id, argv):
        out_file = None if trace_dir is None else trace_dir / f"op-{op_id}.jsonl"
        rc, out, err, seconds, maxrss_kb = run_child(jnum_child(argv, op_id, out_file))
        rss.append(maxrss_kb)
        error = None
        if rc not in (0, 1, 2) or (rc == 1 and not out):
            tail = err.strip().splitlines()
            error = tail[-1] if tail else f"exit code {rc}"
        return rc, out, error, seconds
    return call


def _families():
    return json.loads((ROOT / "src" / "jnum" / "data" / "gtk_families.json")
                      .read_text(encoding="utf-8"))


def _loop(workload, seed, seconds, smoke, trace_dir=None, setups=0):
    """One closed loop of ``workload``: (done ops, wall s, peak RSS MB, set-up times)."""
    ops = workloads.ops(workload, seed, _families(), smoke)
    if workload == "bridge-scan":
        seconds = math.inf
    setup = []
    if workload == "catalog-cli":
        for _ in range(setups):
            rc, _, err, secs, _ = run_child([sys.executable, "-c", "import jnum.cli"])
            if rc != 0:
                raise BenchError(f"importing jnum.cli failed: {err.strip()}")
            setup.append(secs)
        rss = []
        done, wall = closed_loop(_catalog_call(trace_dir, rss), ops, seconds)
        return done, wall, max(rss) / 1024, setup
    warmup = workloads.WARMUP[workload]
    for _ in range(setups - 1):
        probe = Worker(warmup)
        setup.append(probe.setup_s)
        probe.close()
    worker = Worker(warmup, None if trace_dir is None else trace_dir / "worker.jsonl")
    setup.append(worker.setup_s)
    try:
        done, wall = closed_loop(worker.call, ops, seconds)
    finally:
        maxrss_kb = worker.close()
    return done, wall, maxrss_kb / 1024, setup


def _classify(checker, done):
    outcomes = [checker.classify(argv, rc, out, error)
                for argv, rc, out, error, _ in done]
    count = {k: sum(1 for o, _ in outcomes if o == k)
             for k in (checks.ANSWERED, checks.REFUSED, checks.CRASH, checks.WRONG)}
    reasons = {}
    for (argv, *_), (outcome, why) in zip(done, outcomes):
        if outcome in (checks.CRASH, checks.WRONG):
            why = re.sub(r"\d[\d.e+\-j]*", "#", why or "")[:80]
            reasons.setdefault(f"{outcome}: {why}", []).append(" ".join(argv[:2]))
    return count, reasons


def _percentile_ms(latencies, n_tenths):
    """The n/10 quantile in ms, or None when fewer than 10 samples lie beyond it."""
    if len(latencies) - math.ceil(len(latencies) * n_tenths / 10) < 10:
        return None
    return statistics.quantiles(latencies, n=10)[n_tenths - 1] * 1000.0


def measure(workload, seed, seconds, trace, smoke=False):
    """One run of ``workload``: the result object and readable summary lines."""
    checker = checks.Checker(ROOT)
    if not trace:
        done, wall, rss_mb, setup = _loop(workload, seed, seconds, smoke,
                                          setups=SETUP_REPEATS)
        count, reasons = _classify(checker, done)
        latencies = [d[-1] for d in done]
        n = len(done)
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb,
            "ops_per_s": n / wall,
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "answered_frac": count[checks.ANSWERED] / n,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        extra = {
            "failed_frac": ((count[checks.CRASH] + count[checks.WRONG]) / n, "ratio"),
            "refused_frac": (count[checks.REFUSED] / n, "ratio"),
            "latency_p90_ms": (_percentile_ms(latencies, 9), "ms"),
            "wall_s": (statistics.median(latencies), "s"),
        }
        processes = n if workload == "catalog-cli" else 1
        samples = {"setup_s": len(setup), "peak_rss_mb": processes}
    else:
        trace_dir = TRACE_DIR / f"trace-{workload}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        plain, _, _, _ = _loop(workload, seed, seconds, smoke)
        done, _, _, _ = _loop(workload, seed, seconds, smoke, trace_dir=trace_dir)
        count, reasons = _classify(checker, done)
        n = len(done)
        m = min(len(plain), n)
        traced_s = sum(d[-1] for d in done[:m])
        plain_s = sum(d[-1] for d in plain[:m])
        processes = [tracing.load_spans(p) for p in sorted(trace_dir.glob("*.jsonl"))]
        metrics = tracing.layer_metrics(processes, range(n), traced_s / plain_s - 1.0)
        extra = {"trace_overhead_ops_per_s": (m / traced_s - m / plain_s, "1/s")}
        samples = {name: len(processes) for name, unit in tracing.LAYER_METRICS
                   if unit == "s"}
        samples["trace.overhead_frac"] = samples["trace_overhead_ops_per_s"] = m
    lines = _summary(workload, seed, metrics, extra, n, samples, count, reasons)
    if trace:
        lines.append(f"  spans of {len(processes)} traced processes in "
                     f"{trace_dir.relative_to(ROOT)}/; overhead over the first {m} ops")
    failed = count[checks.CRASH] + count[checks.WRONG]
    result = {"correct": count[checks.WRONG] == 0, "attempted": n,
              "failed": failed, "metrics": metrics}
    return result, lines


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def _summary(workload, seed, metrics, extra, n, samples, count, reasons):
    """Readable lines: every metric with its unit and sample count, then failures."""
    lines = [f"workload {workload}  seed {seed}  ops {n}  answered {count[checks.ANSWERED]}"
             f"  refused {count[checks.REFUSED]}  crashed {count[checks.CRASH]}"
             f"  wrong {count[checks.WRONG]}"]
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows += [(name, value, unit) for name, (value, unit) in extra.items()]
    for name, value, unit in rows:
        note = "  (needs 10 samples beyond it)" if value is None else ""
        lines.append(f"  {name:44s} {_fmt(value):>14s} {unit:9s} "
                     f"n={samples.get(name, n)}{note}")
    for reason, where in sorted(reasons.items()):
        lines.append(f"  failed x{len(where)} {reason}  e.g. {', '.join(where[:3])}")
    return lines


def preflight():
    for need in ("src/jnum/cli.py", "src/jnum/data/cli_schema.json"):
        if not (ROOT / need).is_file():
            raise BenchError(f"{need} not found under {ROOT}; run from a jnum checkout")


def main(argv=None):
    parser = argparse.ArgumentParser(description="jnum benchmark runner")
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, lines = measure(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            results[name] = result
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    last = results[args.workload] if args.workload != "all" else {"workloads": results}
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
