"""Benchmark of cascadeg2: closed-loop workloads through its public API.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one report

Each workload is a closed loop with one client: the next request goes out
only after the previous one has completed and been checked.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
runs whole passes untraced and then traced, and prints the per-layer metrics
and the tracing overhead.  Times are scaled to a reference machine speed
(calibration.py).  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import checkout

HERE = checkout.ROOT / "perfbench"
OUT_DIR = checkout.ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("figures", "curves", "oracle")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 170

# (name, unit) of every end-to-end metric.
END_TO_END = (("setup_s", "s"), ("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"))


@dataclass
class Loop:
    """What one measured stretch of the closed loop saw."""

    latencies: list[float] = field(default_factory=list)  # seconds, as measured
    scaled: list[float] = field(default_factory=list)  # seconds at reference speed
    failures: list = field(default_factory=list)
    failed_inputs: set = field(default_factory=set)  # pass indices that failed
    refusals: int = 0
    points: int = 0

    @property
    def requests(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        """Request time in seconds at reference speed."""
        return sum(self.scaled)


def _call(request, arg):
    """(output, exception, start, end) of one request."""
    start = time.perf_counter()
    try:
        output = request(arg)
    except Exception as exc:  # a crashed request is a failed request; keep measuring
        return None, exc, start, time.perf_counter()
    return output, None, start, time.perf_counter()


def whole_passes(seconds: float, pass_size: int):
    """Stop condition: the first pass boundary after ``seconds`` of wall time.

    Whole passes keep the mix of inputs, and so the metrics, the same
    for a seed however many requests fit in the time.
    """
    return lambda requests, wall: wall >= seconds and requests % pass_size == 0


def measure(workload, inputs, check, until, tracer=None, sample=False) -> Loop:
    """Send inputs in order, cycling, until ``until(requests, wall_s)`` holds.

    Only the request is timed.  The calibration kernel runs just before and
    just after it and, with ``sample`` unless the workload is parallel, every
    calibration.SAMPLE_EVERY_S inside it (its time is taken out of the
    latency); the check runs after, outside the timing.
    """
    import calibration
    from workloads import Failure

    loop = Loop()
    cpus = _kernel_cpus(workload)
    sampled = sample and not workload.parallel
    sampler = calibration.Sampler(calibration.SAMPLE_EVERY_S if sampled else None)
    began = time.perf_counter()
    kernel_before = calibration.kernel_seconds(cpus)
    while not loop.latencies or not until(loop.requests, time.perf_counter() - began):
        index = loop.requests % len(inputs)
        traced = tracer.request(loop.requests) if tracer else contextlib.nullcontext()
        with sampler, traced:
            output, error, start, end = _call(workload.request, inputs[index])
        kernel_after = calibration.kernel_seconds(cpus)
        elapsed = end - start - sampler.paused(start, end)
        loop.latencies.append(elapsed)
        loop.scaled.append(calibration.scale(
            elapsed, [kernel_before, kernel_after, *sampler.kernels]))
        kernel_before = kernel_after
        if error is not None:
            failure = Failure("raised", repr(error))
        else:
            failure = check(index, output)
            loop.refusals += workload.refusals(output)
            loop.points += workload.points(output)
        if failure is not None:
            loop.failures.append(failure)
            loop.failed_inputs.add(index)
    return loop


def per_input_latency(latencies: list[float], pass_size: int):
    """Each input's median latency over the passes, in seconds.

    Bursts when the machine runs slower for a second or so hit some passes
    and not others; the median over passes keeps them out of the figures.
    """
    import numpy as np

    return np.median(np.reshape(latencies, (-1, pass_size)), axis=0)


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the order statistics."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(values)
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def _kernel_cpus(workload) -> list[int] | None:
    """The CPUs to run the calibration kernel on: all for a parallel workload."""
    return sorted(os.sched_getaffinity(0)) if workload.parallel else None


@contextlib.contextmanager
def _pinned(workload):
    """Pin a workload that is not parallel to one CPU, with its kernel and probes.

    Each vCPU of a shared machine has phases of its own; on one CPU the
    kernel measures the speed of the CPU the request ran on.
    """
    allowed = os.sched_getaffinity(0)
    if not workload.parallel:
        os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def probe_setup(workload, seed: int) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import cascadeg2 and finish the first request.

    Returns the time as measured and scaled to reference speed.
    """
    import calibration

    cpus = _kernel_cpus(workload)
    kernel_before = calibration.kernel_seconds(cpus)
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "first_request.py"), workload.name, str(seed)],
                   cwd=checkout.ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    return elapsed, calibration.scale(elapsed,
                                      [kernel_before, calibration.kernel_seconds(cpus)])


def _git_sha() -> str | None:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout.ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the package source, which names the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted(checkout.PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(checkout.PACKAGE)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "source_sha256": _source_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": checkout.nproc(), "cpu_count": os.cpu_count(),
        "pool_workers_configured": int(os.environ[checkout.WORKERS_VAR]),
        "mp_start_method": multiprocessing.get_start_method(),
        "blas_threads": {var: os.environ[var] for var in checkout.BLAS_THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(args, size: int | None = None, probes: int = SETUP_PROBES,
                 request=None) -> tuple[dict, dict]:
    """Run one workload; return (result object, report details).

    ``size`` truncates the pass and ``request`` replaces the workload's
    request; both exist for the self-test.
    """
    import calibration
    import numpy as np
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if request is not None:
        workload = replace(workload, request=request)
    inputs = workload.inputs(np.random.default_rng(args.seed))[:size]
    details = {"environment": environment(args), "pass_size": len(inputs)}

    check = workload.checker(inputs)
    details["environment"]["pinned_to_one_cpu"] = not workload.parallel
    if not args.trace:
        with _pinned(workload):
            setup = [probe_setup(workload, args.seed) for _ in range(probes)]
            loop = measure(workload, inputs, check, whole_passes(args.seconds, len(inputs)),
                           sample=True)
        loops = [loop]
        values = _end_to_end([s for _, s in setup], loop.scaled, len(inputs))
        values["peak_rss_mb"] = _peak_rss_mb()
        details["as_measured"] = _end_to_end([m for m, _ in setup], loop.latencies,
                                             len(inputs))
        details["kernel_ms"] = 1e3 * calibration.REFERENCE_S * statistics.median(
            m / s for m, s in zip(loop.latencies, loop.scaled))
        units = dict(END_TO_END)
        details["samples"] = {"setup_probes": probes, "inputs": len(inputs),
                              "passes": loop.requests // len(inputs),
                              "requests": loop.requests}
    else:
        OUT_DIR.mkdir(exist_ok=True)
        worker_dir = tempfile.mkdtemp(prefix="workers-", dir=OUT_DIR)
        try:
            with _pinned(workload):
                plain = measure(workload, inputs, check,
                                whole_passes(args.seconds / 2.0, len(inputs)))
                with tracing.Tracer(Path(worker_dir)) as tracer:
                    traced = measure(workload, inputs, check,
                                     lambda n, wall: n >= plain.requests, tracer=tracer)
            tracer.collect()
        finally:
            shutil.rmtree(worker_dir)
        tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl")
        loops = [plain, traced]
        values = tracing.layer_metrics(tracer.spans, tracer.counts, traced.requests,
                                       traced.points)
        values["trace.overhead_ms"] = 1e3 * (traced.busy - plain.busy) / traced.requests
        values["trace.overhead_pct"] = 100.0 * (traced.busy / plain.busy - 1.0)
        units = dict(tracing.METRICS)
        details["environment"]["pool_workers_observed"] = tracer.pool_workers_observed()
        details["samples"] = {"requests_untraced": plain.requests,
                              "requests_traced": traced.requests,
                              "spans": len(tracer.spans)}

    failures = [f for loop in loops for f in loop.failures]
    details["requests"] = sum(loop.requests for loop in loops)
    details["refusals"] = sum(loop.refusals for loop in loops)
    details["failures"] = failures
    # Every request is checked; an input counts once, as failed if any of
    # its requests failed, so the counts do not depend on how many passes fit.
    result = {
        "correct": not any(f.kind != "refused" for f in failures),
        "attempted": len(inputs),
        "failed": len(set().union(*(loop.failed_inputs for loop in loops))),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, details


def _end_to_end(setup: list[float], latencies: list[float], pass_size: int) -> dict:
    """setup_s, throughput_per_s and latency percentiles from seconds.

    The percentiles are Harrell-Davis estimates, weighted means of all the
    per-input latencies, which vary less from seed to seed than the one or
    two order statistics a plain percentile of a pass of inputs picks.
    """
    typical = per_input_latency(latencies, pass_size)
    p50, p90 = (harrell_davis(1e3 * typical, p) for p in (0.5, 0.9))
    return {"setup_s": statistics.median(setup),
            "throughput_per_s": len(typical) / typical.sum(),
            "latency_p50_ms": float(p50), "latency_p90_ms": float(p90)}


def report(result: dict, details: dict) -> list[str]:
    """Human-readable lines: environment, metrics with units and sample counts, failures."""
    import calibration

    env = details["environment"]
    name = env["workload"]
    lines = ["environment " + json.dumps(env, sort_keys=True)]
    rate = result["failed"] / result["attempted"]
    lines.append(f"{name}: pass of {details['pass_size']} inputs; samples "
                 + json.dumps(details["samples"], sort_keys=True))
    lines.append(f"{name}: error_rate {rate:.6g} ({result['failed']}/{result['attempted']} "
                 f"inputs failed; {len(details['failures'])}/{details['requests']} "
                 f"requests), route refusals {details['refusals']}, "
                 f"correct {str(result['correct']).lower()}")
    measured = details.get("as_measured", {})
    if measured:
        lines.append(f"{name}: times at reference speed (calibration kernel "
                     f"{1e3 * calibration.REFERENCE_S:g} ms); the kernel took a median "
                     f"{details['kernel_ms']:.4g} ms in this run")
    for metric, entry in result["metrics"].items():
        raw = f"   as measured {measured[metric]:.6g}" if metric in measured else ""
        lines.append(f"{name}: {metric:<42} {entry['value']:>14.6g} {entry['unit']}{raw}")
    kinds = Counter((failure.kind, failure.detail) for failure in details["failures"])
    for (kind, detail), count in sorted(kinds.items()):
        lines.append(f"{name}: FAILED x{count} [{kind}] {detail}")
    return lines


def run_all(args) -> int:
    """Run every workload in its own process and print one combined report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=checkout.ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="wall time to measure, rounded up to whole passes "
                             "(trace: split untraced/traced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        checkout.prepare()
    except checkout.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, details = run_workload(args)
    print("\n".join(report(result, details)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
