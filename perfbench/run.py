"""hlbench benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program under test is `src/hlbench`
there.  The workloads, `search` and `checks-files`, are described in
workloads.py and README.md.

Each run takes its set-up time as the median over SETUP_SAMPLES fresh
processes that import `hlbench.cli` and write the inputs, half of them
before and half after the workload, and the workload's own process.  The
workload runs in that one child process under an address-space limit, so an
op that allocates without bound fails the run and not the machine.  Timed figures are scaled to a fixed
machine speed by a reference loop timed next to each op and each set-up
(see worker.py); the record line gives them unscaled too.  With --trace 0
it prints the end-to-end metrics, with --trace 1 the per-layer metrics and
the tracing overhead.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.  `failed` counts ops with a
wrong exit status or a failed report check; `correct` is false when any
report gave a wrong answer (an exit status 0/1 verdict or a report that
fails its check, or that differs between two runs of the same op).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

SETUP_SAMPLES = 8
# Timed figures are given at the machine speed at which worker.reference_loop()
# takes REFERENCE_NS; an op's reference time is the median of the reference
# times measured before it and the REFERENCE_WINDOW ops on each side.
REFERENCE_NS = 1_000_000
REFERENCE_WINDOW = 5
MEMORY_LIMIT_BYTES = 2 << 30
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def _limit_memory() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_LIMIT_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_worker(mode: str, args, deadline: float) -> dict:
    """Run one worker process under the memory limit; its last stdout line, parsed."""
    argv = [sys.executable, WORKER, mode, args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, preexec_fn=_limit_memory)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{mode} worker did not finish within {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(".git", *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def ops_per_s(passes: list[dict]) -> float:
    """Passing ops over the wall time of the passes."""
    ok = sum(f is False for p in passes for f in p["failed"])
    return ok / (sum(p["wall_ns"] for p in passes) / 1e9)


def scaled(ns: float, ref_ns: float) -> float:
    """`ns` scaled to the machine speed at which the reference loop takes REFERENCE_NS."""
    return ns * REFERENCE_NS / ref_ns


def scaled_latency(p: dict) -> list[float]:
    """Each op's time in pass `p`, scaled by the median reference time of the ops around it."""
    refs = p["ref_ns"]
    return [scaled(ns, statistics.median(refs[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]))
            for i, ns in enumerate(p["latency_ns"])]


def latency_metrics(per_pass: list[list[float]], failed: list[bool]) -> dict[str, tuple[float, str]]:
    # Each op is timed at the median of its runs: a run that the scaling
    # misjudges, because the machine changed speed next to it, is an outlier
    # either way.
    typical = [statistics.median(times) for times in zip(*per_pass)]
    op_time_ns = sum(typical)
    # A failed op counts as slower than every passing op: it takes a whole pass's op time.
    latency = sorted(op_time_ns if f else ns for ns, f in zip(typical, failed))
    return {
        "ops_per_s": ((len(typical) - sum(failed)) / (op_time_ns / 1e9), "ops/s"),
        "op_p50_ms": (statistics.median(latency) / 1e6, "ms"),
        "op_p90_ms": (statistics.quantiles(latency, n=10)[8] / 1e6, "ms"),
    }


def end_to_end(result: dict, setup: list[dict]) -> dict[str, tuple[float, str]]:
    passes = [p for p in result["passes"] if not p["traced"]]
    failed = [any(flags) for flags in zip(*(p["failed"] for p in passes))]
    attempted = sum(len(p["failed"]) for p in passes)
    failures = sum(sum(p["failed"]) for p in passes)
    metrics = {"setup_s": (statistics.median(scaled(s["setup_ns"], s["setup_ref_ns"]) for s in setup) / 1e9, "s")}
    metrics.update(latency_metrics([scaled_latency(p) for p in passes], failed))
    metrics["pass_rate"] = ((attempted - failures) / attempted, "ratio")
    metrics["peak_rss_mib"] = (result["peak_rss_kib"] / 1024, "MiB")
    return metrics


def wall_clock(result: dict, setup: list[dict]) -> dict[str, float]:
    """The timed end-to-end figures unscaled, for the record."""
    passes = [p for p in result["passes"] if not p["traced"]]
    failed = [any(flags) for flags in zip(*(p["failed"] for p in passes))]
    figures = {name: value for name, (value, _) in latency_metrics([p["latency_ns"] for p in passes], failed).items()}
    figures["setup_s"] = statistics.median(s["setup_ns"] for s in setup) / 1e9
    return figures


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    ops = sum(len(p["bytes"]) for p in traced)
    metrics = {name: tuple(v) for name, v in result["layers"].items()}
    metrics["cli.report_bytes"] = (sum(sum(p["bytes"]) for p in traced) / ops, "bytes")
    metrics["trace.ops_per_s"] = (ops_per_s(traced), "ops/s")
    metrics["trace.untraced_ops_per_s"] = (ops_per_s(untraced), "ops/s")
    metrics["trace.overhead_pct"] = (100 * (ops_per_s(untraced) / ops_per_s(traced) - 1), "%")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "hlbench", "cli.py")):
        print("perfbench: run from the root of an hlbench checkout (no src/hlbench/cli.py here)", file=sys.stderr)
        return 1

    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setup = [run_worker("setup", args, deadline) for _ in range(SETUP_SAMPLES // 2)]
        result = run_worker("run", args, deadline)
        setup.append(result)
        setup += [run_worker("setup", args, deadline) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)

    passes = result["passes"]
    attempted = sum(len(p["failed"]) for p in passes)
    failed = sum(sum(p["failed"]) for p in passes)
    wrong = sum(sum(p["wrong"]) for p in passes)
    digests = result["digests"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "hlbench_version": result["hlbench_version"],
        "passes": [
            {"traced": p["traced"], "ops": len(p["failed"]), "wall_s": p["wall_ns"] / 1e9, "ops_per_s": ops_per_s([p]),
             "reference_ms": statistics.median(p["ref_ns"]) / 1e6}
            for p in passes
        ],
        "wall_clock": wall_clock(result, setup),
        "setup_samples_s": [x["setup_ns"] / 1e9 for x in setup],
        "setup_reference_ms": [x["setup_ref_ns"] / 1e6 for x in setup],
        "error_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "failures": result["failures"],
        "digest_of_digests": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "report_digests": digests,
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    facts = record["machine"]
    print(f"machine: nproc={facts['nproc']} python={facts['python']} git={facts['git_sha']} cpu={facts['cpu']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:14.4f} {unit}")
    print(f"  {'error_rate':32} {failed / attempted:14.4f} ratio ({failed} of {attempted} ops failed)")
    if not args.trace:
        print("  unscaled: " + ", ".join(f"{name} {value:.4f}" for name, value in record["wall_clock"].items()))
    for f in result["failures"]:
        print(f"  failed op {f['op']} [{f['kind']}] {' '.join(f['argv'])}: {f['message']}")
    print(f"  report digests: {len(digests)} ops, digest of digests {record['digest_of_digests']}")
    print(json.dumps({"perfbench_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
