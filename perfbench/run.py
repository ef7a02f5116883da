"""ncbundles benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload stalk-stream --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` runs whole cycles of ops untraced for at least ``--seconds``
and reports the end-to-end metrics, with times scaled to a reference
machine speed (see ``speed.py``).  ``--trace 1`` runs the digested op
prefix twice, each op traced and then untraced, checks that every count
repeats, and reports the per-layer metrics and the tracing overhead; the
spans go to ``perfbench/out/``.  Every op's output is checked.  The last
line of stdout is the JSON result; the line before it records provenance,
failures by kind and the report digest.

``--record`` rewrites ``expected.json`` (report digests at the default
seed, claim verdicts per configuration) from the current package.
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
from collections import Counter
from pathlib import Path

import spans
import workloads
from speed import Speed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 5  # this process plus four fresh ones
MAX_ERRORS_SHOWN = 5
WORKLOADS = ("stalk-stream", "oracle-battery", "claims-cold")


def import_package():
    if not (SRC / "ncbundles" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import ncbundles
    import ncbundles.cli  # noqa: F401  (report serializer)

    return ncbundles


def make_workload(name, expected):
    """The named workload; expected=None makes claims-cold record verdicts."""
    if name == "stalk-stream":
        return workloads.StalkStream()
    if name == "oracle-battery":
        return workloads.OracleBattery()
    if name == "claims-cold":
        return workloads.ClaimsCold(
            None if expected is None else expected.get("claims", {}))
    raise ValueError(name)


def set_up(workload):
    """Import the package and build what the workload needs; timed."""
    with Speed() as speed:
        start = time.perf_counter()
        nc = import_package()
        ctx = workload.setup(nc)
        took = time.perf_counter() - start
    return nc, ctx, speed.scale(start, took)


def fresh_setup_s(name):
    """Set-up time of the workload in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--setup-only"],
        check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


class Ops:
    """Runs ops, checks each one and keeps times, reports and failures."""

    def __init__(self, nc, workload, ctx):
        self.nc, self.workload, self.ctx = nc, workload, ctx
        self.starts = []
        self.times = []
        self.reports = []
        self.kinds = []  # per op: None, or the kind of its failure
        self.extra = Counter()  # failures of the run, not of one op
        self.errors = []

    def run(self, op, tracer=None):
        fatal = (self.nc.WindowInstabilityError, AssertionError, ValueError)
        if tracer is not None:
            tracer.op_id = len(self.times)
        start = time.perf_counter()
        try:
            data, errors = self.workload.run(self.nc, self.ctx, op)
        except fatal as exc:
            data, errors, kind = b"", [repr(exc)], type(exc).__name__
        else:
            kind = "check"
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)
        self.reports.append(data)
        self.kinds.append(kind if errors else None)
        if errors:
            self.errors.append(f"op {len(self.times) - 1}: {errors[0]}")

    def check_digest(self, expected, n):
        """Mark ops whose report differs from the recorded one as failed."""
        want = expected["op_digests"]
        if n != len(want):
            raise SystemExit("perfbench: expected.json is for other ops")
        bad = [i for i in range(n)
               if hashlib.sha256(self.reports[i]).hexdigest() != want[i]]
        for i in bad:
            self.kinds[i] = self.kinds[i] or "digest"
        if bad:
            self.errors.append(f"{len(bad)} report digests differ from the "
                               "record")
        return len(bad)

    @property
    def failures(self):
        return Counter(k for k in self.kinds if k) + self.extra

    @property
    def failed(self):
        return sum(self.failures.values())


def digest(reports):
    return hashlib.sha256(b"".join(reports)).hexdigest()


def prefix_ops(workload, seed):
    return [op for c in range(workload.digest_cycles)
            for op in workload.cycle(seed, c)]


def provenance(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def run_untraced(args, workload, expected):
    nc, ctx, setup_s = set_up(workload)
    setup = [setup_s] + [fresh_setup_s(args.workload)
                         for _ in range(SETUP_SAMPLES - 1)]
    ops = Ops(nc, workload, ctx)
    cycles = 0
    with Speed() as speed:
        start = time.perf_counter()
        while (cycles < max(workload.min_cycles, workload.digest_cycles)
               or time.perf_counter() - start < args.seconds):
            for op in workload.cycle(args.seed, cycles):
                ops.run(op)
            cycles += 1
    times = [speed.scale(*op) for op in zip(ops.starts, ops.times)]
    n_digest = len(prefix_ops(workload, args.seed))
    info = {"cycles": cycles, "digest_ops": n_digest,
            "digest": digest(ops.reports[:n_digest]),
            "setup_samples_s": setup, "unscaled_ops_per_s":
            len(ops.times) / sum(ops.times), "speed_kernel_median_s":
            statistics.median(speed.took)}
    if args.seed == expected.get("seed"):
        info["digest_mismatches"] = ops.check_digest(
            expected["digests"][args.workload], n_digest)
    q = statistics.quantiles(times, n=10, method="inclusive")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (q[4] * 1e3, "ms"),
        "op_p90_ms": (q[8] * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return ops, info, metrics


def run_traced(args, workload, expected):
    """Two passes over the digested prefix, each op traced then untraced.

    Running each op untraced right after its traced run puts both at the
    same machine speed, so the gap between them is the tracing overhead.
    """
    nc = import_package()
    plan = prefix_ops(workload, args.seed)
    passes = []
    for _ in range(2):
        workloads.clear_master_caches(nc)
        tracer = spans.Tracer()
        with tracer.installed(nc, workloads):
            ctx = workload.setup(nc)
        traced, plain = Ops(nc, workload, ctx), Ops(nc, workload, ctx)
        for op in plan:
            with tracer.installed(nc, workloads):
                traced.run(op, tracer)
            plain.run(op)
        passes.append((tracer, traced, plain))

    runs = [ops for _, *both in passes for ops in both]
    info = {"ops_per_pass": len(plan), "digest": digest(passes[0][1].reports),
            "spans": len(passes[0][0].spans) // 6,
            "span_file": str(trace_path(args).relative_to(BENCH.parent))}
    if args.seed == expected.get("seed"):
        info["digest_mismatches"] = sum(
            ops.check_digest(expected["digests"][args.workload], len(plan))
            for ops in runs)
    all_ops = Ops(nc, workload, None)
    for ops in runs:
        all_ops.times += ops.times
        all_ops.kinds += ops.kinds
        all_ops.errors += ops.errors

    def fastest(side):  # per op, the faster of its two passes
        return sum(map(min, zip(*(p[side].times for p in passes))))

    share = 1 - fastest(2) / fastest(1)
    first, second = (t.layer_metrics(share) for t, _, _ in passes)
    moved = [name for name in first
             if spans.is_count(name) and first[name] != second[name]]
    if moved:
        all_ops.extra["nondeterministic-count"] += 1
        all_ops.errors.append(f"counts differ between traced runs: {moved}")
    passes[0][0].write(trace_path(args))
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    metrics = {name: (value, units[name]) for name, value in first.items()}
    return all_ops, info, metrics


def trace_path(args):
    return BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"


def record():
    """Write expected.json from the current package at the default seed."""
    out = {"seed": DEFAULT_SEED, "digests": {}}
    made = {name: make_workload(name, None) for name in WORKLOADS}
    for name, workload in made.items():
        nc, ctx, _ = set_up(workload)
        reports = []
        for op in prefix_ops(workload, DEFAULT_SEED):
            data, errors = workload.run(nc, ctx, op)
            if errors:
                raise SystemExit(f"perfbench: {name} failed: {errors}")
            reports.append(data)
        out["digests"][name] = {
            "ops": len(reports), "digest": digest(reports),
            "op_digests": [hashlib.sha256(r).hexdigest() for r in reports]}
    out["claims"] = made["claims-cold"].recorded
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (args.record or args.workload):
        ap.error("--workload is required")
    if args.record:
        record()
        return
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    workload = make_workload(args.workload, expected)
    if args.setup_only:
        print(json.dumps({"setup_s": set_up(workload)[2]}))
        return

    runner = run_traced if args.trace else run_untraced
    ops, info, metrics = runner(args, workload, expected)
    attempted = len(ops.times)
    for line in ops.errors[:MAX_ERRORS_SHOWN]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(dict(provenance(args), ops=attempted,
                          failed_op_share=ops.failed / attempted,
                          failures=dict(ops.failures), **info)))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
