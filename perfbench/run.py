"""Benchmark of hyperq: four closed-loop workloads, checked op by op.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload witness-search --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each run sets the workload up (``import hyperq``, input generation, warm-up),
runs ops one after another for ``--seconds`` seconds, checks every op's output
and prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
``--workload all`` runs every workload in turn in child processes and prints a
table of both.  DESIGN.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("witness-search", "born-transform", "interference-sweep", "cli")
SETUP_REPEATS = 11  # set-ups per run; setup_s is their median
SPAN_LIMIT = 300_000  # spans a traced run keeps in memory
OUT = ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p90_us": "us",
    "peak_rss_mb": "MiB",
}

LAYERS = ("algebra", "space", "born", "interference", "witness", "cli", "bench")
CALL_NAMES = (
    "algebra.norm_sq",
    "space.from_list",
    "space.verify",
    "space.change_basis",
    "born.decompose",
    "born.extract_model",
    "born.transform_probabilities",
    "interference.trig_law",
    "interference.hyp_law",
    "interference.classify",
    "witness.search",
    "witness.verify",
    *(f"cli.main.{sub}" for sub in ("classify", "interfere", "transform", "verify", "witness")),
)
BORN_ERRORS = (
    "NotUnitaryError",
    "NotNormalizedError",
    "DegenerateNormError",
    "PreconditionError",
    "ConstraintViolatedError",
)
PER_LAYER = {
    "failed_ratio": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    **{f"{name}.us": "us" for name in CALL_NAMES},
    "born.decomposable_ratio": "ratio",
    **{f"born.rejected.{err}": "ratio" for err in BORN_ERRORS},
    "born.spurious_rejects": "ratio",
    "born.route_gap.max": "1",
    "born.linalg.max_err": "1",
    "born.closed_form.max_err": "1",
    "interference.regime.trig": "ratio",
    "interference.regime.hyp": "ratio",
    "interference.regime.boundary": "ratio",
    "interference.crashes": "ratio",
    "interference.rejected": "ratio",
    "interference.hyp_law.max_rel_err": "ratio",
    "interference.trig_law.max_rel_err": "ratio",
    "witness.found_ratio": "ratio",
    "witness.exhausted": "ratio",
    "cli.startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.stdout_bytes": "B",
    "cli.exit_mismatch": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(wl, seconds, tracer):
    """Run ops in batches until ``seconds`` have passed.

    An op's latency is the time of its calls into hyperq (for cli, of its
    child process); generating inputs and checking outputs happen between
    ops and are not timed.  Throughput is the median over batches of the
    batch's ops over their summed latency.  A traced run alternates untraced
    and traced batches, so both rates come from the same stretch of time.

    The speed of the shared machine drifts by +-20% over a few seconds, with
    CPU time tracking wall time, so every latency is scaled to a reference
    speed: multiplied by ``wl.CAL_NOMINAL`` over the mean of the calibration
    times ``wl.calibrate()`` takes just before and just after its group of
    ``wl.cal_ops`` ops (DESIGN.md has the measurements behind this).
    """
    from workloads import Layers

    layers = {False: Layers(), True: Layers(tracer) if tracer is not None else None}
    # 8 bytes an op, so peak_rss_mb hardly grows with the number of ops run
    latencies, rates = array("d"), {False: [], True: []}
    failures = {}
    attempted = 0
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    cal = wl.calibrate()
    traced = True
    # until the deadline, and for at least one batch of each kind the run records
    kinds = (False, True) if tracer is not None else (False,)
    while time.perf_counter() < deadline or not all(rates[k] for k in kinds):
        traced = tracer is not None and not traced and not tracer.full()
        L = layers[traced]
        batch = []
        for _ in range(wl.batch // wl.cal_ops):
            group = []
            for _ in range(wl.cal_ops):
                inp = wl.next_input()
                if traced:
                    root = tracer.begin_op(attempted)
                start = clock()
                try:
                    out = wl.op(L, inp)
                except Exception as exc:  # checked below: every crash is a failed op
                    out = exc
                end = clock()
                if traced:
                    tracer.end_op(root, start, end)
                    wl.after_traced_op(L, inp)
                group.append(end - start)
                attempted += 1
                reason = wl.check(inp, out)
                if reason:
                    failures[reason] = failures.get(reason, 0) + 1
            cal, previous = wl.calibrate(), cal
            scale = wl.CAL_NOMINAL / (0.5 * (cal + previous))
            batch.extend(ns * scale for ns in group)
        rates[traced].append(len(batch) / (sum(batch) / 1e9))
        if not traced:
            latencies.extend(batch)
    return attempted, failures, latencies, {t: statistics.median(r) for t, r in rates.items() if r}


def peak_rss_mb(include_children):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024  # ru_maxrss is in KiB on Linux


def setup_in_child(args):
    """Unscaled set-up time of a fresh process."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def median_setup_s(args, first, cals):
    """Median of SETUP_REPEATS set-ups, each scaled to the reference speed.

    ``first`` is this process's own set-up and ``cals`` the ``startup_s``
    calibrations taken just before and after it.  Every further set-up runs
    in a child and is followed by one more calibration, so each is scaled by
    the mean of the calibrations on either side of it.
    """
    raw = [first]
    for _ in range(SETUP_REPEATS - 1):
        raw.append(setup_in_child(args))
        cals.append(calibration.startup_s())
    nominal = calibration.STARTUP_NOMINAL_S
    return statistics.median(t * nominal / (0.5 * (cals[i] + cals[i + 1])) for i, t in enumerate(raw))


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(wl, tracer, rates):
    import accuracy
    import probe

    workdir = ROOT / OUT
    probe.layer_calls(tracer, workdir)
    medians, shares = tracer.summary()
    tracer.write(workdir / f"spans-{wl.name}.csv")
    c = wl.counters
    points = c["interference.points"]
    traced, untraced = rates[True], rates[False]
    # counts are per op or per unit of work, so they do not grow with the run
    return {
        **{f"{layer}.share": shares.get(layer, 0.0) for layer in LAYERS},
        **{f"{name}.us": medians[name] for name in CALL_NAMES},
        "born.decomposable_ratio": ratio(c["born.decomposable"], c["born.decompositions"]),
        **{f"born.rejected.{err}": ratio(c[f"born.rejected.{err}"], c["born.invalid"])
           for err in BORN_ERRORS},
        "born.spurious_rejects": ratio(c["born.spurious_rejects"], c["born.valid"]),
        **{f"interference.regime.{r}": ratio(c[f"interference.regime.{r}"], points)
           for r in ("trig", "hyp", "boundary")},
        "interference.crashes": ratio(c["interference.crashes"], points),
        "interference.rejected": ratio(c["interference.rejected"], points),
        "witness.found_ratio": ratio(c["witness.found"], c["witness.searches"]),
        "witness.exhausted": ratio(c["witness.exhausted"], c["witness.single_draws"]),
        "cli.stdout_bytes": ratio(c["cli.stdout_bytes"], c["cli.ops"]),
        "cli.exit_mismatch": ratio(c["cli.exit_mismatch"], c["cli.ops"]),
        "trace.ops_per_s": traced,
        "trace.untraced_ops_per_s": untraced,
        "trace.overhead": untraced / traced - 1.0,
        **probe.import_times(ROOT),
        **accuracy.metrics(),
    }


def run_one(args):
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / OUT).mkdir(exist_ok=True)
    cals = [] if args.setup_only else [calibration.startup_s()]
    start = time.perf_counter()
    import workloads

    wl = workloads.make(args.workload, args.seed, ROOT)
    try:
        wl.setup()
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        cals.append(calibration.startup_s())
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(SPAN_LIMIT)
        attempted, failures, latencies, rates = measure(wl, args.seconds, tracer)
        rss = peak_rss_mb(include_children=args.workload == "cli")
        # ``failed`` counts wrong answers outside the known defects; ops that
        # hit a known defect count in the per-layer failed_ratio with the rest
        failed = sum(n for reason, n in failures.items() if reason not in wl.KNOWN)
        if args.trace:
            values = {"failed_ratio": sum(failures.values()) / attempted,
                      **layer_metrics(wl, tracer, rates)}
            units = PER_LAYER
        else:
            deciles = statistics.quantiles(latencies, n=10)
            values = {
                "setup_s": median_setup_s(args, setup_s, cals),
                "ops_per_s": rates[False],
                "op_p50_us": deciles[4] / 1e3,
                "op_p90_us": deciles[8] / 1e3,
                "peak_rss_mb": rss,
            }
            units = END_TO_END
    finally:
        wl.close()
    for reason, count in sorted(failures.items()):
        known = "known defect" if reason in wl.KNOWN else "UNEXPECTED"
        print(f"{args.workload}: {count} failed op(s), {known}: {reason}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    table = {}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            sys.stderr.write(proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            table.setdefault(name, {}).update(result["metrics"])
            table[name]["correct"] = table[name].get("correct", True) and result["correct"]
            print(f"== {name} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"{name:20} {metric:38} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(table))
    return 0 if all(t["correct"] for t in table.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hyperq" / "__init__.py").is_file():
        print(f"error: no hyperq sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
