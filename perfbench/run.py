"""Seeded benchmark of fecam: four workloads, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload route-table --seed 1 --seconds 25 --trace 0

With --trace 0 the run measures a time-boxed closed loop, with one fresh
set-up per round, and reports the end-to-end metrics on the reference clock
(see `workloads.Clock`).  With --trace 1 it runs a fixed pass untraced and
the same pass with every public fecam function wrapped, twice each, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is the result object; the line before it is a record of
the environment and the simulation digest, which is also written under
.perfbench_out/ together with the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # one synchronous caller, no BLAS helper threads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("bulk_items_per_s", "1/s"), ("build_items_per_s", "1/s"),
              ("single_ms", "ms")]

LAYER_TOTALS = ("device", "cell", "array", "encoder", "costmodel", "config",
                "fileio", "cli")
FUNCTION_METRICS = (
    "device.pulse_for_vth.calls", "device.pulse_for_vth.self_s",
    "device.saturated_current.calls", "device.saturated_current.self_s",
    "cell.program_analog.calls", "cell.inverter.self_s",
    "array.batch_search.self_s", "array.search.self_s",
    "array.measure_bounds.self_s", "array.write_cells.self_s",
    "array.write_row.calls", "array.write_row.self_s",
    "array.inhibition_plans.self_s",
    "encoder.compile_table.self_s", "encoder.range_to_prefixes.self_s",
    "encoder.range_to_analog_entries.self_s", "encoder.lookup_many.self_s",
    "encoder.entries_match_many.calls", "encoder.entries_match_many.self_s",
    "encoder.lookup.self_s", "encoder.address_query_voltages.self_s",
    "encoder.entry_to_cells.self_s",
    "fileio.parse_array_file.self_s", "fileio.trace_csv.self_s",
    "fileio.parse_rules_file.self_s", "fileio.bounds_sweep_csv.self_s",
    "config.load_config.self_s", "costmodel.routing_report.self_s",
    "cli.main.self_s",
)
COUNT_METRICS = (("device.saturated_current.elems", "count"),
                 ("array.batch_search.row_searches", "count"),
                 ("array.match_ratio", "ratio"),
                 ("encoder.entries_emitted", "count"),
                 ("encoder.scan_ratio", "ratio"),
                 ("fileio.trace_csv.bytes", "bytes"),
                 ("trace_overhead_ratio", "ratio"),
                 ("fail_ratio", "ratio"))


def per_layer_names():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    names = [(f"{layer}.self_s", "s") for layer in LAYER_TOTALS]
    names += [(m, "count" if m.endswith(".calls") else "s")
              for m in FUNCTION_METRICS]
    return names + list(COUNT_METRICS)


def _ratio(num, den):
    return num / den if den else 0.0


HOOKS = {
    "device.saturated_current": lambda t, a, k, r: t.counts.update(
        {"device.saturated_current.elems": int(getattr(r, "size", 1))}),
    "array.batch_search": lambda t, a, k, r: t.counts.update(
        {"array.batch_search.row_searches": int(r.size),
         "array.batch_search.matches": int(r.sum())}),
    "encoder.compile_table": lambda t, a, k, r: t.counts.update(
        {"encoder.entries_emitted": r.n_entries}),
    "encoder.lookup_many": lambda t, a, k, r: t.counts.update(
        {"encoder.lookup_many.table_entries": a[0].n_entries}),
    "encoder.entries_match_many": lambda t, a, k, r: t.counts.update(
        {"encoder.lookup_many.entries_scanned":
         len(a[0]) if t.parent_name() == "encoder.lookup_many" else 0}),
    "fileio.trace_csv": lambda t, a, k, r: t.counts.update(
        {"fileio.trace_csv.bytes": len(r)}),
}


def layer_metrics(tracer, overhead: float, fail_ratio: float) -> dict:
    c = tracer.counts
    derived = {
        "array.match_ratio": _ratio(c["array.batch_search.matches"],
                                    c["array.batch_search.row_searches"]),
        "encoder.scan_ratio": _ratio(c["encoder.lookup_many.entries_scanned"],
                                     c["encoder.lookup_many.table_entries"]),
        "trace_overhead_ratio": overhead,
        "fail_ratio": fail_ratio,
    }
    metrics = {}
    for name, unit in per_layer_names():
        if name in derived:
            value = derived[name]
        elif name.count(".") == 1 and name.endswith(".self_s"):
            value = tracer.layer_self_s(name.split(".")[0])
        elif name.endswith(".self_s"):
            value = tracer.self_s[name[:-len(".self_s")]]
        elif name.endswith(".calls"):
            value = tracer.calls[name[:-len(".calls")]]
        else:
            value = c[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def end_to_end_metrics(samples, setup_times) -> dict:
    """Medians over the whole run of reference-clock times and rates."""
    import numpy as np

    def median_rate(pairs):
        return float(np.median([items / seconds for items, seconds in pairs]))

    values = {
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bulk_items_per_s": median_rate(samples.bulk),
        "build_items_per_s": median_rate(samples.build),
        "single_ms": float(np.median(samples.single)) * 1e3,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["route-table", "array-search", "cam-program", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured loop (trace 0)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks every input, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fecam" / "__init__.py").is_file():
        print(f"error: fecam sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import fecam
    if Path(fecam.__file__).resolve().parent != (src / "fecam").resolve():
        print(f"error: imported fecam from {fecam.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{stem}-{os.getpid()}"
    workdir.mkdir()
    tiny = args.size == "tiny"
    cls = wl.WORKLOADS[args.workload]
    workload = cls(args.seed, tiny, workdir) if cls is wl.Cli else cls(args.seed, tiny)
    clock = wl.Clock(scaled=args.trace == 0)
    ledger = wl.Ledger(clock)
    try:
        if args.trace == 0:
            setup_times = []
            state = workload.setup()
            samples = wl.measure(workload, state, ledger, seconds=args.seconds,
                                 setup_times=setup_times)
            metrics = end_to_end_metrics(samples, setup_times)
            digest = samples.digest()
        else:
            # alternating passes and keeping the faster of each keeps the
            # host's slow phases out of the overhead ratio
            passes = {False: [], True: []}
            digests = set()
            for traced in (False, True, False, True):
                tr = tracing.Tracer() if traced else None
                undo = tracing.install(tr, HOOKS) if traced else None
                try:
                    t0 = time.perf_counter()
                    with tr.span(f"bench.{args.workload}.setup") if traced else wl.untraced():
                        state = workload.setup()
                    got = wl.measure(workload, state, ledger, tr and tr.span,
                                     tr and tr.paused)
                    passes[traced].append((time.perf_counter() - t0, tr, got))
                finally:
                    if undo:
                        undo()
                digests.add(json.dumps(got.digest()))
            ledger.check(len(digests) == 1, "tracing changed the results")
            overhead = min(p[0] for p in passes[True]) / min(p[0] for p in passes[False])
            _, tr, samples = passes[True][0]
            digest = samples.digest()
            metrics = layer_metrics(tr, overhead, ledger.failed / ledger.attempted)
            tr.save(OUT / f"spans-{stem}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds,
        "samples": {k: len(getattr(samples, k)) for k in ("bulk", "build", "single")},
        "digest": digest, "failures": ledger.failures,
        "reference_kernel_s": ({q: float(np.quantile(clock.host, q))
                                for q in (0.1, 0.5, 0.9)} if clock.host else None),
        "env": {"git_sha": git_sha(), "python": platform.python_version(),
                "numpy": np.__version__, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "platform": platform.platform()},
    }
    raw = {k: getattr(samples, k) for k in ("bulk", "build", "single")}
    raw["setup"] = setup_times if args.trace == 0 else []
    (OUT / f"record-{stem}.json").write_text(
        json.dumps({**record, "raw_samples": raw}) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
