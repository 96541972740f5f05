"""Run one benchmark workload on the package in ``src/`` and print its metrics.

    python3 perfbench/run.py --workload exp1-estimate|bnb-747 \
        [--seed 2024] [--seconds 50] [--trace 0|1]

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` untraced and traced passes alternate; the traced passes
give the per-layer metrics and the difference is the tracing overhead.
Every pass is checked (see checks.py). Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every check passed.
Spans and a provenance record go to ``.perfbench_out/`` in the working
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "solves_per_s": "1/s", "peak_rss_mb": "MB"}  # name -> unit


def _src_package_importable() -> str | None:
    """Import ``doseuplift`` from ``src/`` next to this directory; say why not."""
    sys.path.insert(0, str(SRC))
    try:
        import doseuplift
    except ImportError as exc:
        return f"cannot import doseuplift from {SRC}: {exc}"
    if SRC.resolve() not in Path(doseuplift.__file__).resolve().parents:
        return f"doseuplift was imported from {doseuplift.__file__}, not from {SRC}"
    return None


def _parse(argv):
    from workloads import DEFAULT_SEED, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(name: str, seed: int, sizes) -> list[float]:
    """Wall time of SETUP_REPEATS cold set-ups, each in its own interpreter."""
    sizes_json = json.dumps(asdict(sizes))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), sizes_json],
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return times


def _gap(solves) -> float:
    """Largest relative B&B gap, (bound - objective) / bound; 0 when all are optimal.

    The bound is the denominator so that a fairness solve stopped before it
    found any incumbent (objective 0) reads 1, not infinity.
    """
    gaps = [
        (s.report.best_bound - s.report.objective) / s.report.best_bound
        for s in solves
        if s.report.status == "limit" and s.report.best_bound > 0
    ]
    return max(gaps, default=0.0)


def main(argv=None, sizes=None) -> int:
    why_not = _src_package_importable()
    if why_not:
        print(f"perfbench: {why_not}", file=sys.stderr)
        return 2
    import workloads

    args = _parse(argv)
    out_dir = Path.cwd() / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, sizes or workloads.Sizes(), out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, sizes, out_dir, workdir) -> int:
    # these import doseuplift, so they load only once src/ is on sys.path
    import checks
    import provenance
    import tracing
    import workloads

    setup_times = measure_setup(args.workload, args.seed, sizes)

    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer()
    with tracing.patched(tracer) if args.trace else contextlib.nullcontext():
        inputs = workload.prepare(args.seed, sizes, workdir)

    # closed loop, one client: passes back to back while the next one, taking
    # as long as the last, still ends within --seconds (at least one pass);
    # traced runs alternate untraced and traced passes
    walls = {False: [], True: []}
    passes, traced = [], []  # traced: (run label, pass)
    t_start = time.perf_counter()
    while True:
        traced_pass = bool(args.trace) and len(walls[False]) > len(walls[True])
        tracer.run = f"pass{len(passes)}"
        with tracing.patched(tracer) if traced_pass else contextlib.nullcontext():
            t0 = time.perf_counter()
            p = workload.run(inputs)
            last = time.perf_counter() - t0
        walls[traced_pass].append(last)
        if traced_pass:
            traced.append((tracer.run, p))
        passes.append(p)
        if time.perf_counter() - t_start + last > args.seconds and (not args.trace or walls[True]):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # golden tables are recorded at the default sizes only
    golden = checks.load_golden(args.workload, args.seed) if sizes == workloads.Sizes() else None
    attempted = failed = 0
    messages: list[str] = []
    for p in passes:
        f, msgs = checks.check_pass(args.workload, p, golden)
        attempted += p.attempted
        failed += f
        messages += [m for m in msgs if m not in messages]
    correct = failed == 0 and not messages

    wall = statistics.median(walls[False])
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "solves_per_s": workload.allocation_solves / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "gap_rel": _gap(passes[0].solves),
        "fail_ratio": failed / attempted,
    }

    layers = {}
    if args.trace:
        per_run = []
        for run_id, p in traced:
            spans = [s for s in tracer.spans if s.run in ("setup", run_id)]
            m = tracing.layer_metrics(spans)
            m["experiments.csv_bytes"] = p.csv_bytes
            per_run.append(m)
        layers = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        layers["alloc.bnb_gap_rel"] = info["gap_rel"]
        first_pass = [s for s in tracer.spans if s.run == traced[0][0]]
        info["root_lps"] = [(s.info["pivots"], s.duration) for s in tracing.root_lps(first_pass)]
        layers["trace.overhead_s"] = statistics.median(walls[True]) - wall

    prov = provenance.record(ROOT, args.seed, workloads.HELD_OUT_SEED)
    _print_report(args, workload, e2e, info, walls, setup_times, attempted, failed,
                  messages, golden, layers, prov, tracing.LAYER_UNITS)

    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (out_dir / f"spans-{stem}.json").write_text(
            json.dumps([asdict(s) for s in tracer.spans], default=str)
        )
    (out_dir / f"result-{stem}.json").write_text(json.dumps({
        "provenance": prov, "end_to_end": e2e, "info": info, "per_layer": layers,
        "pass_walls": walls[False], "traced_pass_walls": walls[True], "setup_times": setup_times,
        "attempted": attempted, "failed": failed, "messages": messages,
    }, indent=1))

    chosen = layers if args.trace else e2e
    units = tracing.LAYER_UNITS if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(chosen[k]), "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def _print_report(args, workload, e2e, info, walls, setup_times, attempted, failed,
                  messages, golden, layers, prov, layer_units):
    untraced = walls[False]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"(held-out seed {prov['held_out_seed']})")
    print(f"why: {workload.why}")
    print("provenance: " + json.dumps(prov))
    print(f"{'metric':<16}{'value':>14}  {'unit':<6}samples")
    rows = [
        ("wall_s", e2e["wall_s"], "s",
         f"{len(untraced)} passes, min {min(untraced):.4f} max {max(untraced):.4f}"),
        ("setup_s", e2e["setup_s"], "s",
         f"{len(setup_times)} set-ups, min {min(setup_times):.4f} max {max(setup_times):.4f}"),
        ("solves_per_s", e2e["solves_per_s"], "1/s",
         f"{workload.allocation_solves} solves per pass, {len(untraced)} passes"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "1 process"),
        ("gap_rel", info["gap_rel"], "1", "max over the B&B solves of one pass (informational)"),
        ("fail_ratio", info["fail_ratio"], "1", f"{failed} failed / {attempted} attempted"),
    ]
    for name, value, unit, samples in rows:
        print(f"{name:<16}{value:>14.6g}  {unit:<6}{samples}")
    if layers:
        print("per-layer (traced passes, median):")
        for name, unit in layer_units.items():
            print(f"  {name:<34}{layers[name]:>16.6g}  {unit}")
    if 0 < len(info.get("root_lps", [])) <= 8:
        print("root LP per B&B call (pivots, s): "
              + ", ".join(f"({piv}, {sec:.3f})" for piv, sec in info["root_lps"]))
    print("golden table: " + ("compared" if golden is not None
                              else f"none for seed {args.seed} at these sizes; invariant checks only"))
    print("output check: " + ("passed" if not messages else f"{len(messages)} problem(s)"))
    for m in messages[:50]:
        print(f"  FAIL {m}")


if __name__ == "__main__":
    sys.exit(main())
