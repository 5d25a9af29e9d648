"""The poshan benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (set-up, repeated and timed),
then runs repeats of the workload, each in a fresh single-threaded process
(``repeat.py``), while at least half of another repeat falls within
``--seconds`` (there is always at least one).  With ``--trace 0`` it
prints every end-to-end metric; with ``--trace 1`` it runs one untraced
and one traced repeat and prints every per-layer metric plus the tracing
overhead.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files go to
``.perfbench_work/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import report  # noqa: E402  (needs ROOT on the path)
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


def metric_units(section: str) -> list:
    """(name, unit) of each metric in a section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[section]]


def program_present() -> bool:
    """The package must come from this checkout's ``src``, not elsewhere."""
    src = ROOT / "src"
    if not (src / "poshan" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import poshan

    return Path(poshan.__file__).resolve().is_relative_to(src.resolve())


def run_child(workload: str, seed: int, inputs: Path, work: Path, traced: bool, deadline: float) -> dict:
    spec_path, out_path = work / "spec.json", work / "result.json"
    work.mkdir(parents=True, exist_ok=True)
    spec_path.write_text(json.dumps({"workload": workload, "seed": seed, "inputs": str(inputs),
                                     "work": str(work), "traced": traced}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "repeat.py"), str(spec_path), str(out_path)],
        cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"repeat process exited with {proc.returncode}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def consistency_problems(repeats: list) -> list:
    """Every repeat (traced or not) must train the same bytes and predict
    the same reports: tracing and repetition may not change results."""
    problems = []
    for key in ("trained_sha256", "report_sha256", "val_loss_final", "train_log"):
        values = {json.dumps(r.get(key), sort_keys=True) for r in repeats}
        if len(values) > 1:
            problems.append(f"repeats disagree on {key}")
    return problems


def end_to_end(untraced: list, setup: list, scaled: bool) -> tuple:
    """The end-to-end metrics of a run, and the latency summary behind them.

    With ``scaled``, times are nominal seconds (see ``report.SpeedSampler``);
    otherwise raw wall seconds.  Per-pass and per-record samples are pooled
    over the repeats; every other metric is the median over repeats.
    """
    tag = "_scaled_s" if scaled else "_s"

    def seconds(r, stage):
        return r["stage" + tag].get(stage, math.inf)

    latency_ms = [1000.0 * s for r in untraced for s in r["predict_latency" + tag]]
    passes = [s for r in untraced for s in r["derive_pass" + tag]]
    latency = report.latency_summary(latency_ms) if latency_ms else None
    per_repeat = {
        "train_units_per_s": [r["attempted"]["train"] / seconds(r, "train") for r in untraced],
        "val_loss_final": [r.get("val_loss_final", 0.0) for r in untraced],
        "predict_records_per_s": [r["predict_records"] / seconds(r, "predict.poshan") for r in untraced],
        "baseline_predict_records_per_s": [
            2 * r["predict_records"] / (seconds(r, "predict.lstm") + seconds(r, "predict.posat"))
            for r in untraced],
        "peak_rss_mib": [r["peak_rss_mib"] for r in untraced],
    }
    values = {name: report.median(v) for name, v in per_repeat.items()}
    values.update({
        "setup_s": report.median([s[1] if scaled else s[0] for s in setup]),
        "derive_records_per_s": untraced[0]["raw_records"] / report.median(passes) if passes else 0.0,
        "predict_ms_p50": latency["p50"] if latency else 0.0,
        "predict_ms_p90": latency["p90"] if latency else 0.0,
    })
    return values, latency


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    if not program_present():
        print(f"poshan sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / WORK_DIR / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"

    problems = []
    intervals, digests = [], []
    sampler = report.SpeedSampler()
    sampler.start()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        digests.append(workloads.setup(workload, args.seed, inputs))
        intervals.append((t0, time.perf_counter()))
    sampler.stop()
    setup = [(e - s, sampler.scaled(s, e)) for s, e in intervals]  # (raw, scaled) seconds
    if any(d != digests[0] for d in digests):
        problems.append("set-up wrote different inputs on repetition")

    def repeat(index: int, traced: bool) -> dict:
        return run_child(args.workload, args.seed, inputs, work / f"repeat{index}", traced, deadline)

    untraced, traced = [], []
    measure_until = time.monotonic() + args.seconds
    if args.trace:
        untraced.append(repeat(0, traced=False))
        traced.append(repeat(1, traced=True))
    else:
        # another repeat starts only if at least half of one as long as
        # the last falls within --seconds
        last = 0.0
        while not untraced or time.monotonic() + last / 2 <= measure_until:
            started = time.monotonic()
            untraced.append(repeat(len(untraced), traced=False))
            last = time.monotonic() - started
    every = untraced + traced
    for i, r in enumerate(every):
        problems.extend(f"repeat {i}: {p}" for p in r["problems"])
    problems.extend(consistency_problems(every))
    attempted = sum(sum(r["attempted"].values()) for r in every)
    failed = sum(sum(r["failed"].values()) for r in every)

    e2e, latency = end_to_end(untraced, setup, scaled=True)
    raw, _ = end_to_end(untraced, setup, scaled=False)

    print("env " + json.dumps(untraced[0]["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced repeat(s), "
          f"set-up x{SETUP_REPEATS}, {attempted} operations, {failed} failed")
    print(f"  {'metric':32s} {'scaled':>12s} {'raw wall':>12s}")
    for name, unit in metric_units("end_to_end"):
        print(f"  {name:32s} {e2e[name]:12.6g} {raw[name]:12.6g} {unit}")
    if latency:
        print(f"  predict latency over {latency['count']} records: p50 {latency['p50']:.3f} ms, "
              f"p90 {latency['p90']:.3f} ms ({latency['beyond_p90']} beyond p90; "
              f"highest percentile with {report.MIN_BEYOND}+ beyond: {latency['highest_supported']})")
    for p in problems:
        print(f"  PROBLEM {p}")

    if args.trace:
        traced_repeat = traced[0]
        values = dict(traced_repeat["layers"])
        values["trace.overhead"] = (sum(traced_repeat["stage_scaled_s"].values())
                                    / sum(untraced[0]["stage_scaled_s"].values()) - 1.0)
        per_layer = metric_units("per_layer")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer}
        print("  traced spans, raw wall seconds")
        print("  span                          calls     total_s      self_s        gc_s")
        summary = traced_repeat["span_summary"]
        for name in sorted(summary, key=lambda n: -summary[n]["self_s"]):
            row = summary[name]
            print(f"  {name:28s} {row['calls']:7d} {row['total_s']:11.4f} {row['self_s']:11.4f} "
                  f"{row['gc_s']:11.4f}")
        for name, unit in per_layer:
            print(f"  {name:32s} {values[name]:.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in metric_units("end_to_end")}

    outcome = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (work / "outcome.json").write_text(json.dumps({
        **outcome, "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup": setup, "raw_wall_metrics": raw, "latency": latency, "problems": problems,
        "env": [r["env"] for r in every], "wall_s": time.monotonic() - start}, indent=1), encoding="utf-8")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
