"""One repeat of a workload, in a fresh process.

Usage: python3 perfbench/repeat.py SPEC.json RESULT.json

``run.py`` starts this once per repeat, so the heap of one repeat never
carries into the next.  SPEC names the workload, the seed, the input and
work directories and whether to trace; RESULT receives the measurements.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import spans, workloads

    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[spec["workload"]]
    work = Path(spec["work"])
    recorder = None
    if spec["traced"]:
        recorder = spans.SpanRecorder()
        spans.instrument(recorder)
        recorder.watch_gc()
    result = workloads.run_repeat(workload, spec["seed"], Path(spec["inputs"]), work, recorder)
    if recorder is not None:
        recorder.unwatch_gc()
        result["layers"] = workloads.layer_metrics(recorder, result)
        result["span_summary"] = recorder.summary()
        recorder.dump(work / "spans.json")
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
