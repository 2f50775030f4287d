"""Run one pass of benchmark operations in this process and write the results.

Usage: python3 perfbench/child.py OPS.json OUT.json [SPANS.json.gz]

OPS.json is a list of `mwl` argument lists.  Each runs in order, in
process, through `mwl.cli.run`; the next starts when the previous one
returns.  With a third argument the layer functions are traced and the
spans are written there when the pass ends.  OUT.json receives, per
operation, the exit code, elapsed time, captured output and its sha256,
and for the pass its wall time, user+sys CPU time and peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mwl  # noqa: E402
import mwl.cli  # noqa: E402


def _run_op(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mwl.cli.run(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # one broken operation must not hide the others
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - t0
    text = out.getvalue()
    return {"code": code, "elapsed_ns": elapsed, "stdout": text,
            "stderr": err.getvalue()[-4000:], "error": error,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    ops_path, out_path = argv[:2]
    spans_path = argv[2] if len(argv) > 2 else None
    if not Path(mwl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported mwl from {mwl.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 1
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    cpu0, t0 = _cpu_s(), time.perf_counter_ns()
    results = [_run_op(op) for op in ops]
    wall_ns, cpu = time.perf_counter_ns() - t0, _cpu_s() - cpu0

    record = {"wall_s": wall_ns / 1e9, "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "ops": results}
    if tracer is not None:
        record["layers"] = tracer.summary()
        tracer.write_spans(spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
