"""Run one CLI op in this (fresh) interpreter and report how it went.

Usage: python3 bench/child.py RESULT_JSON TRACE_DIR|- OP_ID ARGV...

factoridiv.cli is imported first, and the moment the import completes is
reported (time.monotonic(), which is system-wide), so the caller can time
interpreter start plus import from its own spawn time.  The op time
covers ``factoridiv.cli.main(argv)`` and the flush of its stdout, whose
target the caller attached.  Before and after the op, the interpreter
times the reference kernel of speed.py.  With a TRACE_DIR the public
functions of every module are wrapped first (see layers.py) and the spans
are written to TRACE_DIR/trace.json at the end.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import factoridiv.cli as cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from speed import reference_time  # noqa: E402


def main() -> int:
    result_path, trace_dir, op_id, *argv = sys.argv[1:]
    ref_before = reference_time()
    tracer = None
    if trace_dir != "-":
        import layers

        tracer = layers.install(op_id, trace_dir)
    crashed = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        crashed = traceback.format_exc()
        rc = None
    sys.stdout.flush()
    elapsed = time.perf_counter() - t0
    ref_after = reference_time()
    if crashed:
        sys.stderr.write(crashed)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # the largest pool worker, for scan --jobs 2 (ru_maxrss is in KiB)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer is not None:
        tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(
            {"rc": rc, "crashed": bool(crashed), "elapsed_s": elapsed,
             "imported_at": IMPORTED_AT, "peak_rss_kib": own + kids,
             "ref_s": [ref_before, ref_after]},
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
