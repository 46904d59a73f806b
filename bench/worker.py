"""The process that runs jnum for the benchmark runner (run.py).

Serve mode (the default) is the warm worker of one workload run: it
imports ``jnum.cli``, loads the catalog fixtures, runs one warm-up op,
reports ready, and then answers one op per request line on stdin with one
JSON line on stdout, until it is told to quit. Each op calls
``jnum.cli.main`` with stdout and stderr captured and is timed around that
call alone.

``--once`` runs a single jnum command with the process's own stdout,
stderr and exit code, exactly as ``python -m jnum.cli`` would; the
catalog-cli workload uses it for its traced child processes.

With ``--trace-out FILE`` the process installs the tracer before jnum is
imported and writes its spans to FILE when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _import_jnum(tracer):
    if tracer is not None:
        tracer.time_imports()
    import jnum.catalog
    import jnum.cli
    src = (ROOT / "src").resolve()
    if src not in Path(jnum.__file__).resolve().parents:
        raise SystemExit(f"jnum imported from {jnum.__file__}, not from {src}")
    if tracer is not None:
        tracer.install()
    return jnum


def run_op(jnum, argv):
    """Call jnum.cli.main(argv): (exit code, stdout, error, seconds)."""
    out = io.StringIO()
    rc = None
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = jnum.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # an op that raises out of main is a failed op, not a dead run
        error = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), error, perf_counter() - start


def serve(warmup, tracer):
    jnum = _import_jnum(tracer)
    for load in (jnum.catalog.knot_table, jnum.catalog.gtk_families,
                 jnum.catalog.arithcomp_table, jnum.catalog.geodesic_defect_bound):
        load()
    run_op(jnum, warmup)
    reply = sys.stdout
    reply.write(json.dumps({"ready": True}) + "\n")
    reply.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if "argv" not in req:
            break
        if tracer is not None:
            tracer.op = req["op"]
        rc, out, error, seconds = run_op(jnum, req["argv"])
        reply.write(json.dumps({"rc": rc, "stdout": out, "error": error,
                                "seconds": seconds}) + "\n")
        reply.flush()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply.write(json.dumps({"maxrss_kb": maxrss_kb}) + "\n")
    reply.flush()


def once(argv, tracer):
    jnum = _import_jnum(tracer)
    try:
        return jnum.cli.main(argv)
    except Exception:
        traceback.print_exc()
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warmup", default=None, help="JSON argv of the warm-up op")
    parser.add_argument("--trace-out", default=None, help="write spans to this file")
    parser.add_argument("--op", default=None, help="op id of the --once command")
    parser.add_argument("--once", nargs=argparse.REMAINDER, default=None,
                        help="run this jnum command once and exit with its code")
    args = parser.parse_args()
    tracer = Tracer() if args.trace_out else None
    if tracer is not None and args.op is not None:
        tracer.op = args.op
    try:
        if args.once is not None:
            code = once(args.once, tracer)
        else:
            serve(json.loads(args.warmup), tracer)
            code = 0
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)
    sys.exit(code)


if __name__ == "__main__":
    main()
