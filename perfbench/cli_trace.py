"""Child process of the traced cli run.

    python3 perfbench/cli_trace.py JOBS.json

Reads {"argvs": [...], "trace_file": path}, imports `triadeform.cli`, calls
`cli.main(argv)` for every argv once untraced and once with the tracer
installed, writes the trace file, and prints one JSON object: the exit code
and standard output of every call in both passes, the per-call times, and
the per-layer metrics.  The parent checks the outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time

from trace_layers import Tracer, layer_metrics


def one_pass(cli, argvs, tracer=None):
    out = []
    for i, argv in enumerate(argvs):
        stdout = io.StringIO()
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error exits the interpreter with 1
                code = 1
        out.append((code, stdout.getvalue(), time.perf_counter() - t0))
        if tracer is not None:
            tracer.job = "oracle"
    return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    from triadeform import cli

    plain = one_pass(cli, spec["argvs"])
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(cli, spec["argvs"], tracer)
    finally:
        tracer.uninstall()
    plain_s = [t for _, _, t in plain]
    metrics = layer_metrics(tracer, plain_s, [t for _, _, t in traced], spec["import_s"], statistics.median(plain_s))
    tracer.dump(spec["trace_file"], {"info": {"argvs": spec["argvs"]}})
    print(json.dumps({"plain": plain, "traced": traced, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
