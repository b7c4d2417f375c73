"""One fresh interpreter of the benchmark.

    python3 perfbench/child.py RESULT_JSON import
    python3 perfbench/child.py RESULT_JSON run|trace JOBS RUN_ID [MVSDE ARGS...]

Imports ``mvsde.cli`` and stamps the moment the import returns. In ``run``
and ``trace`` mode it then runs the command through ``mvsde.cli.main`` in
process; ``trace`` mode first installs the span tracer and writes the spans
next to RESULT_JSON. The measurements go to RESULT_JSON.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    result_file, mode = argv[0], argv[1]
    import mvsde.cli

    out = {"import_done": time.perf_counter()}
    if mode == "import":
        out["versions"] = _versions()
    else:
        jobs, run_id, cli_args = int(argv[2]), argv[3], argv[4:]
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer(run_id)
            tracing.install(tracer)
        start = time.perf_counter()
        try:
            if tracer is None:
                mvsde.cli.main(cli_args, standalone_mode=False)
            else:
                tracer.call(tracing.ROOT, mvsde.cli.main, cli_args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of the command is a failed run, not a benchmark crash
            traceback.print_exc()
            code = 1
        out["wall_s"] = time.perf_counter() - start
        out["exit_code"] = code
        usage = resource.getrusage(resource.RUSAGE_SELF)
        out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        out["cpu_s"] = usage.ru_utime + usage.ru_stime
        if tracer is not None:
            out["layers"] = tracer.metrics(jobs)
            tracer.dump(result_file + ".spans.json")
    with open(result_file, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
