"""One step of a benchmark run, in a fresh interpreter.

    call.py setup WORKLOAD SEED TINY INPUT
        Import the package's CLI and, for a curv workload, write the
        seeded input to INPUT.  Prints the monotonic clock reading taken
        once both are done.
    call.py run RESULT OUTPUT TRACE SEED CLI_ARG...
        Run ricci_halin.cli.main(CLI_ARG...) with standard output sent
        to OUTPUT, and write the call's wall time, exit code, peak RSS
        (of this process and its pool workers) and, with TRACE=1, the
        aggregated trace to RESULT as JSON.

The package is imported from the src/ directory next to perfbench/,
never from anywhere else on the path.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_cli():
    sys.path.insert(0, str(SRC))
    import ricci_halin.cli as cli

    where = Path(cli.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"ricci_halin imported from {where}, not {SRC}")
    return cli


def setup(workload: str, seed: int, tiny: bool, input_path: str) -> None:
    import_cli()
    from inputs import edge_list_text
    from workloads import TINY, WORKLOADS

    w = (TINY if tiny else WORKLOADS)[workload]
    if w.graph is not None:
        n, edges = w.graph(seed)
        Path(input_path).write_text(edge_list_text(n, edges), encoding="ascii")
    print(repr(time.monotonic()))


def run(result_path: str, output_path: str, trace: bool, seed: int,
        argv: list[str]) -> None:
    cli = import_cli()
    tracer = missing = None
    if trace:
        import layers
        from tracer import Tracer

        tracer = Tracer(seed)
        missing = layers.install(tracer)
    error = None
    with open(output_path, "w", encoding="ascii") as out:
        sys.stdout = out
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # the gate counts it; keep the traceback
            code = None
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        sys.stdout = sys.__stdout__
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "wall_s": wall,
        "code": code,
        "error": error,
        "peak_rss_kb": peak_kb,
        "trace": tracer.report() if tracer else None,
        "missing": missing,
    }
    Path(result_path).write_text(json.dumps(result), encoding="ascii")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(rest[0], int(rest[1]), rest[2] == "1", rest[3])
    elif mode == "run":
        run(rest[0], rest[1], rest[2] == "1", int(rest[3]), rest[4:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
