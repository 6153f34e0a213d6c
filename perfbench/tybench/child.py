"""Child-process entry of the benchmark.

``child.py setup WORKLOAD SPEC_JSON``
    One cold set-up of an in-process workload: import what the workload
    runs and warm the run-private disk cache, print ``ready``, exit.
``child.py run TYBEC_ARGS...``
    ``tybec TYBEC_ARGS...`` under this benchmark's layer wrappers (the
    traced `cli` ops and the traced `serve` server).  The spans go to
    ``$PERFBENCH_SPANS`` as JSON when ``main`` returns.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


def _setup(workload: str, spec: dict) -> None:
    if workload == "sweep":
        from tybench.workloads import suite_config

        from repro.suite import WorkloadSuite

        WorkloadSuite(suite_config(spec)).run()
    elif workload == "verify":
        from tybench.workloads import verify_family

        verify_family(spec["family"], spec["seed"])
    else:
        raise SystemExit(f"no in-process set-up for {workload!r}")
    print("ready", flush=True)


def _run(argv: list[str]) -> int:
    from repro.obs.trace import Tracer

    import repro.cli
    from tybench import layers

    tracer = Tracer(collect=True, trace_id=os.environ["PERFBENCH_TRACE_ID"],
                    root_parent=os.environ.get("PERFBENCH_PARENT") or None)
    layers.install(tracer, layers.WORKLOAD_GROUPS[os.environ["PERFBENCH_WORKLOAD"]])
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    # interpreter start runs from the parent's spawn to this file's first
    # line; the imports (and installing the wrappers) from there to now
    for site, start, end in (("cli.interp_start", spawned, STARTED),
                             ("cli.import", STARTED, time.perf_counter())):
        tracer.emit(layers.span_record(tracer.trace_id, f"{os.getpid():x}-{site}", site,
                                       start, end, parent=tracer.root_parent))
    try:
        with tracer.span("cli.main"):
            return repro.cli.main(argv)
    finally:
        Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(tracer.drain()))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        _setup(rest[0], json.loads(rest[1]))
        return 0
    return _run(rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
