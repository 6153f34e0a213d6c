"""``tybec`` — the command-line front end of the reproduction.

Sub-commands mirror the flows of the paper:

``tybec cost DESIGN.tirl``
    Parse a TyTra-IR design variant, cost it for a workload and print the
    report (Figure 2's use-case).

``tybec emit DESIGN.tirl -o DIR``
    Generate the HDL kernel, compute unit, configuration include and the
    HLS-framework integration glue.

``tybec explore --kernel sor --max-lanes 16``
    Generate lane variants by type transformation, cost each one and print
    the Figure-15 style sweep table.  With ``--clocks``, ``--forms`` or
    ``--patterns`` the sweep becomes a multi-axis design-space exploration;
    ``--dense`` evaluates it as broadcast numpy arrays and ``--pareto``
    prints the throughput/utilisation Pareto frontier.  Costing runs in
    one process: a variant costs tens of microseconds, less than handing
    it to a worker.

``tybec calibrate --device stratix-v``
    Run the one-time per-device characterisation and print (or save) the
    fitted cost database.

``tybec stream-bench``
    Run the Figure-10 sustained-bandwidth benchmark on the memory
    simulator.

``tybec flow run|sim|report``
    The RTL flow orchestration: ``run`` takes a ``.tirl`` design, emits
    its HDL into a managed run directory, elaborates it with the
    pure-Python RTL backend (or iverilog via ``--backend``), simulates
    the seeded testbench stimulus and verifies every output word and
    reduction against the kernel Python reference; ``sim`` does the same
    for a registered kernel (``--kernel/--lanes/--grid``); ``report``
    pretty-prints a stored ``result.json``.

``tybec suite run|validate|flow|diff|record-golden``
    The workload suite: cost every registered kernel across a
    kernel x device x form x lane grid and emit a canonical JSON report
    (``run``), cross-validate every costed point against the
    cycle-accurate substrate simulators and exit non-zero on disagreement
    (``validate``, with ``--tolerance`` / ``--no-cycle-accurate``),
    RTL-verify every unique design family of the grid and exit non-zero
    on any functional or cycle disagreement (``flow``), compare two
    reports field by field (``diff``, non-zero exit on any difference),
    or regenerate the checked-in golden reports after an intentional
    model change (``record-golden``; ``--validation`` for the
    cross-validation goldens, ``--flows`` for the RTL flow goldens).

``tybec cache stats|clear|warm``
    The persistent warm-start store (``TYBEC_CACHE_DIR``, default
    ``~/.cache/tybec``): report its contents, clear it, or pre-populate
    device calibrations and kernel design-family analyses so the next
    ``cost``/``explore``/``suite run`` starts warm.

``tybec serve``
    Run the persistent exploration service: one warm set of caches
    shared by every client, identical in-flight requests coalesced onto
    one underlying sweep, results streamed back as canonical NDJSON.

``tybec client cost|suite|metrics|health``
    Talk to a running service: cost one ``.tirl`` design, run (or join)
    a suite sweep, or inspect the daemon's cache/queue metrics.

``tybec trace summarize``
    Aggregate a ``repro-trace/1`` NDJSON file (``--trace`` /
    ``TYBEC_TRACE``) into per-site totals, the slowest spans and the
    critical path.

``tybec bench report``
    Merge every ``benchmarks/results/BENCH_*.json`` artifact into one
    trend table: per benchmark, the headline metrics, their gates and
    whether the stored measurement passes.

Global flags (before the sub-command): ``--trace PATH`` writes a
structured span trace of the whole invocation; ``--log-level LEVEL``
turns on run-id-correlated logging to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from collections.abc import Callable, Iterator

__all__ = ["main", "build_parser"]


class _Registered:
    """Argparse ``choices`` read from a registry when a value is checked.

    Building the parser then imports no kernel, optimizer or model
    module; only a sub-command that takes such an argument pays for it.
    Pass a ``metavar`` too, or argparse lists the choices while it builds
    the parser.
    """

    def __init__(self, names: Callable[[], list[str]]):
        self._names = names

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())


def _kernel_names() -> list[str]:
    from repro.kernels import REGISTRY

    return REGISTRY.names()


def _optimizer_names() -> list[str]:
    from repro.explore.optimizer import OPTIMIZERS

    return list(OPTIMIZERS)


def _pattern_names() -> list[str]:
    from repro.models.streaming import PatternKind

    return [p.value for p in PatternKind]


_KERNEL_CHOICES = _Registered(_kernel_names)
_OPTIMIZER_CHOICES = _Registered(_optimizer_names)
_PATTERN_CHOICES = _Registered(_pattern_names)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tybec",
        description="TyTra back-end compiler and cost model (paper reproduction)",
    )
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH",
                        help="write a structured repro-trace/1 NDJSON span "
                             "trace of this invocation to PATH (equivalent "
                             "to TYBEC_TRACE=PATH)")
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        choices=["debug", "info", "warning", "error",
                                 "critical"],
                        help="enable run-id-correlated logging to stderr at "
                             "LEVEL")
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="cost a TyTra-IR design variant")
    cost.add_argument("design", type=Path, help="path to the .tirl file")
    cost.add_argument("--device", default="stratix-v")
    cost.add_argument("--grid", type=int, nargs="+", default=[24, 24, 24],
                      help="NDRange dimensions of the workload")
    cost.add_argument("--iterations", type=int, default=1000,
                      help="kernel-instance repetitions (NKI)")
    cost.add_argument("--json", action="store_true", help="emit the report as JSON")

    emit = sub.add_parser("emit", help="generate HDL and integration glue")
    emit.add_argument("design", type=Path)
    emit.add_argument("-o", "--output", type=Path, default=Path("generated"))
    emit.add_argument("--device", default="stratix-v")
    emit.add_argument("--no-wrapper", action="store_true")

    explore = sub.add_parser("explore", help="explore design variants of a kernel")
    explore.add_argument("--kernel", choices=_KERNEL_CHOICES, default="sor",
                         metavar="KERNEL",
                         help="registered kernel: %(choices)s "
                              "(default: %(default)s)")
    explore.add_argument("--device", default="stratix-v")
    explore.add_argument("--grid", type=int, nargs="+", default=None)
    explore.add_argument("--iterations", type=int, default=1000)
    explore.add_argument("--max-lanes", type=int, default=16)
    explore.add_argument("--lanes", type=int, nargs="+", default=None,
                         help="explicit lane counts (overrides --max-lanes)")
    explore.add_argument("--clocks", type=float, nargs="+", default=None, metavar="MHZ",
                         help="clock-frequency axis (device fmax when omitted)")
    explore.add_argument("--forms", nargs="+", default=None,
                         choices=["auto", "A", "B", "C"],
                         help="memory-execution form axis")
    explore.add_argument("--patterns", nargs="+", default=None,
                         choices=_PATTERN_CHOICES, metavar="PATTERN",
                         help="access-pattern axis: %(choices)s")
    explore.add_argument("--dense", action="store_true",
                         help="evaluate the whole space as broadcast numpy "
                              "arrays (single-process; reports materialized "
                              "only for the points shown)")
    explore.add_argument("--clock-range", default=None, metavar="LO:HI:N",
                         help="continuous clock axis: N evenly spaced "
                              "frequencies between LO and HI MHz "
                              "(e.g. 150:300:64; implies --dense-friendly "
                              "multi-axis exploration)")
    explore.add_argument("--emit-all", action="store_true",
                         help="materialize and print every costed point "
                              "(default with --dense: the top --top rows)")
    explore.add_argument("--top", type=int, default=12, metavar="K",
                         help="rows to show for dense sweeps (default: 12)")
    explore.add_argument("--pareto", action="store_true",
                         help="report the throughput/utilisation Pareto frontier")
    explore.add_argument("--optimizer", choices=_OPTIMIZER_CHOICES, default=None,
                         metavar="OPTIMIZER",
                         help="drive the sweep through an incremental "
                              "optimizer loop: exhaustive (every point), "
                              "fmax (binary-search the highest feasible "
                              "clock per design family; --forms defaults to "
                              "A B here, since form C designs are always "
                              "feasible), halving (successive-halving race "
                              "between forms under --budget), surrogate "
                              "(dense numpy prune, then exact costing of "
                              "the top --keep fraction)")
    explore.add_argument("--resolution", type=float, default=None, metavar="MHZ",
                         help="fmax bracket resolution in MHz "
                              "(--optimizer fmax; default: 1.0)")
    explore.add_argument("--budget", type=int, default=None, metavar="N",
                         help="total cost-evaluation budget "
                              "(--optimizer halving; default: 64)")
    explore.add_argument("--keep", type=float, default=None, metavar="FRAC",
                         help="fraction of points kept by the dense prune "
                              "(--optimizer surrogate; default: 0.1)")
    explore.add_argument("--json", action="store_true")

    calibrate = sub.add_parser("calibrate", help="run the one-time device characterisation")
    calibrate.add_argument("--device", default="stratix-v")
    calibrate.add_argument("-o", "--output", type=Path, default=None,
                           help="write the fitted cost database to a JSON file")

    stream = sub.add_parser("stream-bench", help="run the sustained-bandwidth benchmark")
    stream.add_argument("--device", default="virtex-7")
    stream.add_argument("--sides", type=int, nargs="+", default=None,
                        help="array sides to measure (default: the "
                             "simulator's STREAM suite sides)")

    flow = sub.add_parser(
        "flow",
        help="run RTL flows over the generated HDL",
        description="Elaborate, simulate and verify the generated Verilog "
                    "against the kernel Python reference — the pure-Python "
                    "RTL backend needs nothing installed; external backends "
                    "(iverilog) are discovered on PATH.",
    )
    flow_sub = flow.add_subparsers(dest="flow_command", required=True)

    def _add_flow_sim_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--items", type=int, default=256,
                            help="work items to stream (default: 256)")
        parser.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                            help="stimulus seed (default: the testbench default)")
        parser.add_argument("--backend", choices=["pyrtl", "iverilog"],
                            default="pyrtl",
                            help="simulation backend (default: pure Python)")
        parser.add_argument("--no-cache", dest="use_cache", action="store_false",
                            default=True,
                            help="bypass the persistent flow-result cache")
        parser.add_argument("-o", "--output", type=Path, default=None,
                            metavar="DIR",
                            help="run-directory root (artifacts, manifest and "
                                 "result.json are written beneath it)")
        parser.add_argument("--json", action="store_true",
                            help="print the result payload as JSON")

    flow_run = flow_sub.add_parser(
        "run", help="verify a .tirl design's generated RTL end to end")
    flow_run.add_argument("design", type=Path, help="path to the .tirl file")
    flow_run.add_argument("--function", default=None,
                          help="leaf function to simulate (default: largest leaf)")
    _add_flow_sim_args(flow_run)

    flow_sim = flow_sub.add_parser(
        "sim", help="verify a registered kernel's generated RTL")
    flow_sim.add_argument("--kernel", choices=_KERNEL_CHOICES, default="sor",
                          metavar="KERNEL",
                          help="registered kernel: %(choices)s "
                               "(default: %(default)s)")
    flow_sim.add_argument("--lanes", type=int, default=1)
    flow_sim.add_argument("--grid", type=int, nargs="+", default=None)
    _add_flow_sim_args(flow_sim)

    flow_report = flow_sub.add_parser(
        "report", help="pretty-print a stored flow result")
    flow_report.add_argument("path", type=Path,
                             help="a flow run directory or its result.json")
    flow_report.add_argument("--json", action="store_true")

    suite = sub.add_parser(
        "suite",
        help="run, diff or pin the multi-kernel workload suite",
        description="Batch-cost every registered kernel over a "
                    "kernel x device x form x lane grid, emit canonical JSON "
                    "reports, and diff them against goldens.",
    )
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)

    def _add_suite_sweep_args(parser: argparse.ArgumentParser) -> None:
        """The sweep-grid arguments shared by every ``suite`` command
        and ``client suite`` (one grid definition, many consumers)."""
        parser.add_argument("--kernels", nargs="+", default=None,
                            metavar="KERNEL",
                            help="kernels to cost (default: every registered kernel)")
        parser.add_argument("--devices", nargs="+", default=["stratix-v"],
                            help="device axis of the sweep")
        parser.add_argument("--lanes", type=int, nargs="+", default=None,
                            help="explicit lane counts (default: divisors up to --max-lanes)")
        parser.add_argument("--max-lanes", type=int, default=4)
        parser.add_argument("--forms", nargs="+", default=["auto"],
                            choices=["auto", "A", "B", "C"],
                            help="memory-execution form axis")
        parser.add_argument("--patterns", nargs="+", default=["contiguous"],
                            choices=_PATTERN_CHOICES, metavar="PATTERN",
                            help="access-pattern axis: %(choices)s")
        parser.add_argument("--clocks", type=float, nargs="+", default=None,
                            metavar="MHZ", help="clock axis (device fmax when omitted)")
        parser.add_argument("--iterations", type=int, default=None,
                            help="override every kernel's iteration count")
        parser.add_argument("--tiny", action="store_true",
                            help="smoke-test grids (each dimension capped at 8, "
                                 "10 iterations) — the golden configuration")
        parser.add_argument("-o", "--output", type=Path, default=None,
                            help="write the canonical JSON report to a file")
        parser.add_argument("--json", action="store_true",
                            help="print the canonical JSON report to stdout")

    def _add_stage_jobs_arg(parser: argparse.ArgumentParser, stage: str) -> None:
        parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                            help=f"{stage} on N worker processes (the costing "
                                 "itself stays in this process)")

    suite_run = suite_sub.add_parser(
        "run", help="cost the suite and emit a canonical JSON report")
    _add_suite_sweep_args(suite_run)

    suite_validate = suite_sub.add_parser(
        "validate",
        help="cross-validate the analytic estimates against the "
             "cycle-accurate substrate simulators (exit 1 on disagreement)",
        description="Cost a suite grid, then drive every design point "
                    "through the pipeline simulator (analytic and "
                    "cycle-stepping mode) and the memory-system simulator, "
                    "and report per-point agreement as a canonical JSON "
                    "validation report.",
    )
    _add_suite_sweep_args(suite_validate)
    _add_stage_jobs_arg(suite_validate, "validate the costed points")
    suite_validate.add_argument("--tolerance", type=float, default=None,
                                metavar="REL",
                                help="relative tolerance on the device-side "
                                     "seconds agreement (default: 0.05)")
    suite_validate.add_argument("--memory-tolerance", type=float, default=None,
                                metavar="REL",
                                help="relative tolerance on the memory-leg "
                                     "fit-vs-simulator agreement (default: 0.5)")
    suite_validate.add_argument("--cycle-accurate", dest="cycle_accurate",
                                action="store_true", default=True,
                                help="also run the cycle-stepping simulator "
                                     "(the default)")
    suite_validate.add_argument("--no-cycle-accurate", dest="cycle_accurate",
                                action="store_false",
                                help="skip the cycle-stepping pass "
                                     "(analytic simulation only)")

    suite_flow = suite_sub.add_parser(
        "flow",
        help="RTL-verify every unique design family of the grid "
             "(exit 1 on any disagreement)",
        description="Cost a suite grid through the exploration engine, "
                    "then elaborate and cycle-simulate the generated "
                    "Verilog of every (kernel, lanes, grid) family with "
                    "the pure-Python RTL backend, checking outputs and "
                    "reductions bit for bit against the kernel Python "
                    "reference and cycle counts against the pipeline "
                    "simulator.",
    )
    _add_suite_sweep_args(suite_flow)
    _add_stage_jobs_arg(suite_flow, "RTL-verify the design families")
    suite_flow.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                            help="stimulus seed (default: testbench default)")
    suite_flow.add_argument("--max-items", type=int, default=None,
                            help="cap on work items streamed per family "
                                 "(default: 512)")

    suite_dse = suite_sub.add_parser(
        "dse",
        help="optimizer-driven design-space exploration over the suite grid "
             "(canonical repro-dse-report/1 with per-round provenance)",
        description="Instead of eagerly costing every grid point, drive an "
                    "incremental optimizer loop per kernel (or one "
                    "cross-kernel successive-halving race) and report what "
                    "each round proposed, what it cost, and what the "
                    "optimizer concluded.",
    )
    _add_suite_sweep_args(suite_dse)
    suite_dse.add_argument("--optimizer", choices=_OPTIMIZER_CHOICES,
                           default="fmax", metavar="OPTIMIZER",
                           help="search strategy: %(choices)s "
                                "(default: %(default)s)")
    suite_dse.add_argument("--resolution", type=float, default=None,
                           metavar="MHZ",
                           help="fmax bracket resolution (--optimizer fmax)")
    suite_dse.add_argument("--budget", type=int, default=None, metavar="N",
                           help="cost-evaluation budget (--optimizer halving)")
    suite_dse.add_argument("--keep", type=float, default=None, metavar="FRAC",
                           help="dense-prune keep fraction "
                                "(--optimizer surrogate)")

    suite_diff = suite_sub.add_parser(
        "diff", help="compare two suite reports field by field "
                     "(exit 1 on any difference)")
    suite_diff.add_argument("left", type=Path, help="baseline report (e.g. a golden)")
    suite_diff.add_argument("right", type=Path, help="candidate report")
    suite_diff.add_argument("--rtol", type=float, default=0.0,
                            help="relative tolerance for float fields (default: exact)")
    suite_diff.add_argument("--limit", type=int, default=20,
                            help="max differences to print")

    suite_golden = suite_sub.add_parser(
        "record-golden",
        help="re-run the golden configuration and rewrite tests/golden/*.json "
             "(the git diff of those files documents an intentional model change)")
    suite_golden.add_argument("--dir", type=Path, default=None,
                              help="goldens directory (default: tests/golden, "
                                   "or tests/golden/validation with --validation)")
    suite_golden.add_argument("--kernels", nargs="+", default=None, metavar="KERNEL")
    suite_golden.add_argument("--validation", action="store_true",
                              help="record the cross-validation goldens instead "
                                   "of the suite-report goldens")
    suite_golden.add_argument("--flows", action="store_true",
                              help="record the RTL flow goldens instead of the "
                                   "suite-report goldens")

    cache = sub.add_parser(
        "cache",
        help="inspect, clear or warm the persistent estimation cache",
        description="The persistent warm-start store holds per-device "
                    "calibration artifacts and per-family structural "
                    "analyses, keyed on content and schema version, under "
                    "TYBEC_CACHE_DIR (default ~/.cache/tybec).",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="report cache location, entries and sizes")
    cache_sub.add_parser("clear", help="delete every cached artifact")
    cache_warm = cache_sub.add_parser(
        "warm",
        help="pre-populate device calibrations and kernel family analyses")
    cache_warm.add_argument("--devices", nargs="+", default=["stratix-v"],
                            help="devices to calibrate")
    cache_warm.add_argument("--kernels", nargs="+", default=None, metavar="KERNEL",
                            help="kernels whose design families to analyse "
                                 "(default: every registered kernel)")

    serve_p = sub.add_parser(
        "serve",
        help="run the persistent exploration service",
        description="One long-lived process owns one warm set of "
                    "estimation caches; clients POST .tirl designs or "
                    "suite grid specs, identical in-flight requests "
                    "coalesce onto one underlying sweep, and results "
                    "stream back as canonical NDJSON.",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8731,
                         help="listen port (0 for an ephemeral port)")
    serve_p.add_argument("--max-concurrency", type=int, default=4, metavar="N",
                         help="concurrent sweeps before requests queue "
                              "(default: 4)")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    serve_p.add_argument("--request-deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="default per-request compute budget (bodies "
                              "may name their own 'deadline_seconds'; "
                              "default: unlimited)")
    serve_p.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="on SIGTERM/Ctrl-C, wait this long for "
                              "in-flight requests to finish before "
                              "exiting (default: 30)")

    client_p = sub.add_parser(
        "client", help="talk to a running exploration service")
    client_p.add_argument("--host", default="127.0.0.1")
    client_p.add_argument("--port", type=int, default=8731)
    client_sub = client_p.add_subparsers(dest="client_command", required=True)

    client_cost = client_sub.add_parser(
        "cost", help="cost a .tirl design through the service")
    client_cost.add_argument("design", type=Path, help="path to the .tirl file")
    client_cost.add_argument("--device", default="stratix-v")
    client_cost.add_argument("--grid", type=int, nargs="+", default=[24, 24, 24])
    client_cost.add_argument("--iterations", type=int, default=1000)
    client_cost.add_argument("--pattern", default="contiguous",
                             choices=_PATTERN_CHOICES, metavar="PATTERN",
                             help="access pattern: %(choices)s "
                                  "(default: %(default)s)")
    client_cost.add_argument("--json", action="store_true",
                             help="print the full canonical report")

    client_suite = client_sub.add_parser(
        "suite", help="run (or join) a suite sweep through the service")
    _add_suite_sweep_args(client_suite)

    client_sub.add_parser("metrics", help="print the daemon's /metrics payload")
    client_sub.add_parser("health", help="probe the daemon's /healthz endpoint")

    trace_p = sub.add_parser(
        "trace",
        help="analyse structured span traces",
        description="Work with repro-trace/1 NDJSON files produced by "
                    "--trace / TYBEC_TRACE.",
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    trace_sum = trace_sub.add_parser(
        "summarize",
        help="aggregate a trace: per-site totals, slowest spans, "
             "critical path")
    trace_sum.add_argument("path", type=Path,
                           help="path to the repro-trace/1 NDJSON file")
    trace_sum.add_argument("--top", type=int, default=10, metavar="K",
                           help="slowest spans to show (default: 10)")
    trace_sum.add_argument("--json", action="store_true",
                           help="print the summary as JSON")

    bench_p = sub.add_parser(
        "bench",
        help="report on stored benchmark artifacts",
        description="The benchmark suite writes its measurements to "
                    "benchmarks/results/BENCH_*.json; this merges them "
                    "into one trend table.",
    )
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    bench_report = bench_sub.add_parser(
        "report",
        help="merge every BENCH_*.json into one trend table "
             "(metric, gate, measured value)")
    bench_report.add_argument("--dir", type=Path, default=None, metavar="DIR",
                              help="results directory "
                                   "(default: benchmarks/results)")
    bench_report.add_argument("--json", action="store_true",
                              help="print the rows as JSON")
    bench_report.add_argument("--strict", action="store_true",
                              help="exit non-zero when any gate fails")

    return parser


def _design_inputs(args, with_workload: bool):
    """``(compiler, module, workload)`` for `cost` and `emit`.

    A bad input prints ``error: <flag or file>: <message>`` and returns
    the exit status 2 instead, as `suite run` does.
    """
    from repro.compiler.driver import CompilationOptions, TybecCompiler
    from repro.ir.errors import IRError
    from repro.models.execution import KernelInstance, NDRange
    from repro.substrate.fpga_device import get_device

    where = "--device"
    try:
        compiler = TybecCompiler(CompilationOptions(device=get_device(args.device)))
        where = str(args.design)
        module = compiler.parse(args.design.read_text(), name=args.design.stem)
        workload = None
        if with_workload:
            where = "--grid"
            ndrange = NDRange(tuple(args.grid))
            where = "--iterations"
            workload = KernelInstance(kernel=module.name, ndrange=ndrange,
                                      repetitions=args.iterations)
    except (OSError, IRError, KeyError, ValueError) as exc:
        return _input_error(where, exc)
    return compiler, module, workload


def _input_error(where: str, exc: Exception) -> int:
    if isinstance(exc, OSError) and exc.strerror:
        message = exc.strerror
    else:
        message = exc.args[0] if exc.args else type(exc).__name__
    print(f"error: {where}: {message}", file=sys.stderr)
    return 2


def _cmd_cost(args) -> int:
    inputs = _design_inputs(args, with_workload=True)
    if isinstance(inputs, int):
        return inputs
    compiler, module, workload = inputs
    report = compiler.cost(module, workload)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.to_text())
    return 0


def _cmd_emit(args) -> int:
    inputs = _design_inputs(args, with_workload=False)
    if isinstance(inputs, int):
        return inputs
    compiler, module, _ = inputs
    files = compiler.emit_hdl(module, include_wrapper=not args.no_wrapper)
    try:
        args.output.mkdir(parents=True, exist_ok=True)
        for name, body in files.items():
            (args.output / name).write_text(body)
            print(f"wrote {args.output / name}")
    except OSError as exc:
        return _input_error(str(args.output), exc)
    return 0


def _print_best_and_frontier(args, best, frontier) -> None:
    if best is not None:
        print(f"best feasible point: {best.point.label}")
    if args.pareto:
        print("Pareto frontier (EKIT vs limiting-resource utilisation):")
        for entry in frontier:
            print(f"  {entry.point.label}: EKIT {entry.report.ekit:.3f}/s, "
                  f"worst utilisation "
                  f"{entry.report.feasibility.limiting_resource_utilization*100:.1f}%")


def _render_dense_sweep(args, space, sweep) -> int:
    """Render a dense sweep: top-k rows, best point, optional frontier.

    Only the shown points are materialized into reports — the whole point
    of the dense path; ``--emit-all`` takes the ordinary full-sweep
    rendering instead.
    """
    from repro.explore.engine import SweepResult

    best = sweep.best()
    frontier = sweep.pareto_frontier() if args.pareto else []
    top = sweep.top(args.top)
    rows = SweepResult(entries=top).summary_rows()

    if args.json:
        print(json.dumps({
            "axes": space.axis_sizes(),
            "rows": rows,
            "best": best.point.as_dict() if best else None,
            "pareto": [entry.point.as_dict() for entry in frontier],
            "evaluated": sweep.evaluated,
            "feasible": sweep.feasible_count,
            "wall_seconds": sweep.wall_seconds,
            "points_per_second": sweep.points_per_second,
            "dense": True,
        }, indent=2))
        return 0

    axes = ", ".join(f"{n}={s}" for n, s in space.axis_sizes().items() if s > 1) or "lanes=1"
    print(f"exploring {space.kernel.name} on {args.device}, grid {tuple(space.grid)}, "
          f"{space.iterations} iterations ({len(space)} points, dense; axes: {axes})")
    header = (f"{'lanes':>5} {'MHz':>8} {'form':>4} {'pattern':>10} {'EWGT/s':>12} "
              f"{'ALUT%':>7} {'limiting':>16} {'ok':>3}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['lanes']:>5} {row['clock_mhz']:>8.2f} {row['form']:>4} "
              f"{row['pattern']:>10} {row['ewgt_per_s']:>12.2f} {row['alut_pct']:>7.2f} "
              f"{row['limiting_factor']:>16} {'y' if row['feasible'] else 'n':>3}")
    if sweep.evaluated > len(top):
        print(f"(showing the top {len(top)} of {sweep.evaluated} points by EKIT; "
              f"--emit-all materializes every row)")
    _print_best_and_frontier(args, best, frontier)
    print(f"costed {sweep.evaluated} points ({sweep.feasible_count} feasible) "
          f"in {sweep.wall_seconds:.3f} s ({sweep.points_per_second:,.0f} points/s)")
    return 0


def _explore_config(args, kernel, grid, forms):
    """The one-kernel suite config an ``explore`` command's axis flags
    spell, checked like every suite input."""
    from repro.explore.space import clock_range

    clocks = args.clocks
    if args.clock_range:
        if args.clocks:
            raise ValueError("--clock-range cannot be combined with --clocks")
        clocks = clock_range(args.clock_range)
    return _suite_config(
        kernels=[kernel.name], devices=[args.device], lanes=args.lanes,
        max_lanes=args.max_lanes, forms=forms, patterns=args.patterns,
        clocks_mhz=clocks, grids={kernel.name: grid},
        iterations=args.iterations)


def _cmd_explore_space(args, kernel, grid) -> int:
    """Exploration of the space the axis flags spell, through the engine;
    without clock/form/pattern axes it prints the classic lane table."""
    from repro.explore.engine import ExplorationEngine
    from repro.resilience.policy import COUNTERS

    multi_axis = (any((args.clocks, args.forms, args.patterns, args.clock_range))
                  or args.pareto or args.dense)
    if not multi_axis and args.lanes:
        # the lane table lists each lane count once, ascending
        args.lanes = sorted(set(args.lanes))
    try:
        space = _explore_config(args, kernel, grid, args.forms).space_for(
            kernel.name)
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.dense and not args.emit_all:
        from repro.cost.vector import DenseUnsupportedError
        from repro.explore.dense import DenseBackend

        try:
            sweep = DenseBackend().explore_space(space)
            return _render_dense_sweep(args, space, sweep)
        except DenseUnsupportedError as exc:
            COUNTERS.bump("fallbacks.dense")
            print(f"dense path unavailable ({exc}); costing every point",
                  file=sys.stderr)
    sweep = ExplorationEngine().explore(space)
    if not multi_axis:
        return _render_lane_sweep(args, grid, sweep)
    frontier = sweep.pareto_frontier() if args.pareto else []
    best = sweep.best()

    if args.json:
        print(json.dumps({
            "axes": space.axis_sizes(),
            "rows": sweep.summary_rows(),
            "best": best.point.as_dict() if best else None,
            "pareto": [entry.point.as_dict() for entry in frontier],
            "evaluated": sweep.evaluated,
            "wall_seconds": sweep.wall_seconds,
            "variants_per_second": sweep.variants_per_second,
        }, indent=2))
        return 0

    axes = ", ".join(f"{n}={s}" for n, s in space.axis_sizes().items() if s > 1) or "lanes=1"
    print(f"exploring {space.kernel.name} on {args.device}, grid {tuple(space.grid)}, "
          f"{space.iterations} iterations ({len(space)} points; axes: {axes})")
    header = (f"{'lanes':>5} {'MHz':>6} {'form':>4} {'pattern':>10} {'EWGT/s':>12} "
              f"{'ALUT%':>7} {'limiting':>16} {'ok':>3}")
    print(header)
    print("-" * len(header))
    for row in sweep.summary_rows():
        print(f"{row['lanes']:>5} {row['clock_mhz']:>6.0f} {row['form']:>4} "
              f"{row['pattern']:>10} {row['ewgt_per_s']:>12.2f} {row['alut_pct']:>7.2f} "
              f"{row['limiting_factor']:>16} {'y' if row['feasible'] else 'n':>3}")
    _print_best_and_frontier(args, best, frontier)
    print(f"estimated {sweep.evaluated} variants in {sweep.wall_seconds:.3f} s "
          f"({sweep.variants_per_second:.1f} variants/s)")
    return 0


def _describe_best(best: dict | None) -> str | None:
    """One-line rendering of an optimizer's best-point payload."""
    if not best:
        return None
    return (f"best feasible point: {best['kernel']} x{best['lanes']} "
            f"@{best['clock_mhz']:g}MHz form={best['form']} "
            f"{best['pattern']} — EKIT {best['ekit_per_s']:.4f}/s")


def _cmd_explore_optimizer(args, kernel, grid) -> int:
    """Incremental optimizer-driven exploration (``--optimizer ...``)."""
    from repro.explore.engine import ExplorationEngine
    from repro.suite.runner import dse_optimizers, resolve_dse_params

    forms = tuple(args.forms) if args.forms else None
    if forms is None:
        # form C (and "auto", which picks C on small footprints) needs no
        # external bandwidth, so every clock is feasible and an fmax
        # search just walks to the cap — bracket the bandwidth-bound
        # forms by default instead
        forms = ("A", "B") if args.optimizer == "fmax" else ("auto",)
    try:
        params = resolve_dse_params(args.optimizer, _dse_params(args))
        config = _explore_config(args, kernel, grid, forms)
        optimizer, = dse_optimizers(config, args.optimizer, params).values()
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    run = ExplorationEngine().run_optimizer(optimizer)
    result = run.result

    if args.json:
        print(json.dumps({
            "result": result,
            "rounds": run.rounds_payload(),
            "evaluated": run.evaluated,
            "wall_seconds": run.wall_seconds,
        }, indent=2))
        return 0

    print(f"exploring {kernel.name} on {args.device}, grid {tuple(grid)} "
          f"with the {args.optimizer} optimizer "
          f"({len(run.rounds)} round(s), {run.evaluated} point(s) costed, "
          f"{run.wall_seconds:.3f} s)")
    if args.optimizer == "fmax":
        header = (f"{'lanes':>5} {'form':>4} {'pattern':>10} {'fmax MHz':>9} "
                  f"{'probes':>6}  note")
        print(header)
        print("-" * len(header))
        for fam in result["families"]:
            fmax = "-" if fam["fmax_mhz"] is None else f"{fam['fmax_mhz']:.2f}"
            print(f"{fam['lanes']:>5} {fam['form']:>4} {fam['pattern']:>10} "
                  f"{fmax:>9} {fam['probes']:>6}  {fam['note']}")
    elif args.optimizer == "halving":
        for arm in result["arms"]:
            ekit = arm["best_ekit_per_s"]
            best_s = "-" if ekit is None else f"{ekit:.4f}/s"
            if arm["arm"] == result["winner"]:
                status = "winner"
            elif arm["eliminated_rung"] is not None:
                status = f"eliminated at rung {arm['eliminated_rung']}"
            else:
                status = "survived"
            print(f"  {arm['arm']}: {arm['evaluated']} point(s), "
                  f"best EKIT {best_s} ({status})")
        print(f"budget spent: {result['spent']}/{result['budget']} "
              f"over {result['rungs']} rung(s)")
    elif args.optimizer == "surrogate":
        print(f"dense prune: {result['dense_points']} point(s) -> "
              f"{result['scalar_points']} survivor(s) costed exactly "
              f"({result['pruned']} pruned, keep {result['keep_fraction']:g})")
        if result["fallback"]:
            print("(dense path unavailable for this space; "
                  "every point was costed exactly)")
    line = _describe_best(result.get("best"))
    if line:
        print(line)
    elif args.optimizer != "fmax":
        print("no feasible point found")
    return 0


def _cmd_explore(args) -> int:
    from repro.kernels import get_kernel

    kernel = get_kernel(args.kernel)
    grid = tuple(args.grid) if args.grid else kernel.default_grid
    if args.optimizer:
        return _cmd_explore_optimizer(args, kernel, grid)
    return _cmd_explore_space(args, kernel, grid)


def _render_lane_sweep(args, grid, sweep) -> int:
    """The lane-only table (or ``{"rows", "best_lanes"}`` JSON)."""
    rows = sweep.summary_rows()
    best = sweep.best()
    best_lanes = best.point.lanes if best is not None else None
    if args.json:
        print(json.dumps({"rows": rows, "best_lanes": best_lanes}, indent=2))
        return 0
    header = f"{'lanes':>5} {'EWGT/s':>12} {'ALUT%':>7} {'BRAM%':>7} {'DSP%':>6} {'limiting':>16} {'ok':>3}"
    print(f"exploring {args.kernel} on {args.device}, grid {grid}, {args.iterations} iterations")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['lanes']:>5} {row['ewgt_per_s']:>12.2f} {row['alut_pct']:>7.2f} "
            f"{row['bram_pct']:>7.2f} {row['dsp_pct']:>6.2f} {row['limiting_factor']:>16} "
            f"{'y' if row['feasible'] else 'n':>3}"
        )
    print(f"best feasible variant: {best_lanes} lane(s); "
          f"estimation took {sweep.wall_seconds:.3f} s for {sweep.evaluated} variants")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.cost.calibration import calibrate_device
    from repro.substrate.fpga_device import get_device
    from repro.substrate.synthesis import SyntheticSynthesizer

    device = get_device(args.device)
    synthesizer = SyntheticSynthesizer(device)
    dataset = synthesizer.characterize()
    db = calibrate_device(dataset, dsp_input_width=device.dsp_input_width)
    payload = db.as_dict()
    if args.output:
        args.output.write_text(json.dumps(payload, indent=2))
        print(f"wrote cost database for {device.name} to {args.output}")
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _suite_config(**flags):
    """``SuiteConfig.from_spec`` of a command's flags; a flag left at
    ``None`` is an omitted field."""
    from repro.suite import SuiteConfig

    return SuiteConfig.from_spec(
        {name: value for name, value in flags.items() if value is not None})


def _suite_config_from_args(args):
    return _suite_config(
        tiny=args.tiny, kernels=args.kernels, devices=args.devices,
        lanes=args.lanes, max_lanes=args.max_lanes, forms=args.forms,
        patterns=args.patterns, clocks_mhz=args.clocks,
        iterations=args.iterations)


def _cmd_suite_run(args) -> int:
    from repro.suite import WorkloadSuite

    try:
        config = _suite_config_from_args(args)
        suite = WorkloadSuite(config)
        run = suite.run()
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    _emit_report(run.report, args, "suite")
    if not args.json:
        header = (f"{'kernel':>8} {'lanes':>5} {'device':>20} {'MHz':>6} "
                  f"{'form':>4} {'EKIT/s':>14} {'ok':>3}")
        print(header)
        print("-" * len(header))
        for row in suite.summary_rows(run):
            print(f"{row['kernel']:>8} {row['lanes']:>5} {row['device']:>20} "
                  f"{row['clock_mhz']:>6.0f} {row['form']:>4} "
                  f"{row['ekit_per_s']:>14.4f} {'y' if row['feasible'] else 'n':>3}")
        totals = run.report.totals
        print(f"costed {totals['points']} design points across "
              f"{totals['kernels']} kernels ({totals['feasible']} feasible) "
              f"in {run.wall_seconds:.3f} s ({run.variants_per_second:.1f} variants/s)")
        _print_stage_breakdown(run)
    return 0


def _emit_report(report, args, what: str) -> None:
    """Write ``-o`` and print ``--json`` from one encode of ``report``."""
    if not (args.output or args.json):
        return
    text = report.to_json()
    if args.output:
        report.write(args.output, text)
        print(f"wrote {what} report to {args.output}", file=sys.stderr)
    if args.json:
        print(text, end="")


def _print_stage_breakdown(run) -> None:
    """Per-stage wall time and cache hit rates of one suite batch."""
    stats = run.stats
    if not stats:
        return
    rows = run.sweep.stage_timing_rows()
    if rows:
        breakdown = "  ".join(
            f"{row['stage']} {row['seconds'] * 1e3:.1f}ms ({row['share'] * 100:.0f}%)"
            for row in rows
        )
        print(f"stage time: {breakdown}")
    counters = []
    for layer in ("family", "variant", "resource", "calibration", "disk"):
        pair = stats.get(layer)
        if isinstance(pair, list) and len(pair) == 2 and sum(pair):
            counters.append(f"{layer} {pair[0]}/{sum(pair)}")
    if counters:
        fallbacks = stats.get("family_fallbacks", 0)
        suffix = f", {fallbacks} full-path fallback(s)" if fallbacks else ""
        print(f"cache hits: {'  '.join(counters)}{suffix}")


def _cmd_suite_validate(args) -> int:
    from repro.validate import DEFAULT_MEMORY_TOLERANCE, DEFAULT_TOLERANCE, validate_suite

    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    memory_tolerance = (args.memory_tolerance if args.memory_tolerance is not None
                        else DEFAULT_MEMORY_TOLERANCE)
    try:
        config = _suite_config_from_args(args)
        run = validate_suite(config, tolerance=tolerance,
                             memory_tolerance=memory_tolerance,
                             cycle_accurate=args.cycle_accurate,
                             jobs=args.jobs)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    _emit_report(run.report, args, "validation")
    if args.json:
        return 0 if run.ok else 1

    header = (f"{'kernel':>8} {'lanes':>5} {'form':>4} {'est cycles':>12} "
              f"{'analytic':>9} {'stepped':>9} {'gap':>4} {'rel err':>8} {'ok':>3}")
    print(header)
    print("-" * len(header))
    for name, records in run.records.items():
        for r in records:
            stepped = str(r.stepped.cycles) if r.stepped is not None else "-"
            gap = str(r.cycle_gap) if r.cycle_gap is not None else "-"
            print(f"{name:>8} {r.point.lanes:>5} {r.form:>4} "
                  f"{r.estimated_cycles:>12.1f} {r.analytic.cycles:>9} "
                  f"{stepped:>9} {gap:>4} {r.seconds_relative_error:>8.4f} "
                  f"{'y' if r.ok else 'N':>3}")
    totals = run.report.totals
    print(f"validated {totals['points']} design points across "
          f"{totals['kernels']} kernels: {totals['agreeing']} agree, "
          f"{totals['disagreeing']} disagree "
          f"(tolerance {tolerance:g}, max error "
          f"{totals['max_seconds_relative_error']:.4f}, max cycle gap "
          f"{totals['max_cycle_gap']})")
    if not run.ok:
        for record in run.disagreements:
            print(f"DISAGREEMENT at {record.point.label}: "
                  f"rel err {record.seconds_relative_error:.4f}, "
                  f"cycle gap {record.cycle_gap} (limit {record.pipeline_depth}), "
                  f"limiting match {record.limiting_factor_match}, "
                  f"memory legs "
                  f"{ {l.name: round(l.relative_error, 4) for l in record.legs} }",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_suite_flow(args) -> int:
    from repro.compiler.codegen.testbench import DEFAULT_STIMULUS_SEED
    from repro.flows import DEFAULT_MAX_ITEMS, run_flow_suite

    seed = args.seed if args.seed is not None else DEFAULT_STIMULUS_SEED
    max_items = args.max_items if args.max_items is not None else DEFAULT_MAX_ITEMS
    try:
        config = _suite_config_from_args(args)
        run = run_flow_suite(config, seed=seed, max_items=max_items,
                             jobs=args.jobs)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    _emit_report(run.report, args, "flow")
    if args.json:
        return 0 if run.ok else 1

    header = (f"{'kernel':>8} {'lanes':>5} {'items':>6} {'rtl cyc':>8} "
              f"{'analytic':>9} {'gap':>4} {'outputs':>8} {'red':>4} {'ok':>3}")
    print(header)
    print("-" * len(header))
    for name, families in run.records.items():
        for key, payload in sorted(families.items()):
            functional = payload.get("functional", {})
            cycles = payload.get("cycles", {})
            lanes = key.lstrip("l")
            print(f"{name:>8} {lanes:>5} {payload.get('items', 0):>6} "
                  f"{cycles.get('rtl', 0):>8} {cycles.get('analytic', 0):>9} "
                  f"{cycles.get('gap_analytic', 0):>4} "
                  f"{functional.get('outputs_checked', 0):>8} "
                  f"{'y' if functional.get('reductions_match') else 'N':>4} "
                  f"{'y' if payload.get('ok') else 'N':>3}")
    totals = run.report.totals
    print(f"verified {totals['families']} RTL families across "
          f"{totals['kernels']} kernels ({totals['points']} costed points): "
          f"{totals['ok']} ok, {totals['failing']} failing "
          f"(max cycle gap {totals['max_cycle_gap']}) "
          f"in {run.flow_seconds:.3f} s of RTL simulation")
    if not run.ok:
        for kernel, key in run.failures:
            payload = run.records[kernel][key]
            functional = payload.get("functional", {})
            cycles = payload.get("cycles", {})
            causes = []
            if payload.get("lint"):
                causes.append(f"lint: {payload['lint'][:3]}")
            if functional and not functional.get("ok"):
                causes.append(
                    f"functional: {functional.get('output_mismatches')} "
                    f"mismatches, reductions "
                    f"{'ok' if functional.get('reductions_match') else 'DISAGREE'}")
            if cycles and not cycles.get("ok"):
                causes.append(
                    f"cycles: gaps {cycles.get('gap_analytic')}/"
                    f"{cycles.get('gap_stepped')} exceed bound "
                    f"{cycles.get('bound')}")
            print(f"FAILURE at {kernel} {key}: "
                  + ("; ".join(causes) or "see --json payload"),
                  file=sys.stderr)
        return 1
    return 0


def _cmd_suite_diff(args) -> int:
    from repro.suite import diff_payloads, format_diffs, load_report

    try:
        left = load_report(args.left)
        right = load_report(args.right)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if left.get("schema") != right.get("schema"):
        print(f"cannot diff different report layouts: {left.get('schema')!r} "
              f"vs {right.get('schema')!r}", file=sys.stderr)
        return 2
    diffs = diff_payloads(left, right, rtol=args.rtol)
    print(format_diffs(diffs, limit=args.limit))
    return 1 if diffs else 0


def _cmd_suite_record_golden(args) -> int:
    if args.validation and args.flows:
        print("--validation and --flows are mutually exclusive", file=sys.stderr)
        return 2
    if args.validation:
        from repro.validate import record_validation_goldens as _record
    elif args.flows:
        from repro.flows import record_flow_goldens as _record
    else:
        from repro.suite import record_goldens as _record

    kernels = tuple(args.kernels) if args.kernels else ()
    try:
        written = _record(args.dir, kernels=kernels)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    for path in written:
        print(f"recorded {path}")
    print(f"{len(written)} golden report(s) written — commit the diff to "
          "document the model change")
    return 0


def _dse_params(args) -> dict:
    """The optimizer knobs an invocation's ``--resolution``, ``--budget``
    and ``--keep`` flags name (checked by ``resolve_dse_params``)."""
    flags = {"resolution": args.resolution, "budget": args.budget,
             "keep_fraction": args.keep}
    return {name: value for name, value in flags.items() if value is not None}


def _cmd_suite_dse(args) -> int:
    from repro.suite import run_dse

    try:
        config = _suite_config_from_args(args)
        run = run_dse(config, args.optimizer, params=_dse_params(args))
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    _emit_report(run.report, args, "DSE")
    if args.json:
        return 0
    totals = run.report.totals
    print(f"{args.optimizer} DSE over {totals['runs']} run(s): "
          f"{totals['points']} point(s) costed in {totals['rounds']} "
          f"round(s) ({run.wall_seconds:.3f} s)")
    for label in sorted(run.report.payload["runs"]):
        payload = run.report.payload["runs"][label]
        result = payload["result"]
        if result["optimizer"] == "fmax":
            finite = sum(1 for f in result["families"]
                         if f["fmax_mhz"] is not None)
            print(f"  {label}: {payload['evaluated']} probe(s), "
                  f"{finite}/{len(result['families'])} design families "
                  f"with a finite fmax")
        else:
            line = _describe_best(result.get("best"))
            suffix = f" — {line}" if line else ""
            print(f"  {label}: {payload['evaluated']} point(s){suffix}")
    return 0


_SUITE_COMMANDS = {
    "run": _cmd_suite_run,
    "validate": _cmd_suite_validate,
    "flow": _cmd_suite_flow,
    "dse": _cmd_suite_dse,
    "diff": _cmd_suite_diff,
    "record-golden": _cmd_suite_record_golden,
}


def _cmd_suite(args) -> int:
    return _SUITE_COMMANDS[args.suite_command](args)


def _flow_settings_from_args(args):
    from repro.compiler.codegen.testbench import DEFAULT_STIMULUS_SEED
    from repro.flows import FlowSettings

    return FlowSettings(
        run_root=args.output,
        seed=args.seed if args.seed is not None else DEFAULT_STIMULUS_SEED,
        n_items=args.items,
        use_cache=args.use_cache,
    )


def _print_flow_result(result, as_json: bool) -> int:
    payload = result.payload
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if result.ok else 1
    functional = payload.get("functional", {})
    cycles = payload.get("cycles", {})
    cached = " (cached)" if result.cached else ""
    print(f"flow {result.flow} on {result.design}"
          f"{' @' + result.function if result.function else ''}: "
          f"{'OK' if result.ok else 'FAILED'}{cached}")
    if payload.get("lint"):
        for problem in payload["lint"]:
            print(f"  lint: {problem}")
    for line in payload.get("error", []):
        print(f"  error: {line}")
    if functional:
        print(f"  functional: {functional.get('outputs_checked', 0)} output "
              f"words checked, {functional.get('output_mismatches', 0)} "
              f"mismatches; reductions "
              f"{'match' if functional.get('reductions_match') else 'DISAGREE'}")
        for miss in functional.get("first_mismatches", []):
            print(f"    mismatch {miss['stream']}[{miss['index']}]: "
                  f"expected {miss['expected']}, got {miss['actual']}")
    if cycles:
        print(f"  cycles: rtl {cycles.get('rtl')}, analytic "
              f"{cycles.get('analytic')}, stepped {cycles.get('stepped')} "
              f"(gaps {cycles.get('gap_analytic')}/{cycles.get('gap_stepped')}, "
              f"bound {cycles.get('bound')})")
    if result.run_dir is not None:
        print(f"  run directory: {result.run_dir}")
    print(f"  wall: {result.wall_seconds:.3f} s")
    return 0 if result.ok else 1


def _run_sim_flow(module, args, function_name=None) -> int:
    from repro.flows import ToolUnavailableError, default_sim_flow

    flow_cls = default_sim_flow(args.backend)
    if not flow_cls.available():
        print(f"backend {args.backend!r} is not available on this machine "
              "(tool not on PATH); use --backend pyrtl", file=sys.stderr)
        return 2
    try:
        flow = flow_cls(module, _flow_settings_from_args(args),
                        function_name=function_name)
        result = flow.run()
    except (ValueError, ToolUnavailableError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return _print_flow_result(result, args.json)


def _cmd_flow_run(args) -> int:
    from repro.compiler.driver import CompilationOptions, TybecCompiler
    from repro.ir.errors import IRError

    compiler = TybecCompiler(CompilationOptions())
    try:
        module = compiler.parse(args.design.read_text(), name=args.design.stem)
    except (OSError, IRError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return _run_sim_flow(module, args, function_name=args.function)


def _cmd_flow_sim(args) -> int:
    from repro.functional.typetrans import TransformationError
    from repro.kernels import get_kernel

    kernel = get_kernel(args.kernel)
    grid = tuple(args.grid) if args.grid else kernel.default_grid
    try:
        module = kernel.build_module(lanes=args.lanes, grid=grid)
    except (ValueError, TransformationError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    return _run_sim_flow(module, args)


def _cmd_flow_report(args) -> int:
    path = args.path
    if path.is_dir():
        path = path / "result.json"
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read flow result: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"flow result at {path}:")
    for key in ("backend", "function", "items", "seed", "ok"):
        if key in payload:
            print(f"  {key}: {payload[key]}")
    for section in ("geometry", "netlist", "cycles"):
        if section in payload:
            rendered = ", ".join(f"{k}={v}" for k, v in payload[section].items())
            print(f"  {section}: {rendered}")
    functional = payload.get("functional")
    if functional:
        print(f"  functional: {functional.get('outputs_checked', 0)} checked, "
              f"{functional.get('output_mismatches', 0)} mismatches")
    return 0


_FLOW_COMMANDS = {
    "run": _cmd_flow_run,
    "sim": _cmd_flow_sim,
    "report": _cmd_flow_report,
}


def _cmd_flow(args) -> int:
    return _FLOW_COMMANDS[args.flow_command](args)


def _cmd_cache_stats(args) -> int:
    from repro.cost.cache import cache_location, default_disk_cache

    location = cache_location()
    if location is None:
        print("persistent cache: disabled (TYBEC_CACHE_DIR is empty/off)")
        return 0
    stats = default_disk_cache().stats()
    print(f"persistent cache at {stats['root']} "
          f"(schema v{stats['schema_version']}, "
          f"capacity {stats['capacity_per_namespace']} entries/namespace)")
    if not stats["namespaces"]:
        print("  empty — run `tybec cache warm` or any cost/suite command")
    for name, info in stats["namespaces"].items():
        print(f"  {name:>12}: {info['entries']:4d} entries, {info['bytes']:9d} bytes")
    return 0


def _cmd_cache_clear(args) -> int:
    from repro.cost.cache import cache_location, default_disk_cache

    if cache_location() is None:
        print("persistent cache: disabled — nothing to clear")
        return 0
    cache = default_disk_cache()
    removed = cache.clear()
    print(f"removed {removed} cached artifact(s) from {cache.root}")
    return 0


def _cmd_cache_warm(args) -> int:
    import time

    from repro.compiler import CompilationOptions, EstimationPipeline, LaneFamilyHandle
    from repro.cost.cache import cache_location, default_disk_cache
    from repro.kernels import REGISTRY
    from repro.substrate.fpga_device import get_device
    from repro.suite.runner import tiny_grid

    if cache_location() is None:
        print("persistent cache: disabled — set TYBEC_CACHE_DIR to enable",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    names = [n.lower() for n in args.kernels] if args.kernels else REGISTRY.names()
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown kernels {unknown}; available: {REGISTRY.names()}",
              file=sys.stderr)
        return 2
    for device_name in args.devices:
        device = get_device(device_name)
        pipeline = EstimationPipeline(CompilationOptions(device=device))
        pipeline.calibrate()
        print(f"calibrated {device.name}")
        for name in names:
            kernel = REGISTRY[name]()
            # the two grids the stock flows sweep: the kernel default
            # (explore) and the capped smoke grid (suite --tiny / goldens)
            for grid in {kernel.default_grid, tiny_grid(kernel.default_grid)}:
                pipeline.analyze(LaneFamilyHandle(kernel=kernel, lanes=1, grid=grid))
            print(f"  analysed design family of {name}")
    stats = default_disk_cache().stats()
    entries = sum(info["entries"] for info in stats["namespaces"].values())
    print(f"warmed {entries} artifact(s) in {time.perf_counter() - started:.2f} s "
          f"at {stats['root']}")
    return 0


_CACHE_COMMANDS = {
    "stats": _cmd_cache_stats,
    "clear": _cmd_cache_clear,
    "warm": _cmd_cache_warm,
}


def _cmd_cache(args) -> int:
    return _CACHE_COMMANDS[args.cache_command](args)


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.service import serve
    from repro.suite.runner import check_deadline_seconds

    try:
        check_deadline_seconds(args.request_deadline, "--request-deadline")
        server = serve(host=args.host, port=args.port,
                       max_concurrency=args.max_concurrency,
                       verbose=args.verbose,
                       request_deadline=args.request_deadline)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    print(f"tybec exploration service listening on "
          f"http://{args.host}:{server.port} "
          f"({args.max_concurrency} concurrent sweep(s); Ctrl-C to stop)",
          flush=True)

    # SIGTERM means "drain, don't drop": stop accepting, let every
    # in-flight stream finish, then exit 0.  shutdown() must run off the
    # serve_forever thread (it blocks until the accept loop exits, and
    # the signal handler runs *on* that thread), hence the helper thread.
    def _on_sigterm(signum, frame):
        print("SIGTERM: draining in-flight requests", flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
        # serve_forever has returned, so the shutdown inside is immediate
        drained = server.shutdown_gracefully(args.drain_timeout)
        if drained:
            print("drained; exiting", flush=True)
        else:
            print(f"drain timed out after {args.drain_timeout:g}s; "
                  f"{server.inflight_requests()} request(s) abandoned",
                  file=sys.stderr, flush=True)
    return 0


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(host=args.host, port=args.port)


def _cmd_client_cost(args) -> int:
    client = _service_client(args)
    response = client.cost(args.design.read_text(), device=args.device,
                           grid=tuple(args.grid), iterations=args.iterations,
                           pattern=args.pattern, name=args.design.stem)
    payload = response.payload
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    throughput = payload.get("throughput", {})
    feasibility = payload.get("feasibility", {})
    print(f"costed {args.design.name} on {args.device} "
          f"({response.role}, fingerprint {response.fingerprint[:12]}):")
    print(f"  EKIT {throughput.get('ekit_per_s', 0.0):.4f}/s, "
          f"form {throughput.get('form')}, "
          f"feasible {'y' if feasibility.get('feasible') else 'n'} "
          f"(limiting: {feasibility.get('limiting_factor')})")
    return 0


def _cmd_client_suite(args) -> int:
    from repro.suite.report import canonical_json

    config = _suite_config_from_args(args)
    spec = config.as_dict()
    client = _service_client(args)
    progress = None
    if not args.json:
        progress = lambda event: print(  # noqa: E731 - tiny stream hook
            f"  point {event['index']}: {event['point']['kernel']} "
            f"l{event['point']['lanes']} on {event['point']['device']}",
            file=sys.stderr)
    response = client.suite(spec, on_entry=progress)
    text = canonical_json(response.payload)
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text)
        print(f"wrote suite report to {args.output}", file=sys.stderr)
    if args.json:
        print(text, end="")
    else:
        totals = response.payload["totals"]
        print(f"costed {totals['points']} design points across "
              f"{totals['kernels']} kernels ({totals['feasible']} feasible) "
              f"via the service ({response.role}"
              f"{', coalesced' if response.coalesced else ''})")
    return 0


def _cmd_client_metrics(args) -> int:
    print(json.dumps(_service_client(args).metrics(), indent=2, sort_keys=True))
    return 0


def _cmd_client_health(args) -> int:
    payload = _service_client(args).health()
    print(json.dumps(payload, sort_keys=True))
    return 0 if payload.get("ok") else 1


_CLIENT_COMMANDS = {
    "cost": _cmd_client_cost,
    "suite": _cmd_client_suite,
    "metrics": _cmd_client_metrics,
    "health": _cmd_client_health,
}


def _cmd_client(args) -> int:
    from repro.service import ServiceError

    try:
        return _CLIENT_COMMANDS[args.client_command](args)
    except ConnectionError as exc:
        print(f"cannot reach the service at {args.host}:{args.port}: {exc} "
              f"(is `tybec serve` running?)", file=sys.stderr)
        return 2
    except (OSError, ServiceError, KeyError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


def _cmd_stream_bench(args) -> int:
    from repro.cost.bandwidth import SustainedBandwidthModel
    from repro.substrate.fpga_device import get_device
    from repro.substrate.memory_sim import MemorySystemSimulator

    device = get_device(args.device)
    sim = MemorySystemSimulator(device)
    sides = tuple(args.sides) if args.sides else MemorySystemSimulator.DEFAULT_SIDES
    model = SustainedBandwidthModel.from_simulator(sim, sides=sides)
    print(f"sustained bandwidth on {device.name} (peak {model.peak_gbps:.1f} GB/s)")
    print(f"{'side':>6} {'contiguous GB/s':>16} {'strided GB/s':>14}")
    for side in sides:
        nbytes = side * side * 4
        cont = model.sustained_gbps(nbytes)
        strided = model.sustained_gbps(nbytes, "strided")
        print(f"{side:>6} {cont:>16.3f} {strided:>14.3f}")
    return 0


def _cmd_trace_summarize(args) -> int:
    from repro.obs.trace import format_trace_summary, load_trace, summarize_trace

    try:
        header, records = load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    summary = summarize_trace(records, top=args.top)
    if args.json:
        print(json.dumps({"header": header, **summary}, indent=2,
                         sort_keys=True))
        return 0
    print(f"trace {header.get('trace_id', '?')} at {args.path}")
    print(format_trace_summary(summary))
    return 0


def _cmd_trace(args) -> int:
    return {"summarize": _cmd_trace_summarize}[args.trace_command](args)


def _cmd_bench_report(args) -> int:
    from repro.obs.bench import (
        DEFAULT_RESULTS_DIR,
        collect_bench_metrics,
        format_bench_table,
    )

    results_dir = args.dir if args.dir is not None else DEFAULT_RESULTS_DIR
    if not results_dir.is_dir():
        print(f"no benchmark results directory at {results_dir} "
              f"(run the benchmarks/ suite first)", file=sys.stderr)
        return 2
    rows = collect_bench_metrics(results_dir)
    failing = [row for row in rows if row.ok is False]
    if args.json:
        print(json.dumps([row.as_dict() for row in rows], indent=2))
    else:
        print(format_bench_table(rows))
    return 1 if args.strict and failing else 0


def _cmd_bench(args) -> int:
    return {"report": _cmd_bench_report}[args.bench_command](args)


_COMMANDS = {
    "cost": _cmd_cost,
    "emit": _cmd_emit,
    "explore": _cmd_explore,
    "calibrate": _cmd_calibrate,
    "stream-bench": _cmd_stream_bench,
    "flow": _cmd_flow,
    "suite": _cmd_suite,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "client": _cmd_client,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.obs.trace import TRACE_ENV, activate_from_env, uninstall_tracer

    if args.log_level:
        from repro.obs.logs import parse_level, setup_logging

        setup_logging(parse_level(args.log_level))
    prior_env = os.environ.get(TRACE_ENV)
    if args.trace is not None:
        # the env var is the single activation path (workers and library
        # code read it too); the flag just sets it for this invocation
        os.environ[TRACE_ENV] = str(args.trace)
    tracer = activate_from_env()
    try:
        return _COMMANDS[args.command](args)
    finally:
        if tracer is not None:
            uninstall_tracer()
        if args.trace is not None:
            if prior_env is None:
                os.environ.pop(TRACE_ENV, None)
            else:
                os.environ[TRACE_ENV] = prior_env


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
