"""Concrete flows: the pure-Python RTL backend and the external adapters.

:class:`RTLSimFlow` is the dependency-free core of the subsystem — it
elaborates the generated Verilog *text* into a structural netlist,
streams the deterministic testbench stimulus through it, checks every
output word and reduction against the kernel's Python reference
(:mod:`repro.flows.refmodel`) and the cycle count against the
:class:`~repro.substrate.pipeline_sim.PipelineSimulator` in both its
analytic and cycle-stepping modes — closing the
estimate ↔ cycle-sim ↔ RTL-sim triangle.  Its front end is keyed on the
Verilog text: each distinct kernel source is parsed, linted and
elaborated once per process (the lane families of one kernel emit the
same leaf module), and its netlist compiles its stream runner once; the
reference model likewise compiles each distinct leaf datapath once per
process.  A repeated kernel only simulates and evaluates its own
stimulus.

:class:`ElaborateFlow` is the synth-side counterpart: structural lint
plus netlist statistics for every generated file.

The external adapters (:class:`IcarusSimFlow`, :class:`VerilatorLintFlow`,
:class:`YosysSynthFlow`) drive real tools discovered on ``PATH`` and are
skipped cleanly when absent.
"""

from __future__ import annotations

import math
import re
import tempfile
from pathlib import Path

from repro.compiler.codegen.testbench import generate_testbench, parse_result_lines
from repro.compiler.codegen.verilog import _sanitize
from repro.cost.cache import BoundedCache
from repro.flows.base import Flow, SimFlow, SynthFlow
from repro.flows.netlist import Netlist, elaborate, lint_module
from repro.flows.refmodel import kernel_stimulus, reference_outputs
from repro.flows.rtlsim import RTLSimOutcome, compare_outcome, simulate_stream
from repro.flows.tools import find_tool, require_tool, run_tool
from repro.flows.verilog import VerilogParseError, parse_module_text, parse_modules
from repro.substrate.pipeline_sim import PipelineSimulator, PipelineSpec

__all__ = [
    "RTLSimFlow",
    "ElaborateFlow",
    "IcarusSimFlow",
    "VerilatorLintFlow",
    "YosysSynthFlow",
    "FLOW_CLASSES",
    "default_sim_flow",
]

#: kernel Verilog source -> (lint violations, netlist), per process
_FRONT_END = BoundedCache(64, name="flows.front-end")


def _front_end(source: str) -> tuple[tuple[str, ...], Netlist]:
    """Parse, lint and elaborate ``source`` once per process; a source
    that fails raises again on every call and is never stored."""
    entry = _FRONT_END.get(source)
    if entry is None:
        module = parse_module_text(source)
        entry = (tuple(lint_module(module)), elaborate(module))
        _FRONT_END.put(source, entry)
    return entry


class RTLSimFlow(SimFlow):
    """Elaborate + cycle-simulate the generated kernel, pure Python."""

    name = "rtl-sim"
    VERSION = 1

    def _cycle_legs(self, geometry, func, outcome: RTLSimOutcome) -> dict:
        """RTL cycles vs the pipeline simulator under testbench conditions.

        The testbench streams one item per cycle into a single lane with
        data effectively on-chip, so the matching simulator configuration
        is one lane, unconstrained memory, and the aligned offset window
        as the priming words.  The acceptance bound is the simulator's
        documented agreement invariant: one pipeline depth plus one issue
        interval.
        """
        element = func.args[0][0] if func.args else None
        spec = PipelineSpec(
            name=f"{self.module.name}/{func.name}",
            lanes=1,
            vectorization=1,
            pipeline_depth=max(1, geometry.schedule_depth),
            instructions=max(1, func.instruction_count()),
            cycles_per_instruction=1,
            offset_fill_words=geometry.window,
            input_words_per_item=max(1, len(func.args)),
            output_words_per_item=max(1, len(self.output_names(func))),
            element_bytes=max(1, (element.width + 7) // 8) if element else 4,
            clock_mhz=200.0,
        )
        simulator = PipelineSimulator()
        analytic = simulator.run_kernel_instance(spec, outcome.n_items, math.inf)
        stepped = simulator.run_kernel_instance(
            spec, outcome.n_items, math.inf, cycle_accurate=True)
        bound = spec.cycle_agreement_bound
        gap_analytic = abs(outcome.cycles - analytic.cycles)
        gap_stepped = abs(outcome.cycles - stepped.cycles)
        return {
            "rtl": outcome.cycles,
            "rtl_latency": outcome.latency,
            "analytic": analytic.cycles,
            "stepped": stepped.cycles,
            "gap_analytic": gap_analytic,
            "gap_stepped": gap_stepped,
            "bound": bound,
            "ok": gap_analytic <= bound and gap_stepped <= bound,
        }

    def execute(self) -> dict:
        func = self.target_function()
        with self._stage("emit"):
            geometry = self.generator.geometry(func.name)
            source = self.cached_artifacts()[f"{_sanitize(func.name)}_kernel.v"]
        with self._stage("elaborate"):
            lint, netlist = _front_end(source)
        n_items = self.n_items
        with self._stage("reference"):
            stimulus = kernel_stimulus(func, n_items, self.settings.seed)
            reference = reference_outputs(self.module, func, n_items,
                                          self.settings.seed, stimulus=stimulus)
        with self._stage("simulate"):
            outcome = simulate_stream(
                netlist,
                stimulus,
                n_items,
                self.output_names(func),
                self.reduction_names(func),
                max_extra_cycles=geometry.latency + 64,
                drain_cycles=geometry.schedule_depth + 4,
            )
        with self._stage("verify"):
            functional = compare_outcome(outcome, reference)
            cycles = self._cycle_legs(geometry, func, outcome)
        return {
            "backend": "pyrtl",
            "function": func.name,
            "items": n_items,
            "seed": self.settings.seed,
            "geometry": {
                "window": geometry.window,
                "datapath_depth": geometry.datapath_depth,
                "schedule_depth": geometry.schedule_depth,
                "latency": geometry.latency,
            },
            "netlist": netlist.stats(),
            "lint": list(lint),
            "functional": functional,
            "cycles": cycles,
            "ok": not lint and functional["ok"] and cycles["ok"],
        }


class ElaborateFlow(SynthFlow):
    """Parse, lint and structurally elaborate every generated file."""

    name = "rtl-elab"
    VERSION = 1

    def execute(self) -> dict:
        files = self.cached_artifacts()
        report: dict[str, dict] = {}
        clean = True
        for name, text in sorted(files.items()):
            if not name.endswith(".v"):
                continue
            try:
                parsed = parse_modules(text)
            except VerilogParseError as exc:
                parsed, problems = [], [str(exc)]
            else:
                problems = [p for module in parsed for p in lint_module(module)]
            clean = clean and not problems
            modules = {} if problems else {
                module.name: elaborate(module).stats() for module in parsed}
            report[name] = {"lint": problems, "modules": modules}
        return {"files": report, "ok": clean}


# ----------------------------------------------------------------------
# External adapters (PATH-discovered, cleanly skipped when absent)
# ----------------------------------------------------------------------


class IcarusSimFlow(SimFlow):
    """Simulate the generated testbench with Icarus Verilog.

    Drives the *same* seeded stimulus as the pure-Python backend (it is
    baked into the generated testbench) and checks the machine-parsable
    ``RESULT`` lines against the same Python reference.
    """

    name = "iverilog-sim"
    VERSION = 1

    @classmethod
    def available(cls) -> bool:
        return find_tool("iverilog") is not None and find_tool("vvp") is not None

    def artifacts(self) -> dict[str, str]:
        files = super().artifacts()
        func = self.target_function()
        files[f"tb_{_sanitize(func.name)}.v"] = generate_testbench(
            self.module, function_name=func.name, n_items=self.n_items,
            seed=self.settings.seed,
        )
        return files

    def execute(self) -> dict:
        iverilog = require_tool("iverilog")
        vvp = require_tool("vvp")
        func = self.target_function()
        ident = _sanitize(func.name)
        n_items = self.n_items
        files = self.cached_artifacts()
        with tempfile.TemporaryDirectory(prefix="tybec-iverilog-") as tmp:
            tmp_path = Path(tmp)
            for name, text in files.items():
                (tmp_path / name).write_text(text)
            compile_result = run_tool(
                [iverilog, "-g2001", "-o", "sim.vvp",
                 f"tb_{ident}.v", f"{ident}_kernel.v"],
                cwd=tmp_path,
            )
            if not compile_result.ok:
                return {"backend": "iverilog", "ok": False,
                        "error": compile_result.stderr.strip().splitlines()[-5:]}
            sim_result = run_tool([vvp, "sim.vvp"], cwd=tmp_path)

        outputs, reductions, cycles = parse_result_lines(sim_result.stdout)
        reference = reference_outputs(self.module, func, n_items, self.settings.seed)
        collected = {
            name: [values.get(i) for i in range(n_items)]
            for name, values in outputs.items()
        }
        outcome = RTLSimOutcome(
            n_items=n_items,
            first_output_cycle=0,
            last_output_cycle=(cycles or 0) - 1,
            outputs=collected,
            reductions={k: v for k, v in reductions.items() if v is not None},
        )
        functional = compare_outcome(outcome, reference)
        return {
            "backend": "iverilog",
            "function": func.name,
            "items": n_items,
            "seed": self.settings.seed,
            "done_cycles": cycles,
            "functional": functional,
            "ok": sim_result.ok and functional["ok"],
        }


class VerilatorLintFlow(SynthFlow):
    """``verilator --lint-only`` over the generated kernel modules."""

    name = "verilator-lint"
    VERSION = 1

    @classmethod
    def available(cls) -> bool:
        return find_tool("verilator") is not None

    def execute(self) -> dict:
        verilator = require_tool("verilator")
        files = self.cached_artifacts()
        report: dict[str, dict] = {}
        clean = True
        with tempfile.TemporaryDirectory(prefix="tybec-verilator-") as tmp:
            tmp_path = Path(tmp)
            for name, text in files.items():
                (tmp_path / name).write_text(text)
            for name in sorted(files):
                if not name.endswith("_kernel.v"):
                    continue
                result = run_tool(
                    [verilator, "--lint-only", "-Wno-fatal", name], cwd=tmp_path)
                clean = clean and result.ok
                report[name] = {
                    "returncode": result.returncode,
                    "warnings": result.stderr.strip().splitlines()[:20],
                }
        return {"backend": "verilator", "files": report, "ok": clean}


class YosysSynthFlow(SynthFlow):
    """Elaborate the generated design with yosys and parse ``stat``."""

    name = "yosys-synth"
    VERSION = 1

    _STAT_RE = re.compile(r"Number of (?P<what>wires|cells|processes):\s+(?P<count>\d+)")

    @classmethod
    def available(cls) -> bool:
        return find_tool("yosys") is not None

    def execute(self) -> dict:
        yosys = require_tool("yosys")
        files = self.cached_artifacts()
        sources = [name for name in sorted(files) if name.endswith(".v")]
        with tempfile.TemporaryDirectory(prefix="tybec-yosys-") as tmp:
            tmp_path = Path(tmp)
            for name, text in files.items():
                (tmp_path / name).write_text(text)
            script = "; ".join(
                [f"read_verilog {name}" for name in sources]
                + ["hierarchy -check", "proc", "stat"]
            )
            result = run_tool([yosys, "-QT", "-p", script], cwd=tmp_path)
        stats = {m.group("what"): int(m.group("count"))
                 for m in self._STAT_RE.finditer(result.stdout)}
        return {
            "backend": "yosys",
            "stats": stats,
            "log_tail": result.stdout.strip().splitlines()[-5:],
            "ok": result.ok,
        }


#: flow registry for the CLI (name -> class)
FLOW_CLASSES: dict[str, type[Flow]] = {
    cls.name: cls
    for cls in (RTLSimFlow, ElaborateFlow, IcarusSimFlow,
                VerilatorLintFlow, YosysSynthFlow)
}


def default_sim_flow(backend: str = "pyrtl") -> type[SimFlow]:
    """The sim-flow class a backend name selects."""
    if backend in ("pyrtl", "python"):
        return RTLSimFlow
    if backend == "iverilog":
        return IcarusSimFlow
    raise KeyError(f"unknown simulation backend {backend!r}; "
                   "expected 'pyrtl' or 'iverilog'")
