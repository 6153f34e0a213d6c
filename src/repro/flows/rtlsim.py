"""Driving an elaborated kernel netlist through one stream of work items.

This is the pure-Python counterpart of the generated testbench: reset,
stream ``n_items`` stimulus words (one per cycle, ``in_valid`` high),
zero-drive the tail, collect every ``out_valid`` output word and the
final reduction registers, and count cycles.  The resulting
:class:`RTLSimOutcome` is what the flows compare bit for bit against
:func:`repro.flows.refmodel.reference_outputs` and cycle for cycle
against the :class:`~repro.substrate.pipeline_sim.PipelineSimulator`.
"""

from __future__ import annotations

from repro import record
from repro.compiler.codegen.verilog import _sanitize
from repro.flows.netlist import Netlist, NetlistSimulator
from repro.flows.refmodel import ReferenceResult

__all__ = ["RTLSimulationError", "RTLSimOutcome", "simulate_stream", "compare_outcome"]


class RTLSimulationError(RuntimeError):
    """The netlist failed to produce the expected number of outputs."""


@record(frozen=True)
class RTLSimOutcome:
    """What one netlist simulation produced."""

    n_items: int
    #: cycle (counted from reset release) of the first/last out_valid
    first_output_cycle: int
    last_output_cycle: int
    #: output stream name (IR name, not port name) -> collected words
    outputs: dict[str, list[int]]
    #: reduction name -> final register value
    reductions: dict[str, int]

    @property
    def cycles(self) -> int:
        """Total cycles from reset release to the last output."""
        return self.last_output_cycle + 1

    @property
    def latency(self) -> int:
        """Input-to-output latency the netlist actually realises."""
        return self.first_output_cycle


def simulate_stream(
    netlist: Netlist,
    stimulus: dict[str, list[int]],
    n_items: int,
    output_names: list[str],
    reduction_names: list[str],
    max_extra_cycles: int = 4096,
    drain_cycles: int = 8,
) -> RTLSimOutcome:
    """Stream ``n_items`` through an elaborated kernel module.

    ``drain_cycles`` idle cycles run after the last output so reduction
    registers scheduled deeper than the output stage commit their final
    item before they are read.
    """
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    sim = NetlistSimulator(netlist)
    stream_ports = {name: f"s_{_sanitize(name)}" for name in stimulus}
    out_ports = {name: f"s_{_sanitize(name)}" for name in output_names}
    red_ports = {name: f"g_{_sanitize(name)}" for name in reduction_names}
    for port in list(stream_ports.values()) + list(out_ports.values()):
        if port not in netlist.widths:
            raise RTLSimulationError(f"netlist has no port {port!r}")

    # reset preamble (registers already power up at zero, but the reset
    # path itself is part of the generated logic under test)
    idle = {"rst": 1, "in_valid": 0, **{p: 0 for p in stream_ports.values()}}
    for _ in range(2):
        sim.step(idle)

    outputs: dict[str, list[int]] = {name: [] for name in output_names}
    first_cycle = -1
    last_cycle = -1
    collected = 0
    cycle = 0
    budget = n_items + max_extra_cycles
    while collected < n_items:
        if cycle >= budget:
            raise RTLSimulationError(
                f"{netlist.name}: {collected}/{n_items} outputs after "
                f"{cycle} cycles — out_valid never caught up")
        driving = cycle < n_items
        inputs = {"rst": 0, "in_valid": 1 if driving else 0}
        for name, port in stream_ports.items():
            inputs[port] = stimulus[name][cycle] if driving else 0
        sampled = sim.step(inputs)
        if sampled.get("out_valid"):
            for name, port in out_ports.items():
                outputs[name].append(sampled[port])
            if first_cycle < 0:
                first_cycle = cycle
            last_cycle = cycle
            collected += 1
        cycle += 1

    for _ in range(max(0, drain_cycles)):
        sim.step({"rst": 0, "in_valid": 0,
                  **{port: 0 for port in stream_ports.values()}})

    reductions = {name: sim.values[port] for name, port in red_ports.items()}
    return RTLSimOutcome(
        n_items=n_items,
        first_output_cycle=first_cycle,
        last_output_cycle=last_cycle,
        outputs=outputs,
        reductions=reductions,
    )


def compare_outcome(outcome: RTLSimOutcome, reference: ReferenceResult,
                    max_mismatches: int = 8) -> dict:
    """Bit-exact functional comparison of a simulation against the reference.

    Every item of every output stream is compared — including the
    boundary items, whose expected values follow the same flushed-zero
    convention the hardware realises — plus every reduction accumulator.
    Returns a canonical-report-ready payload.
    """
    mismatches: list[dict] = []
    checked = 0
    total_mismatches = 0
    for name, expected in sorted(reference.outputs.items()):
        got = outcome.outputs.get(name, [])
        for index, value in enumerate(expected):
            checked += 1
            actual = got[index] if index < len(got) else None
            if actual != value:
                total_mismatches += 1
                if len(mismatches) < max_mismatches:
                    mismatches.append({
                        "stream": name,
                        "index": index,
                        "expected": value,
                        "actual": actual,
                        "interior": reference.interior[index],
                    })

    reduction_report = {}
    reductions_ok = True
    for name, expected in sorted(reference.reductions.items()):
        actual = outcome.reductions.get(name)
        equal = actual == expected
        reductions_ok = reductions_ok and equal
        reduction_report[name] = {
            "expected": expected,
            "actual": actual,
            "ok": equal,
        }

    return {
        "items": reference.n_items,
        "interior_items": reference.interior_items,
        "outputs_checked": checked,
        "output_mismatches": total_mismatches,
        "first_mismatches": mismatches,
        "reductions": reduction_report,
        "outputs_match": total_mismatches == 0,
        "reductions_match": reductions_ok,
        "ok": total_mismatches == 0 and reductions_ok,
    }
