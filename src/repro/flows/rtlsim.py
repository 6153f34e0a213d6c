"""Driving an elaborated kernel netlist through one stream of work items.

This is the pure-Python counterpart of the generated testbench: reset,
stream ``n_items`` stimulus words (one per cycle, ``in_valid`` high),
zero-drive the tail, collect every ``out_valid`` output word and the
final reduction registers, and count cycles.  The whole stream runs in
one call of the netlist's compiled runner
(:meth:`~repro.flows.netlist.NetlistSimulator.stream`); the per-cycle
loop it replaced is the test oracle's implementation of the same
method (``tests/flows/netlist_oracle.py``).  The resulting
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
    item before they are read.  A port the kernel's streams and
    reductions name but the netlist lacks, and ``out_valid`` not rising
    ``n_items`` times within ``n_items + max_extra_cycles`` cycles, raise
    :class:`RTLSimulationError`.
    """
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    sim = NetlistSimulator(netlist)
    stream_ports = {name: f"s_{_sanitize(name)}" for name in stimulus}
    out_ports = {name: f"s_{_sanitize(name)}" for name in output_names}
    red_ports = {name: f"g_{_sanitize(name)}" for name in reduction_names}
    for ports, declared in ((stream_ports, netlist.inputs),
                            (out_ports, netlist.outputs),
                            (red_ports, netlist.widths)):
        for port in ports.values():
            if port not in declared:
                raise RTLSimulationError(f"netlist has no port {port!r}")

    budget = n_items + max_extra_cycles
    cycles, words = sim.stream(
        {port: stimulus[name] for name, port in stream_ports.items()},
        n_items, budget, drain_cycles)
    if len(cycles) < n_items:
        raise RTLSimulationError(
            f"{netlist.name}: {len(cycles)}/{n_items} outputs after "
            f"{max(0, budget)} cycles — out_valid never caught up")
    return RTLSimOutcome(
        n_items=n_items,
        first_output_cycle=cycles[0],
        last_output_cycle=cycles[-1],
        outputs={name: words[port] for name, port in out_ports.items()},
        reductions={name: sim.values[port] for name, port in red_ports.items()},
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
