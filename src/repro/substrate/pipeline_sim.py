"""Cycle-accurate simulator of TyTra streaming pipelines.

The paper validates its throughput estimates against the cycles-per-
kernel-instance measured on the actual FPGA (Table II).  Here the ground
truth comes from simulating the very pipeline the back-end compiler
schedules: offset-buffer priming, pipeline fill, steady-state streaming
(possibly stalled by the memory system) and drain.

Two execution modes are provided:

* an **analytic** mode that computes the cycle count in closed form — fast
  enough to sweep large NDRanges;
* a **cycle-stepping** mode that advances a token-level model one cycle at
  a time — used to cross-validate the analytic mode on small runs.

The two modes share one accounting scheme so they can be compared
directly (see :mod:`repro.validate`):

* ``fill_cycles`` is the offset-buffer priming time plus the pipeline
  depth in both modes;
* ``stall_cycles`` is the time beyond the no-stall baseline in both
  modes: ``cycles - fill_cycles - ceil(items / ideal_items_per_cycle)``;
* the cycle counts agree within one pipeline depth plus one issue
  interval (a single cycle for the fully pipelined datapaths the
  compiler schedules, ``cycles_per_instruction * instructions`` for a
  time-multiplexed spec, whose bursty issue quantises the drain) plus a
  few cycles of phase-boundary rounding
  (:data:`CYCLE_AGREEMENT_SLACK`) — a property test enforces this
  across lanes x offsets x memory rates x issue intervals, and the
  cross-validation gate holds the six golden kernels to the strict
  one-pipeline-depth bound.

Offset priming may be driven at a different memory rate than the steady
state (``fill_memory_gbps``): the EKIT cost model charges the offset fill
at the sustained DRAM bandwidth in *every* memory-execution form, even
form C where the steady state streams from on-chip memory.
"""

from __future__ import annotations

import math
from collections import deque

from repro import record
from repro.substrate.memory_sim import MemorySystemSimulator

__all__ = [
    "CYCLE_AGREEMENT_SLACK",
    "PipelineSpec",
    "SimulationResult",
    "SimulationDivergedError",
    "PipelineSimulator",
]

#: cycles of phase-boundary rounding the two modes may legitimately differ
#: by on top of one pipeline depth (priming/steady/drain each round once)
CYCLE_AGREEMENT_SLACK = 4


class SimulationDivergedError(RuntimeError):
    """The cycle-stepping simulation exceeded its safety bound.

    The bound is a generous multiple of the analytic-mode expectation, so
    tripping it means the token-level model made no forward progress the
    closed form predicts — a simulator bug or a mis-configured spec, never
    a legitimate result.  The partially-stepped state is attached for
    diagnosis instead of being returned as a silently-truncated (wrong)
    cycle count.
    """

    def __init__(self, spec_name: str, cycles: int, retired: int, n_items: int):
        super().__init__(
            f"cycle-stepping simulation of {spec_name!r} diverged: "
            f"{retired}/{n_items} items retired after {cycles} cycles"
        )
        self.spec_name = spec_name
        self.cycles = cycles
        self.retired = retired
        self.n_items = n_items


@record(frozen=True)
class PipelineSpec:
    """Architectural summary of a compiled compute unit.

    Attributes
    ----------
    name:
        For reporting.
    lanes:
        Number of replicated kernel pipelines (``KNL``).
    vectorization:
        Degree of vectorisation per lane (``DV``).
    pipeline_depth:
        Depth of one lane in cycles (``KPD``).
    instructions:
        Datapath instructions per processing element (``NI``).
    cycles_per_instruction:
        ``NTO``; 1 for a fully pipelined spatial datapath.
    offset_fill_words:
        Words that must be buffered before the first work-item can enter
        the datapath (``Noff`` — the maximum stream offset span).
    input_words_per_item / output_words_per_item:
        Stream words consumed / produced per work-item per lane.
    element_bytes:
        Size of one stream word.
    clock_mhz:
        Kernel clock (``FD``).
    """

    name: str = "pipeline"
    lanes: int = 1
    vectorization: int = 1
    pipeline_depth: int = 1
    instructions: int = 1
    cycles_per_instruction: int = 1
    offset_fill_words: int = 0
    input_words_per_item: int = 1
    output_words_per_item: int = 1
    element_bytes: int = 4
    clock_mhz: float = 200.0

    def __post_init__(self) -> None:
        if self.lanes < 1 or self.vectorization < 1:
            raise ValueError("lanes and vectorization must be >= 1")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if self.cycles_per_instruction < 1:
            raise ValueError("cycles_per_instruction must be >= 1")
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")

    @property
    def words_per_item(self) -> int:
        return self.input_words_per_item + self.output_words_per_item

    @property
    def issue_interval_cycles(self) -> int:
        """Cycles between issue events: 1 for a fully pipelined datapath,
        ``NI * NTO`` when functional units are time-multiplexed."""
        if self.cycles_per_instruction == 1:
            return 1
        return self.cycles_per_instruction * max(1, self.instructions)

    @property
    def cycle_agreement_bound(self) -> int:
        """One pipeline depth plus one issue interval: the documented
        bound within which independent executions of this spec (the
        analytic mode, the cycle-stepping mode, and — via
        :mod:`repro.flows` — the RTL simulation of the generated
        datapath) must agree on a kernel instance's cycle count."""
        return self.pipeline_depth + self.issue_interval_cycles

    @property
    def ideal_items_per_cycle(self) -> float:
        """Work-items retired per cycle with no memory stalls."""
        if self.issue_interval_cycles == 1:
            return float(self.lanes * self.vectorization)
        # time-multiplexed functional units: one item per NI*NTO cycles per lane
        return self.lanes * self.vectorization / self.issue_interval_cycles

    @property
    def clock_hz(self) -> float:
        return self.clock_mhz * 1e6


@record(frozen=True)
class SimulationResult:
    """Outcome of simulating one kernel-instance execution."""

    spec_name: str
    items: int
    cycles: int
    seconds: float
    stall_cycles: int
    fill_cycles: int
    items_per_cycle: float
    cycles_per_item: float
    limited_by: str  # 'compute' or 'memory'

    @property
    def cycles_per_kernel_instance(self) -> int:
        """CPKI — the quantity reported in Table II."""
        return self.cycles

    def as_dict(self) -> dict:
        return {
            "spec": self.spec_name,
            "items": self.items,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "stall_cycles": self.stall_cycles,
            "fill_cycles": self.fill_cycles,
            "items_per_cycle": self.items_per_cycle,
            "cycles_per_item": self.cycles_per_item,
            "limited_by": self.limited_by,
        }


class PipelineSimulator:
    """Simulate kernel-instance executions of a compiled pipeline."""

    def __init__(self, memory: MemorySystemSimulator | None = None):
        self.memory = memory

    # ------------------------------------------------------------------
    def _memory_words_per_cycle(self, spec: PipelineSpec, memory_gbps: float | None) -> float:
        """Stream words the memory system can deliver per kernel cycle."""
        if memory_gbps is None:
            if self.memory is None:
                return math.inf
            memory_gbps = self.memory.dram.effective_peak_gbps
        bytes_per_cycle = memory_gbps * 1e9 / spec.clock_hz
        return bytes_per_cycle / spec.element_bytes

    # ------------------------------------------------------------------
    def run_kernel_instance(
        self,
        spec: PipelineSpec,
        n_items: int,
        memory_gbps: float | None = None,
        *,
        fill_memory_gbps: float | None = None,
        cycle_accurate: bool = False,
        max_cycles: int | None = None,
    ) -> SimulationResult:
        """Execute one kernel instance of ``n_items`` work-items.

        ``memory_gbps`` bounds the steady-state stream rate (``math.inf``
        for data resident on chip); ``fill_memory_gbps`` bounds the
        offset-buffer priming rate separately and defaults to the
        steady-state rate.  ``max_cycles`` overrides the cycle-stepping
        safety bound (for tests); when the bound trips, the stepping mode
        raises :class:`SimulationDivergedError` instead of returning a
        truncated cycle count.
        """
        if n_items <= 0:
            raise ValueError("n_items must be positive")
        for name, value in (("memory_gbps", memory_gbps),
                            ("fill_memory_gbps", fill_memory_gbps)):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if cycle_accurate:
            return self._run_cycle_accurate(spec, n_items, memory_gbps,
                                            fill_memory_gbps, max_cycles)
        return self._run_analytic(spec, n_items, memory_gbps, fill_memory_gbps)

    # -- analytic mode ----------------------------------------------------
    def _run_analytic(
        self,
        spec: PipelineSpec,
        n_items: int,
        memory_gbps: float | None,
        fill_memory_gbps: float | None = None,
    ) -> SimulationResult:
        words_per_cycle = self._memory_words_per_cycle(spec, memory_gbps)
        fill_words_per_cycle = (
            words_per_cycle
            if fill_memory_gbps is None
            else self._memory_words_per_cycle(spec, fill_memory_gbps)
        )

        # 1. prime the offset buffers (ingest capped at one word per lane)
        if spec.offset_fill_words > 0:
            fill_rate = min(fill_words_per_cycle, float(spec.lanes * spec.vectorization))
            fill_cycles = math.ceil(spec.offset_fill_words / max(fill_rate, 1e-12))
        else:
            fill_cycles = 0

        # 2. fill the pipeline
        fill_cycles += spec.pipeline_depth

        # 3. steady state: compute rate vs memory rate
        compute_rate = spec.ideal_items_per_cycle
        memory_rate = words_per_cycle / spec.words_per_item if spec.words_per_item else math.inf
        effective_rate = min(compute_rate, memory_rate)
        steady_cycles = math.ceil(n_items / effective_rate)
        ideal_cycles = math.ceil(n_items / compute_rate)

        total = fill_cycles + steady_cycles
        # stall accounting shared with the stepping mode: cycles beyond the
        # no-stall baseline of fill + ideal steady state
        stalls = total - fill_cycles - ideal_cycles
        seconds = total / spec.clock_hz
        return SimulationResult(
            spec_name=spec.name,
            items=n_items,
            cycles=total,
            seconds=seconds,
            stall_cycles=max(0, stalls),
            fill_cycles=fill_cycles,
            items_per_cycle=n_items / total,
            cycles_per_item=total / n_items,
            limited_by="memory" if memory_rate < compute_rate else "compute",
        )

    # -- cycle-stepping mode ------------------------------------------------
    def _run_cycle_accurate(
        self,
        spec: PipelineSpec,
        n_items: int,
        memory_gbps: float | None,
        fill_memory_gbps: float | None = None,
        max_cycles: int | None = None,
    ) -> SimulationResult:
        words_per_cycle = self._memory_words_per_cycle(spec, memory_gbps)
        fill_words_per_cycle = (
            words_per_cycle
            if fill_memory_gbps is None
            else self._memory_words_per_cycle(spec, fill_memory_gbps)
        )
        issue_interval = spec.issue_interval_cycles
        lanes = spec.lanes * spec.vectorization
        # the stream FIFO between the memory interface and the ingest ports
        # holds one issue interval's worth of consumption plus one issue
        # interval's worth of delivery headroom: an unbounded credit bank
        # would let the memory run arbitrarily far ahead of the pipeline,
        # while a smaller FIFO would drop deliveries that arrive while a
        # (bursty, time-multiplexed) consumer sits between issue events —
        # either breaks the agreement with the analytic mode
        consume_per_event = float(max(lanes * spec.words_per_item, lanes))
        fill_credit_cap = lanes + min(fill_words_per_cycle, float(lanes))
        steady_credit_cap = consume_per_event + min(
            words_per_cycle * issue_interval, consume_per_event
        )

        if max_cycles is None:
            # safety bound: a generous multiple of the analytic expectation,
            # so it can only trip on genuine non-progress (never on a slow
            # but well-formed configuration)
            expected = self._run_analytic(spec, n_items, memory_gbps, fill_memory_gbps)
            max_cycles = 10 * expected.cycles + 1000

        cycles = 0
        word_credit = 0.0
        buffered_words = 0.0
        issued = 0
        retired = 0
        fill_cycles = 0
        # each in-flight item retires pipeline_depth cycles after issue
        retire_queue: deque[int] = deque()
        offset_target = spec.offset_fill_words
        next_issue_cycle = 0
        priming = buffered_words < offset_target

        while retired < n_items:
            if cycles >= max_cycles:
                raise SimulationDivergedError(spec.name, cycles, retired, n_items)

            # priming phase: fill offset buffers before the first issue
            # (ingest capped at one word per lane, as in the analytic mode)
            if priming:
                word_credit = min(word_credit + fill_words_per_cycle, fill_credit_cap)
                take = min(word_credit, offset_target - buffered_words, float(lanes))
                buffered_words += take
                word_credit -= take
                cycles += 1
                fill_cycles += 1
                if buffered_words >= offset_target:
                    # the prefetcher does not run ahead of priming: leftover
                    # credit is discarded at the phase boundary
                    priming = False
                    word_credit = 0.0
                continue

            word_credit = min(word_credit + words_per_cycle, steady_credit_cap)

            # issue up to `lanes` items this cycle, each consuming its words
            issued_this_cycle = 0
            while (
                issued < n_items
                and issued_this_cycle < lanes
                and cycles >= next_issue_cycle
                and word_credit >= spec.words_per_item
            ):
                word_credit -= spec.words_per_item
                retire_queue.append(cycles + spec.pipeline_depth)
                issued += 1
                issued_this_cycle += 1
            if issue_interval > 1 and issued_this_cycle:
                next_issue_cycle = cycles + issue_interval

            while retire_queue and retire_queue[0] <= cycles:
                retire_queue.popleft()
                retired += 1

            cycles += 1

        seconds = cycles / spec.clock_hz
        compute_rate = spec.ideal_items_per_cycle
        memory_rate = (
            words_per_cycle / spec.words_per_item if spec.words_per_item else math.inf
        )
        # fill/stall accounting shared with the analytic mode
        fill_total = fill_cycles + spec.pipeline_depth
        stalls = cycles - fill_total - math.ceil(n_items / compute_rate)
        return SimulationResult(
            spec_name=spec.name,
            items=n_items,
            cycles=cycles,
            seconds=seconds,
            stall_cycles=max(0, stalls),
            fill_cycles=fill_total,
            items_per_cycle=n_items / cycles,
            cycles_per_item=cycles / n_items,
            limited_by="memory" if memory_rate < compute_rate else "compute",
        )
