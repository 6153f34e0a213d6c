"""The EKIT throughput cost model (paper §V-B, Equations 1-3).

EKIT — Effective Kernel-Instance Throughput — measures how many
kernel-instance executions per second a design variant sustains, where a
kernel instance is the kernel applied to its entire NDRange (see
:mod:`repro.models.execution`).  Measuring at this granularity lets the
model account for memory latencies, access-pattern-dependent bandwidth
and (if applicable) reconfiguration penalties.

The total time of one kernel instance is composed of four elements
(Form A, Equation 1):

1. transferring the NDRange data between host and device DRAM
   (``NGS*NWPT`` words at the sustained host bandwidth ``HPB*rhoH``);
2. filling the offset stream buffers until the first work-item can be
   processed (``Noff`` words at the sustained DRAM bandwidth ``GPB*rhoG``);
3. filling the kernel pipeline (``KPD`` cycles at ``FD``);
4. executing all work-items, limited by whichever of the DRAM bandwidth or
   the device pipeline is slower — the ``max`` term.

Form B divides the host-transfer contribution by ``NKI`` (data staged in
device DRAM once and reused across kernel-instance iterations); Form C
replaces the ``max`` with its compute argument (data resident on chip, so
execution is always compute bound).

Parameter semantics
-------------------
Bandwidths are in GB/s and word counts are converted through
``word_bytes``; the paper's expressions elide the word size because its
bandwidth figures are already per-word.

``NTO`` (cycles per instruction) and ``NI`` (instructions per PE) combine
with ``NWPT`` in the compute term ``NGS*NWPT*NTO*NI / (FD*KNL*DV)``.  For
a fully-pipelined spatial datapath every instruction has its own
functional unit and every stream its own port, so a new work-item is
accepted every cycle: the compiler extracts ``NTO = II / (NI * NWPT)``
where ``II`` is the scheduled initiation interval in cycles per work-item
(1 for ``pipe`` functions), making the compute term collapse to
``NGS*II/(FD*KNL*DV)``.  For sequential (re-use) configurations ``NTO`` is
the real cycles-per-instruction figure and the same expression yields the
time-multiplexed execution time.  :meth:`EKITParameters.for_pipelined_design`
implements this extraction rule.
"""

from __future__ import annotations

from enum import Enum

from repro import record
from repro.models.memory_execution import MemoryExecutionForm

__all__ = [
    "LimitingFactor",
    "EKITParameters",
    "TimeBreakdown",
    "EKITEstimate",
    "ekit_form_a",
    "ekit_form_b",
    "ekit_form_c",
    "estimate_throughput",
    "time_legs",
    "dram_bound",
    "instance_time",
    "bandwidth_demand",
]


class LimitingFactor(str, Enum):
    """The performance-limiting parameter exposed by the cost model."""

    HOST_BANDWIDTH = "host-bandwidth"
    DRAM_BANDWIDTH = "dram-bandwidth"
    COMPUTE = "compute"
    PIPELINE_FILL = "pipeline-fill"
    OFFSET_FILL = "offset-fill"


@record(frozen=True)
class _DerivedScalars:
    """Derived quantities of one parameter record, all ``knl``-invariant."""

    fd_hz: float
    sustained_host_gbps: float
    sustained_dram_gbps: float
    total_stream_bytes: float

    def __init__(self, fd_hz, sustained_host_gbps, sustained_dram_gbps,
                 total_stream_bytes) -> None:
        put = object.__setattr__
        put(self, "fd_hz", fd_hz)
        put(self, "sustained_host_gbps", sustained_host_gbps)
        put(self, "sustained_dram_gbps", sustained_dram_gbps)
        put(self, "total_stream_bytes", total_stream_bytes)


@record(frozen=True)
class EKITParameters:
    """The parameters of Table I.

    Attributes
    ----------
    hpb_gbps / rho_h:
        Host-device peak bandwidth and its sustained-bandwidth scaling
        factor (empirical).
    gpb_gbps / rho_g:
        Device-DRAM peak bandwidth and scaling factor.
    ngs:
        Global size of work-items in the NDRange.
    nwpt:
        Words per tuple per work-item.
    nki:
        Number of kernel-instance repetitions.
    noff:
        Maximum offset in a stream (words).
    kpd:
        Kernel pipeline depth (cycles).
    fd_mhz:
        Device operating frequency (MHz).
    nto:
        Cycles per instruction (see module docstring for the pipelined
        extraction rule).
    ni:
        Instructions per processing element.
    knl:
        Number of parallel kernel lanes.
    dv:
        Degree of vectorisation per lane.
    word_bytes:
        Bytes per stream word.
    reconfiguration_s:
        Run-time reconfiguration penalty per kernel instance (C6 designs).
    """

    hpb_gbps: float
    rho_h: float
    gpb_gbps: float
    rho_g: float
    ngs: int
    nwpt: int
    nki: int
    noff: int
    kpd: int
    fd_mhz: float
    nto: float
    ni: int
    knl: int
    dv: int
    word_bytes: int = 4
    reconfiguration_s: float = 0.0

    def __init__(self, hpb_gbps, rho_h, gpb_gbps, rho_g, ngs, nwpt, nki, noff, kpd,
                 fd_mhz, nto, ni, knl, dv, word_bytes=4, reconfiguration_s=0.0) -> None:
        put = object.__setattr__
        put(self, "hpb_gbps", hpb_gbps)
        put(self, "rho_h", rho_h)
        put(self, "gpb_gbps", gpb_gbps)
        put(self, "rho_g", rho_g)
        put(self, "ngs", ngs)
        put(self, "nwpt", nwpt)
        put(self, "nki", nki)
        put(self, "noff", noff)
        put(self, "kpd", kpd)
        put(self, "fd_mhz", fd_mhz)
        put(self, "nto", nto)
        put(self, "ni", ni)
        put(self, "knl", knl)
        put(self, "dv", dv)
        put(self, "word_bytes", word_bytes)
        put(self, "reconfiguration_s", reconfiguration_s)
        # every point of a sweep passes: check that in one expression, and
        # only walk the fields to name the offender when it fails
        if not (hpb_gbps > 0 and gpb_gbps > 0 and ngs > 0 and nwpt > 0 and nki > 0
                and fd_mhz > 0 and ni > 0 and knl > 0 and dv > 0 and word_bytes > 0
                and noff >= 0 and kpd >= 0 and nto >= 0 and reconfiguration_s >= 0
                and 0 < rho_h <= 1.0 and 0 < rho_g <= 1.0):
            self._reject()

    def _reject(self) -> None:
        """Raise the ``ValueError`` naming the first out-of-range field."""
        positive = {
            "hpb_gbps": self.hpb_gbps, "gpb_gbps": self.gpb_gbps, "ngs": self.ngs,
            "nwpt": self.nwpt, "nki": self.nki, "fd_mhz": self.fd_mhz,
            "ni": self.ni, "knl": self.knl, "dv": self.dv, "word_bytes": self.word_bytes,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        non_negative = {"rho_h": self.rho_h, "rho_g": self.rho_g, "noff": self.noff,
                        "kpd": self.kpd, "nto": self.nto,
                        "reconfiguration_s": self.reconfiguration_s}
        for name, value in non_negative.items():
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if not (0 < self.rho_h <= 1.0) or not (0 < self.rho_g <= 1.0):
            raise ValueError("rho_h and rho_g must be in (0, 1]")

    # -- derived quantities -------------------------------------------------
    @property
    def _derived(self) -> "_DerivedScalars":
        """The lane-invariant derived scalars, computed once per instance.

        Hot sweep loops evaluate the EKIT expressions for thousands of
        lane counts against one parameter record; the bundle is cached on
        the instance."""
        cached = self.__dict__.get("_derived_bundle")
        if cached is None:
            cached = _DerivedScalars(
                fd_hz=self.fd_mhz * 1e6,
                sustained_host_gbps=self.hpb_gbps * self.rho_h,
                sustained_dram_gbps=self.gpb_gbps * self.rho_g,
                total_stream_bytes=float(self.ngs) * self.nwpt * self.word_bytes,
            )
            object.__setattr__(self, "_derived_bundle", cached)
        return cached

    @property
    def fd_hz(self) -> float:
        return self._derived.fd_hz

    @property
    def sustained_host_gbps(self) -> float:
        return self._derived.sustained_host_gbps

    @property
    def sustained_dram_gbps(self) -> float:
        return self._derived.sustained_dram_gbps

    @property
    def total_stream_bytes(self) -> float:
        """Bytes moved per kernel instance (``NGS * NWPT`` words)."""
        return self._derived.total_stream_bytes

    # -- extraction helpers ---------------------------------------------------
    @classmethod
    def for_pipelined_design(
        cls,
        *,
        hpb_gbps: float,
        rho_h: float,
        gpb_gbps: float,
        rho_g: float,
        ngs: int,
        nwpt: int,
        nki: int,
        noff: int,
        kpd: int,
        fd_mhz: float,
        ni: int,
        knl: int = 1,
        dv: int = 1,
        initiation_interval: float = 1.0,
        word_bytes: int = 4,
        reconfiguration_s: float = 0.0,
    ) -> "EKITParameters":
        """Build parameters for a ``pipe`` design from its schedule.

        ``initiation_interval`` is the scheduled cycles per work-item per
        lane (1 for a fully pipelined datapath); ``NTO`` is derived from it
        as ``II / (NI * NWPT)`` so that the paper's compute term evaluates
        to the steady-state pipeline time.
        """
        nto = initiation_interval / (ni * nwpt)
        return cls(
            hpb_gbps=hpb_gbps, rho_h=rho_h, gpb_gbps=gpb_gbps, rho_g=rho_g,
            ngs=ngs, nwpt=nwpt, nki=nki, noff=noff, kpd=kpd, fd_mhz=fd_mhz,
            nto=nto, ni=ni, knl=knl, dv=dv, word_bytes=word_bytes,
            reconfiguration_s=reconfiguration_s,
        )


@record(frozen=True)
class TimeBreakdown:
    """Per-kernel-instance time contributions (seconds)."""

    host_transfer: float
    offset_fill: float
    pipeline_fill: float
    dram_streaming: float
    compute: float
    reconfiguration: float = 0.0

    def __init__(self, host_transfer, offset_fill, pipeline_fill, dram_streaming,
                 compute, reconfiguration=0.0) -> None:
        put = object.__setattr__
        put(self, "host_transfer", host_transfer)
        put(self, "offset_fill", offset_fill)
        put(self, "pipeline_fill", pipeline_fill)
        put(self, "dram_streaming", dram_streaming)
        put(self, "compute", compute)
        put(self, "reconfiguration", reconfiguration)

    @property
    def streaming_or_compute(self) -> float:
        """The ``max`` term of the EKIT expressions."""
        return max(self.dram_streaming, self.compute)

    @property
    def total(self) -> float:
        return instance_time(self.host_transfer, self.offset_fill, self.pipeline_fill,
                             self.streaming_or_compute, self.reconfiguration)

    @property
    def device_total(self) -> float:
        """Device-side seconds: the kernel-instance time without the host
        link or reconfiguration legs — what the pipeline simulator models
        (offset priming, pipeline fill, steady-state streaming/compute)."""
        return self.offset_fill + self.pipeline_fill + self.streaming_or_compute

    def as_dict(self) -> dict:
        return {
            "host_transfer_s": self.host_transfer,
            "offset_fill_s": self.offset_fill,
            "pipeline_fill_s": self.pipeline_fill,
            "dram_streaming_s": self.dram_streaming,
            "compute_s": self.compute,
            "reconfiguration_s": self.reconfiguration,
            "total_s": self.total,
        }


@record(frozen=True)
class EKITEstimate:
    """Result of evaluating one of the EKIT expressions."""

    form: MemoryExecutionForm
    parameters: EKITParameters
    breakdown: TimeBreakdown
    ekit: float
    limiting_factor: LimitingFactor

    def __init__(self, form, parameters, breakdown, ekit, limiting_factor) -> None:
        put = object.__setattr__
        put(self, "form", form)
        put(self, "parameters", parameters)
        put(self, "breakdown", breakdown)
        put(self, "ekit", ekit)
        put(self, "limiting_factor", limiting_factor)

    @property
    def kernel_instance_time_s(self) -> float:
        return self.breakdown.total

    @property
    def application_time_s(self) -> float:
        """Total time for all ``NKI`` kernel-instance repetitions."""
        return self.parameters.nki / self.ekit if self.ekit > 0 else float("inf")

    @property
    def cycles_per_kernel_instance(self) -> float:
        """CPKI implied by the estimate (device-cycle equivalent)."""
        return self.breakdown.total * self.parameters.fd_hz

    @property
    def device_seconds(self) -> float:
        """The device-side (simulatable) share of the kernel-instance time."""
        return self.breakdown.device_total

    @property
    def device_cycles(self) -> float:
        """Device cycles implied by :attr:`device_seconds` — the quantity
        the cross-validation subsystem checks against the pipeline
        simulator's cycle counts."""
        return self.breakdown.device_total * self.parameters.fd_hz

    @property
    def ewgt(self) -> float:
        """Work-group (kernel-instance) executions per second — Figure 15's axis."""
        return self.ekit

    def as_dict(self) -> dict:
        return {
            "form": self.form.value,
            "ekit_per_s": self.ekit,
            "limiting_factor": self.limiting_factor.value,
            "breakdown": self.breakdown.as_dict(),
        }


# ----------------------------------------------------------------------
# The shared arithmetic
# ----------------------------------------------------------------------
#
# Written with arithmetic operators only, so the same lines cost one
# design point on Python floats and a whole lanes x clocks plane on
# broadcast numpy arrays (:func:`repro.cost.vector.evaluate_group`): the
# dense and scalar paths agree because they run this code, not a copy.
# ``fd_hz`` and ``knl`` are the clock and lane axes of a sweep, so they
# are passed apart from ``p``; the dense path reads only the
# lane/clock-invariant fields of its ``p``.


def time_legs(p: EKITParameters, form: MemoryExecutionForm, fd_hz, knl) -> tuple:
    """The EKIT time legs of one kernel instance, in seconds.

    Returns ``(host_transfer, offset_fill, pipeline_fill, dram_streaming,
    compute)`` — the positional fields of :class:`TimeBreakdown`.  Form A
    pays the host transfer on every kernel instance, Forms B and C
    amortise it over the ``NKI`` repetitions, and Form C has no DRAM
    streaming leg (data resident on chip).
    """
    stream_bytes = p.total_stream_bytes
    host_scaling = 1.0 if form is MemoryExecutionForm.A else 1.0 / p.nki
    host_transfer = stream_bytes / (p.sustained_host_gbps * 1e9) * host_scaling
    offset_fill = (p.noff * p.word_bytes) / (p.sustained_dram_gbps * 1e9)
    pipeline_fill = p.kpd / fd_hz
    if form is MemoryExecutionForm.C:
        dram_streaming = 0.0
    else:
        dram_streaming = stream_bytes / (p.sustained_dram_gbps * 1e9)
    compute = (p.ngs * p.nwpt * p.nto * p.ni) / (fd_hz * knl * p.dv)
    return host_transfer, offset_fill, pipeline_fill, dram_streaming, compute


def dram_bound(form: MemoryExecutionForm, dram_streaming, compute):
    """Whether the ``max`` term names the DRAM bandwidth as limiting.

    Ties go to the DRAM bandwidth (the ``>=`` rule); Form C is always
    compute bound.
    """
    return form is not MemoryExecutionForm.C and dram_streaming >= compute


def instance_time(host_transfer, offset_fill, pipeline_fill, streaming_or_compute,
                  reconfiguration):
    """The kernel-instance time: the legs summed left to right."""
    return (host_transfer + offset_fill + pipeline_fill + streaming_or_compute
            + reconfiguration)


def bandwidth_demand(p: EKITParameters, form: MemoryExecutionForm, fd_hz, knl) -> tuple:
    """``(required_dram, required_host)`` in GB/s with the pipelines at full rate.

    Under Form C the data sits in on-chip local memory: the DRAM and the
    host link only see the one-off staging transfer, which stretches the
    fill time (already in the throughput model) but is never a
    sustained-rate constraint.
    """
    if form is MemoryExecutionForm.C:
        return 0.0, 0.0
    words_per_second = knl * p.dv * fd_hz
    full_rate = words_per_second * p.nwpt * p.word_bytes / 1e9
    if form is MemoryExecutionForm.B:
        return full_rate, full_rate / p.nki
    return full_rate, full_rate


# ----------------------------------------------------------------------
# The three expressions
# ----------------------------------------------------------------------


def _breakdown(p: EKITParameters, form: MemoryExecutionForm) -> TimeBreakdown:
    return TimeBreakdown(*time_legs(p, form, p.fd_hz, p.knl),
                         reconfiguration=p.reconfiguration_s)


def _limiting_factor(b: TimeBreakdown, form: MemoryExecutionForm) -> LimitingFactor:
    candidates = {
        LimitingFactor.HOST_BANDWIDTH: b.host_transfer,
        LimitingFactor.OFFSET_FILL: b.offset_fill,
        LimitingFactor.PIPELINE_FILL: b.pipeline_fill,
    }
    if dram_bound(form, b.dram_streaming, b.compute):
        candidates[LimitingFactor.DRAM_BANDWIDTH] = b.dram_streaming
    else:
        candidates[LimitingFactor.COMPUTE] = b.compute
    return max(candidates, key=candidates.get)


def _estimate(p: EKITParameters, form: MemoryExecutionForm) -> EKITEstimate:
    breakdown = _breakdown(p, form)
    return EKITEstimate(
        form=form,
        parameters=p,
        breakdown=breakdown,
        ekit=1.0 / breakdown.total,
        limiting_factor=_limiting_factor(breakdown, form),
    )


def ekit_form_a(p: EKITParameters) -> EKITEstimate:
    """Equation 1: host transfer paid on every kernel instance."""
    return _estimate(p, MemoryExecutionForm.A)


def ekit_form_b(p: EKITParameters) -> EKITEstimate:
    """Equation 2: host transfer amortised over the ``NKI`` repetitions."""
    return _estimate(p, MemoryExecutionForm.B)


def ekit_form_c(p: EKITParameters) -> EKITEstimate:
    """Equation 3: on-chip data; always compute bound (no DRAM max term)."""
    return _estimate(p, MemoryExecutionForm.C)


_FORM_DISPATCH = {
    MemoryExecutionForm.A: ekit_form_a,
    MemoryExecutionForm.B: ekit_form_b,
    MemoryExecutionForm.C: ekit_form_c,
}


def estimate_throughput(
    parameters: EKITParameters, form: MemoryExecutionForm | str = MemoryExecutionForm.B
) -> EKITEstimate:
    """Evaluate the EKIT expression appropriate to the memory-execution form."""
    if form.__class__ is not MemoryExecutionForm:
        form = MemoryExecutionForm(form)
    return _FORM_DISPATCH[form](parameters)
