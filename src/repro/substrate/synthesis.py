"""Synthetic synthesiser: the stand-in for Quartus / Vivado synthesis runs.

The paper's resource cost model is *empirical*: a one-time set of synthesis
experiments per device yields per-instruction resource figures, from which
simple first/second-order expressions are fitted (Figure 9), and the
accuracy of the overall model is judged against the "actual" utilisation
reported by the vendor tool after full synthesis (Table II).

Neither Quartus nor Vivado can run here, so this module provides a
first-principles technology mapper whose outputs have the same *functional
form* real fabric exhibits:

* ripple-carry adders — ALUTs linear in width;
* multipliers — DSP blocks in steps of the 18-bit native width with a
  piece-wise-linear ALUT glue component (narrow multiplies and multiplies
  by constants map to LUT logic only);
* non-restoring dividers — ALUTs quadratic in width (the paper's
  ``x^2 + 3.7x - 10.6`` trend line is reproduced directly);
* offset/delay buffers — block RAM bits (or registers when small);
* per-design elaboration adds stream-control logic, pipeline balancing
  registers and a small amount of tool-dependent "noise" so that the cost
  model's estimates differ from the synthesiser's "actual" numbers by a few
  per cent, as in Table II.

All randomness is deterministic (hashed from device, opcode and width), so
calibration and accuracy experiments are exactly reproducible.
"""

from __future__ import annotations

import hashlib
import math

from repro import field, record, replace
from repro.ir.instructions import OPCODES
from repro.ir.types import ScalarType, TypeKind
from repro.substrate.fpga_device import FPGADevice

__all__ = [
    "ResourceUsage",
    "NetlistOperator",
    "DesignNetlist",
    "CalibrationPoint",
    "CalibrationDataset",
    "SyntheticSynthesizer",
]


# ----------------------------------------------------------------------
# Resource usage record
# ----------------------------------------------------------------------


@record
class ResourceUsage:
    """Utilisation of the four fabric resources tracked by the cost model."""

    alut: float = 0.0
    reg: float = 0.0
    bram_bits: float = 0.0
    dsp: float = 0.0

    RESOURCES = ("alut", "reg", "bram_bits", "dsp")

    def __init__(self, alut=0.0, reg=0.0, bram_bits=0.0, dsp=0.0) -> None:
        self.alut = alut
        self.reg = reg
        self.bram_bits = bram_bits
        self.dsp = dsp

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(
            alut=self.alut + other.alut,
            reg=self.reg + other.reg,
            bram_bits=self.bram_bits + other.bram_bits,
            dsp=self.dsp + other.dsp,
        )

    def __iadd__(self, other: "ResourceUsage") -> "ResourceUsage":
        self.alut += other.alut
        self.reg += other.reg
        self.bram_bits += other.bram_bits
        self.dsp += other.dsp
        return self

    def scaled(self, factor: float) -> "ResourceUsage":
        return ResourceUsage(
            alut=self.alut * factor,
            reg=self.reg * factor,
            bram_bits=self.bram_bits * factor,
            dsp=self.dsp * factor,
        )

    def rounded(self) -> "ResourceUsage":
        return ResourceUsage(
            alut=round(self.alut),
            reg=round(self.reg),
            bram_bits=round(self.bram_bits),
            dsp=round(self.dsp),
        )

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.RESOURCES}

    def utilization(self, device: FPGADevice) -> dict[str, float]:
        """Fractional utilisation of each resource on ``device`` (0..inf)."""
        caps = device.resource_capacities()
        return {
            "alut": self.alut / caps["alut"],
            "reg": self.reg / caps["reg"],
            "bram_bits": self.bram_bits / caps["bram_bits"],
            "dsp": self.dsp / caps["dsp"],
        }

    def fits(self, device: FPGADevice) -> bool:
        return all(frac <= 1.0 for frac in self.utilization(device).values())

    def limiting_resource(self, device: FPGADevice) -> tuple[str, float]:
        """The resource closest to (or beyond) capacity and its utilisation."""
        util = self.utilization(device)
        name = max(util, key=util.get)
        return name, util[name]

    def __str__(self) -> str:
        return (
            f"ALUT={self.alut:.0f} REG={self.reg:.0f} "
            f"BRAM={self.bram_bits:.0f}b DSP={self.dsp:.0f}"
        )


# ----------------------------------------------------------------------
# Netlist view of a design (the structural summary both the compiler and
# the cost model can produce from the IR)
# ----------------------------------------------------------------------


@record(frozen=True)
class NetlistOperator:
    """One datapath operator instance in a lane."""

    opcode: str
    type: ScalarType
    constant_operand: bool = False


@record
class DesignNetlist:
    """Structural summary of a design variant handed to the synthesiser.

    ``operators``, ``offset_buffer_bits``, ``input_streams`` and
    ``output_streams`` describe *one* lane; ``lanes`` and ``vectorization``
    describe the replication applied to it.  ``balancing_register_bits``
    carries the pipeline-balancing registers inserted by the scheduler
    (per lane), when known.
    """

    operators: list[NetlistOperator] = field(default_factory=list)
    offset_buffer_bits: list[int] = field(default_factory=list)
    input_streams: int = 0
    output_streams: int = 0
    lanes: int = 1
    vectorization: int = 1
    balancing_register_bits: int = 0
    name: str = "design"

    @property
    def streams(self) -> int:
        return self.input_streams + self.output_streams

    @property
    def replication(self) -> int:
        return self.lanes * self.vectorization


# ----------------------------------------------------------------------
# Calibration data (the "one-time benchmark experiments" of Figure 2)
# ----------------------------------------------------------------------


@record(frozen=True)
class CalibrationPoint:
    """Synthesis result for a single operator at a single width."""

    opcode: str
    width: int
    constant_operand: bool
    usage: ResourceUsage

    def as_dict(self) -> dict:
        return {
            "opcode": self.opcode,
            "width": self.width,
            "constant_operand": self.constant_operand,
            "usage": self.usage.as_dict(),
        }


@record
class CalibrationDataset:
    """A set of calibration points for one device."""

    device_name: str
    points: list[CalibrationPoint] = field(default_factory=list)

    def add(self, point: CalibrationPoint) -> None:
        self.points.append(point)

    def for_opcode(self, opcode: str, constant_operand: bool = False) -> list[CalibrationPoint]:
        return [
            p
            for p in self.points
            if p.opcode == opcode and p.constant_operand == constant_operand
        ]

    def opcodes(self) -> set[str]:
        return {p.opcode for p in self.points}

    def as_dict(self) -> dict:
        return {
            "device_name": self.device_name,
            "points": [p.as_dict() for p in self.points],
        }

    @staticmethod
    def from_dict(data: dict) -> "CalibrationDataset":
        ds = CalibrationDataset(device_name=data["device_name"])
        for rec in data["points"]:
            ds.add(
                CalibrationPoint(
                    opcode=rec["opcode"],
                    width=int(rec["width"]),
                    constant_operand=bool(rec["constant_operand"]),
                    usage=ResourceUsage(**rec["usage"]),
                )
            )
        return ds

    def __len__(self) -> int:
        return len(self.points)


# ----------------------------------------------------------------------
# The synthesiser
# ----------------------------------------------------------------------

#: Fraction of DSP-eligible multiplies that real tools end up re-mapping to
#: LUT logic for balance/packing reasons — the source of the occasional
#: DSP-count discrepancy seen in Table II (lavaMD: 26 estimated vs 23 actual).
_DSP_REMAP_FRACTION = 0.12

#: Widths below which a variable multiply is cheaper in LUTs than in a DSP.
_LUT_MUL_WIDTH = 10

_FLOAT_BASE_COSTS = {
    # opcode: width -> (alut, reg, bram_bits, dsp)
    "fadd": {32: (760, 900, 0, 0), 64: (1450, 1750, 0, 0), 16: (320, 380, 0, 0)},
    "fsub": {32: (760, 900, 0, 0), 64: (1450, 1750, 0, 0), 16: (320, 380, 0, 0)},
    "fmul": {32: (130, 280, 0, 2), 64: (380, 640, 0, 8), 16: (60, 120, 0, 1)},
    "fdiv": {32: (820, 1500, 0, 0), 64: (3100, 5200, 0, 0), 16: (360, 620, 0, 0)},
    "fsqrt": {32: (510, 950, 0, 0), 64: (1850, 3300, 0, 0), 16: (240, 420, 0, 0)},
    "fexp": {32: (940, 1200, 18_432, 4), 64: (2600, 3400, 36_864, 10), 16: (420, 520, 9_216, 2)},
    "flog": {32: (980, 1250, 18_432, 4), 64: (2700, 3500, 36_864, 10), 16: (440, 540, 9_216, 2)},
    "fcmp": {32: (64, 64, 0, 0), 64: (128, 128, 0, 0), 16: (32, 32, 0, 0)},
}


class SyntheticSynthesizer:
    """Deterministic, first-principles technology mapper for a device.

    Parameters
    ----------
    device:
        The target FPGA.
    noise:
        Relative magnitude of the deterministic per-operator "tool noise"
        applied to ALUT/register/BRAM figures (default 2.5%); models the
        optimisation-dependent variance between an analytic estimate and a
        real synthesis result.
    """

    def __init__(self, device: FPGADevice, noise: float = 0.025):
        self.device = device
        self.noise = noise

    # -- deterministic pseudo-randomness ---------------------------------
    def _hash_unit(self, *key) -> float:
        """A deterministic value in [-1, 1) derived from the key and device."""
        text = "|".join(str(k) for k in (self.device.name, *key))
        digest = hashlib.sha256(text.encode()).digest()
        value = int.from_bytes(digest[:8], "big") / 2**64
        return 2.0 * value - 1.0

    def _perturb(self, value: float, *key) -> float:
        if value == 0:
            return 0.0
        return value * (1.0 + self.noise * self._hash_unit(*key))

    # -- operator technology mapping --------------------------------------
    def _map_integer_operator(
        self, opcode: str, width: int, constant_operand: bool
    ) -> ResourceUsage:
        category = OPCODES[opcode].category
        w = width

        if category == "add":
            return ResourceUsage(alut=w, reg=w)

        if category == "mul":
            if constant_operand:
                # shift-add network; roughly one adder per set bit of the
                # constant, averaged to half the width
                return ResourceUsage(alut=math.ceil(1.5 * w), reg=w)
            if w <= _LUT_MUL_WIDTH:
                return ResourceUsage(alut=math.ceil(w * w / 2), reg=2 * w)
            dsp_w = self.device.dsp_input_width
            tiles = math.ceil(w / dsp_w)
            dsp = math.ceil(tiles * tiles / 2)
            # piece-wise-linear glue logic with discontinuities at tile edges
            alut = (tiles - 1) * dsp_w + math.ceil(0.3 * w)
            return ResourceUsage(alut=alut, reg=2 * w, dsp=dsp)

        if category == "div":
            # non-restoring divider: the paper's quadratic trend line
            alut = max(w, round(w * w + 3.7 * w - 10.6))
            reg = w * (w + 1) // 2
            if opcode == "sdiv":
                alut += 2 * w
                reg += 2 * w
            return ResourceUsage(alut=alut, reg=reg)

        if category == "logic":
            if opcode in ("mov", "trunc", "zext", "sext"):
                return ResourceUsage(reg=w)
            return ResourceUsage(alut=math.ceil(w / 2), reg=w)

        if category == "shift":
            if constant_operand:
                return ResourceUsage(reg=w)  # pure wiring + output register
            stages = max(1, math.ceil(math.log2(max(w, 2))))
            return ResourceUsage(alut=math.ceil(w * stages / 2), reg=w)

        if category == "cmp":
            if opcode in ("min", "max"):
                return ResourceUsage(alut=2 * w, reg=w)
            if opcode == "abs":
                return ResourceUsage(alut=w, reg=w)
            return ResourceUsage(alut=w, reg=max(1, w // 8))

        if category == "select":
            return ResourceUsage(alut=w, reg=w)

        if category == "special":
            # integer sqrt and friends: iterative shift-subtract array
            return ResourceUsage(alut=(w // 2) ** 2 + 10, reg=w * w // 4)

        raise ValueError(f"no integer mapping for opcode {opcode!r}")  # pragma: no cover

    def _map_float_operator(self, opcode: str, width: int) -> ResourceUsage:
        table = _FLOAT_BASE_COSTS.get(opcode)
        if table is None or width not in table:
            # fall back: scale the 32-bit adder cost with width
            scale = width / 32
            return ResourceUsage(alut=760 * scale, reg=900 * scale)
        alut, reg, bram, dsp = table[width]
        return ResourceUsage(alut=alut, reg=reg, bram_bits=bram, dsp=dsp)

    def synthesize_operator(
        self,
        opcode: str,
        ty: ScalarType,
        constant_operand: bool = False,
        *,
        perturb: bool = True,
    ) -> ResourceUsage:
        """Synthesise one operator instance and return its resource usage."""
        if opcode not in OPCODES:
            raise ValueError(f"unknown opcode {opcode!r}")
        if ty.kind is TypeKind.FLOAT or OPCODES[opcode].float_only:
            usage = self._map_float_operator(opcode, ty.width)
        else:
            usage = self._map_integer_operator(opcode, ty.width, constant_operand)
        if not perturb:
            return usage.rounded()
        key = (opcode, ty.width, constant_operand)
        return ResourceUsage(
            alut=round(self._perturb(usage.alut, "alut", *key)),
            reg=round(self._perturb(usage.reg, "reg", *key)),
            bram_bits=round(self._perturb(usage.bram_bits, "bram", *key)),
            dsp=usage.dsp,  # DSP allocation is discrete; handled at design level
        ).rounded()

    # -- buffers and stream control ---------------------------------------
    #: Buffers at or below this many bits are implemented in registers /
    #: ALM-based shift registers rather than block RAM.
    REGISTER_BUFFER_THRESHOLD_BITS = 640

    def synthesize_offset_buffer(self, bits: int) -> ResourceUsage:
        """An offset/delay buffer of the stream controller."""
        if bits <= 0:
            return ResourceUsage()
        if bits <= self.REGISTER_BUFFER_THRESHOLD_BITS:
            return ResourceUsage(alut=math.ceil(bits / 10), reg=bits)
        # block RAM implementation + a small address counter
        return ResourceUsage(alut=24, reg=32, bram_bits=bits)

    def synthesize_stream_control(self, streams: int, element_width: int = 32) -> ResourceUsage:
        """Per-stream address generation and handshake logic."""
        if streams <= 0:
            return ResourceUsage()
        per_stream = ResourceUsage(alut=40 + element_width // 2, reg=48 + element_width)
        return per_stream.scaled(streams)

    # -- whole design elaboration -----------------------------------------
    def synthesize_design(self, netlist: DesignNetlist) -> ResourceUsage:
        """Elaborate a full design variant and return its "actual" utilisation.

        The result differs from the light-weight cost model's estimate by:
        per-operator tool noise, occasional DSP re-mapping, tool glue logic
        (a ~1.5% ALUT adder) and the pipeline balancing registers when the
        netlist carries them.
        """
        lane = ResourceUsage()

        for index, op in enumerate(netlist.operators):
            usage = self.synthesize_operator(op.opcode, op.type, op.constant_operand)
            # occasional tool-driven re-mapping of a DSP multiply to LUTs
            if usage.dsp > 0:
                roll = abs(self._hash_unit("remap", netlist.name, index, op.opcode, op.type.width))
                if roll < _DSP_REMAP_FRACTION:
                    usage = replace(
                        usage,
                        dsp=0,
                        alut=usage.alut + math.ceil(op.type.width * op.type.width / 2),
                    )
            lane += usage

        for bits in netlist.offset_buffer_bits:
            lane += self.synthesize_offset_buffer(bits)

        element_width = max((op.type.width for op in netlist.operators), default=32)
        lane += self.synthesize_stream_control(netlist.streams, element_width)
        lane += ResourceUsage(reg=netlist.balancing_register_bits)

        total = lane.scaled(netlist.replication)
        # tool glue: clock enables, resets, unpacked control sets
        glue = 1.0 + 0.015 + 0.005 * self._hash_unit("glue", netlist.name)
        total = ResourceUsage(
            alut=round(total.alut * glue),
            reg=round(total.reg * (1.0 + 0.01)),
            bram_bits=round(total.bram_bits * (1.0 + 0.003 * abs(self._hash_unit("bramglue", netlist.name)))),
            dsp=round(total.dsp),
        )
        return total

    # -- characterisation (calibration input of Figure 2) ------------------
    DEFAULT_CHARACTERIZATION_WIDTHS = (18, 32, 64)

    def characterize(
        self,
        opcodes: list[str] | None = None,
        widths: list[int] | None = None,
        include_constant_variants: bool = True,
    ) -> CalibrationDataset:
        """Run the one-time benchmark experiments for this device.

        Mirrors the paper's procedure of synthesising a few widths per
        primitive (three data points — 18, 32 and 64 bits — for the integer
        divider of Figure 9) and recording the resources used.
        """
        opcodes = opcodes or ["add", "sub", "mul", "div", "and", "or", "xor",
                              "shl", "icmp", "select", "min", "max"]
        widths = list(widths or self.DEFAULT_CHARACTERIZATION_WIDTHS)
        dataset = CalibrationDataset(device_name=self.device.name)
        for opcode in opcodes:
            for width in widths:
                ty = ScalarType.uint(width)
                dataset.add(
                    CalibrationPoint(
                        opcode=opcode,
                        width=width,
                        constant_operand=False,
                        usage=self.synthesize_operator(opcode, ty),
                    )
                )
                if include_constant_variants and OPCODES[opcode].category in ("mul", "shift"):
                    dataset.add(
                        CalibrationPoint(
                            opcode=opcode,
                            width=width,
                            constant_operand=True,
                            usage=self.synthesize_operator(opcode, ty, constant_operand=True),
                        )
                    )
        return dataset
