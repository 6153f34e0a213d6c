"""Hotspot thermal-simulation kernel (Rodinia benchmark suite).

Hotspot estimates processor temperature from an architectural floorplan
and simulated power measurements.  Each cell of a 2-D grid is updated from
its four neighbours, its own power dissipation and the ambient
temperature::

    delta = cap_inv * ( power * cap_inv
                        + (t_n + t_s + t_e + t_w - 4*t) * rx_inv
                        + (amb - t) * rz_inv )
    t_new = t + delta

The per-cell thermal coefficient ``cap_inv`` is streamed (heterogeneous
floorplans have per-block capacitance), which is what makes two of the
multiplies data-dependent — the integer version of the kernel therefore
maps a handful of DSP blocks (Table II reports 12 for the authors' wider
formulation), unlike SOR whose multiplies are all by constants.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.types import ScalarType
from repro.kernels.base import ScientificKernel, fixed_point_constant
from repro.kernels.registry import register_kernel

if TYPE_CHECKING:
    import numpy as np

    from repro.functional.program import KernelSpec

__all__ = ["HotspotKernel"]

AMBIENT = 80.0
RX_INV = 0.1
RZ_INV = 0.05

#: fixed-point scale for the integer datapath constants
FIXED_POINT_SCALE = 256


def _fx(value: float) -> int:
    return fixed_point_constant(value, FIXED_POINT_SCALE)


@register_kernel
class HotspotKernel(ScientificKernel):
    """The Rodinia Hotspot kernel (2-D five-point thermal stencil)."""

    name = "hotspot"
    default_grid = (64, 64)
    default_iterations = 360
    ops_per_item = 14
    cpu_bytes_per_item = 32

    ELEMENT_TYPE = ScalarType.uint(32)

    # ------------------------------------------------------------------
    def spec(self) -> KernelSpec:
        from repro.functional.program import KernelSpec

        ty = self.ELEMENT_TYPE

        def golden(c: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            temp = c["temp"]
            lap = c["temp@+1"] + c["temp@-1"] + c["temp@+ND1"] + c["temp@-ND1"] - 4.0 * temp
            delta = c["cap_inv"] * (
                c["power"] * c["cap_inv"] + lap * RX_INV + (AMBIENT - temp) * RZ_INV
            )
            return {"t_new": temp + delta}

        def build(fb, streams: dict[str, str]) -> None:
            t = streams["temp"]
            dn = fb.add(ty, streams["temp@+ND1"], streams["temp@-ND1"])
            de = fb.add(ty, streams["temp@+1"], streams["temp@-1"])
            nsum = fb.add(ty, dn, de)
            c4 = fb.mul(ty, t, 4)
            lap = fb.sub(ty, nsum, c4)
            lap_w = fb.mul(ty, lap, _fx(RX_INV))
            amb = fb.instr("sub", ty, _fx(AMBIENT), t)
            amb_w = fb.mul(ty, amb, _fx(RZ_INV))
            pw = fb.mul(ty, streams["power"], streams["cap_inv"])   # data-dependent -> DSP
            acc1 = fb.add(ty, lap_w, amb_w)
            acc2 = fb.add(ty, acc1, pw)
            delta = fb.mul(ty, acc2, streams["cap_inv"])            # data-dependent -> DSP
            fb.add(ty, t, delta, result="t_new")
            fb.reduction("max", ty, "maxDelta", delta)

        return KernelSpec(
            name=self.name,
            element_type=ty,
            inputs=["temp", "power", "cap_inv"],
            outputs=["t_new"],
            golden=golden,
            build_datapath=build,
            offsets={"temp": [+1, -1, "+ND1", "-ND1"]},
            constants={},
            ops_per_item=self.ops_per_item,
            bytes_per_item=self.cpu_bytes_per_item,
        )

    # ------------------------------------------------------------------
    def generate_inputs(self, grid: tuple[int, ...] | None = None, seed: int = 0) -> dict[str, np.ndarray]:
        import numpy as np

        grid = grid or self.default_grid
        rng = np.random.default_rng(seed)
        return {
            "temp": 45.0 + 10.0 * rng.random(grid),
            "power": rng.random(grid) * 0.5,
            "cap_inv": 0.01 + 0.02 * rng.random(grid),
        }

    def gather(self, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        import numpy as np

        temp = np.asarray(arrays["temp"])
        if temp.ndim != 2:
            raise ValueError("Hotspot expects a 2-D temperature grid")

        def shift(drow: int, dcol: int) -> np.ndarray:
            return np.roll(temp, shift=(-drow, -dcol), axis=(0, 1)).reshape(-1)

        return {
            "temp": temp.reshape(-1),
            "power": np.asarray(arrays["power"]).reshape(-1),
            "cap_inv": np.asarray(arrays["cap_inv"]).reshape(-1),
            "temp@+1": shift(0, 1),
            "temp@-1": shift(0, -1),
            "temp@+ND1": shift(1, 0),
            "temp@-ND1": shift(-1, 0),
        }

    def reference(self, arrays: dict[str, np.ndarray], iterations: int = 1) -> dict[str, np.ndarray]:
        import numpy as np

        temp = np.asarray(arrays["temp"], dtype=np.float64).copy()
        power = np.asarray(arrays["power"], dtype=np.float64)
        cap_inv = np.asarray(arrays["cap_inv"], dtype=np.float64)
        for _ in range(max(1, iterations)):
            lap = (
                np.roll(temp, -1, axis=1) + np.roll(temp, 1, axis=1)
                + np.roll(temp, -1, axis=0) + np.roll(temp, 1, axis=0)
                - 4.0 * temp
            )
            delta = cap_inv * (power * cap_inv + lap * RX_INV + (AMBIENT - temp) * RZ_INV)
            temp = temp + delta
        return {"t_new": temp}
