"""LavaMD molecular-dynamics kernel (Rodinia benchmark suite).

LavaMD calculates particle potential and relocation due to mutual forces
between particles within a large 3-D space partitioned into boxes.  The
inner kernel evaluates, for every particle pair within a neighbourhood,
a potential contribution

    u2  = alpha^2 * (dx^2 + dy^2 + dz^2)
    vij = exp(-u2)
    pot = qv * vij

The streamed work-item here is one pre-gathered particle pair: the three
coordinate differences and the neighbour's charge.  The exponential is
realised as a truncated series (the integer datapath cannot host ``exp``
directly), which keeps the operation mix representative: six of the
multiplies are data-dependent, so the kernel maps a significant number of
DSP blocks (Table II reports 26), and — with no stencil offsets — it uses
no block RAM at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.types import ScalarType
from repro.kernels.base import ScientificKernel, fixed_point_constant
from repro.kernels.registry import register_kernel

if TYPE_CHECKING:
    import numpy as np

    from repro.functional.program import KernelSpec

__all__ = ["LavaMDKernel"]

ALPHA2 = 0.5

#: fixed-point scale for the integer datapath constants
FIXED_POINT_SCALE = 256


def _fx(value: float) -> int:
    return fixed_point_constant(value, FIXED_POINT_SCALE)


@register_kernel
class LavaMDKernel(ScientificKernel):
    """The Rodinia LavaMD particle-potential kernel."""

    name = "lavamd"
    default_grid = (16, 16, 16)   # particle pairs arranged as boxes
    default_iterations = 100
    ops_per_item = 15
    cpu_bytes_per_item = 20

    ELEMENT_TYPE = ScalarType.uint(32)

    # ------------------------------------------------------------------
    def spec(self) -> KernelSpec:
        from repro.functional.program import KernelSpec

        ty = self.ELEMENT_TYPE

        def golden(c: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            r2 = c["rx"] ** 2 + c["ry"] ** 2 + c["rz"] ** 2
            u2 = ALPHA2 * r2
            vij = 1.0 - u2 + u2 ** 2 / 2.0 - u2 ** 3 / 6.0
            return {"pot": c["qv"] * vij}

        def build(fb, streams: dict[str, str]) -> None:
            dx2 = fb.mul(ty, streams["rx"], streams["rx"])
            dy2 = fb.mul(ty, streams["ry"], streams["ry"])
            dz2 = fb.mul(ty, streams["rz"], streams["rz"])
            r2a = fb.add(ty, dx2, dy2)
            r2 = fb.add(ty, r2a, dz2)
            u2 = fb.mul(ty, r2, _fx(ALPHA2))
            u2sq = fb.mul(ty, u2, u2)
            u2cu = fb.mul(ty, u2sq, u2)
            half = fb.mul(ty, u2sq, _fx(0.5))
            sixth = fb.mul(ty, u2cu, _fx(1.0 / 6.0))
            e1 = fb.instr("sub", ty, _fx(1.0), u2)
            e2 = fb.add(ty, e1, half)
            vij = fb.sub(ty, e2, sixth)
            fb.mul(ty, streams["qv"], vij, result="pot")
            fb.reduction("add", ty, "potAcc", "pot")

        return KernelSpec(
            name=self.name,
            element_type=ty,
            inputs=["rx", "ry", "rz", "qv"],
            outputs=["pot"],
            golden=golden,
            build_datapath=build,
            offsets={},
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
            "rx": rng.random(grid) - 0.5,
            "ry": rng.random(grid) - 0.5,
            "rz": rng.random(grid) - 0.5,
            "qv": rng.random(grid),
        }

    def gather(self, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        import numpy as np

        return {key: np.asarray(value).reshape(-1) for key, value in arrays.items()}

    def reference(self, arrays: dict[str, np.ndarray], iterations: int = 1) -> dict[str, np.ndarray]:
        import numpy as np

        rx = np.asarray(arrays["rx"], dtype=np.float64)
        ry = np.asarray(arrays["ry"], dtype=np.float64)
        rz = np.asarray(arrays["rz"], dtype=np.float64)
        qv = np.asarray(arrays["qv"], dtype=np.float64)
        r2 = rx ** 2 + ry ** 2 + rz ** 2
        u2 = ALPHA2 * r2
        vij = 1.0 - u2 + u2 ** 2 / 2.0 - u2 ** 3 / 6.0
        pot = qv * vij
        # the potential accumulates over iterations; the per-pair value is
        # iteration independent, which is what the elementwise check uses
        return {"pot": pot, "potAcc": np.asarray(float(np.sum(pot)) * max(1, iterations))}
