"""Successive over-relaxation (SOR) kernel from the LES weather simulator.

The kernel iteratively solves the Poisson equation for the pressure field
of the Large Eddy Simulator (Moeng's planetary-boundary-layer model).  The
main computation is a 7-point stencil over the 3-D pressure grid — each
point is updated from its six cardinal neighbours, the weight coefficients
``cn*`` and the right-hand-side term — plus a global reduction of the
relaxation residual (``sorErrAcc`` in the paper's Figure 12).

The elemental function follows the paper's ``p_sor``::

    reltmp = omega * (cn1 * (cn2l*p_i+ + cn2s*p_i- + cn3l*p_j+ + cn3s*p_j-
                              + cn4l*p_k+ + cn4s*p_k-) - rhs) - p
    p_new  = reltmp + p

Two views are provided, consistent with the paper's methodology:

* the **golden semantics** use floating point and periodic boundaries
  (a Jacobi-style sweep, so that the gathered elementwise form and the
  full-grid reference agree exactly);
* the **IR datapath** is the integer (``ui18``) version that the paper
  costs, with the coefficients embedded as fixed-point constants — all
  multiplies are by constants, which is why the SOR pipeline uses no DSP
  blocks in Table II.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.types import ScalarType
from repro.kernels.base import ScientificKernel, fixed_point_constant
from repro.kernels.registry import register_kernel

if TYPE_CHECKING:
    import numpy as np

    from repro.functional.program import KernelSpec

__all__ = ["SORKernel"]

#: relaxation factor and stencil coefficients (LES defaults)
OMEGA = 1.0
CN1 = 1.0 / 6.0
CN2L = CN2S = CN3L = CN3S = CN4L = CN4S = 1.0

#: fixed-point scale used for the integer datapath constants
FIXED_POINT_SCALE = 1024


def _fx(value: float) -> int:
    return fixed_point_constant(value, FIXED_POINT_SCALE)


@register_kernel
class SORKernel(ScientificKernel):
    """The SOR pressure-solver kernel (paper §II and §VI)."""

    name = "sor"
    default_grid = (24, 24, 24)
    default_iterations = 1000
    ops_per_item = 16
    cpu_bytes_per_item = 36  # seven pressure reads, rhs read, p_new write (4 B words)

    ELEMENT_TYPE = ScalarType.uint(18)

    # ------------------------------------------------------------------
    def spec(self) -> KernelSpec:
        from repro.functional.program import KernelSpec

        ty = self.ELEMENT_TYPE

        def golden(c: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            total = (
                CN2L * c["p@+1"] + CN2S * c["p@-1"]
                + CN3L * c["p@+ND1"] + CN3S * c["p@-ND1"]
                + CN4L * c["p@+ND1*ND2"] + CN4S * c["p@-ND1*ND2"]
            )
            p_new = OMEGA * (CN1 * total - c["rhs"])
            return {"p_new": p_new}

        def build(fb, streams: dict[str, str]) -> None:
            pairs = [
                ("p@+1", CN2L), ("p@-1", CN2S),
                ("p@+ND1", CN3L), ("p@-ND1", CN3S),
                ("p@+ND1*ND2", CN4L), ("p@-ND1*ND2", CN4S),
            ]
            products = [fb.mul(ty, streams[name], _fx(coef)) for name, coef in pairs]
            s01 = fb.add(ty, products[0], products[1])
            s23 = fb.add(ty, products[2], products[3])
            s45 = fb.add(ty, products[4], products[5])
            s0123 = fb.add(ty, s01, s23)
            total = fb.add(ty, s0123, s45)
            weighted = fb.mul(ty, total, _fx(CN1))
            num = fb.sub(ty, weighted, streams["rhs"])
            fb.mul(ty, num, _fx(OMEGA), result="p_new")
            reltmp = fb.sub(ty, "p_new", streams["p"])
            fb.reduction("add", ty, "sorErrAcc", reltmp)

        return KernelSpec(
            name=self.name,
            element_type=ty,
            inputs=["p", "rhs"],
            outputs=["p_new"],
            golden=golden,
            build_datapath=build,
            offsets={"p": [+1, -1, "+ND1", "-ND1", "+ND1*ND2", "-ND1*ND2"]},
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
            "p": rng.random(grid, dtype=np.float64),
            "rhs": rng.random(grid, dtype=np.float64) * 0.1,
        }

    def gather(self, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Gather the per-point tuple components (flattened, periodic)."""
        import numpy as np

        p = np.asarray(arrays["p"])
        rhs = np.asarray(arrays["rhs"])
        if p.ndim != 3:
            raise ValueError("SOR expects a 3-D pressure grid")
        # the flattened index moves fastest along the last axis, so an offset
        # of +1 is a shift along axis 2, +ND1 along axis 1, +ND1*ND2 along axis 0
        def shift(axis_offset: tuple[int, int, int]) -> np.ndarray:
            return np.roll(p, shift=[-s for s in axis_offset], axis=(0, 1, 2)).reshape(-1)

        return {
            "p": p.reshape(-1),
            "rhs": rhs.reshape(-1),
            "p@+1": shift((0, 0, 1)),
            "p@-1": shift((0, 0, -1)),
            "p@+ND1": shift((0, 1, 0)),
            "p@-ND1": shift((0, -1, 0)),
            "p@+ND1*ND2": shift((1, 0, 0)),
            "p@-ND1*ND2": shift((-1, 0, 0)),
        }

    def reference(self, arrays: dict[str, np.ndarray], iterations: int = 1) -> dict[str, np.ndarray]:
        """Full-grid Jacobi-style SOR sweep with periodic boundaries."""
        import numpy as np

        p = np.asarray(arrays["p"], dtype=np.float64).copy()
        rhs = np.asarray(arrays["rhs"], dtype=np.float64)
        residual = 0.0
        for _ in range(max(1, iterations)):
            total = (
                CN2L * np.roll(p, -1, axis=2) + CN2S * np.roll(p, 1, axis=2)
                + CN3L * np.roll(p, -1, axis=1) + CN3S * np.roll(p, 1, axis=1)
                + CN4L * np.roll(p, -1, axis=0) + CN4S * np.roll(p, 1, axis=0)
            )
            p_new = OMEGA * (CN1 * total - rhs)
            residual = float(np.sum(p_new - p))
            p = p_new
        return {"p_new": p, "sorErrAcc": np.asarray(residual)}
