"""Needleman-Wunsch sequence-alignment kernel (wavefront dependencies).

Needleman-Wunsch (Rodinia's ``nw``) fills a 2-D dynamic-programming score
matrix in which every cell depends on its west, north and north-west
neighbours — the classic *wavefront* pattern::

    h_new = max( h_nw + sub,          ; diagonal match/mismatch
                 h_w  - GAP,          ; gap in the first sequence
                 h_n  - GAP )         ; gap in the second sequence

Consistent with how the suite treats the SOR recurrence, the golden
semantics are a Jacobi-style sweep over the whole matrix (one relaxation
of the recurrence per iteration, periodic boundaries), so the gathered
elementwise form and the full-grid reference agree exactly; the actual
wavefront schedule is a property of the *execution order*, which the
streaming pipeline realises through its stream offsets.

The datapath is all adds, subtracts and ``max`` selections — no multiplies
at all — so the kernel maps zero DSP blocks while its north-west offset
(one full row plus one element) still demands a block-RAM line buffer:
a useful corner of the operation-mix space that none of the other kernels
covers (SOR/conv2d: constant multiplies; hotspot/lavamd/matmul:
data-dependent multiplies).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.types import ScalarType
from repro.kernels.base import ScientificKernel, fixed_point_constant
from repro.kernels.registry import register_kernel

if TYPE_CHECKING:
    import numpy as np

    from repro.functional.program import KernelSpec

__all__ = ["NeedlemanWunschKernel"]

#: linear gap penalty of the scoring scheme
GAP = 0.25

#: fixed-point scale for the integer datapath constants
FIXED_POINT_SCALE = 256


def _fx(value: float) -> int:
    return fixed_point_constant(value, FIXED_POINT_SCALE)


@register_kernel
class NeedlemanWunschKernel(ScientificKernel):
    """The Needleman-Wunsch DP-matrix kernel (wavefront dependency pattern)."""

    name = "nw"
    default_grid = (64, 64)
    default_iterations = 128     # one relaxation sweep per anti-diagonal band
    ops_per_item = 5             # 2 sub, 1 add, 2 max
    cpu_bytes_per_item = 24      # centre + three neighbour reads, sub read, write (4 B words)

    ELEMENT_TYPE = ScalarType.uint(20)

    # ------------------------------------------------------------------
    def spec(self) -> KernelSpec:
        from repro.functional.program import KernelSpec

        ty = self.ELEMENT_TYPE

        def golden(c: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            import numpy as np

            west = c["h@-1"] - GAP
            north = c["h@-ND1"] - GAP
            diag = c["h@-ND1-1"] + c["sub"]
            return {"h_new": np.maximum(diag, np.maximum(west, north))}

        def build(fb, streams: dict[str, str]) -> None:
            west = fb.sub(ty, streams["h@-1"], _fx(GAP))
            north = fb.sub(ty, streams["h@-ND1"], _fx(GAP))
            diag = fb.add(ty, streams["h@-ND1-1"], streams["sub"])
            gaps = fb.instr("max", ty, west, north)
            fb.instr("max", ty, diag, gaps, result="h_new")
            fb.reduction("max", ty, "bestScore", "h_new")

        return KernelSpec(
            name=self.name,
            element_type=ty,
            inputs=["h", "sub"],
            outputs=["h_new"],
            golden=golden,
            build_datapath=build,
            offsets={"h": ["-1", "-ND1", "-ND1-1"]},
            constants={},
            ops_per_item=self.ops_per_item,
            bytes_per_item=self.cpu_bytes_per_item,
        )

    # ------------------------------------------------------------------
    def generate_inputs(self, grid: tuple[int, ...] | None = None, seed: int = 0) -> dict[str, np.ndarray]:
        import numpy as np

        grid = grid or self.default_grid
        rng = np.random.default_rng(seed)
        # synthetic substitution scores: mostly mismatches, some matches
        sub = np.where(rng.random(grid) > 0.75, 1.0, -0.33)
        return {
            "h": rng.random(grid, dtype=np.float64),
            "sub": sub.astype(np.float64),
        }

    def gather(self, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        import numpy as np

        h = np.asarray(arrays["h"])
        if h.ndim != 2:
            raise ValueError("nw expects a 2-D score matrix")

        def shift(drow: int, dcol: int) -> np.ndarray:
            return np.roll(h, shift=(-drow, -dcol), axis=(0, 1)).reshape(-1)

        return {
            "h": h.reshape(-1),
            "sub": np.asarray(arrays["sub"]).reshape(-1),
            "h@-1": shift(0, -1),
            "h@-ND1": shift(-1, 0),
            "h@-ND1-1": shift(-1, -1),
        }

    def reference(self, arrays: dict[str, np.ndarray], iterations: int = 1) -> dict[str, np.ndarray]:
        """Jacobi-style relaxation of the NW recurrence, periodic boundaries."""
        import numpy as np

        h = np.asarray(arrays["h"], dtype=np.float64).copy()
        sub = np.asarray(arrays["sub"], dtype=np.float64)
        for _ in range(max(1, iterations)):
            west = np.roll(h, 1, axis=1) - GAP
            north = np.roll(h, 1, axis=0) - GAP
            diag = np.roll(h, (1, 1), axis=(0, 1)) + sub
            h = np.maximum(diag, np.maximum(west, north))
        return {"h_new": h, "bestScore": np.asarray(float(h.max()))}
