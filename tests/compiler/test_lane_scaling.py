"""Differential and property tests for the analytic lane-scaling law.

The law's contract is absolute: a report derived from a design family's
canonical analysis must be *bit-identical* to the report the full
analysis path produces for the same design point — across every
registered kernel, lane count, memory-execution form and evaluation
backend.  These tests pin that contract, the automatic fallback for
non-separable designs, and the cache bookkeeping around it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fields
from repro.compiler import (
    CompilationOptions,
    EstimationPipeline,
    LaneFamilyHandle,
    check_lane_separable,
    family_fingerprint,
)
from repro.compiler.pipeline import clear_calibration_cache
from repro.cost.calibration import DeviceCostDB
from repro.explore import ExplorationEngine, canonical_report_dict
from repro.explore.space import DesignSpace, build_jobs
from repro.kernels import REGISTRY, get_kernel
from repro.substrate import MAIA_STRATIX_V_GSD8
from repro.suite import tiny_grid

LANES = (1, 2, 4, 8)
FORMS = ("auto", "A", "B", "C")


@pytest.fixture
def cold_caches(tmp_path, monkeypatch):
    """Fresh in-process caches *and* a fresh persistent store.

    Tests that assert miss counters need both layers cold — the session
    cache dir would otherwise warm-start families registered by earlier
    tests (which is the feature, not a bug).
    """
    monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "cache"))
    clear_calibration_cache()
    yield
    clear_calibration_cache()


def _grid(kernel) -> tuple[int, ...]:
    return tiny_grid(kernel.default_grid)


def _full_path_options(form: str = "auto") -> CompilationOptions:
    """Options that force the full analysis path end to end.

    ``lane_scaling=False`` disables the law; the cost database is a
    serialisation round-trip of the shared calibration, so the resource
    stage bypasses the process-wide estimate cache (it only trusts the
    shared default calibration) and recomputes every estimate from the
    IR — without changing a single fitted coefficient.
    """
    shared = EstimationPipeline(
        CompilationOptions(device=MAIA_STRATIX_V_GSD8)
    ).cost_db
    rebuilt = DeviceCostDB.from_dict(shared.as_dict())
    return CompilationOptions(
        device=MAIA_STRATIX_V_GSD8, form=form, cost_db=rebuilt, lane_scaling=False
    )


def _cost_pair(kernel_name: str, lanes: int, form: str):
    """(lane-scaled report, full-path report) for one design point."""
    kernel = get_kernel(kernel_name)
    grid = _grid(kernel)
    module = kernel.build_module(lanes=lanes, grid=grid)
    workload = kernel.workload(grid, iterations=10)

    scaled = EstimationPipeline(
        CompilationOptions(device=MAIA_STRATIX_V_GSD8, form=form)
    )
    full = EstimationPipeline(_full_path_options(form))
    return scaled.cost(module, workload), full.cost(module, workload)


class TestDifferentialIdentity:
    @pytest.mark.parametrize("kernel_name", sorted(REGISTRY.names()))
    def test_all_lanes_and_kernels_bit_identical(self, kernel_name, cold_caches):
        """Acceptance: derived == full for every kernel x lanes {1,2,4,8}."""
        kernel = get_kernel(kernel_name)
        grid = _grid(kernel)
        size = 1
        for dim in grid:
            size *= dim
        scaled = EstimationPipeline(CompilationOptions(device=MAIA_STRATIX_V_GSD8))
        full = EstimationPipeline(_full_path_options())
        workload = kernel.workload(grid, iterations=10)
        for lanes in [l for l in LANES if size % l == 0]:
            module = kernel.build_module(lanes=lanes, grid=grid)
            assert canonical_report_dict(scaled.cost(module, workload)) == (
                canonical_report_dict(full.cost(module, workload))
            )
        # the law actually fired: one canonical analysis, the rest derived
        assert scaled.cache_requests.get(("family", "miss")) == 1
        assert scaled.cache_requests.get(("family", "hit")) >= 1
        family = full.cache_requests
        assert family.get(("family", "hit")) == family.get(("family", "miss")) == 0

    def test_canonical_member_can_be_any_lane_count(self, cold_caches):
        """Deriving downwards (family registered at 4 lanes, member at 1)."""
        kernel = get_kernel("sor")
        grid = _grid(kernel)
        workload = kernel.workload(grid, iterations=10)
        scaled = EstimationPipeline(CompilationOptions(device=MAIA_STRATIX_V_GSD8))
        full = EstimationPipeline(_full_path_options())
        for lanes in (4, 1, 8, 2):  # canonical is the 4-lane member
            module = kernel.build_module(lanes=lanes, grid=grid)
            assert canonical_report_dict(scaled.cost(module, workload)) == (
                canonical_report_dict(full.cost(module, workload))
            )
        assert scaled.cache_requests.get(("family", "miss")) == 1
        assert scaled.cache_requests.get(("family", "hit")) == 3

    def test_lazy_handles_match_eager_modules(self, cold_caches):
        """The sweep layer's recipes cost identically to lowered IR."""
        space = DesignSpace(kernel=get_kernel("conv2d"),
                            grid=_grid(get_kernel("conv2d")),
                            iterations=10, max_lanes=8,
                            clocks_mhz=(150.0, 200.0))
        lazy = ExplorationEngine().cost_many(build_jobs(space, lazy=True))
        eager = ExplorationEngine().cost_many(build_jobs(space, lazy=False))
        assert lazy.canonical_dicts() == eager.canonical_dicts()
        assert lazy.stats["family"][0] > 0  # derived members exist

    def test_warm_recipe_never_lowers_the_module(self):
        """A warm family costs a recipe without materializing its IR."""
        kernel = get_kernel("sor")
        grid = _grid(kernel)
        workload = kernel.workload(grid, iterations=10)
        pipeline = EstimationPipeline(CompilationOptions(device=MAIA_STRATIX_V_GSD8))
        # canonical member warms the family (and the recipe index)
        pipeline.cost(LaneFamilyHandle(kernel=kernel, lanes=1, grid=grid), workload)
        handle = LaneFamilyHandle(kernel=kernel, lanes=4, grid=grid)
        report = pipeline.cost(handle, workload)
        assert handle._module is None  # never lowered
        assert report.design == "sor_l4"
        direct = EstimationPipeline(_full_path_options()).cost(
            kernel.build_module(lanes=4, grid=grid), workload
        )
        assert canonical_report_dict(report) == canonical_report_dict(direct)


def _structure_counts(structure) -> tuple:
    """A structure's fields except the module it was read from."""
    return tuple(getattr(structure, f.name) for f in fields(structure)
                 if f.name != "module")


@pytest.mark.parametrize("family", ["cold", "warm"])
@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("kernel_name", sorted(REGISTRY.names()))
def test_analyze_handle_matches_module(kernel_name, lanes, family, cold_caches):
    """``analyze`` of a recipe equals the full path's ``analyze`` of its
    lowered module, whether the recipe's family was cold or warm."""
    kernel = get_kernel(kernel_name)
    grid = _grid(kernel)
    scaled = EstimationPipeline(CompilationOptions(device=MAIA_STRATIX_V_GSD8))
    if family == "warm":
        other = 2 if lanes == 1 else 1
        scaled.analyze(LaneFamilyHandle(kernel=kernel, lanes=other, grid=grid))
    handle = LaneFamilyHandle(kernel=kernel, lanes=lanes, grid=grid)
    from_handle = scaled.analyze(handle)
    assert (handle._module is None) == (family == "warm")
    assert scaled.cache_requests.get(("family", "miss")) == 1

    full = EstimationPipeline(
        CompilationOptions(device=MAIA_STRATIX_V_GSD8, lane_scaling=False))
    from_module = full.analyze(handle.materialize())
    assert _structure_counts(from_handle.structure) == (
        _structure_counts(from_module.structure))
    assert from_handle.schedules == from_module.schedules
    assert from_handle.pipeline_spec == from_module.pipeline_spec
    assert from_handle.balancing_register_bits == from_module.balancing_register_bits
    assert from_handle.name == from_module.name == f"{kernel.name}_l{lanes}"


@settings(max_examples=30, deadline=None)
@given(
    kernel_name=st.sampled_from(sorted(REGISTRY.names())),
    lanes=st.sampled_from(LANES),
    form=st.sampled_from(FORMS),
)
def test_lane_scaled_reports_equal_full_analysis(kernel_name, lanes, form):
    """Property: derived == full across kernels x lanes x forms."""
    kernel = get_kernel(kernel_name)
    size = 1
    for dim in _grid(kernel):
        size *= dim
    if size % lanes != 0:
        lanes = 1
    scaled, full = _cost_pair(kernel_name, lanes, form)
    assert canonical_report_dict(scaled) == canonical_report_dict(full)


class TestSeparabilityAndFallback:
    def test_registered_kernels_are_separable(self):
        for name in REGISTRY.names():
            kernel = get_kernel(name)
            for lanes in (1, 2):
                module = kernel.build_module(lanes=lanes, grid=_grid(kernel))
                sep = check_lane_separable(module)
                assert sep is not None
                assert sep.lanes == lanes

    def test_family_fingerprint_is_lane_invariant(self):
        kernel = get_kernel("sor")
        grid = _grid(kernel)
        prints = set()
        for lanes in (1, 2, 4):
            module = kernel.build_module(lanes=lanes, grid=grid)
            prints.add(family_fingerprint(module, check_lane_separable(module)))
        assert len(prints) == 1

    def test_family_fingerprint_distinguishes_kernels_and_grids(self):
        sor = get_kernel("sor")
        nw = get_kernel("nw")
        fps = set()
        for kernel, grid in ((sor, _grid(sor)), (nw, _grid(nw)),
                             (sor, tuple(d * 2 for d in _grid(sor)))):
            module = kernel.build_module(lanes=2, grid=grid)
            fps.add(family_fingerprint(module, check_lane_separable(module)))
        assert len(fps) == 3

    def test_non_separable_module_falls_back(self, stencil_module):
        """A hand-built two-leaf design takes the full path, correctly."""
        from repro.ir.builder import IRBuilder
        from repro.ir import ScalarType

        # graft a second (unreachable) leaf onto the stencil: the strict
        # shape check must reject it even though the cost flow would not
        # notice the extra function
        ty = ScalarType.uint(18)
        extra = IRBuilder("scratch").function("g0", kind="pipe", args=[(ty, "x")])
        extra.add(ty, "x", 1)
        stencil_module.add_function(extra.function)
        assert check_lane_separable(stencil_module) is None

        from repro.models import KernelInstance, NDRange

        workload = KernelInstance(kernel="stencil", ndrange=NDRange((8, 8, 8)),
                                  repetitions=10)
        scaled = EstimationPipeline(CompilationOptions(device=MAIA_STRATIX_V_GSD8))
        full = EstimationPipeline(_full_path_options())
        assert canonical_report_dict(scaled.cost(stencil_module, workload)) == (
            canonical_report_dict(full.cost(stencil_module, workload))
        )
        assert scaled.cache_requests.get(("family", "fallback")) == 1
        family = scaled.cache_requests
        assert family.get(("family", "hit")) == family.get(("family", "miss")) == 0

    def test_separable_stencil_joins_a_family(self, stencil_module):
        """The conftest one-lane stencil is canonical-shaped and registers."""
        assert check_lane_separable(stencil_module) is not None

    def test_recipe_token_tracks_kernel_code(self):
        """Regression: the persisted recipe alias keys on kernel *content*
        (class source hash + instance state), so editing a kernel's
        lowering invalidates warm recipes without a schema bump."""
        from repro.compiler.lanescale import _kernel_code_token

        kernel = get_kernel("sor")
        token = LaneFamilyHandle(kernel=kernel, lanes=1, grid=(8, 8, 8)).family_token()
        assert _kernel_code_token(kernel) in token
        other = LaneFamilyHandle(kernel=get_kernel("nw"), lanes=1, grid=(8, 8, 8))
        assert other.family_token() != token


class TestGoldensUnchanged:
    def test_golden_reports_are_bit_for_bit_unchanged(self):
        """Lane scaling + lazy recipes leave tests/golden/*.json untouched."""
        from repro.suite import check_goldens

        results = check_goldens()
        assert results
        for kernel, diffs in results.items():
            assert diffs == [], f"{kernel}: {[str(d) for d in diffs]}"
