"""Tests for the incremental Optimizer loop and its four strategies.

The load-bearing property is the differential one: driving an
:class:`ExhaustiveOptimizer` through the engine must produce canonical
reports byte-identical to the eager path (build every job up front, run
the backend once) — on every kernel, on every backend, for any chunking
of the proposal stream.  Everything else (fmax brackets, halving
budgets, surrogate prunes) builds on that equivalence.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.explore import (
    DenseBackend,
    DenseUnsupportedError,
    DesignSpace,
    ExhaustiveOptimizer,
    ExplorationEngine,
    FmaxBinarySearchOptimizer,
    GuidedLaneOptimizer,
    Optimizer,
    SerialBackend,
    SuccessiveHalvingOptimizer,
    SurrogatePrunedOptimizer,
    SweepResult,
    build_jobs,
    drive_optimizer,
    iter_jobs,
)
from repro.explore.engine import SweepEntry
from repro.kernels import ALL_KERNELS
from repro.models import PatternKind
from repro.resilience import Deadline, DeadlineExceededError

GRID = (8, 8, 8)
KERNELS = sorted(ALL_KERNELS)


def make_space(kernel: str = "sor", **overrides) -> DesignSpace:
    settings_ = dict(kernel=kernel, grid=GRID, iterations=10, max_lanes=4)
    settings_.update(overrides)
    return DesignSpace(**settings_)


def eager_sweep(space: DesignSpace, backend=None) -> SweepResult:
    """The pre-refactor eager path: materialize all jobs, one backend run."""
    backend = backend or SerialBackend()
    jobs = build_jobs(space)
    reports = backend.run(jobs)
    return SweepResult(
        entries=[SweepEntry(job.point, report)
                 for job, report in zip(jobs, reports)],
        stats=backend.collect_stats(),
    )


class TestProtocol:
    def test_all_strategies_satisfy_the_protocol(self):
        space = make_space()
        for optimizer in (
            ExhaustiveOptimizer(space),
            FmaxBinarySearchOptimizer([space]),
            SuccessiveHalvingOptimizer([space]),
            SurrogatePrunedOptimizer(space),
        ):
            assert isinstance(optimizer, Optimizer)

    def test_exhaustive_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExhaustiveOptimizer()
        with pytest.raises(ValueError, match="exactly one"):
            ExhaustiveOptimizer(make_space(), jobs=build_jobs(make_space()))


class TestExhaustiveDifferential:
    """ExhaustiveOptimizer == the eager path, byte for byte."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_serial_matches_eager_for_every_kernel(self, kernel):
        space = make_space(kernel)
        eager = eager_sweep(space).canonical_dicts()
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            ExhaustiveOptimizer(space))
        assert run.sweep().canonical_dicts() == eager

    def test_dense_backend_matches_eager(self):
        space = make_space(clocks_mhz=(150.0, 200.0))
        eager = eager_sweep(space).canonical_dicts()
        run = ExplorationEngine(DenseBackend()).run_optimizer(
            ExhaustiveOptimizer(space))
        assert run.sweep().canonical_dicts() == eager

    def test_engine_explore_is_the_optimizer_loop(self):
        space = make_space(forms=("A", "B"))
        engine = ExplorationEngine(SerialBackend())
        assert engine.explore(space).canonical_dicts() == \
            eager_sweep(space).canonical_dicts()

    def test_prebuilt_jobs_round_trip(self):
        space = make_space("nw")
        jobs = build_jobs(space)
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            ExhaustiveOptimizer(jobs=jobs))
        assert run.sweep().canonical_dicts() == \
            eager_sweep(space).canonical_dicts()

    @given(
        kernel=st.sampled_from(KERNELS),
        max_lanes=st.sampled_from([1, 2, 4, 8]),
        clocks=st.sampled_from([(None,), (150.0,), (150.0, 200.0)]),
        forms=st.sampled_from([("auto",), ("A",), ("A", "B")]),
        patterns=st.sampled_from(
            [(PatternKind.CONTIGUOUS,),
             (PatternKind.CONTIGUOUS, PatternKind.STRIDED)]),
        batch_points=st.sampled_from([None, 1, 2, 3, 7]),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_space_any_chunking_matches_eager(
            self, kernel, max_lanes, clocks, forms, patterns, batch_points):
        space = make_space(kernel, max_lanes=max_lanes, clocks_mhz=clocks,
                           forms=forms, patterns=patterns)
        if len(space) == 0:
            return
        eager = eager_sweep(space).canonical_dicts()
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            ExhaustiveOptimizer(space, batch_points=batch_points))
        assert run.sweep().canonical_dicts() == eager
        if batch_points is not None:
            assert all(r.points <= batch_points for r in run.rounds)

    def test_round_provenance_names_the_kernel(self):
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            ExhaustiveOptimizer(make_space()))
        assert len(run.rounds) == 1
        assert "sor" in run.rounds[0].note
        payload = run.rounds_payload()
        assert payload[0]["round"] == 0
        assert payload[0]["points"] == run.evaluated


class TestFmaxBinarySearch:
    def test_bracket_invariant_on_the_golden_grid(self):
        """The acceptance property: for every design family, the returned
        fmax is feasible and the bracket's upper edge is infeasible."""
        engine = ExplorationEngine(SerialBackend())
        spaces = [DesignSpace(kernel=k, grid=(24, 24, 24), iterations=10,
                              lanes=[1, 2], forms=("A", "B"))
                  for k in KERNELS]
        run = engine.run_optimizer(
            FmaxBinarySearchOptimizer(spaces, resolution=2.0))
        families = run.result["families"]
        finite = [f for f in families if f["fmax_mhz"] is not None
                  and not f["capped"]]
        assert len(finite) == len(families), \
            "every kernel x form x lanes family must bracket on this grid"
        for fam in finite:
            lo, hi = fam["bracket_mhz"]
            assert hi - lo <= 2.0
            probe = DesignSpace(kernel=fam["kernel"], grid=(24, 24, 24),
                                iterations=10, lanes=[fam["lanes"]],
                                forms=(fam["form"],),
                                clocks_mhz=(lo, hi))
            sweep = engine.explore(probe)
            by_clock = {e.point.resolved_clock_mhz: e.report for e in sweep.entries}
            assert by_clock[lo].feasible, fam
            assert not by_clock[hi].feasible, fam

    def test_always_feasible_family_hits_the_cap(self):
        # form C ("auto" on this tiny footprint) needs no external
        # bandwidth: there is no infeasible clock to bracket against
        space = make_space(lanes=[1], forms=("auto",))
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            FmaxBinarySearchOptimizer([space], max_mhz=800.0))
        (family,) = run.result["families"]
        assert family["capped"]
        assert family["fmax_mhz"] == 800.0

    def test_never_feasible_family_reports_none(self):
        # form A on the tiny grid is bandwidth-infeasible at any clock
        space = make_space(lanes=[1], forms=("A",))
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            FmaxBinarySearchOptimizer([space]))
        (family,) = run.result["families"]
        assert family["fmax_mhz"] is None
        assert "floor" in family["note"]

    def test_probes_are_never_repeated_within_a_family(self):
        space = make_space(lanes=[1, 2], forms=("A", "B"))
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            FmaxBinarySearchOptimizer([space], resolution=1.0))
        seen = {}
        for entry in run.entries:
            key = (entry.point.lanes, entry.point.form)
            clocks = seen.setdefault(key, [])
            assert entry.point.resolved_clock_mhz not in clocks
            clocks.append(entry.point.resolved_clock_mhz)


class TestSuccessiveHalving:
    def test_budget_is_respected_and_a_winner_emerges(self):
        arms = [(f"sor:{form}", make_space(forms=(form,)))
                for form in ("auto", "A", "B")]
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            SuccessiveHalvingOptimizer(arms, budget=8, eta=2, rung_points=1))
        result = run.result
        assert result["spent"] <= result["budget"]
        assert run.evaluated == result["spent"]
        assert result["winner"] is not None
        labels = [a["arm"] for a in result["arms"]]
        assert labels == sorted(labels)
        eliminated = [a for a in result["arms"]
                      if a["eliminated_rung"] is not None]
        assert eliminated, "halving should cut at least one arm"

    def test_winner_holds_the_global_best(self):
        arms = [(f"sor:{form}", make_space(forms=(form,)))
                for form in ("auto", "B")]
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            SuccessiveHalvingOptimizer(arms, budget=12))
        result = run.result
        best = result["best"]
        assert best is not None
        winner = next(a for a in result["arms"]
                      if a["arm"] == result["winner"])
        assert winner["best_ekit_per_s"] == pytest.approx(best["ekit_per_s"])


class TestSurrogatePruned:
    def test_same_best_point_as_exhaustive(self):
        space = make_space(clocks_mhz=(150.0, 200.0, 250.0), max_lanes=8)
        engine = ExplorationEngine(SerialBackend())
        exhaustive_best = engine.explore(space).best()
        run = engine.run_optimizer(
            SurrogatePrunedOptimizer(space, keep_fraction=0.1))
        assert run.result["best"] is not None
        assert run.best().point == exhaustive_best.point

    def test_prunes_most_of_the_space(self):
        space = make_space(clocks_mhz=(150.0, 200.0, 250.0), max_lanes=8)
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            SurrogatePrunedOptimizer(space, keep_fraction=0.1))
        result = run.result
        assert result["dense_points"] == len(space)
        assert 0 < result["scalar_points"] < result["dense_points"]
        assert result["scalar_points"] == run.evaluated
        assert not result["fallback"]

    def test_validation_of_the_best_point(self):
        space = make_space(max_lanes=2)
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            SurrogatePrunedOptimizer(space, keep_fraction=0.5,
                                     validate_best=True))
        validation = run.result["validation"]
        assert validation is not None
        assert validation["within_tolerance"]

    def test_dense_unsupported_space_falls_back_to_full_costing(self):
        class Unsupported:
            def explore_space(self, space):
                raise DenseUnsupportedError("stubbed out")

        space = make_space()
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            SurrogatePrunedOptimizer(space, keep_fraction=0.1,
                                     dense_backend=Unsupported()))
        result = run.result
        assert result["fallback"]
        assert result["scalar_points"] == len(space)


class TestDenseSweepPrune:
    def _sweep(self, space):
        return DenseBackend().explore_space(space)

    def test_keep_fraction_keeps_the_ceiling(self):
        space = make_space(clocks_mhz=(150.0, 200.0, 250.0), max_lanes=8)
        sweep = self._sweep(space)
        n = len(space)
        kept = sweep.prune_indices(keep_fraction=0.25)
        assert len(kept) == -(-n // 4)  # ceil
        assert kept == sorted(kept)

    def test_keep_min_floors_the_selection(self):
        sweep = self._sweep(make_space())
        assert len(sweep.prune_indices(keep_fraction=0.01, keep_min=2)) == 2

    def test_survivors_are_the_top_ekit_feasible_points(self):
        space = make_space(clocks_mhz=(150.0, 200.0, 250.0), max_lanes=8)
        sweep = self._sweep(space)
        kept = sweep.prune_indices(keep_fraction=0.2)
        worst_kept = min(float(sweep.ekit[i]) for i in kept
                         if bool(sweep.feasible[i]))
        dropped = [i for i in range(len(space)) if i not in set(kept)
                   and bool(sweep.feasible[i])]
        assert all(float(sweep.ekit[i]) <= worst_kept for i in dropped)

    def test_invalid_fraction_rejected(self):
        sweep = self._sweep(make_space())
        with pytest.raises(ValueError):
            sweep.prune_indices(keep_fraction=0.0)
        with pytest.raises(ValueError):
            sweep.prune_indices(keep_fraction=1.5)


class TestDriverLoop:
    def test_deadline_stops_the_loop_between_rounds(self):
        import time

        optimizer = ExhaustiveOptimizer(make_space(), batch_points=1)
        deadline = Deadline(1e-4)
        time.sleep(0.01)  # already expired by the first round check
        with pytest.raises(DeadlineExceededError):
            ExplorationEngine(SerialBackend()).run_optimizer(
                optimizer, deadline=deadline)

    def test_on_round_hook_sees_every_round(self):
        rounds = []
        run = ExplorationEngine(SerialBackend()).run_optimizer(
            ExhaustiveOptimizer(make_space(), batch_points=1),
            on_round=lambda r, entries: rounds.append((r.index, len(entries))))
        assert rounds == [(i, 1) for i in range(run.evaluated)]

    def test_guided_optimizer_through_engine_matches_direct_drive(self):
        from repro.compiler import CompilationOptions, TybecCompiler
        from repro.explore import canonical_report_dict, generate_lane_variants
        from repro.kernels import get_kernel

        compiler = TybecCompiler(CompilationOptions())
        variants = generate_lane_variants(get_kernel("sor"), grid=GRID,
                                          iterations=10, max_lanes=4)
        run = ExplorationEngine(SerialBackend(pipeline=compiler)).run_optimizer(
            GuidedLaneOptimizer(variants, options=compiler.options))

        optimizer = GuidedLaneOptimizer(variants,
                                        options=compiler.options)
        drive_optimizer(optimizer, lambda points: [
            SweepEntry(p, compiler.cost(
                optimizer.variant_for(p).module,
                optimizer.variant_for(p).workload)) for p in points])
        assert [e.point.lanes for e in optimizer.entries] == \
            [e.point.lanes for e in run.entries]
        assert [canonical_report_dict(e.report) for e in optimizer.entries] == \
            [canonical_report_dict(e.report) for e in run.entries]
        assert optimizer.result()["optimizer"] == "guided"
