"""The analytic lane-scaling law: O(families) analysis for O(points) sweeps.

The lane axis is the widest axis of every sweep (Figure 15), yet lanes do
not change the *shape* of a design: the ``reshapeTo L`` transformation
replicates one kernel pipeline ``L`` times behind a ``par`` wrapper and
gives each lane its own stream objects — the datapath, its schedule, its
per-instance resource cost, the offset buffers and the per-lane stream
pattern are all invariants of the *design family*.  This module makes
that invariant explicit:

:func:`check_lane_separable`
    Decides (cheaply, structurally) whether a module has exactly the
    replicated-lane shape the law covers.  Anything else — extra
    functions, a non-uniform wrapper, streams that do not replicate per
    lane — falls back to the full analysis path automatically.

:func:`family_fingerprint`
    Hashes the lane-*invariant* content of a separable module (PE
    datapath, constants, memory objects, ports, per-lane stream template)
    so every lane count of one family maps to one key.

:class:`FamilyAnalysis`
    Everything the estimation flow needs, analysed once from the family's
    canonical member, from which :func:`derive_structure` reconstructs
    any member's :class:`~repro.cost.resource_model.ModuleStructure` in
    O(lanes) record assembly — no validation, no scheduling, no
    instruction walk.

:class:`LaneFamilyHandle`
    A lazy, pickle-safe stand-in for a kernel-built module: the sweep
    layer hands the pipeline ``(kernel, lanes, grid)`` recipes instead of
    eagerly lowered IR, so a warm family never lowers the member module
    at all.

Derived products are *bit-identical* to the full path's: the derivations
reuse the very same arithmetic (``estimate_from_structure``,
``pipeline_spec_from_schedule``) on identical integer inputs, which the
differential and property tests pin across every registered kernel.
"""

from __future__ import annotations

import hashlib
import sys
import threading

from repro import field, record
from repro.compiler.scheduling import OperatorLatencyModel, ScheduledPipeline
from repro.cost.cache import BoundedCache, default_disk_cache, env_int
from repro.cost.resource_model import ModuleStructure
from repro.ir.fingerprint import _token, fingerprint_function
from repro.ir.functions import FunctionKind, IRFunction, Module

__all__ = [
    "LaneSeparability",
    "FamilyAnalysis",
    "LaneFamilyHandle",
    "check_lane_separable",
    "family_fingerprint",
    "latency_key",
    "derive_structure",
    "clear_family_caches",
    "register_recipe_alias",
]

#: disk-cache namespaces (bump SCHEMA_VERSION in cost.cache to invalidate)
_FAMILY_NAMESPACE = "family"
_RECIPE_NAMESPACE = "recipe"


def latency_key(model: OperatorLatencyModel) -> tuple:
    """Hashable identity of a latency model (a lane-scaling family axis)."""
    return (model.div_cycles_per_bit, model.sqrt_cycles_per_bit, model.input_stage_cycles)


# ----------------------------------------------------------------------
# Separability: does the module have the replicated-lane shape?
# ----------------------------------------------------------------------


@record(frozen=True)
class LaneSeparability:
    """The replicated-lane shape of a module, as found by the checker."""

    pe: str
    wrapper: str | None
    lanes: int
    call_args: tuple[str, ...]
    call_kind: str | None


def check_lane_separable(module: Module) -> LaneSeparability | None:
    """Check a module against the canonical replicated-lane shape.

    The shape is exactly what :func:`repro.functional.lower.lower_program`
    emits: ``main`` makes a single call, either directly to one leaf
    datapath (one lane) or to a ``par`` wrapper whose body is N identical
    calls to one leaf datapath (N lanes); no other functions exist; and
    the stream objects decompose into N identical per-lane groups.
    Returns None — meaning "use the full analysis path" — for anything
    else.
    """
    try:
        entry = module.entry
    except Exception:
        return None
    calls = entry.calls()
    if len(calls) != 1 or entry.instructions() or entry.offsets():
        return None
    call = calls[0]
    if not module.has_function(call.callee):
        return None
    target = module.get_function(call.callee)

    if target.is_leaf:
        pe, wrapper, lanes, template = target, None, 1, call
    elif target.kind is FunctionKind.PAR:
        body_calls = target.calls()
        if len(body_calls) < 2 or len(body_calls) != len(target.body):
            return None
        template = body_calls[0]
        for c in body_calls:
            if (c.callee != template.callee or tuple(c.args) != tuple(template.args)
                    or c.kind != template.kind):
                return None
        if not module.has_function(template.callee):
            return None
        pe = module.get_function(template.callee)
        if not pe.is_leaf:
            return None
        wrapper, lanes = target.name, len(body_calls)
    else:
        return None

    expected = {module.main, pe.name} | ({wrapper} if wrapper else set())
    if set(module.functions) != expected:
        return None

    # per-lane stream replication: every (memory, direction, pattern,
    # stride) group must split evenly across the lanes
    for count in _stream_groups(module).values():
        if count % lanes != 0:
            return None
    return LaneSeparability(
        pe=pe.name,
        wrapper=wrapper,
        lanes=lanes,
        call_args=tuple(template.args),
        call_kind=template.kind,
    )


def _stream_groups(module: Module) -> dict[tuple, int]:
    groups: dict[tuple, int] = {}
    for s in module.stream_objects.values():
        key = (s.memory, s.direction.value, s.pattern.value, s.stride)
        groups[key] = groups.get(key, 0) + 1
    return groups


def family_fingerprint(module: Module, sep: LaneSeparability) -> str:
    """Hash the lane-invariant content of a separable module.

    Excludes everything a lane count changes — the module name, the
    wrapper, the number of per-lane stream replicas — and includes
    everything the cost model reads: the PE datapath, the call template,
    constants, memory objects, port declarations and the per-lane stream
    template.
    """
    hasher = hashlib.sha256(b"lane-family/1")
    entry = module.entry
    hasher.update(_token(
        "main", entry.name, entry.kind.value,
        ",".join(f"{t}:{n}" for t, n in entry.args),
    ))
    hasher.update(_token("calltpl", ",".join(sep.call_args), sep.call_kind or ""))
    for cname in sorted(module.constants):
        hasher.update(_token("const", cname, module.constants[cname]))
    for obj in module.memory_objects.values():
        hasher.update(_token("mem", obj.name, obj.element_type, obj.size,
                             obj.addr_space, obj.label or ""))
    for key, count in sorted(_stream_groups(module).items()):
        hasher.update(_token("streamtpl", *key, count // sep.lanes))
    for port in module.port_declarations:
        hasher.update(_token("port", port.function, port.port, port.element_type,
                             port.direction.value, port.pattern.value,
                             port.base_offset, port.stream_object or "",
                             port.addr_space))
    fingerprint_function(hasher, module.get_function(sep.pe))
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# The family analysis and the derivations
# ----------------------------------------------------------------------


@record
class FamilyAnalysis:
    """Lane-invariant analysis products of one design family."""

    fingerprint: str
    latency: tuple
    pe: IRFunction
    wrapper: str | None
    schedules: dict[str, ScheduledPipeline]
    instructions_per_pe: int
    offset_buffers: list[tuple[str, int, int]]
    max_offset_span_words: int
    words_per_item: int
    in_streams_per_lane: int
    out_streams_per_lane: int
    element_width: int
    #: per-(device, noise) PE datapath usage, filled lazily by the
    #: resource stage (guarded by ``usage_lock``)
    leaf_usage: dict = field(default_factory=dict)
    usage_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("usage_lock", None)
        # snapshot: usages are deterministic per (device, noise) content, so
        # a warm-started process can reuse them directly
        state["leaf_usage"] = dict(state.get("leaf_usage", {}))
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.usage_lock = threading.Lock()

    @property
    def pe_name(self) -> str:
        return self.pe.name

    def wrapper_name_for(self, module: Module | None = None) -> str:
        """The par-wrapper name of a multi-lane member.

        Read from the member itself when it was lowered; otherwise reuse
        the canonical member's, falling back to the lowering convention.
        (The wrapper never contributes resources or schedule depth, so the
        name only labels the structure's instance counts.)
        """
        if module is not None:
            sep = check_lane_separable(module)
            if sep is not None and sep.wrapper:
                return sep.wrapper
        if self.wrapper:
            return self.wrapper
        base = self.pe_name[:-3] if self.pe_name.endswith("_pe") else self.pe_name
        return f"{base}_lanes"


def build_family(
    module: Module,
    sep: LaneSeparability,
    fingerprint: str,
    latency: tuple,
    structure: ModuleStructure,
    schedules: dict[str, ScheduledPipeline],
) -> FamilyAnalysis | None:
    """Fold one member's full analysis into its family's invariants.

    Returns None when the member's analysis is not expressible per lane
    (stream totals that do not divide by the lane count) — the caller
    then simply does not register a family.
    """
    lanes = max(sep.lanes, 1)
    if structure.input_streams % lanes or structure.output_streams % lanes:
        return None
    return FamilyAnalysis(
        fingerprint=fingerprint,
        latency=latency,
        pe=module.get_function(sep.pe),
        wrapper=sep.wrapper,
        schedules=schedules,
        instructions_per_pe=structure.instructions_per_pe,
        offset_buffers=list(structure.offset_buffers),
        max_offset_span_words=structure.max_offset_span_words,
        words_per_item=structure.words_per_item,
        in_streams_per_lane=structure.input_streams // lanes,
        out_streams_per_lane=structure.output_streams // lanes,
        element_width=structure.element_width,
    )


def derive_structure(
    family: FamilyAnalysis, lanes: int, module: Module | None = None
) -> ModuleStructure:
    """The :class:`ModuleStructure` of the ``lanes``-wide family member."""
    counts: dict[str, int] = {}
    if lanes > 1:
        counts[family.wrapper_name_for(module)] = 1
    counts[family.pe_name] = lanes
    return ModuleStructure(
        module=module,
        instance_counts=counts,
        kernel_function=family.pe_name,
        lanes=lanes,
        instructions_per_pe=family.instructions_per_pe,
        offset_buffers=list(family.offset_buffers),
        max_offset_span_words=family.max_offset_span_words,
        words_per_item=family.words_per_item,
        input_streams=family.in_streams_per_lane * lanes,
        output_streams=family.out_streams_per_lane * lanes,
        element_width=family.element_width,
    )


# ----------------------------------------------------------------------
# Lazy module handles: the sweep layer's O(families) lowering
# ----------------------------------------------------------------------


#: per-kernel-class content token of the class's source file, so
#: persisted recipe aliases go stale the moment a kernel's defining module
#: changes (hashing the whole file is deliberately conservative — and far
#: cheaper than inspect.getsource, which tokenizes the file to find the
#: class block).  Resolved once per class and process.
_KERNEL_CODE_TOKENS: dict[type, str] = {}


def _kernel_code_token(kernel) -> str:
    cls = type(kernel)
    token = _KERNEL_CODE_TOKENS.get(cls)
    if token is None:
        try:
            with open(sys.modules[cls.__module__].__file__, "rb") as fh:
                token = hashlib.sha256(fh.read()).hexdigest()[:16]
        except (AttributeError, KeyError, OSError, TypeError):
            token = ""
        _KERNEL_CODE_TOKENS[cls] = token
    return token


@record
class LaneFamilyHandle:
    """A lazy, pickle-safe ``(kernel, lanes, grid)`` module recipe.

    The exploration layer knows that points along the lane axis belong to
    one design family before any IR exists; a handle carries that
    knowledge into the pipeline, which lowers the member module only when
    the family is cold or the design turns out not to be lane-separable.
    """

    kernel: object
    lanes: int
    grid: tuple[int, ...]
    _module: Module | None = field(default=None, repr=False, compare=False)

    def __init__(self, kernel, lanes, grid, _module=None) -> None:
        self.kernel = kernel
        self.lanes = lanes
        self.grid = grid
        self._module = _module

    @property
    def design_name(self) -> str:
        # mirrors ScientificKernel.build_module's lower_program naming
        return f"{self.kernel.name}_l{self.lanes}"

    def family_token(self) -> tuple:
        """Identity of the design family this recipe belongs to.

        Includes a hash of the kernel class's source *file* and of its
        instance state: the persisted recipe→family alias must stop
        matching when the kernel's lowering code (or a constructor
        parameter that shapes it) changes, not only when
        ``SCHEMA_VERSION`` is bumped.  Computed once per handle (a sweep
        recipe's kernel does not change under it); every point of the
        handle reads the stored tuple.
        """
        token = self.__dict__.get("_family_token")
        if token is None:
            cls = type(self.kernel)
            state = tuple(sorted(
                (k, repr(v)) for k, v in vars(self.kernel).items()
                if not k.startswith("_")
            ))
            token = self._family_token = (
                "kernel-recipe", cls.__module__, cls.__qualname__,
                self.kernel.name, _kernel_code_token(self.kernel), state,
                tuple(self.grid))
        return token

    def point_token(self) -> tuple:
        token = self.__dict__.get("_point_token")
        if token is None:
            token = self._point_token = self.family_token() + (self.lanes,)
        return token

    def materialize(self) -> Module:
        """Lower (and cache) the member module."""
        if self._module is None:
            self._module = self.kernel.build_module(lanes=self.lanes, grid=tuple(self.grid))
        return self._module

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_module"] = None  # workers re-lower only if their family is cold
        return state


# ----------------------------------------------------------------------
# Process-wide family caches (+ the persistent warm-start layer)
# ----------------------------------------------------------------------

_FAMILY_CACHE = BoundedCache(env_int("TYBEC_FAMILY_CACHE_SIZE", 256), name="family")
_RECIPE_INDEX = BoundedCache(env_int("TYBEC_FAMILY_CACHE_SIZE", 256), name="recipe")


def clear_family_caches() -> None:
    """Drop the in-process family caches (not the persistent store)."""
    _FAMILY_CACHE.clear()
    _RECIPE_INDEX.clear()


def lookup_family(fingerprint: str, latency: tuple) -> FamilyAnalysis | None:
    """Find a family by fingerprint: memory first, then the disk store."""
    key = (fingerprint, latency)
    family = _FAMILY_CACHE.get(key)
    if family is not None:
        return family
    disk = default_disk_cache()
    if disk is not None:
        family = disk.get(_FAMILY_NAMESPACE, key, FamilyAnalysis)
        if family is not None:
            _FAMILY_CACHE.put(key, family)
    return family


def lookup_family_for_recipe(token: tuple, latency: tuple) -> FamilyAnalysis | None:
    """Find a family by sweep recipe without lowering any module."""
    key = (token, latency)
    fingerprint = _RECIPE_INDEX.get(key)
    if fingerprint is None:
        disk = default_disk_cache()
        if disk is not None:
            fingerprint = disk.get(_RECIPE_NAMESPACE, key, str)
            if fingerprint is not None:
                _RECIPE_INDEX.put(key, fingerprint)
    if fingerprint is None:
        return None
    return lookup_family(fingerprint, latency)


def register_family(family: FamilyAnalysis, recipe_token: tuple | None = None) -> None:
    """Publish a family to the in-process caches and the disk store."""
    key = (family.fingerprint, family.latency)
    _FAMILY_CACHE.put(key, family)
    disk = default_disk_cache()
    if disk is not None:
        disk.put(_FAMILY_NAMESPACE, key, family)
    if recipe_token is not None:
        register_recipe_alias(recipe_token, family)


def register_recipe_alias(recipe_token: tuple, family: FamilyAnalysis) -> None:
    """Map a sweep recipe to its family (idempotent, write-once).

    Called on every canonical analysis a handle triggers, so it must be
    cheap when the alias already exists — only a genuinely new alias
    touches the disk store.
    """
    index_key = (recipe_token, family.latency)
    if _RECIPE_INDEX.get(index_key) == family.fingerprint:
        return
    _RECIPE_INDEX.put(index_key, family.fingerprint)
    disk = default_disk_cache()
    if disk is not None:
        disk.put(_RECIPE_NAMESPACE, index_key, family.fingerprint)
