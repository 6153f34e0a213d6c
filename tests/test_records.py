"""The record decorator against its stdlib model, and the hot classes.

:func:`repro.record` replaces ``@dataclasses.dataclass`` across the
package, so its semantics are pinned here against a stdlib dataclass
twin.  Hypothesis draws a field list (defaults, factories and every
``field()`` option), the class flags (``frozen``, ``order``, a
``__post_init__``, a base class holding the leading fields) and argument
values; the record and its twin must then agree on construction errors,
``repr`` text, ``==``, ``hash`` (or unhashability), ordering, pickling
and its ``__reduce_ex__(2)`` state, :func:`~repro.replace`,
:func:`~repro.fields` and frozen assignment.

The classes built per design point or per Verilog item write their
methods in their own bodies; the deterministic tests below keep them
there and keep their hand-written ``__init__`` in step with their field
list.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import FrozenInstanceError, field, fields, record, replace

# ----------------------------------------------------------------------
# Random record classes and their dataclass twins
# ----------------------------------------------------------------------

#: field values: hashable and not, ordered across kinds and not, NaN
VALUES = st.one_of(st.integers(-3, 3), st.floats(allow_nan=True, width=32),
                   st.text(max_size=2), st.none(), st.tuples(st.integers(0, 2)),
                   st.lists(st.integers(0, 2), max_size=2))

FACTORIES = {"list": list, "dict": dict, "tuple": lambda: (1, 2)}


@st.composite
def field_specs(draw) -> list[dict]:
    """Field specs, required ``__init__`` fields first (both decorators
    refuse a required field after a defaulted one)."""
    specs = []
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("required", "plain", "default", "factory")))
        spec = {"name": f"f{i}", "kind": kind, "init": True, "repr": True,
                "compare": True, "hash": None}
        if kind in ("plain", "default"):
            spec["default"] = draw(VALUES.filter(lambda v: not isinstance(v, list)))
        if kind == "factory":
            spec["factory"] = draw(st.sampled_from(sorted(FACTORIES)))
        if kind != "plain":
            spec.update(repr=draw(st.booleans()), compare=draw(st.booleans()),
                        hash=draw(st.sampled_from((None, True, False))))
        if kind in ("default", "factory"):
            spec["init"] = draw(st.booleans())
        specs.append(spec)
    return sorted(specs, key=lambda s: s["kind"] != "required")


def build(specs: list[dict], flags: dict, stdlib: bool):
    """The class ``Rec`` from ``specs``: a record, or its dataclass twin."""
    decorate = (dataclasses.dataclass(frozen=flags["frozen"], order=flags["order"])
                if stdlib else record(frozen=flags["frozen"], order=flags["order"]))
    make_field = dataclasses.field if stdlib else field
    split = flags["base"] % (len(specs) + 1)

    def namespace(part: list[dict], post_init: bool) -> dict:
        ns = {"__annotations__": {s["name"]: "object" for s in part},
              "__qualname__": "Rec", "__module__": __name__}
        for s in part:
            options = {"init": s["init"], "repr": s["repr"], "compare": s["compare"],
                       "hash": s["hash"]}
            if s["kind"] == "plain":
                ns[s["name"]] = s["default"]
            elif s["kind"] == "default":
                ns[s["name"]] = make_field(default=s["default"], **options)
            elif s["kind"] == "factory":
                ns[s["name"]] = make_field(default_factory=FACTORIES[s["factory"]],
                                           **options)
            else:
                ns[s["name"]] = make_field(**options)
        if post_init:
            def __post_init__(self):
                self.log.append(tuple(repr(getattr(self, s["name"], "<unset>"))
                                      for s in specs))
            ns["__post_init__"] = __post_init__
        return ns

    base = decorate(type("Rec", (), namespace(specs[:split], False)))
    cls = decorate(type("Rec", (base,), namespace(specs[split:], flags["post_init"])))
    cls.log = []
    return cls


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type of what it raised (errors compared
    by kind; the two implementations word their messages differently)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (FrozenInstanceError, dataclasses.FrozenInstanceError):
        return ("raised", "FrozenInstanceError")
    except Exception as exc:
        return ("raised", type(exc).__name__)


def same(a, b) -> bool:
    """Value equality that also holds for NaN at the same place."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a is b or a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def pickled(obj) -> tuple:
    """Round-trip ``obj`` through pickle, its class published as ``Rec``."""
    globals()["Rec"] = type(obj)
    try:
        return outcome(pickle.loads, pickle.dumps(obj))
    finally:
        del globals()["Rec"]


CLASS_FLAGS = st.fixed_dictionaries({
    "frozen": st.booleans(), "order": st.booleans(), "post_init": st.booleans(),
    "base": st.integers(0, 6)})


@st.composite
def cases(draw):
    specs = draw(field_specs())
    flags = draw(CLASS_FLAGS)
    params = [s["name"] for s in specs if s["init"]]
    args = []
    for _ in range(2):
        values = {s["name"]: draw(VALUES) for s in specs
                  if s["init"] and (s["kind"] == "required" or draw(st.booleans()))}
        # a present prefix of the parameters may go positionally
        prefix = 0
        while prefix < len(params) and params[prefix] in values:
            prefix += 1
        args.append((values, draw(st.integers(0, prefix))))
    names = [s["name"] for s in specs] or ["f0"]
    changes = {name: draw(VALUES)
               for name in draw(st.lists(st.sampled_from(names), max_size=2))}
    return specs, flags, params, args, changes


def construct(cls, params: list[str], values: dict, positional: int):
    return cls(*[values[n] for n in params[:positional]],
               **{n: v for n, v in values.items() if n not in params[:positional]})


@settings(max_examples=300, deadline=None)
@given(cases())
def test_a_record_behaves_like_its_dataclass_twin(case):
    specs, flags, params, args, changes = case
    rec_cls, dc_cls = build(specs, flags, False), build(specs, flags, True)

    assert [f.name for f in fields(rec_cls)] == [f.name for f in dataclasses.fields(dc_cls)]
    assert (rec_cls.__hash__ is None) == (dc_cls.__hash__ is None)

    built = [(outcome(construct, rec_cls, params, *a), outcome(construct, dc_cls, params, *a))
             for a in args]
    for r, d in built:
        assert r[0] == d[0] == "ok"
    assert rec_cls.log == dc_cls.log            # __post_init__ saw the same fields
    (r1, d1), (r2, d2) = [(r[1], d[1]) for r, d in built]

    assert repr(r1) == repr(d1)
    assert outcome(lambda: r1 == r2) == outcome(lambda: d1 == d2)
    assert (r1 == object()) is False and (r1 != r1) == (d1 != d1)
    assert outcome(hash, r1) == outcome(hash, d1)
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        if flags["order"]:
            assert outcome(lambda: getattr(r1, op)(r2)) == outcome(lambda: getattr(d1, op)(d2))
        else:
            assert getattr(r1, op)(r2) is NotImplemented

    # pickling: the same instance-dict state, and the same round trip
    state_r, state_d = r1.__reduce_ex__(2)[2] or {}, d1.__reduce_ex__(2)[2] or {}
    assert list(state_r) == list(state_d)
    assert all(same(state_r[k], state_d[k]) for k in state_r)
    rr, rd = pickled(r1), pickled(d1)
    assert rr[0] == rd[0] == "ok" and repr(rr[1]) == repr(rd[1])
    assert outcome(lambda: rr[1] == r1) == outcome(lambda: rd[1] == d1)

    # factories run once per instance
    for s in specs:
        if s["kind"] == "factory" and s["factory"] != "tuple" and all(
                s["name"] not in values for values, _ in args):
            assert getattr(r1, s["name"]) is not getattr(r2, s["name"])

    # replace, including init=False fields and unknown names
    rr, rd = outcome(replace, r1, **changes), outcome(dataclasses.replace, d1, **changes)
    assert rr[0] == rd[0] and (rr == rd if rr[0] == "raised" else repr(rr[1]) == repr(rd[1]))
    assert outcome(replace, r1, bogus=1) == outcome(dataclasses.replace, d1, bogus=1)

    # assignment and deletion: frozen raises, mutable takes it
    for name in [s["name"] for s in specs][:2] + ["extra"]:
        assert outcome(setattr, r1, name, 7) == outcome(setattr, d1, name, 7)
        assert outcome(delattr, r1, name) == outcome(delattr, d1, name)
    assert outcome(repr, r1) == outcome(repr, d1)


@settings(max_examples=100, deadline=None)
@given(field_specs(), CLASS_FLAGS)
def test_missing_and_unexpected_arguments_raise_type_error(specs, flags):
    rec_cls = build(specs, flags, False)
    required = [s["name"] for s in specs if s["kind"] == "required"]
    values = {name: 0 for name in required}
    if required:
        with pytest.raises(TypeError):
            rec_cls(**dict(list(values.items())[1:]))
    with pytest.raises(TypeError):
        rec_cls(**values, bogus=1)
    with pytest.raises(TypeError):
        rec_cls(*range(len([s for s in specs if s["init"]]) + 1))
    for s in specs:
        if not s["init"]:
            with pytest.raises(TypeError):
                rec_cls(**values, **{s["name"]: 0})
    if required:
        with pytest.raises(TypeError):
            rec_cls(0, **{required[0]: 0})


def test_frozen_instance_error_is_an_attribute_error():
    @record(frozen=True)
    class Point:
        x: int

    with pytest.raises(AttributeError):
        Point(1).x = 2
    assert issubclass(FrozenInstanceError, AttributeError)


def test_a_method_written_in_the_body_wins():
    @record(frozen=True, order=True)
    class Versioned:
        major: int
        minor: int = 0

        def __repr__(self):
            return f"v{self.major}.{self.minor}"

        def __lt__(self, other):
            return self.minor < other.minor

    assert repr(Versioned(1, 2)) == "v1.2"
    assert Versioned(2, 1) < Versioned(1, 2)
    assert Versioned(1, 2) <= Versioned(1, 2)
    assert hash(Versioned(1, 2)) == hash((1, 2))


def test_non_default_after_default_is_refused():
    with pytest.raises(TypeError):
        @record
        class Bad:
            a: int = 0
            b: int


def test_record_generation_runs_no_exec(monkeypatch):
    import builtins

    calls = []

    def counting(name):
        real = getattr(builtins, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for name in ("exec", "compile"):
        monkeypatch.setattr(builtins, name, counting(name))

    @record(frozen=True, order=True)
    class Point:
        x: int
        y: int = field(default=0, compare=False)

    monkeypatch.undo()
    assert calls == []
    assert Point(1) == Point(1, 5) and repr(Point(1)).endswith("Point(x=1, y=0)")


# ----------------------------------------------------------------------
# The hot classes
# ----------------------------------------------------------------------

#: classes built or hashed per design point (sweeps), per family, or per
#: IR instruction, Verilog item or delay line (RTL verification): each
#: writes ``__init__`` in its own body
HOT_INIT = (
    "repro.substrate.synthesis.ResourceUsage",
    "repro.cost.resource_model.ModuleResourceEstimate",
    "repro.explore.space.DesignPoint",
    "repro.explore.space.CostJob",
    "repro.cost.throughput.EKITParameters",
    "repro.cost.throughput._DerivedScalars",
    "repro.cost.throughput.TimeBreakdown",
    "repro.cost.throughput.EKITEstimate",
    "repro.cost.report.FeasibilityCheck",
    "repro.cost.report.CostReport",
    "repro.explore.engine.SweepEntry",
    "repro.cost.resource_model.ModuleStructure",
    "repro.cost.resource_model.FunctionResourceEstimate",
    "repro.compiler.pipeline.CostGroup",
    "repro.models.memory_execution.FormSelection",
    "repro.compiler.lanescale.LaneFamilyHandle",
    "repro.flows.verilog.NetDecl",
    "repro.flows.verilog.ContinuousAssign",
    "repro.flows.verilog.AlwaysBlock",
    "repro.ir.instructions.Operand",
    "repro.ir.instructions.Instruction",
    "repro.ir.functions.StreamObject",
    "repro.flows.verilog.PortDecl",
    "repro.flows.verilog.ArrayDecl",
    "repro.flows.netlist._ShiftLoop",
)

#: classes hashed several times per design point: ``__eq__``/``__hash__``
HOT_HASH = ("repro.substrate.fpga_device.FPGADevice", "repro.explore.space.DesignPoint")


def resolve(path: str) -> type:
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


def written_in_body(cls: type, name: str) -> bool:
    method = cls.__dict__.get(name)
    code = getattr(method, "__code__", None)
    return code is not None and code.co_filename == sys.modules[cls.__module__].__file__


@pytest.mark.parametrize("path", HOT_INIT)
def test_hot_classes_write_init_in_their_own_body(path):
    assert written_in_body(resolve(path), "__init__")


@pytest.mark.parametrize("path", HOT_HASH)
def test_hot_hashed_classes_write_eq_and_hash_in_their_own_body(path):
    cls = resolve(path)
    assert written_in_body(cls, "__eq__") and written_in_body(cls, "__hash__")


def test_hot_hashed_classes_keep_the_record_rule():
    """``==`` and ``hash`` over the compared and hashed fields, as the
    generated methods would have them (``FPGADevice.info`` takes no part)."""
    from repro.explore.space import DesignPoint
    from repro.substrate import DEVICES

    devices = list(DEVICES.values())
    instances = devices + [replace(devices[0], info={"board": "other"}),
                           replace(devices[0], fmax_mhz=123.0)]
    instances += [DesignPoint("sor", lanes, (8, 8, 8), 10, clock_mhz=clock, device=device)
                  for lanes in (1, 2) for clock in (None, 150.0) for device in devices]
    for a in instances:
        names = [f.name for f in fields(a) if (f.compare if f.hash is None else f.hash)]
        assert hash(a) == hash(tuple(getattr(a, n) for n in names))
        for b in instances:
            if type(a) is type(b):
                key = [f.name for f in fields(a) if f.compare]
                assert (a == b) == ([getattr(a, n) for n in key] == [getattr(b, n) for n in key])
    assert instances[len(devices)] == devices[0] != instances[len(devices) + 1]


def package_classes() -> list[type]:
    """Every class defined in a ``repro`` module."""
    import pkgutil

    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        found += [value for value in vars(module).values()
                  if isinstance(value, type) and value.__module__ == module.__name__]
    return found


def record_classes() -> list[type]:
    return [cls for cls in package_classes() if "__record_fields__" in cls.__dict__]


def test_the_package_imports_no_dataclasses():
    import re

    pattern = re.compile(r"^\s*(import|from)\s+dataclasses\b", re.M)
    sources = sorted(Path(repro.__file__).parent.rglob("*.py"))
    assert sources and not [p for p in sources if pattern.search(p.read_text())]
    assert not [cls for cls in package_classes() if "__dataclass_fields__" in cls.__dict__]


def test_every_hand_written_init_matches_its_field_list():
    """Parameters in field order, each with its field's default (``None``
    standing in for a factory): what the generated ``__init__`` takes."""
    checked = 0
    for cls in record_classes():
        if not written_in_body(cls, "__init__"):
            continue
        checked += 1
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        expected = [f for f in fields(cls) if f.init]
        assert [p.name for p in params] == [f.name for f in expected], cls
        for p, f in zip(params, expected):
            default = None if f.default_factory is not repro._MISSING else f.default
            if default is repro._MISSING:
                assert p.default is inspect.Parameter.empty, (cls, p.name)
            else:
                assert repr(p.default) == repr(default), (cls, p.name)
    assert checked >= len(HOT_INIT)


def test_hot_instances_match_the_generated_init():
    """A hand-written ``__init__`` leaves the same instance dict, key for
    key in order, as the generated one given the same arguments."""
    from repro.compiler import EstimationPipeline
    from repro.compiler.codegen.testbench import select_leaf_function
    from repro.compiler.codegen.verilog import VerilogGenerator
    from repro.explore.space import DesignSpace, build_jobs
    from repro.flows.netlist import _StepCompiler, elaborate
    from repro.flows.verilog import parse_module_text
    from repro.kernels import get_kernel
    from repro.suite import SuiteConfig, WorkloadSuite

    run = WorkloadSuite(SuiteConfig.tiny(kernels=("sor",))).run()
    job = build_jobs(DesignSpace(get_kernel("sor"), grid=(8, 8, 8), max_lanes=2))[-1]
    pipeline = EstimationPipeline(job.resolved_options())
    pipeline.cost(job.module, job.workload)
    module = get_kernel("sor").build_module(lanes=2, grid=(8, 8, 8))
    source = VerilogGenerator(module).generate_kernel(select_leaf_function(module, None))
    netlist = elaborate(parse_module_text(source))
    compiler = _StepCompiler(netlist)
    shift_loops = [compiler._shift_loop(stmt) for process in netlist.processes
                   for stmt in process.statements if stmt[0] == "for"]
    roots = [run.sweep.entries, job, pipeline.group(job.module, job.workload),
             parse_module_text(source), shift_loops, module]
    seen: dict[type, object] = {}
    stack, visited = list(roots), set()
    while stack:
        obj = stack.pop()
        if id(obj) in visited:
            continue
        visited.add(id(obj))
        if isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(type(obj), "__record_fields__"):
            seen.setdefault(type(obj), obj)
            stack.extend(vars(obj).values())
        elif hasattr(obj, "__dict__") and type(obj).__module__.startswith("repro."):
            stack.extend(vars(obj).values())
    hot = {resolve(path) for path in HOT_INIT}
    assert hot <= set(seen), sorted(c.__name__ for c in hot - set(seen))
    for cls, obj in seen.items():
        if cls not in hot:
            continue
        kwargs = {f.name: getattr(obj, f.name) for f in fields(cls) if f.init}
        written = cls(**kwargs)
        generated = object.__new__(cls)
        repro._init(cls, fields(cls), True)(generated, **kwargs)
        assert list(vars(written)) == list(vars(generated)), cls
        assert all(vars(written)[k] is vars(generated)[k] for k in vars(written)), cls
