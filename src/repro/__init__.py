"""repro — a reproduction of the TyTra fast and accurate FPGA cost model.

This package reproduces, in pure Python, the system described in

    S. W. Nabi and W. Vanderbauwhede, "A Fast and Accurate Cost Model for
    FPGA Design Space Exploration in HPC Applications", IPDPSW 2016.

Layering (lower layers never import higher ones)::

    ir <- models <- substrate <- cost <- compiler <- functional <- kernels
       <- explore <- suite <- validate <- flows <- cli

Sub-packages
------------
``repro.ir``
    The TyTra intermediate representation (Manage-IR + Compute-IR).
``repro.models``
    The abstraction models of §III (platform, memory hierarchy, execution,
    design space, memory-execution forms, streaming patterns).
``repro.substrate``
    Simulated hardware substrates standing in for the vendor tools and
    boards used in the paper (synthesiser, DRAM/PCIe simulator, pipeline
    simulator, power model, CPU and HLS baselines).
``repro.cost``
    The paper's contribution: resource, bandwidth and EKIT throughput cost
    models, plus calibration.
``repro.compiler``
    The TyBEC back-end compiler: analysis, scheduling, costing and HDL
    code generation.  Costing runs through the staged, memoizing
    :class:`~repro.compiler.pipeline.EstimationPipeline`.
``repro.functional``
    The functional front end: sized vectors, ``map``/``fold`` programs and
    the ``reshapeTo`` type transformation that generates design variants.
``repro.kernels``
    The scientific-kernel registry (SOR, Hotspot, LavaMD, conv2d,
    Needleman-Wunsch, matmul: golden models + IR lowerings), extensible
    through the ``@register_kernel`` decorator.
``repro.explore``
    Design-space exploration drivers built on the cost model: multi-axis
    design spaces, the batched exploration engine (with dense selection
    and Pareto frontiers) and the exhaustive, fmax and surrogate
    optimizers.
``repro.suite``
    The workload suite: batch costing of every registered kernel,
    canonical version-stamped JSON reports, field-by-field diffing and
    the golden-report regression harness.
``repro.validate``
    Cross-validation of the analytic cost model against the substrate
    simulators: per-point agreement records, suite-level validation
    reports with their own goldens, surfaced as ``tybec suite validate``.
``repro.flows``
    RTL flow orchestration (xeda-style): declarative flows with managed
    run directories, artifact manifests and content-keyed caching over a
    pure-Python RTL backend (Verilog subset parser, structural netlist,
    cycle simulator) plus optional iverilog/verilator/yosys adapters —
    the generated HDL verified against the kernel Python references and
    the pipeline simulator, surfaced as ``tybec flow`` and
    ``tybec suite flow``.

Records
-------
Value classes across the package are declared with :func:`record`, this
package's replacement for ``@dataclasses.dataclass``: annotated fields in
order (base-class fields first), plain defaults and :func:`field` options,
``__post_init__``, ``frozen`` and ``order``, with :func:`replace`,
:func:`fields` and :class:`FrozenInstanceError` beside it.  Its methods are
closures over shared code, so defining a record costs no ``exec``; a
method written in the class body always wins over the generated one.
"""

from operator import attrgetter
from reprlib import recursive_repr

__version__ = "0.1.0"

__all__ = ["__version__", "Field", "FrozenInstanceError", "field", "fields",
           "record", "replace"]

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of a frozen record."""


class Field:
    """One record field: its name, its default and the methods it joins.

    ``hash=None`` means the field is hashed exactly when it is compared.
    """

    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare",
                 "hash")

    def __init__(self, default=_MISSING, default_factory=_MISSING, init=True,
                 repr=True, compare=True, hash=None):
        if default is not _MISSING and default_factory is not _MISSING:
            raise ValueError("cannot specify both default and default_factory")
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare
        self.hash = hash

    def __repr__(self) -> str:
        return f"Field(name={self.name!r})"


def field(*, default=_MISSING, default_factory=_MISSING, init=True, repr=True,
          compare=True, hash=None) -> Field:
    """Per-field options for a :func:`record` (``dataclasses.field``)."""
    return Field(default, default_factory, init, repr, compare, hash)


def fields(class_or_instance) -> tuple[Field, ...]:
    """The fields of a record class or instance, in ``__init__`` order."""
    try:
        return class_or_instance.__record_fields__
    except AttributeError:
        raise TypeError("fields() takes a record class or instance") from None


def replace(obj, /, **changes):
    """A copy of record ``obj`` with ``changes`` applied, built through
    ``__init__`` (so ``__post_init__`` checks run again)."""
    for f in fields(obj):
        if not f.init:
            if f.name in changes:
                raise ValueError(f"field {f.name} is declared with init=False, "
                                 "it cannot be specified with replace()")
        elif f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


def record(cls=None, /, *, frozen: bool = False, order: bool = False):
    """Make ``cls`` a record of its annotated fields.

    Adds ``__init__``, ``__repr__`` and ``__eq__`` (field-tuple
    comparison against the same class), ``__lt__``/``__le__``/
    ``__gt__``/``__ge__`` with ``order``, and with ``frozen`` a
    ``__setattr__``/``__delattr__`` raising :class:`FrozenInstanceError`
    and a field-tuple ``__hash__`` (a mutable record is unhashable).
    ``__init__`` sets one attribute at a time (``object.__setattr__`` when
    frozen), then calls ``__post_init__`` if the class has one.  Classes
    built per design point write their hot methods in their own body.
    """

    def wrap(cls):
        return _make_record(cls, frozen, order)

    return wrap if cls is None else wrap(cls)


def _make_record(cls, frozen: bool, order: bool):
    own = cls.__dict__
    by_name: dict[str, Field] = {}
    for base in cls.__mro__[-1:0:-1]:
        for f in getattr(base, "__record_fields__", ()):
            by_name[f.name] = f
    for name in own.get("__annotations__", {}):
        value = own.get(name, _MISSING)
        if isinstance(value, Field):
            f = value
            if f.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
        else:
            f = Field(value)
        f.name = name
        by_name[name] = f
    all_fields = tuple(by_name.values())
    optional = False
    for f in all_fields:
        if f.init:
            if f.default is _MISSING and f.default_factory is _MISSING:
                if optional:
                    raise TypeError(f"non-default argument {f.name!r} follows "
                                    "default argument")
            else:
                optional = True
    cls.__record_fields__ = all_fields

    _add(cls, "__init__", _init(cls, all_fields, frozen))
    _add(cls, "__repr__",
         recursive_repr()(_repr(tuple(f.name for f in all_fields if f.repr))))
    compared = _key(tuple(f.name for f in all_fields if f.compare))
    _add(cls, "__eq__", _eq(compared))
    if order:
        for name, compare in (("__lt__", tuple.__lt__), ("__le__", tuple.__le__),
                              ("__gt__", tuple.__gt__), ("__ge__", tuple.__ge__)):
            _add(cls, name, _order(compare, compared))
    # the hash rule of dataclasses (eq on, unsafe_hash off): a __hash__
    # written in the body stays; otherwise frozen hashes the hashed fields
    # and mutable is unhashable
    body_hash = own.get("__hash__", _MISSING)
    if body_hash is _MISSING or (body_hash is None and "__eq__" in own):
        if frozen:
            hashed = _key(tuple(f.name for f in all_fields
                                if (f.compare if f.hash is None else f.hash)))
            _add(cls, "__hash__", _hash(hashed), replace=True)
        else:
            cls.__hash__ = None
    if frozen:
        names = frozenset(by_name)
        for method in _frozen(cls, names):
            _add(cls, method.__name__, method)
    return cls


def _add(cls, name: str, method, replace: bool = False) -> None:
    if replace or name not in cls.__dict__:
        method.__name__ = name
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)


def _key(names: tuple[str, ...]):
    """A function from a record to the tuple of its ``names`` values."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _init(cls, all_fields: tuple[Field, ...], frozen: bool):
    params = tuple(f.name for f in all_fields if f.init)
    # an init=False field with a plain default is read from the class
    steps = tuple((f.name, f.init, f.default, f.default_factory) for f in all_fields
                  if f.init or f.default_factory is not _MISSING)
    assign = object.__setattr__ if frozen else setattr
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if args:
            if len(args) > len(params):
                raise TypeError(f"{cls.__qualname__}.__init__() takes "
                                f"{len(params) + 1} positional arguments but "
                                f"{len(args) + 1} were given")
            for name, value in zip(params, args):
                if name in kwargs:
                    raise TypeError(f"{cls.__qualname__}.__init__() got multiple "
                                    f"values for argument {name!r}")
                kwargs[name] = value
        for name, init, default, factory in steps:
            value = kwargs.pop(name, _MISSING) if init else _MISSING
            if value is _MISSING:
                if default is not _MISSING:
                    value = default
                elif factory is not _MISSING:
                    value = factory()
                else:
                    raise TypeError(f"{cls.__qualname__}.__init__() missing "
                                    f"required argument {name!r}")
            assign(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__qualname__}.__init__() got an unexpected "
                            f"keyword argument {next(iter(kwargs))!r}")
        if post_init:
            self.__post_init__()

    return __init__


def _repr(names: tuple[str, ...]):
    def __repr__(self) -> str:
        inner = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({inner})"

    return __repr__


def _eq(key):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    return __eq__


def _order(compare, key):
    def method(self, other):
        if other.__class__ is self.__class__:
            return compare(key(self), key(other))
        return NotImplemented

    return method


def _hash(key):
    def __hash__(self) -> int:
        return hash(key(self))

    return __hash__


def _frozen(cls, names: frozenset[str]):
    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return __setattr__, __delattr__
