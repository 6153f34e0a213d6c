"""A parser for the synthesizeable Verilog subset our generator emits.

The flow-orchestration subsystem closes the loop from generated HDL back
to the cost model *without* requiring an external simulator, which means
it must read the Verilog text the same way a tool would — elaborating the
:class:`~repro.compiler.codegen.verilog.VerilogGenerator` output from its
emitted source, not from the in-memory IR it was generated from.  A
codegen bug (a wrong operator, a missing delay stage, an undeclared wire)
is therefore visible to the flows, exactly as it would be to iverilog.

The grammar is the structural subset the generator produces:

* ``module``/``endmodule`` with an ANSI port list;
* ``wire``/``reg`` declarations, one-dimensional ``reg`` arrays,
  ``integer`` loop variables;
* continuous assignments (``assign x = e;`` and ``wire [..] x = e;``);
* ``always @(posedge clk)`` processes containing non-blocking
  assignments, ``if``/``else``, ``begin``/``end`` blocks and the
  shift-register ``for`` loop idiom;
* module instantiations with named port connections (parsed structurally;
  hierarchical simulation is out of scope for the pure-Python backend);
* expressions over identifiers, sized/unsized literals, bit- and
  part-selects, array indexing, concatenation, the usual operators,
  ``?:`` and ``$signed``.

Anything outside the subset raises :class:`VerilogParseError` with the
offending line — a loud failure, never a silent mis-simulation.
"""

from __future__ import annotations

import re

from repro import field, record

__all__ = [
    "VerilogParseError",
    "Expr",
    "Statement",
    "PortDecl",
    "NetDecl",
    "ArrayDecl",
    "ContinuousAssign",
    "AlwaysBlock",
    "Instance",
    "VerilogModule",
    "parse_modules",
    "parse_module_text",
]


class VerilogParseError(ValueError):
    """The source stepped outside the supported structural subset."""


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------

#: one token after any blanks on its line; the groups are, in order, a
#: line break with the whitespace after it, an identifier, an operator, a
#: sized literal, a number and (the only other way a non-blank character
#: can match) an untokenizable character
_TOKEN_RE = re.compile(
    r"""[^\S\n]*(?:
      (\n\s*)
    | (\$?[A-Za-z_][A-Za-z_0-9$]*)
    | (<<<?|>>>?|[<>=!]=|&&|\|\||[-+*/%&|^~!<>=?:,;()\[\]{}.#@])
    | (\d+\s*'\s*[bdhBDH]\s*[0-9a-fA-F_xXzZ]+)
    | (\d+\.\d+|\d+)
    | (\S)
    )""",
    re.VERBOSE,
)

_COMMENT_LINE = re.compile(r"//[^\n]*")
_COMMENT_BLOCK = re.compile(r"/\*.*?\*/", re.DOTALL)


#: tokens are ``(kind, text, line)`` tuples, kind one of ``'sized'``,
#: ``'number'``, ``'ident'``, ``'op'`` or ``'eof'`` (the one sentinel
#: :func:`tokenize` appends, whose text is empty)
Token = tuple


def tokenize(source: str) -> list[Token]:
    text = _COMMENT_BLOCK.sub(lambda m: re.sub(r"[^\n]", " ", m.group()), source)
    text = _COMMENT_LINE.sub("", text)
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    for newline, ident, op, sized, number, bad in _TOKEN_RE.findall(text):
        if ident:
            append(("ident", ident, line))
        elif op:
            append(("op", op, line))
        elif newline:
            line += newline.count("\n")
        elif sized:
            append(("sized", sized, line))
        elif number:
            append(("number", number, line))
        else:
            pos = next(m.start(6) for m in _TOKEN_RE.finditer(text) if m.group(6))
            snippet = text[pos : pos + 20].splitlines()[0]
            raise VerilogParseError(f"line {line}: cannot tokenize at {snippet!r}")
    append(("eof", "", line))
    return tokens


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------

#: expressions are nested tuples:
#:   ("const", value, width | None)
#:   ("id", name)
#:   ("index", name, index_expr)            array element / bit select
#:   ("slice", name, msb, lsb)              constant part select
#:   ("concat", [exprs...])
#:   ("unary", op, expr)
#:   ("binary", op, left, right)
#:   ("ternary", cond, then, else)
#:   ("signed", expr)
#:   ("call", name, [exprs...])
Expr = tuple

#: statements are nested tuples:
#:   ("nba", target_expr, rhs)              non-blocking assignment
#:   ("blocking", name, rhs)                loop-variable assignment
#:   ("if", cond, then_stmts, else_stmts)
#:   ("for", init_stmt, cond, update_stmt, body_stmts)
Statement = tuple


@record(frozen=True)
class PortDecl:
    direction: str  # 'input' | 'output'
    net_kind: str   # 'wire' | 'reg'
    width: int
    name: str

    def __init__(self, direction, net_kind, width, name) -> None:
        put = object.__setattr__
        put(self, "direction", direction)
        put(self, "net_kind", net_kind)
        put(self, "width", width)
        put(self, "name", name)


@record(frozen=True)
class NetDecl:
    net_kind: str   # 'wire' | 'reg' | 'integer'
    width: int
    name: str

    def __init__(self, net_kind, width, name) -> None:
        put = object.__setattr__
        put(self, "net_kind", net_kind)
        put(self, "width", width)
        put(self, "name", name)


@record(frozen=True)
class ArrayDecl:
    width: int
    name: str
    size: int

    def __init__(self, width, name, size) -> None:
        put = object.__setattr__
        put(self, "width", width)
        put(self, "name", name)
        put(self, "size", size)


@record(frozen=True)
class ContinuousAssign:
    target: str
    expr: Expr
    line: int

    def __init__(self, target, expr, line) -> None:
        put = object.__setattr__
        put(self, "target", target)
        put(self, "expr", expr)
        put(self, "line", line)


@record(frozen=True)
class AlwaysBlock:
    statements: tuple
    line: int

    def __init__(self, statements, line) -> None:
        put = object.__setattr__
        put(self, "statements", statements)
        put(self, "line", line)


@record(frozen=True)
class Instance:
    module: str
    name: str
    connections: tuple  # of (port, Expr)
    line: int


@record
class VerilogModule:
    name: str
    ports: list[PortDecl] = field(default_factory=list)
    #: declarations, assigns, always blocks and instances in source order
    items: list = field(default_factory=list)

    @property
    def arrays(self) -> dict[str, ArrayDecl]:
        return {d.name: d for d in self.items if isinstance(d, ArrayDecl)}

    @property
    def assigns(self) -> list[ContinuousAssign]:
        return [d for d in self.items if isinstance(d, ContinuousAssign)]

    @property
    def always_blocks(self) -> list[AlwaysBlock]:
        return [d for d in self.items if isinstance(d, AlwaysBlock)]

    @property
    def instances(self) -> list[Instance]:
        return [d for d in self.items if isinstance(d, Instance)]

    def port(self, name: str) -> PortDecl | None:
        for port in self.ports:
            if port.name == name:
                return port
        return None

    def inputs(self) -> list[PortDecl]:
        return [p for p in self.ports if p.direction == "input"]

    def outputs(self) -> list[PortDecl]:
        return [p for p in self.ports if p.direction == "output"]


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


#: binding level of every binary operator, loosest first; operators of one
#: level associate to the left
_BINARY_LEVELS = {
    op: level
    for level, ops in enumerate((
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>", ">>>"),
        ("+", "-"),
        ("*", "/", "%"),
    ))
    for op in ops
}

_UNARY = ("~", "-", "!")


class _Parser:
    def __init__(self, tokens: list[Token]):
        #: ends with the ``'eof'`` sentinel, which no parse step consumes
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing -------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token[0] == "eof":
            raise VerilogParseError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.tokens[self.pos]
        if token[1] == text:  # the sentinel's empty text matches nothing
            self.pos += 1
            return token
        self.next()
        raise VerilogParseError(
            f"line {token[2]}: expected {text!r}, got {token[1]!r}")

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def expect_ident(self) -> Token:
        token = self.next()
        if token[0] != "ident":
            raise VerilogParseError(
                f"line {token[2]}: expected identifier, got {token[1]!r}")
        return token

    # -- structure ------------------------------------------------------
    def parse_modules(self) -> list[VerilogModule]:
        modules = []
        while self.peek()[0] != "eof":
            modules.append(self.parse_module())
        return modules

    def parse_module(self) -> VerilogModule:
        self.expect("module")
        name = self.expect_ident()[1]
        module = VerilogModule(name=name)
        self.expect("(")
        if not self.accept(")"):
            while True:
                module.ports.append(self._parse_port())
                if self.accept(")"):
                    break
                self.expect(",")
        self.expect(";")
        while not self.accept("endmodule"):
            self._parse_item(module)
        return module

    def _parse_range(self) -> int:
        """``[msb:lsb]`` -> width; absent range -> width 1."""
        if not self.accept("["):
            return 1
        msb = self._parse_const_int()
        self.expect(":")
        lsb = self._parse_const_int()
        self.expect("]")
        if lsb != 0:
            raise VerilogParseError(f"only [msb:0] ranges supported, got [{msb}:{lsb}]")
        return msb + 1

    def _parse_const_int(self) -> int:
        kind, text, line = self.next()
        if kind == "number" and "." not in text:
            return int(text)
        if kind == "sized":
            return _sized_value(text, line)[0]
        raise VerilogParseError(f"line {line}: expected constant, got {text!r}")

    def _parse_port(self) -> PortDecl:
        _, direction, line = self.next()
        if direction not in ("input", "output"):
            raise VerilogParseError(
                f"line {line}: expected port direction, got {direction!r}")
        net_kind = "wire"
        if self.peek()[1] in ("wire", "reg"):
            net_kind = self.next()[1]
        width = self._parse_range()
        name = self.expect_ident()[1]
        return PortDecl(direction, net_kind, width, name)

    def _parse_item(self, module: VerilogModule) -> None:
        kind, text, line = self.peek()
        if kind == "eof":
            raise VerilogParseError("unexpected end of input inside module")
        if text in ("wire", "reg"):
            self._parse_net_decl(module)
        elif text == "integer":
            self.next()
            name = self.expect_ident()[1]
            module.items.append(NetDecl("integer", 32, name))
            self.expect(";")
        elif text == "assign":
            self.next()
            target = self.expect_ident()[1]
            self.expect("=")
            expr = self._parse_expr()
            self.expect(";")
            module.items.append(ContinuousAssign(target, expr, line))
        elif text == "always":
            self._parse_always(module)
        elif kind == "ident":
            self._parse_instance(module)
        else:
            raise VerilogParseError(
                f"line {line}: unexpected token {text!r} in module body")

    def _parse_net_decl(self, module: VerilogModule) -> None:
        kind = self.next()[1]  # wire | reg
        width = self._parse_range()
        name = self.expect_ident()[1]
        if self.accept("["):  # one-dimensional array: [0:size-1]
            low = self._parse_const_int()
            self.expect(":")
            high = self._parse_const_int()
            self.expect("]")
            self.expect(";")
            if kind != "reg" or low != 0:
                raise VerilogParseError(f"unsupported array declaration for {name!r}")
            module.items.append(ArrayDecl(width, name, high + 1))
            return
        if self.accept("="):  # wire with initialiser = continuous assign
            line = self.peek()[2]
            expr = self._parse_expr()
            self.expect(";")
            module.items.append(NetDecl(kind, width, name))
            module.items.append(ContinuousAssign(name, expr, line))
            return
        self.expect(";")
        module.items.append(NetDecl(kind, width, name))

    def _parse_always(self, module: VerilogModule) -> None:
        line = self.expect("always")[2]
        self.expect("@")
        self.expect("(")
        _, edge, edge_line = self.next()
        if edge != "posedge":
            raise VerilogParseError(
                f"line {edge_line}: only posedge-clocked processes supported")
        clock = self.expect_ident()[1]
        if clock != "clk":
            raise VerilogParseError(f"line {edge_line}: unexpected clock {clock!r}")
        self.expect(")")
        statements = self._parse_statement_or_block()
        module.items.append(AlwaysBlock(tuple(statements), line))

    def _parse_instance(self, module: VerilogModule) -> None:
        _, mod_name, line = self.expect_ident()
        inst_name = self.expect_ident()[1]
        self.expect("(")
        connections = []
        if not self.accept(")"):
            while True:
                self.expect(".")
                port = self.expect_ident()[1]
                self.expect("(")
                expr = self._parse_expr()
                self.expect(")")
                connections.append((port, expr))
                if self.accept(")"):
                    break
                self.expect(",")
        self.expect(";")
        module.items.append(Instance(mod_name, inst_name, tuple(connections), line))

    # -- statements -----------------------------------------------------
    def _parse_statement_or_block(self) -> list[Statement]:
        if self.accept("begin"):
            statements = []
            while not self.accept("end"):
                statements.extend(self._parse_statement())
            return statements
        return self._parse_statement()

    def _parse_statement(self) -> list[Statement]:
        kind, text, _ = self.peek()
        if kind == "eof":
            raise VerilogParseError("unexpected end of input in statement")
        if text == "begin":
            return self._parse_statement_or_block()
        if text == "if":
            self.next()
            self.expect("(")
            cond = self._parse_expr()
            self.expect(")")
            then_stmts = self._parse_statement_or_block()
            else_stmts: list[Statement] = []
            if self.accept("else"):
                else_stmts = self._parse_statement_or_block()
            return [("if", cond, tuple(then_stmts), tuple(else_stmts))]
        if text == "for":
            self.next()
            self.expect("(")
            init = self._parse_blocking()
            self.expect(";")
            cond = self._parse_expr()
            self.expect(";")
            update = self._parse_blocking()
            self.expect(")")
            body = self._parse_statement_or_block()
            return [("for", init, cond, update, tuple(body))]
        # assignment: lvalue <= expr ;   or   lvalue = expr ;
        target = self._parse_lvalue()
        _, op, line = self.next()
        if op == "<=":
            rhs = self._parse_expr()
            self.expect(";")
            return [("nba", target, rhs)]
        if op == "=":
            if target[0] != "id":
                raise VerilogParseError(
                    f"line {line}: blocking assignment to non-scalar target")
            rhs = self._parse_expr()
            self.expect(";")
            return [("blocking", target[1], rhs)]
        raise VerilogParseError(
            f"line {line}: expected assignment operator, got {op!r}")

    def _parse_blocking(self) -> Statement:
        name = self.expect_ident()[1]
        self.expect("=")
        return ("blocking", name, self._parse_expr())

    def _parse_lvalue(self) -> Expr:
        name = self.expect_ident()[1]
        if self.accept("["):
            index = self._parse_expr()
            self.expect("]")
            return ("index", name, index)
        return ("id", name)

    # -- expressions ----------------------------------------------------
    def _parse_expr(self) -> Expr:
        cond = self._parse_binary(0)
        if self.tokens[self.pos][1] == "?":
            self.pos += 1
            then = self._parse_expr()
            self.expect(":")
            return ("ternary", cond, then, self._parse_expr())
        return cond

    def _parse_binary(self, min_level: int) -> Expr:
        """Precedence climbing: operands joined by the operators that bind
        at ``min_level`` or tighter, each level left-associative."""
        tokens = self.tokens
        expr = self._parse_primary()
        while True:
            op = tokens[self.pos][1]
            level = _BINARY_LEVELS.get(op, -1)
            if level < min_level:
                return expr
            self.pos += 1
            expr = ("binary", op, expr, self._parse_binary(level + 1))

    def _parse_primary(self) -> Expr:
        """One operand, or a unary operator applied to one."""
        kind, text, line = self.next()
        if kind == "ident":
            if text == "$signed":
                self.expect("(")
                inner = self._parse_expr()
                self.expect(")")
                return ("signed", inner)
            follow = self.tokens[self.pos][1]
            if follow == "(":
                self.pos += 1
                args = []
                if not self.accept(")"):
                    args.append(self._parse_expr())
                    while self.accept(","):
                        args.append(self._parse_expr())
                    self.expect(")")
                return ("call", text, args)
            if follow == "[":
                self.pos += 1
                first = self._parse_expr()
                if self.accept(":"):
                    second = self._parse_expr()
                    self.expect("]")
                    msb = _require_const(first, line)
                    lsb = _require_const(second, line)
                    return ("slice", text, msb, lsb)
                self.expect("]")
                return ("index", text, first)
            return ("id", text)
        if kind == "sized":
            value, width = _sized_value(text, line)
            return ("const", value, width)
        if kind == "number":
            if "." in text:
                raise VerilogParseError(
                    f"line {line}: real literals are not synthesizeable")
            return ("const", int(text), None)
        if text == "(":
            expr = self._parse_expr()
            self.expect(")")
            return expr
        if text == "{":
            parts = [self._parse_expr()]
            while self.accept(","):
                parts.append(self._parse_expr())
            self.expect("}")
            return ("concat", parts)
        if text in _UNARY:
            return ("unary", text, self._parse_primary())
        raise VerilogParseError(
            f"line {line}: unexpected token {text!r} in expression")


def _require_const(expr: Expr, line: int) -> int:
    if expr[0] != "const":
        raise VerilogParseError(f"line {line}: part-select bounds must be constant")
    return expr[1]


_RADIX = {"b": 2, "d": 10, "h": 16}


def _sized_value(text: str, line: int) -> tuple[int, int]:
    """(value, width) of a sized literal such as ``8'hff``."""
    width_text, rest = text.replace(" ", "").replace("_", "").split("'", 1)
    base, digits = rest[0].lower(), rest[1:]
    if any(c in "xXzZ" for c in digits):
        raise VerilogParseError(
            f"line {line}: x/z literals are not supported ({text!r})")
    try:
        return int(digits, _RADIX[base]), int(width_text)
    except ValueError:
        raise VerilogParseError(
            f"line {line}: malformed sized literal {text!r}") from None


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def parse_modules(source: str) -> list[VerilogModule]:
    """Parse Verilog source into the modules it defines."""
    parser = _Parser(tokenize(source))
    try:
        return parser.parse_modules()
    except RecursionError:
        raise VerilogParseError(
            f"line {parser.peek()[2]}: nested too deeply to parse") from None


def parse_module_text(source: str, name: str | None = None) -> VerilogModule:
    """Parse source and return one module (by name, or the only one)."""
    modules = parse_modules(source)
    if not modules:
        raise VerilogParseError("source defines no module")
    if name is None:
        if len(modules) > 1:
            raise VerilogParseError(
                f"source defines {len(modules)} modules; pass a name")
        return modules[0]
    for module in modules:
        if module.name == name:
            return module
    raise VerilogParseError(
        f"no module named {name!r}; found {[m.name for m in modules]}")
