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

_TOKEN_RE = re.compile(
    r"""
      (?P<sized>\d+\s*'\s*[bdhBDH]\s*[0-9a-fA-F_xXzZ]+)
    | (?P<number>\d+\.\d+|\d+)
    | (?P<ident>\$?[A-Za-z_][A-Za-z_0-9$]*)
    | (?P<op><<<|>>>|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^~!<>=?:,;()\[\]{}.#@])
    | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_COMMENT_LINE = re.compile(r"//[^\n]*")
_COMMENT_BLOCK = re.compile(r"/\*.*?\*/", re.DOTALL)


@record(frozen=True)
class Token:
    kind: str  # 'sized' | 'number' | 'ident' | 'op'
    text: str
    line: int

    def __init__(self, kind, text, line) -> None:
        put = object.__setattr__
        put(self, "kind", kind)
        put(self, "text", text)
        put(self, "line", line)


def tokenize(source: str) -> list[Token]:
    text = _COMMENT_BLOCK.sub(lambda m: re.sub(r"[^\n]", " ", m.group()), source)
    text = _COMMENT_LINE.sub("", text)
    tokens: list[Token] = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            snippet = text[pos : pos + 20].splitlines()[0]
            raise VerilogParseError(f"line {line}: cannot tokenize at {snippet!r}")
        pos = m.end()
        kind = m.lastgroup
        value = m.group()
        if kind == "ws":
            line += value.count("\n")
            continue
        tokens.append(Token(kind, value, line))
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
    def nets(self) -> dict[str, NetDecl]:
        return {d.name: d for d in self.items if isinstance(d, NetDecl)}

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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing -------------------------------------------------
    def peek(self, ahead: int = 0) -> Token | None:
        index = self.pos + ahead
        return self.tokens[index] if index < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise VerilogParseError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.next()
        if token.text != text:
            raise VerilogParseError(
                f"line {token.line}: expected {text!r}, got {token.text!r}")
        return token

    def accept(self, text: str) -> bool:
        token = self.peek()
        if token is not None and token.text == text:
            self.pos += 1
            return True
        return False

    def expect_ident(self) -> Token:
        token = self.next()
        if token.kind != "ident":
            raise VerilogParseError(
                f"line {token.line}: expected identifier, got {token.text!r}")
        return token

    # -- structure ------------------------------------------------------
    def parse_modules(self) -> list[VerilogModule]:
        modules = []
        while self.peek() is not None:
            token = self.peek()
            if token.text == "`define":  # pragma: no cover - defensive
                raise VerilogParseError(f"line {token.line}: unexpected directive")
            modules.append(self.parse_module())
        return modules

    def parse_module(self) -> VerilogModule:
        self.expect("module")
        name = self.expect_ident().text
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
        token = self.next()
        if token.kind == "number":
            return int(token.text)
        if token.kind == "sized":
            return _sized_value(token)[0]
        raise VerilogParseError(
            f"line {token.line}: expected constant, got {token.text!r}")

    def _parse_port(self) -> PortDecl:
        token = self.next()
        if token.text not in ("input", "output"):
            raise VerilogParseError(
                f"line {token.line}: expected port direction, got {token.text!r}")
        direction = token.text
        net_kind = "wire"
        if self.peek() is not None and self.peek().text in ("wire", "reg"):
            net_kind = self.next().text
        width = self._parse_range()
        name = self.expect_ident().text
        return PortDecl(direction, net_kind, width, name)

    def _parse_item(self, module: VerilogModule) -> None:
        token = self.peek()
        if token is None:
            raise VerilogParseError("unexpected end of input inside module")
        if token.text in ("wire", "reg"):
            self._parse_net_decl(module)
        elif token.text == "integer":
            self.next()
            name = self.expect_ident().text
            module.items.append(NetDecl("integer", 32, name))
            self.expect(";")
        elif token.text == "assign":
            line = self.next().line
            target = self.expect_ident().text
            self.expect("=")
            expr = self._parse_expr()
            self.expect(";")
            module.items.append(ContinuousAssign(target, expr, line))
        elif token.text == "always":
            self._parse_always(module)
        elif token.kind == "ident":
            self._parse_instance(module)
        else:
            raise VerilogParseError(
                f"line {token.line}: unexpected token {token.text!r} in module body")

    def _parse_net_decl(self, module: VerilogModule) -> None:
        kind = self.next().text  # wire | reg
        width = self._parse_range()
        name = self.expect_ident().text
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
            line = self.peek().line if self.peek() else 0
            expr = self._parse_expr()
            self.expect(";")
            module.items.append(NetDecl(kind, width, name))
            module.items.append(ContinuousAssign(name, expr, line))
            return
        self.expect(";")
        module.items.append(NetDecl(kind, width, name))

    def _parse_always(self, module: VerilogModule) -> None:
        line = self.expect("always").line
        self.expect("@")
        self.expect("(")
        edge = self.next()
        if edge.text != "posedge":
            raise VerilogParseError(
                f"line {edge.line}: only posedge-clocked processes supported")
        clock = self.expect_ident().text
        if clock != "clk":
            raise VerilogParseError(f"line {edge.line}: unexpected clock {clock!r}")
        self.expect(")")
        statements = self._parse_statement_or_block()
        module.items.append(AlwaysBlock(tuple(statements), line))

    def _parse_instance(self, module: VerilogModule) -> None:
        mod_token = self.expect_ident()
        inst_name = self.expect_ident().text
        self.expect("(")
        connections = []
        if not self.accept(")"):
            while True:
                self.expect(".")
                port = self.expect_ident().text
                self.expect("(")
                expr = self._parse_expr()
                self.expect(")")
                connections.append((port, expr))
                if self.accept(")"):
                    break
                self.expect(",")
        self.expect(";")
        module.items.append(
            Instance(mod_token.text, inst_name, tuple(connections), mod_token.line))

    # -- statements -----------------------------------------------------
    def _parse_statement_or_block(self) -> list[Statement]:
        if self.accept("begin"):
            statements = []
            while not self.accept("end"):
                statements.extend(self._parse_statement())
            return statements
        return self._parse_statement()

    def _parse_statement(self) -> list[Statement]:
        token = self.peek()
        if token is None:
            raise VerilogParseError("unexpected end of input in statement")
        if token.text == "begin":
            return self._parse_statement_or_block()
        if token.text == "if":
            self.next()
            self.expect("(")
            cond = self._parse_expr()
            self.expect(")")
            then_stmts = self._parse_statement_or_block()
            else_stmts: list[Statement] = []
            if self.accept("else"):
                else_stmts = self._parse_statement_or_block()
            return [("if", cond, tuple(then_stmts), tuple(else_stmts))]
        if token.text == "for":
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
        op = self.next()
        if op.text == "<=":
            rhs = self._parse_expr()
            self.expect(";")
            return [("nba", target, rhs)]
        if op.text == "=":
            if target[0] != "id":
                raise VerilogParseError(
                    f"line {op.line}: blocking assignment to non-scalar target")
            rhs = self._parse_expr()
            self.expect(";")
            return [("blocking", target[1], rhs)]
        raise VerilogParseError(
            f"line {op.line}: expected assignment operator, got {op.text!r}")

    def _parse_blocking(self) -> Statement:
        name = self.expect_ident().text
        self.expect("=")
        return ("blocking", name, self._parse_expr())

    def _parse_lvalue(self) -> Expr:
        name = self.expect_ident().text
        if self.accept("["):
            index = self._parse_expr()
            self.expect("]")
            return ("index", name, index)
        return ("id", name)

    # -- expressions ----------------------------------------------------
    def _parse_expr(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(0)
        if self.accept("?"):
            then = self._parse_expr()
            self.expect(":")
            other = self._parse_expr()
            return ("ternary", cond, then, other)
        return cond

    _PRECEDENCE = [
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
    ]

    def _parse_binary(self, level: int) -> Expr:
        if level >= len(self._PRECEDENCE):
            return self._parse_unary()
        expr = self._parse_binary(level + 1)
        ops = self._PRECEDENCE[level]
        while True:
            token = self.peek()
            if token is None or token.text not in ops:
                return expr
            self.next()
            right = self._parse_binary(level + 1)
            expr = ("binary", token.text, expr, right)

    def _parse_unary(self) -> Expr:
        token = self.peek()
        if token is not None and token.text in ("~", "-", "!"):
            self.next()
            return ("unary", token.text, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.next()
        if token.text == "(":
            expr = self._parse_expr()
            self.expect(")")
            return expr
        if token.text == "{":
            parts = [self._parse_expr()]
            while self.accept(","):
                parts.append(self._parse_expr())
            self.expect("}")
            return ("concat", parts)
        if token.kind == "sized":
            value, width = _sized_value(token)
            return ("const", value, width)
        if token.kind == "number":
            if "." in token.text:
                raise VerilogParseError(
                    f"line {token.line}: real literals are not synthesizeable")
            return ("const", int(token.text), None)
        if token.kind == "ident":
            name = token.text
            if name == "$signed":
                self.expect("(")
                inner = self._parse_expr()
                self.expect(")")
                return ("signed", inner)
            if self.peek() is not None and self.peek().text == "(":
                self.next()
                args = []
                if not self.accept(")"):
                    args.append(self._parse_expr())
                    while self.accept(","):
                        args.append(self._parse_expr())
                    self.expect(")")
                return ("call", name, args)
            if self.accept("["):
                first = self._parse_expr()
                if self.accept(":"):
                    second = self._parse_expr()
                    self.expect("]")
                    msb = _require_const(first, token)
                    lsb = _require_const(second, token)
                    return ("slice", name, msb, lsb)
                self.expect("]")
                return ("index", name, first)
            return ("id", name)
        raise VerilogParseError(
            f"line {token.line}: unexpected token {token.text!r} in expression")


def _require_const(expr: Expr, token: Token) -> int:
    if expr[0] != "const":
        raise VerilogParseError(
            f"line {token.line}: part-select bounds must be constant")
    return expr[1]


def _sized_value(token: Token) -> tuple[int, int]:
    text = token.text.replace(" ", "").replace("_", "")
    width_text, rest = text.split("'", 1)
    base, digits = rest[0].lower(), rest[1:]
    if any(c in "xXzZ" for c in digits):
        raise VerilogParseError(
            f"line {token.line}: x/z literals are not supported ({token.text!r})")
    radix = {"b": 2, "d": 10, "h": 16}[base]
    return int(digits, radix), int(width_text)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def parse_modules(source: str) -> list[VerilogModule]:
    """Parse Verilog source into the modules it defines."""
    return _Parser(tokenize(source)).parse_modules()


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
