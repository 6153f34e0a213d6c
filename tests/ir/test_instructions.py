"""Tests for SSA statements and the opcode registry."""

import pytest

from repro.ir import (
    OPCODES,
    CallInstruction,
    Instruction,
    IRTypeError,
    OffsetInstruction,
    Operand,
    ScalarType,
    opcode_info,
)
from repro.ir.instructions import OperandKind

UI18 = ScalarType.uint(18)


class TestOperand:
    def test_ssa(self):
        op = Operand.ssa("%x")
        assert op.kind is OperandKind.SSA
        assert op.name == "x"
        assert str(op) == "%x"
        assert op.is_ssa and not op.is_const and not op.is_global

    def test_global(self):
        op = Operand.global_("@acc")
        assert op.is_global
        assert op.name == "acc"
        assert str(op) == "@acc"

    def test_const(self):
        op = Operand.const(42)
        assert op.is_const
        assert op.value == 42

    def test_named_requires_name(self):
        with pytest.raises(IRTypeError):
            Operand(OperandKind.SSA)

    def test_const_requires_value(self):
        with pytest.raises(IRTypeError):
            Operand(OperandKind.CONST)


class TestOpcodeRegistry:
    def test_known_opcodes_present(self):
        for name in ["add", "sub", "mul", "div", "fadd", "fmul", "icmp", "select", "shl"]:
            assert name in OPCODES

    def test_categories(self):
        assert OPCODES["mul"].category == "mul"
        assert OPCODES["div"].category == "div"
        assert OPCODES["add"].category == "add"
        assert OPCODES["shl"].category == "shift"

    def test_dsp_eligibility(self):
        assert OPCODES["mul"].dsp_eligible
        assert OPCODES["fmul"].dsp_eligible
        assert not OPCODES["add"].dsp_eligible
        assert not OPCODES["div"].dsp_eligible

    def test_latencies_positive(self):
        for info in OPCODES.values():
            assert info.latency >= 0

    def test_select_is_ternary(self):
        assert OPCODES["select"].arity == 3

    def test_unknown_opcode(self):
        with pytest.raises(IRTypeError):
            opcode_info("frobnicate")


class TestInstruction:
    def test_basic(self):
        inst = Instruction("1", UI18, "mul", [Operand.ssa("a"), Operand.ssa("b")])
        assert inst.result == "1"
        assert inst.info.category == "mul"
        assert inst.input_names == ["a", "b"]
        assert not inst.is_reduction
        assert inst.uses("a") and not inst.uses("z")

    def test_strips_sigils(self):
        inst = Instruction("%x", UI18, "add", [Operand.ssa("a"), Operand.const(1)])
        assert inst.result == "x"

    def test_reduction_flag(self):
        inst = Instruction(
            "acc", UI18, "add", [Operand.ssa("x"), Operand.global_("acc")],
            result_is_global=True,
        )
        assert inst.is_reduction
        assert "@acc" in str(inst)

    def test_constant_operands(self):
        inst = Instruction("1", UI18, "mul", [Operand.ssa("a"), Operand.const(3)])
        assert len(inst.constant_operands) == 1
        assert inst.input_names == ["a"]

    def test_unknown_opcode_rejected(self):
        with pytest.raises(IRTypeError):
            Instruction("1", UI18, "bogus", [Operand.ssa("a"), Operand.ssa("b")])


class TestOffsetInstruction:
    def test_integer_offset(self):
        off = OffsetInstruction("pip1", UI18, "p", +1)
        assert not off.is_symbolic
        assert off.resolved({}) == 1
        assert "!offset" in str(off)
        assert "+1" in str(off)

    def test_negative_offset(self):
        off = OffsetInstruction("pkn1", UI18, "p", -576)
        assert off.resolved({}) == -576

    def test_symbolic_offset(self):
        off = OffsetInstruction("pkn1", UI18, "p", "-ND1*ND2")
        assert off.is_symbolic
        assert off.resolved({"ND1": 24, "ND2": 24}) == -576

    def test_symbolic_offset_unknown_symbol(self):
        off = OffsetInstruction("x", UI18, "p", "-FOO*2")
        with pytest.raises(IRTypeError):
            off.resolved({"ND1": 24})

    def test_symbolic_offset_rejects_bad_chars(self):
        off = OffsetInstruction("x", UI18, "p", "__import__('os')")
        with pytest.raises(IRTypeError):
            off.resolved({})

    def test_symbolic_offset_rejects_non_integer(self):
        off = OffsetInstruction("x", UI18, "p", "ND1-ND1-(1)*(1)")
        assert off.resolved({"ND1": 5}) == -1


class TestModuleResolveOffset:
    """``Module.resolve_offset`` keeps each symbolic offset's value per
    value of the module's constants."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        from repro.ir import instructions

        calls = []
        evaluate = instructions._eval_offset_expression

        def counted(expr, constants):
            calls.append(expr)
            return evaluate(expr, constants)

        monkeypatch.setattr(instructions, "_eval_offset_expression", counted)
        return calls

    @staticmethod
    def module():
        from repro.ir import Module

        return Module(constants={"ND1": 24, "ND2": 24})

    def test_a_symbolic_offset_is_evaluated_once(self, evaluations):
        module = self.module()
        assert [module.resolve_offset("-ND1*ND2") for _ in range(3)] == [-576] * 3
        assert module.resolve_offset("ND1+1") == 25
        assert module.resolve_offset(-3) == -3
        assert evaluations == ["-ND1*ND2", "ND1+1"]

    def test_a_change_to_the_constants_drops_the_kept_values(self, evaluations):
        module = self.module()
        assert module.resolve_offset("-ND1*ND2") == -576
        module.set_constant("ND2", 10)
        assert module.resolve_offset("-ND1*ND2") == -240
        module.constants["ND1"] = 2          # mutated in place
        assert module.resolve_offset("-ND1*ND2") == -20
        module.constants = {"ND1": 3, "ND2": 3}   # replaced
        assert module.resolve_offset("-ND1*ND2") == -9
        assert module.resolve_offset("-ND1*ND2") == -9
        assert len(evaluations) == 4

    @pytest.mark.parametrize("expr", ["-FOO*2", "ND1;ND2", "__import__('os')"])
    def test_a_bad_offset_raises_every_time(self, expr):
        module = self.module()
        assert module.resolve_offset("-ND1") == -24
        for _ in range(2):
            with pytest.raises(IRTypeError):
                module.resolve_offset(expr)

    def test_an_unknown_name_resolves_once_it_is_defined(self):
        module = self.module()
        with pytest.raises(IRTypeError):
            module.resolve_offset("-FOO*2")
        module.set_constant("FOO", 1)
        assert module.resolve_offset("-FOO*2") == -2


class TestComparePredicates:
    def test_predicate_accepted_on_icmp(self):
        instr = Instruction("c", UI18, "icmp",
                            [Operand.ssa("a"), Operand.ssa("b")], predicate="eq")
        assert instr.qualified_opcode == "icmp.eq"
        assert "icmp.eq" in str(instr)

    def test_no_predicate_prints_bare_opcode(self):
        instr = Instruction("c", UI18, "icmp",
                            [Operand.ssa("a"), Operand.ssa("b")])
        assert instr.qualified_opcode == "icmp"

    def test_unknown_predicate_rejected(self):
        import pytest

        from repro.ir.errors import IRTypeError

        with pytest.raises(IRTypeError):
            Instruction("c", UI18, "icmp",
                        [Operand.ssa("a"), Operand.ssa("b")], predicate="weird")

    def test_predicate_on_non_compare_rejected(self):
        import pytest

        from repro.ir.errors import IRTypeError

        with pytest.raises(IRTypeError):
            Instruction("c", UI18, "add",
                        [Operand.ssa("a"), Operand.ssa("b")], predicate="eq")

    def test_predicate_round_trips_through_text(self):
        from repro.ir.parser import parse_module
        from repro.ir.printer import print_module
        from repro.ir.builder import IRBuilder

        b = IRBuilder("pred")
        f = b.function("f0", kind="pipe", args=[(UI18, "a"), (UI18, "b")])
        f.icmp(UI18, f.arg("a"), f.arg("b"), predicate="sge", result="c")
        main = b.function("main", kind="none")
        main.call("f0", ["a", "b"], kind="pipe")
        module = b.build()
        text = print_module(module)
        assert "icmp.sge" in text
        reparsed = parse_module(text)
        instr = reparsed.get_function("f0").instructions()[0]
        assert instr.opcode == "icmp" and instr.predicate == "sge"
        assert print_module(reparsed) == text

    def test_fingerprint_distinguishes_predicates(self):
        from repro.ir.builder import IRBuilder

        def build(predicate):
            b = IRBuilder("pred")
            f = b.function("f0", kind="pipe", args=[(UI18, "a"), (UI18, "b")])
            f.icmp(UI18, f.arg("a"), f.arg("b"), predicate=predicate, result="c")
            main = b.function("main", kind="none")
            main.call("f0", ["a", "b"], kind="pipe")
            return b.build()

        assert build("eq").content_fingerprint() != build("ne").content_fingerprint()


class TestCallInstruction:
    def test_basic(self):
        call = CallInstruction("@f0", ["%p", "%rhs"], kind="pipe")
        assert call.callee == "f0"
        assert call.args == ["p", "rhs"]
        assert "pipe" in str(call)

    def test_no_kind(self):
        call = CallInstruction("f0", [])
        assert call.kind is None
        assert str(call) == "call @f0()"
