"""Two-pass RV32IM assembler.

Stands in for the Codasip Studio SDK that the paper uses to compile
the generated configuration assembly into machine code.  Supports the
subset the bare-metal flow needs, plus enough extras to write the test
programs by hand:

- labels, forward references, ``.equ`` symbols,
- directives: ``.org .align .word .half .byte .space .zero .ascii
  .asciz .equ .set .global .text .data`` (single linear section),
- expressions with ``+ - * ( )``, ``%hi()``/``%lo()`` relocations,
- pseudo-instructions: ``nop li la mv not neg j jr jal(1-arg) ret call
  beqz bnez blez bgez bltz bgtz bgt ble bgtu bleu csrr csrw seqz snez``.

``%lo`` produces the signed low 12 bits and ``%hi`` the matching
corrected upper 20 bits, so ``lui/addi`` pairs compose to the exact
32-bit constant as with GNU as.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from repro.errors import AssemblerError
from repro.riscv import isa
from repro.riscv.isa import CSR_ADDRESSES, Format, REGISTER_ALIASES, SPEC_BY_MNEMONIC
from repro.riscv.program import Program

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*:")
_NUMBER = r"0[xX][0-9a-fA-F]+|0[bB][01]+|\d+"
_TOKEN_RE = re.compile(
    rf"\s*(%hi|%lo|[A-Za-z_.$][\w.$]*|{_NUMBER}|[()+\-*,]|'(?:\\.|[^'])')"
)
_COMMENT_RE = re.compile(r"#|//|;")
# A whole operand that is one (optionally negated) number token.
_LITERAL_RE = re.compile(rf"(-?)({_NUMBER})")
# Mnemonics whose encoding reads the item's own address.
_PC_RELATIVE = frozenset(
    spec.mnemonic for spec in isa.SPECS if spec.fmt in (Format.J, Format.B)
)


def _hi20(value: int) -> int:
    """Upper 20 bits, corrected for the sign of the low 12 (GNU-as rule)."""
    return ((value + 0x800) >> 12) & 0xFFFFF


def _lo12(value: int) -> int:
    """Signed low 12 bits."""
    low = value & 0xFFF
    return low - 0x1000 if low & 0x800 else low


def _number(token: str, line: int) -> int:
    try:
        return int(token, 0)
    except ValueError as exc:  # e.g. "010": int() refuses a leading zero
        raise AssemblerError(f"bad number {token!r}", line) from exc


@dataclass
class _Item:
    """One output element planned during pass 1."""

    kind: str  # 'insn' or 'data'
    address: int
    line: int
    mnemonic: str = ""
    operands: tuple[str, ...] = ()
    data_width: int = 4
    expr: str = ""


class _ExprEvaluator:
    """Tiny recursive-descent evaluator for assembler expressions."""

    def __init__(self, symbols: dict[str, int], line: int) -> None:
        self._symbols = symbols
        self._line = line
        self._tokens: list[str] = []
        self._pos = 0

    def evaluate(self, text: str) -> int:
        literal = _LITERAL_RE.fullmatch(text)
        if literal:  # same number grammar and value, without the tokenizer
            sign, digits = literal.groups()
            value = _number(digits, self._line)
            return -value if sign else value
        self._tokens = self._tokenize(text)
        self._pos = 0
        value = self._expr()
        if self._pos != len(self._tokens):
            raise AssemblerError(f"trailing junk in expression {text!r}", self._line)
        return value

    def _tokenize(self, text: str) -> list[str]:
        tokens: list[str] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if not match:
                raise AssemblerError(f"bad expression near {text[pos:]!r}", self._line)
            tokens.append(match.group(1))
            pos = match.end()
        return tokens

    def _peek(self) -> str | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise AssemblerError("unexpected end of expression", self._line)
        self._pos += 1
        return token

    def _expr(self) -> int:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> int:
        value = self._factor()
        while self._peek() == "*":
            self._next()
            value *= self._factor()
        return value

    def _factor(self) -> int:
        token = self._next()
        if token == "(":
            value = self._expr()
            if self._next() != ")":
                raise AssemblerError("missing ')'", self._line)
            return value
        if token == "-":
            return -self._factor()
        if token == "+":
            return self._factor()
        if token in ("%hi", "%lo"):
            if self._next() != "(":
                raise AssemblerError(f"{token} needs parentheses", self._line)
            value = self._expr()
            if self._next() != ")":
                raise AssemblerError("missing ')'", self._line)
            return _hi20(value) if token == "%hi" else _lo12(value)
        if token.startswith("'"):
            body = token[1:-1]
            unescaped = body.encode().decode("unicode_escape")
            if len(unescaped) != 1:
                raise AssemblerError(f"bad character literal {token}", self._line)
            return ord(unescaped)
        if token[0].isdigit():
            return _number(token, self._line)
        if token in self._symbols:
            return self._symbols[token]
        raise AssemblerError(f"undefined symbol {token!r}", self._line)


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, base: int = 0) -> None:
        self._base = base

    def assemble(self, source: str) -> Program:
        items, symbols, top = self._pass1(source)
        words = self._pass2(items, symbols, top)
        entry = symbols.get("_start", self._base)
        return Program(base=self._base, words=words, symbols=symbols, entry=entry, source=source)

    # ------------------------------------------------------------------
    # Pass 1: size everything, collect symbols.
    # ------------------------------------------------------------------

    def _pass1(self, source: str) -> tuple[list[_Item], dict[str, int], int]:
        address = self._base
        items: list[_Item] = []
        symbols: dict[str, int] = {}
        equ_exprs: dict[str, tuple[str, int]] = {}
        # Instruction text -> its (mnemonic, operands) expansion.
        expansions: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for line_no, raw_line in enumerate(source.splitlines(), start=1):
            line = self._strip_comment(raw_line)
            while ":" in line:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                label = match.group(1)
                if label in symbols:
                    raise AssemblerError(f"duplicate label {label!r}", line_no)
                symbols[label] = address
                line = line[match.end() :].strip()
            if not line:
                continue
            expanded = expansions.get(line)
            if expanded is None:
                parts = line.split(None, 1)
                mnemonic = parts[0].lower()
                rest = parts[1].strip() if len(parts) > 1 else ""
                if mnemonic.startswith("."):
                    address = self._pass1_directive(
                        mnemonic, rest, address, items, symbols, equ_exprs, line_no
                    )
                    continue
                operands = self._split_operands(rest)
                expanded = expansions[line] = [
                    (insn[0], tuple(insn[1:]))
                    for insn in self._expand_pseudo(mnemonic, operands, line_no)
                ]
            for mnemonic, operands in expanded:
                items.append(_Item("insn", address, line_no, mnemonic, operands))
                address += 4
        # Resolve .equ expressions now that all labels are known.
        for name, (expr, line_no) in equ_exprs.items():
            symbols[name] = _ExprEvaluator(symbols, line_no).evaluate(expr)
        return items, symbols, address

    def _pass1_directive(
        self,
        mnemonic: str,
        rest: str,
        address: int,
        items: list[_Item],
        symbols: dict[str, int],
        equ_exprs: dict[str, tuple[str, int]],
        line_no: int,
    ) -> int:
        if mnemonic in (".text", ".data", ".section"):
            return address
        if mnemonic == ".global" or mnemonic == ".globl":
            return address
        if mnemonic == ".org":
            target = _ExprEvaluator(symbols, line_no).evaluate(rest)
            if target < address:
                raise AssemblerError(f".org cannot move backwards (0x{target:x})", line_no)
            while address < target:
                items.append(_Item(kind="data", address=address, line=line_no, data_width=1, expr="0"))
                address += 1
            return address
        if mnemonic == ".align":
            power = _ExprEvaluator(symbols, line_no).evaluate(rest)
            step = 1 << power
            while address % step:
                items.append(_Item(kind="data", address=address, line=line_no, data_width=1, expr="0"))
                address += 1
            return address
        if mnemonic in (".equ", ".set"):
            name, _, expr = rest.partition(",")
            name = name.strip()
            if not name:
                raise AssemblerError(".equ needs a name", line_no)
            equ_exprs[name] = (expr.strip(), line_no)
            return address
        if mnemonic in (".word", ".half", ".byte"):
            width = {".word": 4, ".half": 2, ".byte": 1}[mnemonic]
            for expr in self._split_operands(rest):
                items.append(
                    _Item(kind="data", address=address, line=line_no, data_width=width, expr=expr)
                )
                address += width
            return address
        if mnemonic in (".space", ".zero"):
            count = _ExprEvaluator(symbols, line_no).evaluate(rest)
            for _ in range(count):
                items.append(_Item(kind="data", address=address, line=line_no, data_width=1, expr="0"))
                address += 1
            return address
        if mnemonic in (".ascii", ".asciz"):
            text = rest.strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                raise AssemblerError("string directives need a quoted string", line_no)
            payload = text[1:-1].encode().decode("unicode_escape").encode("latin-1")
            if mnemonic == ".asciz":
                payload += b"\x00"
            for byte in payload:
                items.append(
                    _Item(kind="data", address=address, line=line_no, data_width=1, expr=str(byte))
                )
                address += 1
            return address
        raise AssemblerError(f"unknown directive {mnemonic!r}", line_no)

    @staticmethod
    def _strip_comment(line: str) -> str:
        if '"' not in line:
            comment = _COMMENT_RE.search(line)
            return (line[: comment.start()] if comment else line).strip()
        in_string = False
        for i, ch in enumerate(line):
            if ch == '"':
                in_string = not in_string
            elif not in_string and (ch == "#" or line[i : i + 2] == "//" or ch == ";"):
                return line[:i].strip()
        return line.strip()

    @staticmethod
    def _split_operands(rest: str) -> list[str]:
        if not rest:
            return []
        if "(" not in rest and ")" not in rest:
            parts = [part.strip() for part in rest.split(",")]
            return parts if parts[-1] else parts[:-1]
        operands: list[str] = []
        depth = 0
        current = ""
        for ch in rest:
            if ch == "," and depth == 0:
                operands.append(current.strip())
                current = ""
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            current += ch
        if current.strip():
            operands.append(current.strip())
        return operands

    # ------------------------------------------------------------------
    # Pseudo-instruction expansion (sizes fixed so label math is stable).
    # ------------------------------------------------------------------

    def _expand_pseudo(
        self, mnemonic: str, ops: list[str], line: int
    ) -> list[list[str]]:
        def need(count: int) -> None:
            if len(ops) != count:
                raise AssemblerError(
                    f"{mnemonic} expects {count} operand(s), got {len(ops)}", line
                )

        if mnemonic == "nop":
            need(0)
            return [["addi", "x0", "x0", "0"]]
        if mnemonic == "li":
            need(2)
            # Fixed two-instruction expansion keeps addresses stable
            # across passes regardless of the immediate's size.
            return [
                ["lui", ops[0], f"%hi({ops[1]})"],
                ["addi", ops[0], ops[0], f"%lo({ops[1]})"],
            ]
        if mnemonic == "la":
            need(2)
            return [
                ["lui", ops[0], f"%hi({ops[1]})"],
                ["addi", ops[0], ops[0], f"%lo({ops[1]})"],
            ]
        if mnemonic == "mv":
            need(2)
            return [["addi", ops[0], ops[1], "0"]]
        if mnemonic == "not":
            need(2)
            return [["xori", ops[0], ops[1], "-1"]]
        if mnemonic == "neg":
            need(2)
            return [["sub", ops[0], "x0", ops[1]]]
        if mnemonic == "seqz":
            need(2)
            return [["sltiu", ops[0], ops[1], "1"]]
        if mnemonic == "snez":
            need(2)
            return [["sltu", ops[0], "x0", ops[1]]]
        if mnemonic == "j":
            need(1)
            return [["jal", "x0", ops[0]]]
        if mnemonic == "jal" and len(ops) == 1:
            return [["jal", "ra", ops[0]]]
        if mnemonic == "jr":
            need(1)
            return [["jalr", "x0", ops[0], "0"]]
        if mnemonic == "jalr" and len(ops) == 1:
            return [["jalr", "ra", ops[0], "0"]]
        if mnemonic == "ret":
            need(0)
            return [["jalr", "x0", "ra", "0"]]
        if mnemonic == "call":
            need(1)
            return [["jal", "ra", ops[0]]]
        if mnemonic == "beqz":
            need(2)
            return [["beq", ops[0], "x0", ops[1]]]
        if mnemonic == "bnez":
            need(2)
            return [["bne", ops[0], "x0", ops[1]]]
        if mnemonic == "blez":
            need(2)
            return [["bge", "x0", ops[0], ops[1]]]
        if mnemonic == "bgez":
            need(2)
            return [["bge", ops[0], "x0", ops[1]]]
        if mnemonic == "bltz":
            need(2)
            return [["blt", ops[0], "x0", ops[1]]]
        if mnemonic == "bgtz":
            need(2)
            return [["blt", "x0", ops[0], ops[1]]]
        if mnemonic == "bgt":
            need(3)
            return [["blt", ops[1], ops[0], ops[2]]]
        if mnemonic == "ble":
            need(3)
            return [["bge", ops[1], ops[0], ops[2]]]
        if mnemonic == "bgtu":
            need(3)
            return [["bltu", ops[1], ops[0], ops[2]]]
        if mnemonic == "bleu":
            need(3)
            return [["bgeu", ops[1], ops[0], ops[2]]]
        if mnemonic == "csrr":
            need(2)
            return [["csrrs", ops[0], ops[1], "x0"]]
        if mnemonic == "csrw":
            need(2)
            return [["csrrw", "x0", ops[0], ops[1]]]
        if mnemonic not in SPEC_BY_MNEMONIC:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line)
        return [[mnemonic, *ops]]

    # ------------------------------------------------------------------
    # Pass 2: encode.
    # ------------------------------------------------------------------

    def _pass2(self, items: list[_Item], symbols: dict[str, int], top: int) -> list[int]:
        size = top - self._base
        blob = bytearray(-(-size // 4) * 4)
        # Symbols are final here, so an instruction whose encoding does
        # not read its own address encodes the same wherever it sits.
        encoded: dict[tuple[str, tuple[str, ...]], int] = {}
        for item in items:
            offset = item.address - self._base
            if item.kind == "data":
                value = _ExprEvaluator(symbols, item.line).evaluate(item.expr)
                blob[offset : offset + item.data_width] = (value & ((1 << (8 * item.data_width)) - 1)).to_bytes(
                    item.data_width, "little"
                )
                continue
            key = (item.mnemonic, item.operands)
            word = encoded.get(key)
            if word is None:
                word = self._encode_item(item, symbols)
                if item.mnemonic not in _PC_RELATIVE:
                    encoded[key] = word
            blob[offset : offset + 4] = word.to_bytes(4, "little")
        return list(struct.unpack(f"<{len(blob) // 4}I", blob))

    def _encode_item(self, item: _Item, symbols: dict[str, int]) -> int:
        spec = SPEC_BY_MNEMONIC.get(item.mnemonic)
        if spec is None:
            raise AssemblerError(f"unknown mnemonic {item.mnemonic!r}", item.line)
        evaluator = _ExprEvaluator(symbols, item.line)
        ops = list(item.operands)

        def reg(text: str) -> int:
            index = REGISTER_ALIASES.get(text.lower())
            if index is None:
                raise AssemblerError(f"unknown register {text!r}", item.line)
            return index

        def imm(text: str) -> int:
            return evaluator.evaluate(text)

        def mem_operand(text: str) -> tuple[int, int]:
            match = re.match(r"^(.*)\(\s*([\w.$]+)\s*\)$", text)
            if not match:
                raise AssemblerError(f"expected offset(reg), got {text!r}", item.line)
            offset_text = match.group(1).strip() or "0"
            return imm(offset_text), reg(match.group(2))

        def pc_relative(text: str) -> int:
            return imm(text) - item.address

        try:
            if spec.fmt is Format.R:
                return isa.encode(item.mnemonic, rd=reg(ops[0]), rs1=reg(ops[1]), rs2=reg(ops[2]))
            if spec.fmt is Format.U:
                return isa.encode(item.mnemonic, rd=reg(ops[0]), imm=imm(ops[1]) & 0xFFFFF)
            if spec.fmt is Format.J:
                return isa.encode(item.mnemonic, rd=reg(ops[0]), imm=pc_relative(ops[1]))
            if spec.fmt is Format.B:
                return isa.encode(
                    item.mnemonic, rs1=reg(ops[0]), rs2=reg(ops[1]), imm=pc_relative(ops[2])
                )
            if spec.fmt is Format.SHIFT:
                return isa.encode(item.mnemonic, rd=reg(ops[0]), rs1=reg(ops[1]), imm=imm(ops[2]))
            if spec.fmt is Format.CSR:
                return isa.encode(
                    item.mnemonic, rd=reg(ops[0]), csr=self._csr(ops[1], item.line), rs1=reg(ops[2])
                )
            if spec.fmt is Format.CSRI:
                return isa.encode(
                    item.mnemonic, rd=reg(ops[0]), csr=self._csr(ops[1], item.line), imm=imm(ops[2])
                )
            if spec.fmt is Format.SYS or spec.fmt is Format.FENCE:
                return isa.encode(item.mnemonic)
            if spec.fmt is Format.I:
                if item.mnemonic in ("lb", "lh", "lw", "lbu", "lhu"):
                    offset, base_reg = mem_operand(ops[1])
                    return isa.encode(item.mnemonic, rd=reg(ops[0]), rs1=base_reg, imm=offset)
                if item.mnemonic == "jalr":
                    if len(ops) == 3:
                        return isa.encode("jalr", rd=reg(ops[0]), rs1=reg(ops[1]), imm=imm(ops[2]))
                    offset, base_reg = mem_operand(ops[1])
                    return isa.encode("jalr", rd=reg(ops[0]), rs1=base_reg, imm=offset)
                return isa.encode(item.mnemonic, rd=reg(ops[0]), rs1=reg(ops[1]), imm=imm(ops[2]))
            if spec.fmt is Format.S:
                offset, base_reg = mem_operand(ops[1])
                return isa.encode(item.mnemonic, rs2=reg(ops[0]), rs1=base_reg, imm=offset)
        except AssemblerError:
            raise
        except IndexError as exc:
            raise AssemblerError(
                f"{item.mnemonic} is missing operands ({', '.join(item.operands)})", item.line
            ) from exc
        except Exception as exc:
            raise AssemblerError(f"{item.mnemonic}: {exc}", item.line) from exc
        raise AssemblerError(f"unhandled format for {item.mnemonic!r}", item.line)

    @staticmethod
    def _csr(text: str, line: int) -> int:
        name = text.lower()
        if name in CSR_ADDRESSES:
            return CSR_ADDRESSES[name]
        try:
            return int(text, 0)
        except ValueError as exc:
            raise AssemblerError(f"unknown CSR {text!r}", line) from exc


def assemble(source: str, base: int = 0) -> Program:
    """Assemble ``source`` into a :class:`Program` loaded at ``base``."""
    return Assembler(base=base).assemble(source)
