"""Functional executor: runs a µRISC program and emits the dynamic trace.

The executor is *architectural only* — no timing.  It produces the
committed instruction stream (:class:`~repro.isa.instruction.DynInst`)
that the cycle-level simulator in :mod:`repro.core` replays.  Because the
trace carries true operand values, the timing model can classify value
predictions at decode and apply their effects at the paper's verification
points.

Integer arithmetic wraps at 64 bits (two's complement), so value
sequences behave like the Alpha integers the paper's predictor saw.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial
from typing import Callable, Iterator, List, Optional

from .instruction import DynInst, Instruction
from .opcodes import OPCODES
from .program import INSTRUCTION_BYTES, Program
from .registers import FP_BASE, NUM_LOGICAL_REGS, ZERO_REG

__all__ = ["ExecutionError", "FunctionalExecutor", "execute",
           "recompute_result"]

_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1
_WRAP = 1 << 64


def _wrap64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    if _INT_MIN <= value <= _INT_MAX:
        return value
    return (value - _INT_MIN) % _WRAP + _INT_MIN


def _address(base: int, imm: int) -> int:
    """Effective address of a load or store: ``wrap64(base + imm)``."""
    addr = base + imm
    return addr if _INT_MIN <= addr <= _INT_MAX else _wrap64(addr)


class ExecutionError(RuntimeError):
    """Raised when a program misbehaves (bad PC, runaway execution...)."""


# -- the semantics table -------------------------------------------------------
#
# Each opcode's behaviour is written once, as a step factory in
# ``_STEPS``.  A factory takes one static instruction's operands resolved
# against live state — ``D[d]`` the destination, ``A[a]`` and ``B[b]``
# the sources (each a register-bank list and an index into it), ``imm``,
# the sparse ``mem`` dict, and the ``nxt``/``tgt``/``here`` static
# indices — and returns a closure that applies the instruction and
# returns the next index (``-1 - here`` for ``halt``).  Loads and stores
# also leave their effective address in ``out[0]``, control transfers
# their ``taken`` flag: all the trace records beyond register values.
# Fast-forward runs the steps as they are; the trace, functional warming
# and golden re-execution are derived from them.  The hottest steps are
# written out (with the 64-bit wrap's in-range fast path inline) rather
# than calling a generic ``fn``: one more call per instruction would
# show in fast-forward throughput.


def _binary(fn):
    def make(D, d, A, a, B, b, nxt, **_):
        def step():
            D[d] = fn(A[a], B[b])
            return nxt
        return step
    return make


def _with_imm(fn):
    def make(D, d, A, a, imm, nxt, **_):
        def step():
            D[d] = fn(A[a], imm)
            return nxt
        return step
    return make


def _unary(fn):
    def make(D, d, A, a, nxt, **_):
        def step():
            D[d] = fn(A[a])
            return nxt
        return step
    return make


def _add(D, d, A, a, B, b, nxt, **_):
    def step():
        x = A[a] + B[b]
        D[d] = x if _INT_MIN <= x <= _INT_MAX else _wrap64(x)
        return nxt
    return step


def _mul(D, d, A, a, B, b, nxt, **_):
    def step():
        x = A[a] * B[b]
        D[d] = x if _INT_MIN <= x <= _INT_MAX else _wrap64(x)
        return nxt
    return step


def _addi(D, d, A, a, imm, nxt, **_):
    def step():
        x = A[a] + imm
        D[d] = x if _INT_MIN <= x <= _INT_MAX else _wrap64(x)
        return nxt
    return step


def _li(D, d, imm, nxt, **_):
    def step():
        D[d] = imm
        return nxt
    return step


def _move(D, d, A, a, nxt, **_):
    def step():
        D[d] = A[a]
        return nxt
    return step


def _lw(D, d, A, a, imm, mem, out, nxt, **_):
    def step():
        out[0] = addr = _address(A[a], imm)
        x = int(mem.get(addr, 0))
        D[d] = x if _INT_MIN <= x <= _INT_MAX else _wrap64(x)
        return nxt
    return step


def _load(convert):
    def make(D, d, A, a, imm, mem, out, nxt, **_):
        def step():
            out[0] = addr = _address(A[a], imm)
            D[d] = convert(mem.get(addr, 0))
            return nxt
        return step
    return make


def _store(A, a, B, b, imm, mem, out, nxt, **_):
    def step():
        out[0] = addr = _address(B[b], imm)
        mem[addr] = A[a]
        return nxt
    return step


def _store_byte(A, a, B, b, imm, mem, out, nxt, **_):
    def step():
        out[0] = addr = _address(B[b], imm)
        mem[addr] = _byte(A[a])
        return nxt
    return step


def _branch(cond):
    def make(A, a, B, b, out, nxt, tgt, **_):
        def step():
            out[0] = taken = cond(A[a], B[b])
            return tgt if taken else nxt
        return step
    return make


def _jump(out, tgt, **_):
    def step():
        out[0] = True
        return tgt
    return step


def _byte(value) -> int:
    return int(value) & 0xFF


def _with_imm_form(name: str, fn) -> dict:
    """Steps for an integer op's register and immediate (``name + "i"``)
    forms."""
    return {name: _binary(fn), name + "i": _with_imm(fn)}


#: The µRISC semantics: opcode -> step factory (see the comment above).
_STEPS = {
    # integer ALU
    "add": _add, "addi": _addi,
    "sub": _binary(lambda x, y: _wrap64(x - y)),
    **_with_imm_form("and", operator.and_),
    **_with_imm_form("or", operator.or_),
    **_with_imm_form("xor", operator.xor),
    **_with_imm_form("sll", lambda x, y: _wrap64(x << (y & 63))),
    **_with_imm_form("srl", lambda x, y: (x % _WRAP) >> (y & 63)),
    **_with_imm_form("sra", lambda x, y: x >> (y & 63)),
    **_with_imm_form("slt", lambda x, y: int(x < y)),
    "sltu": _binary(lambda x, y: int(x % _WRAP < y % _WRAP)),
    "min": _binary(lambda x, y: x if x < y else y),
    "max": _binary(lambda x, y: x if x > y else y),
    "li": _li, "la": _li, "mov": _move,
    "nop": lambda nxt, **_: lambda: nxt,
    # integer multiply / divide (division truncates toward zero)
    "mul": _mul,
    "div": _binary(lambda x, y: _wrap64(int(x / y)) if y else 0),
    "rem": _binary(lambda x, y: _wrap64(x - int(x / y) * y) if y else 0),
    # control flow
    "beq": _branch(operator.eq), "bne": _branch(operator.ne),
    "blt": _branch(operator.lt), "bge": _branch(operator.ge),
    "j": _jump, "halt": lambda here, **_: lambda: -1 - here,
    # memory
    "lw": _lw, "lb": _load(_byte), "flw": _load(float),
    "sw": _store, "sb": _store_byte, "fsw": _store,
    # floating point
    "fadd": _binary(operator.add), "fsub": _binary(operator.sub),
    "fmul": _binary(operator.mul),
    "fdiv": _binary(lambda x, y: (x / y) if y else 0.0),
    "fmov": _move, "fneg": _unary(operator.neg),
    "feq": _binary(lambda x, y: int(x == y)),
    "flt": _binary(lambda x, y: int(x < y)),
    "fle": _binary(lambda x, y: int(x <= y)),
    "cvtif": _unary(float),
    "cvtfi": _unary(lambda x: _wrap64(int(x))),
}


def _locate(rid: int, ir: list, fr: list):
    """``(bank, index)`` of register *rid* in the register lists."""
    return (fr, rid - FP_BASE) if rid >= FP_BASE else (ir, rid)


def _build_step(inst: Instruction, here: int, base: int, size: int,
                ir: list, fr: list, mem: dict, out: list) -> Callable[[], int]:
    """Resolve *inst*'s operands against live state and build its step.

    A write to ``r0`` is undone after the step: it stays hard-wired to 0.
    """
    operands = dict(imm=inst.imm, mem=mem, out=out, nxt=here + 1,
                    here=here)
    if inst.dest is not None:
        operands["D"], operands["d"] = _locate(inst.dest, ir, fr)
    for rid, bank, index in zip(inst.srcs, "AB", "ab"):
        operands[bank], operands[index] = _locate(rid, ir, fr)
    if inst.target is not None:
        tgt = (inst.target - base) // INSTRUCTION_BYTES
        operands["tgt"] = tgt if 0 <= tgt < size else size
    step = _STEPS[inst.op.name](**operands)
    if inst.dest != ZERO_REG:
        return step

    def keep_r0_zero():
        nxt = step()
        ir[ZERO_REG] = 0
        return nxt
    return keep_r0_zero


def _lazy_table(size: int, make: Callable[[int], Callable[[], int]],
                sentinel: Callable[[], int]) -> list:
    """A step table whose entry ``i`` is ``make(i)``, built on its first
    call and then called directly.  The stand-ins unroll to hundreds of
    static instructions, so a short trace or window pays only for those
    it reaches.  Entry ``size`` is *sentinel*."""
    table: list = []

    def stub(i):
        def build_and_run():
            step = table[i] = make(i)
            return step()
        return build_and_run

    table.extend(map(stub, range(size)))
    table.append(sentinel)
    return table


@lru_cache(maxsize=1024)
def _scratch_step(name: str, imm: Optional[int]):
    """``(step, sources, result)``: *name*'s step reading its operands
    from the list *sources* and writing ``result[0]``, or ``None`` when
    :func:`recompute_result` cannot re-execute the opcode."""
    op = OPCODES.get(name)
    if op is None or not op.has_dest or op.is_load or (
            imm is None and ("I" in op.signature or "A" in op.signature)):
        return None
    sources, result = [None, None], [None]
    step = _STEPS[name](D=result, d=0, A=sources, a=0, B=sources, b=1,
                        imm=imm, mem={}, out=[None], nxt=1, here=0)
    return step, sources, result


def recompute_result(name: str, src_values: tuple, imm: Optional[int]):
    """Re-execute one register-to-register operation's semantics.

    Returns ``(True, result)`` for operations whose result depends only
    on the source values and immediate (the re-executable set used by
    the golden-model co-simulator), and ``(False, None)`` for those
    that touch memory or control flow, whose results the trace must be
    trusted for.  Immediate forms need the static immediate, which the
    dynamic trace does not carry; callers without it pass ``imm=None``.
    The operation runs as its own step on private operand lists.
    """
    scratch = _scratch_step(name, imm)
    if scratch is None:
        return False, None
    step, sources, result = scratch
    sources[:] = src_values
    step()
    return True, result[0]


class FunctionalExecutor:
    """Executes a program, yielding the dynamic committed stream.

    Args:
        program: assembled program.
        max_instructions: hard cap on dynamic instructions; hitting it
            ends the trace cleanly (the synthetic workloads run far past
            any interesting warm-up, like the paper's run-to-completion
            Mediabench runs, just shorter).
    """

    def __init__(self, program: Program,
                 max_instructions: int = 1_000_000) -> None:
        self.program = program
        self.max_instructions = max_instructions
        self.int_regs: List[int] = [0] * FP_BASE
        self.fp_regs: List[float] = [0.0] * (NUM_LOGICAL_REGS - FP_BASE)
        # Execution cursor.  Kept on the instance (not as generator
        # locals) so the executor can be snapshotted mid-run and a new
        # ``run()`` generator resumes exactly where the old one stopped.
        self.pc: int = program.code_base
        self.seq: int = 0
        self.halted: bool = False
        self._compiled: Optional[List[Callable[[], int]]] = None
        self._out: list = [None]
        self._train_hooks: Optional[tuple] = None
        self._trained: Optional[List[Callable[[], int]]] = None

    # -- pickling -------------------------------------------------------------

    #: Derived attributes rebuilt on restore: the step tables close over
    #: the live register lists and the ``out`` cell, and the training
    #: hooks reference external predictor objects — none pickle, all are
    #: rebuilt (or, for hooks, reinstalled by the caller) after restore.
    _UNPICKLED = ("_compiled", "_out", "_train_hooks", "_trained")

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in self._UNPICKLED:
            state.pop(name, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._compiled = None
        self._out = [None]
        self._train_hooks = None
        self._trained = None

    # -- main loop ------------------------------------------------------------

    def run(self) -> Iterator[DynInst]:
        """Yield :class:`DynInst` records until ``halt`` or the cap.

        Each record is one step of the compiled table: the source
        values are read before it, the result after it, and the memory
        address or branch outcome comes from the step's ``out`` cell.

        Resumes from the instance cursor (``pc``/``seq``), so a partial
        consumption — or a :meth:`skip` fast-forward — followed by a new
        ``run()`` call continues the same dynamic stream.  The cursor is
        committed *before* each yield: a snapshot taken while a consumer
        holds the yielded instruction counts it as already delivered.
        """
        if self.halted:
            return
        steps = self._steps()
        out = self._out
        ir, fr = self.int_regs, self.fp_regs
        instructions = self.program.instructions
        base = self.program.code_base
        size = len(instructions)
        meta: list = [None] * size  # per-PC operand slots, built on use
        idx = (self.pc - base) // INSTRUCTION_BYTES
        pc = self.pc
        seq = self.seq
        cap = self.max_instructions
        while seq < cap:
            if not 0 <= idx < size:
                raise ExecutionError(f"PC out of code segment: {pc:#x}")
            entry = meta[idx]
            if entry is None:
                inst = instructions[idx]
                op = inst.op
                entry = meta[idx] = (
                    inst.pc, op, inst.dest, inst.srcs,
                    tuple(_locate(rid, ir, fr) for rid in inst.srcs),
                    None if inst.dest is None
                    else _locate(inst.dest, ir, fr),
                    op.is_load or op.is_store, op.is_branch, inst.target)
            (pc, op, dest, srcs, sources, dest_at, is_mem, is_branch,
             target) = entry
            src_values = tuple([bank[i] for bank, i in sources])
            nxt = steps[idx]()
            if nxt < 0:
                self.halted = True
                return
            result = None if dest_at is None else dest_at[0][dest_at[1]]
            mem_addr = out[0] if is_mem else None
            taken = out[0] if is_branch else None
            self.seq = seq + 1
            self.pc = base + nxt * INSTRUCTION_BYTES
            yield DynInst(seq, pc, op, dest, srcs, src_values, result,
                          mem_addr, taken, target)
            seq += 1
            idx = nxt
            pc = self.pc

    # -- fast-forward ---------------------------------------------------------

    def skip(self, count: int) -> int:
        """Fast-forward up to *count* instructions; returns how many ran.

        Architectural effects (registers, memory, ``pc``/``seq``) are
        bit-identical to consuming the same instructions from
        :meth:`run`; no :class:`DynInst` records are built, which is
        what makes this the ≥10×-detailed fast-forward engine behind
        sampled simulation.  Stops early at ``halt`` or the
        ``max_instructions`` cap, exactly like :meth:`run`.
        """
        if self.halted or count <= 0:
            return 0
        n = min(count, self.max_instructions - self.seq)
        if n <= 0:
            return 0
        if self._train_hooks is not None:
            table = self._trained
            if table is None:
                table = self._trained = self._compile_train()
        else:
            table = self._steps()
        base = self.program.code_base
        idx = (self.pc - base) // INSTRUCTION_BYTES
        if not 0 <= idx < len(table):
            raise ExecutionError(f"PC out of code segment: {self.pc:#x}")
        done = 0
        while done < n:
            nxt = table[idx]()
            if nxt < 0:  # halt: pc stays on the halt instruction
                idx = -nxt - 1
                self.halted = True
                break
            idx = nxt
            done += 1
        self.pc = base + idx * INSTRUCTION_BYTES
        self.seq += done
        return done

    # -- functional warming ---------------------------------------------------

    def set_train_hooks(self, value=None, branch=None, target=None,
                        mem=None, code=None, value_factory=None,
                        branch_factory=None) -> None:
        """Install functional-warming callbacks applied during :meth:`skip`.

        With hooks installed, fast-forward additionally *observes* each
        instruction the way the timing model's front end and decode
        stage would, so microarchitectural predictor state can be
        trained continuously at compiled speed (SMARTS-style functional
        warming).  Architectural effects are unchanged — the hooks only
        read state.

        Args:
            value: ``(pc, slot, actual)`` per integer source operand,
                in slot order, skipping ``r0`` and fp-bank sources —
                exactly the operands decode trains the value predictor
                on.
            branch: ``(pc, taken)`` per conditional branch, the
                direction predictor's training event.
            target: ``(pc, target)`` per taken control transfer
                (conditional or not), the BTB's training event.
            mem: ``(addr, is_write)`` per load/store, the D-cache
                touch.
            code: ``(pc)`` on each fetch-line change (the same
                ``pc >> 5`` granularity the fetch engine tracks), the
                I-cache touch.
            value_factory: optional ``factory(pc, slot) -> train(actual)``
                pre-binding the value hook per static operand (e.g.
                :meth:`repro.predictor.StridePredictor.trainer`); used
                instead of *value* when given, resolving table indices
                once per static operand instead of per call.
            branch_factory: optional ``factory(pc) -> train(taken)``
                pre-binding the branch hook per static branch
                (:meth:`repro.frontend.CombinedPredictor.trainer`).

        Passing all ``None`` uninstalls.  Hooks do not survive
        pickling: a restored executor fast-forwards plain until hooks
        are installed again.
        """
        if value is None and branch is None and target is None \
                and mem is None and code is None:
            self._train_hooks = None
        else:
            self._train_hooks = (value, branch, target, mem, code,
                                 value_factory, branch_factory)
        self._trained = None

    def _compile_train(self) -> List[Callable[[], int]]:
        """The step table wrapped with the installed training hooks.

        Entries are built lazily, like :meth:`_steps`'s.  Value
        trainers read the source registers before the step; the branch,
        target and D-cache hooks read the step's ``out`` cell after it,
        so the trained path has no condition or address logic of its
        own.  Instructions that train nothing (``nop``, fp-only
        arithmetic) keep their plain step, so the overhead is paid only
        where a hook actually fires.
        """
        (value, branch, target, mem, code,
         value_factory, branch_factory) = self._train_hooks
        out = self._out
        program = self.program
        ir = self.int_regs
        base = program.code_base
        size = len(program)
        # Fetch-line tracker shared by every closure, mirroring the
        # fetch engine's ``_last_line``: the I-cache is touched once
        # per line *transition*, not per instruction.  Every control
        # transfer in the ISA carries a static target, so the set of
        # instructions where a transition can *happen* is statically
        # known — only those pay the runtime line check: an
        # instruction whose sequential predecessor sits on a different
        # line, or the target of a cross-line branch/jump.
        line_cell = [None]
        needs_line_check = [False] * size
        prev_line = None
        for i, inst in enumerate(program.instructions):
            pc = inst.pc
            if prev_line is None or pc >> 5 != prev_line:
                needs_line_check[i] = True
            prev_line = pc >> 5
            if inst.target is not None and inst.target >> 5 != pc >> 5:
                t_idx = (inst.target - base) // INSTRUCTION_BYTES
                if 0 <= t_idx < size:
                    needs_line_check[t_idx] = True

        # Per-site trainers: a factory resolves table indices once per
        # static operand/branch at compile time; without one, the
        # generic hook is pre-bound with functools.partial so every
        # closure variant below deals in uniform ``train(actual)`` /
        # ``train(taken)`` callables.
        if value_factory is not None:
            make_value = value_factory
        elif value is not None:
            def make_value(pc, slot, value=value):
                return partial(value, pc, slot)
        else:
            make_value = None
        if branch_factory is not None:
            make_branch = branch_factory
        elif branch is not None:
            def make_branch(pc, branch=branch):
                return partial(branch, pc)
        else:
            make_branch = None

        def make(i):
            inst = program.instructions[i]
            op = inst.op
            step = self._build(i)
            pc = inst.pc
            # Integer source operands in slot order, as decode sees
            # them: fp-bank registers and r0 never train the value
            # predictor.
            vp_trainers = tuple(
                (make_value(pc, slot), rid)
                for slot, rid in enumerate(inst.srcs)
                if rid != ZERO_REG and rid < FP_BASE
            ) if make_value is not None else ()

            if op.is_branch:
                btrain = make_branch(pc) if make_branch is not None \
                    and op.is_cond_branch else None

                def tstep(step=step, pc=pc, tpc=inst.target,
                          vtr=vp_trainers, btrain=btrain, target=target):
                    for train, rid in vtr:
                        train(ir[rid])
                    nxt = step()
                    taken = out[0]
                    if btrain is not None:
                        btrain(taken)
                    if taken and target is not None:
                        target(pc, tpc)
                    return nxt
            elif mem is not None and (op.is_load or op.is_store):
                def tstep(step=step, wr=op.is_store, vtr=vp_trainers,
                          mem=mem):
                    for train, rid in vtr:
                        train(ir[rid])
                    nxt = step()
                    mem(out[0], wr)
                    return nxt
            elif len(vp_trainers) == 1:
                (t0, r0), = vp_trainers

                def tstep(step=step, t0=t0, r0=r0):
                    t0(ir[r0])
                    return step()
            elif len(vp_trainers) == 2:
                (t0, r0), (t1, r1) = vp_trainers

                def tstep(step=step, t0=t0, r0=r0, t1=t1, r1=r1):
                    t0(ir[r0])
                    t1(ir[r1])
                    return step()
            else:
                tstep = step  # trains nothing: halt, nop, fp-only ops
            if code is not None and needs_line_check[i]:
                inner = tstep

                def tstep(inner=inner, line=pc >> 5, pc=pc,
                          cell=line_cell, code=code):
                    if line != cell[0]:
                        cell[0] = line
                        code(pc)
                    return inner()
            return tstep

        return _lazy_table(size, make, self._steps()[size])

    def _steps(self) -> List[Callable[[], int]]:
        """The per-static-instruction step table (see :func:`_lazy_table`).

        Entry ``i`` is instruction ``i``'s step from :data:`_STEPS`.
        Steps capture the live register lists and the sparse memory
        dict directly, so there is no per-instruction dispatch beyond
        one call — this is what lifts fast-forward into the millions of
        instructions per second.  Index ``len(program)`` holds a
        sentinel that raises the same :class:`ExecutionError` as
        :meth:`run` does when execution falls off the code segment.
        """
        if self._compiled is None:
            end_pc = (self.program.code_base
                      + len(self.program) * INSTRUCTION_BYTES)

            def off_segment() -> int:  # pragma: no cover - malformed
                raise ExecutionError(f"PC out of code segment: {end_pc:#x}")

            self._compiled = _lazy_table(len(self.program), self._build,
                                         off_segment)
        return self._compiled

    def _build(self, i: int) -> Callable[[], int]:
        """Instruction ``i``'s step on this executor's state."""
        program = self.program
        return _build_step(program.instructions[i], i, program.code_base,
                           len(program), self.int_regs, self.fp_regs,
                           program.memory._mem, self._out)


def execute(program: Program, max_instructions: int = 1_000_000) -> List[DynInst]:
    """Run *program* to completion (or the cap) and return the full trace."""
    return list(FunctionalExecutor(program, max_instructions).run())
