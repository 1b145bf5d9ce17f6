"""Differential property test of the µRISC semantics.

Every execution path is derived from one step table; this checks that
they agree on random programs: kernel-library loops mixed with random
blocks that use every opcode in ``OPCODES`` (including branches whose
target is their own fall-through and writes to ``r0``).

* ``run()``, plain ``skip()``, hook-trained ``skip()`` and a run/skip
  interleaving reach the same registers, memory, ``pc`` and ``seq`` at
  random cut points;
* the training hooks observe exactly what the ``run()`` trace records;
* the trace's memory addresses and branch outcomes match an independent
  oracle;
* the golden model replays the ``run()`` trace without divergence.
"""

import copy
import itertools
import operator

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa import OPCODES, ProgramBuilder
from repro.isa.executor import FunctionalExecutor
from repro.isa.program import INSTRUCTION_BYTES, _expected_banks
from repro.validation import GoldenModel
from repro.workloads import kernels

CAP = 3_000
INT64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
SMALL = st.integers(min_value=-300, max_value=300)
#: Registers a random block may write: r6 counts loop trips and r7
#: holds the block's data base address, so neither is ever written.
INT_DESTS = ["r0"] + [f"r{i}" for i in range(1, 6)] + \
    [f"r{i}" for i in range(8, 32)]
INT_SRCS = [f"r{i}" for i in range(32)]
FP_REGS = [f"f{i}" for i in range(32)]
BRANCHES = {"beq": operator.eq, "bne": operator.ne, "blt": operator.lt,
            "bge": operator.ge}
STRAIGHT = sorted(name for name, op in OPCODES.items()
                  if not op.is_branch and name != "halt")


def _kernel_calls(draw, b, tag):
    """Emit one randomly parameterised kernel from the library."""
    n = draw(st.integers(min_value=1, max_value=6))
    words = draw(st.lists(SMALL, min_size=8 * n + 16, max_size=8 * n + 16))
    floats = [float(x) / 7 for x in words]
    src = b.data(f"{tag}_src", words)
    aux = b.data(f"{tag}_aux", [abs(x) + 1 for x in words])
    fsrc = b.data(f"{tag}_fsrc", floats, elem_size=8)
    fmat = b.data(f"{tag}_fmat", floats[:9], elem_size=8)
    dst = b.zeros(f"{tag}_dst", 8 * n + 16)
    fdst = b.zeros(f"{tag}_fdst", 8 * n + 16, elem_size=8)
    hist = b.zeros(f"{tag}_hist", 64)
    steps = b.data(f"{tag}_steps", [7 + 3 * i for i in range(89)])
    calls = [
        lambda: kernels.fir_filter(b, tag, src, aux, dst, n,
                                   draw(st.integers(1, 8))),
        lambda: kernels.iir_biquad(b, tag, src, dst, n, draw(SMALL),
                                   draw(SMALL), draw(SMALL)),
        lambda: kernels.dct8_blocks(b, tag, src, dst, 1),
        lambda: kernels.quantize(b, tag, src, aux, dst, n, 4),
        lambda: kernels.quantize_div(b, tag, src, aux, dst, n, 4),
        lambda: kernels.dequantize(b, tag, src, aux, dst, n, 2),
        lambda: kernels.huffman_scan(b, tag, src, hist, n),
        lambda: kernels.color_convert(b, tag, aux, dst, n),
        lambda: kernels.sad_motion(b, tag, src, aux, n),
        lambda: kernels.memcpy_words(b, tag, src, dst, 2 * n),
        lambda: kernels.histogram(b, tag, aux, hist, n),
        lambda: kernels.bitunpack(b, tag, src, dst, n),
        lambda: kernels.modmul_rounds(b, tag, aux, n, draw(SMALL), 65521),
        lambda: kernels.adpcm_decode(b, tag, aux, steps, dst, n),
        lambda: kernels.texture_lerp(b, tag, fsrc, fdst, n),
        lambda: kernels.vertex_transform(b, tag, fsrc, fmat, fdst, n),
        lambda: kernels.fp_poly_eval(b, tag, fsrc, fdst, n),
    ]
    draw(st.sampled_from(calls))()


def _random_block(draw, b, tag):
    """A random block over every opcode, with forward branches (some to
    their own fall-through), optionally wrapped in a counted loop."""
    b.emit("la", "r7", b.data(f"{tag}_buf", draw(
        st.lists(INT64, min_size=8, max_size=8))))
    for i in range(1, 4):
        b.emit("li", f"r{i}", draw(st.one_of(INT64, SMALL)))
        b.emit("cvtif", f"f{i}", f"r{i}")
    looped = draw(st.booleans())
    if looped:
        b.emit("li", "r6", draw(st.integers(1, 4)))
        b.label(f"{tag}_loop")
    pending = []  # forward labels still to place
    for k in range(draw(st.integers(min_value=1, max_value=25))):
        while pending and draw(st.booleans()):
            b.label(pending.pop())
        name = draw(st.sampled_from(STRAIGHT + sorted(BRANCHES) + ["j"]))
        if name in BRANCHES or name == "j":
            label = f"{tag}_fwd{k}"
            if name == "j":
                b.emit("j", label)
            else:
                b.emit(name, draw(st.sampled_from(INT_SRCS)),
                       draw(st.sampled_from(INT_SRCS)), label)
            if draw(st.booleans()):
                b.label(label)  # the target is the fall-through
            else:
                pending.append(label)
            continue
        op = OPCODES[name]
        banks = iter(_expected_banks(op))
        operands = []
        for kind in op.signature:
            if kind == "R":
                operands.append(draw(st.sampled_from(
                    FP_REGS if next(banks) == "f" else INT_DESTS)))
            elif kind == "S":
                fp = next(banks) == "f"
                operands.append(draw(st.sampled_from(
                    FP_REGS if fp else INT_SRCS)))
            else:  # "I" or "A"
                operands.append(draw(st.one_of(INT64, SMALL)))
        if op.is_load or op.is_store:  # base register, in-buffer offset
            operands[-2] = "r7"
            operands[-1] = 8 * draw(st.integers(0, 7))
        b.emit(name, *operands)
    for label in pending:
        b.label(label)
    if looped:
        b.emit("addi", "r6", "r6", -1)
        b.emit("bne", "r6", "r0", f"{tag}_loop")


@st.composite
def programs(draw):
    b = ProgramBuilder()
    for part in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            _kernel_calls(draw, b, f"k{part}")
        else:
            _random_block(draw, b, f"b{part}")
    b.emit("halt")
    return b.build()


def _state(executor):
    memory = sorted(executor.program.memory.snapshot().items())
    return repr((executor.int_regs, executor.fp_regs, memory,
                 executor.pc, executor.seq, executor.halted))


def _hooked(program, events):
    executor = FunctionalExecutor(program, CAP)
    executor.set_train_hooks(
        value=lambda pc, slot, v: events["value"].append((pc, slot, v)),
        branch=lambda pc, taken: events["branch"].append((pc, taken)),
        target=lambda pc, t: events["target"].append((pc, t)),
        mem=lambda addr, wr: events["mem"].append((addr, wr)),
        code=lambda pc: events["code"].append(pc))
    return executor


def _expected_events(trace, halt_pc):
    """What decode, fetch and the caches would observe of *trace*; a
    final ``halt`` (at *halt_pc*) is fetched but not traced."""
    events = {"value": [], "branch": [], "target": [], "mem": [],
              "code": []}
    line = None
    for pc in [d.pc for d in trace] + [halt_pc]:
        if pc is not None and pc >> 5 != line:
            line = pc >> 5
            events["code"].append(pc)
    for d in trace:
        events["value"].extend(
            (d.pc, slot, v) for slot, (rid, v)
            in enumerate(zip(d.srcs, d.src_values)) if 0 < rid < 32)
        if d.is_cond_branch:
            events["branch"].append((d.pc, d.taken))
        if d.taken:
            events["target"].append((d.pc, d.target))
        if d.is_load or d.is_store:
            events["mem"].append((d.mem_addr, d.is_store))
    return events


def _wrap64(value):
    return (value + (1 << 63)) % (1 << 64) - (1 << 63)


def _check_trace_oracle(trace, program):
    imms = {inst.pc: inst.imm for inst in program.instructions}
    for d, nxt in zip(trace, trace[1:] + [None]):
        name = d.op.name
        if name in BRANCHES:
            assert d.taken == BRANCHES[name](*d.src_values), d
        if d.is_branch and nxt is not None:
            fall = d.pc + INSTRUCTION_BYTES
            assert nxt.pc == (d.target if d.taken else fall), d
        if d.is_load or d.is_store:
            assert d.mem_addr == _wrap64(d.src_values[-1] + imms[d.pc]), d


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(programs(), st.lists(st.integers(min_value=1, max_value=400),
                            min_size=1, max_size=8))
def test_run_skip_trained_and_golden_agree(program, cuts):
    copies = [copy.deepcopy(program) for _ in range(4)]
    runner = FunctionalExecutor(copies[0], CAP)
    skipper = FunctionalExecutor(copies[1], CAP)
    events = {"value": [], "branch": [], "target": [], "mem": [],
              "code": []}
    trained = _hooked(copies[2], events)
    mixed = FunctionalExecutor(copies[3], CAP)
    stream = runner.run()
    trace = []

    def advance(k, use_run):
        try:
            got = list(itertools.islice(stream, k))
            trace.extend(got)
            outcome = [len(got)]
            outcome.append(skipper.skip(k))
            outcome.append(trained.skip(k))
            if use_run:
                outcome.append(len(list(itertools.islice(mixed.run(), k))))
            else:
                outcome.append(mixed.skip(k))
        except (OverflowError, ValueError) as exc:
            # cvtfi of an infinite or NaN register: every path must
            # fail the same way.
            return type(exc)
        assert len(set(outcome)) == 1, outcome
        return None

    # Cut the program at random points, then run it to the end.
    for i, k in enumerate(cuts + [CAP]):
        failure = advance(k, use_run=i % 2 == 0)
        if failure is not None:
            for executor in (skipper, trained):
                try:
                    executor.skip(CAP)
                except failure:
                    continue
                raise AssertionError(f"skip() did not raise {failure}")
            return
        assert _state(runner) == _state(skipper) == _state(trained) \
            == _state(mixed), f"diverged after cut {i}"

    assert events == _expected_events(
        trace, runner.pc if runner.halted else None)
    _check_trace_oracle(trace, program)
    golden = GoldenModel(interval=64)
    for d in trace:
        golden.on_commit(d, 0, 0)
    assert golden.finish() == len(trace)
    assert repr((golden.int_regs, golden.fp_regs)) == \
        repr((runner.int_regs, runner.fp_regs))
