"""Property-based litmus invariants: canonical form, content-addressed
naming, spec round-trips, the reference interpreter, and the progress
lattice (OBE ⊑ Linear ⊑ IFP) under randomized programs and schedules."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.litmus.generate import (
    InterpState,
    LitmusProgram,
    canonicalize,
    interpret,
    program_name,
    random_corpus,
    random_program,
    validate_program,
)
from repro.litmus.models import (
    IFP,
    LINEAR,
    OBE,
    VIOLATED,
    ObservedSchedule,
    ProgressModel,
    judge_all,
)

#: the CLI's own generator, driven by a hypothesis-controlled RNG so
#: failing draws shrink and replay like any other strategy
programs = st.randoms(use_true_random=False).map(random_program)


@given(program=programs)
@settings(max_examples=50)
def test_strategy_emits_valid_programs(program):
    validate_program(program)
    assert 1 <= program.wgs
    assert all(program.scripts[w] for w in range(program.wgs))


@given(program=programs)
@settings(max_examples=50)
def test_canonicalize_is_idempotent(program):
    once = canonicalize(program)
    assert canonicalize(once) == once


@given(program=programs)
@settings(max_examples=50)
def test_name_ignores_alias_and_is_stable(program):
    renamed = replace(program, alias="SOMETHING_ELSE")
    assert program_name(renamed) == program_name(program)
    assert program.name.startswith("lit-") and len(program.name) == 14


@given(program=programs)
@settings(max_examples=50)
def test_spec_round_trip(program):
    assert LitmusProgram.from_spec(program.spec()) == program
    # and through the canonical form too
    canon = canonicalize(program)
    assert LitmusProgram.from_spec(canon.spec()) == canon


@given(program=programs)
@settings(max_examples=50)
def test_interpreter_quiesces_completed_or_blocked(program):
    result = interpret(program)
    # every WG is accounted for: completed, or blocked at a wait
    for w in range(program.wgs):
        assert (w in result.completed) != (w in result.blocked)
    assert result.terminated == (len(result.completed) == program.wgs)
    if not result.terminated:
        # a fair scheduler only hangs on a wait-class action
        assert all(a[0] in ("wait", "waitc", "acquire")
                   for a in result.blocked.values())


@given(program=programs)
@settings(max_examples=50)
def test_fair_replay_monotone_in_fair_set(program):
    # More fairness can only help: if the fair replay terminates under a
    # model's fair set, it terminates under every stronger model's too.
    full = interpret(program)
    if full.terminated:
        return
    for smaller, larger in ((OBE, LINEAR), (LINEAR, IFP)):
        schedule = _hang_schedule(program)
        lo = ProgressModel(smaller).fair_set(schedule)
        hi = ProgressModel(larger).fair_set(schedule)
        assert lo <= hi


@given(program=programs, started_bits=st.integers(min_value=0))
@settings(max_examples=60)
def test_violation_is_monotone_up_the_lattice(program, started_bits):
    # The lattice property from EXPERIMENTS.md, on synthesized hangs: a
    # schedule violating a weak model violates every stronger one
    # (judged by fair replay, larger fair sets terminate at least as
    # often). started is an arbitrary subset of WGs, pcs all zero.
    started = frozenset(
        w for w in range(program.wgs) if started_bits >> w & 1)
    schedule = _hang_schedule(program, started=started)
    judgments = judge_all(program, schedule)
    order = (OBE, LINEAR, IFP)
    for weak, strong in zip(order, order[1:]):
        if judgments[weak].verdict == VIOLATED:
            assert judgments[strong].verdict == VIOLATED, (
                program.label, weak, strong)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_random_corpus_is_deterministic_and_distinct(seed):
    first = random_corpus(seed, count=5)
    second = random_corpus(seed, count=5)
    assert [p.spec() for p in first] == [p.spec() for p in second]
    names = [p.name for p in first]
    assert len(set(names)) == len(names)


def _hang_schedule(program, started=None):
    """A synthetic non-terminated schedule: nothing has executed yet."""
    initial = InterpState.initial(program)
    return ObservedSchedule(
        wgs=program.wgs,
        started=(frozenset(range(program.wgs)) if started is None
                 else started),
        completed=frozenset(),
        pcs=tuple(initial.pcs),
        waits_executed=1,
        terminated=False,
        flags=tuple(initial.flags),
        counters=tuple(initial.counters),
        locks=tuple(initial.locks),
    )
