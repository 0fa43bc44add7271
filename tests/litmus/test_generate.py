"""Generator invariants: canonical form, naming, validation, and the
reference interpreter's ground truths."""

import pytest

from repro.errors import ConfigError
from repro.litmus.generate import (
    ACQUIRE,
    IF_FLAG,
    LitmusProgram,
    RELEASE,
    SET,
    WAIT,
    WORK,
    barrier_subset,
    canonicalize,
    chain,
    handoff,
    interpret,
    producer_consumer,
    program_name,
    random_corpus,
    unreachable_wait,
    unsatisfiable_wait,
    validate_program,
)


def test_canonicalize_idempotent():
    for program in (handoff(), producer_consumer(), chain(),
                    barrier_subset(), unreachable_wait(),
                    unsatisfiable_wait()):
        again = canonicalize(program)
        assert again == program
        assert again.name == program.name


def test_canonical_name_is_content_addressed():
    # alias does not participate in the name; content does
    a = handoff(alias="LIT_A")
    b = handoff(alias="LIT_B")
    assert a.name == b.name
    assert a.name.startswith("lit-") and len(a.name) == 14
    assert handoff(rounds=3).name != a.name


def test_canonicalize_renumbers_variables_and_snaps_work():
    # flag 3 is the only one used -> renumbered to 0, unused dropped;
    # work snaps to the 50-cycle grid
    program = LitmusProgram(
        wgs=2,
        scripts=(((WORK, 137), (SET, 3, 1)), ((WAIT, 3, 1),)),
        flags=4)
    canonical = canonicalize(program)
    assert canonical.flags == 1
    assert canonical.scripts[0][1] == (SET, 0, 1)
    assert canonical.scripts[1][0] == (WAIT, 0, 1)
    work = canonical.scripts[0][0]
    assert work[0] == WORK and work[1] % 50 == 0


def test_spec_round_trip():
    for program in (handoff(loss_at_us=1.0, restore_at_us=60.0,
                            alias="LIT_X"),
                    producer_consumer(), unreachable_wait()):
        assert LitmusProgram.from_spec(program.spec()) == program


def test_validate_rejects_wait_inside_critical_section():
    program = LitmusProgram(
        wgs=1,
        scripts=(((ACQUIRE, 0), (WAIT, 0, 1), (RELEASE, 0)),),
        flags=1, mutexes=1)
    with pytest.raises(ConfigError):
        validate_program(program)


def test_validate_rejects_unmatched_release():
    program = LitmusProgram(
        wgs=1, scripts=(((ACQUIRE, 0),),), mutexes=1)
    with pytest.raises(ConfigError):
        validate_program(program)


def test_validate_rejects_flag_rewrite():
    program = LitmusProgram(
        wgs=2,
        scripts=(((SET, 0, 1),), ((SET, 0, 2),)),
        flags=1)
    with pytest.raises(ConfigError):
        validate_program(program)


def test_validate_rejects_guard_on_the_initial_flag_value():
    """Flags start at 0, so an ``if_flag`` guarding on 0 is always taken:
    the guarded wait below would be reached although no static wait
    profile sees it, and a spec must not smuggle it in."""
    guarded = ((IF_FLAG, 0, 0, ((WAIT, 1, 1),)),)
    program = LitmusProgram(
        wgs=3, scripts=(guarded, guarded, ((SET, 1, 1),)),
        flags=2, wgs_per_cu=1)
    with pytest.raises(ConfigError, match="initial flag value 0"):
        validate_program(program)
    with pytest.raises(ConfigError, match="initial flag value 0"):
        LitmusProgram.from_spec(program.spec())


def test_interpreter_ground_truths():
    # every corpus-shaped template terminates under full fairness...
    for program in (handoff(), producer_consumer(), chain(),
                    chain(forward=False), barrier_subset(),
                    barrier_subset(participants=3), unreachable_wait()):
        assert interpret(program).terminated, program.name
    # ...except the unsatisfiable wait
    result = interpret(unsatisfiable_wait())
    assert not result.terminated
    assert 0 in result.blocked


def test_interpreter_fair_subset_blocks_on_outside_satisfier():
    program = producer_consumer(consumers=2)
    producer = program.wgs - 1
    result = interpret(program, fair=set(range(producer)))
    assert not result.terminated
    assert all(w in result.blocked for w in range(producer))


def test_interpreter_counts_wait_entries():
    assert interpret(unreachable_wait()).waits_reached == 0
    assert interpret(producer_consumer(consumers=2)).waits_reached >= 2


def test_random_corpus_is_deterministic_and_valid():
    a = random_corpus(seed=7, count=10)
    b = random_corpus(seed=7, count=10)
    assert [p.spec() for p in a] == [p.spec() for p in b]
    assert len({p.name for p in a}) == len(a)
    for program in a:
        validate_program(program)
        assert program == canonicalize(program)
    assert random_corpus(seed=8, count=10)[0].name != a[0].name or \
        len({p.name for p in random_corpus(seed=8, count=10)} -
            {p.name for p in a}) > 0


def test_random_program_seeds_differ():
    names = {random_corpus(seed=s, count=3)[0].name for s in range(5)}
    assert len(names) > 1
