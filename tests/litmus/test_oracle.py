"""The oracle end-to-end: simulator runs judged against the models,
static expectations enforced, determinism, and corpus lookup."""

import pytest

from repro.core.policies import awg, baseline, monnr_one, timeout
from repro.litmus.corpus import get_litmus, litmus_corpus, litmus_names
from repro.litmus.models import IFP, OBE, SATISFIED, VACUOUS, VIOLATED
from repro.litmus.oracle import golden_policies, run_corpus, run_litmus


def test_acceptance_witness_obe_violated_ifp_satisfied():
    # The ISSUE acceptance property, as a single program: under
    # Baseline the loss window evicts started WGs that are never
    # restored — OBE's own fair set would have finished the run, so
    # the hang violates OBE. The same program completes under the
    # paper's AWG policy, satisfying IFP.
    program = get_litmus("LIT_HANDOFF_LOSS")
    under_baseline = run_litmus(program, baseline())
    assert not under_baseline.outcome.ok
    assert under_baseline.judgments[OBE].verdict == VIOLATED
    under_awg = run_litmus(program, awg())
    assert under_awg.outcome.ok
    assert under_awg.judgments[IFP].verdict == SATISFIED


def test_occupancy_cycle_allowed_by_obe_forbidden_by_ifp():
    # The other direction of distinguishability: the oversubscribed
    # producer/consumer hangs under Baseline with the producer never
    # started — allowed by OBE (producer outside the fair set), a
    # violation of the IFP model.
    program = get_litmus("LIT_PRODCONS_OVER")
    run = run_litmus(program, baseline())
    assert not run.outcome.ok
    assert run.judgments[OBE].verdict == SATISFIED
    assert run.judgments[IFP].verdict == VIOLATED


def test_vacuous_program_reports_vacuous_under_every_model():
    # Satellite: an unreachable wait must yield `vacuous`, not
    # `satisfied`, under every model and every golden policy — the
    # guard against trivially-passing generated programs.
    program = get_litmus("LIT_VACUOUS")
    for policy in golden_policies():
        run = run_litmus(program, policy)
        assert run.outcome.ok
        for model, judgment in run.judgments.items():
            assert judgment.verdict == VACUOUS, (policy.name, model)


def test_unsatisfiable_wait_hangs_but_satisfies_all_models():
    program = get_litmus("LIT_UNSAT")
    for policy in (baseline(), awg()):
        run = run_litmus(program, policy)
        assert not run.outcome.ok
        for judgment in run.judgments.values():
            assert judgment.verdict == SATISFIED
        assert run.expected == "MAY_DEADLOCK"
        assert run.contract_violation is None


def test_ifp_policies_complete_whole_corpus_except_unsat():
    for policy in (timeout(20_000), monnr_one(), awg()):
        for program in litmus_corpus():
            run = run_litmus(program, policy)
            if program.alias == "LIT_UNSAT":
                assert not run.outcome.ok, policy.name
            else:
                assert run.outcome.ok, (program.alias, policy.name,
                                        run.outcome.reason)
            assert run.contract_violation is None


def test_corpus_report_clean_and_distinguishable(quick_litmus_run):
    rc, document = quick_litmus_run
    assert rc == 0
    assert document["summary"]["contract_violations"] == []
    assert document["summary"]["models_distinguishable"] is True
    assert document["policies"] == [p.name for p in golden_policies()]
    # the whole corpus, plus the generated programs of the quick run
    names = {p["alias"] for p in document["programs"]}
    assert set(litmus_names()) <= names
    assert len(document["programs"]) > len(litmus_names())
    assert document["summary"]["runs"] == (
        len(document["programs"]) * len(golden_policies()))


def test_oracle_bit_reproducible():
    programs = [get_litmus("LIT_HANDOFF_LOSS"), get_litmus("LIT_PRODCONS_OVER"),
                get_litmus("LIT_VACUOUS")]
    policies = [baseline(), awg()]
    first = run_corpus(programs, policies, seed=3).to_dict()
    second = run_corpus(programs, policies, seed=3).to_dict()
    assert first == second


def test_observer_reconstructs_completed_schedule():
    program = get_litmus("LIT_HANDOFF")
    run = run_litmus(program, awg())
    schedule = run.schedule
    assert schedule.terminated
    assert schedule.started == schedule.completed == frozenset(
        range(program.wgs))
    assert schedule.pcs == tuple(len(s) for s in program.scripts)
    # 2 rounds x 4 WGs of lock acquisitions, all observed
    assert schedule.waits_executed == 8
    # final memory: the critical-section counter reached 8, lock free
    assert schedule.counters == (8,)
    assert schedule.locks == (0,)


def test_litmus_names_are_not_benchmarks():
    # a litmus program runs only through run_litmus, on its own 2-CU
    # machine and loss window; the benchmark path would drop both
    from repro.errors import ConfigError
    from repro.experiments import QUICK_SCALE, run_benchmark

    for name in ("LIT_HANDOFF", get_litmus("LIT_HANDOFF").name):
        with pytest.raises(ConfigError, match="unknown benchmark"):
            run_benchmark(name, baseline(), QUICK_SCALE, validate=False)


def test_unknown_litmus_name_raises():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        get_litmus("LIT_NOPE")
