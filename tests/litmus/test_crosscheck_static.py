"""Satellite cross-check: litmus verdicts vs the static 96-cell table.

The static analyzer (PR 8) claims MUST_COMPLETE / MAY_DEADLOCK for
every (benchmark, policy) cell; the litmus oracle derives its
expectations from the *same* ``repro.analysis.specs`` rules. This
suite pins the soundness direction on the litmus corpus: a cell the
static reasoning calls MUST_COMPLETE may never produce an observed hang
or a violation of the policy's claimed progress model. The benchmark
table's side is ``tests/integration/test_policy_differential.py``.
"""

from repro.analysis.specs import MUST_COMPLETE, table_policies
from repro.litmus.corpus import litmus_corpus
from repro.litmus.models import VIOLATED, claimed_model
from repro.litmus.oracle import run_corpus

_REPORT = None


def full_table_report():
    global _REPORT
    if _REPORT is None:
        _REPORT = run_corpus(litmus_corpus(), table_policies(), seed=1)
    return _REPORT


def test_full_policy_table_has_no_contract_violations():
    # 13 programs x all 8 table policies: no MUST_COMPLETE cell hangs.
    report = full_table_report()
    assert report.ok, report.contract_violations
    assert len(report.runs) == len(litmus_corpus()) * len(table_policies())


def test_no_must_complete_cell_violates_the_claimed_model():
    # Stronger than completion: on a MUST_COMPLETE cell the observed
    # schedule must also satisfy the model the policy claims (IFP for
    # context-switching policies, OBE for occupancy-bound ones).
    policies = {p.name: p for p in table_policies()}
    for run in full_table_report().runs:
        if run.expected != MUST_COMPLETE:
            continue
        model = claimed_model(policies[run.policy])
        assert run.judgments[model].verdict != VIOLATED, (
            run.program.label, run.policy, model)


def test_ifp_policies_never_violate_ifp_anywhere():
    # Even on MAY_DEADLOCK cells (e.g. the unsatisfiable wait), an IFP
    # policy's hang must be one the IFP model allows — the paper's
    # guarantee is unconditional on the litmus machine.
    policies = {p.name: p for p in table_policies()}
    for run in full_table_report().runs:
        if not policies[run.policy].provides_ifp:
            continue
        assert run.judgments["IFP"].verdict != VIOLATED, (
            run.program.label, run.policy)
