"""The committed ``results/*.txt`` tables, their shape checks, and the
docs that quote them.

Regenerating a simulated table takes seconds to minutes, so these tests
parse the committed tables back into results instead: each must pass
its module's ``check``, a mutated one must fail ``python -m repro`` with
the artifact named, and EXPERIMENTS.md must quote the headline numbers
as the tables render them. ``make bench`` (a CI step) regenerates the
tables for real and diffs them against the committed files.
"""

import re
from pathlib import Path

import pytest

from repro import cli
from repro.cli import ARTIFACTS, EXPERIMENTS, main
from repro.experiments import ExperimentResult
from repro.experiments.report import fmt

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"

#: artifacts whose run simulates a sweep, too slow to regenerate here
SIMULATED = sorted(name for name, art in ARTIFACTS.items() if art.sweeps)


def _cell(text):
    if text == "-":
        return None
    number = text.replace(",", "")
    for kind in (int, float):
        try:
            return kind(number)
        except ValueError:
            pass
    return text


def committed(name: str) -> ExperimentResult:
    """``results/<name>.txt`` parsed back into an ExperimentResult."""
    title, header, _rule, *lines = \
        (RESULTS / f"{name}.txt").read_text().splitlines()
    row_label, *columns = re.split(r"\s{2,}", header.strip())
    result = ExperimentResult(title=title[3:-3], columns=columns,
                              row_label=row_label)
    for line in lines:
        if line.startswith("note: "):
            result.notes.append(line[len("note: "):])
            continue
        key, *cells = re.split(r"\s{2,}", line.strip())
        result.add_row(key, **dict(zip(columns, map(_cell, cells))))
    return result


@pytest.mark.parametrize("name", SIMULATED)
def test_committed_table_passes_its_check(name):
    result = committed(name)
    # the parse is faithful: it renders back to the committed bytes
    assert result.render() + "\n" == (RESULTS / f"{name}.txt").read_text()
    ARTIFACTS[name].check(result)


@pytest.mark.parametrize("name", ["table1", "fig5"])
def test_out_writes_the_committed_table(name, tmp_path):
    # neither simulates, so the real run is cheap; the check runs too
    assert main([name, "--out", str(tmp_path)]) == 0
    assert ((tmp_path / f"{name}.txt").read_bytes()
            == (RESULTS / f"{name}.txt").read_bytes())


#: one mutation per check family: (row, column, value that breaks it)
MUTATIONS = {
    "fig14": ("SPM_G", "AWG", 5.0),  # the centralized win is > 10x
    "fig15": ("GeoMean", "AWG", 1.5),  # AWG beats Timeout by > 2x
    "ablation_stall": ("SPM_G", "stall saves switches", 0),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_failed_check_fails_the_run_and_names_the_artifact(
        name, monkeypatch, tmp_path, capsys):
    row, column, value = MUTATIONS[name]
    mutated = committed(name)
    mutated.data[row][column] = value
    with pytest.raises(AssertionError):
        ARTIFACTS[name].check(mutated)

    # every simulated artifact returns its committed table, this one
    # the mutated table; table1 and fig5 run for real
    for other in SIMULATED:
        result = mutated if other == name else committed(other)
        monkeypatch.setitem(cli.ARTIFACTS, other, ARTIFACTS[other]._replace(
            run=lambda *args, _result=result, **kw: _result))

    assert main(["all", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"FAILED {name} shape check" in err
    assert err.count("shape check:") == 1
    written = {path.stem for path in tmp_path.glob("*.txt")}
    assert written == set(ARTIFACTS)
    for other in written - {name}:
        assert ((tmp_path / f"{other}.txt").read_bytes()
                == (RESULTS / f"{other}.txt").read_bytes()), other

    command = name if name in EXPERIMENTS else "ablations"
    assert main([command]) == 1
    assert f"FAILED {name} shape check" in capsys.readouterr().err
    # --quick runs check nothing
    assert main([command, "--quick"]) == 0


@pytest.mark.parametrize("name", ["fig14", "fig15"])
def test_experiments_md_quotes_the_committed_awg_geomean(name):
    geomean = fmt(committed(name).data["GeoMean"]["AWG"])
    text = (ROOT / "EXPERIMENTS.md").read_text()
    assert f"AWG GeoMean {geomean}×" in text
