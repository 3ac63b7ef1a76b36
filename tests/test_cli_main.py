"""CLI ``main()`` execution tests with a stubbed experiment context so
the heavy fits never run."""

from types import SimpleNamespace

import pytest

import repro.cli as cli
from repro.hw import FaultProfile


class _FakePlan:
    def summary(self):
        return "fake power view: block 0 -> level 5"


class _FakeLens:
    def analyze(self, graph):
        return _FakePlan()


class _FakeContext:
    lens = _FakeLens()

    def graph(self, name):
        return SimpleNamespace(name=name)


class _FakeResult:
    def format_table(self):
        return "fake table output"


@pytest.fixture()
def stubbed(monkeypatch):
    fake_ctx = _FakeContext()
    monkeypatch.setattr("repro.experiments.common.get_context",
                        lambda *a, **k: fake_ctx)
    import repro.experiments as experiments
    for name in ("run_table1", "run_table2", "run_table3",
                 "run_figure1", "run_figure5"):
        monkeypatch.setattr(experiments, name,
                            lambda *a, **k: _FakeResult())
    return fake_ctx


def test_analyze_command(stubbed, capsys):
    assert cli.main(["analyze", "--model", "vgg19"]) == 0
    assert "fake power view" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["table1", "table2", "table3",
                                     "figure1", "figure5"])
def test_table_commands_print_tables(stubbed, capsys, command):
    assert cli.main([command]) == 0
    assert "fake table output" in capsys.readouterr().out


def test_accuracy_command(monkeypatch, capsys):
    class _FakeAccuracy:
        def format_table(self):
            return "accuracy table"
    import repro.experiments as experiments
    monkeypatch.setattr(experiments, "run_accuracy",
                        lambda *a, **k: _FakeAccuracy())
    assert cli.main(["accuracy", "--networks", "5"]) == 0
    assert "accuracy table" in capsys.readouterr().out


def _no_fit(*args, **kwargs):
    raise AssertionError("a bad --fault-profile must fail before fitting")


@pytest.mark.parametrize("argv", [["robustness", "--adaptive"],
                                  ["robustness"], ["ledger"],
                                  ["serve-sim"]],
                         ids=["robustness-adaptive", "robustness",
                              "ledger", "serve-sim"])
def test_bad_fault_profile_exits_2_before_fitting(monkeypatch, capsys,
                                                  argv):
    monkeypatch.setattr("repro.experiments.common.get_context", _no_fit)
    monkeypatch.setattr(
        "repro.experiments.adaptive.run_adaptive_retention", _no_fit)
    assert cli.main(argv + ["--fault-profile", "bogus=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"powerlens {argv[0]}: unknown fault-profile "
                          f"field 'bogus'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, spec, expected", [
    # robustness leaves "representative" to the sweep, which sizes the
    # thermal-cap window from the measured fault-free run.
    ("robustness", "representative", None),
    ("robustness", "rep", None),
    ("robustness", "none", FaultProfile.none()),
    ("ledger", "none", None),
    ("ledger", "", None),
    ("ledger", "representative", FaultProfile.representative()),
    ("serve-sim", "none", None),
    ("serve-sim", "switch_drop_rate=0.1",
     FaultProfile(switch_drop_rate=0.1)),
])
def test_fault_profile_defaults_per_command(command, spec, expected):
    args = SimpleNamespace(command=command, fault_profile=spec)
    assert cli._fault_profile(args) == expected


def test_accuracy_on_one_network_reports_no_test_accuracy(capsys):
    """One network splits 1/0/0: the hyper-parameter model has an empty
    test split, which the table reports as such instead of as 0 %, and
    every line names its own test count."""
    assert cli.main(["accuracy", "--networks", "1", "--no-cache"]) == 0
    out = capsys.readouterr().out.splitlines()
    table = out[next(i for i, line in enumerate(out)
                     if line.startswith("Prediction model")):]
    assert table[2] == ("clustering hyperparameter model: n/a (0 test "
                        "samples) exact / n/a (0 test samples) "
                        "scheme-equivalent (paper: 92.6%; 0 test samples)")
    assert table[3].startswith("decision model:")
    assert table[3].endswith(" test samples)")
    assert all(line.endswith(" test samples)") for line in table[4:6])
