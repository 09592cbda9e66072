"""Cross-subcommand consistency of the shared CLI flags.

``--sa-table``, ``--jobs``, ``--map-effort`` and the MCTS flags appear
on several subcommands; they are declared once (knob flags in the knob
table, :mod:`repro.flow.knobs`; the rest in shared helpers of
:mod:`repro.cli`), and these tests pin that a subcommand cannot
silently drift to different defaults or accept values its siblings
reject. The retired engine flags must stay rejected everywhere.
"""

import argparse
import os
import re

import pytest

from repro.binding import SATable
from repro.binding.sa_table import SHIPPED_TABLE_PATH
from repro.cli import _knob_spec_fields, build_parser, main
from repro.flow import SweepSpec, expand_grid
from repro.flow.executor import _flow_config
from repro.flow.knobs import KNOBS
from repro.techmap import MAP_EFFORTS
from tests.knob_values import cli_bad_tokens, other_value

#: Subcommands carrying each shared flag.
SHARED_FLAGS = {
    "--sa-table": ("bench", "suite", "sweep", "estimate", "corpus",
                   "serve"),
    "--jobs": ("bench", "suite", "sweep", "estimate", "corpus", "serve"),
    "--map-effort": ("bench", "suite", "sweep", "estimate", "corpus"),
    "--mcts-budget": ("bench", "suite", "sweep", "estimate", "corpus",
                      "synth"),
    "--mcts-seed": ("bench", "suite", "sweep", "estimate", "corpus",
                    "synth"),
}

#: Subcommands where the flag is a comma-separated grid axis rather
#: than a scalar choice.
AXIS_SUBCOMMANDS = {"sweep"}


def _subparsers(parser):
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _flag_action(subparser, flag):
    for action in subparser._actions:
        if flag in action.option_strings:
            return action
    raise AssertionError(f"{flag} missing")


@pytest.fixture(scope="module")
def commands():
    return _subparsers(build_parser())


@pytest.mark.parametrize("flag", sorted(SHARED_FLAGS))
def test_flag_present_with_identical_default(commands, flag):
    defaults = {}
    for name in SHARED_FLAGS[flag]:
        defaults[name] = _flag_action(commands[name], flag).default
    assert len(set(defaults.values())) == 1, defaults


@pytest.mark.parametrize("flag, choices", [("--map-effort", MAP_EFFORTS)])
def test_choice_flags_share_vocabulary(commands, flag, choices):
    for name in SHARED_FLAGS[flag]:
        action = _flag_action(commands[name], flag)
        if name in AXIS_SUBCOMMANDS:
            # Axis flags validate through their type callable: every
            # canonical choice parses, anything else is rejected.
            assert action.type(",".join(choices)) == list(choices)
            with pytest.raises(argparse.ArgumentTypeError):
                action.type("bogus")
            with pytest.raises(argparse.ArgumentTypeError):
                action.type(",")
        else:
            assert tuple(action.choices) == tuple(choices)


#: Every retired engine flag (11 of them) and the subcommands that took it.
RETIRED_FLAGS = [
    (command, flag, value)
    for flag, value, commands in (
        ("--bind-engine", "fast",
         ("bench", "suite", "sweep", "estimate", "corpus")),
        ("--elab-engine", "fast",
         ("bench", "suite", "sweep", "estimate", "corpus")),
        ("--sim-kernel", "event", ("sweep",)),
    )
    for command in commands
]


@pytest.mark.parametrize("command, flag, value", RETIRED_FLAGS)
def test_retired_engine_flags_rejected(command, flag, value, capsys):
    argv = [command] + (["chem"] if command == "bench" else [])
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv + [flag, value])
    assert exit_info.value.code == 2  # argparse usage error
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "sweep", "estimate"])
def test_reference_map_effort_rejected(command, capsys):
    argv = [command] + (["chem"] if command == "bench" else [])
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv + ["--map-effort", "reference"])
    assert exit_info.value.code == 2
    assert "reference" in capsys.readouterr().err


def test_axis_defaults_parse_to_single_value(commands):
    # argparse runs string defaults through `type`, so the default of
    # an axis flag must itself be a valid axis.
    action = _flag_action(commands["sweep"], "--map-effort")
    assert action.type(action.default) == [action.default]


def test_sweep_sim_batch_flag(commands):
    action = _flag_action(commands["sweep"], "--sim-batch")
    assert action.default == SweepSpec.sim_batch
    assert action.type is int


def test_mcts_flag_defaults_match_sweep_spec(commands):
    # The CLI defaults and the SweepSpec/FlowConfig defaults must be
    # the same numbers, or `repro sweep` and a hand-built spec would
    # fingerprint (and cache) differently.
    for name in SHARED_FLAGS["--mcts-budget"]:
        budget = _flag_action(commands[name], "--mcts-budget")
        seed = _flag_action(commands[name], "--mcts-seed")
        assert budget.default == SweepSpec.mcts_budget
        assert seed.default == SweepSpec.mcts_seed
        assert budget.type is int and seed.type is int


def test_parsed_namespaces_agree():
    parser = build_parser()
    sweep = parser.parse_args(["sweep"])
    estimate = parser.parse_args(["estimate"])
    corpus = parser.parse_args(["corpus"])
    bench = parser.parse_args(["bench", "chem"])
    assert (sweep.sa_table == estimate.sa_table == corpus.sa_table
            == bench.sa_table)
    assert sweep.jobs == estimate.jobs == corpus.jobs == bench.jobs == 1
    # Axis flags resolve to one-element lists of the scalar default.
    assert sweep.map_effort == [estimate.map_effort] == [bench.map_effort]
    assert sweep.sim_batch == SweepSpec.sim_batch


#: The repository root: the shipped SA table path is relative to it.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A cheap sweep whose ``--precalc-mux 3`` computes SA entries the
#: shipped table lacks (add/mult 1x3).
_PRECALC_SWEEP = ["sweep", "--benchmarks", "pr", "--binders", "lopass",
                  "--widths", "4", "--flow", "estimate", "--precalc-mux", "3"]


def _precalculated(stdout: str) -> int:
    return int(re.search(r"SA table: (\d+) precalculated", stdout).group(1))


def test_default_sa_table_is_read_only(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    with open(SHIPPED_TABLE_PATH, "rb") as handle:
        shipped = handle.read()
    assert main(_PRECALC_SWEEP) == 0
    assert _precalculated(capsys.readouterr().out) > 0
    with open(SHIPPED_TABLE_PATH, "rb") as handle:
        assert handle.read() == shipped


def test_explicit_sa_table_is_written_back(tmp_path, capsys):
    path = tmp_path / "sa.txt"
    assert main(_PRECALC_SWEEP + ["--sa-table", str(path)]) == 0
    added = _precalculated(capsys.readouterr().out)
    assert added > 0
    assert len(SATable().load(str(path))) == added


# ---------------------------------------------------------------------------
# Knob flags are derived from the knob table (repro.flow.knobs); the
# tests below are parametrized over KNOBS so a new row is covered
# without editing them.
# ---------------------------------------------------------------------------

#: Every subcommand's flags. Deriving knob flags from the table must
#: neither add nor drop an option.
FLAGS = {
    "bench": {"--alpha", "--jobs", "--map-effort", "--mcts-budget",
              "--mcts-seed", "--sa-table", "--vectors", "--width"},
    "suite": {"--alpha", "--jobs", "--map-effort", "--mcts-budget",
              "--mcts-seed", "--sa-table", "--vectors", "--width"},
    "sweep": {"--alphas", "--baseline", "--benchmarks", "--binders",
              "--cache-dir", "--design", "--flow", "--idle-modes",
              "--jitters", "--jobs", "--map-effort", "--mcts-budget",
              "--mcts-seed", "--no-cache", "--out", "--precalc-mux",
              "--sa-table", "--scheduler", "--seeds", "--sim-batch",
              "--vectors", "--widths"},
    "estimate": {"--alphas", "--baseline", "--benchmarks", "--binders",
                 "--design", "--jobs", "--map-effort", "--mcts-budget",
                 "--mcts-seed", "--out", "--sa-table", "--width"},
    "corpus": {"--alphas", "--binders", "--families", "--flow", "--jobs",
               "--limit", "--list", "--map-effort", "--mcts-budget",
               "--mcts-seed", "--no-oracle", "--out", "--profile",
               "--sa-table", "--width"},
    "serve": {"--cache-dir", "--cache-entries", "--host", "--jobs",
              "--port", "--sa-table"},
    "synth": {"--binder", "--mcts-budget", "--mcts-seed", "--scheduler",
              "--vhdl", "--width"},
    "profiles": set(),
}


def _argv(command):
    return [command] + (["pr"] if command in ("bench", "synth") else [])


def _knob_flag_cases():
    """(knob, command, flag, is_axis) for every knob flag."""
    out = []
    for knob in KNOBS.values():
        out += [(knob.name, c, knob.flag, False) for c in knob.commands]
        out += [(knob.name, c, knob.axis_flag, True)
                for c in knob.axis_commands]
    return out


def test_subcommand_flags_unchanged(commands):
    actual = {
        name: {a.option_strings[0] for a in parser._actions
               if a.option_strings and a.option_strings[0] != "-h"}
        for name, parser in commands.items()
    }
    assert actual == FLAGS


@pytest.mark.parametrize("name, command, flag, axis", _knob_flag_cases())
def test_knob_flag_default_is_the_table_default(commands, name, command,
                                                flag, axis):
    knob = KNOBS[name]
    action = _flag_action(commands[command], flag)
    assert action.dest == name
    if axis:
        assert action.type(action.default) == [knob.default]
    else:
        assert action.default == knob.default


@pytest.mark.parametrize("name, command, flag, axis", _knob_flag_cases())
def test_knob_flag_value_reaches_the_flow(name, command, flag, axis):
    knob = KNOBS[name]
    value = other_value(knob)
    args = build_parser().parse_args(_argv(command) + [flag, str(value)])
    if command == "synth":  # builds an HLSConfig, not a sweep
        assert getattr(args, name) == value
        return
    spec = SweepSpec(benchmarks=["pr"], binders=("mcts",), baseline="none",
                     **_knob_spec_fields(args))
    job = expand_grid(spec)[0]
    target = _flow_config(job, spec, None) if knob.config else spec
    assert getattr(target, name) == value


@pytest.mark.parametrize(
    "name, command, flag, token",
    [(name, command, flag, token)
     for name, command, flag, _ in _knob_flag_cases()
     for token in cli_bad_tokens(KNOBS[name])],
)
def test_malformed_knob_flag_is_a_parse_error(name, command, flag, token,
                                              capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(_argv(command) + [f"{flag}={token}"])
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--jitters", "a"], ["sweep", "--jitters", "1.5"],
    ["sweep", "--widths", "0"], ["sweep", "--vectors", "0"],
    ["sweep", "--alphas", "x"], ["sweep", "--alphas", "nan"],
    ["sweep", "--alphas=-3.0"], ["sweep", "--map-effort", ","],
    ["sweep", "--sim-batch", "x"], ["sweep", "--seeds", "x"],
    ["sweep", "--seeds", "7,x"], ["sweep", "--seeds", "0"],
    ["bench", "pr", "--width", "0"], ["estimate", "--width", "0"],
])
def test_reported_cases_exit_with_error(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    assert "error:" in capsys.readouterr().err
