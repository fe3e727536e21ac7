"""Every single-leaf change to a shipped input file is a clean outcome.

Each leaf of a fixture is set in turn to one of eleven changes (null,
true, a string, the empty string, 0, -1, 1e-300, 1e308, an empty array,
an empty object, or the key deleted) and a command runs on the result
through ``cli.main``. The sweep is exhaustive, not random, and every
outcome must hold three things: ``main`` returns 0, 1 or 2 and nothing
escapes it; an input error (exit 2) names the changed file; and a value
of another JSON kind than the one it replaces is never accepted (exit 0).
"""

import copy
import json
from functools import reduce
from operator import getitem

import pytest

from feederprot.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, main
from feederprot.netfile import fixtures_dir

DELETE = object()
CHANGES = (None, True, "x", "", 0, -1, 1e-300, 1e308, [], {}, DELETE)
COMMANDS = (["powerflow"], ["fault", "--at", "node:2"], ["coordinate"],
            ["optimize"], ["timeseries"])
# case B's start settings: each recloser's coordinating curve on ieee37
SETTINGS = {"RLY": {"pickup": 2.3, "time_dial": 0.8},
            "R1": {"pickup": 1.6, "time_dial": 0.3},
            "R2": {"pickup": 0.9, "time_dial": 0.2},
            "R3": {"pickup": 0.3, "time_dial": 0.1}}


def kind(value) -> str:
    """The JSON kind of a value; an integer and a float are both numbers."""
    return {bool: "boolean", int: "number", float: "number", str: "string",
            list: "array", dict: "object"}.get(type(value), "null")


def leaves(doc, path=()):
    """The key path of every scalar in a JSON document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from leaves(value, path + (key,))
    else:
        yield path


def mutants(doc):
    """(path, change, changed kind, document) for every leaf and change;
    a change that writes the leaf's own JSON text is skipped."""
    for path in leaves(doc):
        *parents, last = path
        for change in CHANGES:
            new = copy.deepcopy(doc)
            entry = reduce(getitem, parents, new)
            old = entry[last]
            if change is DELETE:
                del entry[last]
            elif json.dumps(change) == json.dumps(old):
                continue
            else:
                entry[last] = change
            yield path, change, change is not DELETE and \
                kind(change) != kind(old), new


def sweep(tmp_path, capsys, name, commands, through):
    """Run every mutant of fixture ``name`` under each command.

    ``through`` maps the changed file's path to the input arguments that
    read it. Returns one line per outcome that breaks a rule."""
    doc = (SETTINGS if name == "settings.json"
           else json.loads((fixtures_dir() / name).read_text()))
    work = tmp_path / name.replace(".", "_")  # no fixture beside it
    work.mkdir()
    path = work / name
    out = ["--out-dir", str(work / "out")]
    # a command that rejects the unchanged input says nothing of a change,
    # as timeseries without a profile
    path.write_text(json.dumps(doc))
    commands = [command for command in commands
                if main(command + through(path) + out) != EXIT_INPUT]
    capsys.readouterr()
    broken = []
    for where, change, kind_changed, new in mutants(doc):
        path.write_text(json.dumps(new))
        for command in commands:
            case = f"{command[0]} {name} {where} = {change!r}"
            try:
                code = main(command + through(path) + out)
            except Exception as exc:  # a traceback out of main
                broken.append(f"{case}: raised {exc!r}")
                capsys.readouterr()
                continue
            err = capsys.readouterr().err
            if code not in (EXIT_OK, EXIT_INFEASIBLE, EXIT_INPUT):
                broken.append(f"{case}: exit {code}")
            elif code == EXIT_INPUT and str(path) not in err:
                broken.append(f"{case}: error names no file: {err!r}")
            elif code == EXIT_OK and kind_changed:
                broken.append(f"{case}: wrong kind accepted")
    return broken


def network(path):
    return ["--network", str(path)]


def scenario(path):
    return ["--scenario", str(path)]


def case_b_from(path):
    """Case B started from the settings file at path."""
    doc = json.loads((fixtures_dir() / "ieee37_case_b.json").read_text())
    doc["network"] = str(fixtures_dir() / doc["network"])
    doc["initial_settings"] = str(path)
    carrier = path.parent / "scenario.json"
    carrier.write_text(json.dumps(doc))
    return scenario(carrier)


def test_every_leaf_change_to_the_five_node_files(tmp_path, capsys):
    broken = (sweep(tmp_path, capsys, "five_node.json", COMMANDS[:1],
                    network)
              + sweep(tmp_path, capsys, "five_node_scenario.json",
                      COMMANDS[:1], scenario))
    assert not broken, "\n".join(broken)


@pytest.mark.deep
@pytest.mark.parametrize("name, through", [
    ("five_node.json", network), ("ieee37.json", network),
    ("five_node_scenario.json", scenario),
    ("ieee37_case_b.json", scenario), ("settings.json", case_b_from)])
def test_every_leaf_change_under_every_command(tmp_path, capsys, name,
                                               through):
    broken = sweep(tmp_path, capsys, name, COMMANDS, through)
    assert not broken, "\n".join(broken)
