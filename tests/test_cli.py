"""Command-line interface: exit codes, artifacts, and reproducibility."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from feederprot import cli, netfile
from feederprot import fault as flt
from feederprot import optimizer as opt
from feederprot.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, main
from feederprot.netfile import dump_settings, fixtures_dir, load_scenario

FIVE_NODE = str(fixtures_dir() / "five_node_scenario.json")
CASE_A = str(fixtures_dir() / "ieee37_case_a.json")
CASE_B = fixtures_dir() / "ieee37_case_b.json"

# a value that is not a finite number, where it enters, and the element
# the input error names: keys into the five-node network file, the
# --tol flag, or a step of case B's profile for DG unit 4
NON_FINITE = {
    "dg-p": ("powerflow", ("dg", 0, "p"), math.nan, "dg[1]"),
    "dg-rating": ("powerflow", ("dg", 0, "rating"), math.nan, "dg[1]"),
    "dg-xd2": ("powerflow", ("dg", 0, "params", "xd2"), math.inf, "dg[1]"),
    "section-r": ("powerflow", ("sections", 1, "r"), math.inf, "section[1]"),
    # an integer past the float range reads as infinite, as 1e400 does
    "section-x-int": ("powerflow", ("sections", 1, "x"), -10 ** 400,
                      "section[1]"),
    "lateral-q": ("powerflow", ("laterals", 0, "q"), math.nan, "lateral[1]"),
    "source-x": ("powerflow", ("source", "x"), math.nan, "source"),
    "bases-kv": ("powerflow", ("bases", "kv"), math.inf, "bases"),
    "pickup": ("coordinate", ("reclosers", 2, "curves", 0, "pickup"),
               math.nan, "reclosers[2].curves[0]"),
    "tol-nan": ("powerflow", "--tol", math.nan, "tol"),
    "tol-inf": ("powerflow", "--tol", math.inf, "tol"),
    "profile": ("timeseries", "profile", math.nan, "dg[4]"),
}

# a JSON value that is not an object where one must be: the file it
# goes into, the key it replaces there (none: the whole document), and
# the key the input error names after the file
NON_OBJECT = {
    "profile": ("scenario", ("profile",), [[0.1]], ":profile"),
    "cadence": ("scenario", ("cadence",), 5, ":cadence"),
    "tolerances": ("scenario", ("tolerances",), 1, ":tolerances"),
    "margins": ("scenario", ("margins",), [1, 2], ":margins"),
    "bases": ("network", ("bases",), [1, 2], ":bases"),
    "section": ("network", ("sections", 1), 5, ":sections[1]"),
    "settings-file": ("settings", (), [1, 2], ""),
    "settings-entry": ("settings", ("R1",), 5, ":R1"),
}
# the same for a JSON value that is not an array where one must be
NON_ARRAY = {
    "sections": ("network", ("sections",), 5, ":sections"),
    "laterals": ("network", ("laterals",), {"id": 1}, ":laterals"),
    "dg": ("network", ("dg",), "dg", ":dg"),
    "reclosers": ("network", ("reclosers",), 2.5, ":reclosers"),
    "curves": ("network", ("reclosers", 1, "curves"), {"tag": "fast"},
               ":reclosers[1].curves"),
}


class TestExitCodes:
    def test_powerflow_ok(self, tmp_path):
        assert main(["powerflow", "--scenario", FIVE_NODE,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "powerflow_nodes.csv").exists()
        assert (tmp_path / "powerflow_sections.csv").exists()

    def test_fault_ok(self, tmp_path):
        assert main(["fault", "--scenario", FIVE_NODE, "--at", "node:2",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "fault.csv").exists()

    def test_coordinate_flags_stock_settings(self, tmp_path):
        # shipped settings were designed without DG; with the fixture's
        # DG in service some margins no longer hold
        assert main(["coordinate", "--scenario", FIVE_NODE,
                     "--out-dir", str(tmp_path)]) == EXIT_INFEASIBLE
        body = (tmp_path / "coordination.csv").read_text()
        assert "margin_violated" in body

    def test_optimize_recovers_coordination(self, tmp_path):
        assert main(["optimize", "--scenario", FIVE_NODE,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        settings = json.loads((tmp_path / "settings_final.json").read_text())
        assert set(settings) == {"RLY", "R1", "R2"}
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "dispatch_final.csv").exists()

    def test_missing_inputs_are_input_errors(self, tmp_path, capsys):
        out = ["--out-dir", str(tmp_path)]
        assert main(["powerflow"] + out) == EXIT_INPUT
        assert main(["powerflow", "--scenario", "nope.json"] + out) == EXIT_INPUT
        assert main(["fault", "--scenario", FIVE_NODE,
                     "--at", "bus-7"] + out) == EXIT_INPUT
        assert main(["powerflow", "--scenario", FIVE_NODE,
                     "--curve-family", "no_such"] + out) == EXIT_INPUT
        assert main(["powerflow", "--scenario", FIVE_NODE,
                     "--margins", "wide"] + out) == EXIT_INPUT
        # a fault impedance, given or as the scenario's floor, must be
        # finite and >= 0
        capsys.readouterr()
        out = ["--out-dir", str(tmp_path / "out")]
        for value in ("nan", "-1", "inf"):
            assert main(["fault", "--scenario", FIVE_NODE, "--at", "node:2",
                         f"--impedance={value}"] + out) == EXIT_INPUT
            assert capsys.readouterr().err == (
                "input error: fault impedance must be finite and >= 0, "
                f"got {float(value)!r}\n")
        doc = json.loads(Path(CASE_A).read_text())
        doc["network"] = str(Path(CASE_A).parent / doc["network"])
        for floor in (-0.05, math.nan, math.inf):
            doc["fault_impedance_floor"] = floor
            scenario = tmp_path / "floor.json"
            scenario.write_text(json.dumps(doc))
            assert main(["optimize", "--scenario", str(scenario)] + out) \
                == EXIT_INPUT
            assert capsys.readouterr().err == (
                f"input error: {scenario}: fault_impedance_floor must be "
                f"finite and >= 0, got {floor!r}\n")
        assert not (tmp_path / "out").exists()

    def test_margins_are_input_errors_for_every_command(self, tmp_path,
                                                        capsys):
        # a margin must be finite and > 0, from --margins or the file
        out = ["--out-dir", str(tmp_path / "out")]
        for margins, name, value in (("0,0.3", "fuse_recloser", 0.0),
                                     ("-0.1,0.3", "fuse_recloser", -0.1),
                                     ("nan,0.3", "fuse_recloser", math.nan),
                                     ("0.1,inf", "recloser_recloser",
                                      math.inf)):
            for command in ("coordinate", "optimize"):
                assert main([command, "--scenario", CASE_A,
                             f"--margins={margins}"] + out) == EXIT_INPUT
                assert capsys.readouterr().err == (
                    f"input error: {name} margin must be finite and > 0, "
                    f"got {value!r}\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_fuse_is_an_input_error(self, tmp_path, capsys):
        doc = json.loads((fixtures_dir() / "ieee37.json").read_text())
        lateral = next(lat for lat in doc["laterals"] if lat.get("fuse"))
        lateral["fuse"] = "nosuch"
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        scenario = tmp_path / "scn.json"
        scenario.write_text(json.dumps({"network": str(net)}))
        out = ["--out-dir", str(tmp_path / "out")]
        # through a scenario, its file comes first, then the network's
        for source, where in ((["--network", str(net)], f"{net}"),
                              (["--scenario", str(scenario)],
                               f"{scenario}: {net}")):
            for command in ("coordinate", "optimize"):
                assert main([command] + source + out) == EXIT_INPUT
                assert capsys.readouterr().err == (
                    f"input error: {where}: lateral {lateral['id']}: fuse "
                    f"'nosuch' is not in the fuse table\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_inputs_are_input_errors(self, case, tmp_path, capsys):
        command, where, value, element = NON_FINITE[case]
        if where == "--tol":
            source = ["--scenario", FIVE_NODE, f"--tol={value}"]
        elif where == "profile":
            doc = json.loads(CASE_B.read_text())
            doc["network"] = str(CASE_B.parent / doc["network"])
            doc["profile"]["4"][2] = value
            scenario = tmp_path / "scn.json"
            scenario.write_text(json.dumps(doc))
            source = ["--scenario", str(scenario)]
        else:
            doc = json.loads((fixtures_dir() / "five_node.json").read_text())
            *keys, last = where
            entry = doc
            for key in keys:
                entry = entry[key]
            entry[last] = value
            net = tmp_path / "net.json"
            net.write_text(json.dumps(doc))  # as NaN or Infinity
            source = ["--network", str(net)]
        out = ["--out-dir", str(tmp_path / "out")]
        assert main([command] + source + out) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and element in err, err

    @pytest.mark.parametrize("case", sorted(NON_OBJECT) + sorted(NON_ARRAY))
    def test_non_object_json_is_an_input_error(self, case, tmp_path,
                                               capsys):
        kind = "object" if case in NON_OBJECT else "array"
        where, keys, value, key = {**NON_OBJECT, **NON_ARRAY}[case]
        docs = {"network": json.loads(
                    (fixtures_dir() / "five_node.json").read_text()),
                "settings": {"R1": {"pickup": 1.0, "time_dial": 0.5}},
                "scenario": json.loads(Path(FIVE_NODE).read_text())}
        paths = {name: tmp_path / f"{name}.json" for name in docs}
        docs["scenario"].update(network=str(paths["network"]),
                                initial_settings=str(paths["settings"]))
        if keys:
            *parents, last = keys
            entry = docs[where]
            for k in parents:
                entry = entry[k]
            entry[last] = value
        else:
            docs[where] = value
        for name, doc in docs.items():
            paths[name].write_text(json.dumps(doc))
        assert main(["powerflow", "--scenario", str(paths["scenario"]),
                     "--out-dir", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {paths[where]}{key}: must be a JSON {kind}, got "
            f"{value!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, code", [
        ("p", 1e200, EXIT_INPUT), ("rating", 1e200, EXIT_OK)])
    def test_huge_finite_outputs_and_ratings(self, tmp_path, capsys, key,
                                             value, code):
        # 1e200 is finite, but its square overflows a float: the rating
        # check judges it, an output past the rating as a violation
        doc = json.loads((fixtures_dir() / "five_node.json").read_text())
        doc["dg"][0][key] = value
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        assert main(["powerflow", "--network", str(net),
                     "--out-dir", str(tmp_path / "out")]) == code
        if code == EXIT_INPUT:
            assert capsys.readouterr().err == (
                f"input error: {net}: invalid network: dg[1]: output "
                f"exceeds apparent-power rating\n")

    def test_unconverged_load_flow_is_a_run_failure(self, tmp_path):
        for cmd in (["powerflow"], ["fault", "--at", "node:1"],
                    ["coordinate"], ["optimize"]):
            assert main(cmd + ["--scenario", FIVE_NODE, "--tol", "1e-300",
                               "--out-dir", str(tmp_path)]) \
                == EXIT_INFEASIBLE, cmd[0]

    def test_fault_checks_its_inputs_before_the_flow_converges(
            self, tmp_path, capsys):
        # a load flow that raises fails first, then a bad location or
        # impedance (exit 2), then a load flow that did not converge
        args = ["fault", "--scenario", FIVE_NODE, "--tol", "1e-300",
                "--out-dir", str(tmp_path)]
        assert main(args + ["--at", "node:99"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "input error: 'node 99 not on feeder'\n"
        assert main(args + ["--at", "node:2", "--impedance", "-1"]) \
            == EXIT_INPUT
        assert main(args + ["--at", "node:2"]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err.endswith(
            "run failed: power flow solution did not converge\n")
        # ten times the five-node loads collapse the voltage at node 3
        doc = json.loads((fixtures_dir() / "five_node.json").read_text())
        for lateral in doc["laterals"]:
            lateral["p"] *= 10
            lateral["q"] *= 10
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        assert main(["fault", "--network", str(net), "--at", "node:99",
                     "--out-dir", str(tmp_path)]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == (
            "run failed: voltage collapse at node 3: 0.4125 pu\n")
        assert not (tmp_path / "fault.csv").exists()

    def test_solved_dials_the_model_rejects_are_infeasible(self, tmp_path):
        # at these margins the ladder raises R2's coordinating dial above
        # its slow curve: a verdict on the solved settings, not bad input
        assert main(["optimize", "--scenario", str(CASE_B),
                     "--margins", "0.1,0.48",
                     "--out-dir", str(tmp_path)]) == EXIT_INFEASIBLE
        # step 0 of the profile is enough to reach them in a time series
        doc = json.loads(CASE_B.read_text())
        doc["network"] = str(CASE_B.parent / doc["network"])
        doc["profile"] = {k: v[:1] for k, v in doc["profile"].items()}
        scenario = tmp_path / "step0.json"
        scenario.write_text(json.dumps(doc))
        assert main(["timeseries", "--scenario", str(scenario),
                     "--margins", "0.05,0.45",
                     "--out-dir", str(tmp_path)]) == EXIT_INFEASIBLE
        row = (tmp_path / "timeseries.csv").read_text().splitlines()[1]
        assert row.endswith(",0")

    def test_timeseries_without_floor_dials_is_degraded(self, tmp_path,
                                                         capsys):
        # no load past R2 empties its pickup rule, so no state has floor
        # dials or a slack; started from a settings file, the run still
        # writes every step, degraded, with an empty slack cell, and
        # each failed dispatch leaves unit 1 at its step's ceiling
        net = json.loads((fixtures_dir() / "five_node.json").read_text())
        for lateral in net["laterals"]:
            if lateral["id"] in (3, 4):
                lateral["p"] = lateral["q"] = 0.0
        (tmp_path / "net.json").write_text(json.dumps(net))
        (tmp_path / "settings.json").write_text(json.dumps(
            {"RLY": {"pickup": 1.3, "time_dial": 0.5},
             "R1": {"pickup": 1.0, "time_dial": 0.6},
             "R2": {"pickup": 0.22, "time_dial": 0.4}}))
        doc = json.loads(Path(FIVE_NODE).read_text())
        doc.update(network=str(tmp_path / "net.json"),
                   initial_settings=str(tmp_path / "settings.json"),
                   profile={"1": [0.3, 0.2]})
        scenario = tmp_path / "scn.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["timeseries", "--scenario", str(scenario),
                     "--out-dir", str(out)]) == EXIT_INFEASIBLE
        report = capsys.readouterr().out.splitlines()
        assert report[0] == ("time-series run: 2 steps, dispatch every 1, "
                             "settings every 1")
        assert [line.endswith("feasible False") for line in report[1:3]] \
            == [True, True]
        rows = (out / "timeseries.csv").read_text().splitlines()
        assert rows[0].endswith(",total_clearing_time_s,worst_slack_pu,"
                                "feasible")
        assert len(rows) == 3
        for step, (row, ceiling) in enumerate(zip(rows[1:], (0.3, 0.2))):
            assert row.startswith(f"{step},{ceiling},0.25,0.5,0.6,0.4,")
            assert row.endswith(",,0")

    def partial_settings_scenario(self, tmp_path, settings):
        """The degraded run's five-node scenario, started from a settings
        file that holds the given entries."""
        (tmp_path / "settings.json").write_text(json.dumps(settings))
        doc = json.loads(Path(FIVE_NODE).read_text())
        doc.update(network=str(fixtures_dir() / "five_node.json"),
                   initial_settings=str(tmp_path / "settings.json"),
                   profile={"1": [0.3, 0.2]})
        scenario = tmp_path / "scn.json"
        scenario.write_text(json.dumps(doc))
        return scenario

    def test_settings_file_may_name_some_reclosers(self, tmp_path):
        # R1 and R2 keep the dials of their own coordinating curves
        scenario = self.partial_settings_scenario(
            tmp_path, {"RLY": {"pickup": 1.3, "time_dial": 0.55}})
        for command in ("optimize", "timeseries"):
            assert main([command, "--scenario", str(scenario), "--margins",
                         "0.2,0.3", "--out-dir", str(tmp_path / command)]) \
                == EXIT_INFEASIBLE
        assert json.loads((tmp_path / "optimize" / "settings_final.json")
                          .read_text()) == {
            "RLY": {"pickup": 1.3, "time_dial": 0.55},
            "R1": {"pickup": 1.0, "time_dial": 0.25},
            "R2": {"pickup": 0.22, "time_dial": 0.1}}
        rows = (tmp_path / "timeseries" / "timeseries.csv").read_text()
        assert rows.splitlines()[1].startswith("0,0.3,0.25,0.55,0.25,0.1,")

    def test_unknown_recloser_in_settings_is_an_input_error(self, tmp_path,
                                                            capsys):
        scenario = self.partial_settings_scenario(
            tmp_path, {"RX": {"pickup": 1.3, "time_dial": 0.5}})
        assert main(["optimize", "--scenario", str(scenario),
                     "--out-dir", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {scenario}: initial_settings:RX: no recloser with "
            f"id 'RX' in {fixtures_dir() / 'five_node.json'}\n")
        assert not (tmp_path / "out").exists()

    def test_infeasible_optimize_keeps_the_start_settings(self, tmp_path,
                                                          capsys):
        assert main(["optimize", "--scenario", CASE_A,
                     "--margins", "0.2,0.3",
                     "--out-dir", str(tmp_path)]) == EXIT_INFEASIBLE
        assert capsys.readouterr().out.splitlines()[0] == \
            "alternating optimization: infeasible after 0 iterations"
        assert (tmp_path / "trace.csv").read_text().splitlines() == [
            "iteration,total_clearing_time_s,total_dg_output_pu,"
            "worst_slack_pu"]
        scn = replace(load_scenario(CASE_A), fr_margin=0.2, rr_margin=0.3)
        baseline = opt.baseline_settings(scn.network, scn.fuse_curves,
                                         cli._config(scn))
        assert (tmp_path / "settings_final.json").read_text() == \
            dump_settings(baseline)

    def test_infeasible_start_reports_the_stop_reason(self, tmp_path,
                                                      capsys):
        # five-node: the no-DG design settings are infeasible; case A
        # and B: the model rejects them (fast curve above slow); a time
        # series prints its header line before it stops
        stopped = "alternating optimization: infeasible after 0 iterations"
        header = "time-series run: 24 steps, dispatch every 1, settings every 5"
        for command, scenario, margins, pair, line in (
                ("optimize", FIVE_NODE, "0.2,0.3", "R1-L1", stopped),
                ("optimize", CASE_A, "0.1,0.48", "R2", stopped),
                ("timeseries", str(CASE_B), "0.1,0.48", "R2", header)):
            out = tmp_path / command / margins
            assert main([command, "--scenario", scenario,
                         "--margins", margins,
                         "--out-dir", str(out)]) == EXIT_INFEASIBLE
            captured = capsys.readouterr()
            assert captured.out == line + "\n"
            assert captured.err.startswith(
                f"run failed: infeasible at pair {pair}: ")
            assert not out.exists()  # no start settings, no artifacts

    def test_rejected_solved_dials_keep_the_dispatch(self, tmp_path,
                                                     monkeypatch):
        # when only the re-dial of the dispatched network fails, the
        # dispatch stands and the start settings are reported
        apply_settings, calls = opt.apply_settings, []

        def second_call_fails(network, settings):
            calls.append(settings)
            if len(calls) == 2:
                raise opt.InfeasibleError("R2", "rejected")
            return apply_settings(network, settings)

        monkeypatch.setattr(opt, "apply_settings", second_call_fails)
        assert main(["optimize", "--scenario", CASE_A,
                     "--out-dir", str(tmp_path)]) == EXIT_INFEASIBLE
        assert len(calls) == 2
        assert (tmp_path / "settings_final.json").read_text() == \
            dump_settings(calls[0])
        rows = (tmp_path / "dispatch_final.csv").read_text().splitlines()
        assert rows[1:] == ["1,0.0979144720361", "2,0.0979144720361",
                            "3,0.05", "4,0.1"]

    def test_failed_optimize_dispatch_reports_each_unit_at_its_ceiling(
            self, tmp_path):
        # the time-series rule: a profiled curtailable unit is reported at
        # its profile value, not at its network output
        doc = json.loads(Path(CASE_A).read_text())
        doc["network"] = str(Path(CASE_A).parent / doc["network"])
        doc["profile"] = {"1": [0.05]}  # unit 1's network output is 0.12
        scenario = tmp_path / "ceiling.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["optimize", "--scenario", str(scenario),
                     "--margins", "0.2,0.3",
                     "--out-dir", str(out)]) == EXIT_INFEASIBLE
        assert (out / "trace.csv").read_text().count("\n") == 1
        rows = (out / "dispatch_final.csv").read_text().splitlines()
        assert rows[1:] == ["1,0.05", "2,0.12", "3,0.05", "4,0.1"]

    def test_bare_scenario_name_resolves_from_any_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["powerflow", "--scenario", "five_node_scenario.json",
                     "--out-dir", "out"]) == EXIT_OK
        assert (tmp_path / "out" / "powerflow_nodes.csv").exists()
        assert main(["powerflow", "--scenario", "nope.json",
                     "--out-dir", "out"]) == EXIT_INPUT

    @pytest.mark.parametrize("rid", ["a/b", "", "R\0x", "R\ud800"])
    def test_recloser_id_that_cannot_name_a_file(self, rid, tmp_path,
                                                  capsys):
        # the id names pair_<id>_curves.csv: rejected on load, before
        # any artifact is written
        doc = json.loads((fixtures_dir() / "five_node.json").read_text())
        doc["reclosers"][2]["id"] = rid
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rule = ("must encode as UTF-8" if rid == "R\ud800" else
                "must be non-empty, without '/' or NUL")
        assert main(["coordinate", "--network", str(net),
                     "--out-dir", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {net}: invalid network: recloser[{rid!r}]: id "
            f"{rule}: it names files\n")
        assert not out.exists()

    def test_timeseries_requires_profile(self, tmp_path, capsys):
        assert main(["timeseries", "--scenario", FIVE_NODE,
                     "--out-dir", str(tmp_path)]) == EXIT_INPUT
        assert "five_node.json" in capsys.readouterr().err

    def test_runs_without_numpy(self, tmp_path):
        # numpy set to None in sys.modules makes every import of it raise
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from feederprot.cli import main\n"
            "out = ['--out-dir', sys.argv[2]]\n"
            "sys.exit(main(['optimize', '--scenario', sys.argv[1]] + out)\n"
            "         or main(['fault', '--scenario', sys.argv[1],\n"
            "                  '--at', 'node:1'] + out))\n")
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", script, FIVE_NODE, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert "numpy" not in done.stderr
        assert (tmp_path / "dispatch_final.csv").exists()
        assert (tmp_path / "fault.csv").exists()


class TestOverrides:
    def test_network_only_invocation(self, tmp_path):
        net = str(fixtures_dir() / "five_node.json")
        assert main(["powerflow", "--network", net,
                     "--out-dir", str(tmp_path)]) == EXIT_OK

    def test_margin_override_changes_verdicts(self, tmp_path):
        # vanishingly small margins make the stock settings acceptable
        assert main(["coordinate", "--scenario", FIVE_NODE,
                     "--margins", "0.001,0.001",
                     "--out-dir", str(tmp_path)]) == EXIT_OK

    def test_curve_family_override_applies(self, tmp_path):
        code = main(["coordinate", "--scenario", FIVE_NODE,
                     "--curve-family", "extremely_inverse",
                     "--out-dir", str(tmp_path)])
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        assert (tmp_path / "coordination.csv").exists()

    def test_curve_family_is_validated(self, tmp_path, capsys):
        # R2's slow curve at a lower pickup stays above its fast curve
        # on very-inverse curves but not on extremely-inverse ones
        doc = json.loads((fixtures_dir() / "five_node.json").read_text())
        slow = doc["reclosers"][2]["curves"][1]
        slow["pickup"], slow["time_dial"] = 0.1487, 0.3
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        args = ["powerflow", "--network", str(net),
                "--out-dir", str(tmp_path / "out")]
        assert main(args) == EXIT_OK
        capsys.readouterr()
        assert main(args + ["--curve-family", "extremely_inverse"]) \
            == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            "input error: invalid network: recloser[R2]: fast curve above "
            "slow curve at ")


class TestReproducibility:
    def rerun(self, args, tmp_path, names):
        first = tmp_path / "first"
        second = tmp_path / "second"
        for out in (first, second):
            main(args + ["--out-dir", str(out)])
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_powerflow_byte_identical(self, tmp_path):
        self.rerun(["powerflow", "--scenario", FIVE_NODE], tmp_path,
                   ["powerflow_nodes.csv", "powerflow_sections.csv"])

    def test_fault_byte_identical(self, tmp_path):
        self.rerun(["fault", "--scenario", CASE_A, "--at", "lateral:3"],
                   tmp_path, ["fault.csv"])

    def test_coordinate_byte_identical(self, tmp_path):
        self.rerun(["coordinate", "--scenario", FIVE_NODE], tmp_path,
                   ["coordination.csv", "pair_R1-L1_curves.csv"])

    def test_study_commands_share_one_state(self, tmp_path, monkeypatch):
        """powerflow, fault everywhere and coordinate on one scenario
        solve its load flow and fault kernel once, and write the bytes
        each command writes on a freshly loaded scenario."""
        # counted wherever a package module binds them
        counts = {"flow": 0, "kernel": 0}
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("feederprot.")]
        for fn, key in ((netfile.solve_distflow, "flow"),
                        (netfile.fault_kernel, "kernel")):
            def counted(*args, fn=fn, key=key, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            for module in modules:
                if getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counted)

        scn = load_scenario(CASE_A)
        net = scn.network
        locations = ([flt.FaultLocation("node", k)
                      for k in range(net.n_nodes)]
                     + [flt.FaultLocation("lateral", lat.id)
                        for lat in net.laterals if lat.fuse is not None])
        runs = ([("powerflow", cli.cmd_powerflow)]
                + [(f"{loc.kind}{loc.ref}",
                    lambda s, out, loc=loc: cli.cmd_fault(s, loc, out))
                   for loc in locations]
                + [("coordinate", cli.cmd_coordinate)])

        def run(name, cmd, scenario, root):
            _, code = cmd(scenario, root / name)
            return code, {f.name: f.read_bytes()
                          for f in sorted((root / name).iterdir())}

        shared = [run(*r, scn, tmp_path / "shared") for r in runs]
        assert counts == {"flow": 1, "kernel": 1}
        fresh = [run(*r, load_scenario(CASE_A), tmp_path / "fresh")
                 for r in runs]
        assert shared == fresh
        assert [code for code, _ in shared] \
            == [EXIT_OK] * (1 + len(locations)) + [EXIT_INFEASIBLE]

        tighter = replace(scn, powerflow_tol=1e-10)
        assert tighter.flow is not scn.flow
        assert counts["flow"] == 2 + len(runs)


class TestRerunOverOldFiles:
    """Each command writes over its same-named files in --out-dir and cuts
    any old tail: a rerun into a used directory writes the bytes a run
    into a fresh one does."""

    RUNS = {
        "powerflow": ["powerflow", "--scenario", CASE_A],
        "fault": ["fault", "--scenario", CASE_A, "--at", "lateral:3"],
        "coordinate": ["coordinate", "--scenario", FIVE_NODE],
        "optimize": ["optimize", "--scenario", CASE_A],
        "timeseries": ["timeseries", "--scenario", str(CASE_B)],
    }

    @staticmethod
    def written(out: Path) -> dict[str, bytes]:
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    @pytest.mark.parametrize("command", RUNS)
    def test_junk_longer_than_every_artifact_is_cut(self, command, tmp_path,
                                                    capsys):
        args = self.RUNS[command]
        fresh, dirty = tmp_path / "fresh" / "nested", tmp_path / "dirty"
        code = main(args + ["--out-dir", str(fresh)])
        report = capsys.readouterr().out
        expected = self.written(fresh)
        dirty.mkdir()
        for name, data in expected.items():
            (dirty / name).write_bytes(b"junk," * (len(data) // 5 + 100))
        assert main(args + ["--out-dir", str(dirty)]) == code
        assert capsys.readouterr().out == report
        assert self.written(dirty) == expected

    def test_a_shorter_coordination_table_replaces_a_longer_one(
            self, tmp_path):
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        main(["coordinate", "--scenario", FIVE_NODE, "--out-dir", str(fresh)])
        main(["coordinate", "--scenario", CASE_A, "--out-dir", str(used)])
        case_a = self.written(used)
        main(["coordinate", "--scenario", FIVE_NODE, "--out-dir", str(used)])
        five_node = self.written(fresh)
        assert len(case_a["coordination.csv"]) \
            > len(five_node["coordination.csv"])
        # files this run does not write stay as they were
        assert self.written(used) == {**case_a, **five_node}
        assert set(case_a) - set(five_node)

    @pytest.mark.parametrize("command", RUNS)
    def test_out_dir_under_a_file_is_an_input_error(self, command, tmp_path,
                                                    capsys):
        (tmp_path / "file").write_text("not a directory\n")
        out = tmp_path / "file" / "out"
        assert main(self.RUNS[command] + ["--out-dir", str(out)]) \
            == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert "Traceback" not in err
        assert (tmp_path / "file").read_text() == "not a directory\n"


# CSV cells: floats (the extremes included), ints, bools, and strings
# built from the characters that need quoting
FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0,
                                  5e-324, 1e308]))
TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", "\u00e9", "a", " "]),
               max_size=5)
CELLS = st.one_of(FLOATS, st.integers(), st.booleans(), TEXT)
# the cells of each column kind that cli.TABLES declares: a blank is the
# empty string, which text may be too
KIND_CELLS = {"g": FLOATS, "d": st.integers(), "b": st.booleans(),
              "n": st.one_of(FLOATS.map(cli._fmt), st.just("")), "t": TEXT}
# recloser ids, as they fill a repeated column's name or a pair file's
IDS = st.text(st.sampled_from([",", '"', "\r", "\n", "\u00e9", "R", " ",
                               "-", "{", "}"]), min_size=1, max_size=4)
FORMATS_MD = Path(__file__).resolve().parents[1] / "FORMATS.md"


def csv_writer_text(header, rows) -> str:
    """What csv.writer writes for header and rows, floats as _fmt."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([cli._fmt(v) if isinstance(v, float) else v
                      for v in row] for row in rows)
    return buf.getvalue()


class TestArtifactBytes:
    """The CSV writer writes what csv.writer writes, in every file."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.text(max_size=3), min_size=2, max_size=4),
           st.lists(st.lists(CELLS, min_size=2, max_size=5), max_size=5))
    def test_rows_match_csv_writer(self, tmp_path, header, rows):
        # one-cell rows are left out: csv.writer quotes a lone empty cell.
        # Each row is a table of its own, each column of its cell's kind.
        kinds = {float: "g", int: "d", bool: "b", str: "t"}
        head = ",".join(map(cli._text, header))
        for row in rows:
            # every row writes over the last one's file
            cli._artifact(tmp_path, "rows.csv", cli._csv(
                head, "".join(kinds[type(v)] for v in row), [row]))
            assert (tmp_path / "rows.csv").read_bytes() \
                == csv_writer_text(header, [row]).encode("utf-8")

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(cli.TABLES)), st.data())
    def test_declared_tables_match_csv_writer(self, tmp_path, name, data):
        columns = [c.rpartition(":") for c in cli.TABLES[name].split()]
        repeat = tuple(tuple(data.draw(st.lists(
            st.one_of(st.integers(0, 99), IDS), max_size=3)))
            for column, _, _ in columns if "{}" in column)
        ids = iter(repeat)
        header, kinds = [], []
        for column, _, kind in columns:
            for i in next(ids) if "{}" in column else [None]:
                header.append(column if i is None
                              else column.replace("{}", str(i)))
                kinds.append(kind)
        rows = data.draw(st.lists(st.tuples(*map(KIND_CELLS.get, kinds)),
                                  max_size=5))
        at = data.draw(IDS) if "{}" in name else ""
        manifest = []
        # every example writes over the last one's file
        cli._write_csv(tmp_path, name, rows, manifest, at, repeat)
        file = name.replace("{}", at)
        assert (tmp_path / file).read_bytes() \
            == csv_writer_text(header, rows).encode("utf-8")
        assert manifest == [(file, len(rows))]

    def test_no_rows_is_the_header_alone(self, tmp_path):
        manifest = []
        cli._write_csv(tmp_path, "timeseries.csv", [], manifest,
                       repeat=((1,), ('R,"2',)))
        assert (tmp_path / "timeseries.csv").read_bytes() == (
            b'step,dg_1_p_pu,"tds_R,""2",total_clearing_time_s,'
            b'worst_slack_pu,feasible\r\n')
        assert manifest == [("timeseries.csv", 0)]

    def test_formats_md_lists_every_declared_table(self):
        """FORMATS.md names each table and its columns as declared, <id>
        standing for the {} of a pair file or a repeated column."""
        section = FORMATS_MD.read_text().split("## CSV artifacts")[1]
        section = " ".join(section.split("\n## ")[0].split())
        listed = {name: cols.split(", ") for name, cols in re.findall(
            r"`([\w<>]+\.csv)` \(([^)]*)\)", section)}
        assert listed == {
            name.replace("{}", "<id>"):
                [c.rpartition(":")[0].replace("{}", "<id>")
                 for c in spec.split()]
            for name, spec in cli.TABLES.items()}

    # a fault report line per fault.csv row, by the row's kind
    FAULT_LINES = {
        "substation": r"  substation: (?P<current_pu>\S+) pu",
        "recloser": r"  recloser (?P<id>.+): (?P<current_pu>\S+) pu "
                    r"\(-?\d+ A\)  dFR=(?P<delta_fr_pu>\S+)  "
                    r"dRR=(?P<delta_rr_pu>\S+)",
        "fuse": r"  fuse (?P<id>\S+): (?P<current_pu>\S+) pu \(-?\d+ A\)",
        "dg": r"  dg (?P<id>\S+): (?P<current_pu>\S+) pu",
    }

    @pytest.mark.parametrize("scenario, at", [
        (FIVE_NODE, "node:2"), (FIVE_NODE, "lateral:1"),
        (CASE_A, "node:11"), (CASE_A, "lateral:3")],
        ids=["five_node-node2", "five_node-lateral1", "case_a-node11",
             "case_a-lateral3"])
    def test_fault_report_prints_the_csv_cells(self, scenario, at, tmp_path,
                                               capsys):
        """Every current and disparity the report prints is its fault.csv
        cell, string for string.  The fault impedance and fault-point
        current lines have no cell."""
        assert main(["fault", "--scenario", scenario, "--at", at,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        with open(tmp_path / "fault.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert out[2 + len(rows)] == "emitted files:"
        kinds = set()
        for line, row in zip(out[2:], rows):
            match = re.fullmatch(self.FAULT_LINES[row["kind"]], line)
            assert match, line
            assert match.groupdict() == {k: row[k] for k in match.groupdict()}
            kinds.add(row["kind"])
        assert {"substation", "recloser", "dg"} <= kinds
        assert ("fuse" in kinds) == at.startswith("lateral")

    def test_optimize_report_prints_the_csv_cells(self, tmp_path, capsys):
        assert main(["optimize", "--scenario", CASE_A,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[1]
        with open(tmp_path / "trace.csv", newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert line == (
            f"  iter 1: total clearing {row['total_clearing_time_s']} s, DG "
            f"output {row['total_dg_output_pu']} pu, worst slack "
            f"{row['worst_slack_pu']} pu")

    def test_quoted_recloser_id_reads_back(self, tmp_path, capsys):
        rid = 'R,"2\u00e9'
        doc = json.loads((fixtures_dir() / "five_node.json").read_text())
        assert doc["reclosers"][2]["id"] == "R2"
        doc["reclosers"][2]["id"] = rid
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))

        def table(out: Path, name: str) -> list[dict]:
            with open(out / name, newline="", encoding="utf-8") as fh:
                return list(csv.DictReader(fh))

        runs = {"fault": ["fault", "--at", "node:4"],
                "coordinate": ["coordinate"]}
        for name, args in runs.items():
            for source, out in (((fixtures_dir() / "five_node.json"),
                                 tmp_path / "R2" / name),
                                (net, tmp_path / "quoted" / name)):
                main(args + ["--network", str(source), "--out-dir", str(out)])
        capsys.readouterr()
        plain = tmp_path / "R2"
        quoted = tmp_path / "quoted"
        faulted = [row["id"] for row in table(quoted / "fault", "fault.csv")
                   if row["kind"] == "recloser"]
        assert rid in faulted
        assert faulted == [
            rid if row["id"] == "R2" else row["id"]
            for row in table(plain / "fault", "fault.csv")
            if row["kind"] == "recloser"]
        pairs = [row["pair_id"]
                 for row in table(quoted / "coordinate", "coordination.csv")]
        assert pairs == [
            row["pair_id"].replace("R2", rid)
            for row in table(plain / "coordinate", "coordination.csv")]
        assert any(rid in pair for pair in pairs)
        for pair in pairs:
            curves = f"pair_{pair}_curves.csv"
            assert (quoted / "coordinate" / curves).read_bytes() == (
                plain / "coordinate" / curves.replace(rid, "R2")).read_bytes()

    def test_short_writes_give_the_same_bytes(self, tmp_path, monkeypatch,
                                              capsys):
        runs = {"optimize": ["optimize", "--scenario", CASE_A],
                "coordinate": ["coordinate", "--scenario", CASE_A]}
        for name, args in runs.items():
            main(args + ["--out-dir", str(tmp_path / "whole" / name)])
        write, sizes = os.write, []

        def short(fd, data):  # at most 7 bytes per call
            sizes.append(len(data))
            return write(fd, data[:7])

        monkeypatch.setattr(os, "write", short)
        for name, args in runs.items():
            main(args + ["--out-dir", str(tmp_path / "short" / name)])
        monkeypatch.undo()
        capsys.readouterr()
        assert max(sizes) > 7
        for name in runs:
            whole = TestRerunOverOldFiles.written(tmp_path / "whole" / name)
            assert len(whole) > 2
            assert TestRerunOverOldFiles.written(
                tmp_path / "short" / name) == whole
