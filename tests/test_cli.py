"""Command-line interface: exit codes, artifacts, and reproducibility."""

import json
from dataclasses import replace

from feederprot import cli
from feederprot import optimizer as opt
from feederprot.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, main
from feederprot.netfile import dump_settings, fixtures_dir, load_scenario

FIVE_NODE = str(fixtures_dir() / "five_node_scenario.json")
CASE_A = str(fixtures_dir() / "ieee37_case_a.json")
CASE_B = fixtures_dir() / "ieee37_case_b.json"


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

    def test_missing_inputs_are_input_errors(self, tmp_path):
        out = ["--out-dir", str(tmp_path)]
        assert main(["powerflow"] + out) == EXIT_INPUT
        assert main(["powerflow", "--scenario", "nope.json"] + out) == EXIT_INPUT
        assert main(["fault", "--scenario", FIVE_NODE,
                     "--at", "bus-7"] + out) == EXIT_INPUT
        assert main(["powerflow", "--scenario", FIVE_NODE,
                     "--curve-family", "no_such"] + out) == EXIT_INPUT
        assert main(["powerflow", "--scenario", FIVE_NODE,
                     "--margins", "wide"] + out) == EXIT_INPUT

    def test_unconverged_load_flow_is_a_run_failure(self, tmp_path):
        for cmd in (["powerflow"], ["fault", "--at", "node:1"],
                    ["coordinate"], ["optimize"]):
            assert main(cmd + ["--scenario", FIVE_NODE, "--tol", "1e-300",
                               "--out-dir", str(tmp_path)]) \
                == EXIT_INFEASIBLE, cmd[0]

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

    def test_bare_scenario_name_resolves_from_any_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["powerflow", "--scenario", "five_node_scenario.json",
                     "--out-dir", "out"]) == EXIT_OK
        assert (tmp_path / "out" / "powerflow_nodes.csv").exists()
        assert main(["powerflow", "--scenario", "nope.json",
                     "--out-dir", "out"]) == EXIT_INPUT

    def test_timeseries_requires_profile(self, tmp_path):
        assert main(["timeseries", "--scenario", FIVE_NODE,
                     "--out-dir", str(tmp_path)]) == EXIT_INPUT


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
