"""Command-line interface: exit codes, artifacts, and reproducibility."""

import json

import pytest

from feederprot.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, main
from feederprot.netfile import fixtures_dir

FIVE_NODE = str(fixtures_dir() / "five_node_scenario.json")
CASE_A = str(fixtures_dir() / "ieee37_case_a.json")


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
