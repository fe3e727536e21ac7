"""Network and scenario file ingestion: validation and error context."""

import json
import math
from dataclasses import replace

import pytest

from feederprot import netfile
from feederprot.cli import EXIT_INPUT, main
from feederprot.curves import RecloserSettings
from feederprot.netfile import (FIXTURE_ENV, NetworkFileError, dump_settings,
                                fixtures_dir, load_network, load_scenario,
                                load_settings_file)


def read_fixture(name):
    return json.loads((fixtures_dir() / name).read_text())


def write_doc(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadNetwork:
    def test_shipped_fixtures_load(self):
        for name in ("five_node.json", "ieee37.json"):
            net = load_network(fixtures_dir() / name)
            assert net.n_nodes > 1
            assert net.reclosers

    def test_unknown_top_level_key(self, tmp_path):
        doc = read_fixture("five_node.json")
        doc["extra"] = 1
        with pytest.raises(NetworkFileError, match="unknown keys.*extra"):
            load_network(write_doc(tmp_path, doc))

    def test_missing_required_key(self, tmp_path):
        doc = read_fixture("five_node.json")
        del doc["source"]
        with pytest.raises(NetworkFileError, match="missing keys.*source"):
            load_network(write_doc(tmp_path, doc))

    def test_bad_json_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"bases": \n !}')
        with pytest.raises(NetworkFileError, match="broken.json:2"):
            load_network(path)
        # text that is not UTF-8 names the file too
        path.write_bytes(b'\xff{"bases": {}}')
        with pytest.raises(NetworkFileError, match="broken.json: 'utf-8'"):
            load_network(path)

    def test_unknown_dg_kind(self, tmp_path):
        doc = read_fixture("five_node.json")
        doc["dg"][0]["kind"] = "diesel"
        with pytest.raises(NetworkFileError, match="unknown DG kind"):
            load_network(write_doc(tmp_path, doc))

    def test_dg_params_keys_checked(self, tmp_path):
        doc = read_fixture("five_node.json")
        doc["dg"][0]["params"]["xq"] = 1.0
        with pytest.raises(NetworkFileError, match=r"params.*unknown keys"):
            load_network(write_doc(tmp_path, doc))

    def test_unknown_curve_family(self, tmp_path):
        doc = read_fixture("five_node.json")
        doc["reclosers"][0]["curves"][0]["family"] = "ultra_inverse"
        with pytest.raises(NetworkFileError, match="unknown curve family"):
            load_network(write_doc(tmp_path, doc))

    def test_invalid_network_reports_rule(self, tmp_path):
        doc = read_fixture("five_node.json")
        doc["laterals"][0]["p"] = -1.0
        with pytest.raises(NetworkFileError, match="invalid network"):
            load_network(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2"])
    @pytest.mark.parametrize("name, k, key", [
        ("sections", 1, "from"), ("sections", 1, "to"),
        ("laterals", 1, "id"), ("laterals", 1, "tap"),
        ("dg", 0, "id"), ("dg", 0, "tap"), ("reclosers", 1, "node")])
    def test_nodes_taps_and_ids_must_be_integers(self, tmp_path, capsys,
                                                name, k, key, bad):
        # int() would put DG 1 at node 2 for a tap of 2.7, at node 1 for
        # true, and run on
        doc = read_fixture("five_node.json")
        doc[name][k][key] = bad
        path = write_doc(tmp_path, doc)
        assert main(["fault", "--network", str(path), "--at", "node:2",
                     "--out-dir", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {path}:{name}[{k}]: {key} must be an integer, "
            f"got {bad!r}\n")
        assert not (tmp_path / "out").exists()


class TestLoadScenario:
    def test_shipped_scenarios_load(self):
        for name in ("five_node_scenario.json", "ieee37_case_a.json",
                     "ieee37_case_b.json"):
            scn = load_scenario(fixtures_dir() / name)
            assert scn.network.n_nodes > 1
            assert scn.fuse_curves

    def test_each_load_reads_only_its_own_files(self, monkeypatch):
        # the curve and fuse tables are read once, on import
        reads = []
        read_json = netfile._read_json

        def recorded(path):
            reads.append(path)
            return read_json(path)

        monkeypatch.setattr(netfile, "_read_json", recorded)
        for name in ("five_node_scenario.json", "ieee37_case_a.json"):
            reads.clear()
            scn = load_scenario(fixtures_dir() / name)
            assert reads == [fixtures_dir() / name, scn.network_path]

    def test_defaults(self, tmp_path):
        path = write_doc(tmp_path, {"network": "five_node.json"})
        scn = load_scenario(path)
        assert scn.fr_margin == 0.1
        assert scn.rr_margin == 0.3
        assert scn.dispatch_every == 1
        assert scn.settings_every == 1
        assert scn.profile == {}

    def test_network_reference_resolution(self, tmp_path):
        # an unresolvable reference names the scenario file, its key and
        # both search locations; "" and "." name directories, not files
        for ref in ("missing.json", "", "."):
            for key, doc in (("network", {"network": ref}),
                             ("initial_settings",
                              {"network": "five_node.json",
                               "initial_settings": ref})):
                path = write_doc(tmp_path, doc, "scn.json")
                with pytest.raises(NetworkFileError) as exc:
                    load_scenario(path)
                assert str(exc.value) == (
                    f"{path}: {key}: cannot resolve file reference {ref!r} "
                    f"(looked in {tmp_path} and {fixtures_dir()})")
        with pytest.raises(NetworkFileError, match="cannot resolve"):
            load_scenario("")

    def test_fixtures_dir_is_overridden_by_the_environment(self, tmp_path,
                                                           monkeypatch):
        # a reference found neither as given nor beside the scenario is
        # looked up in the directory FEEDERPROT_FIXTURES names
        shipped = tmp_path / "shipped"
        shipped.mkdir()
        net = shipped / "net.json"
        net.write_text((fixtures_dir() / "five_node.json").read_text())
        monkeypatch.setenv(FIXTURE_ENV, str(shipped))
        assert fixtures_dir() == shipped
        path = write_doc(tmp_path, {"network": "net.json"}, "scn.json")
        assert load_scenario(path).network_path == net

    def test_cadence_must_nest(self, tmp_path):
        # 0 and -2 are multiples of 1, but not positive ones
        for settings_every, dispatch_every in ((5, 2), (0, 1), (-2, 1)):
            doc = {"network": "five_node.json",
                   "cadence": {"dispatch_every": dispatch_every,
                               "settings_every": settings_every}}
            path = write_doc(tmp_path, doc)
            with pytest.raises(NetworkFileError) as exc:
                load_scenario(path)
            assert str(exc.value) == (
                f"{path}: settings_every must be a positive multiple of "
                f"dispatch_every")

    def test_cadence_and_max_iters_must_be_integers(self, tmp_path):
        # int() would turn 2.5 into 2 and accept "5" and true
        for bad in (2.5, 2.0, "5", True):
            for doc in ({"cadence": {"dispatch_every": bad}},
                        {"cadence": {"settings_every": bad}},
                        {"max_iters": bad}):
                doc["network"] = "five_node.json"
                with pytest.raises(NetworkFileError, match="integer"):
                    load_scenario(write_doc(tmp_path, doc))
        doc = {"network": "five_node.json", "max_iters": 3,
               "cadence": {"dispatch_every": 2, "settings_every": 4}}
        scn = load_scenario(write_doc(tmp_path, doc))  # max_iters dropped
        assert (scn.dispatch_every, scn.settings_every) == (2, 4)

    def test_profile_lengths_must_agree(self, tmp_path):
        doc = {"network": "five_node.json",
               "profile": {"1": [0.1, 0.2], "2": [0.1]}}
        with pytest.raises(NetworkFileError, match="lengths differ"):
            load_scenario(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("key, step_5, error", [
        ("4", math.nan, "profile dg[4] step 5: output must be a finite "
                        "number >= 0, got nan"),
        ("4", -0.5, "profile dg[4] step 5: output must be a finite "
                    "number >= 0, got -0.5"),
        ("4", "0.5", "profile dg[4] step 5: output must be a finite "
                     "number >= 0, got '0.5'"),
        ("4", None, "profile dg[4] must be a list of outputs, got 0.5"),
        ("4", 0.2, "profile dg[4] step 5: output exceeds apparent-power "
                   "rating"),
        ("x", 0.0, "profile key 'x' is not an integer DG id")])
    def test_profile_is_checked_on_load(self, tmp_path, key, step_5, error):
        # a bad value at case B's unit 4, step 5, a number in place of
        # the series, or a key that is no id
        doc = read_fixture("ieee37_case_b.json")
        doc["network"] = str(fixtures_dir() / doc["network"])
        series = doc["profile"].pop("4")
        series[5] = step_5
        doc["profile"][key] = series if step_5 is not None else 0.5
        path = write_doc(tmp_path, doc, "scn.json")
        with pytest.raises(NetworkFileError) as exc:
            load_scenario(path)
        assert str(exc.value) == f"{path}: {error}"

    def test_profile_must_reference_known_dg(self, tmp_path):
        # the error names the scenario file, the profile key and the
        # network that lacks the unit
        doc = {"network": "five_node.json", "profile": {"9": [0.1]}}
        path = write_doc(tmp_path, doc)
        with pytest.raises(NetworkFileError) as exc:
            load_scenario(path)
        assert str(exc.value) == (
            f"{path}: profile key '9': no DG unit with id 9 in "
            f"{fixtures_dir() / 'five_node.json'}")

    def test_margins_must_be_finite_and_positive(self, tmp_path):
        for key in ("fuse_recloser", "recloser_recloser"):
            for bad in (0, -0.1, math.nan, math.inf):
                doc = {"network": "five_node.json", "margins": {key: bad}}
                path = write_doc(tmp_path, doc, "scn.json")
                with pytest.raises(NetworkFileError) as exc:
                    load_scenario(path)
                assert str(exc.value) == (
                    f"{path}: {key} margin must be finite and > 0, got "
                    f"{float(bad)!r}")

    @pytest.mark.parametrize("floor", [-0.05, math.nan, math.inf])
    def test_floor_is_checked_on_every_scenario(self, five_node_scenario,
                                                tmp_path, floor):
        # the file's floor, a replaced scenario's and a bare network's
        error = f"fault_impedance_floor must be finite and >= 0, got {floor!r}"
        doc = {"network": "five_node.json", "fault_impedance_floor": floor}
        path = write_doc(tmp_path, doc, "scn.json")
        with pytest.raises(NetworkFileError) as exc:
            load_scenario(path)
        assert str(exc.value) == f"{path}: {error}"
        with pytest.raises(NetworkFileError) as exc:
            replace(five_node_scenario, fault_impedance_floor=floor)
        assert str(exc.value) == error
        with pytest.raises(NetworkFileError) as exc:
            netfile.Scenario(network_path=path, fault_impedance_floor=floor,
                             network=five_node_scenario.network)
        assert str(exc.value) == error

    def test_fuse_must_be_in_the_fuse_table(self, tmp_path):
        doc = read_fixture("five_node.json")
        doc["laterals"][1]["fuse"] = "nosuch"
        net = write_doc(tmp_path, doc)
        scenario = write_doc(tmp_path, {"network": str(net)}, "scn.json")
        with pytest.raises(NetworkFileError, match=(
                "lateral 2: fuse 'nosuch' is not in the fuse table")):
            load_scenario(scenario)

    def test_case_b_cadence_values(self, case_b_scenario):
        assert case_b_scenario.dispatch_every == 1
        assert case_b_scenario.settings_every == 5
        lengths = {len(s) for s in case_b_scenario.profile.values()}
        assert lengths == {24}


class TestSettingsFiles:
    def test_round_trip(self, tmp_path):
        settings = {"R1": RecloserSettings(pickup=1.25, time_dial=0.37),
                    "RLY": RecloserSettings(pickup=2.5, time_dial=0.61)}
        path = tmp_path / "settings.json"
        path.write_text(dump_settings(settings))
        assert load_settings_file(path) == settings

    def test_dump_is_sorted_and_stable(self):
        settings = {"R2": RecloserSettings(pickup=1.0, time_dial=0.5),
                    "R1": RecloserSettings(pickup=1.0, time_dial=0.5)}
        text = dump_settings(settings)
        assert text.index('"R1"') < text.index('"R2"')
        assert text == dump_settings(dict(reversed(list(settings.items()))))

    def test_settings_keys_checked(self, tmp_path):
        path = tmp_path / "settings.json"
        path.write_text('{"R1": {"pickup": 1.0, "dial": 0.5}}')
        with pytest.raises(NetworkFileError, match="unknown keys"):
            load_settings_file(path)

    @pytest.mark.parametrize("text, error", [
        ('{"R1": {"pickup": 1.0,\n', "{path}:2: Expecting property name"),
        ('{"R1": {"pickup": "x", "time_dial": 0.5}}',
         "{path}:R1: pickup must be a number, got 'x'"),
        ('{"R1": {"pickup": 1.0, "time_dial": true}}',
         "{path}:R1: time_dial must be a number, got True"),
        ('{"R1": {"pickup": NaN, "time_dial": 0.5}}',
         "{path}:R1: pickup must be finite and > 0, got nan"),
    ])
    def test_errors_name_the_file(self, tmp_path, capsys, text, error):
        # the message starts with the file, and through a scenario's
        # initial_settings the run is an input error
        path = tmp_path / "settings.json"
        path.write_text(text)
        error = error.format(path=path)
        with pytest.raises(NetworkFileError) as exc:
            load_settings_file(path)
        assert str(exc.value).startswith(error)
        doc = read_fixture("five_node_scenario.json")
        doc["network"] = str(fixtures_dir() / doc["network"])
        doc["initial_settings"] = str(path)
        scenario = write_doc(tmp_path, doc, "scenario.json")
        assert main(["optimize", "--scenario", str(scenario),
                     "--out-dir", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: {error}")
