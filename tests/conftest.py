"""Shared fixtures: shipped scenarios, solved states, and small helpers."""

from __future__ import annotations

import pytest
from hypothesis import settings

from feederprot import optimizer as opt
from feederprot.netfile import fixtures_dir, load_scenario
from feederprot.power_flow import solve_distflow

# property tests run the same examples on every run, untimed per example
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def scenario_config(scn) -> opt.OptimizerConfig:
    return opt.OptimizerConfig(
        fr_margin=scn.fr_margin,
        rr_margin=scn.rr_margin,
        fault_impedance_floor=scn.fault_impedance_floor,
    )


@pytest.fixture(scope="session")
def five_node_scenario():
    return load_scenario(fixtures_dir() / "five_node_scenario.json")


@pytest.fixture(scope="session")
def case_a_scenario():
    return load_scenario(fixtures_dir() / "ieee37_case_a.json")


@pytest.fixture(scope="session")
def case_b_scenario():
    return load_scenario(fixtures_dir() / "ieee37_case_b.json")


@pytest.fixture(scope="session")
def five_node_solution(five_node_scenario):
    return solve_distflow(five_node_scenario.network)


@pytest.fixture(scope="session")
def case_a_result(case_a_scenario):
    """Alternating optimization on the constrained 37-bus scenario.

    Expensive; solved once and shared between the optimizer tests and
    the acceptance suite.
    """
    import time

    scn = case_a_scenario
    config = scenario_config(scn)
    available = {u.id: u.p_out for u in scn.network.dg_units if u.curtailable}
    start = time.monotonic()
    trace, final_net, settings = opt.alternate(
        scn.network, scn.fuse_curves, available, config)
    elapsed = time.monotonic() - start
    return {
        "trace": trace,
        "network": final_net,
        "settings": settings,
        "available": available,
        "config": config,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def case_b_run(tmp_path_factory):
    """One full 24-step time-series run of the cadence scenario, with the
    arguments and the answer of every dispatch it made."""
    from feederprot.cli import main
    from feederprot.netfile import fixtures_dir as fxd

    dispatches = []
    solve_dispatch = opt.solve_dispatch

    def recorded(*args):
        answer = solve_dispatch(*args)
        dispatches.append((args, answer))
        return answer

    out_dir = tmp_path_factory.mktemp("case_b")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opt, "solve_dispatch", recorded)
        code = main(["timeseries", "--scenario",
                     str(fxd() / "ieee37_case_b.json"),
                     "--out-dir", str(out_dir)])
    return {"out_dir": out_dir, "exit_code": code, "dispatches": dispatches}
