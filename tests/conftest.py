"""Shared fixtures: shipped scenarios, solved states, random radial
chains, and small helpers."""

from __future__ import annotations

from functools import reduce
from operator import add

import pytest
from hypothesis import settings, strategies as st

from feederprot import coordination as coord
from feederprot import fault as flt
from feederprot import optimizer as opt
from feederprot.curves import (RecloserCurve, RecloserSettings,
                               ReclosingSequence, TCIConstants)
from feederprot.model import (AsynchronousParams, DGKind, DGUnit,
                              FeederSection, InverterParams, Lateral, Network,
                              RecloserPlacement, SubstationSource,
                              SynchronousParams, validate)
from feederprot.netfile import FAMILIES, fixtures_dir, load_scenario
from feederprot.power_flow import solve_distflow

# property tests run the same examples on every run, untimed per example
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


VI = TCIConstants(a=19.61, b=0.491, c=1.0, m=2.0, K=0.0)
DG_PARAMS = {
    "synchronous": (DGKind.SYNCHRONOUS, SynchronousParams(xd2=0.25)),
    "asynchronous": (DGKind.ASYNCHRONOUS, AsynchronousParams(x_lr=0.3)),
    # prospective current 1/0.5 = 2 x rated stays under k_off = 3
    "inverter_clamped": (DGKind.INVERTER,
                         InverterParams(k_off=3.0, k_clamp=1.5,
                                        coupling_x=0.5)),
    # prospective current 1/0.3 = 3.3 x rated exceeds k_off = 2
    "inverter_off": (DGKind.INVERTER,
                     InverterParams(k_off=2.0, k_clamp=1.5, coupling_x=0.3)),
}


def added_in_order(terms):
    """The terms added one at a time, left to right, from 0: sum() before
    Python 3.12, which compensates float rounding.  A reference the
    tests compare with == adds as the package does."""
    return reduce(add, terms, 0)


def sequence(constants=VI):
    return ReclosingSequence(
        curves=tuple(RecloserCurve(tag=tag, constants=constants,
                                   settings=RecloserSettings(1.0, dial))
                     for tag, dial in (("fast", 0.1), ("slow", 0.8))),
        pattern="F-S")


@st.composite
def radial_chains(draw):
    """A valid radial chain of 5-30 nodes with 2-4 reclosers, each with
    both curves of one shipped family, fused laterals and 1-5 DG units,
    each of any of the four fault models."""
    n = draw(st.integers(5, 30))
    node = st.integers(0, n - 1)
    sections = tuple(
        FeederSection(k, k + 1, draw(st.floats(0.001, 0.01)),
                      draw(st.floats(0.002, 0.02)))
        for k in range(n - 1))
    taps = draw(st.lists(node, min_size=1, max_size=n))
    laterals = []
    for i, tap in enumerate(taps):
        p = draw(st.floats(0.002, 0.03))
        laterals.append(Lateral(i + 1, tap, p, p * draw(st.floats(0.0, 0.5)),
                                draw(st.sampled_from((None, "fa", "fb")))))
    kinds = draw(st.lists(st.sampled_from(sorted(DG_PARAMS)), min_size=1,
                          max_size=5))
    units = []
    for i, name in enumerate(kinds):
        kind, params = DG_PARAMS[name]
        rating = draw(st.floats(0.05, 0.3))
        units.append(DGUnit(i + 1, draw(node), kind, rating,
                            rating * draw(st.floats(0.2, 0.8)),
                            rating * draw(st.floats(0.0, 0.3)), params))
    rec_nodes = sorted(draw(st.sets(st.integers(0, n - 2), min_size=2,
                                    max_size=4)))
    network = Network(
        sections=sections, laterals=tuple(laterals), dg_units=tuple(units),
        source=SubstationSource(1.0, draw(st.floats(0.001, 0.02)),
                                draw(st.floats(0.01, 0.1))),
        reclosers=tuple(
            RecloserPlacement(f"R{k}", at, sequence(
                FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]))
            for k, at in enumerate(rec_nodes)),
        base_mva=10.0, base_kv=12.47)
    assert validate(network) == []
    return network, draw(st.floats(0.01, 0.5))


def recloser_zone(network, recloser_id: str) -> range:
    """Nodes from the recloser to the node before the next recloser."""
    rec = network.recloser(recloser_id)
    nxt = network.n_nodes - 1
    for other in network.reclosers:
        if other.node > rec.node:
            nxt = other.node - 1
            break
    return range(rec.node, nxt + 1)


def pair_checks(network, fuse_curves, fr_margin, rr_margin, floor):
    """check_pair's arguments for every pair of the network as given, as
    ``coordinate`` checks them: (pair, primary, backup, required)."""
    kernel = flt.fault_kernel(network, solve_distflow(network))
    required = {coord.PairKind.FUSE_RECLOSER: fr_margin,
                coord.PairKind.RECLOSER_RECLOSER: rr_margin}
    return [(pd, *coord.pair_curves(network, pd, fuse_curves),
             required[pd.kind])
            for pd in coord.study_pairs(kernel, floor)[0]]


def dispatched(study, available) -> dict[int, float]:
    """The outputs solve_dispatch set, read off its study's network."""
    return {uid: study.network.dg(uid).p_out for uid in available}


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
    """One dispatch and settings pass on the constrained 37-bus scenario,
    from the no-DG design settings as ``optimize`` runs it.

    Expensive; solved once and shared between the optimizer tests and
    the acceptance suite.
    """
    import time

    scn = case_a_scenario
    config = scenario_config(scn)
    available = {u.id: u.p_out for u in scn.network.dg_units if u.curtailable}
    start = time.monotonic()
    start_settings = opt.baseline_settings(scn.network, scn.fuse_curves,
                                           config)
    study = opt.solve_dispatch(
        opt.apply_settings(scn.network, start_settings), available,
        scn.fuse_curves, config)
    settings = study.settings()
    final_net = opt.apply_settings(study.network, settings)
    elapsed = time.monotonic() - start
    return {
        "study": study,
        "network": final_net,
        "settings": settings,
        "available": available,
        "config": config,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def case_b_run(tmp_path_factory):
    """One full 24-step time-series run of the cadence scenario, with the
    arguments and the answer of every dispatch it made, and the time step
    (-1 before the first) and DG outputs of every load flow it ran.  Case
    B dispatches every step, so each dispatch starts the next step."""
    from feederprot import cli

    dispatches = []
    flows = []
    step = [-1]
    solve_dispatch = opt.solve_dispatch

    def recorded(*args):
        step[0] += 1
        study = solve_dispatch(*args)
        dispatches.append((args, dispatched(study, args[1])))
        return study

    def flow(network, *args, **kwargs):
        flows.append((step[0], tuple((u.id, u.p_out)
                                     for u in network.dg_units)))
        return solve_distflow(network, *args, **kwargs)

    out_dir = tmp_path_factory.mktemp("case_b")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opt, "solve_dispatch", recorded)
        mp.setattr(opt, "solve_distflow", flow)
        code = cli.main(["timeseries", "--scenario",
                         str(fixtures_dir() / "ieee37_case_b.json"),
                         "--out-dir", str(out_dir)])
    return {"out_dir": out_dir, "exit_code": code, "dispatches": dispatches,
            "flows": flows}
