"""Command-line entry point.

Subcommands: powerflow, fault, coordinate, optimize, timeseries.  Each
is a thin shell over the library: results printed as text tables plus
CSV artifacts in the output directory, all reproducible by calling the
library operations directly.

Exit codes: 0 success, 1 infeasible, diverged or unconverged load flow
(including degraded time-series completion), 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import coordination as coord
from . import fault as flt
from . import optimizer as opt
from .curves import load_curve_families
from .model import UnknownElementError, validate
from .netfile import (NetworkFileError, Scenario, dump_settings,
                      load_scenario, load_network, load_fuse_curves)
from .power_flow import (PowerFlowDivergence, PowerFlowNotConverged,
                         solve_distflow)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2


@dataclass
class RunReport:
    lines: list[str]
    manifest: list[tuple[str, int]]

    def render(self) -> str:
        out = list(self.lines)
        if self.manifest:
            out.append("emitted files:")
            for name, rows in self.manifest:
                out.append(f"  {name} ({rows} rows)")
        return "\n".join(out)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(out_dir: Path, name: str, header: list[str],
               rows: list[list], manifest: list[tuple[str, int]]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    manifest.append((name, len(rows)))


def _config(scn: Scenario) -> opt.OptimizerConfig:
    return opt.OptimizerConfig(
        fr_margin=scn.fr_margin,
        rr_margin=scn.rr_margin,
        fault_impedance_floor=scn.fault_impedance_floor,
        powerflow_tol=scn.powerflow_tol,
    )


def cmd_powerflow(scn: Scenario, out_dir: Path) -> tuple[RunReport, int]:
    sol = solve_distflow(scn.network, tol=scn.powerflow_tol)
    lines = ["pre-fault load flow",
             f"  converged: {sol.converged}  iterations: {sol.iterations}  "
             f"max mismatch: {_fmt(sol.max_mismatch)} pu"]
    lines.append("  node  V (pu)")
    for node, v in enumerate(sol.v_mag):
        lines.append(f"  {node:>4}  {v:.6f}")
    lines.append("  section  P (pu)      Q (pu)")
    for i, (p, q) in enumerate(zip(sol.p_flow, sol.q_flow)):
        lines.append(f"  {i:>2}->{i + 1:<2}   {p:+.6f}   {q:+.6f}")
    manifest: list[tuple[str, int]] = []
    _write_csv(out_dir, "powerflow_nodes.csv", ["node", "v_pu"],
               [[n, float(v)] for n, v in enumerate(sol.v_mag)], manifest)
    _write_csv(out_dir, "powerflow_sections.csv",
               ["from_node", "to_node", "p_pu", "q_pu"],
               [[i, i + 1, float(p), float(q)]
                for i, (p, q) in enumerate(zip(sol.p_flow, sol.q_flow))],
               manifest)
    code = EXIT_OK if sol.converged else EXIT_INFEASIBLE
    return RunReport(lines, manifest), code


def _parse_location(text: str) -> flt.FaultLocation:
    try:
        kind, _, ref = text.partition(":")
        return flt.FaultLocation(kind, int(ref))
    except (ValueError, TypeError):
        raise NetworkFileError(
            f"fault location must look like node:3 or lateral:2, got {text!r}")


def cmd_fault(scn: Scenario, location: flt.FaultLocation,
              out_dir: Path, fault_impedance: float = 0.0,
              ) -> tuple[RunReport, int]:
    net = scn.network
    sol = solve_distflow(net, tol=scn.powerflow_tol)
    study = flt.solve_fault(net, sol, location, fault_impedance)
    amps = net.base_amps
    lines = [f"fault study at {location.kind}:{location.ref} "
             f"(fault impedance {_fmt(fault_impedance)} pu)",
             f"  fault-point current: {_fmt(study.i_fault_total)} pu "
             f"({study.i_fault_total * amps:.0f} A)",
             f"  substation: {_fmt(study.i_substation)} pu"]
    rows: list[list] = [["substation", "", float(study.i_substation),
                         float(study.i_substation * amps), "", ""]]
    for rid, i in study.i_recloser.items():
        lines.append(f"  recloser {rid}: {_fmt(i)} pu ({i * amps:.0f} A)  "
                     f"dFR={_fmt(study.delta_fr[rid])}  "
                     f"dRR={_fmt(study.delta_rr[rid])}")
        rows.append(["recloser", rid, float(i), float(i * amps),
                     float(study.delta_fr[rid]), float(study.delta_rr[rid])])
    for lid, i in study.i_fuse.items():
        lines.append(f"  fuse L{lid}: {_fmt(i)} pu ({i * amps:.0f} A)")
        rows.append(["fuse", f"L{lid}", float(i), float(i * amps), "", ""])
    for did, i in study.i_dg.items():
        lines.append(f"  dg {did}: {_fmt(i)} pu")
        rows.append(["dg", did, float(i), float(i * amps), "", ""])
    manifest: list[tuple[str, int]] = []
    _write_csv(out_dir, "fault.csv",
               ["kind", "id", "current_pu", "current_amps",
                "delta_fr_pu", "delta_rr_pu"], rows, manifest)
    return RunReport(lines, manifest), EXIT_OK


def cmd_coordinate(scn: Scenario, out_dir: Path) -> tuple[RunReport, int]:
    net = scn.network
    sol = solve_distflow(net, tol=scn.powerflow_tol)
    pairs = coord.build_pairs(net, sol, scn.fuse_curves,
                              fr_margin=scn.fr_margin,
                              rr_margin=scn.rr_margin,
                              fault_impedance_floor=scn.fault_impedance_floor)
    lines = ["coordination verdicts"]
    rows: list[list] = []
    manifest: list[tuple[str, int]] = []
    all_ok = True
    for pair, sweep in pairs:
        report = coord.check_pair(pair, sweep)
        ok = report.failure_mode is coord.FailureMode.NONE
        all_ok = all_ok and ok
        lines.append(
            f"  {pair.id:<12} {pair.kind.value:<18} "
            f"{report.failure_mode.value:<16} "
            f"worst margin {_fmt(report.worst_margin)} s at "
            f"{_fmt(report.worst_margin_current)} pu")
        rows.append([pair.id, pair.kind.value, report.range_ok,
                     report.margin_ok, float(report.worst_margin),
                     float(report.worst_margin_current),
                     report.failure_mode.value, float(report.backup_delay)])
        _write_csv(out_dir, f"pair_{pair.id}_curves.csv",
                   ["current_pu", "t_primary_s", "t_backup_s"],
                   [[float(i), float(tp), float(tb)]
                    for i, tp, tb in report.samples], manifest)
    _write_csv(out_dir, "coordination.csv",
               ["pair_id", "kind", "range_ok", "margin_ok", "worst_margin_s",
                "worst_margin_current_pu", "failure_mode", "backup_delay_s"],
               rows, manifest)
    return RunReport(lines, manifest), EXIT_OK if all_ok else EXIT_INFEASIBLE


def _available(scn: Scenario, step: int = 0) -> dict[int, float]:
    out = {}
    for unit in scn.network.dg_units:
        if not unit.curtailable:
            continue
        series = scn.profile.get(unit.id)
        out[unit.id] = series[step] if series else unit.p_out
    return out


def cmd_optimize(scn: Scenario, out_dir: Path) -> tuple[RunReport, int]:
    # one dispatch and one settings solve are already the fixed point of
    # alternating the two; the report line keeps the alternation's wording
    # for existing parsers
    config = _config(scn)
    try:
        settings = scn.initial_settings or opt.baseline_settings(
            scn.network, scn.fuse_curves, config)
        net = opt.apply_settings(scn.network, settings)
    except opt.InfeasibleError:  # no start settings: no artifacts either
        print("alternating optimization: infeasible after 0 iterations")
        raise  # main names the pair on stderr
    rows: list[list] = []
    try:
        study = opt.solve_dispatch(net, _available(scn), scn.fuse_curves,
                                   config)[1]
        net, solved = study.network, study.settings()
        net, settings = opt.apply_settings(net, solved), solved
    except opt.InfeasibleError:
        pass  # report the start settings and the last network reached
    else:
        slacks = opt.pair_slacks(study, scn.fuse_curves, config)
        rows.append([1, float(opt.total_clearing_time(study, settings)),
                     float(sum(u.p_out for u in net.dg_units)),
                     float(min(slacks.values(), default=0.0))])
    stop = "slack_fixed_point" if rows else "infeasible"
    lines = [f"alternating optimization: {stop} after {len(rows)} iterations"]
    lines += [f"  iter {k}: total clearing {_fmt(clearing)} s, DG output "
              f"{_fmt(output)} pu, worst slack {_fmt(worst)} pu"
              for k, clearing, output, worst in rows]
    manifest: list[tuple[str, int]] = []
    _write_csv(out_dir, "trace.csv",
               ["iteration", "total_clearing_time_s", "total_dg_output_pu",
                "worst_slack_pu"], rows, manifest)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "settings_final.json").write_text(dump_settings(settings))
    manifest.append(("settings_final.json", len(settings)))
    _write_csv(out_dir, "dispatch_final.csv", ["dg_id", "p_out_pu"],
               [[u.id, float(u.p_out)] for u in net.dg_units], manifest)
    return RunReport(lines, manifest), EXIT_OK if rows else EXIT_INFEASIBLE


def cmd_timeseries(scn: Scenario, out_dir: Path) -> tuple[RunReport, int]:
    steps = max((len(s) for s in scn.profile.values()), default=0)
    if steps < 1:
        raise NetworkFileError("timeseries needs a profile of length >= 1")
    config = _config(scn)
    lines = [f"time-series run: {steps} steps, dispatch every "
             f"{scn.dispatch_every}, settings every {scn.settings_every}"]
    try:
        settings = scn.initial_settings or opt.baseline_settings(
            scn.network, scn.fuse_curves, config)
        net = opt.apply_settings(scn.network, settings)
    except opt.InfeasibleError:  # no start settings: no artifacts either
        print(lines[0])
        raise  # main names the pair on stderr
    degraded = False
    rows: list[list] = []
    dg_ids = [u.id for u in scn.network.dg_units]
    rec_ids = [r.id for r in scn.network.reclosers]

    for step in range(steps):
        # natural output of non-curtailable units follows the profile
        fixed = {u.id: scn.profile[u.id][step]
                 for u in scn.network.dg_units
                 if not u.curtailable and u.id in scn.profile}
        net = net.with_dg_outputs(fixed)
        # a settings step adopts the study's settings if apply accepts them
        feasible, study = True, None
        if step % scn.dispatch_every == 0 or step % scn.settings_every == 0:
            try:
                study = opt.solve_dispatch(net, _available(scn, step),
                                           scn.fuse_curves, config)[1]
                net = study.network
                if step % scn.settings_every == 0:
                    net = opt.apply_settings(net, study.settings())
                    settings = study.settings()
            except opt.InfeasibleError:
                feasible = False
        degraded = degraded or not feasible

        study = study or opt.study_state(net, scn.fuse_curves, config)
        clearing = opt.total_clearing_time(study, settings)
        slacks = opt.pair_slacks(study, scn.fuse_curves, config)
        row: list = [step]
        by_id = {u.id: u for u in net.dg_units}
        row += [float(by_id[i].p_out) for i in dg_ids]
        row += [float(settings[r].time_dial) for r in rec_ids]
        row += [float(clearing), float(min(slacks.values(), default=0.0)),
                int(feasible)]
        rows.append(row)
        lines.append(f"  step {step}: DG total "
                     f"{_fmt(sum(u.p_out for u in net.dg_units))} pu, "
                     f"clearing {_fmt(clearing)} s, feasible {feasible}")

    manifest: list[tuple[str, int]] = []
    header = (["step"] + [f"dg_{i}_p_pu" for i in dg_ids]
              + [f"tds_{r}" for r in rec_ids]
              + ["total_clearing_time_s", "worst_slack_pu", "feasible"])
    _write_csv(out_dir, "timeseries.csv", header, rows, manifest)
    return RunReport(lines, manifest), EXIT_INFEASIBLE if degraded else EXIT_OK


def _scenario_from_args(args) -> Scenario:
    if args.scenario:
        scn = load_scenario(args.scenario)
    elif args.network:
        net = load_network(Path(args.network))
        scn = Scenario(network_path=Path(args.network), network=net,
                       fuse_curves=load_fuse_curves())
    else:
        raise NetworkFileError("provide --scenario or --network")
    if args.margins:
        try:
            fr, rr = (float(v) for v in args.margins.split(","))
        except ValueError:
            raise NetworkFileError("--margins expects FR,RR seconds")
        scn = replace(scn, fr_margin=fr, rr_margin=rr)
    if args.tol is not None:
        scn = replace(scn, powerflow_tol=args.tol)
    if args.curve_family:
        families = load_curve_families()
        if args.curve_family not in families:
            raise NetworkFileError(
                f"unknown curve family {args.curve_family!r}")
        consts = families[args.curve_family]
        recs = tuple(
            replace(r, sequence=replace(
                r.sequence,
                curves=tuple(replace(c, constants=consts)
                             for c in r.sequence.curves)))
            for r in scn.network.reclosers)
        scn = replace(scn, network=replace(scn.network, reclosers=recs))
        if problems := validate(scn.network):  # load flows check no device
            raise NetworkFileError(f"invalid network: {problems[0].element}: "
                                   f"{problems[0].rule}")
    return scn


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feederprot",
        description="radial feeder protection coordination toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("powerflow", "fault", "coordinate", "optimize", "timeseries"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", help="scenario file (JSON)")
        p.add_argument("--network", help="network file (JSON)")
        p.add_argument("--out-dir", default="out", help="CSV output directory")
        p.add_argument("--tol", type=float,
                       help="load-flow mismatch tolerance (pu)")
        p.add_argument("--curve-family",
                       help="use this curve family for every recloser curve")
        p.add_argument("--margins", help="FR,RR coordination margins (s)")
        if name == "fault":
            p.add_argument("--at", required=True,
                           help="fault location, node:<n> or lateral:<id>")
            p.add_argument("--impedance", type=float, default=0.0,
                           help="fault impedance (pu)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out_dir)
    try:
        scn = _scenario_from_args(args)
        if args.command == "powerflow":
            report, code = cmd_powerflow(scn, out_dir)
        elif args.command == "fault":
            loc = _parse_location(args.at)
            report, code = cmd_fault(scn, loc, out_dir, args.impedance)
        elif args.command == "coordinate":
            report, code = cmd_coordinate(scn, out_dir)
        elif args.command == "optimize":
            report, code = cmd_optimize(scn, out_dir)
        else:
            report, code = cmd_timeseries(scn, out_dir)
    except (NetworkFileError, UnknownElementError, ValueError,
            OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PowerFlowDivergence, PowerFlowNotConverged,
            opt.InfeasibleError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(report.render())
    return code


if __name__ == "__main__":
    sys.exit(main())
