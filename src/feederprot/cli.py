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
import os
import sys
from dataclasses import dataclass, replace
from functools import cache
from itertools import chain
from pathlib import Path

from . import coordination as coord
from . import fault as flt
from . import optimizer as opt
from .model import Network, UnknownElementError, left_sum, validate
from .netfile import (FAMILIES, NetworkFileError, Scenario, dump_settings,
                      load_scenario, load_network)
from .power_flow import PowerFlowDivergence, PowerFlowNotConverged

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


def _artifact(out_dir: Path, name: str, text: str) -> None:
    """Write text as UTF-8 over out_dir/name's old bytes, cut the old tail
    (cutting to zero length first frees blocks: slow where they are
    discarded), and create out_dir only when it is missing."""
    data = text.encode()
    path = os.path.join(out_dir, name)  # a str: no Path per write
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except FileNotFoundError:
        out_dir.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:  # a write may take fewer bytes than it is given
            rest = rest[os.write(fd, rest):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _text(v) -> str:
    s = str(v)
    if "," in s or '"' in s or "\r" in s or "\n" in s:  # as csv.writer
        return '"' + s.replace('"', '""') + '"'
    return s


# Each artifact table by file name ({} takes a pair id): its columns as
# name:kind, a name with {} repeated once per id.  Kinds: g a float (as
# _fmt), d an integer, b a bool, n a float already formatted by _fmt (a
# report line prints the same string) or a blank, t text, quoted as
# csv.writer quotes it.
TABLES = {
    "powerflow_nodes.csv": "node:d v_pu:g",
    "powerflow_sections.csv": "from_node:d to_node:d p_pu:g q_pu:g",
    "fault.csv": "kind:t id:t current_pu:n current_amps:g delta_fr_pu:n "
                 "delta_rr_pu:n",
    "coordination.csv": "pair_id:t kind:t range_ok:b margin_ok:b "
                        "worst_margin_s:n worst_margin_current_pu:n "
                        "failure_mode:t backup_delay_s:g",
    "pair_{}_curves.csv": "current_pu:g t_primary_s:g t_backup_s:g",
    "trace.csv": "iteration:d total_clearing_time_s:n total_dg_output_pu:n "
                 "worst_slack_pu:n",
    "dispatch_final.csv": "dg_id:d p_out_pu:g",
    "timeseries.csv": "step:d dg_{}_p_pu:g tds_{}:g total_clearing_time_s:n "
                      "worst_slack_pu:n feasible:d",
}


def _csv(head: str, kinds: str, rows: list | tuple) -> str:
    """The CSV text of header line head and rows, their columns of the given
    kinds (letters, as in TABLES): one template, text cells alone quoted."""
    cells = [*chain.from_iterable(rows)]
    for k, kind in enumerate(kinds):
        if kind == "t":
            cells[k::len(kinds)] = map(_text, cells[k::len(kinds)])
    template = ",".join(["%.12g" if kind == "g" else "%s" for kind in kinds])
    return head + "\r\n" + (f"{template}\r\n" * len(rows)) % tuple(cells)


@cache
def _columns(name: str, repeat: tuple[tuple, ...] = ()) -> tuple[str, str]:
    """TABLES[name]'s header line and kinds, the k-th column named with {}
    repeated once per id of repeat[k]."""
    ids, header, kinds = iter(repeat), [], ""
    for column in TABLES[name].split():
        column, _, kind = column.rpartition(":")
        for i in next(ids) if "{}" in column else (None,):
            header.append(_text(column.format(i)))
            kinds += kind
    return ",".join(header), kinds


def _write_csv(out_dir: Path, name: str, rows: list | tuple, at: str = "",
               repeat: tuple[tuple, ...] = ()) -> tuple[str, int]:
    """Write rows to out_dir as the table TABLES[name], `at` filling the
    name's {} and `repeat` its repeated columns (as in _columns); return
    its manifest entry, (file name, rows)."""
    filename = name.format(at)
    _artifact(out_dir, filename, _csv(*_columns(name, repeat), rows))
    return filename, len(rows)


def _config(scn: Scenario) -> opt.OptimizerConfig:
    return opt.OptimizerConfig(
        fr_margin=scn.fr_margin,
        rr_margin=scn.rr_margin,
        fault_impedance_floor=scn.fault_impedance_floor,
        powerflow_tol=scn.powerflow_tol,
    )


def cmd_powerflow(scn: Scenario, out_dir: Path) -> tuple[RunReport, int]:
    sol = scn.flow
    lines = ["pre-fault load flow",
             f"  converged: {sol.converged}  iterations: {sol.iterations}  "
             f"max mismatch: {_fmt(sol.max_mismatch)} pu"]
    lines.append("  node  V (pu)")
    for node, v in enumerate(sol.v_mag):
        lines.append(f"  {node:>4}  {v:.6f}")
    lines.append("  section  P (pu)      Q (pu)")
    for i, (p, q) in enumerate(zip(sol.p_flow, sol.q_flow)):
        lines.append(f"  {i:>2}->{i + 1:<2}   {p:+.6f}   {q:+.6f}")
    manifest = [
        _write_csv(out_dir, "powerflow_nodes.csv",
                   [[n, v] for n, v in enumerate(sol.v_mag)]),
        _write_csv(out_dir, "powerflow_sections.csv",
                   [[i, i + 1, p, q]
                    for i, (p, q) in enumerate(zip(sol.p_flow, sol.q_flow))])]
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
    scn.flow  # a diverging load flow is reported before a bad location
    flt.check_fault(net, location, fault_impedance)
    study = scn.kernel.study(location, fault_impedance)
    amps = net.base_amps
    # each current and disparity is formatted once, for its line and cell
    pu = _fmt(study.i_substation)
    lines = [f"fault study at {location.kind}:{location.ref} "
             f"(fault impedance {_fmt(fault_impedance)} pu)",
             f"  fault-point current: {_fmt(study.i_fault_total)} pu "
             f"({study.i_fault_total * amps:.0f} A)",
             f"  substation: {pu} pu"]
    rows: list[list] = [["substation", "", pu, study.i_substation * amps,
                         "", ""]]
    for rid, i in study.i_recloser.items():
        pu, dfr, drr = (_fmt(i), _fmt(study.delta_fr[rid]),
                        _fmt(study.delta_rr[rid]))
        lines.append(f"  recloser {rid}: {pu} pu ({i * amps:.0f} A)  "
                     f"dFR={dfr}  dRR={drr}")
        rows.append(["recloser", rid, pu, i * amps, dfr, drr])
    for lid, i in study.i_fuse.items():
        pu = _fmt(i)
        lines.append(f"  fuse L{lid}: {pu} pu ({i * amps:.0f} A)")
        rows.append(["fuse", f"L{lid}", pu, i * amps, "", ""])
    for did, i in study.i_dg.items():
        pu = _fmt(i)
        lines.append(f"  dg {did}: {pu} pu")
        rows.append(["dg", did, pu, i * amps, "", ""])
    return RunReport(lines, [_write_csv(out_dir, "fault.csv", rows)]), EXIT_OK


def cmd_coordinate(scn: Scenario, out_dir: Path) -> tuple[RunReport, int]:
    net = scn.network
    pairs, _ = coord.study_pairs(scn.kernel, scn.fault_impedance_floor)
    required = {coord.PairKind.FUSE_RECLOSER: scn.fr_margin,
                coord.PairKind.RECLOSER_RECLOSER: scn.rr_margin}
    lines = ["coordination verdicts"]
    rows: list[list] = []
    manifest: list[tuple[str, int]] = []
    all_ok = True
    for pair in pairs:
        report = coord.check_pair(
            pair, *coord.pair_curves(net, pair, scn.fuse_curves),
            required[pair.kind])
        ok = report.failure_mode is coord.FailureMode.NONE
        all_ok = all_ok and ok
        worst, at = (_fmt(report.worst_margin),
                     _fmt(report.worst_margin_current))
        lines.append(
            f"  {pair.id:<12} {pair.kind.value:<18} "
            f"{report.failure_mode.value:<16} "
            f"worst margin {worst} s at {at} pu")
        rows.append([pair.id, pair.kind.value, report.range_ok,
                     report.margin_ok, worst, at, report.failure_mode.value,
                     report.backup_delay])
        manifest.append(_write_csv(out_dir, "pair_{}_curves.csv",
                                   report.samples, pair.id))
    manifest.append(_write_csv(out_dir, "coordination.csv", rows))
    return RunReport(lines, manifest), EXIT_OK if all_ok else EXIT_INFEASIBLE


def _available(scn: Scenario, step: int = 0) -> dict[int, float]:
    out = {}
    for unit in scn.network.dg_units:
        if not unit.curtailable:
            continue
        series = scn.profile.get(unit.id)
        out[unit.id] = series[step] if series else unit.p_out
    return out


def _start(scn: Scenario, config: opt.OptimizerConfig,
           header: str) -> Network:
    """The network re-dialed to the start settings: a recloser the
    settings file omits keeps its own.  Start settings that fail print
    the header and raise."""
    try:
        settings = scn.initial_settings
        if settings is None:  # no file; an empty one re-dials none
            settings = opt.baseline_settings(scn.network, scn.fuse_curves,
                                             config)
        return opt.apply_settings(scn.network, settings)
    except opt.InfeasibleError:  # no start settings: no artifacts either
        print(header)
        raise  # main names the pair on stderr


def cmd_optimize(scn: Scenario, out_dir: Path) -> tuple[RunReport, int]:
    # one dispatch and one settings solve are already the fixed point of
    # alternating the two; the report line keeps the alternation's wording
    # for existing parsers
    config = _config(scn)
    net = _start(
        scn, config, "alternating optimization: infeasible after 0 iterations")
    (study, settings, feasible), = opt.operate(
        net, [({}, _available(scn), True)], scn.fuse_curves, config)
    rows: list[list] = []
    if feasible:
        slacks = opt.pair_slacks(study, scn.fuse_curves, config)
        rows.append([1, _fmt(opt.total_clearing_time(study, settings)),
                     _fmt(left_sum(u.p_out for u in study.network.dg_units)),
                     _fmt(min(slacks.values(), default=0.0))])
    stop = "slack_fixed_point" if rows else "infeasible"
    lines = [f"alternating optimization: {stop} after {len(rows)} iterations"]
    lines += [f"  iter {k}: total clearing {clearing} s, DG output "
              f"{output} pu, worst slack {worst} pu"
              for k, clearing, output, worst in rows]
    trace = _write_csv(out_dir, "trace.csv", rows)
    _artifact(out_dir, "settings_final.json", dump_settings(settings))
    manifest = [trace, ("settings_final.json", len(settings)),
                _write_csv(out_dir, "dispatch_final.csv",
                           [[u.id, u.p_out] for u in study.network.dg_units])]
    return RunReport(lines, manifest), EXIT_OK if rows else EXIT_INFEASIBLE


def cmd_timeseries(scn: Scenario, out_dir: Path) -> tuple[RunReport, int]:
    steps = max((len(s) for s in scn.profile.values()), default=0)
    if steps < 1:
        raise NetworkFileError(f"{scn.network_path}: timeseries needs a "
                               f"profile of length >= 1")
    config = _config(scn)
    lines = [f"time-series run: {steps} steps, dispatch every "
             f"{scn.dispatch_every}, settings every {scn.settings_every}"]
    net = _start(scn, config, lines[0])
    # natural output of non-curtailable units follows the profile; the
    # plan is lazy, so each step reads its profile values as it starts
    plan = (({u.id: scn.profile[u.id][step] for u in scn.network.dg_units
              if not u.curtailable and u.id in scn.profile},
             _available(scn, step) if step % scn.dispatch_every == 0 else None,
             step % scn.settings_every == 0) for step in range(steps))
    rows: list[list] = []
    rec_ids = tuple(r.id for r in scn.network.reclosers)
    for step, (study, settings, feasible) in enumerate(
            opt.operate(net, plan, scn.fuse_curves, config)):
        clearing = _fmt(opt.total_clearing_time(study, settings))
        slacks = opt.pair_slacks(study, scn.fuse_curves, config)
        outputs = [u.p_out for u in study.network.dg_units]
        rows.append([step, *outputs, *(settings[r].time_dial for r in rec_ids),
                     clearing, "" if slacks is None else
                     _fmt(min(slacks.values(), default=0.0)), int(feasible)])
        lines.append(f"  step {step}: DG total {_fmt(left_sum(outputs))} pu, "
                     f"clearing {clearing} s, feasible {feasible}")

    entry = _write_csv(out_dir, "timeseries.csv", rows, repeat=(
        tuple(u.id for u in scn.network.dg_units), rec_ids))
    return RunReport(lines, [entry]), (
        EXIT_OK if all(row[-1] for row in rows) else EXIT_INFEASIBLE)


def _scenario_from_args(args) -> Scenario:
    if args.scenario:
        scn = load_scenario(args.scenario)
    elif args.network:
        net = load_network(Path(args.network))
        scn = Scenario(network_path=Path(args.network), network=net)
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
        if args.curve_family not in FAMILIES:
            raise NetworkFileError(
                f"unknown curve family {args.curve_family!r}")
        consts = FAMILIES[args.curve_family]
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
