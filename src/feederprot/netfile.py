"""Network and scenario file ingestion.

Both formats are JSON; field names are documented in the repository's
FORMATS.md.  Unknown keys are rejected so typos fail loudly instead of
silently defaulting.  Electrical quantities in the files are per-unit
on the declared bases.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .curves import (FuseCurve, RecloserCurve, RecloserSettings,
                     ReclosingSequence, TCIConstants, load_curve_families,
                     load_fuse_curves)
from .model import (AsynchronousParams, DGKind, DGUnit, FeederSection,
                    InverterParams, Lateral, Network, RecloserPlacement,
                    SubstationSource, SynchronousParams, validate)

FIXTURE_ENV = "FEEDERPROT_FIXTURES"


class NetworkFileError(ValueError):
    """Malformed network or scenario file; message carries file context."""


def fixtures_dir() -> Path:
    env = os.environ.get(FIXTURE_ENV)
    if env:
        return Path(env)
    return Path(str(resources.files("feederprot.fixtures")))


def _require_keys(doc: dict, allowed: set[str], required: set[str],
                  context: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise NetworkFileError(f"{context}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise NetworkFileError(f"{context}: missing keys {sorted(missing)}")


_DG_PARAM_KEYS = {
    "synchronous": ({"xd2"}, {"xd2"}),
    "asynchronous": ({"x_lr", "rated_slip"}, {"x_lr"}),
    "inverter": ({"k_off", "k_clamp", "coupling_x"}, {"k_off", "k_clamp"}),
}


def _parse_dg(entry: dict, context: str,) -> DGUnit:
    _require_keys(entry, {"id", "tap", "kind", "rating", "p", "q", "params",
                          "curtailable"},
                  {"id", "tap", "kind", "rating", "p", "q", "params"}, context)
    kind_name = entry["kind"]
    try:
        kind = DGKind(kind_name)
    except ValueError:
        raise NetworkFileError(f"{context}: unknown DG kind {kind_name!r}")
    allowed, required = _DG_PARAM_KEYS[kind_name]
    _require_keys(entry["params"], allowed, required, f"{context}.params")
    params_cls = {
        DGKind.SYNCHRONOUS: SynchronousParams,
        DGKind.ASYNCHRONOUS: AsynchronousParams,
        DGKind.INVERTER: InverterParams,
    }[kind]
    return DGUnit(
        id=int(entry["id"]),
        tap_node=int(entry["tap"]),
        kind=kind,
        rating_s=float(entry["rating"]),
        p_out=float(entry["p"]),
        q_out=float(entry["q"]),
        params=params_cls(**{k: float(v) for k, v in entry["params"].items()}),
        curtailable=bool(entry.get("curtailable", False)),
    )


def _parse_recloser(entry: dict, families: dict[str, TCIConstants],
                    context: str) -> RecloserPlacement:
    _require_keys(entry, {"id", "node", "pattern", "curves"},
                  {"id", "node", "pattern", "curves"}, context)
    curves = []
    for k, cv in enumerate(entry["curves"]):
        cctx = f"{context}.curves[{k}]"
        _require_keys(cv, {"tag", "family", "pickup", "time_dial"},
                      {"tag", "family", "pickup", "time_dial"}, cctx)
        if cv["family"] not in families:
            raise NetworkFileError(f"{cctx}: unknown curve family "
                                   f"{cv['family']!r}")
        curves.append(RecloserCurve(
            tag=cv["tag"],
            constants=families[cv["family"]],
            settings=RecloserSettings(pickup=float(cv["pickup"]),
                                      time_dial=float(cv["time_dial"])),
        ))
    return RecloserPlacement(
        id=str(entry["id"]),
        node=int(entry["node"]),
        sequence=ReclosingSequence(curves=tuple(curves),
                                  pattern=entry["pattern"]),
    )


def load_network(path: str | Path,
                 families: dict[str, TCIConstants] | None = None) -> Network:
    """Parse and validate a network description file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise NetworkFileError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if families is None:
        families = load_curve_families()

    ctx = str(path)
    _require_keys(doc, {"notes", "bases", "source", "sections", "laterals",
                        "dg", "reclosers"},
                  {"bases", "source", "sections", "laterals", "reclosers"},
                  ctx)
    _require_keys(doc["bases"], {"mva", "kv"}, {"mva", "kv"}, f"{ctx}:bases")
    _require_keys(doc["source"], {"voltage", "r", "x"},
                  {"voltage", "r", "x"}, f"{ctx}:source")

    sections = []
    for k, s in enumerate(doc["sections"]):
        _require_keys(s, {"from", "to", "r", "x"}, {"from", "to", "r", "x"},
                      f"{ctx}:sections[{k}]")
        sections.append(FeederSection(int(s["from"]), int(s["to"]),
                                      float(s["r"]), float(s["x"])))
    laterals = []
    for k, l in enumerate(doc["laterals"]):
        _require_keys(l, {"id", "tap", "p", "q", "fuse"},
                      {"id", "tap", "p", "q"}, f"{ctx}:laterals[{k}]")
        laterals.append(Lateral(int(l["id"]), int(l["tap"]), float(l["p"]),
                                float(l["q"]), l.get("fuse")))
    dg = tuple(_parse_dg(e, f"{ctx}:dg[{k}]")
               for k, e in enumerate(doc.get("dg", [])))
    reclosers = tuple(_parse_recloser(e, families, f"{ctx}:reclosers[{k}]")
                      for k, e in enumerate(doc["reclosers"]))

    network = Network(
        sections=tuple(sections),
        laterals=tuple(laterals),
        dg_units=dg,
        source=SubstationSource(voltage=float(doc["source"]["voltage"]),
                                source_r=float(doc["source"]["r"]),
                                source_x=float(doc["source"]["x"])),
        reclosers=reclosers,
        base_mva=float(doc["bases"]["mva"]),
        base_kv=float(doc["bases"]["kv"]),
    )
    problems = validate(network)
    if problems:
        lines = "; ".join(f"{v.element}: {v.rule}" for v in problems)
        raise NetworkFileError(f"{ctx}: invalid network: {lines}")
    return network


@dataclass(frozen=True)
class Scenario:
    network_path: Path
    network: Network
    fr_margin: float = 0.1
    rr_margin: float = 0.3
    fault_impedance_floor: float = 0.0
    powerflow_tol: float = 1e-8
    dispatch_tol: float = 1e-6  # tolerances.dispatch; no effect
    objective_tol: float = 1e-4
    max_iters: int = 20
    dispatch_every: int = 1
    settings_every: int = 1
    profile: dict[int, tuple[float, ...]] = field(default_factory=dict)
    initial_settings: dict[str, RecloserSettings] | None = None
    fuse_curves: dict[str, FuseCurve] = field(default_factory=dict)


def _resolve(ref: str, base_dir: Path) -> Path:
    cand = Path(ref)
    if cand.is_absolute() and cand.exists():
        return cand
    local = base_dir / ref
    if local.exists():
        return local
    shipped = fixtures_dir() / ref
    if shipped.exists():
        return shipped
    raise NetworkFileError(f"cannot resolve file reference {ref!r} "
                           f"(looked in {base_dir} and {fixtures_dir()})")


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file and its referenced network.

    A relative path is looked up in the working directory first, then
    among the shipped fixtures.
    """
    path = _resolve(str(path), Path())
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise NetworkFileError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    ctx = str(path)
    _require_keys(doc, {"notes", "network", "margins", "fault_impedance_floor",
                        "tolerances", "max_iters", "cadence", "profile",
                        "initial_settings"},
                  {"network"}, ctx)

    margins = doc.get("margins", {})
    _require_keys(margins, {"fuse_recloser", "recloser_recloser"}, set(),
                  f"{ctx}:margins")
    tol = doc.get("tolerances", {})
    _require_keys(tol, {"powerflow", "dispatch", "objective"}, set(),
                  f"{ctx}:tolerances")
    cadence = doc.get("cadence", {})
    _require_keys(cadence, {"dispatch_every", "settings_every"}, set(),
                  f"{ctx}:cadence")
    dispatch_every = int(cadence.get("dispatch_every", 1))
    settings_every = int(cadence.get("settings_every", dispatch_every))
    if dispatch_every < 1 or settings_every % dispatch_every != 0:
        raise NetworkFileError(
            f"{ctx}: settings_every must be a positive multiple of "
            f"dispatch_every")

    net_path = _resolve(doc["network"], path.parent)
    network = load_network(net_path)

    profile: dict[int, tuple[float, ...]] = {}
    lengths = set()
    for key, series in doc.get("profile", {}).items():
        dg_id = int(key)
        network.dg(dg_id)  # raises on unknown unit
        profile[dg_id] = tuple(float(v) for v in series)
        lengths.add(len(series))
    if len(lengths) > 1:
        raise NetworkFileError(f"{ctx}: profile series lengths differ")

    initial = None
    if "initial_settings" in doc:
        sp = _resolve(doc["initial_settings"], path.parent)
        initial = load_settings_file(sp)

    return Scenario(
        network_path=net_path,
        network=network,
        fr_margin=float(margins.get("fuse_recloser", 0.1)),
        rr_margin=float(margins.get("recloser_recloser", 0.3)),
        fault_impedance_floor=float(doc.get("fault_impedance_floor", 0.0)),
        powerflow_tol=float(tol.get("powerflow", 1e-8)),
        dispatch_tol=float(tol.get("dispatch", 1e-6)),
        objective_tol=float(tol.get("objective", 1e-4)),
        max_iters=int(doc.get("max_iters", 20)),
        dispatch_every=dispatch_every,
        settings_every=settings_every,
        profile=profile,
        initial_settings=initial,
        fuse_curves=load_fuse_curves(),
    )


def load_settings_file(path: str | Path) -> dict[str, RecloserSettings]:
    doc = json.loads(Path(path).read_text())
    out = {}
    for rid, st in doc.items():
        _require_keys(st, {"pickup", "time_dial"}, {"pickup", "time_dial"},
                      f"{path}:{rid}")
        out[rid] = RecloserSettings(pickup=float(st["pickup"]),
                                    time_dial=float(st["time_dial"]))
    return out


def dump_settings(settings: dict[str, RecloserSettings]) -> str:
    return json.dumps(
        {rid: {"pickup": st.pickup, "time_dial": st.time_dial}
         for rid, st in sorted(settings.items())},
        indent=2, sort_keys=True) + "\n"
