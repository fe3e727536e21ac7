"""Network and scenario file ingestion.

Both formats are JSON; field names are documented in the repository's
FORMATS.md.  Unknown keys are rejected so typos fail loudly instead of
silently defaulting.  Electrical quantities in the files are per-unit
on the declared bases.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from importlib import resources
from pathlib import Path

from .coordination import DEFAULT_FR_MARGIN, DEFAULT_RR_MARGIN
from .curves import (FuseCurve, RecloserCurve, RecloserSettings,
                     ReclosingSequence, TCIConstants, load_curve_families,
                     load_fuse_curves)
from .fault import FaultKernel, fault_kernel
from .model import (DG_PARAMS, DGKind, DGUnit, FeederSection, Lateral,
                    Network, RecloserPlacement, SubstationSource, validate)
from .power_flow import DEFAULT_TOL, PowerFlowSolution, solve_distflow

FIXTURE_ENV = "FEEDERPROT_FIXTURES"


class NetworkFileError(ValueError):
    """Malformed network or scenario file; message carries file context."""


def fixtures_dir() -> Path:
    env = os.environ.get(FIXTURE_ENV)
    if env:
        return Path(env)
    return Path(str(resources.files("feederprot.fixtures")))


def _require(doc, kind: type, context: str):
    """doc, which must be a JSON object (kind dict) or array (kind list)."""
    if type(doc) is not kind:
        name = "object" if kind is dict else "array"
        raise NetworkFileError(
            f"{context}: must be a JSON {name}, got {doc!r}")
    return doc


def _read_json(path: Path):
    """The JSON document a file holds; bad JSON names the file and line."""
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise NetworkFileError(f"{path}:{exc.lineno}: {exc.msg}") from exc


def _require_keys(doc: dict, allowed: set[str], required: set[str],
                  context: str) -> None:
    _require(doc, dict, context)
    unknown = set(doc) - allowed
    if unknown:
        raise NetworkFileError(f"{context}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise NetworkFileError(f"{context}: missing keys {sorted(missing)}")


def _integer(doc: dict, key: str, default: int | None, context: str) -> int:
    """A JSON integer; a float, string or boolean is an input error."""
    value = doc.get(key, default)
    if type(value) is not int:
        raise NetworkFileError(
            f"{context}: {key} must be an integer, got {value!r}")
    return value


def _settings(entry: dict, context: str) -> RecloserSettings:
    """A pickup and time dial; a bad value is an error at ``context``."""
    try:
        return RecloserSettings(pickup=float(entry["pickup"]),
                                time_dial=float(entry["time_dial"]))
    except ValueError as exc:
        raise NetworkFileError(f"{context}: {exc}") from None


def _parse_dg(entry: dict, context: str,) -> DGUnit:
    _require_keys(entry, {"id", "tap", "kind", "rating", "p", "q", "params",
                          "curtailable"},
                  {"id", "tap", "kind", "rating", "p", "q", "params"}, context)
    kind_name = entry["kind"]
    try:
        kind = DGKind(kind_name)
    except ValueError:
        raise NetworkFileError(f"{context}: unknown DG kind {kind_name!r}")
    params_cls = DG_PARAMS[kind]
    # the parameter class's fields are the keys, those without a default
    # the required ones
    keys = fields(params_cls)
    _require_keys(entry["params"], {f.name for f in keys},
                  {f.name for f in keys if f.default is MISSING},
                  f"{context}.params")
    return DGUnit(
        id=_integer(entry, "id", None, context),
        tap_node=_integer(entry, "tap", None, context),
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
    for k, cv in enumerate(_require(entry["curves"], list,
                                    f"{context}.curves")):
        cctx = f"{context}.curves[{k}]"
        _require_keys(cv, {"tag", "family", "pickup", "time_dial"},
                      {"tag", "family", "pickup", "time_dial"}, cctx)
        if cv["family"] not in families:
            raise NetworkFileError(f"{cctx}: unknown curve family "
                                   f"{cv['family']!r}")
        curves.append(RecloserCurve(
            tag=cv["tag"],
            constants=families[cv["family"]],
            settings=_settings(cv, cctx),
        ))
    return RecloserPlacement(
        id=str(entry["id"]),
        node=_integer(entry, "node", None, context),
        sequence=ReclosingSequence(curves=tuple(curves),
                                  pattern=entry["pattern"]),
    )


def load_network(path: str | Path) -> Network:
    """Parse and validate a network description file."""
    path = Path(path)
    doc = _read_json(path)
    families = load_curve_families()

    ctx = str(path)
    _require_keys(doc, {"notes", "bases", "source", "sections", "laterals",
                        "dg", "reclosers"},
                  {"bases", "source", "sections", "laterals", "reclosers"},
                  ctx)
    _require_keys(doc["bases"], {"mva", "kv"}, {"mva", "kv"}, f"{ctx}:bases")
    _require_keys(doc["source"], {"voltage", "r", "x"},
                  {"voltage", "r", "x"}, f"{ctx}:source")
    for key in ("sections", "laterals", "dg", "reclosers"):
        _require(doc.get(key, []), list, f"{ctx}:{key}")

    sections = []
    for k, s in enumerate(doc["sections"]):
        sctx = f"{ctx}:sections[{k}]"
        _require_keys(s, {"from", "to", "r", "x"}, {"from", "to", "r", "x"},
                      sctx)
        sections.append(FeederSection(
            _integer(s, "from", None, sctx), _integer(s, "to", None, sctx),
            float(s["r"]), float(s["x"])))
    laterals = []
    for k, l in enumerate(doc["laterals"]):
        lctx = f"{ctx}:laterals[{k}]"
        _require_keys(l, {"id", "tap", "p", "q", "fuse"},
                      {"id", "tap", "p", "q"}, lctx)
        laterals.append(Lateral(_integer(l, "id", None, lctx),
                                _integer(l, "tap", None, lctx), float(l["p"]),
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
    fr_margin: float = DEFAULT_FR_MARGIN
    rr_margin: float = DEFAULT_RR_MARGIN
    fault_impedance_floor: float = 0.0
    powerflow_tol: float = DEFAULT_TOL
    dispatch_tol: float = 1e-6  # tolerances.dispatch; no effect
    objective_tol: float = 1e-4  # tolerances.objective; no effect
    max_iters: int = 20  # no effect
    dispatch_every: int = 1
    settings_every: int = 1
    profile: dict[int, tuple[float, ...]] = field(default_factory=dict)
    initial_settings: dict[str, RecloserSettings] | None = None
    fuse_curves: dict[str, FuseCurve] = field(
        default_factory=load_fuse_curves)

    def __post_init__(self):
        # one check for the scenario file, --network and every override
        if (self.dispatch_every < 1 or self.settings_every < 1
                or self.settings_every % self.dispatch_every != 0):
            raise NetworkFileError("settings_every must be a positive "
                                   "multiple of dispatch_every")
        for key, margin in (("fuse_recloser", self.fr_margin),
                            ("recloser_recloser", self.rr_margin)):
            if not 0.0 < margin < math.inf:
                raise NetworkFileError(f"{key} margin must be finite and "
                                       f"> 0, got {margin!r}")
        for lat in self.network.laterals:
            if lat.fuse is not None and lat.fuse not in self.fuse_curves:
                raise NetworkFileError(
                    f"{self.network_path}: lateral {lat.id}: fuse "
                    f"{lat.fuse!r} is not in the fuse table")
        for rid in self.initial_settings or {}:
            if rid not in {rec.id for rec in self.network.reclosers}:
                raise NetworkFileError(
                    f"initial_settings:{rid}: no recloser with id {rid!r} "
                    f"in {self.network_path}")

    @cached_property
    def flow(self) -> PowerFlowSolution:
        """The network's pre-fault load flow at ``powerflow_tol``, solved
        on first read; a replaced scenario solves its own."""
        return solve_distflow(self.network, tol=self.powerflow_tol)

    @cached_property
    def kernel(self) -> FaultKernel:
        """The fault kernel of that load flow, factored on first read;
        raises PowerFlowNotConverged when the flow did not converge."""
        return fault_kernel(self.network, self.flow)


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
    doc = _read_json(path)
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
    max_iters = _integer(doc, "max_iters", 20, ctx)
    cadence = doc.get("cadence", {})
    _require_keys(cadence, {"dispatch_every", "settings_every"}, set(),
                  f"{ctx}:cadence")
    dispatch_every = _integer(cadence, "dispatch_every", 1, f"{ctx}:cadence")
    settings_every = _integer(cadence, "settings_every", dispatch_every,
                              f"{ctx}:cadence")

    floor = float(doc.get("fault_impedance_floor", 0.0))
    if not 0.0 <= floor < math.inf:
        raise NetworkFileError(f"{ctx}: fault_impedance_floor must be finite "
                               f"and >= 0, got {floor!r}")

    net_path = _resolve(doc["network"], path.parent)
    network = load_network(net_path)

    profile: dict[int, tuple[float, ...]] = {}
    lengths = set()
    _require(doc.get("profile", {}), dict, f"{ctx}:profile")
    for key, series in doc.get("profile", {}).items():
        try:
            dg_id = int(key)
        except ValueError:
            raise NetworkFileError(f"{ctx}: profile key {key!r} is not an "
                                   f"integer DG id") from None
        if dg_id not in {u.id for u in network.dg_units}:
            raise NetworkFileError(f"{ctx}: profile key {key!r}: no DG unit "
                                   f"with id {dg_id} in {net_path}")
        if type(series) is not list:
            raise NetworkFileError(f"{ctx}: profile dg[{dg_id}] must be a "
                                   f"list of outputs, got {series!r}")
        for step, v in enumerate(series):
            if type(v) not in (int, float) or not 0 <= v < math.inf:
                raise NetworkFileError(
                    f"{ctx}: profile dg[{dg_id}] step {step}: output must "
                    f"be a finite number >= 0, got {v!r}")
        profile[dg_id] = tuple(float(v) for v in series)
        lengths.add(len(series))
    if len(lengths) > 1:
        raise NetworkFileError(f"{ctx}: profile series lengths differ")

    initial = None
    if "initial_settings" in doc:
        sp = _resolve(doc["initial_settings"], path.parent)
        initial = load_settings_file(sp)

    try:
        return Scenario(
            network_path=net_path, network=network,
            fr_margin=float(margins.get("fuse_recloser", DEFAULT_FR_MARGIN)),
            rr_margin=float(margins.get("recloser_recloser",
                                        DEFAULT_RR_MARGIN)),
            fault_impedance_floor=floor,
            powerflow_tol=float(tol.get("powerflow", DEFAULT_TOL)),
            dispatch_tol=float(tol.get("dispatch", 1e-6)),
            objective_tol=float(tol.get("objective", 1e-4)),
            max_iters=max_iters, dispatch_every=dispatch_every,
            settings_every=settings_every, profile=profile,
            initial_settings=initial)
    except NetworkFileError as exc:
        raise NetworkFileError(f"{ctx}: {exc}") from None


def load_settings_file(path: str | Path) -> dict[str, RecloserSettings]:
    """Parse a settings file: each recloser id's pickup and time_dial."""
    path = Path(path)
    doc = _require(_read_json(path), dict, str(path))
    out = {}
    for rid, st in doc.items():
        ctx = f"{path}:{rid}"
        _require_keys(st, {"pickup", "time_dial"}, {"pickup", "time_dial"},
                      ctx)
        for key in ("pickup", "time_dial"):
            if type(st[key]) not in (int, float):
                raise NetworkFileError(
                    f"{ctx}: {key} must be a number, got {st[key]!r}")
        out[rid] = _settings(st, ctx)
    return out


def dump_settings(settings: dict[str, RecloserSettings]) -> str:
    return json.dumps(
        {rid: {"pickup": st.pickup, "time_dial": st.time_dial}
         for rid, st in sorted(settings.items())},
        indent=2, sort_keys=True) + "\n"
