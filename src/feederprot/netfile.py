"""Network, scenario and shipped curve-table file ingestion.

Every format is JSON; field names are documented in the repository's
FORMATS.md.  Every element is read by a ``_reader`` of a spec that
names each of its keys once, with the key's JSON kind and default: an
unknown key, a missing one or a value of the wrong kind is an input
error naming the file, the element and the key.  Electrical quantities
in the files are per-unit on the declared bases.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, partial
from importlib import resources
from pathlib import Path

from .coordination import DEFAULT_FR_MARGIN, DEFAULT_RR_MARGIN
from .curves import (FuseCurve, RecloserCurve, RecloserSettings,
                     ReclosingSequence, TCIConstants)
from .fault import FaultKernel, fault_kernel
from .model import (DG_PARAMS, DGKind, DGUnit, FeederSection, Lateral,
                    Network, RecloserPlacement, SubstationSource, validate,
                    validate_flow)
from .power_flow import DEFAULT_TOL, PowerFlowSolution, solve_distflow

FIXTURE_ENV = "FEEDERPROT_FIXTURES"

# a key's JSON kind is the type json.loads gives its value, float standing
# for any JSON number, integer or not, but never true or false
_KINDS = {float: "a number", int: "an integer", str: "a string",
          bool: "true or false", dict: "a JSON object", list: "a JSON array"}
NUMBER, INTEGER, STRING = (float, MISSING), (int, MISSING), (str, MISSING)


class NetworkFileError(ValueError):
    """Malformed network or scenario file; message carries file context."""


def fixtures_dir() -> Path:
    env = os.environ.get(FIXTURE_ENV)
    if env:
        return Path(env)
    return Path(str(resources.files("feederprot.fixtures")))


def _read_json(path: Path):
    """The JSON document a file holds; bad JSON names the file and line."""
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise NetworkFileError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer of 4,300+ digits
        raise NetworkFileError(f"{path}: {exc}") from exc


def _is(value, kind: type) -> bool:
    return type(value) is kind or kind is float and type(value) is int


def _float(number: int | float) -> float:
    """A JSON number as a float; an integer past the float range is
    infinite, as json reads 1e400."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def _object(doc, ctx) -> dict:
    if not _is(doc, dict):
        raise NetworkFileError(f"{ctx}: must be a JSON object, got {doc!r}")
    return doc


def _made(make, ctx, *args, **kwargs):
    """make(*args, **kwargs); its ValueError is an input error at ctx."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise NetworkFileError(f"{ctx}: {exc}") from None


def _reader(spec: dict, make=None):
    """The reader of a JSON object by spec, read(doc, ctx).

    spec maps each key to (kind, default), default MISSING for a required
    key; an object or array key may add a reader, which reads the value,
    or each item.  read gives the values in the order of spec's keys,
    numbers as floats, or make(*values), whose ValueError is an input
    error at the element.  A key's context is file:key in a file (ctx a
    Path), element.key in an element, and an item's adds [k].
    """
    entries = [(key, kind, default, inner[0] if inner else None)
               for key, (kind, default, *inner) in spec.items()]
    required = {key for key, _, default, _ in entries if default is MISSING}

    def read(doc, ctx):
        if not (type(doc) is dict and doc.keys() <= spec.keys()
                and required <= doc.keys()):
            if unknown := _object(doc, ctx).keys() - spec.keys():
                raise NetworkFileError(
                    f"{ctx}: unknown keys {sorted(unknown)}")
            raise NetworkFileError(
                f"{ctx}: missing keys {sorted(required.difference(doc))}")
        values = []
        sep = ":" if isinstance(ctx, Path) else "."
        for key, kind, default, inner in entries:
            value = doc.get(key, default)
            if type(value) is not kind and key in doc:  # defaults hold
                if not _is(value, kind):
                    where = (f"{ctx}{sep}{key}:" if kind in (dict, list)
                             else f"{ctx}: {key}")
                    raise NetworkFileError(
                        f"{where} must be {_KINDS[kind]}, got {value!r}")
                value = _float(value)  # an int where a number goes
            if inner:
                sub = f"{ctx}{sep}{key}"
                value = (tuple([inner(item, f"{sub}[{k}]")
                                for k, item in enumerate(value)])
                         if kind is list else inner(value, sub))
            values.append(value)
        return _made(make, ctx, *values) if make else values
    return read


SETTINGS = {"pickup": NUMBER, "time_dial": NUMBER}
_settings = _reader(SETTINGS, RecloserSettings)
# a kind's parameter class's fields are its keys, those without a default
# the required ones
_params = {kind: _reader({f.name: (float, f.default) for f in fields(cls)},
                         cls) for kind, cls in DG_PARAMS.items()}


_dg_fields = _reader({
    "id": INTEGER, "tap": INTEGER, "kind": STRING, "rating": NUMBER,
    "p": NUMBER, "q": NUMBER,
    # read below, by the spec of the kind's parameter class
    "params": (dict, MISSING, lambda params, ctx: (params, ctx)),
    "curtailable": (bool, False)})


def _dg(doc, ctx: str) -> DGUnit:
    uid, tap, kind, rating, p, q, params, curtailable = _dg_fields(doc, ctx)
    try:
        kind = DGKind(kind)
    except ValueError:
        raise NetworkFileError(f"{ctx}: unknown DG kind {kind!r}") from None
    return DGUnit(uid, tap, kind, rating, p, q, _params[kind](*params),
                  curtailable)


def _point(pair, ctx: str) -> tuple[float, float]:
    """A fuse table's [current, time] pair of numbers."""
    if _is(pair, list) and len(pair) == 2 and all(_is(v, float) for v in pair):
        return _float(pair[0]), _float(pair[1])
    raise NetworkFileError(f"{ctx}: must be a [current, time] pair of "
                           f"numbers, got {pair!r}")


_FAMILY = (dict.fromkeys(("a", "b", "c", "m", "K"), NUMBER),
           lambda _, *constants: TCIConstants(*constants))
_FUSE = ({"mm": (list, MISSING, _point), "tc": (list, MISSING, _point)},
         FuseCurve)


def _table(path: Path, key: str, entry: tuple) -> dict:
    """A data file's {"version": int, key: {name: ...}} entries, each read
    at file:key.name by entry's spec into entry's make(name, *values)."""
    spec, make = entry
    _, entries = _reader({"version": INTEGER, key: (dict, MISSING)})(
        _read_json(path), path)
    return {name: _reader(spec, partial(make, name))(
        doc, f"{path}:{key}.{name}") for name, doc in entries.items()}


# the shipped tables, read once, on import
_DATA = Path(str(resources.files("feederprot.data")))
FAMILIES = _table(_DATA / "curve_families.json", "families", _FAMILY)
FUSES = _table(_DATA / "fuse_curves.json", "fuses", _FUSE)


def load_network(path: str | Path) -> Network:
    """Parse and validate a network description file."""
    path = Path(path)

    def curve(tag, family, pickup, time_dial) -> RecloserCurve:
        if family not in FAMILIES:
            raise ValueError(f"unknown curve family {family!r}")
        return RecloserCurve(tag, FAMILIES[family],
                             RecloserSettings(pickup, time_dial))

    _, (mva, kv), source, sections, laterals, dg, reclosers = _reader({
        "notes": (str, None),
        "bases": (dict, MISSING, _reader({"mva": NUMBER, "kv": NUMBER})),
        "source": (dict, MISSING, _reader(
            {"voltage": NUMBER, "r": NUMBER, "x": NUMBER}, SubstationSource)),
        "sections": (list, MISSING, _reader(
            {"from": INTEGER, "to": INTEGER, "r": NUMBER, "x": NUMBER},
            FeederSection)),
        "laterals": (list, MISSING, _reader(
            {"id": INTEGER, "tap": INTEGER, "p": NUMBER, "q": NUMBER,
             "fuse": (str, None)}, Lateral)),
        "dg": (list, [], _dg),
        "reclosers": (list, MISSING, _reader({
            "id": STRING, "node": INTEGER, "pattern": STRING,
            "curves": (list, MISSING, _reader(
                {"tag": STRING, "family": STRING, **SETTINGS}, curve))},
            lambda rid, node, pattern, curves: RecloserPlacement(
                rid, node, ReclosingSequence(curves, pattern))))},
    )(_read_json(path), path)
    network = Network(sections, laterals, dg, source, reclosers, mva, kv)
    if problems := validate(network):
        lines = "; ".join(f"{v.element}: {v.rule}" for v in problems)
        raise NetworkFileError(f"{path}: invalid network: {lines}")
    return network


@dataclass(frozen=True)
class Scenario:
    network_path: Path
    network: Network
    fr_margin: float = DEFAULT_FR_MARGIN
    rr_margin: float = DEFAULT_RR_MARGIN
    fault_impedance_floor: float = 0.0
    powerflow_tol: float = DEFAULT_TOL
    dispatch_every: int = 1
    settings_every: int = 1
    profile: dict[int, tuple[float, ...]] = field(default_factory=dict)
    initial_settings: dict[str, RecloserSettings] | None = None
    # not fields: the shipped fuse table, and the defaults of the keys
    # tolerances.dispatch, tolerances.objective and max_iters, which
    # load_scenario checks and drops, as they change no answer; only
    # perfbench's check_case_a_band still reads the three
    fuse_curves = FUSES
    dispatch_tol, objective_tol, max_iters = 1e-6, 1e-4, 20

    def __post_init__(self):
        # one check for the scenario file, --network and every override
        if (self.dispatch_every < 1 or self.settings_every < 1
                or self.settings_every % self.dispatch_every != 0):
            raise NetworkFileError("settings_every must be a positive "
                                   "multiple of dispatch_every")
        if not 0.0 < self.powerflow_tol < math.inf:  # as solve_distflow's
            raise NetworkFileError(f"tol must be finite and > 0, got "
                                   f"{self.powerflow_tol!r}")
        if not 0.0 <= self.fault_impedance_floor < math.inf:
            raise NetworkFileError(f"fault_impedance_floor must be finite "
                                   f"and >= 0, got "
                                   f"{self.fault_impedance_floor!r}")
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
    local = base_dir / ref  # ref itself when it is absolute
    if local.is_file():
        return local
    shipped = fixtures_dir() / ref
    if shipped.is_file():
        return shipped
    raise NetworkFileError(f"cannot resolve file reference {ref!r} "
                           f"(looked in {base_dir} and {fixtures_dir()})")


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file and its referenced network.

    A relative path is looked up in the working directory first, then
    among the shipped fixtures.
    """
    path = _resolve(str(path), Path())
    (_, net_ref, (fr_margin, rr_margin), floor, (pf_tol, _, _), _,
     (dispatch_every, settings_every), profile_doc, settings_ref) = _reader({
        "notes": (str, None),
        "network": STRING,
        "margins": (dict, {}, _reader({
            "fuse_recloser": (float, Scenario.fr_margin),
            "recloser_recloser": (float, Scenario.rr_margin)})),
        "fault_impedance_floor": (float, Scenario.fault_impedance_floor),
        "tolerances": (dict, {}, _reader({
            "powerflow": (float, Scenario.powerflow_tol),
            "dispatch": (float, Scenario.dispatch_tol),
            "objective": (float, Scenario.objective_tol)})),
        "max_iters": (int, Scenario.max_iters),
        "cadence": (dict, {}, _reader({
            "dispatch_every": (int, Scenario.dispatch_every),
            "settings_every": (int, None)})),  # default: dispatch_every
        "profile": (dict, {}),
        "initial_settings": (str, None)})(_read_json(path), path)
    net_path = _made(_resolve, f"{path}: network", net_ref, path.parent)
    network = load_network(net_path)

    # a key is an id in decimal, so no two keys name one unit
    profile: dict[int, tuple[float, ...]] = {}
    for key, series in profile_doc.items():
        if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
            raise NetworkFileError(f"{path}: profile key {key!r} is not an "
                                   f"integer DG id")
        dg_id = int(key)
        if dg_id not in {u.id for u in network.dg_units}:
            raise NetworkFileError(f"{path}: profile key {key!r}: no DG unit "
                                   f"with id {dg_id} in {net_path}")
        if not _is(series, list):
            raise NetworkFileError(f"{path}: profile dg[{dg_id}] must be a "
                                   f"list of outputs, got {series!r}")
        for step, v in enumerate(series):
            if not (_is(v, float) and 0 <= _float(v) < math.inf):
                raise NetworkFileError(
                    f"{path}: profile dg[{dg_id}] step {step}: output must "
                    f"be a finite number >= 0, got {v!r}")
        # the unit at its peak, judged as the network's own outputs are
        outputs = profile[dg_id] = tuple(map(_float, series))
        peak = max(outputs, default=0.0)
        if problems := validate_flow(network.with_dg_outputs({dg_id: peak})):
            raise NetworkFileError(f"{path}: profile dg[{dg_id}] step "
                                   f"{outputs.index(peak)}: {problems[0].rule}")
    if len({len(series) for series in profile.values()}) > 1:
        raise NetworkFileError(f"{path}: profile series lengths differ")

    initial = None
    if settings_ref is not None:
        initial = load_settings_file(
            _made(_resolve, f"{path}: initial_settings",
                  settings_ref, path.parent))
    return _made(
        Scenario, path, network_path=net_path, network=network,
        fr_margin=fr_margin, rr_margin=rr_margin, fault_impedance_floor=floor,
        powerflow_tol=pf_tol, dispatch_every=dispatch_every,
        settings_every=(dispatch_every if settings_every is None
                        else settings_every),
        profile=profile, initial_settings=initial)


def load_settings_file(path: str | Path) -> dict[str, RecloserSettings]:
    """Parse a settings file: each recloser id's pickup and time_dial."""
    path = Path(path)
    return {rid: _settings(entry, f"{path}:{rid}")
            for rid, entry in _object(_read_json(path), path).items()}


def dump_settings(settings: dict[str, RecloserSettings]) -> str:
    return json.dumps(
        {rid: {"pickup": st.pickup, "time_dial": st.time_dial}
         for rid, st in sorted(settings.items())},
        indent=2, sort_keys=True) + "\n"
