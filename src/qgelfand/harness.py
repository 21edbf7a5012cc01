"""Claims suites: deterministic, seeded batch runs of the verification and
falsification probes over a list of algebra instances.

Commutative instances must satisfy every probed identity; noncommutative
defects are findings and never fail a run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FdAlgebra,
    State,
    as_pure,
    gns,
    is_irreducible,
    r_is_discrete,
    random_pure_state,
)
from .linalg import _is_int, matrix_from_json
from .qspace import (
    ClaimsReport,
    QFunction,
    cstar_identity_defect,
    hat_is_characteristic_defect,
    hat_preimage_qness,
    judged,
    prop9_defect,
    thm3_diagnostics,
    top_projectors,
)

SUITES = ("prop1", "prop2", "prop7", "prop9", "thm3", "preimage")
CONFIG_KEYS = ("suite", "instances", "seed", "samples")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    suite: str
    instances: list  # file paths or inline instance dicts
    seed: int
    samples: int = 1000
    base_dir: pathlib.Path = field(default_factory=pathlib.Path)

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; pick one of {SUITES}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed is mandatory and must be a nonnegative integer")
        if not _is_int(self.samples) or self.samples <= 0:
            raise ConfigError("samples must be a positive integer")
        if not isinstance(self.instances, list):
            raise ConfigError("instances must be a list of paths or inline instances")
        if not self.instances:
            raise ConfigError("at least one instance is required")

    @classmethod
    def from_json(cls, obj: dict, base_dir: pathlib.Path | None = None) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("claims config must be a JSON object")
        # a misspelt or retired key would otherwise run silently with defaults
        for key in obj:
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown claims config field {key!r}; "
                                  f"allowed: {', '.join(CONFIG_KEYS)}")
        try:
            return cls(
                suite=obj["suite"],
                instances=obj["instances"],
                seed=obj["seed"],
                samples=obj.get("samples", 1000),
                base_dir=base_dir or pathlib.Path(),
            )
        except KeyError as exc:
            raise ConfigError(f"claims config missing field {exc}") from exc


def read_json(path):
    """The JSON value in the file at path, decoded as UTF-8 whatever the
    locale.  Line ends are read as text mode reads them, so that a syntax
    error names the same line and column.  Raises OSError, or ValueError
    for bad UTF-8 or bad JSON."""
    with open(path, "rb") as f:
        text = f.read().decode()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text)


def load_instance(entry, base_dir: pathlib.Path) -> tuple[str, FdAlgebra, dict]:
    """An instance is either a path to an algebra JSON file or an inline
    dict {"name", "algebra", optional "element", "center", "radius"}."""
    if isinstance(entry, str):
        try:
            obj = read_json(base_dir / entry)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise ConfigError(f"cannot read instance {entry}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"instance {entry} must hold a JSON object")
        name, alg_obj = pathlib.Path(entry).stem, obj
    elif isinstance(entry, dict):
        name, alg_obj, obj = entry.get("name", "inline"), entry.get("algebra"), entry
        if not isinstance(name, str):
            raise ConfigError(f"an inline instance's name must be a string, got {name!r}")
    else:
        raise ConfigError(f"instance entries must be paths or dicts, got {type(entry)}")
    try:
        alg = FdAlgebra.from_json(alg_obj)
        extras = _instance_extras(alg, obj)
    except ValueError as exc:
        raise ConfigError(f"instance {name}: {exc}") from exc
    return name, alg, extras


def _instance_extras(alg: FdAlgebra, obj: dict) -> dict:
    """The optional element (a member of alg), disc center (complex) and
    radius (finite, > 0) of an instance, parsed and checked."""
    extras = {}
    if "element" in obj:
        a = matrix_from_json(obj["element"])
        n = alg.ambient_dim
        if a.shape != (n, n):
            raise ValueError(f"element must be {n}x{n}, got {a.shape[0]}x{a.shape[1]}")
        extras["element"] = alg.require_member(a)
    if "center" in obj:
        c = obj["center"]
        if not (isinstance(c, list) and len(c) == 2 and all(_is_finite(x) for x in c)):
            raise ValueError("center must be a pair of finite numbers [re, im]")
        extras["center"] = complex(*c)
    if "radius" in obj:
        r = obj["radius"]
        if not (_is_finite(r) and r > 0):
            raise ValueError("radius must be a finite number > 0")
        extras["radius"] = float(r)
    return extras


def _is_finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _suite_prop1(alg, extras, cfg, rng) -> list[ClaimsReport]:
    discrete = r_is_discrete(alg)
    comm = alg.commutative
    return [judged("prop1_dichotomy", {"r_discrete": discrete, "commutative": comm},
                   discrete != comm)]


def _suite_prop2(alg, extras, cfg, rng) -> list[ClaimsReport]:
    n = alg.ambient_dim
    mismatches = 0
    witness = None
    for k in range(cfg.samples):
        # every other density matrix is rank one, so that states pure on a
        # nontrivial algebra are drawn too: a full-rank one is pure only
        # on the scalars
        shape = (n, 1) if k % 2 else (n, n)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rho = g @ g.conj().T
        rho = rho / np.real(np.trace(rho))
        state = State(rho)
        pure = as_pure(alg, state) is not None
        irr = is_irreducible(gns(alg, state))
        if pure != irr:
            mismatches += 1
            if witness is None:
                witness = rho
    return [judged("prop2_purity_irreducibility",
                   {"samples": cfg.samples, "mismatches": mismatches},
                   mismatches > 0, [witness])]


def _instance_members(alg, extras, rng) -> list[np.ndarray]:
    """The Hermitian members whose top spectral projections a suite
    probes: the instance element's Hermitian part, or two random Hermitian
    members.  Both are drawn even where a suite probes only the first, so
    that the draws after them do not depend on the suite."""
    if "element" in extras:
        a = extras["element"]
        return [(a + a.conj().T) / 2]
    return [alg.random_element(rng, hermitian=True) for _ in range(2)]


def _suite_prop7(alg, extras, cfg, rng) -> list[ClaimsReport]:
    # top spectral projections, one projector per block each
    projs = [top_projectors(alg, h) for h in _instance_members(alg, extras, rng)]
    if len(projs) == 1:
        projs = projs * 2
    # χ_U + i·χ_V, one function per block
    fs = [QFunction([(1.0 + 0j, p), (1j, q)]) for p, q in zip(*projs)]
    return [cstar_identity_defect(fs)]


def _suite_prop9(alg, extras, cfg, rng) -> list[ClaimsReport]:
    a = alg.random_element(rng, hermitian=True)
    b = alg.random_element(rng, hermitian=True)
    state = random_pure_state(alg, rng)
    rep = prop9_defect(alg, state, a, b)
    p = top_projectors(alg, _instance_members(alg, extras, rng)[0])
    return [rep, hat_is_characteristic_defect(alg, p, cfg.samples, rng)]


def _suite_thm3(alg, extras, cfg, rng) -> list[ClaimsReport]:
    return [thm3_diagnostics(alg, cfg.samples, rng)]


def _suite_preimage(alg, extras, cfg, rng) -> list[ClaimsReport]:
    images = [p.matrix for p in top_projectors(alg, _instance_members(alg, extras, rng)[0])]
    center = extras.get("center", 1.0 + 0j)
    radius = extras.get("radius", 0.1)
    return [hat_preimage_qness(alg, images, center, radius, cfg.samples, rng)]


_RUNNERS = {
    "prop1": _suite_prop1,
    "prop2": _suite_prop2,
    "prop7": _suite_prop7,
    "prop9": _suite_prop9,
    "thm3": _suite_thm3,
    "preimage": _suite_preimage,
}

# suites whose verdict is specified for every instance class: a failure
# here is a bug, not a finding
_ALWAYS_SPECIFIED = {"prop1", "prop2"}


def run_suite(cfg: RunConfig) -> dict:
    """Execute one claims suite; the result dict is JSON-serializable and
    byte-stable for a fixed (config, seed)."""
    rng = np.random.default_rng(cfg.seed)
    runner = _RUNNERS[cfg.suite]
    rows = []
    ok = True
    for entry in cfg.instances:
        name, alg, extras = load_instance(entry, cfg.base_dir)
        reports = runner(alg, extras, cfg, rng)
        for rep in reports:
            rep.instance, rep.seed = name, cfg.seed
            rows.append(rep.to_json())
            # commutativity only decides whether a failure counts
            if rep.verdict == "fails" and (cfg.suite in _ALWAYS_SPECIFIED
                                           or alg.commutative):
                ok = False
    return {
        "suite": cfg.suite,
        "config": {
            "seed": cfg.seed,
            "samples": cfg.samples,
            "mode": "superposition",  # fixed, as in ClaimsReport.to_json
            "instances": [e if isinstance(e, str) else e.get("name", "inline")
                          for e in cfg.instances],
        },
        "rows": rows,
        "ok": ok,
    }


CSV_COLUMNS = ["suite", "claim", "instance", "mode", "verdict",
               "defect_name", "defect_value"]


def suite_result_csv(result: dict) -> str:
    """CSV projection: one row per (claim, instance, defect)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for row in result["rows"]:
        for dname, dval in sorted(row["defects"].items()):
            w.writerow([result["suite"], row["claim"], row["instance"],
                        row["mode"], row["verdict"], dname, dval])
    return buf.getvalue()
