"""Seeded inputs and command cycles of the three benchmark workloads.

A workload is one fixed cycle of CLI commands over input files that are
generated from the workload seed and written to a directory, so the program
receives only files.  The benchmark repeats the cycle; every repetition runs
the same commands on the same files.

Why each workload exists (see README.md for the layer mapping):

* ``claims`` -- the paper's verify/falsify path: ``claims run`` once per
  (suite, instance) pair over the test algebra zoo, a multiplicity-2
  instance and seeded random instances.  Thousands of tiny-matrix calls into
  ``linalg``, ``qspace`` and the state/GNS half of ``algebra``; algebra
  closure is negligible (n <= 4).
* ``spectral`` -- ``spectral report`` and ``invsub --mode both`` on seeded
  matrices from n = 2 to 8 in four structures.  One algebra closure and
  Wedderburn decomposition per command, up to algebra dimension 64; bypasses
  ``qspace`` and the projector lattice.
* ``lattice`` -- ``oml verify``, ``oml boolean`` and ``oml semigroup`` on the
  lattice zoo and larger generated lattices.  Pure integer Python, the only
  workload for ``oml``/``sasaki``; CLI overhead is a large share.

The inputs are built here, not with the package's own zoo helpers, so that a
change to the package cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("claims", "spectral", "lattice")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a cycle."""

    name: str  # stable id: the key of the command's recorded values
    argv: tuple[str, ...]
    out: Path  # the report file the command writes through --out
    matrix: Path | None = None  # input matrix of an invsub command


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Command]:
    """Write the inputs of one workload into workdir and return its cycle.

    smoke=True keeps the smallest inputs of every command kind, for tests.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"claims": _claims, "spectral": _spectral, "lattice": _lattice}[workload](
        rng, workdir, smoke)


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


def _matrix_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"rows": a.shape[0], "cols": a.shape[1],
            "re": a.real.tolist(), "im": a.imag.tolist()}


def _ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(n, rng))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _conjugate(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    u = _haar_unitary(a.shape[0], rng)
    return u @ a @ u.conj().T


# ---------------------------------------------------------------------------
# claims

SUITES = ("prop1", "prop2", "prop7", "prop9", "thm3", "preimage")
# prop1 and prop7 take no samples; prop2 and thm3 cost one GNS construction
# or one modeled product per sample, so they get few
SUITE_SAMPLES = {"prop1": 1, "prop2": 4, "prop7": 1, "prop9": 20, "thm3": 4,
                 "preimage": 60}
# fixed config seed: the zoo reports then do not depend on the workload seed
# and can be compared byte for byte with their recorded digests
CLAIMS_SEED = 0
# preimage disc: wide enough that about 35 of the 60 sampled pure states of
# an M2 block land in it, so the verdict does not hinge on a lucky sample
# and the suite's cap of 200 joined pairs is reached whatever the seed
DISC = {"center": [1.0, 0.0], "radius": 0.6}


def _claims_algebras(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The test zoo {C2, C3, M2, M3, M2+C, CI2}, E12 ⊗ I2 on C^4 (M2 with
    multiplicity 2), and three seeded random instances of fixed structure:
    commutative C^3, a generic M2, and M2 ⊗ I2 in a random basis."""
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    m3 = np.zeros((3, 3), dtype=complex)
    m3[0, 1] = m3[1, 2] = 1.0
    m2c = np.zeros((3, 3), dtype=complex)
    m2c[0, 1] = 1.0
    return {
        "C2": np.diag([1.0, 2.0]),
        "C3": np.diag([1.0, 2.0, 3.0]),
        "M2": e12,
        "M3": m3,
        "M2+C": m2c,
        "CI2": np.eye(2),
        "E12xI2": np.kron(e12, np.eye(2)),
        "rand_C3": _conjugate(np.diag(np.cumsum(rng.uniform(0.5, 1.5, 3))), rng),
        "rand_M2": _ginibre(2, rng),
        "rand_M2xI2": _conjugate(np.kron(_ginibre(2, rng), np.eye(2)), rng),
    }


def _claims(rng, workdir: Path, smoke: bool) -> list[Command]:
    algebras = _claims_algebras(rng)
    if smoke:
        algebras = {k: algebras[k] for k in ("C2", "M2")}
    for name, gen in algebras.items():
        _write(workdir / f"alg_{name}.json",
               {"ambient_dim": gen.shape[0], "generators": [_matrix_json(gen)], **DISC})
    cmds = []
    for suite in SUITES:
        for name in algebras:
            cfg = _write(workdir / f"cfg_{suite}_{name}.json", {
                "suite": suite, "instances": [f"alg_{name}.json"],
                "samples": SUITE_SAMPLES[suite], "seed": CLAIMS_SEED,
            })
            out = workdir / f"out_{suite}_{name}.json"
            cmds.append(Command(f"claims/{suite}/{name}",
                                ("claims", "run", "--config", str(cfg), "--out", str(out)),
                                out))
    return cmds


# ---------------------------------------------------------------------------
# spectral

# (structure, n, invsub too?).  Mostly small n, where the sweep and the CLI
# are a real share; one generic 8x8 report per cycle, whose algebra is M_8
# (dimension 64), and the other structures up to n = 8.  A second 8x8 M_8
# command would cost as much as the rest of the cycle together.  Every other
# command stays under about 0.3 s: generic and shift inputs of n = 6 take
# 0.5-0.9 s, and their four commands would put the 90th percentile on the
# edge of that gap, where it moves by a quarter between runs.
SPECTRAL_INPUTS = (
    [("generic", n, True) for n in (2, 2, 3, 3, 4, 5)]
    + [("generic", 8, False)]
    + [("shift", n, True) for n in (2, 3, 4, 5)]
    + [("dsum", n, True) for n in (4, 4, 6, 6, 8)]
    + [("normal", n, True) for n in (2, 2, 3, 3, 4, 4, 5, 6, 7, 8)]
)
SPECTRAL_SAMPLES = 500


def _spectral_matrix(structure: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if structure == "generic":  # one M_n block
        return _ginibre(n, rng)
    if structure == "shift":  # nilpotent; exact, so its reports are seed-free
        return np.eye(n, k=1)
    if structure == "dsum":  # a repeated summand: M_{n/2} with multiplicity 2
        return _conjugate(np.kron(np.eye(2), _ginibre(n // 2, rng)), rng)
    if structure == "normal":  # commutative: n one-dimensional blocks
        return _conjugate(np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)), rng)
    raise ValueError(structure)


def _spectral(rng, workdir: Path, smoke: bool) -> list[Command]:
    cmds = []
    seen: dict[str, int] = {}
    for i, (structure, n, with_invsub) in enumerate(SPECTRAL_INPUTS):
        key = f"{structure}{n}"
        seen[key] = seen.get(key, 0) + 1
        tag = f"{key}_{seen[key]}"
        a = _spectral_matrix(structure, n, rng)
        if smoke and tag not in ("generic2_1", "shift2_1", "dsum4_1", "normal2_1"):
            continue
        path = _write(workdir / f"mat_{tag}.json", _matrix_json(a))
        # the command seed is the input's position, not the workload seed
        common = ("--seed", str(i), "--samples", str(SPECTRAL_SAMPLES))
        out = workdir / f"out_report_{tag}.json"
        cmds.append(Command(f"spectral/report/{tag}",
                            ("spectral", "report", str(path), *common, "--out", str(out)),
                            out))
        if with_invsub:
            out = workdir / f"out_invsub_{tag}.json"
            cmds.append(Command(f"spectral/invsub/{tag}",
                                ("invsub", str(path), "--mode", "both", *common,
                                 "--out", str(out)),
                                out, matrix=path))
    return cmds


# ---------------------------------------------------------------------------
# lattice


def boolean_lattice(k: int) -> dict:
    """Power set of a k-point set; element p is the bitmask p."""
    n = 1 << k
    return {"n": n,
            "leq": [[int(p & ~q == 0) for q in range(n)] for p in range(n)],
            "ortho": [(n - 1) ^ p for p in range(n)],
            "labels": [format(p, f"0{k}b") for p in range(n)]}


def mo_lattice(k: int) -> dict:
    """MO_k: bottom 0, top 2k+1, and k orthocomplementary atom pairs."""
    n = 2 * k + 2
    leq = [[int(p == q or p == 0 or q == n - 1) for q in range(n)] for p in range(n)]
    ortho = [n - 1] + [p + 1 if p % 2 else p - 1 for p in range(1, n - 1)] + [0]
    labels = ["0"] + [f"a{(p - 1) // 2}" + ("'" if p % 2 == 0 else "")
                      for p in range(1, n - 1)] + ["1"]
    return {"n": n, "leq": leq, "ortho": ortho, "labels": labels}


def horizontal_sum(parts: list[dict]) -> dict:
    """Glue bounded lattices (bottom first, top last) at bottom and top."""
    n = 2 + sum(p["n"] - 2 for p in parts)
    leq = [[int(p == q or p == 0 or q == n - 1) for q in range(n)] for p in range(n)]
    ortho = [n - 1] + [0] * (n - 2) + [0]
    labels = ["0"] + [""] * (n - 2) + ["1"]
    offset = 1
    for i, part in enumerate(parts):
        m = part["n"]

        def glob(p, offset=offset, m=m):
            return 0 if p == 0 else n - 1 if p == m - 1 else offset + p - 1

        for p in range(1, m - 1):
            labels[glob(p)] = f"{i}.{part['labels'][p]}"
            ortho[glob(p)] = glob(part["ortho"][p])
            for q in range(1, m - 1):
                if part["leq"][p][q]:
                    leq[glob(p)][glob(q)] = 1
        offset += m - 2
    return {"n": n, "leq": leq, "ortho": ortho, "labels": labels}


def relabel(lat: dict, perm: list[int]) -> dict:
    """The same lattice with element i renamed to perm.index(i)."""
    new_of = {old: new for new, old in enumerate(perm)}
    return {"n": lat["n"],
            "leq": [[lat["leq"][p][q] for q in perm] for p in perm],
            "ortho": [new_of[lat["ortho"][p]] for p in perm],
            "labels": [lat["labels"][p] for p in perm]}


def lattice_inputs(rng: np.random.Generator) -> dict[str, dict]:
    """The lattice zoo, then MO4..MO8, B5 and horizontal sums of two and
    three B3s (semigroups up to 335 elements).  The seed renames the
    elements of the generated lattices; every verdict is invariant under
    renaming, and so is the work."""
    b = {k: boolean_lattice(k) for k in range(1, 6)}
    zoo = {
        "B1": b[1], "B2": b[2], "B3": b[3], "B4": b[4],
        "MO1": mo_lattice(1), "MO2": mo_lattice(2), "MO3": mo_lattice(3),
        "chain2": b[1],
        "hsum_B2_B3": horizontal_sum([b[2], b[3]]),
        "hsum_MO2_B2": horizontal_sum([mo_lattice(2), b[2]]),
    }
    generated = {f"MO{k}": mo_lattice(k) for k in range(4, 9)}
    generated["B5"] = b[5]
    generated["hsum_2B3"] = horizontal_sum([b[3]] * 2)
    generated["hsum_3B3"] = horizontal_sum([b[3]] * 3)
    for name, lat in generated.items():
        zoo[name] = relabel(lat, [int(p) for p in rng.permutation(lat["n"])])
    return zoo


def _lattice(rng, workdir: Path, smoke: bool) -> list[Command]:
    lattices = lattice_inputs(rng)
    if smoke:
        lattices = {k: lattices[k] for k in ("B2", "MO2", "MO4")}
    cmds = []
    for name, lat in lattices.items():
        path = _write(workdir / f"lat_{name}.json", lat)
        for sub in ("verify", "boolean", "semigroup"):
            out = workdir / f"out_{sub}_{name}.json"
            cmds.append(Command(f"lattice/{sub}/{name}",
                                ("oml", sub, str(path), "--out", str(out)), out))
    return cmds
