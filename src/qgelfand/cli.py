"""Command-line entry points.

Thin adapters over the library modules: parse inputs, dispatch, serialize
reports.  Exit codes: 0 success, 1 check failed (OML violation, failed
lattice recovery, failing specified claim verdict), 2 input error,
3 budget exceeded, 4 numerical failure.  Reports are canonical JSON
(sorted keys) so a fixed (instance, config, seed) reproduces
byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import os
import pathlib
import stat
import sys
from json.encoder import encode_basestring_ascii

import click
import numpy as np

from . import harness, oml, sasaki, spectral
from .algebra import DecompositionError, FdAlgebra
from .linalg import matrix_from_json
from .oml import FiniteOml, SetOml, StructureError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_NUMERICAL = 4


def _open_output(path: str | None):
    """The writer of a command's report: stdout, or the file at path, opened
    now, so that a bad path exits 2 before any work, without O_TRUNC (which
    makes close() allocate new blocks: on ext4 with auto_da_alloc that costs
    more than the write); a regular file is cut to length after the write.
    A later failure leaves a new file empty and an existing one unchanged."""
    if not path:
        return lambda text: click.echo(text, nl=False)
    try:  # closed with the command's context, if the command fails first
        f = click.get_current_context().with_resource(
            open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w"))
    except OSError as exc:
        raise click.exceptions.Exit(_input_error(f"cannot write {path}: {exc.strerror}"))

    def write(text: str):
        try:
            with f:
                f.write(text)
                if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                    f.truncate()
        except OSError as exc:
            raise click.exceptions.Exit(_input_error(f"cannot write {path}: {exc.strerror}"))
    return write


def _dump(obj: dict, write):
    write(canonical_json(obj) + "\n")


_ENCODE = json.JSONEncoder(sort_keys=True).encode
# leaf types whose JSON text never holds ", ": a long flat list of them is
# one C-encoder call whose separators become the indented ones
_FLAT_LEAVES = {int, float, bool, type(None)}
# below this length a flat list costs less leaf by leaf than the C encoder
# that encode() builds for each call
_FLAT_MIN = 16
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# the stdlib encoder's text for each leaf of exactly these types; numpy's
# float64 is a float subclass, written as its float repr
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    np.float64: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def canonical_json(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), without the
    pure-Python encoder that indent selects.

    Dicts (str keys only) and lists or tuples are laid out here, one level
    per recursion.  A str, int, float, bool or None leaf is written as the
    stdlib writes it (its string escapes, float repr, NaN and ±Infinity),
    without building an encoder; a long flat list of numbers, and any other
    leaf, goes through the stdlib's C encoder.
    """
    return _canonical(obj, "\n")


def _canonical(obj, nl: str) -> str:
    leaf = _LEAF_TEXT.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = nl + "  "
    if isinstance(obj, dict) and obj:
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("canonical JSON keys must be str")
        return ("{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _canonical(obj[k], inner) for k in sorted(obj)])
            + nl + "}")
    if isinstance(obj, (list, tuple)) and obj:
        if len(obj) >= _FLAT_MIN and set(map(type, obj)) <= _FLAT_LEAVES:
            return "[" + inner + _ENCODE(obj)[1:-1].replace(", ", "," + inner) + nl + "]"
        return "[" + inner + ("," + inner).join([_canonical(v, inner) for v in obj]) + nl + "]"
    return _ENCODE(obj)


def _load_json(path: str) -> dict:
    try:
        obj = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise click.exceptions.Exit(_input_error(f"cannot read {path}: {exc}"))
    if not isinstance(obj, dict):
        raise click.exceptions.Exit(_input_error(f"{path} must hold a JSON object"))
    return obj


def _input_error(msg: str) -> int:
    click.echo(f"input error: {msg}", err=True)
    return EXIT_INPUT


def _load_lattice(path: str):
    obj = _load_json(path)
    try:
        if "ground" in obj:
            return SetOml.from_json(obj)
        return FiniteOml.from_json(obj)
    except (StructureError, ValueError, TypeError) as exc:
        raise click.exceptions.Exit(_input_error(str(exc)))


def _load_oml(path: str) -> FiniteOml:
    """A lattice file as a FiniteOml that passes verify_oml; exit 2 otherwise."""
    lat = _load_lattice(path)
    if isinstance(lat, SetOml):
        lat = lat.lattice
    violations = oml.verify_oml(lat)
    if violations:
        raise click.exceptions.Exit(
            _input_error(f"not an orthomodular lattice: {violations[0]}"))
    return lat


def _load_matrix(path: str) -> np.ndarray:
    obj = _load_json(path)
    try:
        m = matrix_from_json(obj)
    except ValueError as exc:
        raise click.exceptions.Exit(_input_error(str(exc)))
    if m.shape[0] != m.shape[1]:
        raise click.exceptions.Exit(_input_error("matrix must be square"))
    return m


@click.group()
def main():
    """Finite-dimensional quantum-set and C*-state-space toolkit."""


# ---------------------------------------------------------------------------
# oml


@main.group("oml")
def oml_group():
    """Orthomodular lattices and their Sasaki-map semigroups."""


@oml_group.command("verify")
@click.argument("lattice_file")
@click.option("--out", default=None)
def oml_verify(lattice_file, out):
    """Check the lattice axioms (or quantum-set conditions) of an instance."""
    lat = _load_lattice(lattice_file)
    write = _open_output(out)
    if isinstance(lat, SetOml):
        violations = oml.verify_quantum_set(lat)
        kind = "quantum-set"
    else:
        violations = oml.verify_oml(lat)
        kind = "oml"
    report = {
        "kind": kind,
        "violations": [{"axiom": v.axiom, "witnesses": list(v.witnesses)}
                       for v in violations],
        "ok": not violations,
    }
    _dump(report, write)
    sys.exit(EXIT_OK if not violations else EXIT_FAILED)


@oml_group.command("semigroup")
@click.argument("lattice_file")
@click.option("--cap", default=10_000, type=click.IntRange(min=0), help="element budget")
@click.option("--out", default=None)
def oml_semigroup(lattice_file, cap, out):
    """Enumerate the Sasaki-map semigroup and verify the lattice recovery
    from its closed projections."""
    lat = _load_oml(lattice_file)
    write = _open_output(out)
    try:
        sg = sasaki.enumerate_semigroup(lat, cap=cap)
    except sasaki.SemigroupBudgetError as exc:
        _dump({"ok": False, "budget": exc.budget, "found": exc.found}, write)
        sys.exit(EXIT_BUDGET)
    except StructureError as exc:
        click.echo(f"numerical/structural failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    try:
        recovered, closed, _iso = sasaki.closed_projections(sg)
        ok = True
        n_closed = recovered.n
    except StructureError as exc:
        ok = False
        n_closed = None
        click.echo(f"recovery failed: {exc}", err=True)
    report = {
        "semigroup_size": sg.size,
        "closed_projections": n_closed,
        "recovery_isomorphic": ok,
        "lattice_size": lat.n,
    }
    _dump(report, write)
    sys.exit(EXIT_OK if ok else EXIT_FAILED)


@oml_group.command("boolean")
@click.argument("lattice_file")
@click.option("--out", default=None)
def oml_boolean(lattice_file, out):
    """Report whether the skew meet is symmetric (Boolean test) with a
    witness pair when it is not, cross-checked against distributivity."""
    lat = _load_oml(lattice_file)
    write = _open_output(out)
    boolean, witness = oml.is_boolean(lat)
    report = {
        "boolean": boolean,
        "distributive": oml.is_distributive(lat),
        "witness": list(witness) if witness else None,
    }
    _dump(report, write)
    sys.exit(EXIT_OK)


# ---------------------------------------------------------------------------
# alg


@main.group("alg")
def alg_group():
    """Finite-dimensional *-algebras of matrices."""


@alg_group.command("generate")
@click.argument("algebra_file")
@click.option("--out", default=None)
def alg_generate(algebra_file, out):
    """Close the given generators into a unital *-algebra."""
    obj = _load_json(algebra_file)
    write = _open_output(out)
    try:
        alg = FdAlgebra.from_json(obj)
    except ValueError as exc:
        sys.exit(_input_error(str(exc)))
    _dump({"ambient_dim": alg.ambient_dim, "dim": alg.dim,
           "commutative": alg.is_commutative()}, write)
    sys.exit(EXIT_OK)


@alg_group.command("blocks")
@click.argument("algebra_file")
@click.option("--out", default=None)
def alg_blocks(algebra_file, out):
    """Block structure (irrep dimension, multiplicity) of the algebra."""
    obj = _load_json(algebra_file)
    write = _open_output(out)
    try:
        alg = FdAlgebra.from_json(obj)
        dec = alg.decomposition()
    except ValueError as exc:
        sys.exit(_input_error(str(exc)))
    except DecompositionError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    _dump({
        "dim": alg.dim,
        "blocks": [{"irrep_dim": b.irrep_dim, "multiplicity": b.multiplicity}
                   for b in dec.blocks],
    }, write)
    sys.exit(EXIT_OK)


# ---------------------------------------------------------------------------
# claims


@main.group("claims")
def claims_group():
    """Verification and falsification suites over algebra instances."""


@claims_group.command("run")
@click.option("--config", "config_path", required=True)
@click.option("--seed", default=None, type=int, help="overrides the config seed")
@click.option("--samples", default=None, type=int)
@click.option("--out", default=None)
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "csv"]))
def claims_run(config_path, seed, samples, out, fmt):
    """Run one claims suite from a config file.

    Singleton joins always span superpositions, so the reports' `mode`
    field and the CSV `mode` column always read `superposition`."""
    obj = _load_json(config_path)
    if seed is not None:
        obj["seed"] = seed
    if samples is not None:
        obj["samples"] = samples
    base = pathlib.Path(config_path).parent
    write = _open_output(out)
    try:
        cfg = harness.RunConfig.from_json(obj, base_dir=base)
        result = harness.run_suite(cfg)
    except harness.ConfigError as exc:
        sys.exit(_input_error(str(exc)))
    except DecompositionError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    if fmt == "csv":
        write(harness.suite_result_csv(result))
    else:
        _dump(result, write)
    sys.exit(EXIT_OK if result["ok"] else EXIT_FAILED)


# ---------------------------------------------------------------------------
# spectral


@main.group("spectral")
def spectral_group():
    """Spectrum versus the pure-state image of an element."""


@spectral_group.command("report")
@click.argument("matrix_file")
@click.option("--seed", required=True, type=click.IntRange(min=0))
@click.option("--samples", default=2000, type=click.IntRange(min=1))
@click.option("--out", default=None)
@click.option("--plot-data", "plot_data", default=None,
              help="write the support sweep (angles, supports, boundary "
                   "points) and the sample cloud as CSV; the JSON report "
                   "holds neither")
def spectral_report(matrix_file, seed, samples, out, plot_data):
    """Spectrum against the pure-state image Sigma(a) of a matrix.

    The report holds sigma, each block's support values, the sizes of the
    angle grid and the sample cloud (n_angles, samples), sigma_gap (the
    largest distance from a swept boundary point to sigma, a margin) and the
    two flags, read off the Wedderburn blocks.  The angles, the boundary points
    and the cloud go only to --plot-data, and the cloud is drawn only then."""
    a = _load_matrix(matrix_file)
    write = _open_output(out)
    write_plot = _open_output(plot_data) if plot_data else None
    try:
        rep = spectral.sigma_big(a, samples=samples,
                                 rng=np.random.default_rng(seed))
    except (DecompositionError, RuntimeError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    _dump(rep.to_json(), write)
    if write_plot:
        write_plot(_plot_csv(rep))
    sys.exit(EXIT_OK)


def _plot_csv(rep: spectral.SpectralReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["kind", "block", "theta", "support", "re", "im"])
    for i, (sup, bnd) in enumerate(zip(rep.block_supports, rep.block_boundaries)):
        for th, s, z in zip(rep.thetas, sup, bnd):
            w.writerow(["boundary", i, th, s, z.real, z.imag])
    for z in rep.cloud:
        w.writerow(["cloud", "", "", "", z.real, z.imag])
    return buf.getvalue()


@main.command("invsub")
@click.argument("matrix_file")
@click.option("--mode", default="oracle",
              type=click.Choice(["paper", "oracle", "both"]))
# never read, since nothing invsub does is random; kept because older command
# lines, the benchmark's workloads among them, pass both to every invsub
@click.option("--seed", type=int, hidden=True, expose_value=False)
@click.option("--samples", type=click.IntRange(min=1), hidden=True, expose_value=False)
@click.option("--out", default=None)
def invsub(matrix_file, mode, out):
    """Candidate invariant subspaces, each judged by its invariance defect."""
    a = _load_matrix(matrix_file)
    if a.shape[0] < 2:
        sys.exit(_input_error("need a matrix of size at least 2"))
    write = _open_output(out)
    try:
        results = spectral.invariant_subspace(a, mode=mode)
    except DecompositionError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    _dump({"results": [r.to_json() for r in results]}, write)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
