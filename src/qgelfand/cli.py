"""Command-line entry points.

Thin adapters over the library modules: parse inputs, dispatch, serialize
reports.  One argparse parser, built at import, holds the command tree;
each command is a function of the parsed arguments and the command's open
outputs that returns its exit code.  A line whose first words name a
command is parsed by that command's own parser in the tree; the whole tree
parses only a line that no command takes whole (no command words, or
arguments left over), so its usage errors and help keep their text.
Exit codes: 0 success, 1 check failed (OML violation, failed lattice
recovery, failing specified claim verdict), 2 input error (a usage error
included), 3 budget exceeded, 4 numerical failure.  Input files are read,
and reports written, as UTF-8 whatever the locale.  Reports are canonical
JSON (sorted keys) so a fixed (instance, config, seed) reproduces
byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import pathlib
import stat
import sys
from json.encoder import encode_basestring_ascii

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


def _stdout(text: str):
    """Write text to standard output as UTF-8, whatever the locale's
    encoding; a stream with no byte buffer below it (an in-process
    capture) takes the text itself."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        buffer.write(text.encode())


def _open_outputs(outputs: contextlib.ExitStack, *paths: str | None) -> list:
    """A writer per path: stdout for None, else the file at path, opened
    now, so that a bad path exits 2 before any work, and closed with
    outputs.  Two paths that name one regular file are an input error: the
    second report would overwrite the first.  A file is opened without
    O_TRUNC (which makes close() allocate new blocks: on ext4 with
    auto_da_alloc that costs more than the write); a regular file is cut to
    length after the write.  A later failure leaves a new file empty and an
    existing one unchanged."""
    writers, opened = [], {}
    for path in paths:
        if not path:
            writers.append(_stdout)
            continue
        try:
            f = outputs.enter_context(open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                                              encoding="utf-8"))
            st = os.fstat(f.fileno())
        except OSError as exc:
            raise SystemExit(_input_error(f"cannot write {path}: {exc.strerror}"))
        regular = stat.S_ISREG(st.st_mode)
        if regular:
            if (st.st_dev, st.st_ino) in opened:
                raise SystemExit(_input_error(
                    f"{opened[st.st_dev, st.st_ino]} and {path} name one file"))
            opened[st.st_dev, st.st_ino] = path
        writers.append(_file_writer(f, path, regular))
    return writers


def _file_writer(f, path: str, regular: bool):
    def write(text: str):
        try:
            with f:
                f.write(text)
                if regular:
                    f.truncate()
        except OSError as exc:
            raise SystemExit(_input_error(f"cannot write {path}: {exc.strerror}"))
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
        obj = harness.read_json(path)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise SystemExit(_input_error(f"cannot read {path}: {exc}"))
    if not isinstance(obj, dict):
        raise SystemExit(_input_error(f"{path} must hold a JSON object"))
    return obj


def _input_error(msg: str) -> int:
    print(f"input error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def _load_lattice(path: str):
    obj = _load_json(path)
    try:
        if "ground" in obj:
            return SetOml.from_json(obj)
        return FiniteOml.from_json(obj)
    except (StructureError, ValueError, TypeError) as exc:
        raise SystemExit(_input_error(str(exc)))


def _load_oml(path: str) -> FiniteOml:
    """A lattice file as a FiniteOml that passes verify_oml; exit 2 otherwise."""
    lat = _load_lattice(path)
    if isinstance(lat, SetOml):
        try:
            lat = lat.lattice
        except StructureError as exc:  # an empty member family, for one
            raise SystemExit(_input_error(f"not an orthomodular lattice: {exc}"))
    violations = oml.verify_oml(lat)
    if violations:
        raise SystemExit(_input_error(f"not an orthomodular lattice: {violations[0]}"))
    return lat


def _load_matrix(path: str) -> np.ndarray:
    obj = _load_json(path)
    try:
        m = matrix_from_json(obj)
    except ValueError as exc:
        raise SystemExit(_input_error(str(exc)))
    if m.shape[0] != m.shape[1]:
        raise SystemExit(_input_error("matrix must be square"))
    return m


# ---------------------------------------------------------------------------
# oml


def oml_verify(args, outputs) -> int:
    """Check the lattice axioms (or quantum-set conditions) of an instance."""
    lat = _load_lattice(args.lattice_file)
    [write] = _open_outputs(outputs, args.out)
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
    return EXIT_OK if not violations else EXIT_FAILED


def oml_semigroup(args, outputs) -> int:
    """Enumerate the Sasaki-map semigroup and verify the lattice recovery
    from its closed projections."""
    lat = _load_oml(args.lattice_file)
    [write] = _open_outputs(outputs, args.out)
    try:
        sg = sasaki.enumerate_semigroup(lat, cap=args.cap)
    except sasaki.SemigroupBudgetError as exc:
        _dump({"ok": False, "budget": exc.budget, "found": exc.found}, write)
        return EXIT_BUDGET
    except StructureError as exc:
        print(f"numerical/structural failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        recovered, closed, _iso = sasaki.closed_projections(sg)
        ok = True
        n_closed = recovered.n
    except StructureError as exc:
        ok = False
        n_closed = None
        print(f"recovery failed: {exc}", file=sys.stderr)
    report = {
        "semigroup_size": sg.size,
        "closed_projections": n_closed,
        "recovery_isomorphic": ok,
        "lattice_size": lat.n,
    }
    _dump(report, write)
    return EXIT_OK if ok else EXIT_FAILED


def oml_boolean(args, outputs) -> int:
    """Report whether the skew meet is symmetric (Boolean test) with a
    witness pair when it is not, cross-checked against distributivity."""
    lat = _load_oml(args.lattice_file)
    [write] = _open_outputs(outputs, args.out)
    boolean, witness = oml.is_boolean(lat)
    report = {
        "boolean": boolean,
        "distributive": oml.is_distributive(lat),
        "witness": list(witness) if witness else None,
    }
    _dump(report, write)
    return EXIT_OK


# ---------------------------------------------------------------------------
# alg


def alg_generate(args, outputs) -> int:
    """Close the given generators into a unital *-algebra."""
    obj = _load_json(args.algebra_file)
    [write] = _open_outputs(outputs, args.out)
    try:
        alg = FdAlgebra.from_json(obj)
    except ValueError as exc:
        return _input_error(str(exc))
    _dump({"ambient_dim": alg.ambient_dim, "dim": alg.dim,
           "commutative": alg.commutative}, write)
    return EXIT_OK


def alg_blocks(args, outputs) -> int:
    """Block structure (irrep dimension, multiplicity) of the algebra."""
    obj = _load_json(args.algebra_file)
    [write] = _open_outputs(outputs, args.out)
    try:
        alg = FdAlgebra.from_json(obj)
        blocks = alg.blocks
    except ValueError as exc:
        return _input_error(str(exc))
    except DecompositionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _dump({
        "dim": alg.dim,
        "blocks": [{"irrep_dim": b.irrep_dim, "multiplicity": b.multiplicity}
                   for b in blocks],
    }, write)
    return EXIT_OK


# ---------------------------------------------------------------------------
# claims


def claims_run(args, outputs) -> int:
    """Run one claims suite from a config file.

    Singleton joins always span superpositions, so the reports' `mode`
    field and the CSV `mode` column always read `superposition`."""
    obj = _load_json(args.config)
    if args.seed is not None:
        obj["seed"] = args.seed
    if args.samples is not None:
        obj["samples"] = args.samples
    base = pathlib.Path(args.config).parent
    [write] = _open_outputs(outputs, args.out)
    try:
        cfg = harness.RunConfig.from_json(obj, base_dir=base)
        result = harness.run_suite(cfg)
    except harness.ConfigError as exc:
        return _input_error(str(exc))
    except DecompositionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.format == "csv":
        write(harness.suite_result_csv(result))
    else:
        _dump(result, write)
    return EXIT_OK if result["ok"] else EXIT_FAILED


# ---------------------------------------------------------------------------
# spectral


def spectral_report(args, outputs) -> int:
    """Spectrum against the pure-state image Sigma(a) of a matrix.

    The report holds sigma, each block's support values on the fixed grid
    of spectral.N_ANGLES angles, sigma_gap (the largest distance from a
    swept boundary point to sigma, a margin) and the two flags, read off
    the Wedderburn blocks.  The angles and the boundary points go only to
    --plot-data.  Nothing is drawn at random."""
    a = _load_matrix(args.matrix_file)
    write, write_plot = _open_outputs(outputs, args.out, args.plot_data)
    try:
        rep = spectral.sigma_big(a)
    except (DecompositionError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _dump(rep.to_json(), write)
    if args.plot_data:
        write_plot(_plot_csv(rep))
    return EXIT_OK


def _plot_csv(rep: spectral.SpectralReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["kind", "block", "theta", "support", "re", "im"])
    for i, (sup, bnd) in enumerate(zip(rep.block_supports, rep.block_boundaries)):
        for th, s, z in zip(spectral.THETAS, sup, bnd):
            w.writerow(["boundary", i, th, s, z.real, z.imag])
    return buf.getvalue()


def invsub(args, outputs) -> int:
    """Candidate invariant subspaces, each judged by its invariance defect."""
    a = _load_matrix(args.matrix_file)
    if a.shape[0] < 2:
        return _input_error("need a matrix of size at least 2")
    [write] = _open_outputs(outputs, args.out)
    try:
        results = spectral.invariant_subspace(a, mode=args.mode)
    except DecompositionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _dump({"results": [r.to_json() for r in results]}, write)
    return EXIT_OK


# ---------------------------------------------------------------------------
# the command tree


def _int_at_least(low: int):
    """An argparse type: an integer no less than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value
    return parse


def _unread_seed_and_samples(p: argparse.ArgumentParser):
    """Hidden --seed and --samples, parsed and never read: nothing the
    command does is random.  Kept because older command lines, the
    workloads of perfbench among them, pass both to every spectral
    report and invsub."""
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    p.add_argument("--samples", type=_int_at_least(1), help=argparse.SUPPRESS)


def _build_parser() -> tuple[argparse.ArgumentParser,
                               dict[tuple[str, ...], argparse.ArgumentParser]]:
    """The whole command tree, and each command's own parser in it under
    the command's words.  Abbreviated options are refused at every level,
    so that a prefix such as --plot never stands for --plot-data."""
    commands = {}

    def parser(parent, name, doc, run=None):
        p = parent.add_parser(name, help=doc.split("\n\n")[0], description=doc,
                              allow_abbrev=False)
        if run is not None:
            p.set_defaults(run=run)
            commands[tuple(p.prog.split()[1:])] = p  # prog: qgelfand and the words
        return p

    def command(group, name, run, positional):
        p = parser(group, name, run.__doc__, run)
        p.add_argument(positional)
        p.add_argument("--out")
        return p

    root = argparse.ArgumentParser(
        prog="qgelfand", allow_abbrev=False,
        description="Finite-dimensional quantum-set and C*-state-space toolkit.")
    groups = root.add_subparsers(required=True)

    lattices = parser(groups, "oml", "Orthomodular lattices and their Sasaki-map "
                      "semigroups.").add_subparsers(required=True)
    command(lattices, "verify", oml_verify, "lattice_file")
    command(lattices, "semigroup", oml_semigroup, "lattice_file").add_argument(
        "--cap", default=10_000, type=_int_at_least(0), help="element budget")
    command(lattices, "boolean", oml_boolean, "lattice_file")

    algebras = parser(groups, "alg", "Finite-dimensional *-algebras of "
                      "matrices.").add_subparsers(required=True)
    command(algebras, "generate", alg_generate, "algebra_file")
    command(algebras, "blocks", alg_blocks, "algebra_file")

    claims = parser(groups, "claims", "Verification and falsification suites over "
                    "algebra instances.").add_subparsers(required=True)
    p = parser(claims, "run", claims_run.__doc__, claims_run)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.add_argument("--samples", type=int)
    p.add_argument("--out")
    p.add_argument("--format", default="json", choices=["json", "csv"])

    spectra = parser(groups, "spectral", "Spectrum versus the pure-state image of an "
                     "element.").add_subparsers(required=True)
    p = command(spectra, "report", spectral_report, "matrix_file")
    p.add_argument("--plot-data", help="write the support sweep (angles, supports, "
                   "boundary points) as CSV")
    _unread_seed_and_samples(p)

    p = command(groups, "invsub", invsub, "matrix_file")
    p.add_argument("--mode", default="oracle", choices=["paper", "oracle", "both"])
    _unread_seed_and_samples(p)
    return root, commands


PARSER, _COMMANDS = _build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """The parsed command line.  A line whose first one or two words name
    a command goes to that command's parser, which is what the tree would
    hand it to; a line that no command takes whole (no command words, or
    arguments left over) goes to the tree, for the tree's error or help."""
    words = 2 if tuple(argv[:2]) in _COMMANDS else 1
    leaf = _COMMANDS.get(tuple(argv[:words]))
    if leaf is not None:
        args, rest = leaf.parse_known_args(argv[words:])
        if not rest:
            return args
    return PARSER.parse_args(argv)


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Run one command line (sys.argv[1:] when argv is None).  Every output
    file the command opened is closed, on every path.  Returns the exit
    code, or exits with it when standalone_mode is true."""
    with contextlib.ExitStack() as outputs:
        try:
            args = _parse(sys.argv[1:] if argv is None else argv)
            code = args.run(args, outputs)
        except SystemExit as exc:  # a usage error, --help, or an input error
            code = exc.code
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
