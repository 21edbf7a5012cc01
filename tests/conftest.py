"""Shared fixtures: the lattice zoo, a small algebra zoo, fixed matrices
used across modules, and helpers that build inputs: matrix JSON, random
projectors, checked projectors from matrices, orthocomplements, density
matrices of pure states, GNS images, and the ambient route to the top
spectral projectors that qspace.top_projectors builds per block; and
CliRunner, which runs a command line in-process."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from qgelfand.algebra import (
    FdAlgebra,
    GnsRepresentation,
    PureState,
    State,
    generate_algebra,
)
from qgelfand.linalg import (
    LATTICE_TOL,
    DimensionMismatchError,
    Projector,
    as_cmatrix,
    cluster_eigenvalues,
    haar_unit_vector,
    hermitian_eig,
    op_norm,
    projector_from_basis,
)
from qgelfand.oml import FiniteOml, SetOml, lattice_zoo

# property tests replay the same examples on every run: no example database,
# no deadline (timings on a shared host say nothing about correctness)
settings.register_profile("qgelfand", derandomize=True, deadline=None, database=None)
settings.load_profile("qgelfand")

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def matrix_to_json(a: np.ndarray) -> dict:
    """The CLI's matrix JSON object for a."""
    a = as_cmatrix(a)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> Projector:
    cols = np.array([haar_unit_vector(dim, rng) for _ in range(rank)], dtype=complex)
    return projector_from_basis(cols.reshape(rank, dim).T)


def projector_from_matrix(m) -> Projector:
    """Projector onto the range of a Hermitian idempotent matrix, checked."""
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError("projector must be square")
    if op_norm(m - m.conj().T) > LATTICE_TOL:
        raise ValueError("projector is not Hermitian within tol")
    if op_norm(m @ m - m) > LATTICE_TOL:
        raise ValueError("projector is not idempotent within tol")
    vals, vecs = hermitian_eig(m)
    return Projector(basis=vecs[:, vals > 0.5])


def top_spectral_projector(h: np.ndarray) -> np.ndarray:
    """The ambient n×n spectral projection of the Hermitian h at its top
    eigenvalue cluster."""
    vals, vecs = hermitian_eig(h)
    w = vecs[:, cluster_eigenvalues(vals)[-1]]
    return w @ w.conj().T


def ambient_top_projectors(alg: FdAlgebra, h: np.ndarray) -> list[Projector]:
    """The ambient route to qspace.top_projectors: the ambient spectral
    projection, compressed to each block and read back as a checked
    projector."""
    p = top_spectral_projector(h)
    return [projector_from_matrix(blk.irrep(p)) for blk in alg.blocks]


def gns_pi(rep: GnsRepresentation, a: np.ndarray) -> np.ndarray:
    """pi of an algebra element, or of each element of a stack."""
    return np.tensordot(rep.algebra.coords(a), rep.rep_basis, axes=1)


def proj_ortho(p: Projector) -> Projector:
    """The orthocomplement p⊥, from the eigenspace of p at 0."""
    vals, vecs = hermitian_eig(p.matrix)
    return Projector(basis=vecs[:, vals < 0.5])


def pure_to_state(alg: FdAlgebra, pure: PureState) -> State:
    """A density matrix on the ambient space inducing the pure functional."""
    blk = alg.blocks[pure.block]
    m = np.zeros((blk.multiplicity, blk.multiplicity))
    m[0, 0] = 1.0
    rho = blk.isometry @ np.kron(m, np.outer(pure.vector, pure.vector.conj())) @ blk.isometry.conj().T
    return State(rho)


@pytest.fixture(scope="session")
def zoo() -> dict[str, FiniteOml]:
    return lattice_zoo()


def diagonal_generator(n: int) -> np.ndarray:
    return np.diag(np.arange(1.0, n + 1)).astype(complex)


def diagonal_algebra(n: int) -> FdAlgebra:
    return generate_algebra([diagonal_generator(n)])


_M3_GEN = np.eye(3, k=1, dtype=complex)
_M2C_GEN = np.zeros((3, 3), dtype=complex)
_M2C_GEN[0, 1] = 1.0
# the generators of the algebra zoo {C2, C3, M2, M3, M2+C, CI2}: the
# commutative/noncommutative spread used by the purity and dichotomy checks
ALGEBRA_ZOO_GENERATORS = {
    "C2": [diagonal_generator(2)],
    "C3": [diagonal_generator(3)],
    "M2": [E12],
    "M3": [_M3_GEN],
    "M2+C": [_M2C_GEN],
    "CI2": [np.eye(2, dtype=complex)],
}


@pytest.fixture(scope="session")
def algebra_zoo() -> dict[str, FdAlgebra]:
    return {name: generate_algebra(gens) for name, gens in ALGEBRA_ZOO_GENERATORS.items()}


@pytest.fixture(scope="session")
def mo2_qset() -> SetOml:
    """A four-point quantum set whose member lattice is MO2: two
    incompatible binary splittings of the ground set."""
    members = [
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({0, 1, 2, 3}),
    ]
    return SetOml(["a1", "a2", "b1", "b2"], members, [5, 2, 1, 4, 3, 0])


class _Tee(io.StringIO):
    """A stream that also writes everything to a shared one."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr, interleaved as written


class CliRunner:
    """The subset of click.testing.CliRunner (click 8.2+) the CLI tests use:
    invoke(main, args) runs one command line in-process with stdout and
    stderr captured and returns its exit code and output."""

    def invoke(self, main, args) -> Result:
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(args))
            except SystemExit as exc:
                code = exc.code
        return Result(code, out.getvalue(), err.getvalue(), both.getvalue())
