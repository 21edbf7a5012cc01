"""Finite-dimensional computational models of noncommutative topology:
orthomodular lattices, Sasaki-map semigroups, quantum sets, matrix
C*-algebra state spaces, the noncommutative function product, and
spectral/invariant-subspace diagnostics."""

from .linalg import (
    Projector,
    projector_from_basis,
    proj_join,
    proj_meet,
    sasaki_product,
)
from .oml import (
    FiniteOml,
    SetOml,
    boolean_lattice,
    is_boolean,
    lattice_zoo,
    mo_lattice,
    verify_oml,
    verify_quantum_set,
)
from .sasaki import BaerSemigroup, closed_projections, enumerate_semigroup
from .algebra import (
    FdAlgebra,
    PureState,
    State,
    generate_algebra,
    gns,
    hat,
    is_irreducible,
    is_pure,
    r_is_discrete,
)
from .qspace import (
    ClaimsReport,
    QFunction,
    qfunction_star,
    qfunction_star_at,
)
from .spectral import (
    CyclicDecomposition,
    InvariantSubspaceResult,
    SpectralReport,
    cyclic_decompose,
    fc_unitary,
    invariant_subspace,
    sigma_big,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "Projector",
    "projector_from_basis",
    "proj_join",
    "proj_meet",
    "sasaki_product",
    "FiniteOml",
    "SetOml",
    "boolean_lattice",
    "is_boolean",
    "lattice_zoo",
    "mo_lattice",
    "verify_oml",
    "verify_quantum_set",
    "BaerSemigroup",
    "closed_projections",
    "enumerate_semigroup",
    "FdAlgebra",
    "PureState",
    "State",
    "generate_algebra",
    "gns",
    "hat",
    "is_irreducible",
    "is_pure",
    "r_is_discrete",
    "ClaimsReport",
    "QFunction",
    "qfunction_star",
    "qfunction_star_at",
    "CyclicDecomposition",
    "InvariantSubspaceResult",
    "SpectralReport",
    "cyclic_decompose",
    "fc_unitary",
    "invariant_subspace",
    "sigma_big",
    "spectrum",
]
