"""Equivariant spectral flow of paths of symmetric operators with scalar
essential-spectrum tails: certified crossing counts valued in the integer
lattice of a finite group's real irreducibles, plus the congruence normal
forms and the Lagrangian-graph crossing index built on top."""

from ._eig import jacobi_eigh
from .cogredient import (
    Parametrix,
    PointwiseSection,
    parametrix,
    parametrix_fs_plus,
    pointwise_section,
    split_positive,
)
from .errors import (
    CertificationError,
    CertificationFailed,
    ConsistencyFailure,
    EquivarianceError,
    InvalidInput,
    InvertibilityError,
    SflowError,
)
from .flow import (
    AxiomSuiteReport,
    CertifiedPartition,
    Crossing,
    FlowOptions,
    SflReport,
    find_partition,
    morse_oracle_sfl_G,
    sfl_G,
    sfl_G_each,
    verify_axioms,
)
from .groups import (
    FiniteGroup,
    Irrep,
    OrthogonalAction,
    RealCharacterTable,
    VirtualRep,
    build_group,
    character_of_subspace,
    direct_sum_action,
    forgetful_F,
    isotypical_projection,
    multiplicity_vector,
    phi_Z2,
)
from .maslov import (
    LagrangianFrame,
    WindowEigenvalue,
    Z2ExampleReport,
    fredholm_pair_dims,
    graph_lagrangian,
    horizontal_lagrangian,
    maslov_flow,
    maslov_index_G,
    maslov_operator_spectrum,
    z2_example,
)
from .operators import (
    CPS,
    FSComponent,
    OperatorPath,
    Spectrum,
    block_spectrum,
    check_equivariance,
    compress,
    concatenate,
    direct_sum,
    direct_sum_paths,
    morse_class,
    negate,
    reverse,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
