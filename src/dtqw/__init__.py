"""One-dimensional coined quantum walks: bands, topology, symmetries, edges."""

from .core import (
    CoinParams,
    PhsOperator,
    coin_matrix,
    pauli_compose,
    pauli_decompose,
    phs_operator,
    wrap_angle,
)
from .edge import (
    EdgeState,
    ExperimentRecord,
    InitialStateCase,
    InterfaceSpec,
    analytic_edge_state,
    decay_constant,
    dynamics_experiment,
    eigen_residual,
    overlap_decomposition,
)
from .errors import WalkError
from .lattice import (
    SpectralData,
    ThetaProfile,
    Trajectory,
    WalkerState,
    WalkOperator,
    build_walk,
    diagonalize,
    evolve,
)
from .momentum import (
    BandStructure,
    GapReport,
    band_structure,
    bloch_hamiltonian,
    bloch_vector,
    dispersion,
    gap_report,
    special_points,
)
from .symmetry import (
    SymmetryReport,
    chiral_residual,
    chiral_vector,
    parity_residual_bloch,
    phs_residual,
    run_symmetry_suite,
    sublattice_residual,
    timeshift_walk,
)
from .topology import (
    FrameVariant,
    ManifoldFrame,
    PhaseLabel,
    PoleAssignment,
    RelHomotopyInvariant,
    frame_rotation,
    manifold_frame,
    pole_assignment,
    predicted_edge_states,
    rel_homotopic,
    rel_homotopy_invariant,
    rotated_winding,
    winding_mt,
)

__version__ = "0.1.0"
