"""Bohmian dynamics on multiply-connected configuration spaces.

Wave functions live on the universal covering space and obey a periodicity
condition tied to a topological factor (a character, a unitary matrix
representation, or a holonomy-twisted table of the deck group).  The
package provides the deck-group algebra, factor classification, spectrally
accurate twisted propagation, Bohmian trajectory transport with statistical
equivariance checks, and a spontaneous-collapse process that respects the
topological sector.
"""

__version__ = "0.1.0"

from .covering import (
    CoveringSpace,
    FreeWord,
    Permutation,
    SemidirectElement,
    Winding,
    deck_compose,
)
from .factors import (
    Character,
    FiniteGroup,
    MatrixRep,
    TwistedRepTable,
    character_table,
    check_commutes,
    classify_dynamics,
    decompose_by_character,
    enumerate_characters,
    nfermion_factor,
    verify_twisted_law,
)
from .propagation import (
    Potential,
    WaveGrid,
    evolve,
    gauge_map,
    make_eigenstate,
    make_gaussian_state,
    make_two_particle_state,
    pair_eigenstate,
    spectrum,
    state_from_dict,
    state_to_dict,
    twist_embed,
)
from .trajectories import (
    integrate_trajectories,
    transport,
    velocity_field,
)
from .ensembles import (
    EnsembleReport,
    sample_density,
    tv_distance,
    verify_equivariance,
)
from .collapse import (
    CollapseEvent,
    apply_collapse,
    simulate_grw,
    total_rate,
)
from .errors import (
    ConfigError,
    IncompatibleFactorError,
    NonUnimodularFactorError,
    PhysicsError,
    ToleranceError,
    TopobohmError,
)
