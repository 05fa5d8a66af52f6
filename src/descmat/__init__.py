"""descmat: exact arithmetic for stationary descendent series of an
elliptic curve, their quasimodular coordinates, the weight-graded
descendent matroids, and decompositions of the discriminant form with
the induced tau-function identities.

All computation is over exact rationals; equality everywhere means
bit-exact equality.
"""

__version__ = "0.1.0"

from .characters import character, character_table, gw_character_oracle
from .decomposition import (
    GENERATOR_TRIPLES,
    LinearDecomposition,
    PolynomialDecomposition,
    all_positive_decompositions,
    basis_key,
    poly_basis_expand,
    solve_linear,
    tau_direct,
    tau_niebur,
    tau_pentagonal,
    tau_relation_report,
)
from .descendents import (
    as_label,
    bracket_series,
    eisenstein_coordinates,
    gw_invariant,
    to_eisenstein,
    weight,
)
from .linalg import InconsistentSystemError, SingularSystemError, solve_exact
from .matroid import (
    LinearMatroid,
    TuttePolynomial,
    descendent_labels,
    descendent_matrix,
    named_restriction,
)
from .partitions import (
    centralizer_order,
    partition_count,
    partitions_min_two,
    partitions_of,
    pentagonal_pairs,
)
from .qseries import (
    QSeries,
    discriminant,
    eisenstein_series,
    euler_function,
    fraction_str,
    inverse_euler,
    sigma,
)
from .quasimodular import (
    EisensteinMonomial,
    InsufficientOrderError,
    eisenstein_monomials,
    expand_in_eisenstein,
    monomial_series,
    qm_dimension,
)
from .shifted import bernoulli, pk_constant, shifted_power_sum
