"""descmat: exact arithmetic for stationary descendent series of an
elliptic curve, their quasimodular coordinates, the weight-graded
descendent matroids, and decompositions of the discriminant form with
the induced tau-function identities.

All computation is over exact rationals; equality everywhere means
bit-exact equality.

The package namespace is lazy: ``import descmat`` loads no submodule,
and each exported name imports its submodule on first use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "decomposition": (
        "GENERATOR_TRIPLES",
        "LinearDecomposition",
        "PolynomialDecomposition",
        "all_positive_decompositions",
        "basis_key",
        "poly_basis_expand",
        "solve_linear",
        "tau_direct",
        "tau_niebur",
        "tau_pentagonal",
        "tau_relation_report",
    ),
    "descendents": (
        "as_label",
        "bracket_series",
        "eisenstein_coordinates",
        "gw_invariant",
        "to_eisenstein",
        "weight",
    ),
    "linalg": ("InconsistentSystemError", "SingularSystemError"),
    "matroid": (
        "LinearMatroid",
        "TuttePolynomial",
        "descendent_labels",
        "descendent_matrix",
        "named_restriction",
    ),
    "partitions": (
        "bernoulli",
        "partition_count",
        "partitions_min_two",
        "partitions_of",
        "pentagonal_pairs",
        "pk_constant",
    ),
    "qseries": (
        "QSeries",
        "discriminant",
        "eisenstein_series",
        "euler_function",
        "fraction_str",
        "inverse_euler",
        "sigma",
    ),
    "quasimodular": (
        "EisensteinMonomial",
        "InsufficientOrderError",
        "eisenstein_monomials",
        "expand_in_eisenstein",
        "monomial_series",
        "qm_dimension",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name):
    """Import the submodule behind ``name`` and keep the value here."""
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
