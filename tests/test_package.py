"""The package namespace: the names and objects ``descmat`` exports.

``import descmat`` loads no submodule; each name loads its submodule on
first use.  The public names are pinned here; the tests' oracles
(``tests/oracles.py``) are not among them.
"""

from importlib import import_module
from importlib.util import find_spec

import pytest

import descmat
from test_cli import fresh_python

SUBMODULES = [
    "decomposition",
    "descendents",
    "linalg",
    "matroid",
    "partitions",
    "qseries",
    "quasimodular",
]
PUBLIC_NAMES = [
    "EisensteinMonomial", "GENERATOR_TRIPLES", "InconsistentSystemError",
    "InsufficientOrderError", "LinearDecomposition", "LinearMatroid",
    "PolynomialDecomposition", "QSeries", "SingularSystemError", "TuttePolynomial",
    "all_positive_decompositions", "as_label", "basis_key", "bernoulli",
    "bracket_series", "decomposition", "descendent_labels", "descendent_matrix",
    "descendents", "discriminant", "eisenstein_coordinates", "eisenstein_monomials",
    "eisenstein_series", "euler_function", "expand_in_eisenstein", "fraction_str",
    "gw_invariant", "inverse_euler", "linalg", "matroid",
    "monomial_series", "named_restriction", "partition_count", "partitions",
    "partitions_min_two", "partitions_of", "pentagonal_pairs", "pk_constant",
    "poly_basis_expand", "qm_dimension", "qseries", "quasimodular",
    "sigma", "solve_linear", "tau_direct",
    "tau_niebur", "tau_pentagonal", "tau_relation_report", "to_eisenstein", "weight",
]


def test_dir_lists_the_public_names_and_loads_nothing():
    proc = fresh_python(
        "import sys, descmat\n"
        "print(*[n for n in dir(descmat) if not n.startswith('_')])\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'descmat'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [" ".join(PUBLIC_NAMES), "descmat"]


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from descmat import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert sorted(descmat.__all__) == PUBLIC_NAMES


def test_each_name_is_the_object_its_submodule_holds():
    for name in PUBLIC_NAMES:
        value = getattr(descmat, name)
        if name in SUBMODULES:
            assert value is import_module(f"descmat.{name}")
            continue
        module = getattr(value, "__module__", None)
        if module is None:
            # a constant such as GENERATOR_TRIPLES: one submodule holds it
            holders = [import_module(f"descmat.{m}") for m in SUBMODULES]
            assert any(getattr(holder, name, None) is value for holder in holders)
        else:
            assert getattr(import_module(module), name) is value, name


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        descmat.no_such_name
    assert not hasattr(descmat, "DEFAULT_MAX_WEIGHT")
    with pytest.raises(ImportError, match="no_such_name"):
        from descmat import no_such_name  # noqa: F401
    # the oracles are the tests' own (tests/oracles.py), not the package's
    assert find_spec("descmat.characters") is None
    # bernoulli and pk_constant live in descmat.partitions
    assert find_spec("descmat.shifted") is None
    moved = {"as_partition", "centralizer_order", "shifted_power_sum", "_partition_sum"}
    for module in SUBMODULES:
        assert not moved & set(vars(import_module(f"descmat.{module}"))), module
