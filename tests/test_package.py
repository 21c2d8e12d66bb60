"""The package's public names."""

import pytest

import uqcm
from uqcm import combinatorics, hilbert, machines, symmetric

# Test references, kept in tests/reference.py: none is part of the package.
MOVED = {
    combinatorics: ["occupation_tuples", "_tuples", "check_occupation",
                    "splitting_coefficient_sq"],
    hilbert: ["trace_distance_matrices"],
    symmetric: ["reduce_symmetric", "reduced_expectation", "full_to_sym_density",
                "projector_full", "embed", "embed_isometry", "sym_to_full_state"],
    machines: ["explicit_1to2"],
}


def test_every_name_in_all_resolves():
    assert [name for name in uqcm.__all__ if not hasattr(uqcm, name)] == []


@pytest.mark.parametrize("module", list(MOVED), ids=lambda m: m.__name__)
def test_test_references_are_not_in_the_package(module):
    present = [name for name in MOVED[module]
               if hasattr(uqcm, name) or hasattr(module, name)]
    assert present == []
    assert not set(MOVED[module]) & set(uqcm.__all__)


@pytest.mark.parametrize("cls", [uqcm.SymDensity, uqcm.FullDensity, uqcm.PureState])
def test_densities_have_no_dense_accessor(cls):
    assert not hasattr(cls, "matrix") and not hasattr(cls, "density")
