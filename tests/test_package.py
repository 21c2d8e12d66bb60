"""The package's public names, and the docstring references to them."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import uqcm
from uqcm import combinatorics, fidelity, hilbert, machines, symmetric

# Test references, kept in tests/reference.py: none is part of the package.
MOVED = {
    combinatorics: ["occupation_tuples", "_tuples", "check_occupation",
                    "splitting_coefficient_sq"],
    hilbert: ["trace_distance_matrices"],
    symmetric: ["reduce_symmetric", "reduced_expectation", "full_to_sym_density",
                "projector_full", "embed", "embed_isometry", "sym_to_full_state"],
    machines: ["explicit_1to2"],
}

# Second entry points into one engine, folded into it: F_L alone is
# fidelities_closed(spec, L)[-1], one identity report verify_identity_family(...)[-1].
FOLDED = {
    fidelity: ["fidelity_L_closed", "_closed_form"],
    combinatorics: ["verify_identity"],
}

# A Sphinx role and its target, such as :func:`~uqcm.symmetric.sweep_width`.
ROLE = re.compile(r":(func|attr|data|class|meth|mod):`~?([\w.]+)`")
SOURCES = sorted(Path(uqcm.__file__).parent.glob("*.py"))


def test_every_name_in_all_resolves():
    assert [name for name in uqcm.__all__ if not hasattr(uqcm, name)] == []


@pytest.mark.parametrize("module", list(MOVED), ids=lambda m: m.__name__)
def test_test_references_are_not_in_the_package(module):
    present = [name for name in MOVED[module]
               if hasattr(uqcm, name) or hasattr(module, name)]
    assert present == []
    assert not set(MOVED[module]) & set(uqcm.__all__)


@pytest.mark.parametrize("module", list(FOLDED), ids=lambda m: m.__name__)
def test_folded_entry_points_are_gone(module):
    present = [name for name in FOLDED[module]
               if hasattr(uqcm, name) or hasattr(module, name)]
    assert present == []
    assert not set(FOLDED[module]) & set(uqcm.__all__)


def test_closed_form_engine_takes_only_a_stop():
    assert list(inspect.signature(fidelity.fidelities_closed).parameters) == [
        "spec", "upto"]


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain below one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(target, part):
                return False
            target = getattr(target, part)
        return True
    return False


def test_sources_hold_role_targets():
    assert sum(len(ROLE.findall(path.read_text())) for path in SOURCES) >= 70


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_docstring_role_targets_resolve(path):
    # A target is relative to its module or absolute under uqcm; only a
    # :mod: target may name a module outside the package, such as json.
    module = "uqcm" if path.stem == "__init__" else f"uqcm.{path.stem}"
    missing = [
        target
        for role, target in ROLE.findall(path.read_text())
        if not resolves(f"{module}.{target}")
        and not ((target.startswith("uqcm.") or role == "mod") and resolves(target))
    ]
    assert missing == []


@pytest.mark.parametrize("cls", [uqcm.SymDensity, uqcm.FullDensity, uqcm.PureState])
def test_densities_have_no_dense_accessor(cls):
    assert not hasattr(cls, "matrix") and not hasattr(cls, "density")
