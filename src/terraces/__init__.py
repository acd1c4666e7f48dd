"""Terraces, sequencings and complete Latin squares for small finite groups.

The package constructs small groups as Cayley tables (`groups`), verifies
every terrace flavour (`props`), searches by hill climbing (`hillclimb`)
and exhaustive backtracking (`enumerate`), explores terrace orbits and
chains (`orbit`), and certifies the derived Latin squares (`latin`).  The
`terraces` console script ties the pieces together.
"""

from importlib import resources

from .groups import (
    Group,
    automorphisms,
    build_cyclic,
    build_dicyclic,
    build_dihedral,
    build_semidirect_cyclic,
    closure_from_permutations,
    direct_product,
    element_order,
    inverse_pair_classes,
    involutions,
    parse_group_spec,
)
from .props import (
    Arrangement,
    classify,
    load_arrangement,
    save_arrangement,
    walecki,
)

__version__ = "0.1.0"

FIXTURES = (
    "g21_1_t2",
    "a4_t2",
    "g27_4_narcissistic",
    "g27_4_directed_half_and_half",
)


def fixture_path(name: str):
    """Path to a bundled witness file (see FIXTURES for the names)."""
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURES}")
    return resources.files(__name__).joinpath("data", f"{name}.json")
