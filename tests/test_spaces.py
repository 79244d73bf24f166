"""The grid spaces: each layout question is answered by the space object."""

import ast
from pathlib import Path

import pytest

import topobohm
from topobohm.errors import ConfigError
from topobohm.factors import Character
from topobohm.propagation import (
    WaveGrid,
    gauge_map,
    make_eigenstate,
    pair_eigenstate,
    state_from_dict,
    state_to_dict,
)
from topobohm.spaces import GRID_SPACES, PairGrid, RingGrid, grid_space

PACKAGE = Path(topobohm.__file__).resolve().parent


def _reads_space_kind(node):
    """Whether an expression reads the ``kind`` of a space: ``<...>space.kind``
    (a name or attribute ending in ``space``), or ``sp["kind"]`` /
    ``space["kind"]`` on a serialized space."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "kind":
            owner = sub.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(
                owner, "id", "")
            if name.endswith("space"):
                return True
        if (isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Constant)
                and sub.slice.value == "kind"
                and getattr(sub.value, "id", "") in ("sp", "space")):
            return True
    return False


def space_kind_comparisons(package=PACKAGE):
    """(module, line) of each comparison that reads a space's kind outside
    the space module."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "spaces.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    _reads_space_kind(operand)
                    for operand in (node.left, *node.comparators)):
                found.append((path.name, node.lineno))
    return sorted(found)


def test_no_command_branches_on_a_space_kind():
    # a space answers its layout questions itself; a new space is one class,
    # not a branch at every site that asks
    assert space_kind_comparisons() == []


def test_the_guard_sees_a_branch(tmp_path):
    (tmp_path / "module.py").write_text(
        'def f(state, sp):\n'
        '    if state.space.kind == "ring":\n'
        '        return sp["kind"] != "ring"\n'
        '    return scenario.space.kind in ("ring",)\n')
    assert space_kind_comparisons(tmp_path) == [
        ("module.py", 2), ("module.py", 3), ("module.py", 4)]


def test_each_space_is_found_by_its_tag():
    assert GRID_SPACES == {"ring": RingGrid, "two_particle_ring": PairGrid}
    assert grid_space("two_particle_ring", radius=2.0) == PairGrid(radius=2.0)
    with pytest.raises(ConfigError, match="no grid space") as exc:
        grid_space("torus")
    assert exc.value.field_path == "$.space.kind"


def test_a_state_file_of_an_unknown_space_is_refused():
    d = state_to_dict(pair_eigenstate(0, 1, -1, n_points=8))
    d["space"]["kind"] = "figure_eight"
    with pytest.raises(ConfigError, match="no grid space"):
        state_from_dict(d)


@pytest.mark.parametrize("space", [RingGrid, PairGrid])
def test_a_space_refuses_a_bad_radius(space):
    with pytest.raises(ConfigError, match="radius"):
        space(radius=0.0)


def test_a_pair_is_no_scalar_ring_state():
    pair = pair_eigenstate(0, 1, -1, n_points=8)
    assert not pair.is_scalar
    assert make_eigenstate(0, Character.ring(0.3), n_points=8).is_scalar
    with pytest.raises(ConfigError, match="scalar ring states"):
        gauge_map(pair)


@pytest.mark.parametrize("fields", [{"sector_betas": [0.0]},
                                    {"sector_basis": [[1.0]]}])
def test_a_pair_state_carries_no_twist_sectors(fields):
    pair = pair_eigenstate(0, 1, -1, n_points=8)
    with pytest.raises(ConfigError, match="no twist sectors"):
        WaveGrid(space=pair.space, values=pair.values, twist=pair.twist,
                 **fields)
