"""Group presets, character tables, multiplicity vectors, projections."""

import numpy as np
import pytest

from sflow.errors import (
    BadAction,
    BadCharacterTable,
    NonGroup,
    NonIntegralMultiplicity,
    NotInvariant,
    NotOrthonormal,
    TableMismatch,
    WrongGroup,
)
from sflow.groups import (
    FiniteGroup,
    Irrep,
    OrthogonalAction,
    VirtualRep,
    build_group,
    character_of_subspace,
    direct_sum_action,
    forgetful_F,
    isotypical_projection,
    multiplicity_vector,
    phi_Z2,
)


def _z2_diag_action():
    group, table = build_group("cyclic", 2)
    action = OrthogonalAction(group, [np.eye(2), np.diag([1.0, -1.0])])
    return group, table, action


def _z2_swap_action():
    group, table = build_group("cyclic", 2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    action = OrthogonalAction(group, [np.eye(2), swap])
    return group, table, action


# --- presets ---------------------------------------------------------------


def test_trivial_preset():
    group, table = build_group("trivial")
    assert group.order == 1
    assert table.n_irreps == 1
    assert table.irreps[0].name == "trivial"
    assert table.irreps[0].values == (1.0,)


def test_cyclic_two():
    group, table = build_group("cyclic", 2)
    assert group.order == 2
    assert group.class_sizes == (1, 1)
    names = [ir.name for ir in table.irreps]
    assert names == ["trivial", "sign"]
    assert table.irreps[0].values == (1.0, 1.0)
    assert table.irreps[1].values == (1.0, -1.0)
    assert all(ir.schur_norm == 1 for ir in table.irreps)


def test_cyclic_three():
    # one 2-dimensional real irrep of complex type: chi = (2, -1, -1)
    group, table = build_group("cyclic", 3)
    assert group.order == 3
    assert table.n_irreps == 2
    plane = table.irreps[1]
    assert plane.name == "plane_1"
    assert plane.degree == 2
    assert plane.schur_norm == 2
    assert np.allclose(plane.values, (2.0, -1.0, -1.0))


def test_cyclic_four():
    _, table = build_group("cyclic", 4)
    names = [ir.name for ir in table.irreps]
    assert names == ["trivial", "sign", "plane_1"]
    # 2cos(pi j / 2) for j = 0..3
    assert np.allclose(table.irreps[2].values, (2.0, 0.0, -2.0, 0.0))


def test_dihedral_three():
    group, table = build_group("dihedral", 3)
    assert group.order == 6
    # classes: identity, the two rotations, the three reflections
    assert group.conjugacy_classes == ((0,), (1, 2), (3, 4, 5))
    names = [ir.name for ir in table.irreps]
    assert names == ["trivial", "sign", "plane_1"]
    plane = table.irreps[2]
    assert plane.schur_norm == 1
    assert np.allclose(plane.values, (2.0, -1.0, 0.0))


def test_dihedral_four():
    group, table = build_group("dihedral", 4)
    assert group.order == 8
    assert group.n_classes == 5
    names = [ir.name for ir in table.irreps]
    assert names == ["trivial", "sign", "alt", "alt_sign", "plane_1"]
    alt = table.irreps[2]
    assert np.allclose(alt.values, (1.0, -1.0, 1.0, 1.0, -1.0))
    assert np.allclose(table.irreps[4].values, (2.0, 0.0, -2.0, 0.0, 0.0))


def test_explicit_round_trip():
    ref_group, ref_table = build_group("cyclic", 3)
    records = [
        {"name": ir.name, "degree": ir.degree, "schur": ir.schur_norm,
         "values": list(ir.values)}
        for ir in ref_table.irreps
    ]
    group, table = build_group("explicit", mult_table=ref_group.mult_table,
                               char_table=records)
    assert group.mult_table == ref_group.mult_table
    assert [ir.values for ir in table.irreps] == [ir.values for ir in ref_table.irreps]


def test_bad_presets():
    with pytest.raises(NonGroup):
        build_group("octahedral")
    with pytest.raises(NonGroup):
        build_group("cyclic", 0)
    with pytest.raises(NonGroup):
        build_group("explicit", mult_table=[[0]])


# --- group validation ------------------------------------------------------


def test_group_invariants():
    group, _ = build_group("cyclic", 4)
    assert group.identity == 0
    assert group.inverses == (0, 3, 2, 1)
    assert sum(group.class_sizes) == group.order
    for g in range(group.order):
        assert group.mul(g, group.inv(g)) == group.identity


def test_non_group_tables():
    with pytest.raises(NonGroup):
        FiniteGroup(((0, 0), (0, 0)))  # no identity
    with pytest.raises(NonGroup):
        FiniteGroup(((0, 1), (1, 1)))  # 1 has no inverse
    with pytest.raises(NonGroup):
        FiniteGroup(((0, 5), (1, 0)))  # entry out of range


def test_bad_character_tables():
    group, table = build_group("cyclic", 2)
    with pytest.raises(BadCharacterTable):
        # orthogonality fails: second row not a character
        build_group("explicit", mult_table=group.mult_table, char_table=[
            {"name": "trivial", "degree": 1, "schur": 1, "values": [1, 1]},
            {"name": "sign", "degree": 1, "schur": 1, "values": [1, -2]},
        ])
    with pytest.raises(BadCharacterTable):
        # value at identity must equal the degree
        build_group("explicit", mult_table=group.mult_table, char_table=[
            {"name": "trivial", "degree": 2, "schur": 1, "values": [1, 1]},
        ])
    with pytest.raises(BadCharacterTable):
        # duplicate names
        build_group("explicit", mult_table=group.mult_table, char_table=[
            {"name": "a", "degree": 1, "schur": 1, "values": [1, 1]},
            {"name": "a", "degree": 1, "schur": 1, "values": [1, -1]},
        ])
    with pytest.raises(BadCharacterTable):
        # schur norm must be 1, 2, or 4
        build_group("explicit", mult_table=group.mult_table, char_table=[
            {"name": "trivial", "degree": 1, "schur": 3, "values": [1, 1]},
        ])


# --- orthogonal actions ----------------------------------------------------


def test_action_validation():
    group, _ = build_group("cyclic", 2)
    with pytest.raises(BadAction):
        OrthogonalAction(group, [np.eye(1), np.array([[2.0]])])
    with pytest.raises(BadAction):
        OrthogonalAction(group, [np.eye(2)])  # wrong count
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    rot60 = np.array([[c, -s], [s, c]])
    with pytest.raises(BadAction):
        # rot60 squared is rot120, not the identity: not a homomorphism
        OrthogonalAction(group, [np.eye(2), rot60])


@pytest.mark.parametrize("batch", [1, 1 << 12])
def test_action_errors_name_their_witness(batch, monkeypatch):
    # batch 1 checks one row of the table at a time, the default all at once
    monkeypatch.setattr("sflow.groups.HOMOMORPHISM_BATCH", batch)
    group, _ = build_group("cyclic", 2)
    with pytest.raises(BadAction, match="element 1 not orthogonal: defect 3.000e"):
        OrthogonalAction(group, [np.eye(1), np.array([[2.0]])])
    with pytest.raises(BadAction, match="element 0 not orthogonal"):
        OrthogonalAction(group, [np.array([[2.0]]), np.array([[2.0]])])
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    rot60 = np.array([[c, -s], [s, c]])
    # (0, b) and (1, 0) hold; (1, 1) is the first failing pair in row order
    with pytest.raises(BadAction, match=r"homomorphism fails at \(1, 1\): "
                       r"defect 1\.732e\+00"):
        OrthogonalAction(group, [np.eye(2), rot60])
    group3, _ = build_group("cyclic", 3)
    # element 1 acts as the identity, so 1 * 1 = 2 is the first pair to fail
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    rot120 = np.array([[c, -s], [s, c]])
    with pytest.raises(BadAction, match=r"homomorphism fails at \(1, 1\)"):
        OrthogonalAction(group3, [np.eye(2), np.eye(2), rot120])


def test_action_extended():
    _, _, action = _z2_diag_action()
    big = action.extended(2)
    assert big.dim == 4
    assert np.allclose(big.matrix(1), np.diag([1.0, -1.0, 1.0, 1.0]))
    assert action.extended(0) is action


def test_direct_sum_action():
    _, _, diag = _z2_diag_action()
    _, _, swap = _z2_swap_action()
    both = direct_sum_action(diag, swap)
    assert both.dim == 4
    expected = np.zeros((4, 4))
    expected[:2, :2] = np.diag([1.0, -1.0])
    expected[2:, 2:] = [[0.0, 1.0], [1.0, 0.0]]
    assert np.allclose(both.matrix(1), expected)
    group3, table3 = build_group("cyclic", 3)
    other = OrthogonalAction(group3, [np.eye(1)] * 3)
    with pytest.raises(WrongGroup):
        direct_sum_action(diag, other)


# --- characters of subspaces ----------------------------------------------


def test_character_of_span_diag():
    _, _, action = _z2_diag_action()
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert np.allclose(character_of_subspace(action, e1), (1.0, 1.0))
    assert np.allclose(character_of_subspace(action, e2), (1.0, -1.0))


def test_character_of_full_space_swap():
    # full space under the swap: trace of identity is 2, trace of swap is 0
    _, _, action = _z2_swap_action()
    assert np.allclose(character_of_subspace(action, np.eye(2)), (2.0, 0.0))


def test_character_empty_frame():
    _, _, action = _z2_diag_action()
    chi = character_of_subspace(action, np.zeros((2, 0)))
    assert chi.shape == (2,)
    assert np.all(chi == 0.0)


def test_character_rejects_bad_frames():
    _, _, action = _z2_diag_action()
    with pytest.raises(NotOrthonormal):
        character_of_subspace(action, np.array([[1.0], [1.0]]))
    _, _, swap = _z2_swap_action()
    with pytest.raises(NotInvariant):
        # span(e1) is not swap-invariant
        character_of_subspace(swap, np.array([[1.0], [0.0]]))


def test_not_invariant_names_the_worst_element():
    # C4 on the plane by quarter turns: only the half-turn (element 2) keeps
    # span(e1); elements 1 and 3 tie for the worst commutator, and the first
    # of them is the witness
    group, _ = build_group("cyclic", 4)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    action = OrthogonalAction(
        group, [np.linalg.matrix_power(quarter, k) for k in range(4)])
    with pytest.raises(NotInvariant,
                       match="commutator norm 1.000e\\+00 at element 1$"):
        character_of_subspace(action, np.array([[1.0], [0.0]]))
    # D3 on the plane, element f * 3 + t acting as S^f R^t, and a tilted
    # line: the witness is the element whose commutator is largest, as a
    # one-matrix-at-a-time scan finds it, not the first one that fails
    group3, _ = build_group("dihedral", 3)
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    rot = np.array([[c, -s], [s, c]])
    mats = [np.linalg.matrix_power(np.diag([1.0, -1.0]), f)
            @ np.linalg.matrix_power(rot, t) for f in range(2) for t in range(3)]
    d3 = OrthogonalAction(group3, mats)
    v = np.array([[np.cos(0.3)], [np.sin(0.3)]])
    p = v @ v.T
    norms = [np.linalg.norm(m @ p - p @ m, 2) for m in mats]
    worst = int(np.argmax(norms))
    assert worst > min(g for g, n in enumerate(norms) if n > 1e-7)
    with pytest.raises(NotInvariant, match=f"{norms[worst]:.3e} at element {worst}$"):
        character_of_subspace(d3, v)


# --- multiplicity vectors --------------------------------------------------


def test_multiplicity_vector_z2():
    _, table = build_group("cyclic", 2)
    assert multiplicity_vector((2.0, 0.0), table).coeffs == (1, 1)
    assert multiplicity_vector((1.0, -1.0), table).coeffs == (0, 1)
    assert multiplicity_vector((0.0, 0.0), table).coeffs == (0, 0)


def test_multiplicity_vector_plane():
    # chi of the planar rotation rep of cyclic(3) resolves to one plane copy
    _, table = build_group("cyclic", 3)
    assert multiplicity_vector((2.0, -1.0, -1.0), table).coeffs == (0, 1)


def test_multiplicity_vector_rejects():
    _, table = build_group("cyclic", 2)
    with pytest.raises(NonIntegralMultiplicity):
        multiplicity_vector((1.0, 0.0), table)  # trivial pairing is 1/2
    with pytest.raises(TableMismatch):
        multiplicity_vector((1.0, 1.0, 1.0), table)


def test_virtual_rep_arithmetic():
    _, table = build_group("cyclic", 2)
    a = VirtualRep(table, (1, -1))
    b = VirtualRep(table, (2, 3))
    assert (a + b).coeffs == (3, 2)
    assert (a - b).coeffs == (-1, -4)
    assert (-a).coeffs == (-1, 1)
    assert VirtualRep.zero(table).is_zero()
    assert not a.is_zero()
    assert a.as_dict() == {"trivial": 1, "sign": -1}
    _, table3 = build_group("cyclic", 3)
    with pytest.raises(TableMismatch):
        a + VirtualRep.zero(table3)
    with pytest.raises(TableMismatch):
        VirtualRep(table, (1, 2, 3))


def test_forgetful():
    _, table = build_group("cyclic", 2)
    assert forgetful_F(VirtualRep(table, (1, -1))) == 0
    assert forgetful_F(VirtualRep(table, (2, 1))) == 3
    _, table3 = build_group("cyclic", 3)
    # plane irrep carries dimension 2
    assert forgetful_F(VirtualRep(table3, (0, 1))) == 2


def test_forgetful_matches_subspace_dimension():
    _, table, action = _z2_swap_action()
    for nu in range(table.n_irreps):
        proj = isotypical_projection(action, table, nu)
        w, v = np.linalg.eigh(proj)
        frame = v[:, w > 0.5]
        chi = character_of_subspace(action, frame)
        assert forgetful_F(multiplicity_vector(chi, table)) == frame.shape[1]


def test_phi_z2():
    _, table = build_group("cyclic", 2)
    assert phi_Z2(VirtualRep(table, (1, -1))) == (0, 1)
    assert phi_Z2(VirtualRep(table, (2, 1))) == (3, 2)
    assert phi_Z2(VirtualRep.zero(table)) == (0, 0)
    _, table3 = build_group("cyclic", 3)
    with pytest.raises(WrongGroup):
        phi_Z2(VirtualRep.zero(table3))


# --- isotypical projections ------------------------------------------------


def test_isotypical_diag():
    _, table, action = _z2_diag_action()
    assert np.allclose(isotypical_projection(action, table, "trivial"),
                       np.diag([1.0, 0.0]))
    assert np.allclose(isotypical_projection(action, table, "sign"),
                       np.diag([0.0, 1.0]))


def test_isotypical_swap():
    # fixed line of the swap is span(1,1); sign line is span(1,-1)
    _, table, action = _z2_swap_action()
    half = np.full((2, 2), 0.5)
    assert np.allclose(isotypical_projection(action, table, "trivial"), half)
    assert np.allclose(isotypical_projection(action, table, "sign"),
                       np.array([[0.5, -0.5], [-0.5, 0.5]]))


def test_isotypical_resolution_of_identity():
    from sflow.sampling import preset_action

    rng = np.random.default_rng(7)
    table, action = preset_action("dihedral", 3, 7, rng, conjugate=True)
    projs = [isotypical_projection(action, table, nu)
             for nu in range(table.n_irreps)]
    assert np.allclose(sum(projs), np.eye(7), atol=1e-10)
    for i, p in enumerate(projs):
        for j, q in enumerate(projs):
            if i != j:
                assert np.linalg.norm(p @ q) < 1e-10
    for p in projs:
        for rho in action.matrices:
            assert np.linalg.norm(rho @ p - p @ rho) < 1e-10


def test_isotypical_rejects_mismatched_table():
    _, _, action = _z2_diag_action()
    _, table3 = build_group("cyclic", 3)
    with pytest.raises(TableMismatch):
        isotypical_projection(action, table3, 0)
    _, table = build_group("cyclic", 2)
    with pytest.raises(WrongGroup):
        isotypical_projection(action, table, 5)


def test_irrep_dataclass_is_frozen():
    ir = Irrep("trivial", 1, 1, (1.0,))
    with pytest.raises(AttributeError):
        ir.degree = 2
