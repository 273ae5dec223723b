"""Group presets, character tables, multiplicity vectors, projections."""

import re
import tracemalloc

import numpy as np
import pytest

from sflow import groups
from sflow.errors import (
    BadAction,
    BadCharacterTable,
    NonGroup,
    NonIntegralMultiplicity,
    NotInvariant,
    NotOrthonormal,
    OutOfRange,
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
    subspace_classes,
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


# a Latin square with identity 0 and unique inverses that is not associative
_LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1),
          (4, 3, 1, 2, 0))


@pytest.mark.parametrize("batch", [groups.HOMOMORPHISM_BATCH, 1])
def test_associativity_names_the_first_failing_triple(batch, monkeypatch):
    # the batch of 1 checks one row a at a time
    monkeypatch.setattr(groups, "HOMOMORPHISM_BATCH", batch)
    t = _LOOP5
    first = next((a, b, c) for a in range(5) for b in range(5)
                 for c in range(5) if t[t[a][b]][c] != t[a][t[b][c]])
    with pytest.raises(NonGroup) as info:
        FiniteGroup(_LOOP5)
    assert str(info.value) == f"associativity fails at {first}"


def test_associativity_check_memory_is_bounded():
    # checking all order^3 triples at once peaked at 130 MiB for this group
    tracemalloc.start()
    try:
        build_group("dihedral", 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


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


@pytest.mark.parametrize("where", [0, 1])
def test_a_nan_character_value_is_a_bad_table(where):
    # NaN passed both checks, and the job failed later with exit 4 as a
    # NonIntegralMultiplicity; it is invalid input, at construction
    group, _ = build_group("cyclic", 2)
    values = [1.0, 1.0]
    values[where] = float("nan")
    message = ("trivial: value at identity nan != degree 1" if where == 0
               else "orthogonality fails for (trivial, trivial): pairing nan, "
                    "expected 1.0")
    with pytest.raises(BadCharacterTable, match=rf"^{re.escape(message)}$") as info:
        build_group("explicit", mult_table=group.mult_table, char_table=[
            {"name": "trivial", "degree": 1, "schur": 1, "values": values}])
    assert info.value.exit_code == 2


def test_orthogonality_failure_names_the_first_pair():
    group, _ = build_group("cyclic", 2)
    with pytest.raises(BadCharacterTable, match=r"^orthogonality fails for "
                       r"\(trivial, sign\): pairing -0\.5, expected 0\.0$"):
        build_group("explicit", mult_table=group.mult_table, char_table=[
            {"name": "trivial", "degree": 1, "schur": 1, "values": [1, 1]},
            {"name": "sign", "degree": 1, "schur": 1, "values": [1, -2]}])


def _odd_z2_table():
    # an order-2 table that passes validation but is not the standard one:
    # a quaternionic-type row of degree 2 next to the sign
    group, _ = build_group("cyclic", 2)
    return groups.RealCharacterTable(group, [
        Irrep("a", 2, 4, (2.0, 2.0)), Irrep("b", 1, 1, (1.0, -1.0))])


@pytest.mark.parametrize("build, error, message", [
    (lambda: FiniteGroup(()), NonGroup, "empty multiplication table"),
    (lambda: FiniteGroup(((0, 1), (1,))), NonGroup,
     "row 1 has length 1, expected 2"),
    (lambda: groups.RealCharacterTable(build_group("trivial")[0], []),
     BadCharacterTable, "no irreducible characters given"),
    (lambda: groups.RealCharacterTable(build_group("trivial")[0], [
        Irrep("a", 0, 1, (1.0,))]), BadCharacterTable, "a: degree 0 < 1"),
    (lambda: groups.RealCharacterTable(build_group("trivial")[0], [
        Irrep("a", 1, 1, (1.0, 1.0))]), BadCharacterTable,
     "a: 2 values for 1 classes"),
    (lambda: OrthogonalAction(build_group("trivial")[0], [np.ones((1, 2))]),
     BadAction, "matrix for element 0 is not square: (1, 2)"),
    (lambda: OrthogonalAction(build_group("cyclic", 2)[0],
                              [np.eye(1), np.eye(2)]),
     BadAction, "matrix for element 1 has dimension 2, expected 1"),
    (lambda: build_group("explicit", mult_table=[[0]],
                         char_table=[{"name": "a"}]),
     BadCharacterTable, "bad irrep record {'name': 'a'}"),
    (lambda: character_of_subspace(_z2_diag_action()[2], np.ones((3, 1))),
     NotOrthonormal, "basis shape (3, 1) does not match action dimension 2"),
    (lambda: phi_Z2(VirtualRep(_odd_z2_table(), (0, 0))), WrongGroup,
     "character table is not the standard order-2 table"),
])
def test_input_checks_name_the_bad_input(build, error, message):
    with pytest.raises(error, match=rf"^{re.escape(message)}$"):
        build()


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


@pytest.mark.parametrize("batch", [1, groups.HOMOMORPHISM_BATCH])
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


@pytest.mark.parametrize("preset, dims", [
    (("trivial", 1), (0, 3)), (("cyclic", 3), (2, 5)), (("dihedral", 4), (4, 4)),
    (("dihedral", 6), (3, 1))])
def test_stacked_direct_sum_has_the_bits_of_the_per_element_join(preset, dims):
    # the actions are conjugated by Haar matrices, so every entry counts
    from sflow._eig import block_diag
    from sflow.sampling import preset_action

    rng = np.random.default_rng(list(dims))
    (_, a), (_, b) = (preset_action(*preset, d, rng, conjugate=True)
                      for d in dims)
    want = np.array([block_diag(ma, mb) for ma, mb in zip(a.matrices, b.matrices)])
    got = direct_sum_action(a, b)
    assert got.stack.shape == want.shape and got.dim == sum(dims)
    assert got.stack.tobytes() == want.tobytes()
    assert [m.tobytes() for m in got.matrices] == [m.tobytes() for m in want]
    other = preset_action("cyclic", 2, dims[1], rng)[1]
    with pytest.raises(WrongGroup, match="^direct sum of actions of different "
                       "groups$"):
        direct_sum_action(a, other)


@pytest.mark.parametrize("table, message", [
    (((0, 1), (1, float("nan"))), "entry nan in row 1"),
    (((0, 1), (1, 0.5)), "entry 0.5 in row 1"),
    (((True, 1), (1, 0)), "entry True in row 0"),
    (((0, 1), (1, np.bool_(False))), f"entry {np.bool_(False)!r} in row 1"),
    (((0, 1), (1, float("inf"))), "entry inf in row 1")])
def test_a_table_entry_that_is_not_an_element_index_is_not_a_group(table,
                                                                   message):
    # NaN and 0.5 were truncated or raised a bare ValueError, True read as 1
    with pytest.raises(NonGroup, match=rf"^{re.escape(message)} is not an "
                       r"element index 0\.\.1$"):
        FiniteGroup(table)


def test_integral_table_entries_of_any_number_type_are_elements():
    group = FiniteGroup(((np.int64(0), 1.0), (1, np.float32(0.0))))
    assert group.mult_table == ((0, 1), (1, 0))
    assert all(type(x) is int for row in group.mult_table for x in row)


@pytest.mark.parametrize("preset", ["cyclic", "dihedral"])
@pytest.mark.parametrize("n", [float("nan"), 2.5, 3.0, True, None, 0, "3"])
def test_a_preset_size_that_is_not_a_positive_integer_is_refused(preset, n):
    # refused before the preset cache sees it: a bool or float key would
    # hash like the integer it equals
    groups._preset_group.cache_clear()
    with pytest.raises(NonGroup, match=f"^{preset} preset needs an integer "
                       rf"n >= 1, got {re.escape(repr(n))}$"):
        build_group(preset, n)
    assert groups._preset_group.cache_info().currsize == 0
    group, _ = build_group(preset, np.int64(3))
    assert group.name == f"{preset}_3" and group == build_group(preset, 3)[0]


def test_combined_actions_are_adopted_without_revalidation(monkeypatch):
    # sums and extensions of valid actions are valid: they skip the |G|^2
    # checks and equal the actions a validating construction gives
    from sflow.sampling import preset_action

    rng = np.random.default_rng(43)
    _, a = preset_action("dihedral", 4, 3, rng, conjugate=True)
    _, b = preset_action("dihedral", 4, 2, rng, conjugate=True)
    calls = []
    real = groups.opnorms_within
    monkeypatch.setattr(groups, "opnorms_within",
                        lambda m, tol: calls.append(m.shape) or real(m, tol))
    combined = [direct_sum_action(a, b), a.extended(3), b.extended(1)]
    assert calls == []
    for act in combined:
        checked = OrthogonalAction(act.group, list(act.matrices))
        assert calls  # the validating construction ran its checks
        assert checked.dim == act.dim
        assert np.array_equal(checked.stack, act.stack)
        assert all(np.shares_memory(m, act.stack) for m in act.matrices)
        with pytest.raises(ValueError):
            act.stack[0, 0, 0] = 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_user_actions_with_non_finite_entries_are_rejected(bad):
    # a non-finite matrix fails the Frobenius screen and gets norm inf
    group, _ = build_group("cyclic", 2)
    with pytest.raises(BadAction, match="element 1 not orthogonal: defect inf"):
        OrthogonalAction(group, [np.eye(2), np.full((2, 2), bad)])


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
    assert VirtualRep(table, (0,) * table.n_irreps).is_zero()
    assert not a.is_zero()
    assert a.as_dict() == {"trivial": 1, "sign": -1}
    _, table3 = build_group("cyclic", 3)
    with pytest.raises(TableMismatch):
        a + VirtualRep(table3, (0,) * table3.n_irreps)
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
    assert phi_Z2(VirtualRep(table, (0,) * table.n_irreps)) == (0, 0)
    _, table3 = build_group("cyclic", 3)
    with pytest.raises(WrongGroup):
        phi_Z2(VirtualRep(table3, (0,) * table3.n_irreps))


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
    # another group's table is a WrongGroup, as in the flow; a bad index or
    # name is an OutOfRange, inside the exit-code contract
    _, _, action = _z2_diag_action()
    _, table3 = build_group("cyclic", 3)
    with pytest.raises(WrongGroup, match="^character table and action belong "
                                         "to different groups$"):
        isotypical_projection(action, table3, 0)
    _, table = build_group("cyclic", 2)
    with pytest.raises(OutOfRange, match="^irrep index 5 out of range$"):
        isotypical_projection(action, table, 5)
    with pytest.raises(OutOfRange, match="^unknown irrep 'plane_1'$"):
        isotypical_projection(action, table, "plane_1")


def test_irrep_dataclass_is_frozen():
    ir = Irrep("trivial", 1, 1, (1.0,))
    with pytest.raises(AttributeError):
        ir.degree = 2


def test_presets_are_built_once_and_explicit_groups_every_time():
    for preset, n in (("trivial", None), ("cyclic", 5), ("dihedral", 1),
                      ("dihedral", 6)):
        group, table = build_group(preset, n)
        again = build_group(preset, n)
        assert again[0] is group and again[1] is table
    assert build_group("trivial", 3)[1] is build_group("trivial")[1]
    table = [[0, 1], [1, 0]]
    chars = [{"name": "a", "degree": 1, "schur": 1, "values": [1, 1]},
             {"name": "b", "degree": 1, "schur": 1, "values": [1, -1]}]
    first = build_group("explicit", mult_table=table, char_table=chars)
    second = build_group("explicit", mult_table=table, char_table=chars)
    assert first[0] is not second[0] and first[1] is not second[1]


@pytest.mark.parametrize("preset, n", [("trivial", None), ("cyclic", 5),
                                       ("dihedral", 4), ("dihedral", 6)])
def test_the_class_pairing_is_computed_once_with_the_bits_of_the_loop(preset, n):
    _, table = build_group(preset, n)
    group = table.group
    pairing = np.array([[s * v / (group.order * ir.schur_norm)
                         for s, v in zip(group.class_sizes, ir.values)]
                        for ir in table.irreps]).T
    assert table._pairing.tobytes() == pairing.tobytes()
    assert not table._pairing.flags.writeable
    chi = np.array([ir.values for ir in table.irreps])
    coeffs, faults = groups._multiplicities(chi, table)
    assert faults == [None] * table.n_irreps
    assert coeffs.tolist() == [[float(i == j) for j in range(table.n_irreps)]
                               for i in range(table.n_irreps)]


def _group_data_by_loops(table):
    # identity, inverses and conjugacy classes as element-by-element loops,
    # the reference for FiniteGroup's array form; None where a check fails
    n = len(table)
    identity = next((e for e in range(n) if all(
        table[e][g] == g and table[g][e] == g for g in range(n))), None)
    if identity is None:
        return "no two-sided identity element"
    inverses = []
    for g in range(n):
        candidates = [h for h in range(n) if table[g][h] == identity]
        if len(candidates) != 1 or table[candidates[0]][g] != identity:
            return f"element {g} has no unique two-sided inverse"
        inverses.append(candidates[0])
    classes, seen = [], set()
    for g in range(n):
        if g not in seen:
            orbit = sorted({table[table[h][g]][inverses[h]] for h in range(n)})
            seen.update(orbit)
            classes.append(tuple(orbit))
    class_of = tuple(next(i for i, c in enumerate(classes) if g in c)
                     for g in range(n))
    return identity, tuple(inverses), tuple(classes), class_of


def test_group_checks_and_classes_match_element_by_element_loops():
    rng = np.random.default_rng(6)
    tables = [rng.integers(0, n, size=(n, n)).tolist()
              for n in range(1, 6) for _ in range(200)]
    for preset, n in (("cyclic", 6), ("dihedral", 4), ("dihedral", 5)):
        group, _ = build_group(preset, n)
        tables.append([list(row) for row in group.mult_table])
        for _ in range(60):  # one entry changed
            t = [list(row) for row in group.mult_table]
            t[rng.integers(group.order)][rng.integers(group.order)] = int(
                rng.integers(group.order))
            tables.append(t)
    groups_seen = 0
    for table in tables:
        want = _group_data_by_loops(table)
        try:
            g = FiniteGroup(table)
        except NonGroup as e:
            if isinstance(want, str):
                assert str(e) == want
            else:  # only associativity is left to fail
                assert str(e).startswith("associativity fails")
            continue
        groups_seen += 1
        assert (g.identity, g.inverses, g.conjugacy_classes, g.class_of) == want
        assert g.class_sizes == tuple(len(c) for c in want[2])
    assert groups_seen > 100


def test_subspace_classes_put_a_table_mismatch_in_each_frames_place():
    # the C3 table resolves C3 characters only: with the C2 table every frame
    # that passes its own checks gets the TableMismatch, and a frame that
    # fails them keeps its own error
    group, _ = build_group("cyclic", 3)
    _, c2_table = build_group("cyclic", 2)
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    rot = np.array([[c, -s], [s, c]])
    action = OrthogonalAction(group, [np.linalg.matrix_power(rot, k)
                                      for k in range(3)])
    got = subspace_classes(action, c2_table,
                           [np.eye(2), np.zeros((2, 0)), 2.0 * np.eye(2)])
    assert [type(g) for g in got] == [TableMismatch, TableMismatch,
                                      NotOrthonormal]
    assert str(got[0]) == "3 character values for 2 classes"
