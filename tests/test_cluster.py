"""Tests for the graph-state engine.

The measurement rules are validated against an independent oracle: build
the cluster's dual-rail Fock state from the definition (|+> per vertex,
a sign flip per edge, frame matrices applied), project one qubit onto the
requested Pauli eigenvector at the amplitude level, and demand that the
graph-rule output reproduces the conditional state up to global phase.
"""

import itertools
import json
import math

import numpy as np
import pytest

from loopqc.cluster import (
    GraphError,
    GraphState,
    add_cz_edge,
    apply_fusion_graph_rule,
    bond_micro_clusters,
    bond_success_trials,
    clifford_from_tag,
    clifford_tag,
    fusion_type_i,
    fusion_type_ii,
    graph_from_json,
    graph_to_fock,
    graph_to_json,
    graph_union,
    local_complement,
    measure_x,
    measure_y,
    measure_z,
    merge_vertices,
    pbs_matrix,
    project_dual_rail,
    required_branches,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHASE_S,
    PHASE_S_DAG,
    SQRT_MINUS_IY,
    SQRT_PLUS_IY,
)
from loopqc.fock import (
    FockState,
    apply_beamsplitter,
    apply_mode_unitary,
    haar_unitary,
    measure_modes,
    post_select,
    swap_modes,
)
from loopqc.gates import GADGETS

SEED = 424217

SQ2 = math.sqrt(2)
BASIS_VECTORS = {
    "x": ((1 / SQ2, 1 / SQ2), (1 / SQ2, -1 / SQ2)),
    "y": ((1 / SQ2, 1j / SQ2), (1 / SQ2, -1j / SQ2)),
    "z": ((1, 0), (0, 1)),
}
MEASURE = {"x": measure_x, "y": measure_y, "z": measure_z}


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield GraphState(range(n), [p for p, b in zip(pairs, bits) if b])


def fock_measure(state, qubit_index, basis, outcome):
    vec = BASIS_VECTORS[basis][outcome]
    pair = (2 * qubit_index, 2 * qubit_index + 1)
    return project_dual_rail(state, pair, vec)


def check_rule(g, v, basis, outcome):
    """Compare the graph rule against the Fock-level projection at v."""
    verts = sorted(g.vertices)
    state = graph_to_fock(g)
    prob, cond = fock_measure(state, verts.index(v), basis, outcome)
    try:
        g2 = MEASURE[basis](g, v, outcome)
    except GraphError:
        assert prob < 1e-12, (g, v, basis, outcome)
        return
    assert prob > 1e-12, (g, v, basis, outcome)
    want = graph_to_fock(g2)
    fid = abs(want.overlap(cond))
    assert fid == pytest.approx(1.0, abs=1e-9), (g, v, basis, outcome, fid)


# ------------------------------------------------------------------ frames


def test_clifford_table_has_24_elements():
    from loopqc.cluster import _MAT_BY_TAG
    assert len(_MAT_BY_TAG) == 24


def test_clifford_tags_roundtrip():
    from loopqc.cluster import _MAT_BY_TAG
    for tag, m in _MAT_BY_TAG.items():
        assert clifford_tag(m) == tag
        back = clifford_from_tag(tag)
        # equal up to global phase
        assert abs(abs(np.trace(back.conj().T @ m)) - 2) < 1e-9


def test_clifford_tag_basics():
    assert clifford_tag(np.eye(2)) == ""
    assert clifford_tag(HADAMARD) == "H"
    assert clifford_tag(PHASE_S) == "S"
    z = np.diag([1.0, -1.0])
    assert clifford_tag(z) == "SS"
    x = np.array([[0, 1], [1, 0]])
    assert clifford_from_tag(clifford_tag(x)) == pytest.approx(x, abs=1e-9)


def test_clifford_tag_rejects_non_clifford():
    with pytest.raises(GraphError):
        clifford_tag(np.array([[1, 0], [0, np.exp(0.3j)]]))
    with pytest.raises(GraphError):
        clifford_from_tag("Q")


@pytest.mark.parametrize("m", [
    np.zeros((2, 2)),
    np.full((2, 2), np.nan),
    np.array([[np.inf, 0], [0, 1]]),
    np.eye(3),
    [1, 0, 0, 1],
    [[1, 0], [0]],
    "H",
], ids=["zero", "nan", "inf", "3x3", "flat", "ragged", "string"])
def test_degenerate_frames_raise_graph_error(m):
    with pytest.raises(GraphError):
        clifford_tag(m)
    with pytest.raises(GraphError):
        GraphState([0], frames={0: m})
    with pytest.raises(GraphError):
        GraphState([0]).compose_frame(0, m)


def test_clifford_tables_match_matrix_products():
    from loopqc.cluster import _CONJ, _MATRICES, _MUL
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)

    def same_up_to_phase(a, b):
        return abs(abs(np.trace(a.conj().T @ b)) - 2) < 1e-9

    assert len(_MATRICES) == 24
    for a, ma in enumerate(_MATRICES):
        assert not any(same_up_to_phase(ma, mb) for mb in _MATRICES[:a])
        for b, mb in enumerate(_MATRICES):
            assert same_up_to_phase(_MATRICES[_MUL[a][b]], ma @ mb), (a, b)
        for p, (axis, sign) in zip(paulis, _CONJ[a]):
            assert np.allclose(ma.conj().T @ p @ ma, sign * paulis[axis],
                               atol=1e-12), a


# ------------------------------------------------------------------ graphs


def test_graph_construction_and_errors():
    g = GraphState([0, 1, 2], [(0, 1)])
    assert g.neighbors(0) == {1}
    assert g.degree(2) == 0
    with pytest.raises(GraphError):
        GraphState([0], [(0, 0)])
    with pytest.raises(GraphError):
        GraphState([0, 1], [(0, 2)])
    with pytest.raises(GraphError):
        GraphState([0], frames={1: np.eye(2)})
    for edge in [(0, 1, 2), [0], 5, (0, [1]), ([0], 1)]:
        with pytest.raises(GraphError):
            GraphState([0, 1, 2], [edge])
    for vertices in [[[0]], [0, {1}], 5]:
        with pytest.raises(GraphError):
            GraphState(vertices)


def test_add_cz_edge_toggles():
    g = GraphState([0, 1])
    g1 = add_cz_edge(g, 0, 1)
    assert g1.has_edge(0, 1)
    g2 = add_cz_edge(g1, 0, 1)
    assert not g2.has_edge(0, 1)
    framed = GraphState([0, 1], frames={0: PHASE_S})
    with pytest.raises(GraphError):
        add_cz_edge(framed, 0, 1)


def test_local_complement_star_to_clique():
    star = GraphState(range(4), [(0, 1), (0, 2), (0, 3)])
    g = local_complement(star, 0)
    for a, b in itertools.combinations((1, 2, 3), 2):
        assert g.has_edge(a, b)
    assert local_complement(g, 0) == star


def test_graph_union_rejects_collisions():
    with pytest.raises(GraphError):
        graph_union(GraphState([0, 1]), GraphState([1, 2]))


# ------------------------------------------------------- state construction


def test_graph_to_fock_single_vertex():
    s = graph_to_fock(GraphState([7]))
    assert s.amplitude((1, 0)) == pytest.approx(1 / SQ2)
    assert s.amplitude((0, 1)) == pytest.approx(1 / SQ2)


def test_graph_to_fock_edge_pair():
    s = graph_to_fock(GraphState([0, 1], [(0, 1)]))
    assert s.amplitude((1, 0, 1, 0)) == pytest.approx(0.5)
    assert s.amplitude((1, 0, 0, 1)) == pytest.approx(0.5)
    assert s.amplitude((0, 1, 1, 0)) == pytest.approx(0.5)
    assert s.amplitude((0, 1, 0, 1)) == pytest.approx(-0.5)


def test_graph_to_fock_triangle_signs():
    g = GraphState([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    s = graph_to_fock(g)
    r = 2 ** -1.5
    for bits, sign in [((0, 0, 0), 1), ((1, 1, 0), -1), ((1, 1, 1), -1),
                       ((1, 0, 0), 1), ((1, 0, 1), -1)]:
        occ = [0] * 6
        for k, b in enumerate(bits):
            occ[2 * k + b] = 1
        assert s.amplitude(tuple(occ)) == pytest.approx(sign * r), bits


def test_graph_to_fock_applies_frames():
    g = GraphState([0], frames={0: HADAMARD})
    s = graph_to_fock(g)  # H|+> = |0>
    assert s.amplitude((1, 0)) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------- measurement rules


@pytest.mark.parametrize("basis", ["z", "y", "x"])
def test_measurement_rules_exhaustive_4_vertices(basis):
    for g in all_graphs(4):
        for v in range(4):
            for outcome in (0, 1):
                check_rule(g, v, basis, outcome)


def test_measurement_rules_on_5_vertex_samples():
    rng = np.random.default_rng(SEED)
    pairs = list(itertools.combinations(range(5), 2))
    for _ in range(12):
        mask = rng.integers(2, size=len(pairs))
        g = GraphState(range(5), [p for p, b in zip(pairs, mask) if b])
        v = int(rng.integers(5))
        basis = "xyz"[int(rng.integers(3))]
        check_rule(g, v, basis, int(rng.integers(2)))


def test_measurement_dispatch_through_frames():
    """Random framed graphs: rules must match the Fock oracle too."""
    rng = np.random.default_rng(SEED + 1)
    from loopqc.cluster import _MAT_BY_TAG
    tags = sorted(_MAT_BY_TAG)
    pairs = list(itertools.combinations(range(4), 2))
    for _ in range(25):
        mask = rng.integers(2, size=len(pairs))
        frames = {}
        for v in range(4):
            tag = tags[int(rng.integers(len(tags)))]
            if tag:
                frames[v] = clifford_from_tag(tag)
        g = GraphState(range(4), [p for p, b in zip(pairs, mask) if b],
                       frames)
        v = int(rng.integers(4))
        basis = "xyz"[int(rng.integers(3))]
        check_rule(g, v, basis, int(rng.integers(2)))


@pytest.mark.parametrize("measure", [measure_x, measure_y, measure_z])
def test_measurement_outcome_rejects_bools(measure):
    g = GraphState([0, 1], [(0, 1)])
    for outcome in (True, False, 2, -1):
        with pytest.raises(GraphError):
            measure(g, 0, outcome)


def test_measurement_sequences_stay_consistent():
    rng = np.random.default_rng(SEED + 2)
    pairs = list(itertools.combinations(range(4), 2))
    for _ in range(10):
        mask = rng.integers(2, size=len(pairs))
        g = GraphState(range(4), [p for p, b in zip(pairs, mask) if b])
        state = graph_to_fock(g)
        for _ in range(3):
            verts = sorted(g.vertices)
            v = verts[int(rng.integers(len(verts)))]
            basis = "xyz"[int(rng.integers(3))]
            outcome = int(rng.integers(2))
            prob, cond = fock_measure(state, verts.index(v), basis, outcome)
            try:
                g = MEASURE[basis](g, v, outcome)
            except GraphError:
                assert prob < 1e-12
                break
            assert prob > 1e-12
            state = cond
            fid = abs(graph_to_fock(g).overlap(state))
            assert fid == pytest.approx(1.0, abs=1e-9)


# --------------------------------------------------------------- fusion ops


def test_pbs_matrix_is_bin_sorting_permutation():
    expect = np.array([[0, 0, 1, 0],
                       [0, 1, 0, 0],
                       [1, 0, 0, 0],
                       [0, 0, 0, 1]], dtype=complex)
    assert np.array_equal(pbs_matrix(), expect)
    # each fusion gadget's swap on single-photon kets reproduces the columns
    for gadget, col in itertools.product(("fusion1", "fusion2"), range(4)):
        occ = [0, 0, 0, 0]
        occ[col] = 1
        s = swap_modes(FockState.from_occupation(tuple(occ)),
                       *GADGETS[gadget].swap)
        for row in range(4):
            occ_r = [0, 0, 0, 0]
            occ_r[row] = 1
            assert s.amplitude(tuple(occ_r)) == expect[row, col]


def test_pbs_is_involution():
    rng = np.random.default_rng(SEED + 3)
    occs = [(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1)]
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    s = FockState(4, 2, dict(zip(occs, amps)))
    swap = GADGETS["fusion1"].swap
    twice = swap_modes(swap_modes(s, *swap), *swap)
    assert abs(twice.overlap(s)) == pytest.approx(1.0, abs=1e-12)
    assert twice.amplitude((1, 0, 1, 0)) == pytest.approx(amps[0])


def two_bell_pairs():
    """A1-A2 and B1-B2 edge clusters: vertices (0, 1) and (10, 11)."""
    ga = GraphState([0, 1], [(0, 1)])
    gb = GraphState([10, 11], [(10, 11)])
    return ga, gb


def fused_input(ga, gb):
    g = graph_union(ga, gb)
    return g, graph_to_fock(g)


def rails(g, v):
    k = sorted(g.vertices).index(v)
    return (2 * k, 2 * k + 1)


def strip_pinned(state, modes, expected_occ):
    """Drop modes that hold a definite occupation in every component."""
    keep = [m for m in range(state.n_modes) if m not in set(modes)]
    terms = {}
    for occ, amp in state.items():
        assert tuple(occ[m] for m in modes) == tuple(expected_occ)
        terms[tuple(occ[m] for m in keep)] = amp
    photons = state.total_photons - sum(expected_occ)
    return FockState(len(keep), photons, terms)


def test_fusion_type_i_all_outcomes_match_graph_rules():
    ga, gb = two_bell_pairs()
    g, state = fused_input(ga, gb)
    va, vb = 1, 10
    seen = {}
    for seed in range(200):
        res = fusion_type_i(state, rails(g, va), rails(g, vb),
                            np.random.default_rng(seed))
        assert res.success_probability == pytest.approx(0.5, abs=1e-10)
        seen.setdefault(res.outcome, res)
    assert set(seen) == {(1, 0), (0, 1), (0, 0), (2, 0), (0, 2)}

    for outcome, res in seen.items():
        pred = apply_fusion_graph_rule(g, va, vb, res.graph_action)
        if res.success:
            assert res.probability == pytest.approx(0.25, abs=1e-10)
            fid = abs(graph_to_fock(pred).overlap(res.state))
            assert fid == pytest.approx(1.0, abs=1e-9), outcome
        elif outcome == (0, 0):
            assert res.probability == pytest.approx(0.25, abs=1e-10)
            # surviving pair holds both photons; the rest is z-measured
            rest = strip_pinned(res.state, rails(g, va), (1, 1))
            fid = abs(graph_to_fock(pred).overlap(rest))
            assert fid == pytest.approx(1.0, abs=1e-9)
        else:
            assert res.probability == pytest.approx(0.125, abs=1e-10)
            rest = strip_pinned(res.state, rails(g, va), (0, 0))
            fid = abs(graph_to_fock(pred).overlap(rest))
            assert fid == pytest.approx(1.0, abs=1e-9), outcome


def test_fusion_type_i_merge_has_union_neighborhood():
    ga = GraphState([0, 1, 2], [(0, 1), (1, 2)])  # path, fuse at the end
    gb = GraphState([10, 11], [(10, 11)])
    g, state = fused_input(ga, gb)
    va, vb = 2, 10
    for seed in range(200):
        res = fusion_type_i(state, rails(g, va), rails(g, vb),
                            np.random.default_rng(seed))
        if res.success:
            pred = apply_fusion_graph_rule(g, va, vb, res.graph_action)
            assert pred.neighbors(va) == {1, 11}
            fid = abs(graph_to_fock(pred).overlap(res.state))
            assert fid == pytest.approx(1.0, abs=1e-9)
            return
    raise AssertionError("no success outcome in 200 seeds")


def test_fusion_type_ii_all_outcomes_match_graph_rules():
    ga, gb = two_bell_pairs()
    g, state = fused_input(ga, gb)
    va, vb = 1, 10
    seen = {}
    for seed in range(400):
        res = fusion_type_ii(state, rails(g, va), rails(g, vb),
                             np.random.default_rng(seed))
        assert res.success_probability == pytest.approx(0.5, abs=1e-10)
        seen.setdefault(res.outcome, res)
    successes = [o for o, r in seen.items() if r.success]
    assert len(successes) == 4

    for outcome, res in seen.items():
        pred = apply_fusion_graph_rule(g, va, vb, res.graph_action)
        fid = abs(graph_to_fock(pred).overlap(res.state))
        assert fid == pytest.approx(1.0, abs=1e-9), outcome
        if res.success:
            assert res.probability == pytest.approx(0.125, abs=1e-10)
            # a surviving-end edge: the two leaves are now linked
            assert pred.has_edge(0, 11)


def test_merge_vertices_symmetric_difference():
    g = GraphState([0, 1, 2, 3], [(0, 2), (1, 2), (1, 3)])
    m = merge_vertices(g, 0, 1)
    # shared neighbor 2 cancels, 3 transfers
    assert m.neighbors(0) == {3}
    assert 1 not in m.vertices
    with pytest.raises(GraphError):
        merge_vertices(g, 0, 0)
    framed = GraphState([0, 1], frames={0: PHASE_S})
    with pytest.raises(GraphError):
        merge_vertices(framed, 0, 1)


# ------------------------------------------------------------- star bonding


def test_required_branches_values():
    assert required_branches(0.5, 0.75) == 2
    assert required_branches(1 / 16, 0.99) == 72
    assert required_branches(1.0, 0.999) == 1
    assert required_branches(0.3, 0.3) == 1


def test_required_branches_definition_holds():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(200):
        p = float(rng.uniform(0.01, 0.99))
        b = float(rng.uniform(0.01, 0.99))
        k = required_branches(p, b)
        assert 1.0 - (1.0 - p) ** k >= b
        if k > 1:
            assert 1.0 - (1.0 - p) ** (k - 1) < b


def test_required_branches_rejects_bad_probabilities():
    for p, b in [(0.0, 0.5), (-0.1, 0.5), (1.1, 0.5),
                 (0.5, 0.0), (0.5, 1.0)]:
        with pytest.raises(GraphError):
            required_branches(p, b)


def star(center, leaves):
    return GraphState([center, *leaves], [(center, x) for x in leaves])


def test_bond_minimal_stars_matches_fock_oracle():
    """One branch each, p_gate = 1: contract A-a-b-B into an A-B bond."""
    ga, gb = star(0, [1]), star(10, [11])
    seed = 5
    success, g, consumed = bond_micro_clusters(
        ga, gb, (0, 10), 1.0, np.random.default_rng(seed))
    assert success and consumed == 1
    assert g.vertices == {0, 10}
    assert g.has_edge(0, 10)

    # replay the same draws at the Fock level
    rng = np.random.default_rng(seed)
    rng.random()
    s1, s2 = int(rng.integers(2)), int(rng.integers(2))
    g0 = add_cz_edge(graph_union(ga, gb), 1, 11)
    state = graph_to_fock(g0)
    verts = sorted(g0.vertices)
    p1, state = fock_measure(state, verts.index(1), "y", s1)
    verts.remove(1)
    p2, state = fock_measure(state, verts.index(11), "y", s2)
    assert p1 == pytest.approx(0.5, abs=1e-10)
    assert p2 == pytest.approx(0.5, abs=1e-10)
    fid = abs(graph_to_fock(g).overlap(state))
    assert fid == pytest.approx(1.0, abs=1e-9)


def test_bond_multibranch_keeps_center_edge():
    ga, gb = star(0, [1, 2, 3]), star(10, [11, 12, 13])
    success, g, consumed = bond_micro_clusters(
        ga, gb, (0, 10), 0.5, np.random.default_rng(SEED + 5))
    assert success
    assert g.has_edge(0, 10)
    assert consumed >= 1


def test_bond_failure_consumes_all_branches():
    ga, gb = star(0, [1, 2]), star(10, [11, 12, 13])
    success, g, consumed = bond_micro_clusters(
        ga, gb, (0, 10), 0.0, np.random.default_rng(0))
    assert not success
    assert consumed == 2
    assert not g.has_edge(0, 10)
    # consumed leaves are gone, the unpaired B leaf survives
    assert g.vertices == {0, 10, 13}


def test_bond_success_rate_matches_analytic():
    ga, gb = star(0, [1, 2, 3]), star(10, [11, 12, 13])
    p = 0.4
    rng = np.random.default_rng(SEED + 6)
    n = 1500
    wins = sum(bond_micro_clusters(ga, gb, (0, 10), p, rng)[0]
               for _ in range(n))
    want = 1.0 - (1.0 - p) ** 3
    assert abs(wins / n - want) < 4 * math.sqrt(want * (1 - want) / n)


def test_bond_requires_branches_and_disjoint_labels():
    with pytest.raises(GraphError):
        bond_micro_clusters(GraphState([0]), star(10, [11]), (0, 10), 0.5,
                            np.random.default_rng(0))
    with pytest.raises(GraphError):
        bond_micro_clusters(star(0, [1]), star(1, [2]), (0, 1), 0.5,
                            np.random.default_rng(0))


# ------------------------------------------------------------ serialization


def test_graph_json_roundtrip():
    g = GraphState([0, 1, 2], [(0, 1), (1, 2)],
                   frames={2: PHASE_S, 0: HADAMARD})
    text = graph_to_json(g)
    back = graph_from_json(text)
    assert back == g
    assert graph_to_json(back) == text


GOOD_DOC = graph_to_json(GraphState([0, 1], [(0, 1)], frames={1: PHASE_S}))


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("vertices"),
    lambda d: d.update(vertices={"0": 0}),
    lambda d: d.update(vertices=[0, 1, [2]]),
    lambda d: d.update(vertices=[False, 1]),
    lambda d: d.update(vertices=[0, 1, 1]),
    lambda d: d.pop("edges"),
    lambda d: d.update(edges=[[0, 1, 2]]),
    lambda d: d.update(edges=[[0, True]]),
    lambda d: d.update(edges=[[0, 7]]),
    lambda d: d.update(frames=[["1", "S"]]),
    lambda d: d.update(frames={"1": ["S"]}),
    lambda d: d.update(frames={"9": "S"}),
    lambda d: d.update(frames={"1": "Q"}),
], ids=["missing-vertices", "vertices-object", "list-label", "bool-label",
        "duplicate-label", "missing-edges", "three-ended-edge", "bool-endpoint",
        "unknown-endpoint", "frames-list", "frame-tag-list",
        "frame-unknown-vertex", "frame-unknown-tag"])
def test_graph_json_rejects_malformed_documents(edit):
    doc = json.loads(GOOD_DOC)
    edit(doc)
    with pytest.raises(GraphError):
        graph_from_json(json.dumps(doc))


def test_graph_json_rejects_non_object_document():
    with pytest.raises(GraphError):
        graph_from_json("[]")


def test_graph_json_rejects_unknown_version():
    g = GraphState([0])
    text = graph_to_json(g).replace('"1.0"', '"2.0"')
    with pytest.raises(GraphError):
        graph_from_json(text)
    with pytest.raises(GraphError):
        graph_from_json('{"kind": "other"}')


def test_pbs_rejects_bin_collisions():
    s = FockState.from_occupation((1, 0, 0, 1))
    rng = np.random.default_rng(0)
    for fuse in (fusion_type_i, fusion_type_ii):
        for pair_a, pair_b in (((0, 1), (1, 3)), ((0, 1), (2, 4)),
                               ((0, 1), (2,)), ((-1, 1), (2, 3))):
            with pytest.raises(GraphError):
                fuse(s, pair_a, pair_b, rng)
        with pytest.raises(GraphError):
            fuse(s, (0, 1), (2, 3), None)


def test_graph_to_fock_cap():
    g = GraphState(range(7))
    with pytest.raises(GraphError):
        graph_to_fock(g)
    assert graph_to_fock(g, cap=7).n_modes == 14


def test_bond_success_trials_statistics():
    rng = np.random.default_rng(SEED + 7)
    p, k, n = 0.3, 4, 20000
    wins = bond_success_trials(p, k, n, rng)
    want = 1.0 - (1.0 - p) ** k
    assert abs(wins / n - want) < 4 * math.sqrt(want * (1 - want) / n)
    assert bond_success_trials(p, k, 0, rng) == 0
    with pytest.raises(GraphError):
        bond_success_trials(1.5, 2, 10, rng)


# ------------------------------------------- reference edge-set/matrix rules


PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


class RefGraph:
    """The graph rules on an edge set and frame matrices, kept only as the
    oracle for ``GraphState``'s adjacency map and Clifford tables."""

    def __init__(self, g):
        self.v, self.e = set(g.vertices), set(g.edges)
        self.f = {v: g.frame(v) for v in g.vertices}

    def nb(self, v):
        return {w for e in self.e if v in e for w in e - {v}}

    def lc(self, v):
        for a, b in itertools.combinations(self.nb(v), 2):
            self.e ^= {frozenset((a, b))}

    def delete(self, v):
        self.v.remove(v)
        self.e = {e for e in self.e if v not in e}
        del self.f[v]

    def byproduct(self, vs, m):
        for w in vs:
            self.f[w] = self.f[w] @ m

    def measure(self, v, pauli, outcome):
        m = self.f[v].conj().T @ PAULIS[pauli] @ self.f[v]
        axis, sign = next((a, s) for a, p in PAULIS.items() for s in (1, -1)
                          if np.allclose(m, s * p, atol=1e-9))
        s, nb = (outcome if sign > 0 else 1 - outcome), self.nb(v)
        if axis == "z":
            self.delete(v)
            self.byproduct(nb if s else (), PAULI_Z)
        elif axis == "y":
            self.lc(v)
            self.delete(v)
            self.byproduct(nb, PHASE_S_DAG if s else PHASE_S)
        elif not nb:
            if s:
                raise GraphError("X outcome 1 on an isolated vertex")
            self.delete(v)
        else:
            b0 = min(nb)
            nb0 = self.nb(b0)
            for w in (b0, v):
                self.lc(w)
            self.delete(v)
            self.lc(b0)
            self.byproduct([b0], SQRT_MINUS_IY if s else SQRT_PLUS_IY)
            self.byproduct(nb0 - nb - {v} if s else nb - nb0 - {b0}, PAULI_Z)

    def merge(self, keep, drop):
        linked = frozenset((keep, drop)) in self.e
        new_nb = (self.nb(keep) ^ self.nb(drop)) - {keep, drop}
        self.delete(drop)
        self.e = {e for e in self.e if keep not in e}
        self.e |= {frozenset((keep, w)) for w in new_nb}
        self.byproduct([keep] if linked else (), PAULI_Z)

    def assert_matches(self, g):
        assert g.vertices == self.v
        assert g.edges == self.e
        tags = {v: clifford_tag(m) for v, m in self.f.items()}
        assert {v: clifford_tag(g.frame(v)) for v in g.vertices} == tags
        assert set(g.frames) == {v for v, t in tags.items() if t}


def random_framed_graph(rng, n):
    from loopqc.cluster import _MAT_BY_TAG
    tags = sorted(_MAT_BY_TAG)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < 3.0 / n]
    frames = {v: clifford_from_tag(tags[int(rng.integers(24))])
              for v in range(n) if rng.random() < 0.5}
    return GraphState(range(n), pairs, frames)


def test_graph_rules_match_reference_on_large_framed_graphs():
    rng = np.random.default_rng(SEED + 8)
    for n in (10, 25, 60, 150):
        for _ in range(3):
            g = random_framed_graph(rng, n)
            ref = RefGraph(g)
            for _ in range(40):
                if len(ref.v) < 3:
                    break
                verts = sorted(ref.v)
                v = verts[int(rng.integers(len(verts)))]
                op = int(rng.integers(6))
                bare = [w for w in verts if clifford_tag(ref.f[w]) == ""]
                if op < 3:
                    outcome = int(rng.integers(2))
                    try:
                        ref.measure(v, "xyz"[op], outcome)
                    except GraphError:
                        with pytest.raises(GraphError):
                            MEASURE["xyz"[op]](g, v, outcome)
                        continue
                    g = MEASURE["xyz"[op]](g, v, outcome)
                elif op == 3:
                    ref.lc(v)
                    g = local_complement(g, v)
                elif len(bare) >= 2:
                    a, b = (bare[i] for i in rng.choice(len(bare), 2, False))
                    if op == 4:
                        ref.e ^= {frozenset((a, b))}
                        g = add_cz_edge(g, a, b)
                    else:
                        ref.merge(a, b)
                        g = merge_vertices(g, a, b)
                ref.assert_matches(g)


def ref_bond(ga, gb, centers, p_gate, rng):
    ref = RefGraph(graph_union(ga, gb))
    consumed = 0
    for leaf_a, leaf_b in zip(sorted(ga.neighbors(centers[0])),
                              sorted(gb.neighbors(centers[1]))):
        consumed += 1
        if rng.random() < p_gate:
            ref.e.add(frozenset((leaf_a, leaf_b)))
            ref.measure(leaf_a, "y", int(rng.integers(2)))
            ref.measure(leaf_b, "y", int(rng.integers(2)))
            return True, ref, consumed
        ref.measure(leaf_a, "z", int(rng.integers(2)))
        ref.measure(leaf_b, "z", int(rng.integers(2)))
    return False, ref, consumed


@pytest.mark.parametrize("k, p_gate", [(1, 0.5), (4, 0.3), (72, 0.02)])
def test_bond_matches_reference(k, p_gate):
    ga = star(0, range(1, k + 1))
    gb = star(1000, range(1001, 1001 + k))
    outcomes = set()
    for seed in range(30):
        success, g, consumed = bond_micro_clusters(
            ga, gb, (0, 1000), p_gate, np.random.default_rng(seed))
        want, ref, want_consumed = ref_bond(ga, gb, (0, 1000), p_gate,
                                            np.random.default_rng(seed))
        assert (success, consumed) == (want, want_consumed)
        ref.assert_matches(g)
        outcomes.add(success)
    assert outcomes == {True, False}


# ---------------------------------- reference dense frames and fusion steps


def dense_graph_to_fock(g):
    """The graph state built from its definition, with every frame applied
    at once as one dense 2m x 2m ``apply_mode_unitary``."""
    verts = sorted(g.vertices)
    m = len(verts)
    terms = {}
    for bits in itertools.product((0, 1), repeat=m):
        flips = sum(bits[verts.index(a)] * bits[verts.index(b)]
                    for a, b in map(tuple, g.edges))
        occ = [0] * (2 * m)
        for k, b in enumerate(bits):
            occ[2 * k + b] = 1
        terms[tuple(occ)] = (-1.0) ** flips * 2.0 ** (-m / 2)
    u = np.eye(2 * m, dtype=complex)
    for k, v in enumerate(verts):
        u[2 * k:2 * k + 2, 2 * k:2 * k + 2] = g.frame(v)
    return apply_mode_unitary(FockState(2 * m, m, terms), u)


def ref_fusion(fusion_type, state, pair_a, pair_b, rng):
    """The fusion steps written out: swap, waveplates, the success weight
    from ``post_select``, then ``measure_modes``; returns (outcome,
    probability, success probability, conditional state, graph action)."""
    work = swap_modes(state, pair_a[0], pair_b[0])
    for pair in (pair_b,) if fusion_type == 1 else (pair_a, pair_b):
        work = apply_beamsplitter(work, pair[0], pair[1], math.pi / 4, 0.0)
    if fusion_type == 1:
        modes, patterns = pair_b, ((1, 0), (0, 1))
    else:
        modes = pair_a + pair_b
        patterns = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
    p_success = sum(post_select(work, modes, p)[0] for p in patterns)
    outcome, cond, prob = measure_modes(work, modes, rng)
    if fusion_type == 1 and outcome in patterns:
        action = {"kind": "merge", "z_on_survivor": outcome == (1, 0)}
    elif fusion_type == 1:
        action = {"kind": "separate",
                  "z_outcomes": (1, 0) if sum(outcome) == 0 else (0, 1)}
    elif outcome in patterns:
        action = {"kind": "merge_then_x",
                  "x_outcome": (outcome[0] + outcome[2]) % 2}
    else:
        action = {"kind": "separate",
                  "z_outcomes": (1, 0) if sum(outcome[:2]) == 2 else (0, 1)}
    return outcome, prob, p_success, cond, action


def test_graph_to_fock_matches_dense_frame_reference():
    rng = np.random.default_rng(SEED + 11)
    for n in range(1, 7):
        for _ in range(8):
            g = random_framed_graph(rng, n)
            got, want = graph_to_fock(g), dense_graph_to_fock(g)
            assert (got.n_modes, got.total_photons) == (2 * n, n)
            for occ in set(got.amplitudes) | set(want.amplitudes):
                assert abs(got.amplitude(occ) - want.amplitude(occ)) < 1e-12


def test_fusion_matches_reference_steps_on_framed_graphs():
    rng = np.random.default_rng(SEED + 12)
    runs = 0
    for n in range(2, 7):
        for trial in range(3):
            g = random_framed_graph(rng, n)
            state = graph_to_fock(g)
            for qa, qb in itertools.permutations(range(n), 2):
                pa, pb = (2 * qa, 2 * qa + 1), (2 * qb, 2 * qb + 1)
                for fusion_type, fuse in ((1, fusion_type_i),
                                          (2, fusion_type_ii)):
                    seed = (n, trial, qa, qb, fusion_type)
                    res = fuse(state, pa, pb, np.random.default_rng(seed))
                    outcome, prob, p_success, cond, action = ref_fusion(
                        fusion_type, state, pa, pb,
                        np.random.default_rng(seed))
                    assert res.outcome == outcome
                    assert res.graph_action == action
                    assert res.success == (action["kind"] != "separate")
                    assert abs(res.probability - prob) < 1e-12
                    assert abs(res.success_probability - p_success) < 1e-12
                    assert (res.state.n_modes, res.state.total_photons) \
                        == (cond.n_modes, cond.total_photons)
                    assert res.state.amplitudes == cond.amplitudes
                    runs += 1
    assert runs == 2 * sum(n * (n - 1) * 3 for n in range(2, 7))


def test_fusion_does_not_rebuild_the_state_for_ancillas(monkeypatch):
    def no_tensor(*args):
        raise AssertionError("a fusion has no ancilla to append")

    g, state = fused_input(*two_bell_pairs())
    monkeypatch.setattr(FockState, "tensor", no_tensor)
    for fuse in (fusion_type_i, fusion_type_ii):
        fuse(state, rails(g, 1), rails(g, 10), np.random.default_rng(0))
