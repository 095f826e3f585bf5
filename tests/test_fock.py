"""Tests for the sparse Fock-state engine.

Expected values below are either worked out by hand from the beamsplitter
convention (see fock.py module docstring) or checked against a brute-force
permutation-sum permanent, independent of the implementation under test.
"""

import itertools
import json
import math

import numpy as np
import pytest

from loopqc.fock import (
    FockError,
    FockState,
    ModeUnitary,
    apply_beamsplitter,
    apply_mode_unitary,
    apply_phases,
    beamsplitter_matrix,
    haar_unitary,
    measure_modes,
    outcome_distribution,
    output_probability,
    permanent,
    phase_free_distance,
    post_select,
    state_from_json,
    state_to_json,
    swap_modes,
    transition_amplitude,
    unitary_from_json,
    unitary_to_json,
)

SEED = 20240917


def slow_permanent(m):
    """Permutation-sum permanent, O(n!). Oracle for the fast routine."""
    m = np.asarray(m)
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for row, col in enumerate(perm):
            prod *= m[row, col]
        total += prod
    return total


# ---------------------------------------------------------------- states


def test_basis_state_roundtrip():
    s = FockState.from_occupation((1, 0, 2))
    assert s.n_modes == 3
    assert s.total_photons == 3
    assert s.amplitude((1, 0, 2)) == pytest.approx(1.0)
    assert s.amplitude((0, 1, 2)) == 0.0


def test_state_validation_errors():
    with pytest.raises(FockError):
        FockState(2, 1, {(1, 0, 0): 1.0})  # wrong tuple length
    with pytest.raises(FockError):
        FockState(2, 1, {(2, 0): 1.0})  # photon sum mismatch
    with pytest.raises(FockError):
        FockState(2, 1, {(-1, 2): 1.0})  # negative occupation
    with pytest.raises(FockError):
        FockState(2, 1, {(1, 0): 0.5})  # not normalized
    # sub-normalized is fine when declared
    FockState(2, 1, {(1, 0): 0.5}, normalized=False)


def test_zero_mode_state_is_allowed():
    s = FockState(0, 0, {(): 1.0})
    assert s.n_modes == 0
    assert s.norm_squared() == pytest.approx(1.0)


def test_tensor_product_multiplies_amplitudes():
    a = FockState(1, 1, {(1,): 1.0})
    b = FockState(2, 1, {(0, 1): 1j})
    ab = a.tensor(b)
    assert ab.n_modes == 3
    assert ab.amplitude((1, 0, 1)) == pytest.approx(1j)


def test_overlap_and_fidelity():
    plus = FockState(2, 1, {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)})
    minus = FockState(2, 1, {(1, 0): 1 / math.sqrt(2), (0, 1): -1 / math.sqrt(2)})
    assert abs(plus.overlap(minus)) < 1e-12
    assert abs(plus.overlap(plus) - 1.0) < 1e-12


def test_swap_modes_relabels_occupations():
    s = FockState(3, 2, {(2, 0, 0): 0.6, (0, 1, 1): 0.8})
    t = swap_modes(s, 0, 2)
    assert t.amplitude((0, 0, 2)) == pytest.approx(0.6)
    assert t.amplitude((1, 1, 0)) == pytest.approx(0.8)


# ---------------------------------------------------------------- convention

# The beamsplitter sends a photon in mode i to
#   cos(theta) |i> + e^{i phi} sin(theta) |j>
# and a photon in mode j to
#   -e^{-i phi} sin(theta) |i> + cos(theta) |j>.


def test_single_photon_beamsplitter_convention():
    theta, phi = 0.3, 0.7
    s = FockState.from_occupation((1, 0))
    out = apply_beamsplitter(s, 0, 1, theta, phi)
    assert out.amplitude((1, 0)) == pytest.approx(math.cos(theta), abs=1e-12)
    expected = complex(math.cos(phi), math.sin(phi)) * math.sin(theta)
    assert out.amplitude((0, 1)) == pytest.approx(expected, abs=1e-12)

    s2 = FockState.from_occupation((0, 1))
    out2 = apply_beamsplitter(s2, 0, 1, theta, phi)
    expected10 = -complex(math.cos(phi), -math.sin(phi)) * math.sin(theta)
    assert out2.amplitude((1, 0)) == pytest.approx(expected10, abs=1e-12)
    assert out2.amplitude((0, 1)) == pytest.approx(math.cos(theta), abs=1e-12)


def test_beamsplitter_matrix_matches_convention():
    theta, phi = 1.1, -0.4
    b = beamsplitter_matrix(theta, phi)
    # column 0 is the image of mode i, column 1 the image of mode j
    assert b[0, 0] == pytest.approx(math.cos(theta))
    assert b[1, 0] == pytest.approx(np.exp(1j * phi) * math.sin(theta))
    assert b[0, 1] == pytest.approx(-np.exp(-1j * phi) * math.sin(theta))
    assert b[1, 1] == pytest.approx(math.cos(theta))


def test_hong_ou_mandel_bunching():
    """50:50 splitter on |1,1> leaves no coincidence term: (-|2,0>+|0,2>)/sqrt(2)."""
    s = FockState.from_occupation((1, 1))
    out = apply_beamsplitter(s, 0, 1, math.pi / 4, 0.0)
    r = 1 / math.sqrt(2)
    assert out.amplitude((2, 0)) == pytest.approx(-r, abs=1e-12)
    assert out.amplitude((0, 2)) == pytest.approx(r, abs=1e-12)
    assert abs(out.amplitude((1, 1))) < 1e-12
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_inverse_is_negated_angle():
    rng = np.random.default_rng(SEED)
    s = random_state(3, 2, rng)
    theta, phi = 0.9, 2.3
    fwd = apply_beamsplitter(s, 0, 2, theta, phi)
    back = apply_beamsplitter(fwd, 0, 2, -theta, phi)
    assert state_max_diff(back, s) < 1e-12


# ---------------------------------------------------------------- evolution


def random_state(n_modes, n_photons, rng, n_terms=4):
    n_terms = min(n_terms, math.comb(n_photons + n_modes - 1, n_modes - 1))
    occs = set()
    while len(occs) < n_terms:
        bars = sorted(rng.integers(0, n_photons + 1, size=n_modes - 1))
        occ = np.diff([0] + list(bars) + [n_photons])
        occs.add(tuple(int(x) for x in occ))
    amps = rng.standard_normal(len(occs)) + 1j * rng.standard_normal(len(occs))
    amps /= np.linalg.norm(amps)
    return FockState(n_modes, n_photons, dict(zip(sorted(occs), amps)))


def state_max_diff(a, b):
    keys = set(a.amplitudes) | set(b.amplitudes)
    return max(abs(a.amplitude(k) - b.amplitude(k)) for k in keys)


def test_apply_mode_unitary_preserves_norm():
    rng = np.random.default_rng(SEED)
    for n, k in [(2, 2), (3, 3), (4, 2)]:
        s = random_state(n, k, rng)
        u = haar_unitary(n, rng)
        out = apply_mode_unitary(s, u)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_apply_mode_unitary_composition_order():
    """Applying V then U equals applying the single matrix U @ V."""
    rng = np.random.default_rng(SEED + 1)
    s = random_state(3, 2, rng)
    u = haar_unitary(3, rng)
    v = haar_unitary(3, rng)
    step = apply_mode_unitary(apply_mode_unitary(s, v), u)
    combined = apply_mode_unitary(s, u @ v)
    assert state_max_diff(step, combined) < 1e-12


def test_beamsplitter_agrees_with_embedded_unitary():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(5):
        n = 4
        s = random_state(n, 3, rng)
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        i, j = 1, 3
        direct = apply_beamsplitter(s, i, j, theta, phi)
        u = np.eye(n, dtype=complex)
        b = beamsplitter_matrix(theta, phi)
        u[np.ix_([i, j], [i, j])] = b
        via_unitary = apply_mode_unitary(s, u)
        assert state_max_diff(direct, via_unitary) < 1e-12


def test_apply_phases_multiplies_per_photon():
    s = FockState.from_occupation((1, 2))
    out = apply_phases(s, (0.3, 0.5))
    expected = np.exp(1j * (0.3 + 2 * 0.5))
    assert out.amplitude((1, 2)) == pytest.approx(expected, abs=1e-12)


def test_mode_unitary_rejects_non_unitary():
    with pytest.raises(FockError):
        ModeUnitary(np.array([[1.0, 0.0], [1.0, 1.0]]))


# ---------------------------------------------------------------- permanent


def test_permanent_hand_values():
    assert permanent(np.zeros((0, 0))) == pytest.approx(1.0)
    assert permanent(np.array([[7.0]])) == pytest.approx(7.0)
    assert permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(10.0)
    assert permanent(np.ones((3, 3))) == pytest.approx(6.0)


def test_permanent_matches_bruteforce():
    rng = np.random.default_rng(SEED + 3)
    for n in range(1, 5):
        for _ in range(3):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert permanent(m) == pytest.approx(slow_permanent(m), abs=1e-9)


def test_permanent_rejects_oversized():
    with pytest.raises(FockError):
        permanent(np.eye(21))


def test_output_probability_hong_ou_mandel():
    u = beamsplitter_matrix(math.pi / 4, 0.0)
    assert output_probability(u, (1, 1), (2, 0)) == pytest.approx(0.5, abs=1e-12)
    assert output_probability(u, (1, 1), (0, 2)) == pytest.approx(0.5, abs=1e-12)
    assert output_probability(u, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-12)


def test_output_probability_matches_evolution():
    """Permanent route and explicit evolution must give the same statistics."""
    rng = np.random.default_rng(SEED + 4)
    for n, photons in [(3, 2), (4, 3)]:
        u = haar_unitary(n, rng)
        occ = [0] * n
        for p in range(photons):
            occ[p % n] += 1
        occ = tuple(occ)
        evolved = apply_mode_unitary(FockState.from_occupation(occ), u)
        total = 0.0
        for out_occ, amp in evolved.items():
            p_perm = output_probability(u, occ, out_occ)
            assert p_perm == pytest.approx(abs(amp) ** 2, abs=1e-10)
            total += p_perm
        assert total == pytest.approx(1.0, abs=1e-9)


def test_output_probability_photon_mismatch():
    u = np.eye(2, dtype=complex)
    with pytest.raises(FockError):
        output_probability(u, (1, 0), (1, 1))


def test_transition_amplitude_matches_evolution():
    """Permanent amplitudes equal the evolved amplitudes, phase included."""
    rng = np.random.default_rng(SEED + 5)
    for n, occ in [(3, (1, 1, 0)), (3, (2, 0, 1)), (4, (1, 0, 2, 0))]:
        u = haar_unitary(n, rng)
        evolved = apply_mode_unitary(FockState.from_occupation(occ), u)
        for out_occ, amp in evolved.items():
            got = transition_amplitude(u, occ, out_occ)
            assert abs(got - amp) < 1e-10, (occ, out_occ)
    assert transition_amplitude(u, (1, 0, 0, 0), (1, 1, 0, 0)) == 0j


# ---------------------------------------------------------------- measurement


def test_post_select_hong_ou_mandel():
    s = FockState.from_occupation((1, 1))
    out = apply_beamsplitter(s, 0, 1, math.pi / 4, 0.0)
    prob, cond = post_select(out, (0,), (0,))
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert cond.n_modes == 1
    assert cond.amplitude((2,)) == pytest.approx(1.0, abs=1e-12)

    prob1, _ = post_select(out, (0,), (1,))
    assert prob1 == pytest.approx(0.0, abs=1e-12)


def test_post_select_all_modes_leaves_scalar():
    s = FockState(2, 1, {(1, 0): 0.6, (0, 1): 0.8})
    prob, cond = post_select(s, (0, 1), (0, 1))
    assert prob == pytest.approx(0.64)
    assert cond.n_modes == 0
    assert abs(cond.amplitude(())) == pytest.approx(1.0)


def test_measure_modes_is_seed_deterministic():
    s = FockState(2, 1, {(1, 0): 0.6, (0, 1): 0.8})
    out1 = measure_modes(s, (0, 1), np.random.default_rng(123))
    out2 = measure_modes(s, (0, 1), np.random.default_rng(123))
    assert out1[0] == out2[0]


def test_measure_modes_draw_ignores_term_order():
    """The draw walks the patterns sorted, so the same state with its terms
    inserted in another order gives the same outcome for the same seed."""
    rng = np.random.default_rng(SEED + 7)
    s = apply_mode_unitary(FockState.from_occupation((1, 1, 0)),
                           haar_unitary(3, rng))
    items = list(s.items())
    flipped = FockState(3, 2, dict(reversed(items)))
    assert list(flipped.amplitudes) != list(s.amplitudes)
    for k in range(50):
        assert measure_modes(s, (0, 2), np.random.default_rng(k))[0] == \
            measure_modes(flipped, (0, 2), np.random.default_rng(k))[0]


def test_measure_modes_statistics():
    s = FockState(2, 1, {(1, 0): 0.6, (0, 1): 0.8})
    rng = np.random.default_rng(SEED + 5)
    n_shots = 20000
    hits = 0
    for _ in range(n_shots):
        outcome, cond, prob = measure_modes(s, (0,), rng)
        if outcome == (1,):
            hits += 1
            assert prob == pytest.approx(0.36)
            assert cond.amplitude((0,)) == pytest.approx(1.0)
    # binomial: mean 0.36, sigma ~ 0.0034 for 20k shots; allow 4 sigma
    assert abs(hits / n_shots - 0.36) < 4 * math.sqrt(0.36 * 0.64 / n_shots)


def test_outcome_distribution_matches_post_select():
    rng = np.random.default_rng(SEED + 6)
    s = apply_mode_unitary(FockState.from_occupation((1, 1, 1, 0)),
                           haar_unitary(4, rng))
    for modes in ((0,), (1, 3), (3, 0, 2)):
        probs = outcome_distribution(s, modes)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        for pattern, prob in probs.items():
            # summed in the same order, so the same float
            assert post_select(s, modes, pattern)[0] == prob
        # every draw is a pattern of the distribution
        drawn = {measure_modes(s, modes, np.random.default_rng(k))[0]
                 for k in range(400)}
        assert drawn <= set(probs)


# ---------------------------------------------------------------- utilities


def test_haar_unitary_is_unitary_and_seeded():
    u1 = haar_unitary(5, np.random.default_rng(42))
    u2 = haar_unitary(5, np.random.default_rng(42))
    assert np.allclose(u1, u2)
    assert np.allclose(u1 @ u1.conj().T, np.eye(5), atol=1e-12)


def test_phase_free_distance():
    rng = np.random.default_rng(SEED + 6)
    u = haar_unitary(4, rng)
    assert phase_free_distance(np.exp(0.7j) * u, u) < 1e-12
    v = haar_unitary(4, rng)
    assert phase_free_distance(u, v) > 1e-3


# ---------------------------------------------------------------- serialization


def test_state_json_roundtrip():
    s = FockState(3, 2, {(1, 1, 0): 0.6, (0, 0, 2): 0.8j})
    text = state_to_json(s)
    doc = json.loads(text)
    assert doc["kind"] == "fock-state"
    assert doc["format_version"] == "1.0"
    back = state_from_json(text)
    assert back.n_modes == 3
    assert back.total_photons == 2
    assert state_max_diff(back, s) < 1e-15


def test_state_json_is_byte_stable():
    s = FockState(3, 2, {(1, 1, 0): 0.6, (0, 0, 2): 0.8j})
    assert state_to_json(s) == state_to_json(s)


def test_unitary_json_roundtrip():
    u = haar_unitary(3, np.random.default_rng(7))
    back = unitary_from_json(unitary_to_json(u))
    assert np.allclose(back, u, atol=1e-15)


def test_json_version_rejection():
    documents = [
        (state_to_json(FockState.from_occupation((1,))), state_from_json),
        (unitary_to_json(np.eye(2)), unitary_from_json),
    ]
    for text, reader in documents:
        doc = json.loads(text)
        doc["format_version"] = "2.0"
        with pytest.raises(FockError):
            reader(json.dumps(doc))
        doc["format_version"] = "1.0"
        doc["kind"] = "something-else"
        with pytest.raises(FockError):
            reader(json.dumps(doc))


GOOD_STATE = state_to_json(FockState(2, 1, {(1, 0): 0.6, (0, 1): 0.8j}))


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("terms"),
    lambda d: d.update(terms={"0": {}}),
    lambda d: d.update(terms=[[[1, 0], 0.6, 0.0]]),
    lambda d: d["terms"][0].pop("occ"),
    lambda d: d["terms"][0].pop("re"),
    lambda d: d["terms"][1].pop("im"),
    lambda d: d["terms"][0].update(occ=["1", 0]),
    lambda d: d["terms"][0].update(occ=[True, 0]),
    lambda d: d["terms"][0].update(re="0.6"),
    lambda d: d["terms"][0].update(im=None),
    lambda d: d["terms"][0].update(re=float("nan")),
    lambda d: d["terms"][1].update(im=10 ** 400),
    lambda d: d.pop("n_modes"),
    lambda d: d.update(n_modes="2"),
    lambda d: d.update(total_photons=1.0),
    lambda d: d.update(normalized="yes"),
], ids=["missing-terms", "terms-object", "term-list", "missing-occ",
        "missing-re", "missing-im", "string-occ", "bool-occ", "string-re",
        "null-im", "nan-re", "huge-im", "missing-n-modes", "string-n-modes",
        "float-photons", "string-normalized"])
def test_state_json_rejects_malformed_documents(edit):
    doc = json.loads(GOOD_STATE)
    edit(doc)
    with pytest.raises(FockError):
        state_from_json(json.dumps(doc))


GOOD_UNITARY = unitary_to_json(np.eye(2))


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("dim"),
    lambda d: d.update(dim="2"),
    lambda d: d.update(dim=3),
    lambda d: d.pop("re"),
    lambda d: d.pop("im"),
    lambda d: d.update(re=[[1.0, 0.0], [0.0]]),
    lambda d: d.update(re=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
    lambda d: d.update(re=[[1.0, "0"], [0.0, 1.0]]),
    lambda d: d.update(im=[[False, 0.0], [0.0, 0.0]]),
    lambda d: d.update(im=[[float("inf"), 0.0], [0.0, 0.0]]),
    lambda d: d.update(re="eye"),
], ids=["missing-dim", "string-dim", "wrong-dim", "missing-re", "missing-im",
        "ragged", "extra-row", "string-entry", "bool-entry", "inf-entry",
        "string-matrix"])
def test_unitary_json_rejects_malformed_documents(edit):
    doc = json.loads(GOOD_UNITARY)
    edit(doc)
    with pytest.raises(FockError):
        unitary_from_json(json.dumps(doc))


def test_fock_json_rejects_non_object_documents():
    for reader in (state_from_json, unitary_from_json):
        with pytest.raises(FockError):
            reader("[]")
