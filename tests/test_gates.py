"""Tests for dual-rail encoding and the heralded sign-shift / CZ gates.

The sign-shift circuit is pinned two independent ways:

1. closed form — with mixing angles (pi/8, arccos(1-sqrt(2)), pi+pi/8) the
   conditional amplitude multipliers on the 0/1/2-photon components are
   lambda_0 = M[1,1], lambda_1 = M00 M11 + M01 M10,
   lambda_2 = M00^2 M11 + 2 M00 M01 M10 (matrix-permanent identities for the
   herald pattern), and these evaluate to exactly (1/2, 1/2, -1/2);
2. engine — evolving Fock states through the three splitters and
   post-selecting the herald must reproduce the same multipliers.
"""

import math

import numpy as np
import pytest

from loopqc import compiler, gates
from loopqc.cluster import pbs_matrix
from loopqc.compiler import VerificationError, compile_unitary
from loopqc.fock import (
    FockState,
    apply_beamsplitter,
    apply_mode_unitary,
    beamsplitter_matrix,
    haar_unitary,
)
from loopqc.gates import (
    GADGETS,
    GateError,
    HeraldedResult,
    NS_THETA_PRE,
    NS_THETA_MIX,
    NS_THETA_POST,
    cz_gate,
    cz_gadget_unitary,
    decode_dual_rail,
    dual_rail_ket,
    encode_dual_rail,
    klm_round,
    ns_gadget_unitary,
    ns_gate,
    single_qubit_gate,
)

SEED = 660901

# frozen circuit constants (independent copies; see module docstring)
THETA_PRE = math.pi / 8
THETA_MIX = math.acos(1.0 - math.sqrt(2.0))
THETA_POST = math.pi + math.pi / 8


def embed(n, modes, block):
    u = np.eye(n, dtype=complex)
    u[np.ix_(modes, modes)] = block
    return u


def sign_shift_matrix():
    b1 = embed(3, (1, 2), beamsplitter_matrix(THETA_PRE, 0.0))
    b2 = embed(3, (0, 1), beamsplitter_matrix(THETA_MIX, 0.0))
    b3 = embed(3, (1, 2), beamsplitter_matrix(THETA_POST, 0.0))
    return b3 @ b2 @ b1


# ------------------------------------------------------------ NS closed form


def test_ns_constants_are_frozen():
    assert NS_THETA_PRE == pytest.approx(THETA_PRE, abs=0)
    assert NS_THETA_MIX == pytest.approx(THETA_MIX, abs=0)
    assert NS_THETA_POST == pytest.approx(THETA_POST, abs=0)


def test_ns_multipliers_closed_form():
    m = sign_shift_matrix()
    lam0 = m[1, 1]
    lam1 = m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]
    lam2 = m[0, 0] ** 2 * m[1, 1] + 2 * m[0, 0] * m[0, 1] * m[1, 0]
    assert lam0 == pytest.approx(0.5, abs=1e-12)
    assert lam1 == pytest.approx(0.5, abs=1e-12)
    assert lam2 == pytest.approx(-0.5, abs=1e-12)
    assert ns_gadget_unitary() == pytest.approx(m, abs=1e-14)


def test_ns_engine_matches_closed_form():
    """Evolve (|0>+|1>+|2>)/sqrt(3) on the signal through the circuit.

    A spectator mode carries the photon-number complement so the state lives
    in one fixed total-photon sector.
    """
    r = 1 / math.sqrt(3)
    s = FockState(2, 2, {(0, 2): r, (1, 1): r, (2, 0): r})
    res = ns_gate(s, 0, postselect=True)
    assert isinstance(res, HeraldedResult)
    assert res.success
    assert res.probability == pytest.approx(0.25, abs=1e-12)
    assert res.state.amplitude((0, 2)) == pytest.approx(r, abs=1e-10)
    assert res.state.amplitude((1, 1)) == pytest.approx(r, abs=1e-10)
    assert res.state.amplitude((2, 0)) == pytest.approx(-r, abs=1e-10)


def test_heralded_results_report_outcome_and_success_weight():
    res = cz_gate(dual_rail_ket((1, 1)), (0, 1), (2, 3), postselect=True)
    assert res.success and res.outcome == (1, 0, 1, 0)
    assert res.success_probability == pytest.approx(1 / 16, abs=1e-12)
    # one success pattern, summed in the same order: the same float
    assert res.probability == res.success_probability
    r = 1 / math.sqrt(3)
    s = FockState(2, 2, {(0, 2): r, (1, 1): r, (2, 0): r})
    outcomes = set()
    for seed in range(40):
        res = ns_gate(s, 0, rng=np.random.default_rng(seed))
        assert res.success == (res.outcome == (1, 0))
        assert res.success_probability == pytest.approx(0.25, abs=1e-12)
        outcomes.add(res.outcome)
    assert (1, 0) in outcomes and len(outcomes) > 1


def test_ns_herald_probability_is_input_independent():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a /= np.linalg.norm(a)
        s = FockState(2, 2, {(0, 2): a[0], (1, 1): a[1], (2, 0): a[2]})
        res = ns_gate(s, 0, postselect=True)
        assert res.probability == pytest.approx(0.25, abs=1e-10)


def test_ns_sampling_is_seeded_and_statistical():
    r = 1 / math.sqrt(3)
    s = FockState(2, 2, {(0, 2): r, (1, 1): r, (2, 0): r})
    a = ns_gate(s, 0, rng=np.random.default_rng(5))
    b = ns_gate(s, 0, rng=np.random.default_rng(5))
    assert a.success == b.success and a.probability == b.probability

    rng = np.random.default_rng(SEED + 1)
    wins = sum(ns_gate(s, 0, rng=rng).success for _ in range(2000))
    assert abs(wins / 2000 - 0.25) < 4 * math.sqrt(0.25 * 0.75 / 2000)


def test_ns_requires_exactly_one_herald_mode_choice():
    s = FockState.from_occupation((1,))
    with pytest.raises(GateError):
        ns_gate(s, 0)  # neither rng nor postselect
    with pytest.raises(GateError):
        ns_gate(s, 0, rng=np.random.default_rng(0), postselect=True)


# ------------------------------------------------------------ dual-rail codec


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        s = encode_dual_rail(a, (0, 1))
        back = decode_dual_rail(s, (0, 1))
        fid = abs(np.conj(back) @ a)
        assert fid == pytest.approx(1.0, abs=1e-10)


def test_encode_into_context():
    ctx = FockState.from_occupation((1, 0, 0, 0))
    s = encode_dual_rail((0.6, 0.8), (2, 3), context=ctx)
    assert s.n_modes == 4
    assert s.amplitude((1, 0, 1, 0)) == pytest.approx(0.6)
    assert s.amplitude((1, 0, 0, 1)) == pytest.approx(0.8)
    with pytest.raises(GateError):
        encode_dual_rail((1.0, 0.0), (0, 1), context=ctx)  # mode 0 occupied


def test_decode_rejects_leakage_and_entanglement():
    bad = FockState(2, 2, {(2, 0): 1.0})
    with pytest.raises(GateError):
        decode_dual_rail(bad, (0, 1))
    # Bell state: either qubit alone is not a pure dual-rail qubit
    r = 1 / math.sqrt(2)
    bell = FockState(4, 2, {(1, 0, 1, 0): r, (0, 1, 0, 1): r})
    with pytest.raises(GateError):
        decode_dual_rail(bell, (0, 1))


def test_single_qubit_gate_identity_and_flip():
    op = single_qubit_gate(np.eye(2), (0, 1))
    assert op.theta == pytest.approx(0.0, abs=1e-12)
    op_x = single_qubit_gate(np.array([[0, 1], [1, 0]], dtype=complex), (0, 1))
    assert op_x.theta == pytest.approx(math.pi / 2, abs=1e-12)


def test_single_qubit_gate_random_unitaries():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(10):
        v = haar_unitary(2, rng)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        op = single_qubit_gate(v, (0, 1))
        s = encode_dual_rail(a, (0, 1))
        out = apply_mode_unitary(s, op.matrix2())
        back = decode_dual_rail(out, (0, 1))
        expect = v @ a
        assert abs(np.conj(back) @ expect) == pytest.approx(1.0, abs=1e-10)


def test_dual_rail_ket():
    s = dual_rail_ket((0, 1))
    assert s.amplitude((1, 0, 0, 1)) == pytest.approx(1.0)


# ---------------------------------------------------------------------- CZ


def logical_amplitudes(state):
    """Read the 2-qubit dual-rail amplitudes off a 4-mode state."""
    occs = {(0, 0): (1, 0, 1, 0), (0, 1): (1, 0, 0, 1),
            (1, 0): (0, 1, 1, 0), (1, 1): (0, 1, 0, 1)}
    return {bits: state.amplitude(occ) for bits, occ in occs.items()}


def test_cz_truth_table():
    for bits, sign in [((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), -1)]:
        s = dual_rail_ket(bits)
        res = cz_gate(s, (0, 1), (2, 3), postselect=True)
        assert res.probability == pytest.approx(1 / 16, abs=1e-10), bits
        amps = logical_amplitudes(res.state)
        assert amps[bits] == pytest.approx(sign, abs=1e-10), bits
        leak = sum(abs(a) for b, a in amps.items() if b != bits)
        assert leak < 1e-10, bits


def test_cz_on_plus_plus_gives_cluster_state():
    r = 1 / math.sqrt(2)
    s = encode_dual_rail((r, r), (0, 1))
    s = encode_dual_rail((r, r), (2, 3), context=s)
    res = cz_gate(s, (0, 1), (2, 3), postselect=True)
    assert res.probability == pytest.approx(1 / 16, abs=1e-10)
    amps = logical_amplitudes(res.state)
    for bits, want in [((0, 0), 0.5), ((0, 1), 0.5), ((1, 0), 0.5),
                       ((1, 1), -0.5)]:
        assert amps[bits] == pytest.approx(want, abs=1e-10)


def test_cz_rejects_rails_that_are_not_two_pairs():
    s = dual_rail_ket((1, 1))
    for pair_a, pair_b in [((0, 1, 2), (3,)), ((0,), (1, 2, 3)),
                           ((0, 1), (2, 3, 3)), ((0, 1), (1, 2)),
                           ((0, 1), (2, 4))]:
        with pytest.raises(GateError):
            cz_gate(s, pair_a, pair_b, postselect=True)


def test_cz_sampled_heralds():
    s = dual_rail_ket((1, 1))
    rng = np.random.default_rng(SEED + 4)
    wins = sum(cz_gate(s, (0, 1), (2, 3), rng=rng).success
               for _ in range(3000))
    assert abs(wins / 3000 - 1 / 16) < 4 * math.sqrt((1 / 16) * (15 / 16) / 3000)


# ---------------------------------------------------------------- klm round


def test_klm_round_identity():
    logical = FockState.from_occupation((1, 0))
    final, outcome = klm_round(logical, (1,), np.eye(3, dtype=complex),
                               rng=np.random.default_rng(0))
    assert outcome == (1,)
    assert final.amplitude((1, 0)) == pytest.approx(1.0, abs=1e-10)


def test_klm_round_reports_outcome_to_controller():
    seen = []
    logical = FockState.from_occupation((0, 1))
    klm_round(logical, (1, 0), np.eye(4, dtype=complex),
              controller=seen.append, rng=np.random.default_rng(1))
    assert seen == [(1, 0)]


def test_klm_round_cz_matches_direct_gate():
    """Running the CZ gadget on the machine equals the direct Fock route."""
    r = 1 / math.sqrt(2)
    s = encode_dual_rail((r, r), (0, 1))
    s = encode_dual_rail((r, r), (2, 3), context=s)
    direct = cz_gate(s, (0, 1), (2, 3), postselect=True)

    u = cz_gadget_unitary()
    herald = (1, 0, 1, 0)
    for seed in range(200):
        final, outcome = klm_round(s, (1, 0, 1, 0), u,
                                   rng=np.random.default_rng(seed))
        if outcome == herald:
            fid = abs(final.overlap(direct.state))
            assert fid > 1 - 1e-9
            return
    raise AssertionError("herald never matched in 200 seeded attempts")


def test_klm_round_herald_statistics():
    s = dual_rail_ket((1, 1))
    u = cz_gadget_unitary()
    herald = (1, 0, 1, 0)
    hits = 0
    n = 300
    rng = np.random.default_rng(SEED + 5)
    for _ in range(n):
        _, outcome = klm_round(s, (1, 0, 1, 0), u, rng=rng)
        hits += outcome == herald
    p = 1 / 16
    assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_gadget_library_circuits_are_faithful():
    from loopqc.gates import gadget_library
    lib = gadget_library()
    assert lib["kind"] == "gadget-library"
    assert set(lib["gadgets"]) == {"ns", "cz", "fusion1", "fusion2"}

    def build(entry, n):
        u = np.eye(n, dtype=complex)
        for bs in entry["beamsplitters"]:
            u = embed(n, tuple(bs["modes"]),
                      beamsplitter_matrix(bs["theta"], bs["phi"])) @ u
        return u

    assert build(lib["gadgets"]["ns"], 3) == pytest.approx(
        ns_gadget_unitary(), abs=1e-12)
    assert build(lib["gadgets"]["cz"], 8) == pytest.approx(
        cz_gadget_unitary(), abs=1e-12)

    # each fusion circuit, rebuilt from its table entry: the bin-sorting
    # swap, then 45-degree waveplates on the pairs that are detected
    waveplate = beamsplitter_matrix(math.pi / 4, 0.0)
    rotated = {"fusion1": [(2, 3)], "fusion2": [(0, 1), (2, 3)]}
    for name, pairs in rotated.items():
        entry = GADGETS[name]
        assert entry.detected == sum(pairs, ()) and entry.ancilla == ()
        i, j = entry.swap
        u = np.eye(4, dtype=complex)
        u[[i, j]] = u[[j, i]]
        for i, j, theta in entry.splitters:
            u = embed(4, (i, j), beamsplitter_matrix(theta, 0.0)) @ u
        want = pbs_matrix()
        for pair in pairs:
            want = embed(4, pair, waveplate) @ want
        assert u == pytest.approx(want, abs=1e-15)
        assert lib["gadgets"][name]["success_patterns"] == [
            list(p) for p in entry.patterns]
        assert lib["gadgets"][name]["bell_pair_success_probability"] == 0.5



# ------------------------------------------------------- compiled schedules


@pytest.fixture
def compile_calls(monkeypatch):
    """Empty the schedule cache; list the bin count of each compile that
    klm_round makes."""
    calls = []

    def counting(u, config=None, **kwargs):
        calls.append(config.n_bins)
        return compile_unitary(u, config, **kwargs)

    gates._compiled_schedule.cache_clear()
    monkeypatch.setattr(gates, "compile_unitary", counting)
    yield calls
    gates._compiled_schedule.cache_clear()


def test_klm_round_compiles_each_unitary_once(compile_calls):
    u = cz_gadget_unitary()
    s = dual_rail_ket((1, 1))
    for seed in range(5):
        klm_round(s, (1, 0, 1, 0), u, rng=np.random.default_rng(seed))
    klm_round(s, (1, 0, 1, 0), u.copy(), rng=np.random.default_rng(0))
    assert compile_calls == [8]
    # the logical/ancilla split only shapes the round, not the schedule
    eye = np.eye(3, dtype=complex)
    klm_round(FockState.from_occupation((1, 0)), (1,), eye,
              rng=np.random.default_rng(0))
    klm_round(FockState.from_occupation((1,)), (0, 1), eye,
              rng=np.random.default_rng(0))
    assert compile_calls == [8, 3]


def test_klm_round_cache_misses_on_other_unitary_or_size(compile_calls):
    rng = np.random.default_rng(SEED + 6)
    logical = FockState.from_occupation((1, 0))
    klm_round(logical, (1,), np.eye(3, dtype=complex), rng=rng)
    klm_round(logical, (1,), haar_unitary(3, rng), rng=rng)
    klm_round(logical, (1, 0), np.eye(4, dtype=complex), rng=rng)
    klm_round(logical, (1,), np.eye(3, dtype=complex), rng=rng)
    assert compile_calls == [3, 3, 4]


def test_klm_round_sees_caller_mutating_its_unitary(compile_calls):
    u = np.eye(3, dtype=complex)
    logical = FockState.from_occupation((1, 0))
    final, outcome = klm_round(logical, (0,), u, rng=np.random.default_rng(0))
    assert outcome == (0,)
    assert final.amplitude((1, 0)) == pytest.approx(1.0, abs=1e-12)
    u[:] = u[[2, 1, 0]]  # now swaps the logical photon into the ancilla bin
    final, outcome = klm_round(logical, (0,), u, rng=np.random.default_rng(0))
    assert outcome == (1,)
    assert final.amplitude((0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert compile_calls == [3, 3]


def test_klm_round_does_not_cache_verification_failures(compile_calls,
                                                        monkeypatch):
    verify = compiler.verify_schedule
    failing = [True]
    monkeypatch.setattr(
        compiler, "verify_schedule",
        lambda schedule, u: 1.0 if failing[0] else verify(schedule, u))
    logical = FockState.from_occupation((1, 0))
    for _ in range(2):
        with pytest.raises(VerificationError):
            klm_round(logical, (1,), np.eye(3), rng=np.random.default_rng(0))
    failing[0] = False
    _, outcome = klm_round(logical, (1,), np.eye(3),
                           rng=np.random.default_rng(0))
    assert outcome == (1,)
    assert compile_calls == [3, 3, 3]


def test_cached_klm_rounds_match_fresh_compiles():
    """40 seeded NS and CZ rounds each: a warm cache gives bit-identical
    outcomes and amplitudes to a compile made afresh for every round."""
    ns = embed(4, (0, 2, 3), ns_gadget_unitary())
    cases = [(ns, (1, 0), ((2, 0), (1, 1), (0, 2))),
             (cz_gadget_unitary(), (1, 0, 1, 0),
              ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))]
    rng = np.random.default_rng(SEED + 7)
    rounds = []
    for u, ancilla, basis in cases:
        for i in range(40):
            amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(
                len(basis))
            amps /= np.linalg.norm(amps)
            rounds.append((FockState(len(basis[0]), 2, dict(zip(basis, amps))),
                           ancilla, u, SEED + i))

    def run(logical, ancilla, u, seed):
        final, outcome = klm_round(logical, ancilla, u,
                                   rng=np.random.default_rng(seed))
        return outcome, final.amplitudes

    warm = [run(*r) for r in rounds]
    fresh = []
    for r in rounds:
        gates._compiled_schedule.cache_clear()
        fresh.append(run(*r))
    assert warm == fresh
    outcomes = [outcome for outcome, _ in warm]
    assert (1, 0) in outcomes[:40] and len(set(outcomes[40:])) > 4
