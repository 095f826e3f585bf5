"""Dual-rail qubits and heralded nonlinear gates.

A qubit lives in two time bins: a photon in the first bin is logical 0, in
the second logical 1.  All single-qubit rotations are passive two-mode
operations (``single_qubit_gate`` turns a 2x2 unitary into a ``PairwiseOp``
the compiler can schedule).  Entangling operations need measurement: the
heralded sign shift (NS) flips the phase of the two-photon component of one
mode using one ancilla photon, one ancilla vacuum mode, and a detector
pattern, and two of them sandwiched between 50:50 splitters make a CZ.

The sign-shift circuit is the standard three-splitter one.  With mixing
angles (pi/8, arccos(1 - sqrt 2), pi + pi/8) the herald (one photon in the
first ancilla, none in the second) multiplies the n-photon component of the
signal by lambda_n = (1/2, 1/2, -1/2), so success carries probability 1/4
independent of the input.  ``klm_round`` runs any such gadget on the loop
machine: load the logical train, inject ancilla bins, stream the compiled
passes, and divert the ancillas to detectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .compiler import PairwiseOp, compile_unitary
from .fock import (
    FockState,
    apply_beamsplitter,
    beamsplitter_matrix,
    embed,
    header,
    is_unitary,
    measure_modes,
    post_select,
)
from .loop import LoopConfig, LoopSchedule, Machine, RoundPlan, run_schedule

NS_THETA_PRE = math.pi / 8
NS_THETA_MIX = math.acos(1.0 - math.sqrt(2.0))
NS_THETA_POST = math.pi + math.pi / 8


class GateError(ValueError):
    """Raised for invalid gate arguments or undecodable states."""


@dataclass(frozen=True)
class HeraldedResult:
    """Outcome of a heralded gate.

    ``state`` is the conditional state on the surviving modes given the
    detector outcome that actually occurred (the heralded one when
    ``postselect`` was used), renormalized.  ``probability`` is that
    outcome's probability.
    """

    success: bool
    probability: float
    state: FockState


@dataclass(frozen=True)
class Gadget:
    """A heralded circuit.

    ``modes`` names the signal modes, then one ancilla mode per entry of
    ``ancilla``, the occupation injected there.  ``splitters`` lists
    (i, j, theta) beamsplitters with phi = 0, in the order they act.  The
    herald is the ``ancilla`` occupation, detected again on the trailing
    modes.
    """

    modes: tuple
    ancilla: tuple
    splitters: tuple
    success_probability: float


def _relabel(splitters, modes) -> tuple:
    return tuple((modes[i], modes[j], theta) for i, j, theta in splitters)


GADGETS = {
    "ns": Gadget(("signal", "ancilla_photon", "ancilla_vacuum"), (1, 0),
                 ((1, 2, NS_THETA_PRE), (0, 1, NS_THETA_MIX),
                  (1, 2, NS_THETA_POST)), 0.25),
}
# one sign shift on each qubit's second rail, between balanced splitters of
# those two rails
GADGETS["cz"] = Gadget(
    ("a0", "a1", "b0", "b1", "m1", "m2", "m3", "m4"), (1, 0, 1, 0),
    ((1, 3, math.pi / 4),) + _relabel(GADGETS["ns"].splitters, (1, 4, 5))
    + _relabel(GADGETS["ns"].splitters, (3, 6, 7)) + ((1, 3, -math.pi / 4),),
    0.0625)


def _gadget_unitary(gadget: Gadget) -> np.ndarray:
    """Transfer matrix B_K ... B_1 of the splitters B_1, ..., B_K."""
    n = len(gadget.modes)
    u = np.eye(n, dtype=complex)
    for i, j, theta in reversed(gadget.splitters):
        u = u @ embed(n, (i, j), beamsplitter_matrix(theta, 0.0))
    return u


def ns_gadget_unitary() -> np.ndarray:
    """3x3 transfer matrix of the sign-shift circuit.

    Mode order: (signal, ancilla photon, ancilla vacuum).
    """
    return _gadget_unitary(GADGETS["ns"])


def cz_gadget_unitary() -> np.ndarray:
    """8x8 transfer matrix of the heralded CZ.

    Mode order: (a0, a1, b0, b1, m1, m2, m3, m4) -- two dual-rail qubits
    followed by the two sign-shift ancilla pairs (m1, m2) on rail a1 and
    (m3, m4) on rail b1.  Herald pattern: (1, 0, 1, 0) on the last four.
    """
    return _gadget_unitary(GADGETS["cz"])


def _run_gadget(gadget: Gadget, state: FockState, signal_modes, rng,
                postselect) -> HeraldedResult:
    """Run ``gadget`` with its signal modes on ``signal_modes`` of ``state``.

    The ancilla modes are appended to the state and measured away again.
    """
    if postselect and rng is not None:
        raise GateError("pass either rng or postselect=True, not both")
    if not postselect and rng is None:
        raise GateError("sampling a herald requires an rng "
                        "(or pass postselect=True)")
    n = state.n_modes
    herald = tuple(range(n, n + len(gadget.ancilla)))
    modes = tuple(signal_modes) + herald
    work = state.tensor(FockState.from_occupation(gadget.ancilla))
    for i, j, theta in gadget.splitters:
        work = apply_beamsplitter(work, modes[i], modes[j], theta, 0.0)
    if postselect:
        prob, cond = post_select(work, herald, gadget.ancilla)
        return HeraldedResult(prob > 0.0, prob, cond)
    outcome, cond, prob = measure_modes(work, herald, rng)
    return HeraldedResult(tuple(outcome) == gadget.ancilla, prob, cond)


def ns_gate(state: FockState, target: int, rng=None,
            postselect: bool = False) -> HeraldedResult:
    """Apply the heralded sign shift to one mode of ``state``.

    Appends the two ancilla modes internally and strips them again; the
    returned state has the same mode count as the input.
    """
    if not 0 <= target < state.n_modes:
        raise GateError(f"target mode {target} out of range")
    return _run_gadget(GADGETS["ns"], state, (target,), rng, postselect)


def cz_gate(state: FockState, pair_a, pair_b, rng=None,
            postselect: bool = False) -> HeraldedResult:
    """Heralded CZ between two dual-rail qubits of ``state``.

    ``pair_a`` and ``pair_b`` are (bin0, bin1) mode pairs.  Four ancilla
    modes are appended internally; herald pattern (1, 0, 1, 0).  Success
    probability is 1/16 for any two-qubit input.
    """
    modes = tuple(pair_a) + tuple(pair_b)
    if len(set(modes)) != 4 or not all(0 <= m < state.n_modes for m in modes):
        raise GateError(f"qubit rails {modes} must be four distinct modes")
    return _run_gadget(GADGETS["cz"], state, modes, rng, postselect)


# --------------------------------------------------------------------------
# dual-rail codec
# --------------------------------------------------------------------------


def encode_dual_rail(amplitudes, pair, context: FockState | None = None
                     ) -> FockState:
    """Write a qubit (a0, a1) into two vacuum modes.

    With no context a fresh state of ``max(pair) + 1`` modes is created;
    a shorter context is padded with vacuum bins up to ``max(pair) + 1``.
    The pair modes must be unoccupied in every component.
    """
    i, j = int(pair[0]), int(pair[1])
    if i == j or i < 0 or j < 0:
        raise GateError(f"rails ({i}, {j}) must be two distinct modes")
    a0, a1 = complex(amplitudes[0]), complex(amplitudes[1])
    if context is None:
        context = FockState.from_occupation((0,) * (max(i, j) + 1))
    elif max(i, j) >= context.n_modes:
        pad = max(i, j) + 1 - context.n_modes
        context = context.tensor(FockState.from_occupation((0,) * pad))
    terms = {}
    for occ, amp in context.items():
        if occ[i] != 0 or occ[j] != 0:
            raise GateError(f"target modes ({i}, {j}) are occupied")
        lst = list(occ)
        lst[i] = 1
        terms[tuple(lst)] = terms.get(tuple(lst), 0j) + amp * a0
        lst[i] = 0
        lst[j] = 1
        terms[tuple(lst)] = terms.get(tuple(lst), 0j) + amp * a1
    return FockState(context.n_modes, context.total_photons + 1, terms)


def decode_dual_rail(state: FockState, pair, tol: float = 1e-10) -> np.ndarray:
    """Recover (a0, a1) from a dual-rail pair, up to global phase.

    Errors if any component leaks out of the one-photon-per-pair subspace or
    if the pair is entangled with the remaining modes (weight above ``tol``).
    """
    i, j = int(pair[0]), int(pair[1])
    rest_vecs: dict = {}
    for occ, amp in state.items():
        rails = (occ[i], occ[j])
        if rails not in ((1, 0), (0, 1)):
            raise GateError(
                f"component {occ} leaks out of the dual-rail subspace on "
                f"modes ({i}, {j})")
        rest = tuple(x for k, x in enumerate(occ) if k not in (i, j))
        vec = rest_vecs.setdefault(rest, [0j, 0j])
        vec[0 if rails == (1, 0) else 1] += amp
    if not rest_vecs:
        raise GateError("empty state")
    best = max(rest_vecs.values(), key=lambda v: abs(v[0]) ** 2 + abs(v[1]) ** 2)
    alpha = np.array(best, dtype=complex)
    alpha /= np.linalg.norm(alpha)
    coherent = sum(abs(np.conj(alpha) @ np.array(v)) ** 2
                   for v in rest_vecs.values())
    total = sum(abs(v[0]) ** 2 + abs(v[1]) ** 2 for v in rest_vecs.values())
    if total - coherent > tol:
        raise GateError(
            f"rails ({i}, {j}) are entangled with the rest of the state "
            f"(residual weight {total - coherent:.3g})")
    return alpha


def dual_rail_ket(bits) -> FockState:
    """Computational-basis state |bits> with qubit q on modes (2q, 2q+1)."""
    occ = [0, 0] * len(bits)
    for q, b in enumerate(bits):
        occ[2 * q + (1 if b else 0)] = 1
    return FockState.from_occupation(tuple(occ))


def single_qubit_gate(v, pair) -> PairwiseOp:
    """Express a 2x2 unitary as a PairwiseOp on the two rails of a qubit.

    The returned op realizes ``v`` up to a global phase:
    diag(e^{i lam}) . B(theta, phi) = e^{-i gamma} v.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (2, 2):
        raise GateError(f"expected a 2x2 matrix, got {v.shape}")
    if not is_unitary(v):
        raise GateError("matrix is not unitary")
    i, j = int(pair[0]), int(pair[1])
    c, s = abs(v[0, 0]), abs(v[1, 0])
    theta = math.atan2(s, c)
    if c > 1e-12:
        gamma = np.angle(v[0, 0])
        lam1 = float(np.angle(v[1, 1]) - gamma)
        phi = float(np.angle(v[1, 0]) - gamma - lam1) if s > 1e-12 else 0.0
    else:
        gamma = np.angle(v[0, 1]) + math.pi
        lam1 = float(np.angle(v[1, 0]) - gamma)
        phi = 0.0
    return PairwiseOp(i, j, theta, phi, (0.0, lam1))


def gadget_library() -> dict:
    """Machine-readable description of the shipped gate gadgets.

    Lists, per gadget, the mode roles, the splitter settings, the herald
    pattern, and the Bell-pair/any-input success probability.  The CLI
    emits this as JSON so external tooling can reproduce the circuits.
    """
    gadgets = {
        name: {
            "modes": list(g.modes),
            "ancilla_occupation": list(g.ancilla),
            "beamsplitters": [{"modes": [i, j], "theta": theta, "phi": 0.0}
                              for i, j, theta in g.splitters],
            "herald": {"modes": list(range(len(g.modes) - len(g.ancilla),
                                           len(g.modes))),
                       "pattern": list(g.ancilla)},
            "success_probability": g.success_probability,
        }
        for name, g in GADGETS.items()
    }
    return {
        **header("gadget-library"),
        "gadgets": {
            **gadgets,
            "fusion1": {
                "modes": ["h1", "v1", "h2", "v2"],
                "sequence": ["swap h1<->h2", "waveplate (h2, v2)",
                             "detect (h2, v2)"],
                "success_patterns": [[1, 0], [0, 1]],
                "bell_pair_success_probability": 0.5,
            },
            "fusion2": {
                "modes": ["h1", "v1", "h2", "v2"],
                "sequence": ["swap h1<->h2", "waveplate (h1, v1)",
                             "waveplate (h2, v2)", "detect all"],
                "success_patterns": [[1, 0, 1, 0], [1, 0, 0, 1],
                                     [0, 1, 1, 0], [0, 1, 0, 1]],
                "bell_pair_success_probability": 0.5,
            },
        },
    }


# --------------------------------------------------------------------------
# one machine round
# --------------------------------------------------------------------------


def klm_round(logical: FockState, ancilla, u, controller=None, rng=None):
    """Run one gadget round on the loop machine.

    Load ``logical`` as the pulse train, inject the ``ancilla`` occupation
    at the tail, stream the passes compiled from ``u`` (which acts on
    logical + ancilla bins), then divert the ancilla bins to detectors.
    Returns ``(final_state, outcome)``; if a ``controller`` is given it is
    called with the outcome before the round returns, mirroring the feed-
    forward window of a multi-round schedule.
    """
    if rng is None:
        raise GateError("klm_round samples detectors and requires an rng")
    ancilla = tuple(int(x) for x in ancilla)
    n_l, n_a = logical.n_modes, len(ancilla)
    total = n_l + n_a
    u = np.asarray(u, dtype=complex)
    if u.shape != (total, total):
        raise GateError(
            f"gadget unitary is {u.shape}, needs ({total}, {total}) for "
            f"{n_l} logical + {n_a} ancilla bins")
    config = LoopConfig(n_bins=n_l, outer_delay_bins=total + 1)
    compiled = compile_unitary(
        u, LoopConfig(n_bins=total, outer_delay_bins=total + 1))
    plan = RoundPlan(injection=ancilla, passes=compiled.rounds[0].passes,
                     extraction=tuple(range(n_l, total)))
    machine = Machine(config)
    machine.load_pulse_train(logical)
    final, record, _ = run_schedule(machine, LoopSchedule(config, (plan,)),
                                    rng=rng)
    outcome = record.entries[-1].outcome
    if controller is not None:
        controller(outcome)
    return final, outcome
