"""Dual-rail qubits and heralded nonlinear gates.

A qubit lives in two time bins: a photon in the first bin is logical 0, in
the second logical 1.  All single-qubit rotations are passive two-mode
operations (``single_qubit_gate`` turns a 2x2 unitary into a ``PairwiseOp``
the compiler can schedule).  Entangling operations need measurement: the
heralded sign shift (NS) flips the phase of the two-photon component of one
mode using one ancilla photon, one ancilla vacuum mode, and a detector
pattern, and two of them sandwiched between 50:50 splitters make a CZ.
Type-I/II fusion heralds on the qubits' own bins.  ``GADGETS`` holds all
four as data, and ``_run_gadget`` is the one Fock-level runner that
``ns_gate``, ``cz_gate`` and the cluster module's fusions call.

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
from functools import lru_cache

import numpy as np

from .compiler import PairwiseOp, compile_unitary
from .fock import (
    FockState,
    _draw,
    apply_beamsplitter,
    beamsplitter_matrix,
    embed,
    header,
    is_unitary,
    outcome_distribution,
    post_select,
    swap_modes,
)
from .loop import LoopConfig, LoopSchedule, Machine, RoundPlan, run_schedule

NS_THETA_PRE = math.pi / 8
NS_THETA_MIX = math.acos(1.0 - math.sqrt(2.0))
NS_THETA_POST = math.pi + math.pi / 8


class GateError(ValueError):
    """Raised for invalid gate arguments or undecodable states."""


@dataclass(frozen=True)
class HeraldedResult:
    """Outcome of a heralded gadget.

    ``outcome`` is the detector pattern (the first success pattern when
    ``postselect`` forced it) and ``probability`` its probability;
    ``success_probability`` is the weight of all the gadget's success
    patterns for this input.  ``state`` is the renormalized conditional
    state on the undetected modes.
    """

    success: bool
    outcome: tuple
    probability: float
    success_probability: float
    state: FockState


@dataclass(frozen=True)
class Gadget:
    """A heralded circuit.

    ``modes`` names the signal modes, then one ancilla mode per entry of
    ``ancilla``, the occupation injected there.  ``swap`` is an optional
    pair of modes exchanged first; ``splitters`` then lists (i, j, theta)
    beamsplitters with phi = 0, in the order they act.  Any of the
    ``patterns`` (by default the ancilla occupation) on the ``detected``
    modes (by default the ancilla modes) heralds success, with
    ``success_probability`` for any input (NS, CZ) or Bell pairs (fusion).
    """

    modes: tuple
    ancilla: tuple
    splitters: tuple
    success_probability: float
    swap: tuple = ()
    detected: tuple = None
    patterns: tuple = None

    def __post_init__(self):
        n = len(self.modes)
        if self.detected is None:
            object.__setattr__(self, "detected",
                               tuple(range(n - len(self.ancilla), n)))
        if self.patterns is None:
            object.__setattr__(self, "patterns", (self.ancilla,))


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
# two dual-rail qubits (h1, v1), (h2, v2): the bin sort swaps h1 and h2,
# 45-degree waveplates rotate the detected pairs, and one photon in each
# detected pair heralds success
GADGETS["fusion1"] = Gadget(
    ("h1", "v1", "h2", "v2"), (), ((2, 3, math.pi / 4),), 0.5,
    swap=(0, 2), detected=(2, 3), patterns=((1, 0), (0, 1)))
GADGETS["fusion2"] = Gadget(
    ("h1", "v1", "h2", "v2"), (), ((0, 1, math.pi / 4), (2, 3, math.pi / 4)),
    0.5, swap=(0, 2), detected=(0, 1, 2, 3),
    patterns=((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))


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

    Appends the ancilla modes and measures the detected modes away.
    """
    if postselect and rng is not None:
        raise GateError("pass either rng or postselect=True, not both")
    if not postselect and rng is None:
        raise GateError("sampling a herald requires an rng "
                        "(or pass postselect=True)")
    n = state.n_modes
    modes = tuple(signal_modes) + tuple(range(n, n + len(gadget.ancilla)))
    work = state.tensor(FockState.from_occupation(gadget.ancilla)) \
        if gadget.ancilla else state
    if gadget.swap:
        work = swap_modes(work, *(modes[k] for k in gadget.swap))
    for i, j, theta in gadget.splitters:
        work = apply_beamsplitter(work, modes[i], modes[j], theta, 0.0)
    detected = tuple(modes[k] for k in gadget.detected)
    probs = outcome_distribution(work, detected)
    # summed in the table's pattern order, which fixes the float
    success_probability = sum(probs.get(p, 0.0) for p in gadget.patterns)
    outcome = gadget.patterns[0] if postselect else _draw(probs, rng)
    prob, cond = post_select(work, detected, outcome)
    return HeraldedResult(prob > 0.0 and outcome in gadget.patterns, outcome,
                          prob, success_probability, cond)


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
    pair_a, pair_b = tuple(pair_a), tuple(pair_b)
    modes = pair_a + pair_b
    if len(pair_a) != 2 or len(modes) != 4 or len(set(modes)) != 4 \
            or not all(0 <= m < state.n_modes for m in modes):
        raise GateError(f"qubit rails {pair_a}, {pair_b} must be two pairs "
                        "of four distinct modes")
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


def _library_entry(g: Gadget) -> dict:
    if g.ancilla:
        # heralded by ancillas: the circuit as splitter settings
        return {
            "modes": list(g.modes),
            "ancilla_occupation": list(g.ancilla),
            "beamsplitters": [{"modes": [i, j], "theta": theta, "phi": 0.0}
                              for i, j, theta in g.splitters],
            "herald": {"modes": list(g.detected),
                       "pattern": list(g.patterns[0])},
            "success_probability": g.success_probability,
        }
    # a fusion detects its own qubits: the circuit as named steps, with
    # every splitter a 45-degree waveplate
    i, j = g.swap
    m = g.modes
    detect = "all" if len(g.detected) == len(m) else \
        f"({', '.join(m[k] for k in g.detected)})"
    return {
        "modes": list(m),
        "sequence": [f"swap {m[i]}<->{m[j]}"]
        + [f"waveplate ({m[i]}, {m[j]})" for i, j, _ in g.splitters]
        + [f"detect {detect}"],
        "success_patterns": [list(pattern) for pattern in g.patterns],
        "bell_pair_success_probability": g.success_probability,
    }


def gadget_library() -> dict:
    """Machine-readable description of the ``GADGETS`` table.

    Lists, per gadget, the mode roles, the circuit, the herald or success
    patterns, and the any-input/Bell-pair success probability.  The CLI
    emits this as JSON so external tooling can reproduce the circuits.
    """
    return {**header("gadget-library"),
            "gadgets": {name: _library_entry(g)
                        for name, g in GADGETS.items()}}


# --------------------------------------------------------------------------
# one machine round
# --------------------------------------------------------------------------


# distinct gadget unitaries whose compiled schedules are kept; a run uses a
# handful (NS and CZ), so this bounds memory without ever evicting them
_SCHEDULE_CACHE_SIZE = 32


@lru_cache(maxsize=_SCHEDULE_CACHE_SIZE)
def _compiled_schedule(u_bytes: bytes, total: int) -> LoopSchedule:
    """The verified schedule of the total x total unitary held in ``u_bytes``.

    Keyed on the matrix bytes, so a caller that mutates its array compiles
    afresh.  A ``VerificationError`` propagates and is not cached.
    """
    u = np.frombuffer(u_bytes, dtype=complex).reshape(total, total)
    return compile_unitary(
        u, LoopConfig(n_bins=total, outer_delay_bins=total + 1))


def klm_round(logical: FockState, ancilla, u, controller=None, rng=None):
    """Run one gadget round on the loop machine.

    Load ``logical`` as the pulse train, inject the ``ancilla`` occupation
    at the tail, stream the passes compiled from ``u`` (which acts on
    logical + ancilla bins), then divert the ancilla bins to detectors.
    Returns ``(final_state, outcome)``; if a ``controller`` is given it is
    called with the outcome before the round returns, mirroring the feed-
    forward window of a multi-round schedule.

    Each distinct ``u`` is compiled and verified once per process: a
    bounded cache keeps the schedules of the most recently used unitaries,
    keyed on the matrix bytes and the bin count.
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
    compiled = _compiled_schedule(u.tobytes(), total)
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
