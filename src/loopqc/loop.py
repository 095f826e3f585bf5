"""Operational model of the two-loop time-bin machine.

The machine stores a train of optical pulses (time bins) in a long outer
fiber loop.  Once per circulation the train streams past a single
programmable 2x2 coupler that connects it to a short inner loop whose round
trip equals the bin spacing ``tau``.  One circulation of the train through
the coupler is a *pass*; during a pass the coupler is retuned once per bin,
so a pass over an n-bin train is a list of n+1 coupler settings (the extra
tick lets inner-loop content hop off after the last bin).

Time-bin bookkeeping: whenever the coupler is used to exchange amplitude
(boundary ticks fully open), everything that comes back has ridden the inner
loop for at least one tick, so the whole train reappears delayed by exactly
one bin.  A uniform delay is unobservable — only relative bin positions
matter — so the machine relabels bins back to 0..n-1 after each such pass.
Two tick families keep the train aligned and are accepted:

- *cascade* passes: first and last tick fully open (theta = pi/2), interior
  ticks arbitrary.  Amplitude may hop between neighboring bins through the
  inner loop; after the pass the train is relabeled (one-bin delay dropped).
- *passthrough* passes: every tick closed (sin theta = 0).  The train never
  enters the inner loop; each bin just picks up the sign of cos(theta).

Anything else would strand amplitude between bin positions (the train
"smears") and is rejected.

A pass is a passive optic, so it has a fixed single-photon transfer matrix.
``pass_matrix`` is the one pass model every run uses: it builds that n x n
matrix in O(n^2) by carrying the inner-loop row across the n+1 ticks, and
it makes every pass check (tick count, closed switches, tick family, the
leak into slot 0 and the inner loop).  ``effective_unitary`` multiplies pass
matrices, and ``run_schedule`` folds the passes of each round into one
unitary applied to the Fock state once, between injection and extraction.
``tick_pass`` streams a Fock state through the coupler one tick at a time;
it is the slow oracle that tests check the matrix engine against.

Ancilla bins are injected/extracted between passes through the outer-loop
switches; extraction measures the trailing bins with photon-number
detectors and appends the outcome to the machine's measurement record,
which feed-forward controllers may consult to retune later rounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .fock import (
    FockState,
    ModeUnitary,
    apply_beamsplitter,
    apply_mode_unitary,
    check_header,
    doc_field,
    header,
    is_count,
    is_real,
    list_of,
    measure_modes,
)

ANGLE_TOL = 1e-9
SMEAR_TOL = 1e-12


class LoopError(ValueError):
    """Raised for invalid machine configurations, settings or sequencing."""


@dataclass(frozen=True)
class LoopConfig:
    """Geometry of the machine.

    ``n_bins`` is the nominal train length the machine is programmed for;
    ``outer_delay_bins`` is the outer-loop round trip in units of ``tau`` and
    must exceed the train length so the switch has a gap to act in;
    ``tau`` is the bin spacing (also the inner-loop round trip).
    """

    n_bins: int
    outer_delay_bins: int | None = None
    tau: float = 1.0

    def __post_init__(self):
        if self.n_bins < 1:
            raise LoopError("n_bins must be >= 1")
        if self.outer_delay_bins is None:
            object.__setattr__(self, "outer_delay_bins", self.n_bins + 1)
        if self.outer_delay_bins <= self.n_bins:
            raise LoopError("outer loop must be longer than the train "
                            f"({self.outer_delay_bins} <= {self.n_bins})")
        if self.tau <= 0:
            raise LoopError("tau must be positive")


@dataclass(frozen=True)
class PassSettings:
    """Coupler and switch program for one pass over an n-bin train.

    ``central`` holds one (theta, phi) pair per coupler tick (n+1 entries);
    ``entry_switch`` / ``exit_switch`` hold one boolean per bin and must stay
    False during a pass — injection and extraction are separate operations
    between passes, which record the actual switch activity.
    """

    central: tuple
    entry_switch: tuple = None
    exit_switch: tuple = None

    def __post_init__(self):
        central = tuple((float(t), float(p)) for t, p in self.central)
        if len(central) < 2:
            raise LoopError("a pass needs at least 2 coupler ticks")
        n = len(central) - 1
        entry = self.entry_switch
        exit_ = self.exit_switch
        entry = tuple(bool(b) for b in entry) if entry is not None else (False,) * n
        exit_ = tuple(bool(b) for b in exit_) if exit_ is not None else (False,) * n
        if len(entry) != n or len(exit_) != n:
            raise LoopError(
                f"switch lists must have {n} entries (one per bin)")
        object.__setattr__(self, "central", central)
        object.__setattr__(self, "entry_switch", entry)
        object.__setattr__(self, "exit_switch", exit_)

    @property
    def n_ticks(self) -> int:
        return len(self.central)

    @classmethod
    def passthrough(cls, n_bins: int) -> "PassSettings":
        """All couplers closed: the identity pass."""
        return cls(central=((0.0, 0.0),) * (n_bins + 1))

    @classmethod
    def cascade(cls, interior, entry_phase: float = 0.0,
                exit_phase: float = 0.0) -> "PassSettings":
        """Full boundary ticks around the given interior (theta, phi) list."""
        central = ((math.pi / 2, float(entry_phase)),) \
            + tuple((float(t), float(p)) for t, p in interior) \
            + ((math.pi / 2, float(exit_phase)),)
        return cls(central=central)


def _classify(settings: PassSettings) -> str:
    thetas = [t for t, _ in settings.central]
    if all(abs(math.sin(t)) < ANGLE_TOL for t in thetas):
        return "passthrough"
    if abs(math.cos(thetas[0])) < ANGLE_TOL and abs(math.cos(thetas[-1])) < ANGLE_TOL:
        return "cascade"
    raise LoopError(
        "pass would smear the train: boundary ticks must both be fully "
        "open (cascade) or every tick closed (passthrough); got thetas "
        f"{[round(t, 6) for t in thetas]}")


def _check_pass(settings: PassSettings, n: int) -> str:
    """Validate one pass over an n-bin train and return its tick family."""
    if n < 1:
        raise LoopError("train is empty")
    if settings.n_ticks != n + 1:
        raise LoopError(
            f"pass has {settings.n_ticks} ticks but the train needs "
            f"{n + 1}")
    if any(settings.entry_switch) or any(settings.exit_switch):
        raise LoopError("outer-loop switches must stay closed during a "
                        "pass; use inject/extract between passes")
    return _classify(settings)


def _passthrough_signs(settings: PassSettings, n: int) -> list:
    """Each bin keeps its slot and picks up the sign of cos(theta)."""
    return [1.0 if math.cos(t) >= 0 else -1.0 for t, _ in settings.central[:n]]


def _check_leak(leak: float):
    if leak > SMEAR_TOL:
        raise LoopError(
            f"train smeared: weight {leak:.3g} left outside the bin "
            "grid after a cascade pass")


def pass_matrix(settings: PassSettings, n: int) -> np.ndarray:
    """Single-photon transfer matrix of one pass over an n-bin train.

    Tick t mixes the inner loop with time slot t (slot n+1 at the last
    tick), and slot t holds bin t alone until its tick, so row t of the
    result is fixed by the inner-loop row just before tick t.  Carrying
    that row across the ticks builds the matrix in O(n^2).  Slots 1..n-1
    and n+1 are relabeled to bins 0..n-1; raises LoopError if any photon
    leaves more than SMEAR_TOL in slot 0 or in the inner loop.
    """
    if _check_pass(settings, n) == "passthrough":
        return np.diag(_passthrough_signs(settings, n)).astype(complex)
    slots = np.zeros((n + 1, n), dtype=complex)
    loop = np.zeros(n, dtype=complex)
    for t, (theta, phi) in enumerate(settings.central):
        c, s = math.cos(theta), math.sin(theta)
        e = complex(math.cos(phi), math.sin(phi))
        # beamsplitter on (inner loop, slot t); see fock.beamsplitter_matrix
        slots[t] = (s * e) * loop
        loop *= c
        if t < n:
            slots[t, t] = c
            loop[t] = -s / e
    _check_leak(float(np.max(np.abs(slots[0]) ** 2 + np.abs(loop) ** 2)))
    return slots[1:]


def _passes_unitary(passes, n: int) -> np.ndarray:
    """Transfer matrix of a pass sequence: pass matrices, first rightmost."""
    u = np.eye(n, dtype=complex)
    for settings in passes:
        u = pass_matrix(settings, n) @ u
    return u


def tick_pass(state: FockState, settings: PassSettings) -> FockState:
    """Stream a Fock state through one pass, one coupler tick at a time.

    The slow reference for ``pass_matrix``: the same checks, but every tick
    is a two-mode beamsplitter on the full multi-photon state, with the
    inner loop and the extra output slot as explicit modes.
    """
    n = state.n_modes
    if _check_pass(settings, n) == "passthrough":
        signs = _passthrough_signs(settings, n)
        out = {}
        for occ, amp in state.items():
            s = 1.0
            for t, x in enumerate(occ):
                if x and signs[t] < 0:
                    s *= (-1.0) ** x
            out[occ] = amp * s
        return FockState(n, state.total_photons, out,
                         normalized=state.normalized)

    # bins 0..n-1 plus inner-loop mode n, then an extra output slot n+1 for
    # the final tick
    work = state.tensor(FockState.from_occupation((0,)))
    loop_mode = n
    for t in range(n):
        theta, phi = settings.central[t]
        work = apply_beamsplitter(work, loop_mode, t, theta, phi)
    work = work.tensor(FockState.from_occupation((0,)))
    theta, phi = settings.central[n]
    work = apply_beamsplitter(work, loop_mode, n + 1, theta, phi)

    # slot 0 and the inner loop must be empty; drop them and shift labels
    out = {}
    leak = 0.0
    for occ, amp in work.items():
        if occ[0] != 0 or occ[loop_mode] != 0:
            leak += abs(amp) ** 2
            continue
        out[occ[1:loop_mode] + (occ[loop_mode + 1],)] = amp
    _check_leak(leak)
    return FockState(n, state.total_photons, out,
                     normalized=state.normalized)


@dataclass
class RecordEntry:
    round_index: int
    bins: tuple
    outcome: tuple
    probability: float


@dataclass
class MeasurementRecord:
    """Ordered log of every ancilla extraction outcome."""

    entries: list = field(default_factory=list)


@dataclass(frozen=True)
class RoundPlan:
    """One feed-forward round: optional injection, passes, optional extraction.

    ``injection`` is an occupation tuple appended as trailing bins before the
    passes run; ``extraction`` lists the trailing bin indices measured after
    the passes.
    """

    injection: tuple | None = None
    passes: tuple = ()
    extraction: tuple | None = None

    def __post_init__(self):
        if self.injection is not None:
            object.__setattr__(self, "injection",
                               tuple(int(x) for x in self.injection))
        object.__setattr__(self, "passes", tuple(self.passes))
        if self.extraction is not None:
            object.__setattr__(self, "extraction",
                               tuple(int(x) for x in self.extraction))


@dataclass(frozen=True)
class LoopSchedule:
    """A machine program: configuration plus a list of rounds."""

    config: LoopConfig
    rounds: tuple

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))
        for rp in self.rounds:
            if not isinstance(rp, RoundPlan):
                raise LoopError("rounds must be RoundPlan instances")

    @classmethod
    def passive(cls, config: LoopConfig, passes) -> "LoopSchedule":
        """Single round, no injection or extraction."""
        return cls(config, (RoundPlan(passes=tuple(passes)),))

    @property
    def n_passes(self) -> int:
        return sum(len(rp.passes) for rp in self.rounds)

    def is_passive(self) -> bool:
        return all(rp.injection is None and rp.extraction is None
                   for rp in self.rounds)


class Machine:
    """Stateful simulator of one machine run."""

    def __init__(self, config: LoopConfig):
        self.config = config
        self.train: FockState | None = None
        self.record = MeasurementRecord()
        self.trace: list = []
        self.round_index = 0

    @property
    def train_length(self) -> int:
        return 0 if self.train is None else self.train.n_modes

    def load_pulse_train(self, state: FockState):
        """Install a full train; the state must span exactly config.n_bins."""
        if self.train is not None:
            raise LoopError("machine already holds a train")
        if state.n_modes != self.config.n_bins:
            raise LoopError(
                f"train has {state.n_modes} bins, machine expects "
                f"{self.config.n_bins}")
        self.train = state
        self.trace.append({"event": "load", "round": self.round_index,
                           "n_bins": state.n_modes})

    def inject_ancilla(self, ancilla):
        """Append ancilla bins at the tail of the train via the entry switch.

        ``ancilla`` may be an occupation tuple (photons from the pulsed
        source) or a FockState.  The grown train must still fit in the outer
        loop with one spare bin for the switch window.
        """
        if not isinstance(ancilla, FockState):
            ancilla = FockState.from_occupation(tuple(int(x) for x in ancilla))
        new_n = self.train_length + ancilla.n_modes
        if new_n >= self.config.outer_delay_bins:
            raise LoopError(
                f"train of {new_n} bins does not fit in an outer loop of "
                f"{self.config.outer_delay_bins} bins")
        old_n = self.train_length
        self.train = ancilla if self.train is None else self.train.tensor(ancilla)
        self.trace.append({
            "event": "inject", "round": self.round_index,
            "bins": list(range(old_n, new_n)), "n_bins": ancilla.n_modes,
        })

    def extract_ancilla(self, bins, rng):
        """Divert the trailing bins to detectors and record the outcome.

        ``bins`` must be the contiguous tail of the train (the exit switch
        opens once and stays open while the tail streams out).  Returns the
        measured occupation tuple.
        """
        if self.train is None:
            raise LoopError("no train loaded")
        if rng is None:
            raise LoopError("extraction requires an rng")
        bins = tuple(sorted(int(b) for b in bins))
        n = self.train_length
        k = len(bins)
        if k == 0 or bins != tuple(range(n - k, n)):
            raise LoopError(
                f"extraction bins {bins} are not the trailing bins of a "
                f"{n}-bin train")
        outcome, cond, prob = measure_modes(self.train, bins, rng)
        self.train = cond
        entry = RecordEntry(self.round_index, bins, outcome, prob)
        self.record.entries.append(entry)
        self.trace.append({
            "event": "extract", "round": self.round_index,
            "bins": list(bins), "outcome": list(outcome),
            "probability": prob,
        })
        return outcome

    def _run_passes(self, passes, pass_indices):
        """Apply the product of the passes' matrices to the train once,
        with one trace event per tick."""
        if self.train is None:
            raise LoopError("no train loaded")
        u = _passes_unitary(passes, self.train_length)
        for settings, k in zip(passes, pass_indices):
            for t, (theta, phi) in enumerate(settings.central):
                self.trace.append({
                    "event": "tick", "round": self.round_index,
                    "pass": k, "tick": t,
                    "theta": theta, "phi": phi,
                    "entry_open": False, "exit_open": False,
                })
        self.train = apply_mode_unitary(self.train, u)

    def run_pass(self, settings: PassSettings, pass_index: int | None = None):
        """Stream the train once through the central coupler."""
        self._run_passes((settings,), (pass_index,))


def run_schedule(machine: Machine, schedule: LoopSchedule, controller=None,
                 rng=None):
    """Execute a schedule on a machine.

    ``controller(record, planned_passes)`` — if given — is consulted before
    every round after the first and may replace that round's pass list based
    on the measurement record so far (feed-forward).  ``rng`` drives
    extraction measurements and must be supplied if any round extracts.
    The passes of a round are folded into one unitary, applied to the train
    once between the round's injection and extraction.

    Returns ``(final_train, record, trace)``.
    """
    if machine.config != schedule.config:
        raise LoopError("machine and schedule configurations differ")
    for r, rp in enumerate(schedule.rounds):
        machine.round_index = r
        if rp.injection is not None:
            machine.inject_ancilla(rp.injection)
        passes = rp.passes
        if controller is not None and r > 0:
            passes = tuple(controller(machine.record, rp.passes))
        if passes:
            machine._run_passes(passes, range(len(passes)))
        if rp.extraction is not None:
            machine.extract_ancilla(rp.extraction, rng)
    return machine.train, machine.record, machine.trace


def effective_unitary(schedule: LoopSchedule) -> ModeUnitary:
    """Single-photon transfer matrix realized by a passive schedule.

    The product of the pass matrices of all its passes.  Schedules with
    injection or extraction do not define a fixed mode unitary and are
    rejected.
    """
    if not schedule.is_passive():
        raise LoopError("schedule with injection/extraction has no fixed "
                        "transfer matrix")
    return ModeUnitary(_passes_unitary(
        [settings for rp in schedule.rounds for settings in rp.passes],
        schedule.config.n_bins))


# ---------------------------------------------------------------------------
# serialization


def trace_to_jsonl(trace) -> str:
    """One JSON object per line, key-sorted for byte stability."""
    return "\n".join(json.dumps(e, sort_keys=True) for e in trace)


def schedule_to_json(schedule: LoopSchedule) -> str:
    doc = {
        **header("loop-schedule"),
        "config": {
            "n_bins": schedule.config.n_bins,
            "outer_delay_bins": schedule.config.outer_delay_bins,
            "tau": schedule.config.tau,
        },
        "rounds": [
            {
                "injection": list(rp.injection) if rp.injection is not None else None,
                "passes": [
                    {
                        "central": [[t, p] for t, p in ps.central],
                        "entry_switch": list(ps.entry_switch),
                        "exit_switch": list(ps.exit_switch),
                    }
                    for ps in rp.passes
                ],
                "extraction": list(rp.extraction) if rp.extraction is not None else None,
            }
            for rp in schedule.rounds
        ],
    }
    return json.dumps(doc, sort_keys=True)


# one check per tick of every pass is the schedule reader's hot loop, so
# these two spell out what list_of would build
def _is_ticks(central) -> bool:
    return type(central) is list and all(
        type(tick) is list and len(tick) == 2
        and is_real(tick[0]) and is_real(tick[1]) for tick in central)


def _is_switches(switches) -> bool:
    return type(switches) is list and all(type(b) is bool for b in switches)


def schedule_from_json(text: str) -> LoopSchedule:
    doc = json.loads(text)
    check_header(doc, "loop-schedule", LoopError)
    field = partial(doc_field, LoopError)
    cfg = field(doc, "config")
    config = LoopConfig(n_bins=field(cfg, "n_bins", is_count),
                        outer_delay_bins=field(cfg, "outer_delay_bins", is_count),
                        tau=field(cfg, "tau", is_real))
    counts = list_of(is_count)
    rounds = []
    for rp in field(doc, "rounds", list_of()):
        passes = tuple(
            PassSettings(
                central=field(ps, "central", _is_ticks),
                entry_switch=field(ps, "entry_switch", _is_switches),
                exit_switch=field(ps, "exit_switch", _is_switches),
            )
            for ps in field(rp, "passes", list_of())
        )
        # an absent injection or extraction reads as RoundPlan's None
        rounds.append(RoundPlan(
            injection=field(rp, "injection", lambda x: x is None or counts(x), None),
            passes=passes,
            extraction=field(rp, "extraction", lambda x: x is None or counts(x), None),
        ))
    return LoopSchedule(config, tuple(rounds))
