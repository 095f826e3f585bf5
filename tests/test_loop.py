"""Tests for the two-loop time-bin machine.

Hand-derived facts used as oracles:

- A pass whose every coupler tick is (pi/2, 0) routes each bin through the
  inner loop for exactly one tick, so the train comes back unchanged up to a
  global minus sign per photon: the pass acts as -identity.
- A pass with full boundary ticks and a straight-through (theta=0) interior
  tick at position t makes bin t exit one position early while the bin ahead
  of it rides the loop across: with exit phase pi this is an exact swap with
  +1 coefficients.
- Output bin p of any single pass can only depend on input bins <= p+1 (the
  inner loop stores exactly one bin of delay), so single-pass transfer
  matrices vanish above the first superdiagonal.

The matrix engine (``pass_matrix``, which ``run_pass``, ``run_schedule`` and
``effective_unitary`` all use) is checked against ``tick_pass``, which
streams the multi-photon Fock state through the coupler one tick at a time.
"""

import json
import math

import numpy as np
import pytest

from loopqc.fock import FockState, apply_beamsplitter, apply_mode_unitary
from loopqc.loop import (
    LoopConfig,
    LoopError,
    LoopSchedule,
    Machine,
    PassSettings,
    RoundPlan,
    effective_unitary,
    pass_matrix,
    run_schedule,
    schedule_from_json,
    schedule_to_json,
    tick_pass,
    trace_to_jsonl,
)

SEED = 77130


def single_pass_schedule(n_bins, settings):
    cfg = LoopConfig(n_bins=n_bins)
    return LoopSchedule.passive(cfg, [settings])


# ---------------------------------------------------------------- config


def test_config_defaults_and_validation():
    cfg = LoopConfig(n_bins=4)
    assert cfg.outer_delay_bins == 5
    assert cfg.tau == 1.0
    with pytest.raises(LoopError):
        LoopConfig(n_bins=0)
    with pytest.raises(LoopError):
        LoopConfig(n_bins=4, outer_delay_bins=4)
    with pytest.raises(LoopError):
        LoopConfig(n_bins=2, tau=-1.0)


def test_pass_settings_shape_validation():
    PassSettings.passthrough(3)
    with pytest.raises(LoopError):
        PassSettings(central=((0.0, 0.0),))  # a pass needs >= 2 ticks
    with pytest.raises(LoopError):
        PassSettings(central=((0.0, 0.0),) * 3, entry_switch=(False,))


# ---------------------------------------------------------------- passes


def test_passthrough_pass_is_identity():
    cfg = LoopConfig(n_bins=3)
    m = Machine(cfg)
    s = FockState(3, 2, {(2, 0, 0): 0.6, (0, 1, 1): 0.8j})
    m.load_pulse_train(s)
    m.run_pass(PassSettings.passthrough(3))
    assert m.train.amplitude((2, 0, 0)) == pytest.approx(0.6, abs=1e-12)
    assert m.train.amplitude((0, 1, 1)) == pytest.approx(0.8j, abs=1e-12)


def test_all_full_pass_negates_each_photon():
    settings = PassSettings.cascade([(math.pi / 2, 0.0)] * 2)
    u = effective_unitary(single_pass_schedule(3, settings)).matrix
    assert np.allclose(u, -np.eye(3), atol=1e-12)


def test_two_bin_swap_pass():
    # ride tick in the middle, exit phase pi: exact swap with +1 coefficients
    settings = PassSettings.cascade([(0.0, 0.0)], exit_phase=math.pi)
    u = effective_unitary(single_pass_schedule(2, settings)).matrix
    assert np.allclose(u, np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_ride_tick_phase_is_inert():
    a = PassSettings.cascade([(0.0, 0.0)], exit_phase=math.pi)
    b = PassSettings.cascade([(0.0, 1.234)], exit_phase=math.pi)
    ua = effective_unitary(single_pass_schedule(2, a)).matrix
    ub = effective_unitary(single_pass_schedule(2, b)).matrix
    assert np.allclose(ua, ub, atol=1e-12)


def test_single_pass_causality_structure():
    """No single pass can move amplitude more than one bin earlier."""
    rng = np.random.default_rng(SEED)
    n = 5
    for _ in range(4):
        interior = [(rng.uniform(0, math.pi / 2), rng.uniform(-math.pi, math.pi))
                    for _ in range(n - 1)]
        settings = PassSettings.cascade(
            interior,
            entry_phase=rng.uniform(-math.pi, math.pi),
            exit_phase=rng.uniform(-math.pi, math.pi),
        )
        u = effective_unitary(single_pass_schedule(n, settings)).matrix
        for p in range(n):
            for l in range(p + 2, n):
                assert abs(u[p, l]) < 1e-12, (p, l)


def test_pass_preserves_norm_and_photons():
    rng = np.random.default_rng(SEED + 1)
    cfg = LoopConfig(n_bins=4)
    s = FockState(4, 2, {(1, 1, 0, 0): 0.5, (0, 0, 2, 0): 0.5,
                         (0, 1, 0, 1): math.sqrt(0.5)})
    interior = [(rng.uniform(0, math.pi / 2), rng.uniform(-math.pi, math.pi))
                for _ in range(3)]
    m = Machine(cfg)
    m.load_pulse_train(s)
    m.run_pass(PassSettings.cascade(interior))
    assert m.train.norm_squared() == pytest.approx(1.0, abs=1e-10)
    assert m.train.total_photons == 2
    assert m.train.n_modes == 4


def test_mixed_boundary_settings_rejected():
    cfg = LoopConfig(n_bins=2)
    m = Machine(cfg)
    m.load_pulse_train(FockState.from_occupation((1, 0)))
    # entry coupler fully open but exit coupler at a partial angle: the train
    # would smear over bins instead of coming back aligned
    bad = PassSettings(central=((math.pi / 2, 0.0), (0.0, 0.0), (0.4, 0.0)))
    with pytest.raises(LoopError):
        m.run_pass(bad)
    partial_entry = PassSettings(central=((0.0, 0.0), (0.3, 0.0), (0.0, 0.0)))
    with pytest.raises(LoopError):
        m.run_pass(partial_entry)


def test_pass_tick_count_must_match_train():
    cfg = LoopConfig(n_bins=3)
    m = Machine(cfg)
    m.load_pulse_train(FockState.from_occupation((1, 0, 0)))
    with pytest.raises(LoopError):
        m.run_pass(PassSettings.passthrough(2))


def test_switches_stay_closed_during_pass():
    cfg = LoopConfig(n_bins=2)
    m = Machine(cfg)
    m.load_pulse_train(FockState.from_occupation((1, 0)))
    s = PassSettings(central=((0.0, 0.0),) * 3,
                     entry_switch=(True, False),
                     exit_switch=(False, False))
    with pytest.raises(LoopError):
        m.run_pass(s)


# ---------------------------------------------------------------- machine ops


def test_inject_and_extract_roundtrip():
    cfg = LoopConfig(n_bins=3, outer_delay_bins=6)
    m = Machine(cfg)
    m.inject_ancilla((1, 0, 1))
    assert m.train_length == 3
    m.inject_ancilla((1,))
    assert m.train_length == 4
    assert m.train.amplitude((1, 0, 1, 1)) == pytest.approx(1.0)

    outcome = m.extract_ancilla((3,), np.random.default_rng(0))
    assert outcome == (1,)
    assert m.train_length == 3
    assert m.train.amplitude((1, 0, 1)) == pytest.approx(1.0)
    assert len(m.record.entries) == 1
    assert m.record.entries[0].outcome == (1,)
    assert m.record.entries[0].probability == pytest.approx(1.0)


def test_inject_overflow_rejected():
    cfg = LoopConfig(n_bins=3, outer_delay_bins=4)
    m = Machine(cfg)
    m.inject_ancilla((1, 0, 1))
    with pytest.raises(LoopError):
        m.inject_ancilla((1,))


def test_extract_requires_trailing_bins():
    cfg = LoopConfig(n_bins=3, outer_delay_bins=6)
    m = Machine(cfg)
    m.inject_ancilla((1, 0, 1))
    with pytest.raises(LoopError):
        m.extract_ancilla((0,), np.random.default_rng(0))
    with pytest.raises(LoopError):
        m.extract_ancilla((0, 2), np.random.default_rng(0))
    out = m.extract_ancilla((1, 2), np.random.default_rng(0))
    assert out == (0, 1)
    assert m.train_length == 1


def test_extract_superposition_statistics():
    cfg = LoopConfig(n_bins=2, outer_delay_bins=4)
    rng = np.random.default_rng(SEED + 2)
    hits = 0
    shots = 4000
    for _ in range(shots):
        m = Machine(cfg)
        m.load_pulse_train(FockState(2, 1, {(1, 0): 0.6, (0, 1): 0.8}))
        outcome = m.extract_ancilla((1,), rng)
        if outcome == (1,):
            hits += 1
    assert abs(hits / shots - 0.64) < 4 * math.sqrt(0.64 * 0.36 / shots)


# ---------------------------------------------------------------- schedules


def test_run_schedule_with_controller():
    cfg = LoopConfig(n_bins=2)
    plan = LoopSchedule(cfg, (
        RoundPlan(injection=(1, 0), passes=(PassSettings.passthrough(2),),
                  extraction=None),
        RoundPlan(injection=None, passes=(PassSettings.passthrough(2),),
                  extraction=None),
    ))
    calls = []

    def controller(record, planned):
        calls.append((len(record.entries), tuple(planned)))
        return planned

    m = Machine(cfg)
    final, record, trace = run_schedule(m, plan, controller=controller)
    assert len(calls) == 1  # first round runs as planned, later rounds consult
    assert final.amplitude((1, 0)) == pytest.approx(1.0)
    assert len(record.entries) == 0


def test_run_schedule_extraction_needs_rng():
    cfg = LoopConfig(n_bins=2, outer_delay_bins=5)
    plan = LoopSchedule(cfg, (
        RoundPlan(injection=(1, 1), passes=(), extraction=(1,)),
    ))
    with pytest.raises(LoopError):
        run_schedule(Machine(cfg), plan)
    m = Machine(cfg)
    final, record, _ = run_schedule(m, plan, rng=np.random.default_rng(3))
    assert record.entries[0].outcome == (1,)
    assert final.n_modes == 1


def test_effective_unitary_rejects_non_passive():
    cfg = LoopConfig(n_bins=2, outer_delay_bins=5)
    plan = LoopSchedule(cfg, (
        RoundPlan(injection=(1, 1), passes=(), extraction=None),
    ))
    with pytest.raises(LoopError):
        effective_unitary(plan)


def test_trace_records_every_tick():
    cfg = LoopConfig(n_bins=3)
    m = Machine(cfg)
    m.load_pulse_train(FockState.from_occupation((1, 0, 0)))
    m.run_pass(PassSettings.cascade([(0.5, 0.1), (0.2, -0.3)]))
    ticks = [e for e in m.trace if e["event"] == "tick"]
    assert len(ticks) == 4
    assert ticks[1]["theta"] == pytest.approx(0.5)
    assert ticks[1]["phi"] == pytest.approx(0.1)
    assert all(not t["entry_open"] and not t["exit_open"] for t in ticks)
    lines = trace_to_jsonl(m.trace).splitlines()
    assert len(lines) == len(m.trace)  # load event + one line per tick
    for line in lines:
        json.loads(line)


def test_schedule_json_roundtrip():
    cfg = LoopConfig(n_bins=2, outer_delay_bins=5)
    plan = LoopSchedule(cfg, (
        RoundPlan(injection=(1, 0),
                  passes=(PassSettings.cascade([(0.3, 0.4)]),),
                  extraction=(1,)),
    ))
    text = schedule_to_json(plan)
    assert text == schedule_to_json(plan)  # byte stable
    back = schedule_from_json(text)
    assert back == plan

    doc = json.loads(text)
    doc["format_version"] = "9.0"
    with pytest.raises(LoopError):
        schedule_from_json(json.dumps(doc))

    # an absent injection or extraction reads as RoundPlan's default None
    passive = LoopSchedule.passive(cfg, plan.rounds[0].passes)
    doc = json.loads(schedule_to_json(passive))
    del doc["rounds"][0]["injection"], doc["rounds"][0]["extraction"]
    assert schedule_from_json(json.dumps(doc)) == passive


GOOD_SCHEDULE = schedule_to_json(LoopSchedule(
    LoopConfig(n_bins=2, outer_delay_bins=5),
    (RoundPlan(injection=(1, 0), passes=(PassSettings.cascade([(0.3, 0.4)]),),
               extraction=(1,)),)))


def _first_pass(doc):
    return doc["rounds"][0]["passes"][0]


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("config"),
    lambda d: d.update(config=[2, 5, 1.0]),
    lambda d: d["config"].pop("n_bins"),
    lambda d: d["config"].update(n_bins="2"),
    lambda d: d["config"].update(outer_delay_bins=True),
    lambda d: d["config"].update(tau=float("nan")),
    lambda d: d.pop("rounds"),
    lambda d: d.update(rounds={"0": {}}),
    lambda d: d.update(rounds=[[]]),
    lambda d: d["rounds"][0].pop("passes"),
    lambda d: d["rounds"][0].update(passes=[7]),
    lambda d: _first_pass(d).pop("central"),
    lambda d: _first_pass(d)["central"].append([0.1, 0.2, 0.3]),
    lambda d: _first_pass(d)["central"][0].__setitem__(0, "0.3"),
    lambda d: _first_pass(d)["central"][0].__setitem__(1, float("inf")),
    lambda d: _first_pass(d)["central"][1].__setitem__(0, -10 ** 400),
    lambda d: _first_pass(d).update(entry_switch=[0, 0]),
    lambda d: _first_pass(d).pop("exit_switch"),
    lambda d: d["rounds"][0].update(injection=[1.5, 0]),
    lambda d: d["rounds"][0].update(injection=[-1, 0]),
    lambda d: d["rounds"][0].update(extraction="1"),
], ids=["missing-config", "config-list", "missing-n-bins", "string-n-bins",
        "bool-delay", "nan-tau", "missing-rounds", "rounds-object",
        "round-list", "missing-passes", "pass-number", "missing-central",
        "three-part-tick", "string-angle", "inf-angle", "huge-angle", "int-switches",
        "missing-exit-switch", "float-injection", "negative-injection",
        "string-extraction"])
def test_schedule_json_rejects_malformed_documents(edit):
    doc = json.loads(GOOD_SCHEDULE)
    edit(doc)
    with pytest.raises(LoopError):
        schedule_from_json(json.dumps(doc))


def test_schedule_json_rejects_non_object_document():
    with pytest.raises(LoopError):
        schedule_from_json("[]")


# ------------------------------------------------- cross-check vs direct fock


def test_cascade_pass_matches_direct_network():
    """A full-boundary pass equals the explicit chain of two-mode splitters.

    Build the same network by hand on bins + one loop mode, then compare
    against the machine output for a two-photon state.
    """
    n = 3
    interior = [(0.7, 0.2), (1.1, -0.5)]
    entry_phase, exit_phase = 0.3, -0.9
    s = FockState(3, 2, {(1, 1, 0): 0.5, (0, 1, 1): 0.5,
                         (1, 0, 1): math.sqrt(0.5)})

    # by hand: modes (0,1,2) = bins, 3 = inner loop, 4 = extra output slot
    big = s.tensor(FockState.from_occupation((0, 0)))
    angles = [(math.pi / 2, entry_phase)] + interior + [(math.pi / 2, exit_phase)]
    for t in range(3):
        big = apply_beamsplitter(big, 3, t, *angles[t])
    big = apply_beamsplitter(big, 3, 4, *angles[3])
    expected = {}
    for occ, amp in big.items():
        assert occ[0] == 0 and occ[3] == 0
        expected[(occ[1], occ[2], occ[4])] = amp

    m = Machine(LoopConfig(n_bins=3))
    m.load_pulse_train(s)
    m.run_pass(PassSettings.cascade(interior, entry_phase=entry_phase,
                                    exit_phase=exit_phase))
    for occ, amp in expected.items():
        assert m.train.amplitude(occ) == pytest.approx(amp, abs=1e-12)


# ------------------------------------------------- matrix engine vs ticks


def random_pass(rng, n):
    """A cascade pass with random interior ticks, or (one in three) a
    passthrough pass whose closed ticks randomly flip signs."""
    if rng.random() < 1 / 3:
        return PassSettings(central=tuple(
            (float(rng.choice([0.0, math.pi, -math.pi, 2 * math.pi])),
             rng.uniform(-math.pi, math.pi)) for _ in range(n + 1)))
    interior = [(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
                for _ in range(n - 1)]
    return PassSettings.cascade(interior,
                                entry_phase=rng.uniform(-math.pi, math.pi),
                                exit_phase=rng.uniform(-math.pi, math.pi))


def random_state(rng, n, photons, n_terms, norm=1.0):
    amps = {}
    for _ in range(n_terms):
        occ = [0] * n
        for mode in rng.integers(n, size=photons):
            occ[mode] += 1
        amps[tuple(occ)] = complex(rng.standard_normal(), rng.standard_normal())
    scale = norm / math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return FockState(n, photons, {k: a * scale for k, a in amps.items()},
                     normalized=norm == 1.0)


def max_amplitude_gap(a, b):
    keys = set(a.amplitudes) | set(b.amplitudes)
    return max(abs(a.amplitude(k) - b.amplitude(k)) for k in keys)


def test_pass_matrix_matches_tick_oracle_on_random_passes():
    rng = np.random.default_rng(SEED + 10)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        photons = int(rng.integers(1, 4))
        norm = 1.0 if trial % 2 else float(rng.uniform(0.2, 0.9))
        state = random_state(rng, n, photons, int(rng.integers(1, 5)), norm)
        settings = random_pass(rng, n)
        expected = tick_pass(state, settings)

        engine = apply_mode_unitary(state, pass_matrix(settings, n))
        assert max_amplitude_gap(engine, expected) < 1e-12

        m = Machine(LoopConfig(n_bins=n))
        m.load_pulse_train(state)
        m.run_pass(settings, pass_index=trial)
        assert max_amplitude_gap(m.train, expected) < 1e-12
        assert m.train.normalized == state.normalized
        assert m.train.norm_squared() == pytest.approx(norm ** 2, abs=1e-12)


def tick_run_schedule(machine, schedule, controller=None, rng=None):
    """``run_schedule`` with every pass streamed tick by tick."""
    for r, rp in enumerate(schedule.rounds):
        machine.round_index = r
        if rp.injection is not None:
            machine.inject_ancilla(rp.injection)
        passes = rp.passes
        if controller is not None and r > 0:
            passes = tuple(controller(machine.record, rp.passes))
        for k, settings in enumerate(passes):
            machine.train = tick_pass(machine.train, settings)
            machine.trace.extend(
                {"event": "tick", "round": r, "pass": k, "tick": t,
                 "theta": theta, "phi": phi,
                 "entry_open": False, "exit_open": False}
                for t, (theta, phi) in enumerate(settings.central))
        if rp.extraction is not None:
            machine.extract_ancilla(rp.extraction, rng)
    return machine.train, machine.record, machine.trace


def test_run_schedule_matches_tick_oracle_with_feed_forward():
    """Rounds grow the train 3 -> 5 -> 4 -> 5 -> 3 bins, with extraction
    mid-schedule; the controller picks later rounds' passes from the last
    outcome.  Both runs share the rng seed, so they sample the same path."""
    rng = np.random.default_rng(SEED + 11)
    for trial in range(12):
        alt = {n: [random_pass(rng, n) for _ in range(2)] for n in (4, 5)}

        def controller(record, planned):
            if sum(record.entries[-1].outcome) % 2:
                return alt[planned[0].n_ticks - 1]
            return planned

        cfg = LoopConfig(n_bins=3, outer_delay_bins=6)
        schedule = LoopSchedule(cfg, (
            RoundPlan(injection=(1, 0),
                      passes=[random_pass(rng, 5) for _ in range(3)],
                      extraction=(4,)),
            RoundPlan(passes=[random_pass(rng, 4)], extraction=None),
            RoundPlan(injection=(1,),
                      passes=[random_pass(rng, 5) for _ in range(2)],
                      extraction=(3, 4)),
        ))
        state = random_state(rng, 3, int(rng.integers(1, 3)), 3)
        runs = []
        for run in (run_schedule, tick_run_schedule):
            m = Machine(cfg)
            m.load_pulse_train(state)
            runs.append(run(m, schedule, controller=controller,
                            rng=np.random.default_rng([SEED, trial])))
        (final, record, trace), (ref, ref_record, ref_trace) = runs
        assert max_amplitude_gap(final, ref) < 1e-12
        assert [e.outcome for e in record.entries] == \
            [e.outcome for e in ref_record.entries]
        for e, f in zip(record.entries, ref_record.entries):
            assert e.probability == pytest.approx(f.probability, abs=1e-12)
        strip = [{k: v for k, v in e.items() if k != "probability"}
                 for e in trace]
        assert strip == [{k: v for k, v in e.items() if k != "probability"}
                         for e in ref_trace]


def test_smearing_pass_rejected_by_every_route():
    bad = PassSettings(central=((math.pi / 2, 0.0), (0.0, 0.0), (0.4, 0.0)))
    state = FockState.from_occupation((1, 0))
    with pytest.raises(LoopError):
        pass_matrix(bad, 2)
    with pytest.raises(LoopError):
        tick_pass(state, bad)
    m = Machine(LoopConfig(n_bins=2))
    m.load_pulse_train(state)
    with pytest.raises(LoopError):
        m.run_pass(bad)
    m = Machine(LoopConfig(n_bins=2))
    m.load_pulse_train(state)
    good = PassSettings.cascade([(0.3, 0.1)])
    with pytest.raises(LoopError):
        run_schedule(m, LoopSchedule.passive(m.config, [good, bad]))
