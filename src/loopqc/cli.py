"""Command-line surface: compile, simulate, bond, gates.

Every command reads/writes the JSON formats defined by the core modules,
embeds its full resolved configuration (flags and defaults) plus the seed
in the report, and never emits timestamps, so identical inputs and seed
produce byte-identical output.  Exit codes: 0 success, 1 input error,
2 verification/tolerance failure, 3 internal error.
"""

import functools
import json
import sys

import click
import numpy as np

from .cluster import (
    GraphError,
    GraphState,
    apply_fusion_graph_rule,
    bond_success_trials,
    fusion_type_i,
    fusion_type_ii,
    graph_to_fock,
    required_branches,
)
from .compiler import CompileError, VerificationError, compile_unitary, \
    verify_schedule
from .fock import FockError, FockState, header, state_from_json, \
    state_to_json, unitary_from_json
from .gates import GADGETS, GateError, cz_gate, dual_rail_ket, \
    gadget_library, ns_gate
from .loop import LoopError, Machine, run_schedule, schedule_from_json, \
    schedule_to_json, trace_to_jsonl
from .seeding import derive_rng

_INPUT_ERRORS = (FockError, LoopError, CompileError, GateError, GraphError,
                 OSError, json.JSONDecodeError, KeyError, TypeError,
                 ValueError)


# Every echo names its stream.  Without ``file=``, click caches a wrapper
# for each redirected stdout/stderr, and that cache entry keeps the stream
# and everything written to it alive for the life of the process.
def _fail(code: int, message) -> None:
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except VerificationError as exc:
            _fail(2, exc)
        except _INPUT_ERRORS as exc:
            _fail(1, exc)
        except Exception as exc:  # pragma: no cover - defensive
            _fail(3, f"internal: {exc!r}")
    return wrapper


def _emit(text: str, out_path) -> None:
    click.echo(text, file=sys.stdout)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _report(command: str, config: dict, body: dict) -> str:
    doc = {**header("run-report"), "command": command, "config": config}
    doc.update(body)
    return json.dumps(doc, sort_keys=True, indent=2)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


@click.group()
def main():
    """Compiler and simulator for a two-loop time-bin photonic machine."""


# ---------------------------------------------------------------- compile


@main.command("compile")
@click.argument("unitary_file")
@click.option("--out", default=None, help="Write the schedule JSON here.")
@click.option("--tol", default=1e-9, show_default=True,
              help="Verification tolerance (max-norm, global-phase free).")
@click.option("--seed", default=0, show_default=True,
              help="Recorded in the report; compilation is deterministic.")
@_guard
def cmd_compile(unitary_file, out, tol, seed):
    """Compile a mode unitary into a pass schedule and verify it."""
    u = unitary_from_json(_read(unitary_file))
    schedule = compile_unitary(u, tol=tol)
    error = verify_schedule(schedule, u)
    schedule_text = schedule_to_json(schedule)
    if out:
        with open(out, "w") as fh:
            fh.write(schedule_text + "\n")
    config = {"unitary_file": unitary_file, "out": out, "tol": tol,
              "seed": seed}
    body = {"n_bins": u.shape[0], "n_passes": schedule.n_passes,
            "max_error": error, "ok": True,
            "schedule": json.loads(schedule_text)}
    click.echo(_report("compile", config, body), file=sys.stdout)


# --------------------------------------------------------------- simulate


@main.command("simulate")
@click.argument("schedule_file")
@click.argument("state_file")
@click.option("--seed", default=0, show_default=True)
@click.option("--shots", default=0, show_default=True,
              help="Sample a full-train detection this many times.")
@click.option("--out", default=None, help="Also write the output here.")
@click.option("--trace", "trace_path", default=None,
              help="Write the tick-level trace (JSON lines) here.")
@click.option("--format", "fmt", default="json", show_default=True,
              help="Output format: json, or csv (histogram; needs --shots).")
@_guard
def cmd_simulate(schedule_file, state_file, seed, shots, out, trace_path, fmt):
    """Run a schedule on an input pulse train."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "csv" and shots <= 0:
        raise ValueError("csv output is a shot histogram; pass --shots N")
    schedule = schedule_from_json(_read(schedule_file))
    state = state_from_json(_read(state_file))
    machine = Machine(schedule.config)
    machine.load_pulse_train(state)
    run_schedule(machine, schedule, rng=derive_rng(seed, "extract"))
    final = machine.train
    if trace_path:
        with open(trace_path, "w") as fh:
            fh.write(trace_to_jsonl(machine.trace))

    config = {"schedule_file": schedule_file, "state_file": state_file,
              "seed": seed, "shots": shots, "out": out,
              "trace": trace_path, "format": fmt}
    record = [{"round": e.round_index, "bins": list(e.bins),
               "outcome": list(e.outcome), "probability": e.probability}
              for e in machine.record.entries]

    if shots > 0:
        patterns = sorted(occ for occ, _ in final.items())
        probs = np.array([abs(final.amplitude(p)) ** 2 for p in patterns])
        probs = probs / probs.sum()
        counts = derive_rng(seed, "shots").multinomial(shots, probs)
        histogram = {",".join(map(str, p)): int(c)
                     for p, c in zip(patterns, counts) if c > 0}
        if fmt == "csv":
            lines = ["outcome,count"]
            lines += [f"\"{k}\",{v}" for k, v in sorted(histogram.items())]
            _emit("\n".join(lines), out)
            return
        body = {"histogram": histogram, "record": record}
        _emit(_report("simulate", config, body), out)
        return

    body = {"final_state": json.loads(state_to_json(final)),
            "record": record}
    _emit(_report("simulate", config, body), out)


# ------------------------------------------------------------------- bond


@main.command("bond")
@click.argument("p_gate", type=float)
@click.argument("p_bond", type=float)
@click.option("--trials", default=0, show_default=True,
              help="Monte-Carlo trials; 0 emits the analytic row only.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, help="Also write the report here.")
@click.option("--format", "fmt", default="csv", show_default=True,
              help="Output format: csv or json.")
@_guard
def cmd_bond(p_gate, p_bond, trials, seed, out, fmt):
    """Branch count and success statistics for star bonding."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    k = required_branches(p_gate, p_bond)
    analytic = 1.0 - (1.0 - p_gate) ** k
    if trials > 0:
        successes = bond_success_trials(p_gate, k, trials,
                                        derive_rng(seed, "bond"))
        rate = successes / trials
    else:
        successes, rate = None, None

    if fmt == "csv":
        row = [repr(float(p_gate)), str(k), str(trials),
               "" if successes is None else str(successes),
               "" if rate is None else repr(rate), repr(analytic)]
        text = "p_gate,k,trials,successes,rate,analytic_rate\n" + ",".join(row)
        _emit(text, out)
        return
    config = {"p_gate": p_gate, "p_bond": p_bond, "trials": trials,
              "seed": seed, "out": out, "format": fmt}
    body = {"k": k, "successes": successes, "rate": rate,
            "analytic_rate": analytic}
    _emit(_report("bond", config, body), out)


# ------------------------------------------------------------------ gates


def _complex_pair(z: complex):
    return [z.real, z.imag]


def _run_ns(seed, mode):
    amps = derive_rng(seed, "gates", "ns", "input").standard_normal(3) \
        + 1j * derive_rng(seed, "gates", "ns", "input-imag").standard_normal(3)
    amps = amps / np.linalg.norm(amps)
    state = FockState(2, 2, {(0, 2): amps[0], (1, 1): amps[1],
                             (2, 0): amps[2]})
    oracle = FockState(2, 2, {(0, 2): amps[0], (1, 1): amps[1],
                              (2, 0): -amps[2]})
    if mode == "postselect":
        res = ns_gate(state, 0, postselect=True)
    else:
        res = ns_gate(state, 0, rng=derive_rng(seed, "gates", "ns", "herald"))
    body = {"input_amplitudes": [_complex_pair(a) for a in amps],
            "success": res.success, "probability": res.probability,
            "herald_probability": GADGETS["ns"].success_probability}
    if res.success:
        body["fidelity"] = abs(res.state.overlap(oracle))
    return body


def _run_cz(seed, mode, bits):
    if bits not in ("00", "01", "10", "11"):
        raise ValueError(f"--bits must be two binary digits, got {bits!r}")
    b = (int(bits[0]), int(bits[1]))
    state = dual_rail_ket(b)
    if mode == "postselect":
        res = cz_gate(state, (0, 1), (2, 3), postselect=True)
    else:
        res = cz_gate(state, (0, 1), (2, 3),
                      rng=derive_rng(seed, "gates", "cz", "herald"))
    body = {"bits": bits, "success": res.success,
            "probability": res.probability,
            "herald_probability": GADGETS["cz"].success_probability}
    if res.success:
        sign = -1.0 if b == (1, 1) else 1.0
        oracle = dual_rail_ket(b)
        body["fidelity"] = abs(res.state.overlap(oracle))
        occ = tuple(oracle.items())[0][0]
        body["logical_amplitude"] = _complex_pair(res.state.amplitude(occ))
        body["expected_sign"] = sign
    return body


def _run_fusion(seed, mode, gadget):
    fuse = fusion_type_i if gadget == "fusion1" else fusion_type_ii
    g = GraphState([0, 1, 2, 3], [(0, 1), (2, 3)])
    state = graph_to_fock(g)
    va, vb = 1, 2
    pair_a, pair_b = (2, 3), (4, 5)
    if mode == "postselect":
        # deterministic scan for the first heralded success
        for attempt in range(1000):
            res = fuse(state, pair_a, pair_b,
                       derive_rng(seed, "gates", gadget, "scan", attempt))
            if res.success:
                break
    else:
        res = fuse(state, pair_a, pair_b,
                   derive_rng(seed, "gates", gadget, "herald"))
    action = dict(res.graph_action)
    if "z_outcomes" in action:
        action["z_outcomes"] = list(action["z_outcomes"])
    body = {"success": res.success, "outcome": list(res.outcome),
            "probability": res.probability,
            "herald_probability": res.success_probability,
            "graph_action": action}
    if res.success:
        pred = apply_fusion_graph_rule(g, va, vb, res.graph_action)
        body["fidelity"] = abs(graph_to_fock(pred).overlap(res.state))
    return body


@main.command("gates")
@click.argument("gadget", required=False)
@click.option("--mode", default="postselect", show_default=True,
              help="postselect forces the herald; sample draws it.")
@click.option("--seed", default=0, show_default=True)
@click.option("--bits", default="11", show_default=True,
              help="Logical input for the cz gadget.")
@click.option("--library", is_flag=True,
              help="Print the gadget library (circuits, heralds) as JSON.")
@click.option("--out", default=None, help="Also write the report here.")
@_guard
def cmd_gates(gadget, mode, seed, bits, library, out):
    """Run a heralded gadget on a canned input and check its oracle."""
    if library:
        _emit(json.dumps(gadget_library(), sort_keys=True, indent=2), out)
        return
    if gadget is None:
        raise ValueError("pass a gadget name (ns, cz, fusion1, fusion2) "
                         "or --library")
    if mode not in ("sample", "postselect"):
        raise ValueError(f"unknown mode {mode!r}")
    if gadget == "ns":
        body = _run_ns(seed, mode)
    elif gadget == "cz":
        body = _run_cz(seed, mode, bits)
    elif gadget in ("fusion1", "fusion2"):
        body = _run_fusion(seed, mode, gadget)
    else:
        raise ValueError(f"unknown gadget {gadget!r}; "
                         "expected ns, cz, fusion1, or fusion2")
    config = {"gadget": gadget, "mode": mode, "seed": seed, "bits": bits,
              "out": out}
    _emit(_report("gates", config, body), out)


if __name__ == "__main__":
    main()
