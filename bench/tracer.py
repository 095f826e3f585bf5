"""Spans around calls into the loopqc layers, installed from outside.

``Tracer.install`` replaces each instrumented function with a wrapper in
every loopqc module that holds a reference to it, so calls that one layer
makes into another (``loop`` calling ``fock.apply_beamsplitter``,
``compiler`` calling ``loop.effective_unitary``, ``gates`` calling
``compiler.compile_unitary``) are caught as well as the benchmark's own
calls.  ``uninstall`` puts the originals back.  No file under ``src/`` is
touched, and an untraced run installs nothing.

A span is (name, start, end, parent span, job id).  Spans are kept in
memory, up to ``max_spans`` of them, and written out by ``save``; counts and
self times are aggregated as spans close, so they stay exact past the cap.
"""

from __future__ import annotations

import array
import time
from pathlib import Path

import numpy as np

# (span name, module, attribute) for every instrumented function.  A dotted
# attribute is patched on the object it names: a method on its class, the
# ``simulate`` command's callback on the click command.
SPANS = (
    ("fock.state_init", "fock", "FockState.__init__"),
    ("fock.apply_beamsplitter", "fock", "apply_beamsplitter"),
    ("fock.apply_mode_unitary", "fock", "apply_mode_unitary"),
    ("fock.measure_modes", "fock", "measure_modes"),
    ("loop.run_pass", "loop", "Machine.run_pass"),
    ("loop.inject_extract", "loop", "Machine.inject_ancilla"),
    ("loop.inject_extract", "loop", "Machine.extract_ancilla"),
    ("loop.run_schedule", "loop", "run_schedule"),
    ("loop.effective_unitary", "loop", "effective_unitary"),
    ("compiler.reck_decompose", "compiler", "reck_decompose"),
    ("compiler.compile_unitary", "compiler", "compile_unitary"),
    ("compiler.verify_schedule", "compiler", "verify_schedule"),
    ("gates.klm_round", "gates", "klm_round"),
    ("cluster.bond", "cluster", "bond_micro_clusters"),
    ("cluster.measure", "cluster", "measure_x"),
    ("cluster.measure", "cluster", "measure_y"),
    ("cluster.measure", "cluster", "measure_z"),
    ("cluster.compose_frame", "cluster", "GraphState.compose_frame"),
    ("cluster.neighbors", "cluster", "GraphState.neighbors"),
    ("cluster.fusion", "cluster", "fusion_type_i"),
    ("cluster.fusion", "cluster", "fusion_type_ii"),
    ("cluster.graph_to_fock", "cluster", "graph_to_fock"),
    ("cli.simulate", "cli", "cmd_simulate.callback"),
    ("seeding.derive_rng", "seeding", "derive_rng"),
)

# (inner span, enclosing span) pairs whose nested time and calls are kept,
# for the shares that the notes compare with the ROADMAP baseline
NESTED = (
    ("compiler.verify_schedule", "compiler.compile_unitary"),
    ("compiler.compile_unitary", "gates.klm_round"),
    ("fock.state_init", "loop.effective_unitary"),
)


class Tracer:
    def __init__(self, max_spans: int = 500_000):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.nested_s = {pair: 0.0 for pair in NESTED}
        self.nested_calls = {pair: 0 for pair in NESTED}
        self._watch: dict[int, list] = {}
        self._open: list[int] = []
        self._stack: list = []
        self.active = False
        self.job = -1
        self.n_spans = 0
        self.max_spans = max_spans
        self._name = array.array("i", bytes(4 * max_spans))
        self._parent = array.array("i", bytes(4 * max_spans))
        self._job = array.array("i", bytes(4 * max_spans))
        self._start = array.array("d", bytes(8 * max_spans))
        self._end = array.array("d", bytes(8 * max_spans))
        self.peak_kets = 0
        self.ticks = 0
        self.compiled_passes: list[int] = []
        self.verify_max_error = 0.0
        self._patched: list = []
        for inner, outer in NESTED:
            self._watch.setdefault(self.span_id(inner), []).append(
                (self.span_id(outer), (inner, outer)))

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self._open.append(0)
        return self._ids[name]

    def stat(self, name: str):
        """(calls, self seconds, total seconds) of one span name."""
        i = self._ids.get(name)
        return (0, 0.0, 0.0) if i is None else (self.calls[i], self.self_s[i], self.total_s[i])

    def wrap(self, name: str, fn, after=None):
        sid = self.span_id(name)
        clock = time.perf_counter
        stack = self._stack
        opened = self._open
        watch = self._watch.get(sid, ())

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.n_spans
            self.n_spans = idx + 1
            parent = stack[-1][0] if stack else -1
            frame = [idx, clock(), 0.0]
            stack.append(frame)
            opened[sid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[sid] -= 1
                start = frame[1]
                dur = end - start
                self.calls[sid] += 1
                self.self_s[sid] += dur - frame[2]
                self.total_s[sid] += dur
                if stack:
                    stack[-1][2] += dur
                for outer, pair in watch:
                    if opened[outer]:
                        self.nested_s[pair] += dur
                        self.nested_calls[pair] += 1
                if idx < self.max_spans:
                    self._name[idx] = sid
                    self._parent[idx] = parent
                    self._job[idx] = self.job
                    self._start[idx] = start
                    self._end[idx] = end
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-span hooks ---------------------------------------------------

    def _after_state_init(self, args, _result):
        kets = len(args[0].amplitudes)
        if kets > self.peak_kets:
            self.peak_kets = kets

    def _after_run_pass(self, args, _result):
        self.ticks += args[1].n_ticks

    def _after_compile(self, _args, schedule):
        self.compiled_passes.append(schedule.n_passes)

    def _after_verify(self, _args, error):
        self.verify_max_error = max(self.verify_max_error, float(error))

    # -- patching ---------------------------------------------------------

    def install(self, lq):
        """Wrap every function in SPANS wherever a loopqc module refers to it."""
        hooks = {"fock.state_init": self._after_state_init,
                 "loop.run_pass": self._after_run_pass,
                 "compiler.compile_unitary": self._after_compile,
                 "compiler.verify_schedule": self._after_verify}
        modules = lq.modules()
        for name, mod_name, attr in SPANS:
            owner = getattr(lq, mod_name)
            if "." in attr:
                obj_name, key = attr.split(".")
                obj = getattr(owner, obj_name)
                original = vars(obj)[key]
                self._patched.append((obj, key, original))
                setattr(obj, key, self.wrap(name, original, hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def save(self, path: Path):
        """Write the kept spans as arrays plus the span-name table."""
        n = min(self.n_spans, self.max_spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self._name, np.int32)[:n],
            parent=np.frombuffer(self._parent, np.int32)[:n],
            job=np.frombuffer(self._job, np.int32)[:n],
            start=np.frombuffer(self._start, np.float64)[:n],
            end=np.frombuffer(self._end, np.float64)[:n])
