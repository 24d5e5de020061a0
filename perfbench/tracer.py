"""Span tracer for the traced benchmark run.

The tracer wraps the public functions and methods of every qbc module
from the outside. A function imported by name into other modules is
replaced in every namespace that holds it, so a call records one span
whichever module it goes through. Spans (name, start, end, parent) are
kept in memory and written out once the run ends.

A span belongs to the layer of the module that defines its function.
A layer's self time is the sum of its spans' self times; a span's self
time is its duration minus the time its child spans cover. Counts are
recorded at the same boundaries, from the call's arguments or result.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
import tracemalloc
from time import perf_counter

LAYERS = (
    "statevector", "oracles", "counting", "protocol", "ledger",
    "experiment", "cli", "bitplane", "adversary",
)

GATES = {"h", "x", "z", "phase", "cz", "cnot", "swap", "reflect_about_zero"}
MASKS = {"bit_values", "register_values"}
MEASURES = {"measure", "probability", "outcome_distribution"}
ORACLES = {
    "apply_data_oracle", "apply_correlation_gate", "apply_phase_pad",
    "apply_ux1", "apply_ux2", "apply_ux3", "apply_ux4",
}
BOOKKEEPING = {"transfer", "require_owner", "begin_round", "end_round"}
RUNS = {"run_qbc_baseline", "run_blind_server", "run_blind_client", "run_multiparty"}
READOUT_PARENTS = {"run_counting", "counting_distribution"}
ROUND = "ProtocolSim.round"

NO_PARENT = -1


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the durations of its
    direct children. Spans are [name_id, parent, start, end] records;
    children of one parent never overlap in single-threaded code."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent != NO_PARENT:
            out[parent] -= end - start
    return out


class Group:
    """Calls to a set of functions, with the inclusive time of the
    outermost ones (a call made inside another call of the group adds
    to `calls` but not to `outer_calls` or `outer_s`)."""

    def __init__(self):
        self.depth = 0
        self.calls = 0
        self.outer_calls = 0
        self.outer_s = 0.0


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[tuple[str, str]] = []  # name id -> (layer, qualname)
        self.spans: list[list] = []
        self.current = NO_PARENT
        self.groups: dict[str, Group] = {}
        self.counts = {
            "amps_touched": 0, "controlled_calls": 0, "circuit_ops": 0,
            "rounds": 0, "qubits_sent": 0, "records": 0, "executions": 0,
            "planes": 0, "mc_draws": 0,
        }
        self.timers = {"diffusion_s": 0.0, "readout_s": 0.0}
        self.adversary_peak_bytes = 0
        self._round_id = self._name_id("protocol", ROUND)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self, package):
        """Wrap every public function and method of package's modules."""
        modules = [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapped[id(value)] = self._wrap(value, layer, attr)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_methods(value, layer)
        for namespace in modules + [package]:
            for attr, value in list(vars(namespace).items()):
                wrapper = wrapped.get(id(value)) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patch(namespace, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_methods(self, cls, layer):
        if any(base.__module__ == "enum" for base in cls.__mro__):
            return
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(value, layer, f"{cls.__name__}.{attr}"))

    def _name_id(self, layer, name) -> int:
        self.names.append((layer, name))
        return len(self.names) - 1

    def _group(self, key) -> Group:
        return self.groups.setdefault(key, Group())

    # -- the wrapper ----------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        nid = self._name_id(layer, qualname)
        short = qualname.rsplit(".", 1)[-1]
        group, hook = self._instrument(fn, layer, short)
        memory = layer == "adversary"
        tracer = self
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.current
            rec = [nid, parent, 0.0, 0.0]
            tracer.current = len(spans)
            spans.append(rec)
            outer = True
            if group is not None:
                outer = group.depth == 0
                group.depth += 1
            if memory and outer:
                tracemalloc.start()
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                tracer.current = parent
                if group is not None:
                    group.depth -= 1
                if memory and outer:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.adversary_peak_bytes = max(tracer.adversary_peak_bytes, peak)
            if group is not None:
                group.calls += 1
                if outer:
                    group.outer_calls += 1
                    group.outer_s += rec[3] - rec[2]
            if hook is not None:
                hook(args, kwargs, result, rec, outer)
            return result

        return wrapper

    def _instrument(self, fn, layer, name):
        """The group a function's calls count in, and a hook that turns
        the call into counts. Both are None for uncounted functions."""
        if layer == "statevector":
            if name in GATES:
                return self._group("gate"), self._gate_hook(fn)
            if name in MASKS:
                return self._group("mask"), None
            if name in MEASURES:
                return self._group("measure"), self._readout_hook
            if name == "apply_gate":
                return self._group("apply_gate"), self._apply_gate_hook
        if layer == "oracles":
            if name in ORACLES:
                return self._group("oracle"), None
            if name == "padded_table":
                return self._group("table"), None
        if layer == "counting":
            if name == "work_leakage":
                return self._group("workcheck"), None
            if name == "build_counting_circuit":
                return None, self._count_result("circuit_ops", len)
        if layer == "protocol":
            if name in BOOKKEEPING:
                hooks = {"begin_round": self._open_round, "end_round": self._close_round}
                return self._group("bookkeeping"), hooks.get(name)
            if name in RUNS:
                return None, self._ledger_hook
        if layer == "ledger" and name == "count_oracle":
            return self._group("count_oracle"), None
        if layer == "experiment" and name == "run_experiment":
            return None, self._count_result("records", len)
        if layer == "bitplane" and name == "regression_demo":
            return None, self._bitplane_hook
        if layer == "adversary":
            return self._group("adversary"), self._draws_hook(fn, name)
        return None, None

    # -- hooks ----------------------------------------------------------

    def _gate_hook(self, fn):
        pos = list(inspect.signature(fn).parameters).index("controls")

        def hook(args, kwargs, result, rec, outer):
            if not outer:
                return
            self.counts["amps_touched"] += 1 << args[0].num_qubits
            controls = args[pos] if len(args) > pos else kwargs.get("controls", ())
            if controls:
                self.counts["controlled_calls"] += 1

        return hook

    def _readout_hook(self, args, kwargs, result, rec, outer):
        parent = rec[1]
        if outer and parent != NO_PARENT:
            if self.names[self.spans[parent][0]][1] in READOUT_PARENTS:
                self.timers["readout_s"] += rec[3] - rec[2]

    def _apply_gate_hook(self, args, kwargs, result, rec, outer):
        if not outer:
            return
        kind = args[1].kind
        if kind in ("h", "reflect0"):
            self.timers["diffusion_s"] += rec[3] - rec[2]
        elif kind == "iqft":
            self.timers["readout_s"] += rec[3] - rec[2]

    def _count_result(self, key, measure):
        def hook(args, kwargs, result, rec, outer):
            self.counts[key] += measure(result)

        return hook

    def _ledger_hook(self, args, kwargs, result, rec, outer):
        self.counts["rounds"] += result.ledger.grover_rounds
        self.counts["qubits_sent"] += result.ledger.quantum_qubits_sent

    def _bitplane_hook(self, args, kwargs, result, rec, outer):
        self.counts["executions"] += result.num_executions
        self.counts["planes"] += result.num_planes

    def _open_round(self, args, kwargs, result, rec, outer):
        """Open a span that covers a party round up to end_round, so the
        round closure's own time is protocol time, not counting time."""
        self.spans.append([self._round_id, self.current, perf_counter(), 0.0])
        self.current = len(self.spans) - 1

    def _close_round(self, args, kwargs, result, rec, outer):
        span = self.spans[self.current]
        if span[0] == self._round_id:
            span[3] = perf_counter()
            self.current = span[1]

    def _draws_hook(self, fn, name):
        """Random values an adversary call draws itself, from its
        arguments (calls it makes to other adversary functions count in
        their own hooks)."""
        draws = ADVERSARY_DRAWS.get(name)
        if draws is None:
            return None
        sig = inspect.signature(fn)

        def hook(args, kwargs, result, rec, outer):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["mc_draws"] += draws(**bound.arguments)

        return hook

    # -- results ----------------------------------------------------------

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        own = self_times(self.spans)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for span, s in zip(self.spans, own):
            self_s[self.names[span[0]][0]] += s
        g = self.groups
        c = self.counts

        def group(key) -> Group:
            return g.get(key, Group())

        attributed = math.fsum(self_s.values())
        sv_self = self_s["statevector"]
        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        m.update({
            "statevector.gate_calls": group("gate").outer_calls,
            "statevector.amps_touched": c["amps_touched"],
            "statevector.amps_per_s": c["amps_touched"] / sv_self if sv_self > 0 else 0.0,
            "statevector.controlled_calls": c["controlled_calls"],
            "statevector.mask_calls": group("mask").outer_calls,
            "statevector.mask_s": group("mask").outer_s,
            "statevector.measure_s": group("measure").outer_s,
            "oracles.calls": group("oracle").calls,
            "oracles.table_builds": group("table").calls,
            "counting.diffusion_s": self.timers["diffusion_s"],
            "counting.readout_s": self.timers["readout_s"],
            "counting.workcheck_s": group("workcheck").outer_s,
            "counting.circuit_ops": c["circuit_ops"],
            "protocol.bookkeeping_s": group("bookkeeping").outer_s,
            "protocol.rounds": c["rounds"],
            "protocol.qubits_sent": c["qubits_sent"],
            "ledger.calls": group("count_oracle").calls,
            "experiment.records": c["records"],
            "bitplane.executions": c["executions"],
            "bitplane.exec_per_plane": c["executions"] / c["planes"] if c["planes"] else 0.0,
            "adversary.mc_draws": c["mc_draws"],
            "adversary.peak_traced_mb": self.adversary_peak_bytes / 2**20,
            "trace.traced_wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.unattributed_s": traced_wall - attributed,
            "trace.overhead_ratio": traced_wall / untraced_wall if untraced_wall > 0 else 0.0,
        })
        return m

    def write_spans(self, path):
        """Gzipped CSV, one row per span: id, parent, layer, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,layer,name,start_s,end_s\n")
            for i, (nid, parent, start, end) in enumerate(self.spans):
                layer, name = self.names[nid]
                fh.write(f"{i},{parent},{layer},{name},{start!r},{end!r}\n")


def _plus_probe_draws(y, t, rng, rounds, quantum, trials, fill_unknown):
    rounds = (1 << t) - 1 if rounds is None else rounds
    use_quantum = quantum if quantum is not None else rounds <= 64
    width = max(1, (len(y) - 1).bit_length())
    per_round = width + 1 if use_quantum else 1
    return rounds * per_round + trials * rounds


def _worst_case_draws(y, t, rng, trials):
    return len(y) + min((1 << t) - 1, len(y))


def _overlap_mc_draws(num_values, d_y, t, rng, trials):
    return trials * num_values if min((1 << t) - 1, d_y) > 0 else 0


ADVERSARY_DRAWS = {
    "attack_plus_probe": _plus_probe_draws,
    "attack_blind_server_worst_case": _worst_case_draws,
    "overlap_mc_pmf": _overlap_mc_draws,
}
