"""Per-layer tracing of twirlkit from outside the package.

``Tracer.install`` replaces every public function of the seven layer
modules, wherever a twirlkit module holds a reference to it, with a timing
wrapper; ``uninstall`` puts the originals back.  Replacing the reference a
caller looks up (``twirlkit.circuits.clifford_mapping_z0_to`` as well as
``twirlkit.tableau.clifford_mapping_z0_to``) is what makes a call from
another module land in a span.  A few counters ride on the wrappers.

Each span's self time is its duration minus the time of the spans nested
under it in other layers, so a layer's self time is the time during which
its own code, and not a callee in another layer, was running.  Spans are
kept in memory (up to ``SPAN_CAP``) and written out by ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("paulis", "tableau", "channels", "twirl", "circuits", "dense", "cli")
SPAN_CAP = 50_000
_SAMPLED_MODES = ("full", "ksparse")


def _is_sampled(circuit) -> bool:
    return any(getattr(layer, "twirl_mode", None) in _SAMPLED_MODES for layer in circuit.layers)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [package] + [getattr(package, name) for name in LAYERS]
        self.stack: list[list] = []  # [layer, time in other-layer spans, span id]
        self.active: Counter = Counter()
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self_s
        self.layer_self: Counter = Counter()
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._patches: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, key: str, func, target=None):
        """Span wrapper with ``func``'s name that calls ``target`` (default ``func``)."""
        stack, active, stats, perf = self.stack, self.active, self.stats, time.perf_counter
        target = target or func

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(self.spans) + self.dropped
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            active[key] += 1
            start = perf()
            try:
                return target(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[key] -= 1
                dur = end - start
                own = dur - frame[1]
                entry = stats[key]
                entry[0] += 1
                if not active[key]:  # outermost call of a recursion counts once
                    entry[1] += dur
                    entry[2] += own
                if parent is not None and parent[0] == layer:
                    parent[1] += frame[1]
                else:
                    self.layer_self[layer] += own
                    if parent is not None:
                        parent[1] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent[2] if parent else None, key, start, end))
                else:
                    self.dropped += 1

        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for module in self.modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)
                    self._patches.append((module, name, original))

    def install(self) -> None:
        hooks = self._hooks()
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for name, func in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(func):
                    continue
                if func.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                counted = hooks[key](func) if key in hooks else None
                self._replace_everywhere(func, self._wrap(layer, key, func, counted))
        # The k-sparse table and weight-capped fidelities go through this method.
        factor = self.package.channels.WeightAtMostFactor
        method = factor.mean_chi_local
        factor.mean_chi_local = self._wrap("channels", "channels.mean_chi_local", method)
        self._patches.append((factor, "mean_chi_local", method))
        pauli_op = self.package.paulis.PauliOp
        post_init = pauli_op.__post_init__
        counters = self.counters

        def counted_post_init(op):
            counters["paulis.PauliOp.constructed"] += 1
            post_init(op)

        pauli_op.__post_init__ = counted_post_init
        self._patches.append((pauli_op, "__post_init__", post_init))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _hooks(self) -> dict:
        """Counting versions of a few functions, keyed by their span name."""
        counters = self.counters
        cached = getattr(self.package.dense, "_clifford_unitary_cached", None)

        def gadget(func):
            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                counters["twirl.gadget_gates"] += len(result.gates)
                return result

            return counted

        def per_layer(counter: str, batch_arg: str | None):
            """Count layers × passes (× the batch size, if one is named) per call."""

            def hook(func):
                signature = inspect.signature(func)

                def counted(*args, **kwargs):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    c = bound.arguments["c"]
                    work = len(c.layers) * (bound.arguments["shots"] if _is_sampled(c) else 1)
                    if batch_arg is not None:
                        work *= len(bound.arguments[batch_arg])
                    counters[counter] += work
                    return func(*args, **kwargs)

                return counted

            return hook

        def cache_hits(func):
            def counted(*args, **kwargs):
                before = cached.cache_info().hits
                result = func(*args, **kwargs)
                counters["dense.clifford_unitary.hits"] += cached.cache_info().hits - before
                return result

            return counted

        hooks = {
            "twirl.sample_full_twirl_gate": gadget,
            "twirl.sample_ksparse_twirl_gate": gadget,
            "circuits.effective_fidelity_batch": per_layer("circuits.pauli_layer_steps", "paulis"),
            "dense.simulate_pair": per_layer("dense.layer_applications", None),
        }
        if cached is not None:
            hooks["dense.clifford_unitary"] = cache_hits
        return hooks

    # -- results ------------------------------------------------------------

    def function(self, key: str) -> tuple[int, float, float]:
        calls, inclusive, own = self.stats.get(key, (0, 0.0, 0.0))
        return calls, inclusive, own

    def write(self, path, extra: dict) -> None:
        doc = {
            **extra,
            "functions": {
                key: {"calls": calls, "s": s, "self_s": own}
                for key, (calls, s, own) in sorted(self.stats.items())
            },
            "layer_self_s": dict(self.layer_self),
            "counters": dict(self.counters),
            "spans_dropped": self.dropped,
        }
        with open(path, "w") as handle:
            handle.write(json.dumps(doc) + "\n")
            for span_id, parent, key, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": key, "start": start, "end": end}) + "\n")


# ---------------------------------------------------------------------------
# the per-layer metrics the benchmark reports
# ---------------------------------------------------------------------------

_FUNCTION_METRICS = (
    "paulis.random_pauli.calls",
    "paulis.random_pauli.s",
    "tableau.clifford_mapping_z0_to.calls",
    "tableau.clifford_mapping_z0_to.s",
    "tableau.from_gates.calls",
    "tableau.from_gates.s",
    "tableau.random_clifford.calls",
    "tableau.random_clifford.s",
    "tableau.decompose_gates.calls",
    "tableau.decompose_gates.s",
    "tableau.conjugate.calls",
    "channels.pauli_fidelity.calls",
    "channels.pauli_fidelity.s",
    "channels.mean_chi_local.calls",
    "channels.unitarity.s",
    "channels.avg_noise_strength.s",
    "channels.distance_v.s",
    "twirl.sample_full_twirl_gate.calls",
    "twirl.sample_full_twirl_gate.s",
    "twirl.sample_ksparse_twirl_gate.calls",
    "twirl.sample_ksparse_twirl_gate.s",
    "twirl.twirl_channel.s",
    "twirl.twirl_channel_ksparse.s",
    "circuits.effective_fidelity_batch.self_s",
    "circuits.build_trotter_circuit.calls",
    "circuits.build_trotter_circuit.s",
    "circuits.optimal_rescale_coefficient.s",
    "circuits.average_bias.self_s",
    "dense.simulate_pair.calls",
    "dense.simulate_pair.s",
    "dense.clifford_unitary.calls",
    "dense.rescaled_distance_scan.self_s",
    "cli.load_config.s",
    "cli.main.self_s",
)
_COUNTER_METRICS = (
    "paulis.PauliOp.constructed",
    "twirl.gadget_gates",
    "circuits.pauli_layer_steps",
    "dense.layer_applications",
)
_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def per_layer_metrics() -> list[dict]:
    """Name, unit and better direction of every per-layer metric."""
    out = [
        {"name": name, "unit": _UNITS[name.rsplit(".", 1)[1]], "better": "lower"}
        for name in _FUNCTION_METRICS
    ]
    out += [{"name": name, "unit": "count", "better": "lower"} for name in _COUNTER_METRICS]
    out += [
        {"name": "circuits.ns_per_pauli_layer_step", "unit": "ns", "better": "lower"},
        {"name": "dense.ms_per_layer_application", "unit": "ms", "better": "lower"},
        {"name": "dense.clifford_unitary.hit_ratio", "unit": "ratio", "better": "higher"},
    ]
    out += [{"name": f"{layer}.self_s", "unit": "s", "better": "lower"} for layer in LAYERS]
    out += [{"name": f"{layer}.src_lines", "unit": "lines", "better": "lower"} for layer in LAYERS]
    out.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    return out


def per_layer_values(tracer: Tracer, rounds: int, src_dir, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric, per traced round; 0 where a workload never
    reaches the function or the ratio has no denominator."""
    values: dict[str, float] = {}
    for name in _FUNCTION_METRICS:
        key, stat = name.rsplit(".", 1)
        calls, inclusive, own = tracer.function(key)
        values[name] = {"calls": calls, "s": inclusive, "self_s": own}[stat] / rounds
    for name in _COUNTER_METRICS:
        values[name] = tracer.counters[name] / rounds
    _, _, batch_self = tracer.function("circuits.effective_fidelity_batch")
    steps = tracer.counters["circuits.pauli_layer_steps"]
    values["circuits.ns_per_pauli_layer_step"] = batch_self / steps * 1e9 if steps else 0.0
    _, pair_s, _ = tracer.function("dense.simulate_pair")
    applications = tracer.counters["dense.layer_applications"]
    values["dense.ms_per_layer_application"] = pair_s / applications * 1e3 if applications else 0.0
    unitary_calls, _, _ = tracer.function("dense.clifford_unitary")
    hits = tracer.counters["dense.clifford_unitary.hits"]
    values["dense.clifford_unitary.hit_ratio"] = hits / unitary_calls if unitary_calls else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self[layer] / rounds
    for layer in LAYERS:
        with open(src_dir / f"{layer}.py") as handle:
            values[f"{layer}.src_lines"] = sum(1 for _ in handle)
    values["trace.overhead_s"] = overhead_s
    return values
