"""Outside-in tracing of holoqsim: span-recording wrappers and layer metrics.

`Tracer.install` replaces each function in TARGETS with a wrapper in every
holoqsim module namespace that holds it (a module that did `from .x
import f` has its own binding), so calls between modules are caught as
well as calls from the CLI.  No file of the package changes.  A wrapper
appends one span (name, start, end, parent) per call and, for some
functions, adds counts read off the arguments or the result.  Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

GATE_KINDS = ("X", "Y", "Z", "H", "SWAP", "CNOT", "CZ", "CU")


def _count_apply_gate(counts, args, result):
    counts[f"gates.{args[0].kind}"] += 1
    counts["gate_terms"] += len(args[1].amplitudes)


def _count_gate_operator(counts, args, result):
    counts["op_terms"] += len(getattr(result, "terms", ()))


def _count_apply_diffop(counts, args, result):
    counts["term_pairs"] += len(args[0].terms) * len(args[1].terms)
    counts["apply_out_terms"] += len(result.terms)


def _count_write(counts, args, result):
    counts["bytes_written"] += len(args[1].encode())


def _count_optimizer(counts, args, result):
    counts["sweeps"] += sum(r.iterations for r in result.restarts)


def _count_holonomy(counts, args, result):
    counts["segments"] += args[0].segments


def _count_flow(counts, args, result):
    counts["steps"] += result.nsamples - 1


# module -> {function: count hook or None}
TARGETS = {
    "cli": dict.fromkeys(("main", "cmd_simulate", "cmd_diff", "cmd_portrait",
                          "cmd_entanglement", "cmd_holonomy", "cmd_classical_evolve")),
    "fileio": {"load_state": None, "load_circuit": None, "load_loop": None,
               "save_state": None, "save_circuit": None, "save_trajectory": None,
               "atomic_write_text": _count_write},
    "holostate": {"to_poly": None, "from_poly": None},
    "diffop": {"apply_gate": _count_apply_gate, "gate_operator": _count_gate_operator,
               "apply_diffop": _count_apply_diffop, "apply_substitution": None},
    "oracle": {"run_circuit_matrix": None, "compare_states": None},
    "geometry": {"maximize_product_overlap": _count_optimizer,
                 "bloch_circle_loop": None, "berry_holonomy": _count_holonomy},
    "torus": {"integrate_flow": _count_flow},
    "semiclassical": {"propagator": None},
}


def _holoqsim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "holoqsim" or name.startswith("holoqsim."))]


def installed_wrappers() -> list[str]:
    """Names of holoqsim module attributes that are currently span wrappers."""
    return sorted(f"{m.__name__}.{attr}" for m in _holoqsim_modules()
                  for attr, value in vars(m).items() if hasattr(value, "span_name"))


class Tracer:
    """Collects spans and counts while installed; restores originals on uninstall."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _holoqsim_modules()
        for module, functions in TARGETS.items():
            namespace = importlib.import_module(f"holoqsim.{module}")
            for func, hook in functions.items():
                original = getattr(namespace, func)
                wrapper = self._wrap(f"{module}.{func}", original, hook)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, hook):
        stack = self._stack
        by_kind = name == "diffop.apply_gate"

        def wrapper(*args, **kwargs):
            span_name = f"{name}.{args[0].kind}" if by_kind else name
            index = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[index] = (span_name, start, end, parent)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        wrapper.span_name = name
        wrapper.__wrapped__ = fn
        return wrapper


def layer_metrics(spans, counts, ops: int, scale: float = 1.0) -> dict[str, float]:
    """Per-layer figures of one traced cycle of `ops` ops.

    Span times are multiplied by `scale`, the factor to reference machine
    speed.  Times and counts are per op, except the per-unit times: gate_s.<KIND>
    per gate of that kind, sweep_s per optimizer sweep, segment_s per loop
    segment and step_s per RK4 step.  A layer the cycle never enters
    reads 0.
    """
    total = defaultdict(float)
    calls = Counter()
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        total[name] += (end - start) * scale
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += (end - start) * scale

    def per(value, base):
        return value / base if base else 0.0

    cli_self = sum((end - start) * scale - child_time[i]
                   for i, (name, start, end, _) in enumerate(spans)
                   if name.startswith("cli."))
    fileio_save = sum((end - start) * scale for name, start, end, parent in spans
                      if name.startswith(("fileio.save_", "fileio.atomic_write_text"))
                      and not (parent >= 0 and spans[parent][0].startswith("fileio.")))
    fileio_load = sum(v for k, v in total.items() if k.startswith("fileio.load_"))
    gates = sum(counts[f"gates.{k}"] for k in GATE_KINDS)

    metrics = {
        "cli.self_s": per(cli_self, ops),
        "diffop.apply_substitution_s": per(total["diffop.apply_substitution"], ops),
        "diffop.apply_diffop_s": per(total["diffop.apply_diffop"], ops),
        "diffop.build_s": per(total["diffop.gate_operator"], ops),
        "diffop.op_terms": per(counts["op_terms"], ops),
        "diffop.term_pairs": per(counts["term_pairs"], ops),
        "diffop.apply_yield": per(counts["apply_out_terms"], counts["term_pairs"]),
        "holostate.encode_s": per(total["holostate.to_poly"], ops),
        "holostate.decode_s": per(total["holostate.from_poly"], ops),
        "holostate.terms_per_gate": per(counts["gate_terms"], gates),
        "oracle.run_s": per(total["oracle.run_circuit_matrix"], ops),
        "oracle.compare_s": per(total["oracle.compare_states"], ops),
        "fileio.load_s": per(fileio_load, ops),
        "fileio.save_s": per(fileio_save, ops),
        "fileio.bytes_written": per(counts["bytes_written"], ops),
        "geometry.optimizer_calls": per(calls["geometry.maximize_product_overlap"], ops),
        "geometry.sweeps": per(counts["sweeps"], ops),
        "geometry.sweep_s": per(total["geometry.maximize_product_overlap"], counts["sweeps"]),
        "geometry.loop_build_s": per(total["geometry.bloch_circle_loop"], ops),
        "geometry.segment_s": per(total["geometry.berry_holonomy"], counts["segments"]),
        "torus.steps": per(counts["steps"], ops),
        "torus.step_s": per(total["torus.integrate_flow"], counts["steps"]),
        "semiclassical.propagator_calls": per(calls["semiclassical.propagator"], ops),
        "semiclassical.propagator_s": per(total["semiclassical.propagator"], ops),
    }
    for kind in GATE_KINDS:
        metrics[f"diffop.gate_s.{kind}"] = per(total[f"diffop.apply_gate.{kind}"],
                                               counts[f"gates.{kind}"])
    return metrics


# Layer metrics that are counts: they must repeat exactly for a fixed seed.
COUNT_METRICS = ("diffop.op_terms", "diffop.term_pairs", "diffop.apply_yield",
                 "holostate.terms_per_gate", "fileio.bytes_written",
                 "geometry.optimizer_calls", "geometry.sweeps", "torus.steps",
                 "semiclassical.propagator_calls")
