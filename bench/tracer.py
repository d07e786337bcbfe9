"""Spans and counters at the boundaries between gammasig's modules.

A traced round replaces, for its duration, the module and class attributes
through which one layer calls into another with wrappers that record a span
(layer, entry point, start, end, parent span, run id) and update counters
from the call's arguments and result.  Nothing under ``src/`` changes: the
attributes are looked up at call time, so the wrappers see every call, and
:meth:`Tracer.uninstall` puts the originals back.

A layer's self time is the total duration of its spans minus the time
covered by their child spans.  Class constructors (``SamplePath``,
``Alphabet``, ``TensorPoly(...)``, ``PayoffSpec``) are not wrapped; their
time counts to the layer that calls them.
"""
from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "experiments", "models", "signature", "tensor", "regress", "payoffs")
SPAN_FIELDS = ("id", "layer", "entry", "start_ns", "end_ns", "parent", "run")


def _sig_sizes(m_max: int, L: int) -> int:
    return sum(L ** m for m in range(1, m_max + 1))


def _count_gamma_signature(c: Counter, args, kwargs, traj) -> None:
    c["signature.rows"] += 1
    c["signature.coeffs"] += len(traj.times) * _sig_sizes(
        traj.trunc_level, traj.alphabet.total_letters)


def _count_endpoint_batch(c: Counter, args, kwargs, result) -> None:
    # intermediate levels are materialized over the whole grid, the last
    # level only at the end point
    B, n_plus_1, L = args[0].shape
    N = len(result)
    c["signature.rows"] += B
    c["signature.coeffs"] += B * (n_plus_1 * _sig_sizes(N - 1, L) + L ** N)


def _count_draws(c: Counter, args, kwargs, result) -> None:
    grid, indices = args[0], args[1]
    c["models.path_steps"] += len(indices) * grid.n


def _count_rejected(c: Counter, args, kwargs, result) -> None:
    # the pricing experiments drop a two-asset path whose price leaves
    # (0, inf); calibration prices may start at 0 and are never dropped
    S = (np.stack([result["S1"], result["S2"]], axis=2) if "S1" in result
         else result["S"])
    if S.ndim == 3 and S.shape[2] == 2:
        c["models.rejected_paths"] += int(np.any(S <= 0.0, axis=(1, 2)).sum())


def _count_lasso(c: Counter, args, kwargs, result) -> None:
    diag = result.diagnostics
    c["regress.lasso.fits"] += 1
    c["regress.lasso.sweeps"] += int(diag["n_iter"])
    c["regress.lasso.unconverged"] += 0 if diag["converged"] else 1


def entry_points(gammasig) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, layer, counter) for every wrapped entry point."""
    cli, exp, models = gammasig.cli, gammasig.experiments, gammasig.models
    TensorPoly = gammasig.tensor.TensorPoly
    return [
        (cli, "main", "cli", None),
        (cli, "run_calibration", "experiments", None),
        (cli, "run_pricing", "experiments", None),
        (exp, "simulate_heston_batch", "models", None),
        (exp, "simulate_cantor_sde_batch", "models", None),
        (models, "_stack_draws", "models", _count_draws),
        (models, "_heston_euler", "models", None),
        (models, "_heston2_euler", "models", _count_rejected),
        (models, "_cantor_euler", "models", _count_rejected),
        (exp, "augment_path", "signature", None),
        (exp, "gamma_signature", "signature", _count_gamma_signature),
        (exp, "functional_matrix", "signature", None),
        (exp, "endpoint_signature_batch", "signature", _count_endpoint_batch),
        (exp, "enumerate_words", "tensor", None),
        (TensorPoly, "basis", "tensor", None),
        (TensorPoly, "__sub__", "tensor", None),
        (TensorPoly, "items", "tensor", None),
        (gammasig.regress, "word_str", "tensor", None),
        (exp, "lasso_fit", "regress", _count_lasso),
        (exp, "ridge_fit", "regress", None),
        (exp, "predict", "regress", None),
        (exp, "mse", "regress", None),
        (exp, "realized_stats_batch", "payoffs", None),
        (exp, "statistic_key", "payoffs", None),
    ]


class Tracer:
    """In-memory span store with per-layer self time and counters."""

    def __init__(self) -> None:
        self.entries: list[str] = []
        self.entry_ns: list[int] = []
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.counts = Counter()
        self.run_id = -1
        self._epoch = time.perf_counter_ns()
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._wrappers: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        # flat rows of SPAN_FIELDS keep a long trace small in memory
        self._spans = array("q")

    def install(self, gammasig) -> None:
        """Swap every entry point for its wrapper (made on the first call)."""
        if not self._wrappers:
            for owner, attr, layer, count in entry_points(gammasig):
                original = vars(owner)[attr]
                entry = f"{owner.__name__}.{attr}"
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, layer, entry, count))
                else:
                    wrapped = self._wrap(original, layer, entry, count)
                self._wrappers.append((owner, attr, original, wrapped))
        for owner, attr, _, wrapped in self._wrappers:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._wrappers:
            setattr(owner, attr, original)

    def _wrap(self, fn, layer: str, entry: str, count):
        layer_idx = LAYERS.index(layer)
        entry_idx = len(self.entries)
        self.entries.append(entry)
        self.entry_ns.append(0)
        stack, spans, self_ns, entry_ns = self._stack, self._spans, self.self_ns, self.entry_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[1]
                entry_ns[entry_idx] += duration
                if stack:
                    stack[-1][1] += duration
                spans.extend((span_id, layer_idx, entry_idx, start, end, parent,
                              self.run_id))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def entry_seconds(self, *attrs: str) -> float:
        """Total span time of the entry points with these attribute names."""
        return sum(ns for name, ns in zip(self.entries, self.entry_ns)
                   if name.rsplit(".", 1)[1] in attrs) / 1e9

    @property
    def n_spans(self) -> int:
        return len(self._spans) // len(SPAN_FIELDS)

    def calls(self, layer: str) -> int:
        """Number of spans of one layer."""
        idx = LAYERS.index(layer)
        return self._spans[1::len(SPAN_FIELDS)].count(idx)

    def write_spans(self, path: str, header: dict) -> None:
        """One JSON header line, then one JSON list of SPAN_FIELDS per span;
        times are nanoseconds since the tracer was made."""
        width = len(SPAN_FIELDS)
        spans = self._spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, layers=list(LAYERS), entries=self.entries,
                                     fields=list(SPAN_FIELDS))) + "\n")
            for i in range(0, len(spans), width):
                sid, layer, entry, start, end, parent, run = spans[i:i + width]
                fh.write(f"[{sid},{layer},{entry},{start - self._epoch},"
                         f"{end - self._epoch},{parent},{run}]\n")
