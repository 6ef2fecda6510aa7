"""In-process tracer for ghkernel, installed from outside the package.

The tracer replaces the public functions of each ghkernel module, wherever
another module has bound them by name, with wrappers that time each call.
Nothing in ``src/`` changes; :meth:`Tracer.uninstall` puts the originals back.

Two kinds of wrapper exist:

* a *span* records ``(id, layer, name, start, end, busy, child, parent,
  command)`` in memory for every call.  ``busy`` is the time the call ran
  (for a generator, the sum of its resumptions) and ``child`` the part of
  it covered by wrapped callees.
* an *op* wrapper, used for the scalar layer whose calls run into the
  millions, keeps per-function call counts and busy and self seconds
  instead of one record per call.  Its time still counts as child time of
  the span that called it.

Self time of a layer is busy minus child time, summed over its spans and
ops.  Spans are written out once, by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import csv
import itertools
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import ModuleType
from typing import Callable

SWEEP_NAMES = ("graczyk", "rotation", "factorization", "inner-product-moments", "matrix")
LAYERS = ("cli", "sweeps", "identities", "ghpoly", "multiindex", "scalars", "sampling")

SERIALIZE = ("_report_row", "_rows_to_csv", "canonical_json", "_emit",
             "_sample_csv", "_stats_row", "_verdict_rows")
IDENTITY_PARTS = ("graczyk_lhs", "graczyk_rhs", "polarization_pair", "rotation_sumrule",
                  "factorization_sumrule", "coeff_C", "make_report")
IDENTITY_TOPS = ("graczyk_identity", "inner_product_moment_identity", "matrix_moment_identity")
MULTIINDEX = ("pochhammer", "multinomial", "mi_factorial", "mi_length")
SAMPLERS = ("sample_gaussian", "sample_chi", "chi_merge_samples", "inner_product_lhs_samples",
            "inner_product_rhs_samples", "matrix_trace_samples", "matrix_trace_rhs_samples")
ARITHMETIC = ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__")
SCALAR_FUNCS = ("exact", "flt", "lift", "zero", "one", "to_float", "magnitude",
                "exact_sqrt", "format_scalar", "parse_scalar")

MiB = float(1 << 20)


class Tracer:
    """Span recorder; install it around in-process ghkernel CLI commands."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: list[tuple] = []
        self.stack: list[list] = [[0, 0.0]]  # frames: [span id, child seconds]
        self.command = 0
        self.ids = itertools.count(1)
        self.ops: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter[str] = Counter()
        self.max_bits = 0
        self.largest_array = 0
        self.sweep_seq = 0
        self.eval_keys: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, layer: str, name: str, fn: Callable, before=None, after=None) -> Callable:
        spans, stack, clock, ids = self.spans, self.stack, self.clock, self.ids

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1]
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                spans.append((frame[0], layer, name, start, end, end - start, frame[1],
                              parent[0], self.command))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def generator_span(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack, clock, ids, counts = self.spans, self.stack, self.clock, self.ids, self.counts
        counter = f"{name}_yielded"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            frame = [next(ids), 0.0]
            parent_id = stack[-1][0]
            busy, first, last = 0.0, None, None
            try:
                while True:
                    parent = stack[-1]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        parent[1] += t1 - t0
                        busy += t1 - t0
                        first = t0 if first is None else first
                        last = t1
                    counts[counter] += 1
                    yield item
            finally:
                spans.append((frame[0], layer, name, first, last, busy, frame[1],
                              parent_id, self.command))

        return wrapper

    def op(self, layer: str, name: str, fn: Callable, exact_bits: bool = False) -> Callable:
        stack, clock = self.stack, self.clock
        stats = self.ops[(layer, name)]

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - start
                stack.pop()
                parent[1] += d
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[1]
            if exact_bits and result.mode == "exact":
                re, im = result.re, result.im
                bits = max(re.numerator.bit_length(), re.denominator.bit_length(),
                           im.numerator.bit_length(), im.denominator.bit_length())
                if bits > self.max_bits:
                    self.max_bits = bits
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, modules: list[ModuleType], original: object, wrapper: object,
                skip: ModuleType | None = None) -> None:
        for module in modules:
            if module is skip:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def install(self) -> None:
        """Wrap ghkernel's functions in every module that binds them."""
        import ghkernel as package
        import ghkernel.cli as cli
        from ghkernel import ghpoly, identities, multiindex, sampling, scalars, sweeps

        modules = [package, cli, sweeps, identities, ghpoly, multiindex, scalars, sampling]
        counts = self.counts

        def rebind(module, name, make, skip=None):
            original = getattr(module, name)
            self._rebind(modules, original, make(original), skip)

        def eval_before(args, kwargs):
            self.eval_keys.add((self.sweep_seq, args, tuple(sorted(kwargs.items()))))

        def sweep_before(args, kwargs):
            self.sweep_seq += 1

        def sweep_after(args, result):
            counts["sweeps.reports"] += len(result)

        def emit_before(args, kwargs):
            counts["cli.report_bytes"] += len(args[0].encode("utf-8"))

        def draw_after(args, result):
            counts["sampling.normals_drawn"] += args[1]
            self.largest_array = max(self.largest_array, result.nbytes)

        def sampler_after(args, result):
            self.largest_array = max(self.largest_array, result.nbytes)

        # scalars: arithmetic on the Scalar class, public helpers everywhere.
        for name in ARITHMETIC:
            original = getattr(scalars.Scalar, name)
            setattr(scalars.Scalar, name, self.op("scalars", name, original, exact_bits=True))
            self._undo.append((scalars.Scalar, name, original))
        for name in SCALAR_FUNCS:
            rebind(scalars, name, lambda f, n=name: self.op("scalars", n, f))

        # multiindex: compositions recurses through its own module global,
        # so only the bindings other modules hold are wrapped.
        rebind(multiindex, "compositions",
               lambda f: self.generator_span("multiindex", "compositions", f), skip=multiindex)
        for name in MULTIINDEX:
            rebind(multiindex, name, lambda f, n=name: self.span("multiindex", n, f))

        # ghpoly: identities binds the recurrence as _gh.
        rebind(ghpoly, "gh_eval_recurrence",
               lambda f: self.span("ghpoly", "gh_eval_recurrence", f, before=eval_before))
        for name in ("gh_eval", "gh_moment_oracle", "gh_multi_eval", "hermite_eval"):
            rebind(ghpoly, name, lambda f, n=name: self.span("ghpoly", n, f))

        for name in IDENTITY_PARTS + IDENTITY_TOPS:
            rebind(identities, name, lambda f, n=name: self.span("identities", n, f))

        # sweeps: the CLI looks sweeps up in the SWEEPS dict.
        for identity, fn in list(sweeps.SWEEPS.items()):
            wrapper = self.span("sweeps", identity, fn, before=sweep_before, after=sweep_after)
            self._rebind(modules, fn, wrapper)
            sweeps.SWEEPS[identity] = wrapper
            self._undo.append((sweeps.SWEEPS, identity, fn))

        rebind(sampling, "_box_muller", lambda f: self.span("sampling", "_box_muller", f,
                                                             after=draw_after))
        for name in SAMPLERS:
            rebind(sampling, name, lambda f, n=name: self.span("sampling", n, f,
                                                                after=sampler_after))
        for name in ("collect_stats", "moment_match", "moment_match_exact", "ks_two_sample",
                     "chi_even_moment"):
            rebind(sampling, name, lambda f, n=name: self.span("sampling", n, f))

        for name in SERIALIZE:
            before = emit_before if name == "_emit" else None
            rebind(cli, name, lambda f, n=name, b=before: self.span("cli", n, f, before=b))
        rebind(cli, "main", lambda f: self.span("cli", "main", f))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds each layer ran outside the wrapped calls it made."""
        out: Counter[str] = Counter()
        for span in self.spans:
            out[span[1]] += span[5] - span[6]
        for (layer, _name), (_calls, _busy, op_self) in self.ops.items():
            out[layer] += op_self
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and op aggregates."""
        busy: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        self_by_name: Counter[str] = Counter()
        names = {}
        for sid, _layer, name, _start, _end, span_busy, child, _parent, _cmd in self.spans:
            names[sid] = name
            busy[name] += span_busy
            calls[name] += 1
            self_by_name[name] += span_busy - child
        serialize_s = sum(
            span[5] for span in self.spans
            if span[2] in SERIALIZE and names.get(span[7]) not in SERIALIZE
        )
        ops_count = sum(self.ops[("scalars", n)][0] for n in ARITHMETIC)
        ops_s = sum(self.ops[("scalars", n)][2] for n in ARITHMETIC)
        self_s = self.self_times()

        eval_calls = calls["gh_eval_recurrence"]
        eval_distinct = len(self.eval_keys)
        normals = self.counts["sampling.normals_drawn"]
        out = {
            "cli.serialize_s": serialize_s,
            "cli.report_bytes": self.counts["cli.report_bytes"],
            "sweeps.reports": self.counts["sweeps.reports"],
            "ghpoly.eval_calls": eval_calls,
            "ghpoly.eval_distinct": eval_distinct,
            "ghpoly.eval_useful_ratio": eval_distinct / eval_calls if eval_calls else 0.0,
            "ghpoly.eval_s": busy["gh_eval_recurrence"],
            "ghpoly.eval_us_per_call": 1e6 * busy["gh_eval_recurrence"] / eval_calls
            if eval_calls else 0.0,
            "multiindex.compositions_yielded": self.counts["compositions_yielded"],
            "multiindex.compositions_s": busy["compositions"],
            "multiindex.pochhammer_calls": calls["pochhammer"],
            "scalars.ops": ops_count,
            "scalars.ops_s": ops_s,
            "scalars.max_bits": self.max_bits,
            "sampling.normals_drawn": normals,
            "sampling.draw_s": busy["_box_muller"],
            "sampling.draw_ns_per_normal": 1e9 * busy["_box_muller"] / normals if normals else 0.0,
            "sampling.reduce_s": sum(self_by_name[n] for n in SAMPLERS),
            "sampling.stats_s": busy["collect_stats"],
            "sampling.match_s": busy["moment_match"] + busy["moment_match_exact"],
            "sampling.ks_s": busy["ks_two_sample"],
            "sampling.largest_array_mb": self.largest_array / MiB,
        }
        for identity in SWEEP_NAMES:
            out[f"sweeps.{identity}_s"] = busy[identity]
        for name in IDENTITY_PARTS:
            short = "polarization" if name == "polarization_pair" else name
            out[f"identities.{short}_s"] = busy[name]
            out[f"identities.{short}_calls"] = calls[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        return out

    def write_spans(self, path: Path) -> int:
        """Write every span as one CSV row; returns the number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("id", "layer", "name", "start", "end", "busy", "child",
                             "parent", "command"))
            writer.writerows(self.spans)
        return len(self.spans)
