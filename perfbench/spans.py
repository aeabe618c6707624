"""Outside-in instrumentation of the sparsim layers.

Nothing here changes the program: public functions are wrapped at run time
and the wrappers are put back in every sparsim namespace that refers to the
original function, including names a module imported from another one
(``from .cache import cache_update`` in ``hwsim``, for example).

Two instruments share that mechanism:

* ``EngineTimer`` wraps only the simulation engines (``hwsim.simulate_run``
  and ``calibration.sweep_density_allocation``) to give host time per
  simulated token in untraced runs.
* ``SpanRecorder`` wraps every layer's ``__all__`` functions plus
  ``cli.main`` and records one span per call: name, start, end and parent
  span id.  Counters are taken at the same boundaries, from the arguments
  and the returned values.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "traces", "hwsim", "masking", "cache", "mlp", "calibration")


def _sparsim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sparsim" or name.startswith("sparsim."))]


def patch(replacements: dict):
    """Replace each original function by its wrapper in every sparsim
    namespace that holds it; returns a function that undoes the patch."""
    by_id = {id(orig): (orig, wrapper) for orig, wrapper in replacements.items()}
    undo = []
    for mod in _sparsim_modules():
        for attr, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))

    def restore():
        for mod, attr, value in undo:
            setattr(mod, attr, value)
    return restore


def layer_functions():
    """(layer, name, function) for every public function of every layer."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"sparsim.{layer}"]
        names = list(getattr(mod, "__all__", ()))
        if layer == "cli":
            names.append("main")
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((layer, name, fn))
    return out


# ---------------------------------------------------------------------------
# untraced runs: host time inside the simulation engines
# ---------------------------------------------------------------------------

class EngineTimer:
    """Host seconds and simulated tokens summed over engine calls.

    A token is one activation vector pushed through the simulator: one trace
    position for ``simulate_run``, one calibration input at one grid point
    for ``sweep_density_allocation``.
    """

    def __init__(self):
        self.seconds = 0.0
        self.tokens = 0

    def install(self):
        from sparsim import calibration, hwsim

        def count_run(args, kwargs, report):
            return report.num_tokens

        def count_sweep(args, kwargs, points):
            inputs = args[1] if len(args) > 1 else kwargs["inputs"]
            return len(inputs) * len(points)

        return patch({hwsim.simulate_run: self._wrap(hwsim.simulate_run, count_run),
                      calibration.sweep_density_allocation:
                          self._wrap(calibration.sweep_density_allocation, count_sweep)})

    def _wrap(self, fn, count):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            self.seconds += perf_counter() - t0
            self.tokens += count(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper


# ---------------------------------------------------------------------------
# traced runs: spans and counters at every layer boundary
# ---------------------------------------------------------------------------

class SpanRecorder:
    """Spans of every public call into the sparsim layers.

    Spans are kept in memory as (parent id, name id, start, end, bucket) and
    written out once by ``write``.  ``bucket`` is set by the caller: -1 for
    set-up, otherwise the index of the op cycle, so one cycle's work can be
    told apart from the next.  Counters go to ``counters[bucket]``.
    """

    def __init__(self):
        self.names = []
        self.spans = []
        self.counters = {}
        self._stack = []
        self.set_bucket(-1)
        self._wrappers = {fn: self._wrap(fn, f"{layer}.{name}", _HOOKS.get(f"{layer}.{name}"))
                          for layer, name, fn in layer_functions()}

    def set_bucket(self, bucket: int) -> None:
        self.bucket = bucket
        self.counters.setdefault(bucket, Counter())

    def install(self):
        """Put the wrappers in place; returns the function that removes them."""
        return patch(self._wrappers)

    def _wrap(self, fn, qualname, hook):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            ctx = hook.before(sig, args, kwargs) if hook else None
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (parent, name_id, t0, t1, self.bucket)
            if hook:
                hook.after(self.counters[self.bucket], ctx, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self):
        """Per span: (name, self seconds, inclusive seconds, bucket)."""
        child = [0.0] * len(self.spans)
        for parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(self.names[n], (t1 - t0) - child[i], t1 - t0, b)
                for i, (_, n, t0, t1, b) in enumerate(self.spans)]

    def write(self, path: str) -> None:
        """All spans as gzip TSV: id, parent, name, start, end, bucket."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("id\tparent\tname\tstart_s\tend_s\tbucket\n")
            for i, (parent, n, t0, t1, b) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{self.names[n]}\t{t0!r}\t{t1!r}\t{b}\n")


class _Hook:
    """Counters read from one function's arguments and returned value."""

    def __init__(self, before=None, after=None):
        self._before = before
        self._after = after

    def before(self, sig, args, kwargs):
        if self._before is None:
            return None
        return self._before(sig.bind(*args, **kwargs).arguments)

    def after(self, counters, ctx, result):
        self._after(counters, ctx, result)


def _cache_update_before(a):
    return len(a["state"].resident), len(a["active_units"]), a["state"]


def _cache_update_after(c, ctx, stats):
    size_before, offered, state = ctx
    c["cache.update_calls"] += 1
    c["cache.units_offered"] += offered
    c["cache.hits"] += stats.hits
    c["cache.misses"] += stats.misses
    c["cache.bypassed"] += stats.bypassed
    # admitted misses either filled free space or replaced an evicted unit
    c["cache.evictions"] += stats.misses - stats.bypassed - (len(state.resident) - size_before)


def _mask_set_after(c, ctx, ms):
    c["masking.units_selected"] += ms.input_mask.count + ms.intermediate_mask.count


def _simulate_run_after(c, hw, report):
    c["hwsim.tokens"] += report.num_tokens
    c["hwsim.modelled_latency_s"] += sum(tc.latency_s for tc in report.tokens)
    c["hwsim.modelled_flash_s"] += report.flash_bytes / hw.flash_bandwidth
    c["hwsim.modelled_dram_s"] += report.dram_bytes / hw.dram_bandwidth


def _approx_error_after(c, ctx, err):
    c["mlp.rel_error_sum"] += err.rel_l2
    c["mlp.rel_error_count"] += 1


def _points_after(c, ctx, points):
    c["calibration.points"] += len(points)


def _cli_main_before(a):
    argv = list(a["argv"] or [])
    if argv and argv[0] != "gen-trace" and "--out" in argv:
        return argv[argv.index("--out") + 1]
    return None


def _cli_main_after(c, out, rc):
    if out is not None and rc == 0 and os.path.exists(out):
        c["cli.report_bytes"] += os.path.getsize(out)


_MASK_SET = _Hook(after=_mask_set_after)
_HOOKS = {
    "cache.cache_update": _Hook(_cache_update_before, _cache_update_after),
    "hwsim.simulate_run": _Hook(lambda a: a["hw"], _simulate_run_after),
    "mlp.approx_error": _Hook(after=_approx_error_after),
    "calibration.sweep_density_allocation": _Hook(after=_points_after),
    "calibration.gamma_sweep": _Hook(after=_points_after),
    "cli.main": _Hook(_cli_main_before, _cli_main_after),
    **{f"masking.{n}": _MASK_SET for n in (
        "scheme_dense", "scheme_glu_pruning", "scheme_gate_pruning",
        "scheme_up_pruning", "scheme_predictive", "scheme_predictive_oracle",
        "scheme_dip", "scheme_dip_ca")},
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_SPAN_TIMES = {  # metric -> functions whose inclusive time it sums
    "traces.read_s": ("traces.read_trace", "traces.read_tensors"),
    "traces.generate_s": ("traces.generate_synthetic_trace", "traces.synthetic_layer_weights"),
    "traces.write_s": ("traces.write_trace", "traces.write_tensors"),
    "cache.next_use_build_s": ("cache.belady_precompute",),
    "cache.residency_s": ("cache.resident_bitvector",),
}
_SPAN_COUNTS = {  # metric -> functions whose calls it counts
    "cache.residency_reads": ("cache.resident_bitvector",),
    "mlp.forward_calls": ("mlp.mlp_dense_forward", "mlp.mlp_sparse_forward"),
}


def layer_metrics(rec: SpanRecorder, cycles: int):
    """Per-layer values for one set-up plus one pass over the op cycle.

    Times from the op cycles are averaged over the ``cycles`` traced passes.
    Counts and modelled values come from set-up plus the first cycle: the
    cycles repeat identical inputs, so every cycle gives the same counts.
    Returns (metrics, layers never entered).
    """
    times, calls = Counter(), Counter()
    for name, self_s, incl_s, bucket in rec.self_times():
        layer = name.split(".", 1)[0]
        weight = 1.0 if bucket < 0 else 1.0 / cycles
        times[f"{layer}.self_s"] += self_s * weight
        times[name] += incl_s * weight
        if bucket <= 0:
            calls[name] += 1
            calls[layer] += 1
    c = rec.counters.get(-1, Counter()) + rec.counters.get(0, Counter())

    m = {}
    missing = [layer for layer in LAYERS if calls[layer] == 0]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (times[f"{layer}.self_s"], "s")
    for metric, fns in _SPAN_TIMES.items():
        m[metric] = (sum(times[f] for f in fns), "s")
    for metric, fns in _SPAN_COUNTS.items():
        m[metric] = (sum(calls[f] for f in fns), "count")
    m["cli.report_bytes"] = (c["cli.report_bytes"], "bytes")
    m["hwsim.tokens"] = (c["hwsim.tokens"], "count")
    lat = c["hwsim.modelled_latency_s"]
    m["hwsim.modelled_tok_s"] = (c["hwsim.tokens"] / lat if lat else 0.0, "model_tok/s")
    m["hwsim.modelled_flash_s"] = (c["hwsim.modelled_flash_s"], "model_s")
    m["hwsim.modelled_dram_s"] = (c["hwsim.modelled_dram_s"], "model_s")
    m["masking.calls"] = (calls["masking"], "count")
    m["masking.units_selected"] = (c["masking.units_selected"], "count")
    for k in ("update_calls", "units_offered", "hits", "misses", "bypassed", "evictions"):
        m[f"cache.{k}"] = (c[f"cache.{k}"], "count")
    offered = c["cache.units_offered"]
    m["cache.hit_ratio"] = (c["cache.hits"] / offered if offered else 0.0, "ratio")
    n_err = c["mlp.rel_error_count"]
    m["mlp.mean_rel_error"] = (c["mlp.rel_error_sum"] / n_err if n_err else 0.0, "ratio")
    m["calibration.points"] = (c["calibration.points"], "count")
    return m, missing
