"""Threshold calibration and density-allocation fitting.

Two calibration paths:

* Per-layer magnitude thresholds: the empirical (1 - density)-quantile of
  |activations| pooled per layer, so a fixed threshold realizes a target
  keep-fraction on data shaped like the calibration trace.

* Density allocation for two-dimensional input pruning: sweep a grid of
  (input density, intermediate density) pairs on a reference block, score
  each by (MLP memory fraction, output error), keep the Pareto front, and fit
  per-dimension linear models in logit space mapping a target overall MLP
  density to the two component densities; the masks are prefixes of one
  row order per side (masking.prefix_masks).  The fitted model turns one
  memory knob into a concrete (k_in, k_mid) allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import masking
from .mlp import _EPS, MlpWeights, _row_norms, down_projection, glu_activations
from .traces import Trace

__all__ = [
    "calibrate_per_layer_thresholds",
    "global_threshold_for_density",
    "layer_densities",
    "memory_fraction",
    "AllocationPoint",
    "InputOverflowError",
    "sweep_density_allocation",
    "pareto_front",
    "AllocationModel",
    "fit_logit_linear",
    "Allocation",
    "optimal_allocation",
]

_LOGIT_CLAMP = (0.001, 0.999)


def _require_activations(trace: Trace) -> np.ndarray:
    acts = getattr(trace, "activations", trace)
    acts = np.asarray(acts, dtype=float)
    if acts.ndim != 3:
        raise ValueError("expected an activation trace [tokens, layers, d_model]")
    if acts.shape[0] == 0:
        raise ValueError("cannot calibrate on an empty trace")
    return acts


def _magnitudes(trace: Trace, target_density: float) -> np.ndarray:
    """|activations| of a trace [tokens, layers, d_model] to calibrate on."""
    if not 0.0 < target_density <= 1.0:
        raise ValueError("target_density must be in (0, 1]")
    return np.abs(_require_activations(trace))


def _cutoff(mags: np.ndarray, target_density: float) -> float:
    """The empirical (1 - density)-quantile of the magnitudes mags, pooled;
    density 1.0 maps to 0."""
    if target_density == 1.0:
        return 0.0
    return float(np.quantile(mags.ravel(), 1.0 - target_density))


def calibrate_per_layer_thresholds(trace: Trace, target_density: float) -> masking.PerLayerThreshold:
    """Per-layer thresholds realizing a target keep-fraction: the cutoff of
    layer l pools that layer's |activations|."""
    mags = _magnitudes(trace, target_density)
    return masking.PerLayerThreshold(tuple(_cutoff(mags[:, l], target_density)
                                           for l in range(mags.shape[1])))


def global_threshold_for_density(trace: Trace, target_density: float) -> masking.GlobalThreshold:
    """Single threshold from the quantile of |activations| pooled over all
    layers; realizes the target density only on average across layers."""
    return masking.GlobalThreshold(_cutoff(_magnitudes(trace, target_density),
                                           target_density))


def layer_densities(trace: Trace, spec: masking.ThresholdSpec) -> np.ndarray:
    """Mean realized keep-fraction per layer under a threshold spec: the
    mean over tokens of each token's kept fraction.  A PerLayerThreshold
    needs one threshold per layer of the trace."""
    acts = _require_activations(trace)
    num_layers = acts.shape[1]
    if isinstance(spec, masking.PerLayerThreshold) and len(spec.thresholds) != num_layers:
        raise ValueError(f"{len(spec.thresholds)} thresholds for a {num_layers}-layer trace")
    return np.array([np.mean(masking.apply_threshold(acts[:, l], spec, layer=l).mean(axis=1))
                     for l in range(num_layers)])


# ---------------------------------------------------------------------------
# density-allocation sweep and logit-linear fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllocationPoint:
    """One sweep sample: requested densities, realized unit counts, the MLP
    memory fraction they keep, and the mean output error."""

    density_in: float
    density_mid: float
    k_in: int
    k_mid: int
    memory_fraction: float
    error: float


class InputOverflowError(ValueError):
    """A grid point's error is not finite: the inputs overflow the forward."""


def memory_fraction(k_in: int, k_mid: int, d_model: int, d_ff: int) -> float:
    """Fraction of MLP weight bytes kept: up and gate keep k_in columns of
    d_ff rows each, down keeps k_mid columns of d_model rows."""
    return (2.0 * k_in * d_ff + k_mid * d_model) / (3.0 * d_model * d_ff)


def sweep_density_allocation(w: MlpWeights, inputs: Sequence[np.ndarray],
                             densities_in: Sequence[float],
                             densities_mid: Sequence[float]) -> List[AllocationPoint]:
    """Grid sweep of input-pruning densities on one block.

    Every (input, intermediate) density pair is scored by the mean relative-
    L2 error of the masked forward against the dense forward over the
    calibration inputs.  The up and gate projections share the input density.
    The inputs run as one batch of rows, and each side's masks are prefixes
    of one row order (masking.rank_rows, masking.prefix_masks).  Each
    forward runs once: the dense H and output, their reference norms and
    the order of |x| once per sweep, the gated intermediates H and the
    order of |H| once per input density (H does not depend on the
    intermediate density), and one down projection per grid point.  An
    all-True mask keeps every float's bits, so an input density that keeps
    all d_model inputs takes the dense H, and its point that keeps all d_ff
    units the dense output.  The selections are those of masking.dip_rows.
    A grid point whose error is not finite raises InputOverflowError.  w
    must be one block: a stack of layers is a ValueError.
    """
    if w.up.ndim != 2:
        raise ValueError("need one block of MlpWeights, not a stack of layers")
    if len(inputs) == 0:
        raise ValueError("need at least one calibration input")
    xs = np.asarray(inputs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != w.d_model:
        raise ValueError("input length must equal d_model")
    with np.errstate(over="ignore", invalid="ignore"):  # each error is checked below
        dense_h = glu_activations(w, xs)
        dense_outs = down_projection(w, dense_h)
        ref_norms = np.maximum(_row_norms(dense_outs), _EPS)  # as rel_l2_rows floors them
        in_order = masking.rank_rows(np.abs(xs))
        points = []
        for din in densities_in:
            points += _points_at_input_density(w, xs, in_order, dense_h, dense_outs, ref_norms,
                                               din, densities_mid)
    return points


def _points_at_input_density(w: MlpWeights, xs: np.ndarray, in_order: np.ndarray,
                             dense_h: np.ndarray, dense_outs: np.ndarray,
                             ref_norms: np.ndarray, din: float,
                             densities_mid: Sequence[float]) -> List[AllocationPoint]:
    # a function of its own so that H is freed before the next density's
    k_in = masking.density_to_k(din, w.d_model)
    h = dense_h if k_in == w.d_model else glu_activations(
        w, xs, masking.prefix_masks(in_order[:, :k_in], w.d_model))
    mid_order = masking.rank_rows(np.abs(h))
    points = []
    for dmid in densities_mid:
        k_mid = masking.density_to_k(dmid, w.d_ff)
        y = dense_outs if k_in == w.d_model and k_mid == w.d_ff else down_projection(
            w, h, masking.prefix_masks(mid_order[:, :k_mid], w.d_ff))
        # rel_l2_rows(dense_outs, y), bit for bit
        error = float(np.mean(_row_norms(y - dense_outs) / ref_norms))
        if not math.isfinite(error):
            raise InputOverflowError(f"the inputs overflow the block's forward: the error at "
                                     f"density_in {din}, density_mid {dmid} is not finite")
        points.append(AllocationPoint(
            density_in=float(din), density_mid=float(dmid), k_in=k_in, k_mid=k_mid,
            memory_fraction=memory_fraction(k_in, k_mid, w.d_model, w.d_ff), error=error))
    return points


def pareto_front(points: Sequence, key=None) -> List:
    """Non-dominated subset under (memory, error), both minimized; a point is
    dropped iff another is no worse on both axes and strictly better on one.
    Output sorted by memory then error; independent of input order.  key
    maps a point to its (memory, error) pair and by default reads the
    point's (memory_fraction, error)."""
    if key is None:
        key = attrgetter("memory_fraction", "error")
    items = [(key(p), p) for p in points]
    front = []
    for (m, e), p in items:
        dominated = any(
            (m2 <= m and e2 <= e) and (m2 < m or e2 < e)
            for (m2, e2), _ in items)
        if not dominated:
            front.append(((m, e), p))
    front.sort(key=lambda t: t[0])
    return [p for _, p in front]


def _logit(p: np.ndarray) -> np.ndarray:
    # boundary densities (e.g. the 1.0 grid edge) clamp to keep logits finite
    p = np.clip(p, *_LOGIT_CLAMP)
    return np.log(p / (1.0 - p))


@dataclass(frozen=True)
class AllocationModel:
    """Affine-in-logit maps from target MLP density to component densities:
    logit(component) = intercept + slope * logit(target)."""

    coef_in: Tuple[float, float]
    coef_mid: Tuple[float, float]

    def predict(self, target_density: float) -> Tuple[float, float]:
        """(input density, intermediate density); clamped into (0.001, 0.999)."""
        t = _logit(np.array(target_density))
        lo, hi = _LOGIT_CLAMP
        return tuple(float(np.clip(1.0 / (1.0 + math.exp(-(c0 + c1 * t))), lo, hi))
                     for c0, c1 in (self.coef_in, self.coef_mid))


def fit_logit_linear(points: Sequence[AllocationPoint]) -> AllocationModel:
    """Least-squares fit of the component densities against the points' own
    memory fractions, in logit space.  Needs at least two distinct memory
    fractions; typically fed the Pareto front of a sweep."""
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    targets = _logit(np.array([p.memory_fraction for p in points]))
    if np.ptp(targets) == 0:
        raise ValueError("degenerate fit: all points share one memory fraction")
    design = np.column_stack([np.ones_like(targets), targets])
    return AllocationModel(*(
        tuple(float(c) for c in np.linalg.lstsq(
            design, _logit(np.array([getattr(p, side) for p in points])), rcond=None)[0])
        for side in ("density_in", "density_mid")))


@dataclass(frozen=True)
class Allocation:
    k_in: int
    k_mid: int
    density_in: float
    density_mid: float
    memory_fraction: float


def optimal_allocation(model: AllocationModel, target_density: float,
                       d_model: int, d_ff: int) -> Allocation:
    """Concrete (k_in, k_mid) for a target MLP density via the fitted model.

    The open interval bound rejects degenerate targets (1.0 would be the
    dense model; 0.0 keeps nothing).
    """
    if not 0.0 < target_density < 1.0:
        raise ValueError("target_density must be in (0, 1) exclusive")
    rho_in, rho_mid = model.predict(target_density)
    k_in = masking.density_to_k(rho_in, d_model)
    k_mid = masking.density_to_k(rho_mid, d_ff)
    return Allocation(k_in=k_in, k_mid=k_mid,
                      density_in=k_in / d_model, density_mid=k_mid / d_ff,
                      memory_fraction=memory_fraction(k_in, k_mid, d_model, d_ff))
