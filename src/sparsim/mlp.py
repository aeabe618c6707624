"""Dense and sparse SwiGLU MLP math.

Forward passes for the gated MLP block, output-error metrics, low-rank (LoRA)
adapters fitted by distillation against the dense block, and a small trainable
predictor that scores intermediate units from the block input.

The block forward takes one input vector [d_model] or a batch of rows
[n, d_model] (one row per token or calibration input), with masks of the
matching shape; a 1-D call is a one-row batch.  Each row of a batch result
equals, bit for bit, the 1-D result for that row: every projection is a
stacked matrix-vector product, np.matmul(W, X[:, :, None]), which runs one
BLAS gemv per row exactly as W @ x does.  The matrix-matrix form X @ W.T
goes through gemm, whose blocking changes the last bits and with them the
top-k selections downstream.  Per-row errors likewise take each norm as the
square root of one dot product, as np.linalg.norm does for a vector.

MlpWeights is one block (2-D matrices) or a stack of layers (3-D matrices,
layer first).  A stack takes its rows layer-major, n / layers rows per
layer, so one call runs the rows of every layer, each row against its own
layer's block: np.matmul(W[:, None], X[:, :, :, None]) is still one gemv
per row, and row i equals the one-row call on its layer's block bit for
bit.

All math runs in float64 and is deterministic given explicit seeds, so the
numeric tolerances in the test-suite are reproducible across machines.
Gradients are hand-written; the tests check them against central finite
differences.  Both trainers run one loop, _descend: plain gradient descent
that returns the best iterate and every loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TrainingDivergedError",
    "silu",
    "silu_grad",
    "MlpWeights",
    "glu_activations",
    "down_projection",
    "mlp_dense_forward",
    "mlp_sparse_forward",
    "ErrorMetrics",
    "approx_error",
    "rel_l2_rows",
    "LoraAdapter",
    "MlpAdapters",
    "lora_fuse",
    "distill_loss_and_grads",
    "DistillResult",
    "lora_fit_distill",
    "Predictor",
    "predictor_forward",
    "topk_binary_targets",
    "predictor_loss_and_grads",
    "PredictorTrainResult",
    "predictor_train",
]

_EPS = 1e-12


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss turns non-finite (step size too large)."""


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # Evaluated through e = exp(-|v|) so neither branch can overflow:
    # 1 / (1 + e) for v >= 0, e / (1 + e) otherwise.  In-place ufuncs keep
    # the temporaries of a [n, d_ff] batch down to three arrays.
    # As e <= 1, max(e, v >= 0) is that numerator, NaN included, without
    # the branch per element that np.where pays on signs in no pattern.
    v = np.asarray(v, dtype=float)
    e = np.abs(v, out=np.empty_like(v))
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, v >= 0, out=np.empty_like(v))
    e += 1.0
    return np.divide(num, e, out=num)


def silu(v):
    """SiLU gate: v * sigmoid(v). Accepts scalars or arrays."""
    arr = np.asarray(v, dtype=float)
    out = _sigmoid(arr)
    out *= arr
    return float(out) if out.ndim == 0 else out


def silu_grad(v):
    """Derivative of SiLU: sigmoid(v) * (1 + v * (1 - sigmoid(v)))."""
    arr = np.asarray(v, dtype=float)
    s = _sigmoid(arr)
    out = s * (1.0 + arr * (1.0 - s))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# weights and forward passes
# ---------------------------------------------------------------------------

@dataclass
class MlpWeights:
    """One gated-MLP block: up/gate project d_model -> d_ff, down projects back.

    up, gate: [d_ff, d_model]; down: [d_model, d_ff].  A stack of layers
    puts a leading layer axis on all three: up, gate [layers, d_ff,
    d_model], down [layers, d_model, d_ff].
    """

    up: np.ndarray
    gate: np.ndarray
    down: np.ndarray

    def __post_init__(self):
        self.up = np.asarray(self.up, dtype=float)
        self.gate = np.asarray(self.gate, dtype=float)
        self.down = np.asarray(self.down, dtype=float)
        if self.up.ndim not in (2, 3) or self.gate.shape != self.up.shape:
            raise ValueError("up and gate must be 2-d (or 3-d, a stack) with identical shapes")
        if self.down.shape != self.up.shape[:-2] + (self.d_model, self.d_ff):
            raise ValueError("down must have shape [d_model, d_ff] (per layer of a stack)")
        if min(self.up.shape) < 1:
            raise ValueError("dimensions must be >= 1")
        for m in (self.up, self.gate, self.down):
            if not np.all(np.isfinite(m)):
                raise ValueError("weights must be finite")

    @property
    def d_model(self) -> int:
        return self.up.shape[-1]

    @property
    def d_ff(self) -> int:
        return self.up.shape[-2]

    @classmethod
    def random(cls, d_model: int, d_ff: int, seed: int = 0) -> "MlpWeights":
        """Gaussian weights at 1/sqrt(fan-in) scale, deterministic per seed."""
        up, gate = np.empty((2, d_ff, d_model))
        down = np.empty((d_model, d_ff))
        _fill_random(seed, up, gate, down)
        return cls(up, gate, down)


def _fill_random(seed: int, *matrices: np.ndarray) -> None:
    """Fill each matrix in place, in order, with standard normals over the
    square root of its fan-in (its column count), from one generator seeded
    with seed."""
    rng = np.random.default_rng(seed)
    for m in matrices:
        rng.standard_normal(out=m)
        m /= np.sqrt(m.shape[-1])


def _rows(x, dim: int, name: str = "d_model"):
    """x as a float batch [n, dim] plus whether it came as one vector."""
    x = np.asarray(x, dtype=float)
    one = x.ndim == 1
    if one:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"input length must equal {name}")
    return x, one


def _masked(xs: np.ndarray, mask) -> np.ndarray:
    """Rows xs [n, dim] with the entries that mask, one bool vector [dim] or
    one per row [n, dim], leaves out set to zero; xs when mask is None.

    Bit for bit np.where(mask, xs, 0.0): each float's bits times 0 or 1 as
    an integer, which keeps -0.0, inf and NaN where the mask keeps them and
    has no branch per element, which np.where pays on masks in no pattern.
    """
    if mask is None:
        return xs
    arr = np.asarray(mask).astype(bool, copy=False)
    if arr.shape != xs.shape[1:] and arr.shape != xs.shape:
        raise ValueError(f"mask length {arr.shape} does not match dimension {xs.shape[1]}")
    return np.multiply(xs.view(np.uint64), arr, dtype=np.uint64).view(np.float64)


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x_i for every row x_i of x [n, cols]: one gemv per row, so each
    row equals the 1-D product bit for bit (see the module docstring).  m is
    one matrix [rows, cols] for every row or a stack [layers, rows, cols]
    whose layer l serves the l-th n / layers rows; another n raises
    ValueError."""
    stack = m.reshape((-1,) + m.shape[-2:])
    if len(x) % len(stack):
        raise ValueError(f"{len(x)} rows do not split evenly over {len(stack)} layers")
    xs = x.reshape(len(stack), len(x) // len(stack), x.shape[1], 1)
    return np.matmul(stack[:, None], xs).reshape(len(x), stack.shape[1])


def glu_activations(w: MlpWeights, x: np.ndarray, input_mask=None) -> np.ndarray:
    """Gated intermediate (up x) * silu(gate x): [d_ff] for one input vector,
    [n, d_ff] for rows [n, d_model], layer-major when w is a stack.

    Each row runs one gemv pair.  With input_mask set, masked-out input
    columns of up and gate are zeroed before the projection, which equals
    zeroing those entries of x.
    """
    xs, one = _rows(x, w.d_model)
    xs = _masked(xs, input_mask)
    # silu(gate x) first, so its temporaries are gone before up x is made;
    # the product commutes bit for bit
    h = silu(_matvec(w.gate, xs))
    h *= _matvec(w.up, xs)
    return h[0] if one else h


def down_projection(w: MlpWeights, h: np.ndarray, intermediate_mask=None) -> np.ndarray:
    """Block output down @ h from gated intermediates h ([d_ff] or
    [n, d_ff], layer-major when w is a stack); intermediate_mask zeroes
    columns of down (equivalently, intermediate units)."""
    hs, one = _rows(h, w.d_ff, "d_ff")
    hs = _masked(hs, intermediate_mask)
    y = _matvec(w.down, hs)
    return y[0] if one else y


def mlp_dense_forward(w: MlpWeights, x: np.ndarray) -> np.ndarray:
    """Dense block output: down @ ((up x) * silu(gate x)), per row."""
    return down_projection(w, glu_activations(w, x))


def mlp_sparse_forward(
    w: MlpWeights, x: np.ndarray, input_mask=None, intermediate_mask=None
) -> np.ndarray:
    """Block output with masked columns zeroed, per row.

    input_mask zeroes columns of up/gate (equivalently, entries of x);
    intermediate_mask zeroes columns of down (equivalently, intermediate
    units).  All-ones masks reproduce the dense forward bit-for-bit.
    """
    return down_projection(w, glu_activations(w, x, input_mask), intermediate_mask)


# ---------------------------------------------------------------------------
# output-error metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorMetrics:
    """Relative L2 distance and cosine similarity against a reference output."""

    rel_l2: float
    cosine: float


def approx_error(y_ref: np.ndarray, y: np.ndarray) -> ErrorMetrics:
    """Error of y against reference y_ref.

    rel_l2 = ||y - y_ref|| / max(||y_ref||, 1e-12).  The cosine of two zero
    vectors is defined as 1.0 (identical), and 0.0 when exactly one is zero.
    """
    y_ref = np.asarray(y_ref, dtype=float)
    y = np.asarray(y, dtype=float)
    if y_ref.shape != y.shape:
        raise ValueError("shape mismatch")
    ref_norm = float(np.linalg.norm(y_ref))
    norm = float(np.linalg.norm(y))
    rel = float(np.linalg.norm(y - y_ref)) / max(ref_norm, _EPS)
    if ref_norm <= _EPS and norm <= _EPS:
        cos = 1.0
    elif ref_norm <= _EPS or norm <= _EPS:
        cos = 0.0
    else:
        cos = float(np.dot(y_ref, y) / (ref_norm * norm))
    return ErrorMetrics(rel_l2=rel, cosine=cos)


def _row_norms(y: np.ndarray) -> np.ndarray:
    # sqrt of one dot product per row: np.linalg.norm's x.dot(x), bit for bit
    return np.sqrt(np.matmul(y[:, None, :], y[:, :, None])[:, 0, 0])


def rel_l2_rows(y_ref: np.ndarray, y: np.ndarray) -> np.ndarray:
    """approx_error(y_ref[i], y[i]).rel_l2 for every row i of [n, dim]
    outputs, bit for bit, as one array."""
    y_ref = np.asarray(y_ref, dtype=float)
    y = np.asarray(y, dtype=float)
    if y_ref.shape != y.shape or y.ndim != 2:
        raise ValueError("shape mismatch")
    return _row_norms(y - y_ref) / np.maximum(_row_norms(y_ref), _EPS)


# ---------------------------------------------------------------------------
# LoRA adapters and distillation fitting
# ---------------------------------------------------------------------------

@dataclass
class LoraAdapter:
    """Low-rank additive update a @ b with a: [rows, rank], b: [rank, cols]."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.ndim != 2 or self.b.ndim != 2 or self.a.shape[1] != self.b.shape[0]:
            raise ValueError("adapter factors must be 2-d with matching inner dim")
        if self.rank > min(self.a.shape[0], self.b.shape[1]):
            raise ValueError("rank must not exceed either full dimension")

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    def delta(self) -> np.ndarray:
        return self.a @ self.b

    @classmethod
    def init(cls, rows: int, cols: int, rank: int, rng: np.random.Generator,
             a_scale: float = 0.01) -> "LoraAdapter":
        """Gaussian a (scale 0.01), zero b: the initial update is exactly zero."""
        return cls(a=a_scale * rng.standard_normal((rows, rank)),
                   b=np.zeros((rank, cols)))


def lora_fuse(w: np.ndarray, adapter: LoraAdapter) -> np.ndarray:
    """Fused weight w + a @ b.  Fusing then selecting columns equals selecting
    columns of w and of the adapter update separately (identity used when a
    sparsity mask is applied after adaptation)."""
    w = np.asarray(w, dtype=float)
    if adapter.delta().shape != w.shape:
        raise ValueError("adapter shape does not match weight")
    return w + adapter.delta()


@dataclass
class MlpAdapters:
    up: LoraAdapter
    gate: LoraAdapter
    down: LoraAdapter

    @classmethod
    def init(cls, w: MlpWeights, rank: int, rng: np.random.Generator) -> "MlpAdapters":
        return cls(
            up=LoraAdapter.init(w.d_ff, w.d_model, rank, rng),
            gate=LoraAdapter.init(w.d_ff, w.d_model, rank, rng),
            down=LoraAdapter.init(w.d_model, w.d_ff, rank, rng),
        )


def _student_forward(w: MlpWeights, ad: MlpAdapters, in_masks: np.ndarray,
                     mid_masks: np.ndarray, x_batch: np.ndarray):
    """Masked forward with adapted weights; returns output plus intermediates
    reused by the backward pass."""
    u_eff = w.up + ad.up.delta()
    g_eff = w.gate + ad.gate.delta()
    d_eff = w.down + ad.down.delta()
    xm = x_batch * in_masks
    u = xm @ u_eff.T
    g = xm @ g_eff.T
    s = silu(g)
    h = u * s
    hm = h * mid_masks
    y = hm @ d_eff.T
    return y, (xm, u, g, s, hm, d_eff)


def distill_loss_and_grads(w: MlpWeights, ad: MlpAdapters, in_masks: np.ndarray,
                           mid_masks: np.ndarray, x_batch: np.ndarray,
                           teacher: np.ndarray):
    """Mean-squared error between adapted sparse outputs and teacher outputs,
    with analytic gradients for all six adapter factors.

    in_masks: [n, d_model], mid_masks: [n, d_ff] (0/1 floats, fixed per
    sample); x_batch: [n, d_model]; teacher: [n, d_model].
    Returns (loss, {"up_a": ..., "up_b": ..., "gate_a": ..., "gate_b": ...,
    "down_a": ..., "down_b": ...}).
    """
    y, (xm, u, g, s, hm, d_eff) = _student_forward(w, ad, in_masks, mid_masks, x_batch)
    diff = y - teacher
    loss = float(np.mean(diff ** 2))
    dy = 2.0 * diff / diff.size
    d_down_full = dy.T @ hm                      # [d_model, d_ff]
    dh = (dy @ d_eff) * mid_masks                # [n, d_ff]
    du_full = (dh * s).T @ xm                    # [d_ff, d_model]
    dg_full = (dh * u * silu_grad(g)).T @ xm     # [d_ff, d_model]
    grads = {
        "up_a": du_full @ ad.up.b.T,
        "up_b": ad.up.a.T @ du_full,
        "gate_a": dg_full @ ad.gate.b.T,
        "gate_b": ad.gate.a.T @ dg_full,
        "down_a": d_down_full @ ad.down.b.T,
        "down_b": ad.down.a.T @ d_down_full,
    }
    return loss, grads


class _TrainResult:
    """The losses of every iterate, first to last; the parameters returned
    are those of the best one."""

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return min(self.losses)


def _descend(params: dict, loss_and_grads, steps: int, lr: float, what: str):
    """Plain gradient descent: steps updates p -= lr * grad, in place, on the
    live arrays params (name -> array), each after loss_and_grads() gives
    the loss at the current arrays and a gradient per name.  Returns the
    steps + 1 losses and copies of the arrays of the first iterate with the
    lowest one.  A non-finite loss raises TrainingDivergedError naming what."""
    losses, best = [], None
    for _ in range(steps + 1):
        loss, grads = loss_and_grads()
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"{what} loss became {loss}")
        if best is None or loss < best[0]:
            best = (loss, {k: v.copy() for k, v in params.items()})
        losses.append(loss)
        for k, v in params.items():
            v -= lr * grads[k]
    return losses, best[1]


@dataclass
class DistillResult(_TrainResult):
    adapters: MlpAdapters
    losses: list


def lora_fit_distill(w: MlpWeights, inputs: Sequence[np.ndarray], input_masks: np.ndarray,
                     intermediate_masks: np.ndarray, rank: int = 32, iters: int = 1000,
                     lr: float = 0.05, seed: int = 0) -> DistillResult:
    """Fit LoRA adapters on up/gate/down so the masked block matches the dense
    block on the given inputs.

    input_masks [n, d_model] and intermediate_masks [n, d_ff] are bool masks,
    row i for input i, such as the RowMasks of masking.dip_rows(w, inputs,
    k_in, k_mid).  They are held fixed while fitting: the top-k selection is
    not differentiable, and freezing it keeps the loss smooth so the
    gradients pass finite-difference checks.  Plain gradient descent; the
    returned adapters are the best-so-far iterate, which guarantees final
    loss <= initial loss.  iters=0 returns the (zero-update) initialization.
    """
    if rank < 1 or rank > min(w.d_model, w.d_ff):
        raise ValueError("rank out of range")
    if iters < 0:
        raise ValueError("iters must be >= 0")
    x_batch = np.asarray(list(inputs), dtype=float)
    if x_batch.ndim != 2 or x_batch.shape[1] != w.d_model:
        raise ValueError("inputs must be vectors of length d_model")
    in_masks = np.asarray(input_masks, dtype=bool)
    mid_masks = np.asarray(intermediate_masks, dtype=bool)
    if in_masks.shape != (len(x_batch), w.d_model) or mid_masks.shape != (len(x_batch), w.d_ff):
        raise ValueError("masks must be [n, d_model] and [n, d_ff], one row per input")
    in_masks, mid_masks = in_masks.astype(float), mid_masks.astype(float)
    teacher = mlp_dense_forward(w, x_batch)

    rng = np.random.default_rng(seed)
    ad = MlpAdapters.init(w, rank, rng)
    sides = ("up", "gate", "down")
    params = {f"{m}_{f}": getattr(getattr(ad, m), f) for m in sides for f in "ab"}
    losses, best = _descend(params, lambda: distill_loss_and_grads(
        w, ad, in_masks, mid_masks, x_batch, teacher), iters, lr, "distillation")
    adapters = MlpAdapters(*(LoraAdapter(best[f"{m}_a"], best[f"{m}_b"]) for m in sides))
    return DistillResult(adapters=adapters, losses=losses)


# ---------------------------------------------------------------------------
# intermediate-unit predictor
# ---------------------------------------------------------------------------

@dataclass
class Predictor:
    """One-hidden-layer scorer of intermediate units from the block input.

    w1: [hidden, d_model], w2: [d_ff, hidden]; SiLU hidden nonlinearity.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=float)
        self.b1 = np.asarray(self.b1, dtype=float)
        self.w2 = np.asarray(self.w2, dtype=float)
        self.b2 = np.asarray(self.b2, dtype=float)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("predictor weights must be 2-d")
        if self.b1.shape != (self.w1.shape[0],) or self.b2.shape != (self.w2.shape[0],):
            raise ValueError("bias shapes do not match weights")
        if self.w2.shape[1] != self.w1.shape[0]:
            raise ValueError("hidden dimensions do not match")

    @property
    def d_model(self) -> int:
        return self.w1.shape[1]

    @property
    def d_ff(self) -> int:
        return self.w2.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def num_params(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + self.b2.size

    @classmethod
    def create(cls, d_model: int, d_ff: int, hidden: int = 64, seed: int = 0,
               scale: float = 0.1) -> "Predictor":
        rng = np.random.default_rng(seed)
        return cls(
            w1=scale * rng.standard_normal((hidden, d_model)),
            b1=np.zeros(hidden),
            w2=scale * rng.standard_normal((d_ff, hidden)),
            b2=np.zeros(d_ff),
        )


def predictor_forward(p: Predictor, x: np.ndarray) -> np.ndarray:
    """Logits over the d_ff intermediate units: [d_ff] for one input vector,
    [n, d_ff] for rows [n, d_model]."""
    xs, one = _rows(x, p.d_model)
    z = _matvec(p.w2, silu(_matvec(p.w1, xs) + p.b1)) + p.b2
    return z[0] if one else z


def topk_binary_targets(glu_batch: np.ndarray, target_frac: float) -> np.ndarray:
    """Per-row indicator of the ceil(target_frac * d_ff) largest magnitudes.

    Ties resolve to the lower index, matching the mask tie rule.
    """
    glu_batch = np.asarray(glu_batch, dtype=float)
    if not 0.0 < target_frac <= 1.0:
        raise ValueError("target_frac must be in (0, 1]")
    from .masking import topk_rows  # masking builds on this module

    k = int(np.ceil(target_frac * glu_batch.shape[1]))
    return topk_rows(np.abs(glu_batch), k)[1].astype(float)


def predictor_loss_and_grads(p: Predictor, x_batch: np.ndarray, targets: np.ndarray):
    """Elementwise binary cross-entropy on sigmoid(logits), with gradients.

    Uses the overflow-safe logits form max(z,0) - z*y + log1p(exp(-|z|)).
    """
    x_batch = np.asarray(x_batch, dtype=float)
    targets = np.asarray(targets, dtype=float)
    z1 = x_batch @ p.w1.T + p.b1
    a = silu(z1)
    z = a @ p.w2.T + p.b2
    loss = float(np.mean(np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))))
    dz = (_sigmoid(z) - targets) / z.size
    da = dz @ p.w2
    dz1 = da * silu_grad(z1)
    grads = {
        "w2": dz.T @ a,
        "b2": dz.sum(axis=0),
        "w1": dz1.T @ x_batch,
        "b1": dz1.sum(axis=0),
    }
    return loss, grads


@dataclass
class PredictorTrainResult(_TrainResult):
    predictor: Predictor
    losses: list


def predictor_train(data: Sequence, hidden: int = 64, epochs: int = 20,
                    lr: float = 1.0, target_frac: float = 0.1,
                    seed: int = 0) -> PredictorTrainResult:
    """Train a predictor on (input, intermediate-activation) pairs.

    Binary targets mark the top target_frac fraction of |activations| per
    token.  Full-batch gradient descent, one step per epoch; the returned
    predictor is the best-so-far iterate (final loss <= initial loss).
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    xs, glus = zip(*data)
    x_batch = np.asarray(xs, dtype=float)
    glu_batch = np.asarray(glus, dtype=float)
    targets = topk_binary_targets(glu_batch, target_frac)
    p = Predictor.create(x_batch.shape[1], glu_batch.shape[1], hidden=hidden, seed=seed)
    names = ("w1", "b1", "w2", "b2")
    losses, best = _descend({k: getattr(p, k) for k in names},
                            lambda: predictor_loss_and_grads(p, x_batch, targets),
                            epochs, lr, "predictor")
    return PredictorTrainResult(predictor=Predictor(*(best[k] for k in names)),
                                losses=losses)
