"""Synthetic activation traces and the binary trace file format.

Traces hold one activation vector per (token, layer) and are generated as
signed_lognormal(mu_l, sigma_l): sign * lognormal with i.i.d. Rademacher
signs, heavy-tailed magnitudes whose scale differs per layer, mimicking how
activation statistics drift with depth.  The CLI's calibration inputs are
drawn by the same function.  Generation is deterministic per seed, and generated values
are quantized through float32 so an in-memory trace equals its file
round-trip bit-for-bit.

A trace file is a header (_HEADER names its fields in order) and then the
float32 activations [tokens, layers, d_model], little-endian.  Only payload
kind 0 is read (the unit-index payload, kind 1, is rejected).  Values widen
to float64 in memory.  Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import os
import secrets
import struct
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .mlp import MlpWeights, _fill_random

__all__ = [
    "TraceFormatError",
    "SyntheticTraceSpec",
    "Trace",
    "signed_lognormal",
    "generate_synthetic_trace",
    "synthetic_layer_weights",
    "write_trace",
    "read_trace",
]

TRACE_MAGIC = b"DSTR"
TRACE_VERSION = 1
KIND_ACTIVATIONS = 0


class TraceFormatError(ValueError):
    """Malformed trace file (bad magic, version, payload kind, truncation,
    trailing data or non-finite activations)."""


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Generator parameters; mu and sigma broadcast from scalars to layers."""

    num_tokens: int
    num_layers: int
    d_model: int
    d_ff: int
    mu: Union[float, Sequence[float]] = 0.0
    sigma: Union[float, Sequence[float]] = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_tokens < 0:
            raise ValueError("num_tokens must be >= 0")
        if self.num_layers < 1 or self.d_model < 1 or self.d_ff < 1:
            raise ValueError("dimensions must be >= 1")
        mu = self._broadcast(self.mu, "mu")
        sigma = self._broadcast(self.sigma, "sigma")
        if any(s <= 0 for s in sigma):
            raise ValueError("sigma must be > 0 per layer")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    def _broadcast(self, v, name) -> Tuple[float, ...]:
        if np.isscalar(v):
            return (float(v),) * self.num_layers
        vals = tuple(float(x) for x in v)
        if len(vals) != self.num_layers:
            raise ValueError(f"{name} must be scalar or one value per layer")
        return vals


@dataclass
class Trace:
    """In-memory trace: activations float64 [num_tokens, num_layers, d_model]
    (f32-representable)."""

    num_layers: int
    d_model: int
    d_ff: int
    activations: np.ndarray

    def __post_init__(self):
        self.activations = np.asarray(self.activations, dtype=float)
        if self.activations.ndim != 3 or self.activations.shape[1:] != (
                self.num_layers, self.d_model):
            raise ValueError("activations must be [tokens, num_layers, d_model]")

    @property
    def num_tokens(self) -> int:
        return self.activations.shape[0]


def signed_lognormal(rng: np.random.Generator, shape, mu: float, sigma: float) -> np.ndarray:
    """Values of the given shape, |value| ~ lognormal(mu, sigma) and sign ~
    Rademacher, all i.i.d.; rng draws every magnitude, then every sign."""
    mags = rng.lognormal(mean=mu, sigma=sigma, size=shape)
    return mags * (rng.integers(0, 2, size=shape) * 2 - 1)


def generate_synthetic_trace(spec: SyntheticTraceSpec) -> Trace:
    """Heavy-tailed synthetic activations, deterministic per seed: layer by
    layer, signed_lognormal(mu_l, sigma_l) over tokens and channels.  Values
    pass through float32 so file round-trips are bit-exact."""
    rng = np.random.default_rng(spec.seed)
    acts = np.empty((spec.num_tokens, spec.num_layers, spec.d_model))
    for l in range(spec.num_layers):
        acts[:, l, :] = signed_lognormal(rng, (spec.num_tokens, spec.d_model),
                                         spec.mu[l], spec.sigma[l])
    with np.errstate(over="ignore"):  # the check below rejects what overflows
        acts = acts.astype(np.float32).astype(np.float64)
    if not np.isfinite(acts).all():
        raise ValueError("mu and sigma give activations beyond the float32 range")
    return Trace(num_layers=spec.num_layers, d_model=spec.d_model, d_ff=spec.d_ff,
                 activations=acts)


def synthetic_layer_weights(num_layers: int, d_model: int, d_ff: int,
                            seed: int = 0) -> MlpWeights:
    """A stack of random MLP blocks, one per layer, independently seeded via
    SeedSequence spawning so layer weights are decorrelated but
    reproducible: layer l equals MlpWeights.random(d_model, d_ff, s_l) bit
    for bit, drawn in place into the stack."""
    seeds = np.random.SeedSequence(seed).generate_state(num_layers)
    up, gate = np.empty((2, num_layers, d_ff, d_model))
    down = np.empty((num_layers, d_model, d_ff))
    for l, s in enumerate(seeds):
        _fill_random(int(s), up[l], gate[l], down[l])
    return MlpWeights(up, gate, down)


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def atomic_write(path, data: bytes) -> None:
    """Write data to a temp file beside path, then rename it over path: a
    reader sees the old file or the whole new one, and a failed write
    leaves no partial file.  The file gets the mode open() would give it."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".sparsim-{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The file header, in order: magic, version, payload kind, num_layers,
# d_model, d_ff, num_tokens.  The float32 payload follows it.
_HEADER = struct.Struct("<4sIBIIII")


def write_trace(path, trace: Trace) -> None:
    dims = (trace.num_layers, trace.d_model, trace.d_ff, trace.num_tokens)
    if max(dims) >= 1 << 32:
        raise ValueError("trace dimensions must be below 2**32 to fit the file header")
    atomic_write(path, _HEADER.pack(TRACE_MAGIC, TRACE_VERSION, KIND_ACTIVATIONS, *dims)
                 + np.ascontiguousarray(trace.activations, dtype="<f4").tobytes())


def read_trace(path) -> Trace:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != TRACE_MAGIC:
        raise TraceFormatError(f"bad magic {data[:4]!r}: not a trace file")
    if len(data) < _HEADER.size:
        raise TraceFormatError(f"truncated trace file: the header takes {_HEADER.size} "
                               f"bytes, file has {len(data)}")
    _, version, kind, num_layers, d_model, d_ff, num_tokens = _HEADER.unpack_from(data)
    if version != TRACE_VERSION:
        raise TraceFormatError(f"unsupported trace version {version}")
    if kind != KIND_ACTIVATIONS:
        raise TraceFormatError(f"unsupported payload kind {kind}: only activation "
                               f"traces (kind {KIND_ACTIVATIONS}) are read")
    size = _HEADER.size + 4 * num_tokens * num_layers * d_model
    if len(data) < size:
        raise TraceFormatError(f"truncated trace file: the header gives {size} bytes, "
                               f"file has {len(data)}")
    if len(data) > size:
        raise TraceFormatError(f"trailing data in trace file: {len(data) - size} extra bytes")
    acts = np.frombuffer(data, dtype="<f4", offset=_HEADER.size).astype(np.float64)
    if not np.isfinite(acts).all():
        raise TraceFormatError("trace file holds non-finite activations")
    return Trace(num_layers=num_layers, d_model=d_model, d_ff=d_ff,
                 activations=acts.reshape(num_tokens, num_layers, d_model))
