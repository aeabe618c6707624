"""Synthetic activation traces and the binary file formats.

Traces hold one activation vector per (token, layer) and are generated as
sign * lognormal(mu_l, sigma_l) with i.i.d. Rademacher signs: heavy-tailed
magnitudes whose scale differs per layer, mimicking how activation statistics
drift with depth.  Generation is deterministic per seed, and generated values
are quantized through float32 so an in-memory trace equals its file
round-trip bit-for-bit.

Trace files ('DSTR' magic) carry float32 activation vectors (payload kind
0; files of the unit-index payload, kind 1, are rejected); weight tensor
files ('DWTS' magic) carry row-major float32 tensors.  All integers
little-endian.  Values widen to float64 in memory.  Files are written
atomically (temp file + rename).
"""

from __future__ import annotations

import os
import secrets
import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .mlp import LoraAdapter, MlpAdapters, MlpWeights

__all__ = [
    "TraceFormatError",
    "SyntheticTraceSpec",
    "Trace",
    "generate_synthetic_trace",
    "synthetic_layer_weights",
    "write_trace",
    "read_trace",
    "write_tensors",
    "read_tensors",
    "save_mlp_weights",
    "load_mlp_weights",
    "save_adapters",
    "load_adapters",
]

TRACE_MAGIC = b"DSTR"
TENSOR_MAGIC = b"DWTS"
TRACE_VERSION = 1
TENSOR_VERSION = 1
KIND_ACTIVATIONS = 0


class TraceFormatError(ValueError):
    """Malformed trace or tensor file (bad magic, version, or truncation)."""


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


def generate_synthetic_trace(spec: SyntheticTraceSpec) -> Trace:
    """Heavy-tailed synthetic activations, deterministic per seed.

    Per layer l: |value| ~ lognormal(mu_l, sigma_l), sign ~ Rademacher,
    all i.i.d. across tokens and channels.  Values pass through float32 so
    file round-trips are bit-exact.
    """
    rng = np.random.default_rng(spec.seed)
    acts = np.empty((spec.num_tokens, spec.num_layers, spec.d_model))
    for l in range(spec.num_layers):
        mags = rng.lognormal(mean=spec.mu[l], sigma=spec.sigma[l],
                             size=(spec.num_tokens, spec.d_model))
        signs = rng.integers(0, 2, size=(spec.num_tokens, spec.d_model)) * 2 - 1
        acts[:, l, :] = mags * signs
    acts = acts.astype(np.float32).astype(np.float64)
    return Trace(num_layers=spec.num_layers, d_model=spec.d_model, d_ff=spec.d_ff,
                 activations=acts)


def synthetic_layer_weights(num_layers: int, d_model: int, d_ff: int,
                            seed: int = 0) -> List[MlpWeights]:
    """One random MLP block per layer, independently seeded via SeedSequence
    spawning so layer weights are decorrelated but reproducible."""
    seeds = np.random.SeedSequence(seed).generate_state(num_layers)
    return [MlpWeights.random(d_model, d_ff, seed=int(s)) for s in seeds]


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


class _Reader:
    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TraceFormatError(f"truncated {self.what}: wanted {n} bytes at "
                                   f"offset {self.pos}, file has {len(self.data)}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> None:
        if self.pos != len(self.data):
            raise TraceFormatError(
                f"trailing data in {self.what}: {len(self.data) - self.pos} extra bytes")


def write_trace(path, trace: Trace) -> None:
    out = bytearray()
    out += TRACE_MAGIC
    out += struct.pack("<IB", TRACE_VERSION, KIND_ACTIVATIONS)
    out += struct.pack("<IIII", trace.num_layers, trace.d_model, trace.d_ff,
                       trace.num_tokens)
    out += np.ascontiguousarray(trace.activations, dtype="<f4").tobytes()
    atomic_write(path, bytes(out))


def read_trace(path) -> Trace:
    with open(path, "rb") as f:
        r = _Reader(f.read(), "trace file")
    magic = r.take(4)
    if magic != TRACE_MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}: not a trace file")
    version, kind = r.unpack("<IB")
    if version != TRACE_VERSION:
        raise TraceFormatError(f"unsupported trace version {version}")
    if kind != KIND_ACTIVATIONS:
        raise TraceFormatError(f"unsupported payload kind {kind}: only activation "
                               f"traces (kind {KIND_ACTIVATIONS}) are read")
    num_layers, d_model, d_ff, num_tokens = r.unpack("<IIII")
    raw = r.take(4 * num_tokens * num_layers * d_model)
    r.done()
    acts = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if not np.isfinite(acts).all():
        raise TraceFormatError("trace file holds non-finite activations")
    return Trace(num_layers=num_layers, d_model=d_model, d_ff=d_ff,
                 activations=acts.reshape(num_tokens, num_layers, d_model))


# ---------------------------------------------------------------------------
# weight tensor files
# ---------------------------------------------------------------------------

def write_tensors(path, arrays: Sequence[np.ndarray]) -> None:
    """Row-major float32 tensors, any count, dims in the header."""
    out = bytearray()
    out += TENSOR_MAGIC
    out += struct.pack("<II", TENSOR_VERSION, len(arrays))
    for arr in arrays:
        arr = np.asarray(arr)
        out += struct.pack("<I", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    atomic_write(path, bytes(out))


def read_tensors(path) -> List[np.ndarray]:
    with open(path, "rb") as f:
        r = _Reader(f.read(), "tensor file")
    magic = r.take(4)
    if magic != TENSOR_MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}: not a tensor file")
    version, count = r.unpack("<II")
    if version != TENSOR_VERSION:
        raise TraceFormatError(f"unsupported tensor version {version}")
    arrays = []
    for _ in range(count):
        (ndim,) = r.unpack("<I")
        shape = r.unpack(f"<{ndim}I") if ndim else ()
        n = int(np.prod(shape)) if shape else 1
        raw = r.take(4 * n)
        arrays.append(np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape))
    r.done()
    return arrays


def save_mlp_weights(path, w: MlpWeights) -> None:
    write_tensors(path, [w.up, w.gate, w.down])


def load_mlp_weights(path) -> MlpWeights:
    arrays = read_tensors(path)
    if len(arrays) != 3:
        raise TraceFormatError(f"expected 3 tensors (up, gate, down), got {len(arrays)}")
    return MlpWeights(up=arrays[0], gate=arrays[1], down=arrays[2])


def save_adapters(path, ad: MlpAdapters) -> None:
    write_tensors(path, [ad.up.a, ad.up.b, ad.gate.a, ad.gate.b, ad.down.a, ad.down.b])


def load_adapters(path) -> MlpAdapters:
    arrays = read_tensors(path)
    if len(arrays) != 6:
        raise TraceFormatError(f"expected 6 adapter tensors, got {len(arrays)}")
    return MlpAdapters(up=LoraAdapter(arrays[0], arrays[1]),
                       gate=LoraAdapter(arrays[2], arrays[3]),
                       down=LoraAdapter(arrays[4], arrays[5]))
