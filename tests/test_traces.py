"""Synthetic activation traces and the binary trace / tensor file formats."""
import os
import struct

import numpy as np
import pytest

from sparsim import (
    MlpAdapters,
    MlpWeights,
    SyntheticTraceSpec,
    Trace,
    TraceFormatError,
    generate_synthetic_trace,
    load_adapters,
    load_mlp_weights,
    read_tensors,
    read_trace,
    save_adapters,
    save_mlp_weights,
    synthetic_layer_weights,
    write_tensors,
    write_trace,
)
from sparsim import traces


SPEC = SyntheticTraceSpec(num_tokens=6, num_layers=2, d_model=8, d_ff=24,
                          mu=0.0, sigma=1.0, seed=3)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def test_generation_is_deterministic():
    a = generate_synthetic_trace(SPEC)
    b = generate_synthetic_trace(SPEC)
    np.testing.assert_array_equal(a.activations, b.activations)
    c = generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=6, num_layers=2, d_model=8, d_ff=24, seed=4))
    assert not np.array_equal(a.activations, c.activations)


def test_trace_shape_and_metadata():
    tr = generate_synthetic_trace(SPEC)
    assert tr.activations.shape == (6, 2, 8)
    assert tr.num_tokens == 6
    assert tr.num_layers == 2 and tr.d_model == 8 and tr.d_ff == 24


def test_values_are_signed_heavy_tailed():
    tr = generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=200, num_layers=1, d_model=64, d_ff=8, sigma=1.0, seed=0))
    v = tr.activations.ravel()
    assert (v > 0).any() and (v < 0).any()
    # |values| are log-normal: the mean exceeds the median noticeably
    mags = np.abs(v)
    assert mags.mean() > 1.2 * np.median(mags)


def test_per_layer_mu_controls_scale():
    tr = generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=50, num_layers=2, d_model=32, d_ff=8, mu=[0.0, 2.0],
        sigma=0.5, seed=1))
    m0 = np.abs(tr.activations[:, 0]).mean()
    m1 = np.abs(tr.activations[:, 1]).mean()
    assert m1 > 4 * m0  # e^2 scale separation


def test_degenerate_sigma_concentrates_at_exp_mu():
    tr = generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=10, num_layers=1, d_model=16, d_ff=8, mu=1.0, sigma=1e-9,
        seed=0))
    np.testing.assert_allclose(np.abs(tr.activations), np.e, rtol=1e-5)


def test_values_survive_float32_quantization():
    tr = generate_synthetic_trace(SPEC)
    np.testing.assert_array_equal(
        tr.activations, tr.activations.astype(np.float32).astype(np.float64))


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticTraceSpec(num_tokens=4, num_layers=2, d_model=8, d_ff=24,
                           sigma=0.0)
    with pytest.raises(ValueError):
        SyntheticTraceSpec(num_tokens=4, num_layers=2, d_model=8, d_ff=24,
                           mu=[0.0, 1.0, 2.0])  # wrong per-layer count
    with pytest.raises(ValueError):
        SyntheticTraceSpec(num_tokens=-1, num_layers=2, d_model=8, d_ff=24)


def test_synthetic_layer_weights():
    ws = synthetic_layer_weights(3, 8, 24, seed=0)
    assert len(ws) == 3
    assert all(w.d_model == 8 and w.d_ff == 24 for w in ws)
    assert not np.array_equal(ws[0].up, ws[1].up)  # layers differ
    ws2 = synthetic_layer_weights(3, 8, 24, seed=0)
    np.testing.assert_array_equal(ws[2].down, ws2[2].down)


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def test_activation_trace_round_trip_is_bit_exact(tmp_path):
    tr = generate_synthetic_trace(SPEC)
    path = tmp_path / "t.bin"
    write_trace(path, tr)
    back = read_trace(path)
    assert (back.num_layers, back.d_model, back.d_ff) == (2, 8, 24)
    np.testing.assert_array_equal(back.activations, tr.activations)


def unit_access_trace_file(path):
    """A file of the old unit-access payload (kind 1): per token and layer,
    a varint count and varint unit indices."""
    header = traces.TRACE_MAGIC + struct.pack("<IB", traces.TRACE_VERSION, 1)
    path.write_bytes(header + struct.pack("<IIII", 2, 8, 24, 2)
                     + bytes([3, 0, 3, 7, 1, 2, 0, 2, 1, 4]))


def test_read_rejects_unit_access_trace(tmp_path):
    # the unit-access payload is no longer read: it cannot drive a run
    path = tmp_path / "u.bin"
    unit_access_trace_file(path)
    with pytest.raises(TraceFormatError, match="payload kind 1"):
        read_trace(path)


def test_empty_trace_round_trip(tmp_path):
    tr = Trace(num_layers=2, d_model=8, d_ff=24,
               activations=np.zeros((0, 2, 8)))
    path = tmp_path / "e.bin"
    write_trace(path, tr)
    back = read_trace(path)
    assert back.num_tokens == 0
    assert back.activations.shape == (0, 2, 8)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(TraceFormatError, match="magic"):
        read_trace(path)


def test_read_rejects_truncated_file(tmp_path):
    tr = generate_synthetic_trace(SPEC)
    path = tmp_path / "t.bin"
    write_trace(path, tr)
    data = path.read_bytes()
    for cut in (5, 12, len(data) - 3):
        short = tmp_path / f"cut{cut}.bin"
        short.write_bytes(data[:cut])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(short)


def test_read_rejects_non_finite_activations(tmp_path):
    tr = generate_synthetic_trace(SPEC)
    for bad in (np.nan, np.inf):
        acts = tr.activations.copy()
        acts[2, 1, 5] = bad
        path = tmp_path / "t.bin"
        write_trace(path, Trace(num_layers=2, d_model=8, d_ff=24, activations=acts))
        with pytest.raises(TraceFormatError, match="non-finite"):
            read_trace(path)


def test_read_rejects_trailing_data(tmp_path):
    tr = generate_synthetic_trace(SPEC)
    path = tmp_path / "t.bin"
    write_trace(path, tr)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TraceFormatError, match="trailing"):
        read_trace(path)


def test_read_rejects_unknown_version(tmp_path):
    tr = generate_synthetic_trace(SPEC)
    path = tmp_path / "t.bin"
    write_trace(path, tr)
    data = bytearray(path.read_bytes())
    data[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="version"):
        read_trace(path)


def test_trace_validation():
    with pytest.raises(TypeError):
        Trace(num_layers=2, d_model=8, d_ff=24)  # no payload
    with pytest.raises(ValueError):
        Trace(num_layers=2, d_model=8, d_ff=24, activations=np.zeros((2, 3, 8)))
    with pytest.raises(ValueError):
        Trace(num_layers=2, d_model=8, d_ff=24, activations=np.zeros((2, 8)))


# ---------------------------------------------------------------------------
# tensor files
# ---------------------------------------------------------------------------

def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal((3, 4)).astype(np.float32).astype(float),
              rng.standard_normal(7).astype(np.float32).astype(float),
              np.zeros((2, 2, 2))]
    path = tmp_path / "w.bin"
    write_tensors(path, arrays)
    back = read_tensors(path)
    assert len(back) == 3
    for a, b in zip(arrays, back):
        np.testing.assert_array_equal(a, b)


def test_tensor_file_bad_magic(tmp_path):
    path = tmp_path / "w.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TraceFormatError, match="magic"):
        read_tensors(path)


def test_mlp_weights_round_trip(tmp_path):
    w = MlpWeights.random(6, 18, seed=5)
    # quantized on disk, so store the f32-rounded form for exact equality
    w32 = MlpWeights(up=w.up.astype(np.float32).astype(float),
                     gate=w.gate.astype(np.float32).astype(float),
                     down=w.down.astype(np.float32).astype(float))
    path = tmp_path / "w.bin"
    save_mlp_weights(path, w32)
    back = load_mlp_weights(path)
    np.testing.assert_array_equal(back.up, w32.up)
    np.testing.assert_array_equal(back.gate, w32.gate)
    np.testing.assert_array_equal(back.down, w32.down)


def test_mlp_weights_file_requires_three_tensors(tmp_path):
    path = tmp_path / "w.bin"
    write_tensors(path, [np.zeros((2, 2))])
    with pytest.raises(TraceFormatError, match="3 tensors"):
        load_mlp_weights(path)


def test_adapters_round_trip(tmp_path):
    w = MlpWeights.random(6, 18, seed=1)
    rng = np.random.default_rng(2)
    ad = MlpAdapters.init(w, rank=3, rng=rng)
    ad.up.b[:] = rng.standard_normal(ad.up.b.shape)
    for m in (ad.up, ad.gate, ad.down):
        m.a[:] = m.a.astype(np.float32)
        m.b[:] = m.b.astype(np.float32)
    path = tmp_path / "ad.bin"
    save_adapters(path, ad)
    back = load_adapters(path)
    np.testing.assert_array_equal(back.up.a, ad.up.a)
    np.testing.assert_array_equal(back.up.b, ad.up.b)
    np.testing.assert_array_equal(back.down.b, ad.down.b)
    assert back.gate.rank == 3


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

def test_written_file_has_the_mode_open_gives(tmp_path):
    plain = tmp_path / "plain.bin"
    plain.write_bytes(b"")
    path = tmp_path / "t.bin"
    write_trace(path, generate_synthetic_trace(SPEC))
    assert path.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.bin", "t.bin"]


def test_failed_rename_leaves_no_partial_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(traces.os, "replace", fail)
    path = tmp_path / "t.bin"
    with pytest.raises(OSError):
        write_trace(path, generate_synthetic_trace(SPEC))
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"old")
    with pytest.raises(OSError):
        write_tensors(path, [np.ones(3)])
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old"


def test_write_failing_midway_leaves_no_partial_file(tmp_path, monkeypatch):
    real_fdopen = os.fdopen

    class HalfWriter:
        def __init__(self, fd, mode):
            self.f = real_fdopen(fd, mode)

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            raise OSError("no space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    monkeypatch.setattr(traces.os, "fdopen", HalfWriter)
    path = tmp_path / "t.bin"
    with pytest.raises(OSError):
        write_trace(path, generate_synthetic_trace(SPEC))
    assert list(tmp_path.iterdir()) == []
