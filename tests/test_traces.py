"""Synthetic activation traces and the binary trace file format."""
import os
import struct

import numpy as np
import pytest

from sparsim import (
    MlpWeights,
    SyntheticTraceSpec,
    Trace,
    TraceFormatError,
    generate_synthetic_trace,
    read_trace,
    synthetic_layer_weights,
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
    assert ws.up.shape == ws.gate.shape == (3, 24, 8) and ws.down.shape == (3, 8, 24)
    assert ws.d_model == 8 and ws.d_ff == 24
    assert not np.array_equal(ws.up[0], ws.up[1])  # layers differ
    ws2 = synthetic_layer_weights(3, 8, 24, seed=0)
    np.testing.assert_array_equal(ws.down[2], ws2.down[2])
    # layer l is the block MlpWeights.random draws from the layer's own
    # SeedSequence seed, bit for bit
    for seed, layers in ((0, 3), (7, 1), (2**40, 4)):
        ws = synthetic_layer_weights(layers, 8, 24, seed=seed)
        for l, s in enumerate(np.random.SeedSequence(seed).generate_state(layers)):
            one = MlpWeights.random(8, 24, seed=int(s))
            for m in ("up", "gate", "down"):
                assert getattr(ws, m)[l].tobytes() == getattr(one, m).tobytes(), (seed, l, m)


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


def test_written_bytes_follow_the_file_format(tmp_path):
    # the format as bytes built by hand, apart from traces._HEADER: a drift
    # shared by the writer and the reader would pass every round trip
    acts = np.arange(12, dtype=float).reshape(3, 2, 2) - 5.5
    path = tmp_path / "t.bin"
    write_trace(path, Trace(num_layers=2, d_model=2, d_ff=7, activations=acts))
    want = (b"DSTR" + struct.pack("<IB", 1, 0) + struct.pack("<IIII", 2, 2, 7, 3)
            + acts.astype("<f4").tobytes())
    assert path.read_bytes() == want


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


def test_write_rejects_dimensions_the_header_cannot_hold(tmp_path):
    # the header holds each dimension in 32 bits; d_ff costs no memory, so a
    # huge one reaches the writer
    tr = Trace(num_layers=2, d_model=8, d_ff=1 << 32, activations=np.zeros((1, 2, 8)))
    path = tmp_path / "big.bin"
    with pytest.raises(ValueError, match="2\\*\\*32"):
        write_trace(path, tr)
    assert not path.exists()


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
    for cut in (4, 5, 12, 24, 25, len(data) - 3):
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
        write_trace(path, generate_synthetic_trace(SPEC))
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
