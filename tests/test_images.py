"""Netpbm I/O and bilinear resampling."""

import numpy as np
import pytest

from seglang.images import (bilinear_resize, read_pgm, read_pgm_raw, read_ppm,
                            to_unit_float, write_pgm, write_pgm_prob,
                            write_ppm)


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
    p = str(tmp_path / "x.ppm")
    write_ppm(p, img)
    assert np.array_equal(read_ppm(p), img)


def test_pgm_roundtrip_bool(tmp_path):
    mask = np.zeros((4, 6), dtype=bool)
    mask[1:3, 2:5] = True
    p = str(tmp_path / "m.pgm")
    write_pgm(p, mask)
    back = read_pgm(p)
    assert back.dtype == bool
    assert np.array_equal(back, mask)
    assert set(np.unique(read_pgm_raw(p))) <= {0, 255}


def test_pgm_prob_rounds_to_bytes(tmp_path):
    prob = np.array([[0.0, 0.25, 0.5], [0.75, 1.0, 0.501]])
    p = str(tmp_path / "s.pgm")
    write_pgm_prob(p, prob)
    raw = read_pgm_raw(p)
    assert np.array_equal(raw, np.rint(prob * 255).astype(np.uint8))


def test_header_comments_tolerated(tmp_path):
    p = tmp_path / "c.pgm"
    payload = bytes(range(6))
    p.write_bytes(b"P5\n# a comment\n3 # trailing\n2\n# more\n255\n" + payload)
    arr = read_pgm_raw(str(p))
    assert arr.shape == (2, 3)
    assert np.array_equal(arr.reshape(-1), np.frombuffer(payload, np.uint8))


def test_wrong_magic_rejected(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ValueError, match="not P6"):
        read_ppm(str(p))
    p2 = tmp_path / "bad2"
    p2.write_bytes(b"P6\n1 1\n255\n" + bytes(3))
    with pytest.raises(ValueError, match="not P5"):
        read_pgm(str(p2))
    with pytest.raises(ValueError, match="need HxWx3"):
        write_ppm(str(tmp_path / "z"), np.zeros((2, 2), dtype=np.uint8))


@pytest.mark.parametrize("magic,read,size", [(b"P6", read_ppm, 2 * 3 * 3),
                                             (b"P5", read_pgm, 2 * 3)])
def test_short_body_names_the_file_and_size(tmp_path, magic, read, size):
    p = tmp_path / "short"
    p.write_bytes(magic + b"\n3 2\n255\n" + bytes(size - 1))
    with pytest.raises(ValueError, match=f"short.*{size - 1} bytes, expected {size}"):
        read(str(p))


@pytest.mark.parametrize("header,field", [(b"P6\nab 2\n255\n", "width"),
                                          (b"P5\n2 x2\n255\n", "height"),
                                          (b"P6\n2 2\n-1\n", "maxval")])
def test_non_numeric_header_field_is_named(tmp_path, header, field):
    p = tmp_path / "odd"
    p.write_bytes(header + bytes(12))
    read = read_ppm if header.startswith(b"P6") else read_pgm
    with pytest.raises(ValueError, match=f"odd: netpbm {field} b'.*' is not"):
        read(str(p))


@pytest.mark.parametrize("header", [b"P6\n0 0\n255\n", b"P6\n0 2\n255\n",
                                    b"P5\n3 0\n255\n"])
def test_zero_width_or_height_is_named(tmp_path, header):
    p = tmp_path / "empty"
    p.write_bytes(header)
    read = read_ppm if header.startswith(b"P6") else read_pgm
    with pytest.raises(ValueError, match="empty: netpbm size .* is empty"):
        read(str(p))


@pytest.mark.parametrize("magic,read", [(b"P6", read_ppm), (b"P5", read_pgm)])
def test_header_fuzz_loads_or_names_the_file(tmp_path, magic, read):
    # random byte edits to a valid header either still parse or raise a
    # ValueError that names the file, never a bare parser error
    rng = np.random.default_rng(12)
    header = bytearray(magic + b"\n# c\n3 2\n255\n")
    body = bytes(range(3 * 2 * 3))
    alphabet = b"0123456789 \n\t#-+xa\xff\x00"
    p = tmp_path / "fuzzed"
    for _ in range(300):
        edited = bytearray(header)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(2, len(edited) + 1))
            byte = alphabet[int(rng.integers(len(alphabet)))]
            op = int(rng.integers(3))
            if op == 0 and at < len(edited):
                edited[at] = byte
            elif op == 1:
                edited.insert(at, byte)
            elif at < len(edited):
                del edited[at]
        p.write_bytes(bytes(edited) + body)
        try:
            arr = read(str(p))
        except ValueError as exc:
            assert str(p) in str(exc)
        else:
            assert arr.ndim == (3 if magic == b"P6" else 2)


@pytest.mark.parametrize("magic,read,channels", [(b"P6", read_ppm, 3),
                                                 (b"P5", read_pgm_raw, 1)])
def test_body_fuzz_flips_one_pixel_or_names_the_cut(tmp_path, magic, read, channels):
    # a flipped body byte loads with the same shape and changes exactly that
    # value; a body cut short raises the ValueError that names the file
    rng = np.random.default_rng(13)
    size = 4 * 5 * channels
    body = rng.integers(0, 256, size, dtype=np.uint8)
    header = magic + b"\n5 4\n255\n"
    p = tmp_path / "img"
    for _ in range(200):
        edited = body.copy()
        at = int(rng.integers(size))
        edited[at] ^= rng.integers(1, 256, dtype=np.uint8)
        p.write_bytes(header + edited.tobytes())
        got = read(str(p))
        assert got.shape == ((4, 5) if channels == 1 else (4, 5, channels))
        assert np.flatnonzero(got.reshape(-1) != body).tolist() == [at]
        cut = int(rng.integers(size))
        p.write_bytes(header + edited.tobytes()[:cut])
        with pytest.raises(ValueError,
                           match=f"img: body has {cut} bytes, expected {size}"):
            read(str(p))


def test_to_unit_float_range():
    img = np.array([[[0, 128, 255]]], dtype=np.uint8)
    out = to_unit_float(img)
    assert out.dtype == np.float64
    assert np.allclose(out, [[[0.0, 128 / 255, 1.0]]])


# ---- bilinear ---------------------------------------------------------------

def bilinear_oracle(src, out_h, out_w):
    """Scalar-at-a-time reimplementation with half-pixel centers."""
    h, w = src.shape[:2]
    out = np.zeros((out_h, out_w) + src.shape[2:])
    for i in range(out_h):
        for j in range(out_w):
            y = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            x = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = y - y0, x - x0
            out[i, j] = ((src[y0, x0] * (1 - fx) + src[y0, x1] * fx) * (1 - fy)
                         + (src[y1, x0] * (1 - fx) + src[y1, x1] * fx) * fy)
    return out


def test_bilinear_matches_pointwise_oracle():
    rng = np.random.default_rng(1)
    src = rng.random((5, 3, 3))
    for oh, ow in [(10, 6), (3, 2), (5, 3), (7, 7)]:
        got = bilinear_resize(src, oh, ow)
        assert np.allclose(got, bilinear_oracle(src, oh, ow), atol=1e-12)


def test_bilinear_constants_and_identity():
    const = np.full((3, 3, 3), 0.7)
    assert np.allclose(bilinear_resize(const, 9, 5), 0.7, atol=1e-12)
    one = np.full((1, 1, 3), 0.3)
    assert np.allclose(bilinear_resize(one, 4, 4), 0.3, atol=1e-12)
    rng = np.random.default_rng(3)
    src = rng.random((6, 6, 3))
    assert np.allclose(bilinear_resize(src, 6, 6), src, atol=1e-12)
