import ctypes
import glob
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spikecast import kernels
from spikecast.kernels import (BnAffine, ConvParams, KernelError, avg_pool2d,
                               conv2d, fully_connected)

from conftest import (affine_expression, mean_avg_pool2d, naive_conv2d,
                      sliding_window_conv2d, traced_peak_bytes)


def random_conv_case(rng, c_out=None, n=None):
    """Random tiling geometry: anisotropic kernel, stride and padding."""
    while True:
        k_h, k_w = (int(v) for v in rng.integers(1, 5, size=2))
        s_h, s_w = (int(v) for v in rng.integers(1, 4, size=2))
        p_h, p_w = (int(v) for v in rng.integers(0, 3, size=2))
        h_o, w_o = (int(v) for v in rng.integers(1, 7, size=2))
        h = (h_o - 1) * s_h + k_h - 2 * p_h
        w = (w_o - 1) * s_w + k_w - 2 * p_w
        if h >= 1 and w >= 1:
            break
    c_in = int(rng.integers(1, 17))
    c_out = int(rng.integers(1, 17)) if c_out is None else c_out
    n = int(rng.integers(1, 5)) if n is None else n
    x = rng.uniform(-1, 1, size=(n, c_in, h, w))
    params = ConvParams(weights=rng.uniform(-1, 1, size=(c_out, c_in, k_h, k_w)),
                        stride=(s_h, s_w), padding=(p_h, p_w))
    return x, params


def bitwise_cases():
    """111 geometries pinned byte for byte against the sliding-window lowering."""
    rng = np.random.default_rng(17)
    cases = [random_conv_case(rng) for _ in range(60)]
    cases += [random_conv_case(rng, c_out=c_out, n=n)
              for c_out in (1, 2, 3) for n in (1, 5) for _ in range(8)]
    # C_out <= 3 is where BLAS rounding depends on operand layout
    x = rng.uniform(-1, 1, size=(5, 13, 4, 4))
    cases.append((x, ConvParams(weights=rng.uniform(-1, 1, size=(3, 13, 3, 3)))))
    # 1x1 outputs, with and without padding
    x = rng.uniform(-1, 1, size=(2, 4, 3, 5))
    cases.append((x, ConvParams(weights=rng.uniform(-1, 1, size=(2, 4, 3, 5)))))
    x = rng.uniform(-1, 1, size=(1, 3, 1, 2))
    cases.append((x, ConvParams(weights=rng.uniform(-1, 1, size=(1, 3, 3, 4)),
                                padding=(1, 1))))
    return cases


def multi_block_case(pad, c_out=8):
    """A batch of 15x15 outputs whose patch matrix spans several uneven
    blocks (an odd row count per image, so blocks start at unaligned rows)."""
    rng = np.random.default_rng(37 + pad)
    hw = 17 - 2 * pad
    x = rng.uniform(-1, 1, size=(133, 32, hw, hw))
    return x, ConvParams(weights=rng.uniform(-1, 1, size=(c_out, 32, 3, 3)),
                         padding=(pad, pad))


def one_conv(rng, n, c_in, c_out, hw, kernel, stride=1, pad=0):
    x = rng.uniform(-1, 1, size=(n, c_in, hw, hw))
    return x, ConvParams(weights=rng.uniform(-1, 1, size=(c_out, c_in, kernel, kernel)),
                         stride=(stride, stride), padding=(pad, pad))


def by_image_cases():
    """Geometries that conv2d lowers image by image, each with padding 0 and
    1: VGG-16's conv1_2 and conv2_1 on two images, and on one image a 3x3
    stride-2 conv, a 1x1 stride-2 projection and a 7x7 stride-2 stem. The
    last case sits on the multiply-add floor with H_o*W_o = C_out."""
    rng = np.random.default_rng(61)
    cases = {}
    for pad in (0, 1):
        grow = 2 - 2 * pad          # input rows that padding 0 needs more than padding 1
        cases[f"conv1_2-p{pad}"] = one_conv(rng, 2, 64, 64, 32 + grow, 3, 1, pad)
        cases[f"conv2_1-p{pad}"] = one_conv(rng, 2, 64, 128, 16 + grow, 3, 1, pad)
        cases[f"3x3-s2-p{pad}"] = one_conv(rng, 1, 64, 64, 31 + grow, 3, 2, pad)
        cases[f"1x1-s2-p{pad}"] = one_conv(rng, 1, 256, 128, 29 + grow, 1, 2, pad)
        cases[f"7x7-s2-p{pad}"] = one_conv(rng, 1, 3, 64, 67 + grow, 7, 2, pad)
    cases["at-floor"] = one_conv(rng, 1, 109, 64, 8, 3, 1, 1)
    return cases


def per_block_cases():
    """Neighbours of by_image_cases that keep the by-block lowering: a
    product just below the floor, fewer positions than output channels, and
    a position count or C_out off the multiple of 8."""
    rng = np.random.default_rng(67)
    return {
        "below-floor": one_conv(rng, 1, 108, 64, 8, 3, 1, 1),
        "fewer-positions": one_conv(rng, 1, 109, 72, 8, 3, 1, 1),
        "positions-off-8": one_conv(rng, 1, 64, 64, 33, 3, 2, 1),
        "c_out-off-8": one_conv(rng, 1, 64, 60, 32, 3, 1, 1),
    }


def conv_variants(x, p, rng):
    """(input, scale, affine, wanted bytes) for floats and bits, each without
    and with an affine: the sliding-window lowering, then the affine's plain
    expression."""
    a = random_affine(rng, p.out_channels).scaled(0.25)
    for inp, scale, dense in ((x, None, x), (x > 0.0, 0.25, (x > 0.0) * 0.25)):
        plain = sliding_window_conv2d(dense, p)
        for affine in (None, a):
            want = plain if affine is None else affine_expression(plain, affine)
            yield inp, scale, affine, want.tobytes()


def lowering_mismatches():
    """Names of by_image_cases whose conv2d bytes differ from the
    sliding-window lowering's, for floats or bits."""
    rng = np.random.default_rng(71)
    return [name for name, (x, p) in by_image_cases().items()
            if any(conv2d(inp, p, scale=scale, affine=affine).tobytes() != want
                   for inp, scale, affine, want in conv_variants(x, p, rng))]


def blas_core():
    """The OpenBLAS core this process runs, or None when numpy's BLAS does
    not report one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def random_affine(rng, channels):
    return BnAffine(gamma=rng.uniform(-1.5, 1.5, channels), beta=rng.uniform(-1, 1, channels),
                    mu=rng.uniform(-1, 1, channels), sigma_sq=rng.uniform(0.2, 2.0, channels),
                    bias=rng.uniform(-1, 1, channels))


def patch_bytes_per_image(x, p):
    h_o, w_o = kernels.conv_output_hw(x.shape[2], x.shape[3], p.kernel, p.stride, p.padding)
    return h_o * w_o * p.weights[0].size * 8


class TestConv2d:
    def test_identity_kernel(self):
        x = np.ones((1, 1, 3, 3))
        p = ConvParams(weights=np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(conv2d(x, p), x)

    def test_hand_dot_product(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        w = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
        out = conv2d(x, ConvParams(weights=w))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 5.0

    def test_zero_input(self):
        p = ConvParams(weights=np.random.default_rng(0).normal(size=(4, 3, 3, 3)))
        out = conv2d(np.zeros((2, 3, 5, 5)), p)
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c_i, c_o = rng.integers(1, 4, size=2)
            k = int(rng.choice([1, 2, 3]))
            s = int(rng.choice([1, 2]))
            pad = int(rng.integers(0, 2))
            h = int(rng.integers(k, 7)) * s + k - s  # keeps geometry exact
            x = rng.uniform(-1, 1, size=(2, c_i, h, h))
            w = rng.uniform(-1, 1, size=(c_o, c_i, k, k))
            p = ConvParams(weights=w, stride=(s, s), padding=(pad, pad))
            want = naive_conv2d(x, w, (s, s), (pad, pad))
            np.testing.assert_allclose(conv2d(x, p), want, atol=1e-12)

    def test_bitwise_equal_to_sliding_window_lowering(self):
        for x, p in bitwise_cases():
            got = conv2d(x, p)
            want = sliding_window_conv2d(x, p)
            assert got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    def test_scaled_bits_match_dense_input(self):
        theta = 0.37
        for x, p in bitwise_cases():
            bits = x > 0.0
            want = sliding_window_conv2d(bits * theta, p).tobytes()
            assert conv2d(bits, p, scale=theta).tobytes() == want
            assert conv2d(bits * theta, p).tobytes() == want

    def test_scaled_input_must_be_bits(self):
        p = ConvParams(weights=np.ones((1, 1, 1, 1)))
        with pytest.raises(KernelError, match="bool spike tensor"):
            conv2d(np.ones((1, 1, 2, 2)), p, scale=0.5)

    @pytest.mark.parametrize("pad, c_out", [(0, 8), (1, 8), (0, 2), (1, 2), (1, 3), (1, 1)])
    def test_multi_block_bitwise_equal(self, pad, c_out):
        x, p = multi_block_case(pad, c_out)
        assert x.shape[0] * patch_bytes_per_image(x, p) > 2 * kernels._PATCH_BLOCK_BYTES
        blocks = kernels._block_count(x.shape[0], patch_bytes_per_image(x, p) // 8, c_out, 8)
        assert (blocks > 1) == (c_out > 1)
        assert conv2d(x, p).tobytes() == sliding_window_conv2d(x, p).tobytes()
        bits = x > 0.0
        want = sliding_window_conv2d(bits * 0.25, p).tobytes()
        assert conv2d(bits, p, scale=0.25).tobytes() == want

    @pytest.mark.parametrize("budget", [None, 1 << 20])
    def test_small_c_out_splits_above_the_floor(self, budget, monkeypatch):
        # 300 images of 8x8 outputs at C_out = 2: the budget alone would cut
        # blocks of 1.8e6 multiply-adds (2.2e5 at 1 MiB, where such blocks
        # change bits); the floor keeps two blocks of 150 images
        if budget is not None:
            monkeypatch.setattr(kernels, "_PATCH_BLOCK_BYTES", budget)
        rng = np.random.default_rng(53)
        x = rng.uniform(-1, 1, size=(300, 32, 8, 8))
        p = ConvParams(weights=rng.uniform(-1, 1, size=(2, 32, 3, 3)), padding=(1, 1))
        n, entries = x.shape[0], patch_bytes_per_image(x, p) // 8
        by_budget = -(-n * entries * 8 // kernels._PATCH_BLOCK_BYTES)
        blocks = kernels._block_count(n, entries, 2, 8)
        assert blocks == 2 < by_budget
        assert (n // by_budget) * entries * 2 < kernels._BLOCK_MIN_MACS
        assert (n // blocks) * entries * 2 >= kernels._BLOCK_MIN_MACS
        assert conv2d(x, p).tobytes() == sliding_window_conv2d(x, p).tobytes()
        bits = x > 0.0
        want = sliding_window_conv2d(bits * 0.25, p).tobytes()
        assert conv2d(bits, p, scale=0.25).tobytes() == want

    @pytest.mark.parametrize("pad", [0, 1])
    def test_peak_memory_holds_one_block(self, pad):
        x, p = multi_block_case(pad)
        bits = x > 0.0
        out = conv2d(bits, p, scale=0.25)          # warms the index cache
        n, c, h, w = x.shape
        per_image = patch_bytes_per_image(x, p)
        images = -(-n // -(-n * per_image // kernels._PATCH_BLOCK_BYTES))
        bound = (out.nbytes
                 + images * per_image                              # patch block
                 + images * c * (h + 2 * pad) * (w + 2 * pad) * 8  # padded block
                 + images * out[0].nbytes                          # block product
                 + (1 << 20))
        for call in (lambda: conv2d(bits, p, scale=0.25), lambda: conv2d(x, p)):
            assert traced_peak_bytes(call) < bound
        assert bound < n * per_image / 2

    def test_blocks_fit_the_patch_budget(self):
        # VGG-16's conv1_2 on 4 rows: 4.72 MB of patches per image, so two
        # images to a block would hold 9.44 MB against the 8 MiB budget
        rng = np.random.default_rng(59)
        bits = rng.random((4, 64, 32, 32)) < 0.5
        p = ConvParams(weights=rng.uniform(-1, 1, size=(64, 64, 3, 3)), padding=(1, 1))
        per_image = patch_bytes_per_image(bits, p)
        assert per_image <= kernels._PATCH_BLOCK_BYTES < 2 * per_image
        out = conv2d(bits, p, scale=0.25)          # warms the index cache
        assert out.tobytes() == sliding_window_conv2d(bits * 0.25, p).tobytes()
        bound = (out.nbytes
                 + per_image                  # one image's patches
                 + 64 * 34 * 34 * 8           # its padded input
                 + out[0].nbytes              # its product
                 + (1 << 20))
        assert traced_peak_bytes(lambda: conv2d(bits, p, scale=0.25)) < bound

    @pytest.mark.parametrize("name", list(by_image_cases()))
    def test_by_image_lowering_is_bitwise_equal(self, name):
        x, p = by_image_cases()[name]
        rng = np.random.default_rng(73)
        kernels._patch_index.cache_clear()
        for inp, scale, affine, want in conv_variants(x, p, rng):
            got = conv2d(inp, p, scale=scale, affine=affine)
            assert got.flags.c_contiguous
            assert got.tobytes() == want
            blocks = []
            conv2d(inp, p, scale=scale, affine=affine,
                   consumer=lambda lo, block: blocks.append((lo, block.copy())))
            assert [lo for lo, _ in blocks] == list(range(len(x)))
            assert all(len(block) == 1 for _, block in blocks)
            assert np.concatenate([block for _, block in blocks]).tobytes() == want
        assert kernels._patch_index.cache_info().currsize == 0     # no patch gather

    @pytest.mark.parametrize("name", list(per_block_cases()))
    def test_neighbouring_geometries_keep_the_block_lowering(self, name):
        x, p = per_block_cases()[name]
        rng = np.random.default_rng(79)
        kernels._patch_index.cache_clear()
        for inp, scale, affine, want in conv_variants(x, p, rng):
            assert conv2d(inp, p, scale=scale, affine=affine).tobytes() == want
        assert kernels._patch_index.cache_info().currsize == 1

    def test_by_image_peak_holds_one_image(self):
        # VGG-16's conv1_2 on 4 rows: one image's (taps, positions) patches,
        # its padded input and, with a consumer, its block; no product buffer
        rng = np.random.default_rng(83)
        bits = rng.random((4, 64, 32, 32)) < 0.5
        p = ConvParams(weights=rng.uniform(-1, 1, size=(64, 64, 3, 3)), padding=(1, 1))
        a = random_affine(rng, 64)
        out = conv2d(bits, p, scale=0.25, affine=a)
        bound = patch_bytes_per_image(bits, p) + 64 * 34 * 34 * 8 + out[0].nbytes + (1 << 20)
        assert traced_peak_bytes(lambda: conv2d(bits, p, scale=0.25, affine=a)) < out.nbytes + bound
        assert traced_peak_bytes(lambda: conv2d(bits, p, scale=0.25, affine=a,
                                                consumer=lambda lo, block: None)) < bound

    @pytest.mark.parametrize("core", ["SkylakeX", "Haswell", "Sandybridge"])
    def test_by_image_lowering_on_each_blas_core(self, core):
        # the two lowerings run different BLAS kernels; their bytes agree on
        # every core that this build's OPENBLAS_CORETYPE can select
        if blas_core() is None:
            pytest.skip("numpy's BLAS reports no OpenBLAS core, so OPENBLAS_CORETYPE "
                        "cannot be checked")
        here = Path(__file__).resolve().parent
        paths = [str(Path(kernels.__file__).resolve().parents[1]), str(here)]
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
        script = ("import json, test_kernels as t; "
                  "print(json.dumps([t.blas_core(), t.lowering_mismatches()]))")
        run = subprocess.run([sys.executable, "-c", script], env=env, cwd=here,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        ran, mismatches = json.loads(run.stdout.splitlines()[-1])
        if ran.lower() != core.lower():
            pytest.skip(f"OPENBLAS_CORETYPE={core} runs the {ran} core on this machine")
        assert mismatches == []

    def test_patch_index_cache(self):
        rng = np.random.default_rng(19)
        x, p = random_conv_case(rng, n=2)
        first = conv2d(x, p)
        _, c, h, w = x.shape
        args = (c, h + 2 * p.padding[0], w + 2 * p.padding[1], p.kernel, p.stride,
                first.shape[2:])
        index = kernels._patch_index(*args)
        assert kernels._patch_index(*args) is index
        assert not index.flags.writeable
        # new values on the cached geometry: a fresh, correct result
        y = rng.uniform(-1, 1, size=x.shape)
        second = conv2d(y, p)
        assert second.tobytes() == sliding_window_conv2d(y, p).tobytes()
        assert first.tobytes() == sliding_window_conv2d(x, p).tobytes()
        assert not np.shares_memory(first, second)

    def test_concurrent_calls_on_cold_geometry(self):
        rng = np.random.default_rng(23)
        x, p = random_conv_case(rng, n=3)
        want = sliding_window_conv2d(x, p).tobytes()
        kernels._patch_index.cache_clear()
        barrier = threading.Barrier(4)
        results = [None] * 4

        def run(slot):
            barrier.wait(timeout=10)
            results[slot] = conv2d(x, p).tobytes()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [want] * 4

    def test_affine_matches_conv_then_affine(self):
        rng = np.random.default_rng(41)
        cases = bitwise_cases() + [multi_block_case(1, c_out) for c_out in (8, 1)]
        for x, p in cases:
            bits = x > 0.0
            a = random_affine(rng, p.out_channels)
            plain, spiking = sliding_window_conv2d(x, p), sliding_window_conv2d(bits * 0.25, p)
            for affine in (a, a.scaled(1.0 / 3.0)):
                got = conv2d(x, p, affine=affine)
                assert got.flags.c_contiguous
                assert got.tobytes() == affine_expression(plain, affine).tobytes()
                got = conv2d(bits, p, scale=0.25, affine=affine)
                assert got.tobytes() == affine_expression(spiking, affine).tobytes()

    def test_affine_channel_mismatch(self):
        p = ConvParams(weights=np.ones((2, 1, 1, 1)))
        with pytest.raises(KernelError, match="affine expects 3 channels"):
            conv2d(np.ones((1, 1, 2, 2)), p, affine=BnAffine.bias_only(np.zeros(3)))

    def test_non_finite_output_is_rejected(self):
        p = ConvParams(weights=np.ones((2, 1, 1, 1)))
        a = BnAffine(gamma=np.ones(2), beta=np.zeros(2), mu=np.zeros(2),
                     sigma_sq=np.ones(2), bias=np.array([0.0, np.inf]))
        with pytest.raises(KernelError, match="conv output contains non-finite"):
            conv2d(np.ones((1, 1, 2, 2)), p, affine=a)

    def test_take_reads_the_cached_index_without_copying(self):
        # a copied index would be as large as the patch buffer itself
        rng = np.random.default_rng(43)
        x = rng.uniform(-1, 1, size=(1, 64, 32, 32))
        p = ConvParams(weights=rng.uniform(-1, 1, size=(2, 64, 3, 3)), padding=(1, 1))
        out = conv2d(x, p)                          # warms the index cache
        index = kernels._patch_index(64, 34, 34, (3, 3), (1, 1), (32, 32))
        patches = index.size * 8
        bound = patches + 64 * 34 * 34 * 8 + 2 * out.nbytes + (1 << 20)
        assert traced_peak_bytes(lambda: conv2d(x, p)) < bound
        assert bound < patches + index.nbytes

    def test_channel_mismatch(self):
        p = ConvParams(weights=np.zeros((1, 3, 1, 1)))
        with pytest.raises(KernelError, match="channel mismatch"):
            conv2d(np.zeros((1, 2, 4, 4)), p)

    def test_bad_geometry(self):
        p = ConvParams(weights=np.zeros((1, 1, 3, 3)), stride=(2, 2))
        with pytest.raises(KernelError, match="does not tile"):
            conv2d(np.zeros((1, 1, 4, 4)), p)


class TestFullyConnected:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(fully_connected(x, np.eye(3)), x)

    def test_hand_product(self):
        w = np.array([[1.0, 1.0], [1.0, -1.0]])
        out = fully_connected(np.array([[2.0, 3.0]]), w)
        np.testing.assert_array_equal(out, [[5.0, -1.0]])

    def test_zero_weights(self):
        out = fully_connected(np.ones((2, 4)), np.zeros((3, 4)))
        np.testing.assert_array_equal(out, 0.0)

    def test_width_mismatch(self):
        with pytest.raises(KernelError, match="width mismatch"):
            fully_connected(np.ones((1, 3)), np.ones((2, 4)))


class TestFusedBnAffine:
    """The affine epilogue, run through fully_connected with an identity
    weight matrix, whose product is exact."""

    @staticmethod
    def affine(y, a):
        return fully_connected(y, np.eye(y.shape[1], dtype=y.dtype), a)

    def test_identity_affine(self):
        y = np.random.default_rng(1).normal(size=(2, 3))
        out = self.affine(y, BnAffine.bias_only(np.zeros(3)))
        np.testing.assert_array_equal(out, y)

    def test_scalar_hand_eval(self):
        eps = 1e-5
        a = BnAffine(gamma=np.array([2.0]), beta=np.array([1.0]), mu=np.array([3.0]),
                     sigma_sq=np.array([4.0 - eps]), bias=np.array([0.0]), epsilon=eps)
        out = self.affine(np.full((1, 1), 5.0), a)
        assert out[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_scaled_constants(self):
        eps = 1e-5
        a = BnAffine(gamma=np.array([2.0]), beta=np.array([1.0]), mu=np.array([3.0]),
                     sigma_sq=np.array([4.0 - eps]), bias=np.array([0.0]), epsilon=eps)
        out = self.affine(np.full((1, 1), 5.0), a.scaled(0.25))
        assert out[0, 0] == pytest.approx(4.5, abs=1e-12)

    def test_bytes_match_expression(self):
        # fc's epilogue, and conv2d's through a 1x1 identity conv
        rng = np.random.default_rng(29)
        identity = ConvParams(weights=np.eye(5).reshape(5, 5, 1, 1))
        for shape in ((3, 5), (2, 5, 4, 3)):
            a = BnAffine(gamma=rng.uniform(-1.5, 1.5, 5), beta=rng.uniform(-1, 1, 5),
                         mu=rng.uniform(-1, 1, 5), sigma_sq=rng.uniform(0.2, 2.0, 5),
                         bias=rng.uniform(-1, 1, 5))
            y = rng.uniform(-2, 2, size=shape)
            y_before = y.copy()
            for s in (a, a.scaled(0.25), a.scaled(1.0 / 3.0)):
                bshape = (1, 5) + (1,) * (y.ndim - 2)
                denom = np.sqrt(s.sigma_sq + s.epsilon).reshape(bshape)
                shift = (s.bias - s.mu).reshape(bshape)
                want = (s.gamma.reshape(bshape) * (y + shift) / denom
                        + s.beta.reshape(bshape))
                got = self.affine(y, s) if y.ndim == 2 else conv2d(y, identity, affine=s)
                assert got.tobytes() == want.tobytes()
            assert y.tobytes() == y_before.tobytes()

    def test_mixed_dtypes_promote_like_expression(self):
        # float32 input and shift with a float64 gamma: the sum rounds in
        # float32 and the rest runs in float64, as in the plain expression
        rng = np.random.default_rng(31)
        f32 = lambda v: v.astype(np.float32)
        a = BnAffine(gamma=rng.uniform(0.5, 1.5, 3), beta=f32(rng.uniform(-1, 1, 3)),
                     mu=f32(rng.uniform(-1, 1, 3)), sigma_sq=f32(rng.uniform(0.2, 2.0, 3)),
                     bias=f32(rng.uniform(-1, 1, 3)))
        y = f32(rng.uniform(-2, 2, size=(4, 3)))
        a = a.scaled(0.5)
        assert a.bias.dtype == np.float32
        shift = (a.bias - a.mu)[None]
        want = a.gamma * (y + shift) / np.sqrt(a.sigma_sq + a.epsilon) + a.beta
        got = self.affine(y, a)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_bad_epsilon(self):
        with pytest.raises(KernelError, match="epsilon"):
            BnAffine(gamma=np.ones(1), beta=np.zeros(1), mu=np.zeros(1),
                     sigma_sq=np.ones(1), bias=np.zeros(1), epsilon=0.0)

    def test_split_sums_to_whole(self):
        # applying the 1/L-scaled affine to L pieces that sum to z matches
        # the single-shot affine of z
        rng = np.random.default_rng(3)
        for _ in range(50):
            L = int(rng.choice([1, 2, 4, 8]))
            c = int(rng.integers(1, 5))
            a = BnAffine(gamma=rng.uniform(0.5, 1.5, c), beta=rng.uniform(-1, 1, c),
                         mu=rng.uniform(-1, 1, c), sigma_sq=rng.uniform(0.2, 2.0, c),
                         bias=rng.uniform(-1, 1, c))
            pieces = rng.uniform(-1, 1, size=(L, 18, c))
            whole = self.affine(pieces.sum(axis=0), a)
            split = sum(self.affine(p, a.scaled(1.0 / L)) for p in pieces)
            np.testing.assert_allclose(split, whole, atol=1e-4)

    def test_fc_affine_channel_mismatch(self):
        with pytest.raises(KernelError, match="affine expects 3 channels"):
            fully_connected(np.ones((1, 2)), np.ones((2, 2)), BnAffine.bias_only(np.zeros(3)))

    def test_fc_non_finite_output_is_rejected(self):
        a = BnAffine(gamma=np.ones(2), beta=np.zeros(2), mu=np.zeros(2),
                     sigma_sq=np.ones(2), bias=np.array([0.0, np.inf]))
        with pytest.raises(KernelError, match="fully-connected output contains non-finite"):
            fully_connected(np.ones((1, 2)), np.eye(2), a)


class TestPooling:
    def test_constant_input(self):
        out = avg_pool2d(np.full((1, 2, 4, 4), 3.5), 2)
        np.testing.assert_array_equal(out, np.full((1, 2, 2, 2), 3.5))

    def test_hand_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert avg_pool2d(x, 2)[0, 0, 0, 0] == 2.5

    def test_zero_input(self):
        np.testing.assert_array_equal(avg_pool2d(np.zeros((1, 1, 4, 4)), 2), 0.0)

    def test_non_divisible(self):
        with pytest.raises(KernelError, match="does not divide"):
            avg_pool2d(np.zeros((1, 1, 5, 5)), 2)

    def test_slice_sums_match_mean(self):
        # row-major inputs, contiguous or sliced, give numpy's mean of the
        # same array; layouts no pass makes (channels-last, negative or zero
        # strides, Fortran order) give the pool of their C-ordered copy
        rng = np.random.default_rng(47)
        for i in range(1400):
            n, c = (int(v) for v in rng.integers(1, 4, size=2))
            h_o, w_o = (int(v) for v in rng.integers(1, 6, size=2))   # H = 2, W = 2 included
            h, w = 2 * h_o, 2 * w_o
            scale = 10.0 ** int(rng.integers(-3, 4))
            kind = i % 7
            if kind == 0:
                x = rng.normal(size=(n, c, h, w)) * scale
            elif kind == 1:
                x = (rng.normal(size=(n, c + 1, h + 1, w + 3)) * scale)[:, 1:, 1:, 1:-2]
            elif kind == 2:
                x = (rng.normal(size=(n, c, h, 2 * w)) * scale)[..., ::2]
            elif kind == 3:
                x = np.moveaxis(rng.normal(size=(n, h, w, c)) * scale, 3, 1)
            elif kind == 4:
                x = (rng.normal(size=(n, c, h, w)) * scale)[::-1, :, ::-1, ::-1]
            elif kind == 5:
                x = np.broadcast_to(rng.normal(size=(1, c, 1, w)) * scale, (n, c, h, w))
            else:
                x = np.asfortranarray(rng.normal(size=(n, c, h, w)) * scale)
            got = avg_pool2d(x, 2).tobytes()
            if kind < 3:
                assert got == mean_avg_pool2d(x).tobytes()
            else:
                copy = np.ascontiguousarray(x)
                assert got == mean_avg_pool2d(copy).tobytes() == avg_pool2d(copy, 2).tobytes()

    def test_one_column_order_is_pinned(self):
        # one output column: numpy adds the window in sequence, which the
        # row-pair order would round differently here
        x = np.array([1.0, 2.0 ** -53, 2.0 ** -53, 2.0 ** -53]).reshape(1, 1, 2, 2)
        assert avg_pool2d(x, 2).tobytes() == mean_avg_pool2d(x).tobytes()
        assert ((x[0, 0, 0, 0] + x[0, 0, 0, 1]) + (x[0, 0, 1, 0] + x[0, 0, 1, 1])) / 4 \
            != mean_avg_pool2d(x)[0, 0, 0, 0]
        wide = np.concatenate([x, x], axis=3)
        assert avg_pool2d(wide, 2).tobytes() == mean_avg_pool2d(wide).tobytes()

    @pytest.mark.parametrize("theta", [0.1, 1.0 / 3.0, 0.7, 7 * 2.0 ** -1074])
    def test_bits_match_dense_pooling(self, theta):
        if theta > 2.0 ** -1022:
            # 2 theta + theta rounds, so the 3-spike entry must be the rounded
            # sum the dense pool adds
            assert Fraction((theta + theta) + theta) != 3 * Fraction(theta)
        else:
            # subnormal: the sums are exact and the division by 4 rounds, so
            # the table must divide the sum, not multiply a quarter theta
            assert (np.arange(5) * (theta / 4)).tobytes() != (np.arange(5) * theta / 4).tobytes()
        # every third batch is channels-last
        rng = np.random.default_rng(53)
        for i in range(300):
            n, c = (int(v) for v in rng.integers(1, 4, size=2))
            h_o, w_o = (int(v) for v in rng.integers(1, 5, size=2))
            bits = rng.random((n, c, 2 * h_o, 2 * w_o)) < rng.random()
            if i % 3 == 0:
                bits = np.moveaxis(np.ascontiguousarray(np.moveaxis(bits, 1, 3)), 3, 1)
            want = mean_avg_pool2d(bits * theta).tobytes()
            assert avg_pool2d(bits, 2, scale=theta).tobytes() == want
            assert avg_pool2d(bits * theta, 2).tobytes() == want

    def test_scaled_pool_input_must_be_bits(self):
        with pytest.raises(KernelError, match="bool spike tensor"):
            avg_pool2d(np.ones((1, 1, 2, 2)), 2, scale=0.5)

    def test_pool_peaks_hold_no_input_copy(self):
        rng = np.random.default_rng(59)
        bits = rng.random((16, 32, 32, 32)) < 0.3
        x = bits * 0.25
        out_bytes = 16 * 32 * 16 * 16 * 8
        # the output, a 1-byte count or finite mask per output, and one image
        bound = out_bytes * 9 // 8 + 32 * 16 * 16 * 8 + (1 << 16)
        assert traced_peak_bytes(lambda: avg_pool2d(bits, 2, scale=0.25)) < bound
        assert traced_peak_bytes(lambda: avg_pool2d(x, 2)) < bound


class TestLinearity:
    def test_conv_linearity(self):
        rng = np.random.default_rng(11)
        p = ConvParams(weights=rng.uniform(-1, 1, size=(3, 2, 3, 3)), padding=(1, 1))
        for _ in range(200):
            a, b = rng.uniform(-2, 2, size=2)
            x = rng.uniform(-1, 1, size=(1, 2, 6, 6))
            y = rng.uniform(-1, 1, size=(1, 2, 6, 6))
            lhs = conv2d(a * x + b * y, p)
            rhs = a * conv2d(x, p) + b * conv2d(y, p)
            np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_fc_linearity(self):
        rng = np.random.default_rng(12)
        w = rng.uniform(-1, 1, size=(4, 6))
        for _ in range(200):
            a, b = rng.uniform(-2, 2, size=2)
            x = rng.uniform(-1, 1, size=(2, 6))
            y = rng.uniform(-1, 1, size=(2, 6))
            lhs = fully_connected(a * x + b * y, w)
            rhs = a * fully_connected(x, w) + b * fully_connected(y, w)
            np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_pool_distributes_over_sums(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            parts = rng.uniform(-1, 1, size=(4, 1, 2, 4, 4))
            lhs = avg_pool2d(parts.sum(axis=0), 2)
            rhs = sum(avg_pool2d(p, 2) for p in parts)
            np.testing.assert_allclose(lhs, rhs, atol=1e-5)
