"""Dense NCHW inference kernels.

Minimal deterministic numpy kernels used by both the real-valued reference
path and the unrolled spiking path: cross-correlation convolution,
fully-connected product, fused batch-norm affine, and average and max
pooling. Both passes call them the same way: an unrolled layer's T
timesteps arrive folded into the batch axis as T*N rows, and its affine
comes already divided by T (BnAffine.scaled, applied in conversion), so no
kernel knows how many timesteps its rows hold.

All kernels are pure functions: they never mutate their arguments and
return freshly allocated arrays, so they are safe to call concurrently
across batch elements or layers. The one exception is the out argument of
fused_bn_affine, which callers point at a matmul output they own. The only
shared state is conv2d's cache of patch-gather indices, which holds
read-only arrays keyed by geometry (take reads the writeable grid each one
is a flat view of, because it copies a read-only index; nothing writes it).

Accumulation order: a convolution is lowered to the matrix product
``cols @ flat_w.T``. ``cols`` is a C-contiguous (N*H_o*W_o, C*K_h*K_w)
matrix of patches flattened in (channel, kernel-row, kernel-col) order, and
``flat_w.T`` is the transposed view of the C-contiguous weights. The
reduction order is then fixed by the BLAS kernel and is identical on every
call with the same shapes. The operand layout is part of that contract:
the mathematically equal ``flat_w @ cols_t`` on a C-contiguous transpose,
or the same product on an F-ordered ``cols``, runs a different BLAS kernel
whose rounding differs (seen with C_out <= 3), so outputs would no longer
be bitwise equal to earlier versions.

Blocks: when the whole patch matrix would exceed ``_PATCH_BLOCK_BYTES``
(8 MiB), conv2d splits the batch into balanced blocks of whole images and
runs the same product once per block through one reused patch buffer. It
takes the fewest blocks that fit the budget, but never so many that a
block's product falls below ``_BLOCK_MIN_MACS`` (4e6 multiply-adds,
rows * C_out * taps): a conv with few output channels gets fewer, larger
blocks than the budget asks for. A row's result does not depend on how
many other rows share its product as long as BLAS picks the same kernel,
so blocking leaves every byte unchanged. Blocks must stay large for that:
OpenBLAS (0.3.31, 2 threads) runs small products through kernels that
round differently. Of 300 random balanced splits of 288-tap products with
C_out 2 to 64, 27 changed bits, all with blocks below 1.1e6
multiply-adds; the 167 with blocks of 1.6e6 and more matched byte for
byte. Over VGG's tap counts (27 to 4608), C_out 2 to 512 and blocks of
2e6 to 4e7 multiply-adds, 157 of 158 splits matched; the other had
one-row blocks, which run as a matrix-vector product. Splitting small
random conv batches into one-image products changed bits in 123 of 400
geometries. C_out = 1 is never split: that product runs as a
matrix-vector kernel whose rounding depends on where a row sits, and
splitting it changed bits in 77 of 80 cases.

Epilogues run in the buffer that holds their data. conv2d applies a
batch-norm affine per block: the first add reads the block's product
through its NCHW transposed view and writes the output block, so the
transpose costs no copy of its own, and the multiply, divide and add
follow in place. These are the IEEE operations of fused_bn_affine in the
same order, and tests/test_kernels.py pins the bytes against conv followed
by fused_bn_affine.

Pooling order: avg_pool2d adds a 2 x 2 window from four strided slices in
the order numpy's mean over the 6-D window view uses, (x00 + x01) +
(x10 + x11), then divides by 4. The one exception is an output with one
column: numpy then adds the window as one run, ((x00 + x01) + x10) + x11.
The rule holds for inputs whose strides fall from the first axis to the
last (C-contiguous tensors and slices of them); other layouts keep numpy's
mean. TestPooling.test_slice_sums_match_mean pins it byte for byte over
1200 random geometries, and test_one_column_order_is_pinned holds a
window the two orders round apart.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class KernelError(ValueError):
    """Raised when a kernel receives structurally invalid inputs."""


def _check(cond, msg, *args):
    # msg is formatted with args only on failure: kernels run once per layer
    # per pass, and formatting shapes and dtypes costs microseconds
    if not cond:
        raise KernelError(msg.format(*args) if args else msg)


def _check_finite(arr, what):
    if not np.isfinite(arr).all():
        raise KernelError(f"{what} contains non-finite values")


@dataclass(frozen=True)
class ConvParams:
    """Convolution weights plus geometry.

    weights has shape (C_out, C_in, K_h, K_w); stride and padding are
    (height, width) pairs. Padding is zero-padding, so in spiking mode a
    padded element simply contributes no spikes.
    """

    weights: np.ndarray
    stride: tuple = (1, 1)
    padding: tuple = (0, 0)

    def __post_init__(self):
        _check(self.weights.ndim == 4, "conv weights must be 4-D (C_out, C_in, K_h, K_w)")
        _check(all(s >= 1 for s in self.stride), "stride entries must be positive")
        _check(all(p >= 0 for p in self.padding), "padding entries must be non-negative")

    @property
    def out_channels(self):
        return self.weights.shape[0]

    @property
    def in_channels(self):
        return self.weights.shape[1]

    @property
    def kernel(self):
        return self.weights.shape[2], self.weights.shape[3]


@dataclass(frozen=True)
class BnAffine:
    """Per-output-channel affine: out = gamma*(y + b - mu)/sqrt(var + eps) + beta.

    Represents a batch-norm stage fused with the preceding layer's bias.
    A plain bias and the identity are expressible through the same record
    (see ``bias_only`` / ``identity``), which keeps the unrolled constant
    scaling in one place.
    """

    gamma: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    sigma_sq: np.ndarray
    bias: np.ndarray
    epsilon: float = 1e-5

    def __post_init__(self):
        _check(self.epsilon > 0, "batch-norm epsilon must be positive")
        _check(np.all(self.sigma_sq >= 0), "batch-norm variance must be non-negative")
        n = self.gamma.shape[0]
        for name in ("beta", "mu", "sigma_sq", "bias"):
            _check(getattr(self, name).shape == (n,), f"affine field {name} must have length {n}")

    @classmethod
    def identity(cls, channels, epsilon=1e-5):
        # sigma_sq = 1 - eps makes the denominator exactly 1.0
        return cls(
            gamma=np.ones(channels),
            beta=np.zeros(channels),
            mu=np.zeros(channels),
            sigma_sq=np.full(channels, 1.0 - epsilon),
            bias=np.zeros(channels),
            epsilon=epsilon,
        )

    @classmethod
    def bias_only(cls, bias, epsilon=1e-5):
        out = cls.identity(bias.shape[0], epsilon)
        return cls(out.gamma, out.beta, out.mu, out.sigma_sq, np.asarray(bias, dtype=float), epsilon)

    def scaled(self, factor):
        """Return a copy with the additive constants multiplied by factor.

        Splitting a tensor over L unrolled pieces requires b' = b/L,
        mu' = mu/L and beta' = beta/L (factor 1/L) so the pieces still sum
        to the single-shot result; gamma and the variance are untouched.
        This is the only place the split happens: conversion scales each
        unrolled layer's affine once, and the kernels apply it as given.
        """
        return BnAffine(
            gamma=self.gamma,
            beta=self.beta * factor,
            mu=self.mu * factor,
            sigma_sq=self.sigma_sq,
            bias=self.bias * factor,
            epsilon=self.epsilon,
        )


def conv_output_hw(h, w, kernel, stride, padding):
    """Output spatial dims; raises unless they are exact positive integers."""
    k_h, k_w = kernel
    s_h, s_w = stride
    p_h, p_w = padding
    num_h = h + 2 * p_h - k_h
    num_w = w + 2 * p_w - k_w
    _check(num_h >= 0 and num_w >= 0, "kernel {} larger than padded input {}x{}", kernel, h, w)
    _check(num_h % s_h == 0 and num_w % s_w == 0,
           "conv geometry does not tile: input {}x{}, kernel {}, stride {}, padding {}",
           h, w, kernel, stride, padding)
    return num_h // s_h + 1, num_w // s_w + 1


@lru_cache(maxsize=64)
def _patch_index(c, h_p, w_p, kernel, stride, out_hw):
    """Flat offsets into one padded (C, H_p, W_p) image, one row per patch.

    Taking these offsets from the flattened image yields the patch matrix
    row by row: rows run over (oh, ow), columns over (c, i, j). The array
    is read-only because every caller with the same geometry shares it; it
    holds as many entries as one image's patch matrix.
    """
    k_h, k_w = kernel
    s_h, s_w = stride
    h_o, w_o = out_hw
    tap = (np.arange(c)[:, None, None] * (h_p * w_p)
           + np.arange(k_h)[:, None] * w_p + np.arange(k_w)).ravel()
    start = (np.arange(h_o)[:, None] * (s_h * w_p) + np.arange(w_o) * s_w).ravel()
    index = (start[:, None] + tap[None, :]).ravel()
    index.flags.writeable = False
    return index


# Most patch-matrix bytes conv2d holds at once, and fewest multiply-adds
# (rows * C_out * taps) a block of a split product may have; see "Blocks" above.
_PATCH_BLOCK_BYTES = 8 << 20
_BLOCK_MIN_MACS = 4_000_000


def _block_count(n, patch_entries, c_out, itemsize):
    """Balanced blocks of whole images for n images of patch_entries each:
    the fewest that fit the byte budget, but no more than keep the smallest
    block at or above the multiply-add floor. C_out = 1 is never split."""
    if c_out == 1:
        return 1
    by_budget = -(-n * patch_entries * itemsize // _PATCH_BLOCK_BYTES)
    # a balanced block holds at least n // blocks images
    by_floor = n // -(-_BLOCK_MIN_MACS // (patch_entries * c_out))
    return max(1, min(by_budget, by_floor))


def conv2d(x, params, scale=None, affine=None):
    """2-D cross-correlation of an (N, C, H, W) batch with ConvParams.

    With scale given, x is a bool spike tensor and the input convolved is
    x * scale; the float64 input is only ever built one block at a time.
    With affine given, the result is fused_bn_affine(conv, affine),
    applied one block at a time in the output buffer.
    """
    _check(x.ndim == 4, "conv input must be 4-D, got shape {}", x.shape)
    _check(scale is None or x.dtype == np.bool_,
           "a scaled conv input must be a bool spike tensor, got {}", x.dtype)
    n, c, h, w = x.shape
    _check(c == params.in_channels,
           "conv channel mismatch: input has {}, weights expect {}", c, params.in_channels)
    k_h, k_w = params.kernel
    p_h, p_w = params.padding
    h_o, w_o = conv_output_hw(h, w, params.kernel, params.stride, params.padding)
    h_p, w_p = h + 2 * p_h, w + 2 * p_w
    c_out, taps = params.out_channels, c * k_h * k_w
    terms = () if affine is None else _affine_terms(affine, 4, c_out)
    index = _patch_index(c, h_p, w_p, params.kernel, tuple(params.stride), (h_o, w_o))
    # take copies a read-only index on every call, so it gets the writeable
    # (patch, tap) grid the cached index is a flat view of; take never writes it
    grid = index.base
    flat_w = params.weights.reshape(c_out, taps)

    dtype = x.dtype if scale is None else np.dtype(np.float64)
    blocks = _block_count(n, index.size, c_out, dtype.itemsize)
    edges = [n * b // blocks for b in range(blocks + 1)]
    size = -(-n // blocks)
    cols = np.empty((size, index.size), dtype=dtype)
    # the border of the padded buffer is zeroed once; blocks only overwrite its interior
    xp = np.zeros((size, c, h_p, w_p), dtype=dtype) if p_h or p_w or scale is not None else None
    out = None
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = hi - lo
        if xp is None:
            src = x[lo:hi]
        else:
            src = xp[:m]
            interior = src[:, :, p_h:p_h + h, p_w:p_w + w]
            if scale is None:
                interior[...] = x[lo:hi]
            else:
                np.multiply(x[lo:hi], scale, out=interior)
        # the index is in range by construction; "clip" lets take write
        # straight into cols, where "raise" would buffer a copy
        np.take(src.reshape(m, c * h_p * w_p), grid, axis=1,
                out=cols[:m].reshape(m, h_o * w_o, taps), mode="clip")
        part = cols[:m].reshape(m * h_o * w_o, taps) @ flat_w.T
        if out is None:
            out = np.empty((n, c_out, h_o, w_o), dtype=np.result_type(part, *terms))
        # the product's NCHW transposed view is read straight into the output
        # block, by a copy or by the affine's first op
        block, part = out[lo:hi], part.reshape(m, h_o, w_o, c_out).transpose(0, 3, 1, 2)
        if affine is None:
            block[...] = part
        else:
            _affine_into(part, terms, block)
        del part        # freed before the next block's product is allocated
        _check_finite(block, "conv output")
    return out


def fully_connected(x, weights):
    """Batched y = W @ x for x of shape (N, C_in) and weights (C_out, C_in)."""
    _check(x.ndim == 2, "fully-connected input must be 2-D, got shape {}", x.shape)
    _check(weights.ndim == 2, "fully-connected weights must be 2-D (C_out, C_in)")
    _check(x.shape[1] == weights.shape[1],
           "fully-connected width mismatch: input {}, weights expect {}",
           x.shape[1], weights.shape[1])
    out = x @ weights.T
    _check_finite(out, "fully-connected output")
    return out


def _affine_terms(affine, ndim, channels):
    """shift, gamma, denom and beta of gamma * (y + shift) / denom + beta,
    shaped to broadcast over an (N, channels, ...) tensor with ndim axes."""
    _check(affine.gamma.shape[0] == channels,
           "affine expects {} channels, input has {}", affine.gamma.shape[0], channels)
    shape = (1, channels) + (1,) * (ndim - 2)
    shift = (affine.bias - affine.mu).reshape(shape)
    gamma = affine.gamma.reshape(shape)
    denom = np.sqrt(affine.sigma_sq + affine.epsilon).reshape(shape)
    beta = affine.beta.reshape(shape)
    return shift, gamma, denom, beta


def _affine_into(y, terms, out):
    # gamma * (y + shift) / denom + beta, evaluated in that order in out;
    # out must already have the dtype the whole expression promotes to
    shift, gamma, denom, beta = terms
    np.add(y, shift, out=out)
    np.multiply(gamma, out, out=out)
    np.divide(out, denom, out=out)
    np.add(out, beta, out=out)


def fused_bn_affine(y, affine, out=None):
    """Apply a BnAffine per output channel.

    A layer unrolled over T timesteps gets the affine its conversion
    divided down (BnAffine.scaled(1 / T)), so the T outputs sum to the
    single-shot output. out, if given, receives the result and may be y
    itself; it must have y's shape and the dtype the expression promotes to.
    """
    _check(y.ndim in (2, 4), "affine input must be 2-D or 4-D, got shape {}", y.shape)
    terms = _affine_terms(affine, y.ndim, y.shape[1])
    dtype = np.result_type(y, *terms)
    if out is None:
        out = np.empty(y.shape, dtype=dtype)
    else:
        _check(out.shape == y.shape and out.dtype == dtype,
               "affine out must be {} of shape {}, got {} of shape {}",
               dtype, y.shape, out.dtype, out.shape)
    _affine_into(y, terms, out)
    _check_finite(out, "affine output")
    return out


def _window_sums(x00, x01, x10, x11, one_column):
    """Sums of 2x2 windows from their four corner views, added in the order
    numpy's mean over the window axes uses.

    numpy reduces a window row by row, (x00 + x01) + (x10 + x11), except
    when the output has one column, where it adds the four in sequence;
    see "Pooling order" above.
    """
    out = np.add(x00, x01)
    if one_column:
        out += x10
        out += x11
        return out
    pair = np.empty(out.shape[1:], dtype=out.dtype)  # one image: bounds the temporary
    for i in range(out.shape[0]):
        np.add(x10[i], x11[i], out=pair)
        out[i] += pair
    return out


def avg_pool2d(x, window, scale=None):
    """Non-overlapping k x k mean pooling; H and W must tile exactly.

    With scale given, x is a bool spike tensor and the input pooled is
    x * scale. A 2 x 2 window reads it as spike counts: a window's float
    sum depends only on how many of its elements are scale, so each output
    is looked up in the five sums of 0 to 4 spikes. The result is byte
    for byte numpy's mean of the same float input.
    """
    _check(x.ndim == 4, "pool input must be 4-D, got shape {}", x.shape)
    _check(scale is None or x.dtype == np.bool_,
           "a scaled pool input must be a bool spike tensor, got {}", x.dtype)
    k = int(window)
    n, c, h, w = x.shape
    _check(h % k == 0 and w % k == 0,
           "pool window {} does not divide input {}x{}", k, h, w)
    # numpy's mean adds the windows of other layouts in other orders
    strides_fall = all(a >= b for a, b in zip(x.strides, x.strides[1:])) and x.strides[3] > 0
    if k != 2 or not strides_fall or (scale is None and x.dtype != np.float64):
        if scale is not None:
            x = x * scale
        out = x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))
        _check_finite(out, "pool output")
        return out
    corners = (x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2], x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2])
    if scale is None:
        out = _window_sums(*corners, one_column=w == 2)
        np.divide(out, 4, out=out)
        _check_finite(out, "pool output")
        return out
    count = np.add(corners[0], corners[1], dtype=np.uint8)
    np.add(count, corners[2], out=count)
    np.add(count, corners[3], out=count)
    # window j of a one-image ladder of five windows holds j spikes, so its
    # sums, added as above, are the pooled value of every count
    ladder = (np.arange(5)[:, None] > np.arange(4)) * scale
    table = _window_sums(*ladder.T[:, None], one_column=w == 2)[0] / 4
    _check_finite(table, "pool output")
    return table[count]

