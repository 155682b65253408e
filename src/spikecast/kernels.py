"""Dense NCHW inference kernels.

Deterministic numpy kernels shared by both passes: kernels.conv2d
(cross-correlation convolution) and kernels.fully_connected, each with an
optional batch-norm affine, and kernels.avg_pool2d (average pooling). An
unrolled layer's T timesteps arrive folded into the batch axis as T*N rows,
and its affine comes already divided by T (BnAffine.scaled, applied in
conversion), so no kernel knows how many timesteps its rows hold.

All kernels are pure functions that return fresh arrays and never mutate
their arguments, so they are safe to call concurrently. The exception is
conv2d's consumer, which gets each block of the output in place of an
output array. The only shared state is conv2d's cache of
read-only patch-gather indices, keyed by geometry.

The rules below exist to keep bytes equal across layouts and block splits,
to bound memory, or to save time; docs/numerics.md gives, per rule, the
measurements behind it and the test that pins it. The byte-equality
figures hold for OpenBLAS 0.3.31's SkylakeX kernel, and three of
tests/test_kernels.py's multi-block tests fail on its Haswell kernel.

Lowerings. conv2d picks one of two layouts from the geometry alone. Write
P = H_o*W_o for one image's output positions and taps = C*K_h*K_w. flat_w
is the C-contiguous (C_out, taps) weight matrix, and a patch's taps run in
(channel, kernel-row, kernel-col) order in both layouts.

- By image, ``flat_w @ cols_t``, when P >= C_out, P and C_out are
  multiples of 8, and one image's product P*taps*C_out reaches
  ``_BLOCK_MIN_MACS``. For a chunk of the image's output rows, K_h*K_w
  strided copies of the zero-bordered image fill a C-contiguous
  (taps, positions) patch buffer. The product writes the image's
  (C_out, P) slab, its NCHW output, when the image is one chunk; else it
  goes to a reused C-contiguous (C_out, positions) buffer that is copied
  into the chunk's rows of the slab. On VGG-16/CIFAR these are conv1_2
  (in two chunks), conv2_1 and conv2_2.
- By block, ``cols @ flat_w.T``, for every other geometry. One take
  through a cached index gathers a block of m images' patches into a
  C-contiguous (m*P, taps) matrix, whose product is the block's
  (m*P, C_out) output in NHWC order.

One patch budget. Both lowerings hold at most ``_PATCH_BLOCK_BYTES`` of
patch matrix where their split rules allow (_conv_plan). By block, the
batch is split into the fewest balanced blocks of whole images that fit.
By image, each image whose patches exceed the budget is split into the
fewest balanced chunks of output rows that fit: 4.72 MB for VGG-16/CIFAR's
conv1_2, 14.8 MB for the ResNet-34/ImageNet stem and 231 MB for
VGG-16/224's conv1_2. No split goes below ``_BLOCK_MIN_MACS``, a by-image
chunk keeps its positions a multiple of 8 and at or above C_out, and a
conv with C_out = 1 is never split. An image is never split by block.

Each finished chunk goes into its image's rows, and each finished block
or image into the output or to consumer(lo, block). The batch-norm affine
runs once per block or chunk, as the four IEEE operations of
gamma * (y + shift) / denom + beta in that order (_affine_into): by image
in place in the chunk's contiguous product, by block as the product is
read into the output block. fully_connected runs the same operations in
its product.

Pooling order. avg_pool2d adds a 2 x 2 window from four strided slices as
(x00 + x01) + (x10 + x11), or as ((x00 + x01) + x10) + x11 when the output
has one column, then divides by 4: the order numpy's mean over the 6-D
window view uses for a C-contiguous input. The sums are elementwise, so
an input in any layout gets the bytes of its C-ordered copy. Other
windows, and unscaled input other than float64, take numpy's mean.
"""

import math
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
    A plain bias, and with a zero bias the identity, is expressible through
    the same record (see ``bias_only``), which keeps the unrolled constant
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
        # a record is built per matmul per pass, so these checks stay cheap:
        # the array method and lazy messages, not np.all and f-strings
        _check((self.sigma_sq >= 0).all(), "batch-norm variance must be non-negative")
        n = self.gamma.shape[0]
        for name in ("beta", "mu", "sigma_sq", "bias"):
            _check(getattr(self, name).shape == (n,), "affine field {} must have length {}",
                   name, n)

    @classmethod
    def bias_only(cls, bias):
        # with the default epsilon, sigma_sq = 1 - eps makes the denominator exactly 1.0
        c = bias.shape[0]
        return cls(gamma=np.ones(c), beta=np.zeros(c), mu=np.zeros(c),
                   sigma_sq=np.full(c, 1.0 - cls.epsilon), bias=np.asarray(bias, dtype=float))

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
# (rows * C_out * taps) a block of a split product may have (docs/numerics.md,
# "Patch blocks and the multiply-add floor").
_PATCH_BLOCK_BYTES = 4 << 20
_BLOCK_MIN_MACS = 4_000_000


def _block_count(n, patch_entries, c_out, itemsize, min_macs=_BLOCK_MIN_MACS):
    """Balanced blocks for n units (images, or rows of one image) of
    patch_entries each: the fewest whose largest block fits the byte budget,
    but no more than keep the smallest block at or above min_macs
    multiply-adds. C_out = 1 is never split."""
    if c_out == 1:
        return 1
    # blocks of at most `fit` units; a balanced split into ceil(n / fit)
    # blocks holds at most ceil(n / blocks) <= fit units in each
    fit = max(1, _PATCH_BLOCK_BYTES // (patch_entries * itemsize))
    by_budget = -(-n // fit)
    # a balanced block holds at least n // blocks units
    by_floor = n // -(-min_macs // (patch_entries * c_out))
    return max(1, min(by_budget, by_floor))


def _conv_plan(n, c_out, taps, out_hw, itemsize):
    """How conv2d lowers n images: (by_image, image edges, row edges).

    By block, the image edges cut the batch into balanced blocks of whole
    images and the rows stay whole. By image, each image is a block, and
    when its patches exceed the budget the row edges cut its output rows
    into chunks, each one product through the reused patch and product
    buffers. A chunk keeps the rules that chose the by-image lowering: its
    positions stay a multiple of 8 (rows go in steps of 8 / gcd(W_o, 8),
    which divides H_o because H_o*W_o is a multiple of 8), at or above
    C_out, and its multiply-adds at or above the floor.
    """
    h_o, w_o = out_hw
    positions = h_o * w_o
    if not (positions >= c_out and positions % 8 == c_out % 8 == 0
            and positions * taps * c_out >= _BLOCK_MIN_MACS):
        blocks = _block_count(n, positions * taps, c_out, itemsize)
        return False, [n * b // blocks for b in range(blocks + 1)], [0, h_o]
    rows = [0, h_o]
    if positions * taps * itemsize > _PATCH_BLOCK_BYTES:
        step = 8 // math.gcd(w_o, 8)
        chunks = _block_count(h_o // step, step * w_o * taps, c_out, itemsize,
                              max(_BLOCK_MIN_MACS, c_out * taps * c_out))
        rows = [h_o // step * b // chunks * step for b in range(chunks + 1)]
    return True, list(range(n + 1)), rows


def conv2d(x, params, scale=None, affine=None, consumer=None):
    """2-D cross-correlation of an (N, C, H, W) batch with ConvParams.

    The geometry picks the lowering (see "Lowerings" in the module): image by
    image as ``flat_w @ cols_t`` when H_o*W_o >= C_out, both are multiples
    of 8 and one image's product reaches ``_BLOCK_MIN_MACS``, otherwise in
    blocks of images as ``cols @ flat_w.T``. Both give the same bytes. By
    image, an image whose patch matrix exceeds ``_PATCH_BLOCK_BYTES`` runs
    one product per chunk of output rows (_conv_plan).

    With scale given, x is a bool spike tensor and the input convolved is
    x * scale; the float64 input is only ever built one block (or image)
    at a time. With affine given, the result is the affine of the conv,
    applied one block or chunk at a time (_affine_into).

    With consumer given, no output is built: each finished block of rows
    lo..lo + m, affine applied and checked finite, goes to consumer(lo,
    block) in row order, through one reused block buffer that the consumer
    may overwrite but must not keep; by image, each block is one image. The
    return value is then a read-only zero-stride array of the output's
    shape and dtype that holds no data, so a caller that reads the result's
    geometry sees the output's.
    """
    _check(x.ndim == 4, "conv input must be 4-D, got shape {}", x.shape)
    _check(scale is None or x.dtype == np.bool_,
           "a scaled conv input must be a bool spike tensor, got {}", x.dtype)
    n, c, h, w = x.shape
    _check(c == params.in_channels,
           "conv channel mismatch: input has {}, weights expect {}", c, params.in_channels)
    k_h, k_w = params.kernel
    s_h, s_w = params.stride
    p_h, p_w = params.padding
    h_o, w_o = conv_output_hw(h, w, params.kernel, params.stride, params.padding)
    h_p, w_p = h + 2 * p_h, w + 2 * p_w
    c_out, taps, positions = params.out_channels, c * k_h * k_w, h_o * w_o
    terms = () if affine is None else _affine_terms(affine, 4, c_out)
    flat_w = params.weights.reshape(c_out, taps)
    dtype = x.dtype if scale is None else np.dtype(np.float64)
    by_image, images, rows = _conv_plan(n, c_out, taps, (h_o, w_o), dtype.itemsize)
    # a balanced split's last block and last chunk are its largest
    size = images[-1] - images[-2] if n else 0
    span = (rows[-1] - rows[-2]) * w_o
    cols = np.empty(size * span * taps, dtype=dtype)
    # the border of the padded buffer is zeroed once; blocks only overwrite its interior
    xp = np.zeros((size, c, h_p, w_p), dtype=dtype)
    # the output, or with a consumer the block buffer
    out = np.empty((n if consumer is None else size, c_out, h_o, w_o),
                   dtype=np.result_type(dtype, flat_w, *terms))
    if by_image:
        # an image of several chunks takes each chunk's product here: the
        # affine runs in place in it, and one copy writes the chunk's rows of
        # the output, because in-place ops on those strided rows run slower
        chunked = len(rows) > 2
        product = np.empty(c_out * span, dtype=out.dtype) if chunked else None
    else:
        index = _patch_index(c, h_p, w_p, params.kernel, tuple(params.stride), (h_o, w_o))
        # take copies a read-only index on every call, so it gets the writeable
        # (patch, tap) grid the cached index is a flat view of; take never writes it
        grid = index.base
    for lo, hi in zip(images[:-1], images[1:]):
        m = hi - lo
        src = xp[:m]
        interior = src[:, :, p_h:p_h + h, p_w:p_w + w]
        if scale is None:
            interior[...] = x[lo:hi]
        else:
            np.multiply(x[lo:hi], scale, out=interior)
        block = out[lo:hi] if consumer is None else out[:m]
        if by_image:
            for top, bottom in zip(rows[:-1], rows[1:]):
                r = bottom - top
                patches = cols[:r * w_o * taps]
                # tap (c, i, j) of every position is one strided window of the image
                windows = patches.reshape(c, k_h, k_w, r, w_o)
                for i in range(k_h):
                    for j in range(k_w):
                        windows[:, i, j] = src[0, :, i + s_h * top:i + s_h * bottom:s_h,
                                               j:j + s_w * w_o:s_w]
                # an image of one chunk is its own product buffer
                target = block[:, :, top:bottom]
                part = product[:c_out * r * w_o].reshape(target.shape) if chunked else target
                np.matmul(flat_w, patches.reshape(taps, r * w_o),
                          out=part.reshape(c_out, r * w_o))
                if affine is not None:
                    _affine_into(part, terms, part)
                _check_finite(part, "conv output")
                if chunked:
                    target[...] = part
        else:
            patches = cols[:m * positions * taps]
            # the index is in range by construction; "clip" lets take write
            # straight into cols, where "raise" would buffer a copy
            np.take(src.reshape(m, c * h_p * w_p), grid, axis=1,
                    out=patches.reshape(m, positions, taps), mode="clip")
            part = patches.reshape(m * positions, taps) @ flat_w.T
            # the product's NCHW transposed view is read straight into the output
            # block, by a copy or by the affine's first op
            part = part.reshape(m, h_o, w_o, c_out).transpose(0, 3, 1, 2)
            if affine is None:
                block[...] = part
            else:
                _affine_into(part, terms, block)
            del part        # freed before the next block's product is allocated
            _check_finite(block, "conv output")
        if consumer is not None:
            consumer(lo, block)
    if consumer is None:
        return out
    return np.broadcast_to(np.zeros((), dtype=out.dtype), (n, c_out, h_o, w_o))


def fully_connected(x, weights, affine=None):
    """Batched y = W @ x for x of shape (N, C_in) and weights (C_out, C_in).

    With affine given, the result is the affine of y, applied as conv2d
    applies it, in the product's own buffer when the product already has
    the dtype the affine promotes to.
    """
    _check(x.ndim == 2, "fully-connected input must be 2-D, got shape {}", x.shape)
    _check(weights.ndim == 2, "fully-connected weights must be 2-D (C_out, C_in)")
    _check(x.shape[1] == weights.shape[1],
           "fully-connected width mismatch: input {}, weights expect {}",
           x.shape[1], weights.shape[1])
    out = x @ weights.T
    if affine is not None:
        terms = _affine_terms(affine, 2, out.shape[1])
        y, out = out, out.astype(np.result_type(out, *terms), copy=False)
        _affine_into(y, terms, out)
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


def avg_pool2d(x, window, scale=None):
    """Non-overlapping k x k mean pooling; H and W must tile exactly.

    With scale given, x is a bool spike tensor and the input pooled is
    x * scale. A 2 x 2 window reads it as spike counts: a window's float
    sum depends only on how many of its elements are scale, so each output
    is looked up in the five sums of 0 to 4 spikes. The result is byte
    for byte numpy's mean of the same float input in C order.
    """
    _check(x.ndim == 4, "pool input must be 4-D, got shape {}", x.shape)
    _check(scale is None or x.dtype == np.bool_,
           "a scaled pool input must be a bool spike tensor, got {}", x.dtype)
    k = int(window)
    n, c, h, w = x.shape
    _check(h % k == 0 and w % k == 0,
           "pool window {} does not divide input {}x{}", k, h, w)
    if k != 2 or (scale is None and x.dtype != np.float64):
        if scale is not None:
            x = x * scale
        out = x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))
        _check_finite(out, "pool output")
        return out
    x00, x01, x10, x11 = (x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1))
    if scale is not None:
        count = np.add(x00, x01, dtype=np.uint8)
        np.add(count, x10, out=count)
        np.add(count, x11, out=count)
        # 2 * scale is exact, so k <= 4 spikes sum to the float k * scale in
        # either add order (docs/numerics.md, "Pooling spikes by count")
        table = np.arange(5) * scale / 4
        _check_finite(table, "pool output")
        return table[count]
    out = np.add(x00, x01)
    if w == 2:
        # one output column: numpy's mean adds the window in sequence
        out += x10
        out += x11
    else:
        pair = np.empty(out.shape[1:], dtype=out.dtype)  # one image: bounds the temporary
        for i in range(n):
            np.add(x10[i], x11[i], out=pair)
            out[i] += pair
    np.divide(out, 4, out=out)
    _check_finite(out, "pool output")
    return out
