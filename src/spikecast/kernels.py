"""Dense NCHW inference kernels.

Minimal deterministic numpy kernels used by both the real-valued reference
path and the unrolled spiking path: cross-correlation convolution,
fully-connected product, fused batch-norm affine, and average and max
pooling.

All kernels are pure functions: they never mutate their arguments and
return freshly allocated arrays, so they are safe to call concurrently
across batch elements or layers. The only shared state is conv2d's cache
of patch-gather indices, which holds read-only arrays keyed by geometry.

Accumulation order: a convolution is lowered to one matrix product
``cols @ flat_w.T``. ``cols`` is a C-contiguous (N*H_o*W_o, C*K_h*K_w)
matrix of patches flattened in (channel, kernel-row, kernel-col) order, and
``flat_w.T`` is the transposed view of the C-contiguous weights. The
reduction order is then fixed by the BLAS kernel and is identical on every
call with the same shapes. The operand layout is part of that contract:
the mathematically equal ``flat_w @ cols_t`` on a C-contiguous transpose,
or the same product on an F-ordered ``cols``, runs a different BLAS kernel
whose rounding differs (seen with C_out <= 3), so outputs would no longer
be bitwise equal to earlier versions.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class KernelError(ValueError):
    """Raised when a kernel receives structurally invalid inputs."""


def _check(cond, msg):
    if not cond:
        raise KernelError(msg)


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

    def scaled(self, l_scale):
        """Return a copy with the additive constants divided down.

        Splitting a tensor over L unrolled pieces requires b' = b/L,
        mu' = mu/L and beta' = beta/L so the pieces still sum to the
        single-shot result; gamma and the variance are untouched.
        """
        return BnAffine(
            gamma=self.gamma,
            beta=self.beta * l_scale,
            mu=self.mu * l_scale,
            sigma_sq=self.sigma_sq,
            bias=self.bias * l_scale,
            epsilon=self.epsilon,
        )


def conv_output_hw(h, w, kernel, stride, padding):
    """Output spatial dims; raises unless they are exact positive integers."""
    k_h, k_w = kernel
    s_h, s_w = stride
    p_h, p_w = padding
    num_h = h + 2 * p_h - k_h
    num_w = w + 2 * p_w - k_w
    _check(num_h >= 0 and num_w >= 0, f"kernel {kernel} larger than padded input {h}x{w}")
    _check(num_h % s_h == 0 and num_w % s_w == 0,
           f"conv geometry does not tile: input {h}x{w}, kernel {kernel}, "
           f"stride {stride}, padding {padding}")
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


def conv2d(x, params):
    """2-D cross-correlation of an (N, C, H, W) batch with ConvParams."""
    _check(x.ndim == 4, f"conv input must be 4-D, got shape {x.shape}")
    n, c, h, w = x.shape
    _check(c == params.in_channels,
           f"conv channel mismatch: input has {c}, weights expect {params.in_channels}")
    k_h, k_w = params.kernel
    p_h, p_w = params.padding
    h_o, w_o = conv_output_hw(h, w, params.kernel, params.stride, params.padding)

    h_p, w_p = h + 2 * p_h, w + 2 * p_w
    if p_h or p_w:
        xp = np.zeros((n, c, h_p, w_p), dtype=x.dtype)
        xp[:, :, p_h:p_h + h, p_w:p_w + w] = x
    else:
        xp = x
    index = _patch_index(c, h_p, w_p, params.kernel, tuple(params.stride), (h_o, w_o))
    cols = np.take(xp.reshape(n, c * h_p * w_p), index, axis=1)
    cols = cols.reshape(n * h_o * w_o, c * k_h * k_w)
    flat_w = params.weights.reshape(params.out_channels, c * k_h * k_w)
    out = cols @ flat_w.T
    out = out.reshape(n, h_o, w_o, params.out_channels).transpose(0, 3, 1, 2)
    out = np.ascontiguousarray(out)
    _check_finite(out, "conv output")
    return out


def fully_connected(x, weights):
    """Batched y = W @ x for x of shape (N, C_in) and weights (C_out, C_in)."""
    _check(x.ndim == 2, f"fully-connected input must be 2-D, got shape {x.shape}")
    _check(weights.ndim == 2, "fully-connected weights must be 2-D (C_out, C_in)")
    _check(x.shape[1] == weights.shape[1],
           f"fully-connected width mismatch: input {x.shape[1]}, weights expect {weights.shape[1]}")
    out = x @ weights.T
    _check_finite(out, "fully-connected output")
    return out


def fused_bn_affine(y, affine, l_scale=1.0):
    """Apply a BnAffine per output channel.

    l_scale divides the additive constants (bias, mu, beta): pass 1 for a
    single-shot pass and 1/L when the layer is unrolled over L timesteps,
    so that the L unrolled outputs sum to the single-shot output.
    """
    _check(y.ndim in (2, 4), f"affine input must be 2-D or 4-D, got shape {y.shape}")
    channels = y.shape[1]
    _check(affine.gamma.shape[0] == channels,
           f"affine expects {affine.gamma.shape[0]} channels, input has {channels}")
    shape = (1, channels) + (1,) * (y.ndim - 2)
    denom = np.sqrt(affine.sigma_sq + affine.epsilon).reshape(shape)
    shift = (l_scale * (affine.bias - affine.mu)).reshape(shape)
    gamma = affine.gamma.reshape(shape)
    beta = (l_scale * affine.beta).reshape(shape)
    # gamma * (y + shift) / denom + beta, evaluated in that order in one
    # buffer that already has the dtype the whole expression would promote to
    out = (y + shift).astype(np.result_type(y, shift, gamma, denom, beta), copy=False)
    np.multiply(gamma, out, out=out)
    np.divide(out, denom, out=out)
    np.add(out, beta, out=out)
    _check_finite(out, "affine output")
    return out


def avg_pool2d(x, window, stride=None):
    """Non-overlapping k x k mean pooling; H and W must tile exactly."""
    _check(x.ndim == 4, f"pool input must be 4-D, got shape {x.shape}")
    k = window[0] if isinstance(window, (tuple, list)) else int(window)
    if stride is not None:
        s = stride[0] if isinstance(stride, (tuple, list)) else int(stride)
        _check(s == k, "avg-pool stride must equal its window")
    n, c, h, w = x.shape
    _check(h % k == 0 and w % k == 0,
           f"pool window {k} does not divide input {h}x{w}")
    out = x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))
    _check_finite(out, "pool output")
    return out


def max_pool2d(x, window):
    """Non-overlapping k x k max pooling.

    Only valid on the real-valued reference path; max does not commute
    with the timestep sum, so converted spiking models reject it.
    """
    _check(x.ndim == 4, f"pool input must be 4-D, got shape {x.shape}")
    k = window[0] if isinstance(window, (tuple, list)) else int(window)
    n, c, h, w = x.shape
    _check(h % k == 0 and w % k == 0,
           f"pool window {k} does not divide input {h}x{w}")
    return x.reshape(n, c, h // k, k, w // k, k).max(axis=(3, 5))

