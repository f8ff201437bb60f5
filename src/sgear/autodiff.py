"""Dense-tensor substrate with reverse-mode automatic differentiation.

Every operation the anticipation model needs is implemented here as a numpy
forward pass plus a backward closure. Gradients accumulate additively across
uses of the same tensor; zeroing is explicit (``zero_grad``). The whole module
runs in double precision by default so finite-difference verification
(`grad_check`) is meaningful.

Each graph node costs Python overhead, so `linear`, `layer_norm`,
`attention` (heads included), `gate_mix` and `cosine` are one node each with
an analytic backward. Their forwards run the numpy operations of the
composites they replaced in the same order, so their values are
bit-identical to those composites.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import erf as _erf

from .errors import NumericError, ShapeError

# When enabled, every op validates its output for NaN/Inf and raises
# NumericError naming the op. grad_check switches it on.
CHECK_FINITE = False

# Cleared inside `no_grad()`: ops then record no graph (no `_prev`, no
# backward closures), which is all inference needs.
_GRAD_ENABLED = True

# Optional detach tape used by grad_check: values passing through detach()
# are captured on the reference evaluation and replayed verbatim during the
# finite-difference probes, so stop-gradient semantics are what gets checked.
_DETACH_TAPE = None


class _DetachTape:
    def __init__(self):
        self.mode = "record"
        self.values = []
        self.cursor = 0

    def replay_from_start(self):
        self.mode = "replay"
        self.cursor = 0


class no_grad:
    """Build no autodiff graph inside the block; the previous setting comes
    back on exit, also when the block raises."""

    __slots__ = ("_prev",)

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev, _GRAD_ENABLED = _GRAD_ENABLED, False

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
_F64 = np.dtype(np.float64)

# numpy's array methods `sum` and `max` are Python wrappers around these
_sum = np.add.reduce
_max = np.maximum.reduce


def _all_finite(data):
    # exact: a finite sum proves every entry finite; only a non-finite sum (a
    # bad entry, or an overflow, which numpy warns about) is checked entrywise
    return math.isfinite(_sum(data, None)) or np.isfinite(data).all()


def _finite(name, data):
    if CHECK_FINITE and not _all_finite(data):
        raise NumericError(f"non-finite values produced by '{name}'")
    return data


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = _sum(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = _sum(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False, dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev = ()

    # -- plumbing ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _accum(self, grad):
        if self.grad is None:
            # a copy: a backward may hand one array to several operands
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def zero_grad(self):
        self.grad = None

    def detach(self):
        """Constant view of this tensor: same data, no gradient flow."""
        value = _replayed(self.data)
        return Tensor(value, requires_grad=False, dtype=value.dtype)

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a seed requires a scalar")
            grad = np.ones_like(self.data)
        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        self._accum(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementwise arithmetic --------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        out = _make(np.add(self.data, other.data), (self, other), "add")
        if out.requires_grad:
            def back(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(g, other.data.shape))
            out._backward = back
        return out

    def __sub__(self, other):
        other = _as_tensor(other)
        out = _make(np.subtract(self.data, other.data), (self, other), "sub")
        if out.requires_grad:
            def back(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accum(-_unbroadcast(g, other.data.shape))
            out._backward = back
        return out

    def __mul__(self, other):
        other = _as_tensor(other)
        out = _make(np.multiply(self.data, other.data), (self, other), "mul")
        if out.requires_grad:
            def back(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(g * self.data, other.data.shape))
            out._backward = back
        return out

    __rmul__ = __mul__

    def __pow__(self, p):
        out = _make(self.data ** p, (self,), "pow")
        if out.requires_grad:
            out._backward = lambda g: self._accum(g * p * self.data ** (p - 1))
        return out

    # -- shape manipulation --------------------------------------------------

    def reshape(self, *shape):
        out = _make(self.data.reshape(*shape), (self,), "reshape")
        if out.requires_grad:
            out._backward = lambda g: self._accum(g.reshape(self.data.shape))
        return out

    def transpose(self, *axes):
        axes = axes or tuple(reversed(range(self.data.ndim)))
        out = _make(self.data.transpose(axes), (self,), "transpose")
        if out.requires_grad:
            inv = np.argsort(axes)
            out._backward = lambda g: self._accum(g.transpose(inv))
        return out

    def swapaxes(self, a, b):
        """Exchange axes a and b; swapping an axis with itself returns self."""
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self if axes[a] == axes[b] else self.transpose(*axes)

    @property
    def mT(self):
        """Transpose of the last two axes, batch axes kept."""
        return self.swapaxes(-1, -2)

    def __getitem__(self, idx):
        out = _make(self.data[idx], (self,), "getitem")
        if out.requires_grad:
            def back(g):
                full = np.zeros_like(self.data)
                np.add.at(full, idx, g)
                self._accum(full)
            out._backward = back
        return out

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = _make(_sum(self.data, axis=axis, keepdims=keepdims), (self,), "sum")
        if out.requires_grad:
            def back(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accum(np.broadcast_to(g, self.data.shape))
            out._backward = back
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- nonlinearities -------------------------------------------------------

    def abs(self):
        out = _make(np.abs(self.data), (self,), "abs")
        if out.requires_grad:
            out._backward = lambda g: self._accum(g * np.sign(self.data))
        return out


def _as_tensor(x):
    return x if type(x) is Tensor else Tensor(x)


def _tensors(*xs):
    """`xs`, each as a Tensor; ops mostly get Tensors already."""
    for x in xs:
        if type(x) is not Tensor:
            return tuple(map(_as_tensor, xs))
    return xs


_new_tensor = object.__new__


def _make(data, prev, name):
    """The output of op `name`: `data` as float64, with `prev` as its parents
    when gradients are on and some parent requires grad."""
    if CHECK_FINITE:
        _finite(name, data)
    if type(data) is not np.ndarray or data.dtype is not _F64:
        data = np.asarray(data, dtype=np.float64)
    out = _new_tensor(Tensor)
    out.data = data
    out.grad = out._backward = None
    if _GRAD_ENABLED:
        for p in prev:
            if p.requires_grad:
                out.requires_grad = True
                out._prev = tuple(prev)
                return out
    out.requires_grad = False
    out._prev = ()
    return out


# -- linear algebra -----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with gradients for both operands (batched leading dims ok)."""
    a, b = _tensors(a, b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {ad.shape} vs {bd.shape}")
    out = _make(np.matmul(ad, bd), (a, b), "matmul")
    if out.requires_grad:
        def back(g):
            if a.requires_grad:
                a._accum(_unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), bd.shape))
        out._backward = back
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for (in, out) weights and rows x of shape (..., n, in)."""
    x, w, b = _tensors(x, w, b)
    xd, wd, bd = x.data, w.data, b.data
    if (wd.ndim != 2 or xd.ndim < 2 or xd.shape[-1] != wd.shape[0]
            or bd.shape != (wd.shape[1],)):
        raise ShapeError(f"linear shapes disagree: x {xd.shape}, w {wd.shape}, "
                         f"b {bd.shape}")
    out = _make(np.matmul(xd, wd) + bd, (x, w, b), "linear")
    if out.requires_grad:
        def back(g):
            g2 = g.reshape(-1, wd.shape[1])
            if x.requires_grad:
                x._accum(np.matmul(g, wd.T))
            if w.requires_grad:
                w._accum(np.matmul(xd.reshape(-1, wd.shape[0]).T, g2))
            if b.requires_grad:
                b._accum(_sum(g2, axis=0))
        out._backward = back
    return out


def cosine(x: Tensor, p: Tensor) -> Tensor:
    """(n, m) cosine similarities of the (n, d) rows of x against the (m, d)
    rows of p, with 1e-8 added to the product of the norms."""
    x, p = _tensors(x, p)
    xd, pd = x.data, p.data
    if pd.ndim != 2 or xd.ndim != 2 or xd.shape[-1] != pd.shape[-1]:
        raise ShapeError(f"cosine needs (n, d) rows against (m, d) rows, got "
                         f"{xd.shape} and {pd.shape}")
    xs = _sum(xd * xd, axis=-1, keepdims=True)
    xn = xs ** 0.5
    ps = _sum(pd * pd, axis=1)
    pn = ps ** 0.5
    num = np.matmul(xd, pd.T)
    # a finite denominator proves both norms finite: a squared norm that
    # overflows would otherwise give a finite cosine of 0
    den = xn * pn + 1e-8
    if CHECK_FINITE:
        _finite("cosine", den)
    inv = den ** -1.0
    out = _make(num * inv, (x, p), "cosine")
    if out.requires_grad:
        def back(g):
            gnum = g * inv
            gden = g * num * -1.0 * den ** -2.0
            if x.requires_grad:
                gxs = _unbroadcast(gden * pn, xn.shape) * 0.5 * xs ** -0.5
                x._accum(np.matmul(gnum, pd) + 2.0 * (gxs * xd))
            if p.requires_grad:
                gps = _unbroadcast(gden * xn, pn.shape) * 0.5 * ps ** -0.5
                p._accum(np.matmul(gnum.T, xd) + 2.0 * (gps[:, None] * pd))
        out._backward = back
    return out


def concat(tensors, axis=0):
    tensors = _tensors(*tensors)
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, "concat")
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        def back(g):
            for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
                if t.requires_grad:
                    t._accum(piece)
        out._backward = back
    return out


@functools.lru_cache(maxsize=None)
def _decay_layout(t_len):
    """Read-only (rows, cols) of the strictly lower triangle of a (T, T)
    matrix and the boolean mask of its lower triangle, built once per T."""
    rows, cols = np.tril_indices(t_len, -1)
    lower = np.tri(t_len, dtype=bool)
    for a in (rows, cols, lower):
        a.flags.writeable = False
    return rows, cols, lower


def decay_matrix(alpha: Tensor, t_len: int) -> Tensor:
    """(T, T) lower-triangular decay matrix, M[t, s] = prod(alpha[s:t]) for
    s <= t (ones on the diagonal), so M @ x runs the recurrence
    out_0 = x_0, out_t = x_t + alpha[t-1] * out_{t-1} in one product.

    Built from direct products, with no log or division, so zero and negative
    alpha stay exact in the value and in the gradient
    grad_alpha[j] = sum_{t,s} G[t, s] M[t, j+1] M[j, s] = diag(M G^T M, 1).
    """
    alpha = _as_tensor(alpha)
    if alpha.data.shape != (max(t_len - 1, 0),):
        raise ShapeError(f"decay_matrix needs T-1 = {t_len - 1} factors, got "
                         f"{alpha.data.shape}")
    rows, cols, lower = _decay_layout(t_len)
    factors = np.ones((t_len, t_len))
    factors[rows, cols] = alpha.data[cols]
    # row t holds alpha[0..t-1] then ones; a right-to-left running product
    # gives prod(alpha[s:t]) at column s
    m = np.where(lower, np.cumprod(factors[:, ::-1], axis=1)[:, ::-1], 0.0)
    out = _make(m, (alpha,), "decay_matrix")
    if out.requires_grad:
        out._backward = lambda g: alpha._accum(np.diagonal(m @ g.T @ m, offset=1))
    return out


# -- model nonlinearities -------------------------------------------------------

def gate_mix(logit: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """sigmoid(logit) * a + (1 - sigmoid(logit)) * b, broadcast, as one node:
    the learned gates of the cosine head and of prototype attention."""
    logit, a, b = _tensors(logit, a, b)
    ld, ad, bd = logit.data, a.data, b.data
    e = np.exp(-np.abs(ld))
    s = np.where(ld >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = _make(s * ad + (1.0 - s) * bd, (logit, a, b), "gate_mix")
    if out.requires_grad:
        def back(g):
            if logit.requires_grad:
                ga = _unbroadcast(g * ad, ld.shape)
                gb = _unbroadcast(g * bd, ld.shape)
                logit._accum((ga - gb) * s * (1.0 - s))
            if a.requires_grad:
                a._accum(_unbroadcast(g * s, ad.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * (1.0 - s), bd.shape))
        out._backward = back
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = _as_tensor(x)
    xd = x.data
    cdf = 0.5 * (1.0 + _erf(xd * _INV_SQRT2))
    out = _make(xd * cdf, (x,), "gelu")
    if out.requires_grad:
        pdf = _INV_SQRT2PI * np.exp(-0.5 * xd ** 2)
        out._backward = lambda g: x._accum(g * (cdf + xd * pdf))
    return out


def softmax(x: Tensor, axis=-1) -> Tensor:
    """Shift-invariant softmax along `axis`."""
    x = _as_tensor(x)
    xd = x.data
    if not _all_finite(xd):
        raise NumericError("softmax received non-finite input")
    e = np.exp(xd - _max(xd, axis=axis, keepdims=True))
    y = e / _sum(e, axis=axis, keepdims=True)
    out = _make(y, (x,), "softmax")
    if out.requires_grad:
        def back(g):
            dot = _sum(g * y, axis=axis, keepdims=True)
            x._accum(y * (g - dot))
        out._backward = back
    return out


def cross_entropy(logits: Tensor, target) -> Tensor:
    """(n,) negative log-probabilities of the n targets under a softmax over
    each row of the (n, K) logits."""
    logits = _as_tensor(logits)
    ld = logits.data
    if ld.ndim != 2:
        raise ShapeError(f"cross_entropy expects (n, K) logits, got "
                         f"{ld.shape}")
    k = ld.shape[-1]
    target = np.asarray(target, dtype=np.intp)
    if target.shape != ld.shape[:-1]:
        raise ShapeError(f"targets {target.shape} do not match logits "
                         f"{ld.shape}")
    if ((target < 0) | (target >= k)).any():
        raise IndexError(f"target {target} out of range for {k} classes")
    onehot = np.arange(k) == target[:, None]
    m = _max(ld, axis=-1, keepdims=True)
    lse = m + np.log(_sum(np.exp(ld - m), axis=-1, keepdims=True))
    out = _make((lse - ld)[onehot], (logits,), "cross_entropy")
    if out.requires_grad:
        p = np.exp(ld - lse)
        def back(g):
            gl = p * g[:, None]
            gl[onehot] -= g
            logits._accum(gl)
        out._backward = back
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _tensors(x, gain, bias)
    xd, gd, bd = x.data, gain.data, bias.data
    n = xd.shape[-1]
    if gd.shape != (n,) or bd.shape != (n,):
        raise ShapeError(
            f"layer_norm affine shapes {gd.shape}/{bd.shape} do not match "
            f"feature extent {n}")
    inv_n = 1.0 / n
    xc = xd - _sum(xd, axis=-1, keepdims=True) * inv_n
    # a finite variance proves x, its mean and xc finite, as checking each did
    var = _sum(xc * xc, axis=-1, keepdims=True) * inv_n
    if CHECK_FINITE:
        _finite("layer_norm", var)
    inv = (var + eps) ** -0.5
    xhat = xc * inv
    out = _make(xhat * gd + bd, (x, gain, bias), "layer_norm")
    if out.requires_grad:
        def back(g):
            if x.requires_grad:
                gh = g * gd
                x._accum(inv * (gh - _sum(gh, axis=-1, keepdims=True) * inv_n
                                - xhat * (_sum(gh * xhat, axis=-1, keepdims=True)
                                          * inv_n)))
            if gain.requires_grad:
                gain._accum(_unbroadcast(g * xhat, gd.shape))
            if bias.requires_grad:
                bias._accum(_unbroadcast(g, bd.shape))
        out._backward = back
    return out


def _split_heads(a, heads):
    """(..., N, d) -> (..., heads, N, d/heads), a view."""
    *lead, n, d = a.shape
    return a.reshape(*lead, n, heads, d // heads).swapaxes(-3, -2)


def _join_heads(a):
    """(..., heads, N, dh) -> (..., N, heads*dh)."""
    *lead, h, n, dh = a.shape
    return a.swapaxes(-3, -2).reshape(*lead, n, h * dh)


def attention(q: Tensor, k: Tensor, v: Tensor, scale, mask=None, heads=1) -> Tensor:
    """softmax(q k^T * scale + mask) v over the last two axes, leading axes
    batched. With `heads` > 1 the (..., N, d) operands split their last axis
    into that many heads, each attending on its own, and the heads' outputs
    join back into (..., N, d_v). `mask` is a constant array added to the
    scores, e.g. -1e30 above the diagonal for causal attention. Non-finite
    scores raise NumericError whether or not CHECK_FINITE is on, as `softmax`
    does."""
    q, k, v = _tensors(q, k, v)
    qd, kd, vd = q.data, k.data, v.data
    if (qd.shape[-1] != kd.shape[-1] or kd.shape[-2] != vd.shape[-2]
            or qd.shape[-1] % heads or vd.shape[-1] % heads):
        raise ShapeError(f"attention operands disagree: q {qd.shape}, "
                         f"k {kd.shape}, v {vd.shape}, heads {heads}")
    split = heads > 1
    if split:
        qd = _split_heads(qd, heads)
        kd = _split_heads(kd, heads)
        vd = _split_heads(vd, heads)
    scores = np.matmul(qd, kd.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = scores + mask
    if not _all_finite(scores):
        raise NumericError("attention received non-finite scores")
    e = np.exp(scores - _max(scores, axis=-1, keepdims=True))
    p = e / _sum(e, axis=-1, keepdims=True)
    y = np.matmul(p, vd)
    out = _make(_join_heads(y) if split else y, (q, k, v), "attention")
    if out.requires_grad:
        join = _join_heads if split else (lambda a: a)

        def back(g):
            if split:
                g = _split_heads(g, heads)
            if v.requires_grad:
                gv = np.matmul(p.swapaxes(-1, -2), g)
                v._accum(_unbroadcast(join(gv), v.data.shape))
            if q.requires_grad or k.requires_grad:
                gp = np.matmul(g, vd.swapaxes(-1, -2))
                gs = p * (gp - _sum(gp * p, axis=-1, keepdims=True)) * scale
                if q.requires_grad:
                    q._accum(_unbroadcast(join(np.matmul(gs, kd)), q.data.shape))
                if k.requires_grad:
                    gk = np.matmul(gs.swapaxes(-1, -2), qd)
                    k._accum(_unbroadcast(join(gk), k.data.shape))
        out._backward = back
    return out


# -- verification harness ---------------------------------------------------------

def grad_check(f, params, eps: float = 1e-5) -> float:
    """Compare reverse-mode gradients of scalar f() against central differences.

    `f` is a zero-argument callable rebuilding its graph from `params` on each
    call. Returns the max over coordinates of
    |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).

    Detached values are recorded during the reference evaluation and replayed
    during the difference probes, so losses with stop-gradient branches are
    checked against the derivative they actually optimize. Only the reference
    call builds a graph, also inside a caller's `no_grad`; the probes run
    under `no_grad`.
    """
    global CHECK_FINITE, _DETACH_TAPE, _GRAD_ENABLED
    prev_flag, CHECK_FINITE = CHECK_FINITE, True
    prev_tape, _DETACH_TAPE = _DETACH_TAPE, _DetachTape()
    prev_grad, _GRAD_ENABLED = _GRAD_ENABLED, True
    try:
        for p in params:
            p.zero_grad()
        f().backward()
        _DETACH_TAPE.replay_from_start()
        grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                 for p in params]
        worst = 0.0
        with no_grad():                 # a probe only reads .data
            for p, g_ad in zip(params, grads):
                flat = p.data.reshape(-1)
                g_flat = g_ad.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    _DETACH_TAPE.cursor = 0
                    f_plus = float(f().data)
                    flat[i] = orig - eps
                    _DETACH_TAPE.cursor = 0
                    f_minus = float(f().data)
                    flat[i] = orig
                    g_fd = (f_plus - f_minus) / (2.0 * eps)
                    err = abs(g_flat[i] - g_fd) / max(1.0, abs(g_flat[i]), abs(g_fd))
                    worst = max(worst, err)
        return worst
    finally:
        CHECK_FINITE = prev_flag
        _DETACH_TAPE = prev_tape
        _GRAD_ENABLED = prev_grad


def _replayed(value: np.ndarray) -> np.ndarray:
    """`value`, except under grad_check's tape: the reference call records a
    copy and each finite-difference probe gets the recorded value back."""
    tape = _DETACH_TAPE
    if tape is None:
        return value
    if tape.mode == "record":
        tape.values.append(value.copy())
        return value
    value = tape.values[tape.cursor]
    tape.cursor += 1
    return value


def frozen_choice(values: np.ndarray) -> np.ndarray:
    """Record/replay a discrete choice (e.g. top-k indices) under grad_check's
    tape, holding it fixed during the finite-difference probes."""
    return _replayed(np.asarray(values))
