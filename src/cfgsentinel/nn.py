"""From-scratch feed-forward networks over feature vectors (numpy only).

Two architectures share one layer toolkit:

cnn: 1xW input -> conv(46, k3, pad 1) -> conv(46, k3) -> maxpool(2,2)
     -> dropout 0.25 -> conv(92, k3, pad 1) -> conv(92, k3) -> maxpool(2,2)
     -> dropout 0.25 -> flatten -> dense 512 -> dropout 0.5 -> dense C
dnn: W input -> dense 100 -> dense 100 -> dropout 0.25 -> dense 100
     -> dense 100 -> dropout 0.5 -> dense C

All conv/dense layers use ReLU except the final dense, whose logits feed a
softmax with categorical cross-entropy.  For width 23 the cnn activation
widths are 23, 21, 10, 10, 8, 4 with a flatten of 92*4 = 368.  Training is
Adam (lr 1e-3, betas 0.9/0.999, eps 1e-8), 100 epochs, batch 32, and is
bit-reproducible for a fixed seed.  A layer holds only its weights:
`forward(x, rng, pool)` returns its output and the cache
`backward(dout, cache, pool)` reads, and dropout acts only when given an rng.
Given a one-thread `pool` (a `concurrent.futures` executor), conv and dense
layers hand half of their work to its thread; each element still takes the
same operations in the same order, so the bits do not depend on the pool.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
import os
import struct
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .graph import is_count, parse_json

CHECKPOINT_MAGIC = b"CFGSENT1"


class TrainingError(RuntimeError):
    """Raised when training cannot proceed (bad labels, diverging loss)."""


class ModelIOError(ValueError):
    """Raised for unreadable, corrupt, or shape-inconsistent checkpoints."""


def _glorot(rng: Optional[np.random.Generator], shape: tuple[int, ...], fan_in: int, fan_out: int):
    """Glorot-uniform weights drawn from rng; without an rng, an
    uninitialised array that a checkpoint payload fills."""
    if rng is None:
        return np.empty(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _beside(pool: Optional[Executor], work, here) -> tuple:
    """(work(), here()).  With a pool, work() runs on its thread, in a copy of
    this context (numpy's error state included), while here() runs here;
    without one, work() runs first.  Both have ended when this returns or
    raises."""
    if pool is None:
        return work(), here()
    future = pool.submit(contextvars.copy_context().run, work)
    try:
        mine = here()
    finally:
        wait((future,))
    return future.result(), mine


def _halves(pool: Optional[Executor], fn, *arrays) -> None:
    """fn(*arrays); with a pool, fn of the first half of each array (along
    the batch axis) on its thread while fn of the second half runs here."""
    h = len(arrays[0]) // 2
    if pool is None or h == 0:
        fn(*arrays)
    else:
        _beside(pool, lambda: fn(*(a[:h] for a in arrays)), lambda: fn(*(a[h:] for a in arrays)))


class _Layer:
    """A layer without weights."""

    params: tuple = ()
    grads: tuple = ()


class _Weighted:
    """A layer with Glorot weights `W` (first axis the outputs) and a zero
    bias `b`.  Their gradients `dW` and `db` exist from the first `backward`
    until `train` returns, so an inference-only model holds no gradients."""

    dW = db = None

    def __init__(self, rng, shape: tuple[int, ...], fan_in: int, fan_out: int):
        self.W = _glorot(rng, shape, fan_in, fan_out)
        self.b = np.zeros(shape[0])

    @property
    def params(self):
        return self.W, self.b

    @property
    def grads(self):
        return self.dW, self.db


class Dense(_Weighted):
    def __init__(self, rng, n_in: int, n_out: int):
        super().__init__(rng, (n_out, n_in), n_in, n_out)

    def forward(self, x, rng, pool=None):
        y = np.empty((len(x), len(self.W)))

        def rows(x, y):
            np.matmul(x, self.W.T, out=y)
            y += self.b

        # A small product's rounding can depend on its row count (one row is
        # a GEMV, and OpenBLAS switches kernels near 10^6 multiply-adds), so
        # only a large layer's halves of at least two rows are split.
        split = len(x) >= 4 and self.W.size >= SPLIT_MIN_WEIGHTS
        _halves(pool if split else None, rows, x, y)
        return y, x

    def backward(self, dout, x, pool=None, input_grad=True):
        """The input gradient, computed here while the pool's thread computes
        `dW`; None when `input_grad` is false (the model's first layer)."""
        self.db = dout.sum(axis=0)

        def dW():
            return np.matmul(dout.T, x, out=self.dW)

        if not input_grad:
            self.dW = dW()
            return None
        self.dW, dx = _beside(pool, dW, lambda: dout @ self.W)
        return dx


class Conv1D(_Weighted):
    """1-D convolution, stride 1.  Input (B, C_in, W), output (B, C_out, W_out)."""

    def __init__(self, rng, c_in: int, c_out: int, k: int, pad: int):
        super().__init__(rng, (c_out, c_in, k), c_in * k, c_out * k)
        self.k, self.pad = k, pad

    def forward(self, x, rng, pool=None):
        b, c_in, w = x.shape
        k, pad = self.k, self.pad
        w_pad = w + 2 * pad
        w_out = w_pad - k + 1
        W2 = self.W.reshape(self.W.shape[0], -1).T
        cols = np.empty((b, w_out, c_in * k))
        y = np.empty((b, w_out, W2.shape[1]))

        def samples(x, cols, y):
            # im2col of the zero-padded input: (B, W_out, C_in * k), so the
            # convolution is one matmul per sample.  Offset o reads
            # x[t + o - pad]; the rows where that falls into the padding are
            # zeros.
            xt = x.transpose(0, 2, 1)
            for o in range(k):
                lo, hi = max(0, pad - o), min(w_out, w + pad - o)
                block = cols[:, :, o::k]
                block[:, lo:hi] = xt[:, lo + o - pad : hi + o - pad]
                if lo > 0:
                    block[:, :lo] = 0.0
                if hi < w_out:
                    block[:, hi:] = 0.0
            np.matmul(cols, W2, out=y)
            y += self.b

        _halves(pool, samples, x, cols, y)
        return y.transpose(0, 2, 1), cols

    def backward(self, dout, cols, pool=None, input_grad=True):
        """The input gradient, from `dcols` and col2im computed here while the
        pool's thread computes `dW`; None when `input_grad` is false."""
        b, c_out, w_out = dout.shape
        dmat = dout.transpose(0, 2, 1)  # (B, W_out, C_out)
        self.db = dout.sum(axis=(0, 2))

        def dW():
            return np.tensordot(dmat, cols, axes=([0, 1], [0, 1])).reshape(self.W.shape)

        if not input_grad:
            self.dW = dW()
            return None
        # dcols (B, W_out, C_in * k) takes over the im2col buffer once dW has
        # read it; beside the pool's dW it needs a buffer of its own
        self.dW, dcols = _beside(pool, dW, lambda: np.matmul(
            dmat, self.W.reshape(c_out, -1), out=None if pool else cols))
        c_in = self.W.shape[1]
        dxp = np.zeros((b, c_in, w_out + self.k - 1))
        for o in range(self.k):
            dxp[:, :, o : o + w_out] += dcols[:, :, o::self.k].transpose(0, 2, 1)
        if self.pad:
            dxp = dxp[:, :, self.pad : -self.pad]
        return dxp


class MaxPool1D(_Layer):
    """Width-2, stride-2 max pooling; an odd trailing element is dropped.

    The max of each pair is np.maximum of its even and odd element, and the
    argmax is the mask odd > even: a tie, signed zeros included, goes to
    the even element, as with argmax over a length-2 axis."""

    def forward(self, x, rng, pool=None):
        w = 2 * (x.shape[2] // 2)
        even, odd = x[:, :, 0:w:2], x[:, :, 1:w:2]
        arg = odd > even
        return np.maximum(even, odd), (arg, x.shape)

    def backward(self, dout, cache, pool=None):
        arg, shape = cache
        full = np.zeros(shape)
        w = 2 * dout.shape[2]
        np.copyto(full[:, :, 0:w:2], dout, where=~arg)
        np.copyto(full[:, :, 1:w:2], dout, where=arg)
        return full


class ReLU(_Layer):
    """Multiplies by its mask in place: its input in forward, the incoming
    gradient in backward, both arrays the previous layer made for it."""

    def forward(self, x, rng, pool=None):
        mask = x > 0
        return np.multiply(x, mask, out=x), mask

    def backward(self, dout, mask, pool=None):
        return np.multiply(dout, mask, out=dout)


class Dropout(_Layer):
    """Inverted dropout, active exactly when given an rng: it draws its mask
    from it and scales its input and the incoming gradient in place."""

    def __init__(self, p: float):
        self.p = p

    def forward(self, x, rng, pool=None):
        if rng is None:
            return x, None
        mask = (rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return np.multiply(x, mask, out=x), mask

    def backward(self, dout, mask, pool=None):
        return dout if mask is None else np.multiply(dout, mask, out=dout)


class Flatten(_Layer):
    def forward(self, x, rng, pool=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dout, shape, pool=None):
        return dout.reshape(shape)


# ---------------------------------------------------------------------------
# Architectures
# ---------------------------------------------------------------------------

# Each architecture as one description, read both to build its layers and to
# check a checkpoint's shapes.  Sizes are output channels / units; None is
# the class count.
_ARCH_LAYERS = {
    "cnn": (
        ("conv", 46, 3, 1), ("relu",), ("conv", 46, 3, 0), ("relu",),
        ("pool",), ("dropout", 0.25),
        ("conv", 92, 3, 1), ("relu",), ("conv", 92, 3, 0), ("relu",),
        ("pool",), ("dropout", 0.25),
        ("flatten",), ("dense", 512), ("relu",), ("dropout", 0.5),
        ("dense", None),
    ),
    "dnn": (
        ("dense", 100), ("relu",), ("dense", 100), ("relu",), ("dropout", 0.25),
        ("dense", 100), ("relu",), ("dense", 100), ("relu",), ("dropout", 0.5),
        ("dense", None),
    ),
}

ARCHITECTURES = tuple(_ARCH_LAYERS)


def _layer_plan(arch: str, input_width: int, num_classes: int) -> list[tuple]:
    """The architecture's layers as (kind, constructor args, output shape per
    sample): conv takes (c_in, c_out, k, pad), dense (n_in, n_out).  Only
    integers are computed, nothing is allocated.  Raises ModelIOError when
    the input is too narrow to pass the stack."""
    shape = (1, input_width) if arch == "cnn" else (input_width,)
    plan = []
    for kind, *args in _ARCH_LAYERS[arch]:
        if kind == "conv":
            c_out, k, pad = args
            args = [shape[0], c_out, k, pad]
            shape = (c_out, shape[1] + 2 * pad - k + 1)
        elif kind == "pool":
            shape = (shape[0], shape[1] // 2)
        elif kind == "flatten":
            shape = (shape[0] * shape[1],)
        elif kind == "dense":
            n_out = args[0] or num_classes
            args = [shape[0], n_out]
            shape = (n_out,)
        if shape[-1] < 1:
            raise ModelIOError(f"input width {input_width} cannot pass the {arch} stack")
        plan.append((kind, args, shape))
    return plan


def _param_shapes(arch: str, input_width: int, num_classes: int) -> list[list[int]]:
    """Shapes of Model.param_arrays(), in order, without building the model."""
    shapes = []
    for kind, args, _ in _layer_plan(arch, input_width, num_classes):
        if kind == "conv":
            c_in, c_out, k, _ = args
            shapes += [[c_out, c_in, k], [c_out]]
        elif kind == "dense":
            n_in, n_out = args
            shapes += [[n_out, n_in], [n_out]]
    return shapes


def cnn_width_chain(input_width: int) -> list[int]:
    """Activation widths after each conv/pool stage.  Raises when the input
    is too narrow to pass through the documented stack."""
    plan = _layer_plan("cnn", input_width, 2)
    return [input_width] + [shape[1] for kind, _, shape in plan if kind in ("conv", "pool")]


def cnn_flatten_width(input_width: int) -> int:
    plan = _layer_plan("cnn", input_width, 2)
    return next(shape[0] for kind, _, shape in plan if kind == "flatten")


def _make_layer(rng, kind: str, args):
    if kind == "conv":
        return Conv1D(rng, *args)
    if kind == "dense":
        return Dense(rng, *args)
    if kind == "dropout":
        return Dropout(*args)
    return {"relu": ReLU, "pool": MaxPool1D, "flatten": Flatten}[kind]()


@dataclass
class Model:
    """Trained network: architecture tag, layer stack, class-name order,
    and the fitted per-feature min/max scaler."""

    arch: str
    input_width: int
    class_names: tuple[str, ...]
    layers: list
    scaler_min: Optional[np.ndarray] = None
    scaler_max: Optional[np.ndarray] = None
    loss_history: list[float] = field(default_factory=list)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def _prepare(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.input_width:
            raise ValueError(f"expected {self.input_width} features, got {X.shape[1]}")
        if self.scaler_min is not None:
            X = apply_scaler(X, self.scaler_min, self.scaler_max)
        if self.arch == "cnn":
            X = X[:, None, :]
        return X

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities, one row per sample.  Finite weights can still
        overflow: that raises ModelIOError, and numpy's warnings are silenced."""
        x = self._prepare(X)
        with np.errstate(all="ignore"):
            for layer in self.layers:
                x = layer.forward(x, None)[0]  # the cache is dropped at once
            probs = softmax(x)
        if not np.isfinite(probs).all():
            raise ModelIOError("model predicts non-finite probabilities")
        return probs

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def predict_class(self, x: np.ndarray) -> str:
        return self.class_names[int(self.predict(x)[0])]

    def loss_and_grads(self, X_scaled: np.ndarray, y: np.ndarray, rng=None,
                       pool: Optional[Executor] = None) -> float:
        """Mean cross-entropy of a forward and backward pass on already-scaled
        inputs, the gradients left in the layers' `dW` and `db`; dropout acts
        only when given `rng`, and the layers share their work with `pool`.
        Each cache lives from its forward to its backward.  The input's own
        gradient is not computed."""
        x = X_scaled[:, None, :] if self.arch == "cnn" else X_scaled
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x, rng, pool)
            caches.append(cache)
        probs = softmax(x)
        batch = len(y)
        loss = cross_entropy(probs, y)
        dlogits = probs.copy()
        dlogits[np.arange(batch), y] -= 1.0
        dlogits /= batch
        grad = dlogits
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad, caches.pop(), pool)
        self.layers[0].backward(grad, caches.pop(), pool, input_grad=False)
        return float(loss)

    def param_arrays(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def grad_arrays(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]


def build_model(arch: str, input_width: int, class_names: Sequence[str], seed: int) -> Model:
    return _build_model(arch, input_width, class_names, np.random.default_rng(seed))


def _build_model(arch: str, input_width: int, class_names: Sequence[str],
                 rng: Optional[np.random.Generator]) -> Model:
    """The model with Glorot weights drawn from rng, or with uninitialised
    weights when rng is None."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture: {arch!r}")
    if len(class_names) < 2:
        raise ValueError("need at least two classes")
    plan = _layer_plan(arch, input_width, len(class_names))
    return Model(
        arch=arch,
        input_width=input_width,
        class_names=tuple(class_names),
        layers=[_make_layer(rng, kind, args) for kind, args, _ in plan],
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-probability of the labels `y`."""
    return -np.mean(np.log(probs[np.arange(len(y)), y]))


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------

def fit_scaler(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature min and max over the training matrix."""
    X = np.asarray(X, dtype=np.float64)
    return X.min(axis=0), X.max(axis=0)


def apply_scaler(X: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """Map into [0, 1]; constant features (and any whose min exceeds its
    max) become 0; unseen values clamp."""
    X = np.asarray(X, dtype=np.float64)
    span = maxs - mins
    live = span > 0
    out = np.clip(X, mins, maxs)
    out -= mins
    out /= np.where(live, span, 1.0)
    np.copyto(out, 0.0, where=~live)
    return out


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

# Elements per Adam sweep: a chunk of each buffer stays in cache across the
# update's passes, and the two scratch buffers are this size, not full-size.
ADAM_CHUNK = 32768
# Adam's moment decays and denominator offset: the settings of Kingma & Ba,
# "Adam: A Method for Stochastic Optimization" (ICLR 2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
DEFAULT_EPOCHS, DEFAULT_BATCH_SIZE, DEFAULT_LR = 100, 32, 1e-3  # the `[train]` defaults
# Weights from which a model's training steps, and a dense layer's forward,
# repay handing half of their work to a helper thread: at 1 BLAS thread on 2
# CPUs a width-23 cnn (234,804 weights) gained nothing, a width-50 one
# (564,532) trained 22 % faster.  Halves of two or more rows of a dense
# layer this large also stay above OpenBLAS's small-matrix kernels.
SPLIT_MIN_WEIGHTS = 1 << 19


class Adam:
    """Adam updating its parameters in place.  Each element takes the textbook
    operations in the textbook order, so the weights are bit-identical to
    ``m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
    p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``; a step allocates nothing."""

    def __init__(self, params: list[np.ndarray], lr=DEFAULT_LR):
        if not all(p.flags.c_contiguous for p in params):
            raise ValueError("Adam updates contiguous parameter arrays only")
        self.params = [p.reshape(-1) for p in params]
        self.lr = lr
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        size = min(ADAM_CHUNK, max((p.size for p in self.params), default=0))
        # two scratch buffers for the chunks swept here, two for a pool's thread
        self._scratch = np.empty((2, 2, size))
        self.t = 0

    def step(self, grads: list[np.ndarray], pool: Optional[Executor] = None):
        """One update; with a pool, its thread sweeps the first half of the chunks."""
        self.t += 1
        c1, c2 = 1 - ADAM_BETA1 ** self.t, 1 - ADAM_BETA2 ** self.t
        chunks = [tuple(a[lo : lo + ADAM_CHUNK] for a in (p, g.reshape(-1), m, v))
                  for p, g, m, v in zip(self.params, grads, self.m, self.v)
                  for lo in range(0, p.size, ADAM_CHUNK)]
        half = len(chunks) // 2 if pool else 0
        _beside(pool, lambda: self._sweep(chunks[:half], self._scratch[1], c1, c2),
                lambda: self._sweep(chunks[half:], self._scratch[0], c1, c2))

    def _sweep(self, chunks, scratch, c1, c2):
        b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, self.lr, ADAM_EPS
        for pc, gc, mc, vc in chunks:
            s1, s2 = scratch[0, : pc.size], scratch[1, : pc.size]
            np.multiply(mc, b1, out=mc)
            np.multiply(gc, 1 - b1, out=s1)
            np.add(mc, s1, out=mc)
            np.multiply(vc, b2, out=vc)
            np.multiply(gc, 1 - b2, out=s1)
            np.multiply(s1, gc, out=s1)
            np.add(vc, s1, out=vc)
            np.divide(vc, c2, out=s1)
            np.sqrt(s1, out=s1)
            np.add(s1, eps, out=s1)
            np.divide(mc, c1, out=s2)
            np.multiply(s2, lr, out=s2)
            np.divide(s2, s1, out=s2)
            np.subtract(pc, s2, out=pc)


def _one_blas_thread() -> bool:
    """Whether the environment asks BLAS for one thread.  As OpenBLAS reads
    them, the first of its variables set to a count of at least 1 decides;
    with none, BLAS uses every CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) >= 1:
            return int(value) == 1
    return False


def _helper(model: Model):
    """A one-thread pool for `model`'s training steps, or a null context
    (None).  The helper runs only beside one BLAS thread, with at least two
    CPUs this process may use and a model of SPLIT_MIN_WEIGHTS or more."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    weights = sum(p.size for p in model.param_arrays())
    if cpus >= 2 and _one_blas_thread() and weights >= SPLIT_MIN_WEIGHTS:
        return ThreadPoolExecutor(1, thread_name_prefix="nn.train helper")
    return contextlib.nullcontext()


def train(
    X: np.ndarray,
    y: np.ndarray,
    class_names: Sequence[str],
    arch: str = "cnn",
    seed: int = 0,
    epochs: int = DEFAULT_EPOCHS,
    batch_size: int = DEFAULT_BATCH_SIZE,
    lr: float = DEFAULT_LR,
) -> Model:
    """Train a detector/classifier on raw feature rows.  Fits the min-max
    scaler on X, then runs seeded shuffled mini-batch Adam.  The same seed
    and data reproduce the final weights bit for bit.  The arguments follow
    the `[train]` rules of `experiment.settings` and the seed is a count
    (`is_count`).  The class names are at least two strings, X is finite,
    the labels are integers naming every class, and the rows are wide
    enough for `arch`; anything else raises TrainingError before any work."""
    if not is_count(seed):
        raise TrainingError(f"seed must be a non-negative integer, got {seed!r}")
    if arch not in ARCHITECTURES:
        raise TrainingError(f"unknown architecture: {arch!r}")
    if not (is_count(epochs) and is_count(batch_size) and min(epochs, batch_size) >= 1):
        raise TrainingError("epochs and batch_size must be integers >= 1")
    if not (lr > 0 and math.isfinite(lr)):
        raise TrainingError(f"lr must be a finite number > 0, got {lr!r}")
    if not (len(class_names) >= 2 and all(type(c) is str for c in class_names)):
        raise TrainingError("class_names must be at least two strings")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise TrainingError("X must be 2-D with one label per row")
    if X.size == 0:  # no rows, or rows of no feature
        raise TrainingError("empty training set")
    # min and max are NaN if any element is; no full-size mask is made
    if not (math.isfinite(X.min()) and math.isfinite(X.max())):
        raise TrainingError("X must be finite")
    if y.dtype.kind not in "iu":
        raise TrainingError(f"labels must be integers, got dtype {y.dtype}")
    y = y.astype(np.int64)
    present = set(int(c) for c in np.unique(y))
    for c in range(len(class_names)):
        if c not in present:
            raise TrainingError(f"class {class_names[c]!r} has no training samples")
    if not present <= set(range(len(class_names))):
        raise TrainingError("label outside class range")
    try:
        _layer_plan(arch, X.shape[1], len(class_names))
    except ModelIOError as e:  # the rows are too narrow for the stack
        raise TrainingError(str(e)) from None

    model = build_model(arch, X.shape[1], class_names, seed)
    rng = np.random.default_rng(seed + 1)
    model.scaler_min, model.scaler_max = fit_scaler(X)
    Xs = apply_scaler(X, model.scaler_min, model.scaler_max)

    opt = Adam(model.param_arrays(), lr=lr)
    n = len(Xs)
    # A diverging run overflows before its loss turns non-finite; that check
    # is the one report, so numpy's warnings are silenced, not its results.
    # The helper thread, if any, is joined before train returns or raises.
    with _helper(model) as pool, np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(epochs):
            perm = rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch_size):
                idx = perm[start : start + batch_size]
                loss = model.loss_and_grads(Xs[idx], y[idx], rng, pool)
                if not np.isfinite(loss):
                    raise TrainingError("non-finite training loss")
                opt.step(model.grad_arrays(), pool)
                total += loss * len(idx)
            model.loss_history.append(total / n)
        # Every loss above was computed before its step, so the last step can
        # leave weights that predict NaN: the training rows' losses once more,
        # without dropout and in batches, check the model that is returned.
        try:
            final = sum(cross_entropy(model.predict_proba(X[lo : lo + batch_size]),
                                      y[lo : lo + batch_size]) for lo in range(0, n, batch_size))
        except ModelIOError:
            final = np.nan
        if not np.isfinite(final):
            raise TrainingError("non-finite training loss after the last step")
    for layer in model.layers:
        if isinstance(layer, _Weighted):
            layer.dW = layer.db = None
    return model


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalMetrics:
    """Accuracy, confusion counts (rows: actual, columns: predicted), and
    two FPR/FNR conventions reported side by side.

    The alternative convention, common in parts of the malware literature,
    divides mislabeled malware by the malware total (alt_fpr) and mislabeled
    benign by the benign total (alt_fnr); the conventional pair treats
    malware as the positive class.  Rates are None when no benign class is
    designated.
    """

    accuracy: float
    confusion: np.ndarray
    class_names: tuple[str, ...]
    alt_fpr: Optional[float] = None
    alt_fnr: Optional[float] = None
    fpr: Optional[float] = None
    fnr: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "class_names": list(self.class_names),
            "alt_fpr": self.alt_fpr,
            "alt_fnr": self.alt_fnr,
            "fpr": self.fpr,
            "fnr": self.fnr,
        }


def evaluate(model: Model, X: np.ndarray, y: np.ndarray, benign_index: Optional[int] = None) -> EvalMetrics:
    y = np.asarray(y, dtype=np.int64)
    if len(y) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    pred = model.predict(X)
    k = model.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    for a, p in zip(y, pred):
        confusion[a, p] += 1
    total = len(y)
    accuracy = float(np.trace(confusion)) / total

    alt_fpr = alt_fnr = fpr = fnr = None
    if benign_index is not None:
        is_benign = y == benign_index
        n_b = int(is_benign.sum())
        n_m = total - n_b
        if n_m > 0:
            alt_fpr = float(np.sum((~is_benign) & (pred != y))) / n_m
            fnr = float(np.sum((~is_benign) & (pred == benign_index))) / n_m
        if n_b > 0:
            alt_fnr = float(np.sum(is_benign & (pred != benign_index))) / n_b
            fpr = alt_fnr
    return EvalMetrics(
        accuracy=accuracy,
        confusion=confusion,
        class_names=model.class_names,
        alt_fpr=alt_fpr,
        alt_fnr=alt_fnr,
        fpr=fpr,
        fnr=fnr,
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: Model, path: str | Path) -> None:
    """Binary checkpoint: magic, JSON header (arch, widths, classes, shapes),
    then all weights and the scaler as little-endian float64, array by array."""
    arrays = model.param_arrays()
    has_scaler = model.scaler_min is not None
    if has_scaler:
        arrays = arrays + [model.scaler_min, model.scaler_max]
    header = {
        "arch": model.arch,
        "input_width": model.input_width,
        "num_classes": model.num_classes,
        "class_names": list(model.class_names),
        "scaler": has_scaler,
        "shapes": [list(a.shape) for a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8"))


# Header key -> check of its JSON value; counts follow `is_count`.
_HEADER_FIELDS = {
    "arch": lambda v: v in ARCHITECTURES,
    "input_width": lambda v: is_count(v) and v >= 1,
    "num_classes": lambda v: is_count(v) and v >= 2,
    "class_names": lambda v: type(v) is list and all(type(c) is str for c in v),
    "scaler": lambda v: type(v) is bool,
    "shapes": lambda v: type(v) is list and all(type(s) is list and all(map(is_count, s))
                                                for s in v),
}


def load_checkpoint(path: str | Path) -> Model:
    """Load and validate a checkpoint.  The magic, the header, the shape chain
    implied by (arch, input width, class count) and the file length are
    checked before the model is built; then each array is read in place and
    checked finite."""
    try:
        with open(path, "rb") as f:
            return _read_checkpoint(f)
    except OSError as e:
        raise ModelIOError(f"unreadable checkpoint: {e}") from None


def _read_checkpoint(f) -> Model:
    size = os.fstat(f.fileno()).st_size
    head = f.read(12)
    if head[:8] != CHECKPOINT_MAGIC:
        raise ModelIOError("bad checkpoint magic")
    hlen = int.from_bytes(head[8:], "little")  # a file under 12 bytes fails below
    if 12 + hlen > size:
        raise ModelIOError("truncated checkpoint")
    header = parse_json(f.read(hlen), ModelIOError, "corrupt checkpoint header")
    if not isinstance(header, dict):
        raise ModelIOError("checkpoint header is not a JSON object")
    for key, valid in _HEADER_FIELDS.items():
        if not valid(header.get(key)):
            raise ModelIOError(f"missing or bad checkpoint header field {key!r}")
    class_names = tuple(header["class_names"])
    if len(class_names) != header["num_classes"]:
        raise ModelIOError("class name list does not match class count")
    # Everything is checked against the header and the file size before the
    # model is built, so a short file cannot make the loader allocate much.
    width = header["input_width"]
    expected = _param_shapes(header["arch"], width, len(class_names))
    if header["scaler"]:
        expected += [[width], [width]]
    if header["shapes"] != expected:
        raise ModelIOError("checkpoint shapes do not match the architecture's shape chain")
    if size != 12 + hlen + 8 * sum(math.prod(shape) for shape in expected):
        raise ModelIOError("checkpoint payload length does not match its shapes")
    model = _build_model(header["arch"], width, class_names, rng=None)
    arrays = model.param_arrays()
    if header["scaler"]:
        model.scaler_min, model.scaler_max = np.empty(width), np.empty(width)
        arrays += [model.scaler_min, model.scaler_max]
    for a in arrays:
        if f.readinto(a) != a.nbytes:
            raise ModelIOError("truncated checkpoint payload")
        if not np.little_endian:
            a.byteswap(inplace=True)
        # min and max are NaN if any element is; no full-size mask is made
        if not (math.isfinite(a.min()) and math.isfinite(a.max())):
            raise ModelIOError("non-finite values in checkpoint")
    return model
