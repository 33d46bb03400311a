"""Minimal deterministic CNN engine: conv / avg-pool / fc / softmax layers,
per-sample weighted cross-entropy training, and exact MAC accounting.

The engine runs in the dtype of a learner's parameters: `init_params`
makes float32 ones, as the devices the pipeline targets train in float32,
and a learner with float64 parameters (a pool written before float32)
trains and serves in float64. Inputs, one-hot labels and sample weights
are cast to that dtype where they meet the parameters; only the loss is
summed in float64. All randomness goes through seeded
`numpy.random.default_rng` instances, so training is bit-reproducible given
(seed, data, weights, hyperparameters).

Memory layout. Callers see (b, c, h, w) batches. `_im2col` builds the
(c*k*k + 1, b*ho*wo) patch matrix once, its last row all ones, and it is
both conv GEMMs' operand: its `cols.T` view multiplies `[W | b]` forward,
so the GEMM adds the bias, and `cols` itself takes the weight gradient,
whose last row is the bias gradient. The dX GEMM multiplies `W` alone. A
conv output is the GEMM result (b*ho*wo, f) viewed as (b, f, ho, wo), so it
lives channels-last, and so do the pools above it and the gradients flowing
back through them; a conv's ReLU runs in place on it, and backward masks on
that output, which is > 0 exactly where its input was. Weights keep their
(f, c, k, k) order.

Patch gathers. Every conv fills its patch rows with one strided copy from
a buffer with zero margins around each image, in runs a whole image long,
whatever its kernel, stride and padding.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .errors import ShapeError, TrainingDivergedError

CONV = "conv"
AVGPOOL = "avgpool"
FC = "fc"
SOFTMAX = "softmax"

_ACTIVATIONS = ("none", "relu")

DTYPE = np.float32   # what `init_params` makes


@dataclass(frozen=True)
class TensorShape:
    channels: int
    height: int
    width: int

    def __post_init__(self):
        if self.channels < 1 or self.height < 1 or self.width < 1:
            raise ShapeError(f"all dimensions must be >= 1, got {self}")

    @property
    def size(self) -> int:
        return self.channels * self.height * self.width

    def to_list(self):
        return [self.channels, self.height, self.width]


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    filters: int = 0        # conv
    kernel: int = 0         # conv
    stride: int = 1         # conv
    padding: int = 0        # conv
    window: int = 0         # avgpool
    units: int = 0          # fc
    activation: str = "none"  # conv / fc

    def __post_init__(self):
        if self.kind == CONV:
            if self.kernel < 1 or self.kernel % 2 == 0:
                raise ShapeError(f"conv kernel must be odd and >= 1, got {self.kernel}")
            if self.stride < 1:
                raise ShapeError(f"conv stride must be >= 1, got {self.stride}")
            if self.filters < 1:
                raise ShapeError(f"conv needs >= 1 filter, got {self.filters}")
        elif self.kind == AVGPOOL:
            if self.window < 1:
                raise ShapeError(f"avgpool window must be >= 1, got {self.window}")
        elif self.kind == FC:
            if self.units < 1:
                raise ShapeError(f"fc needs >= 1 unit, got {self.units}")
        elif self.kind != SOFTMAX:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.activation not in _ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == CONV:
            d.update(filters=self.filters, kernel=self.kernel, stride=self.stride,
                     padding=self.padding, activation=self.activation)
        elif self.kind == AVGPOOL:
            d["window"] = self.window
        elif self.kind == FC:
            d.update(units=self.units, activation=self.activation)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        return cls(**d)


def conv(filters, kernel=3, stride=1, padding=0, activation="relu") -> LayerSpec:
    return LayerSpec(kind=CONV, filters=filters, kernel=kernel, stride=stride,
                     padding=padding, activation=activation)


def avgpool(window) -> LayerSpec:
    return LayerSpec(kind=AVGPOOL, window=window)


def fc(units, activation="none") -> LayerSpec:
    return LayerSpec(kind=FC, units=units, activation=activation)


def softmax_layer() -> LayerSpec:
    return LayerSpec(kind=SOFTMAX)


def _layer_out_shape(layer: LayerSpec, shape: TensorShape) -> TensorShape:
    if layer.kind == CONV:
        h = (shape.height + 2 * layer.padding - layer.kernel) // layer.stride + 1
        w = (shape.width + 2 * layer.padding - layer.kernel) // layer.stride + 1
        if h < 1 or w < 1:
            raise ShapeError(f"conv output collapses to {h}x{w} from {shape}")
        return TensorShape(layer.filters, h, w)
    if layer.kind == AVGPOOL:
        if shape.height % layer.window or shape.width % layer.window:
            raise ShapeError(
                f"avgpool window {layer.window} does not divide {shape.height}x{shape.width}")
        return TensorShape(shape.channels, shape.height // layer.window,
                           shape.width // layer.window)
    if layer.kind == FC:
        return TensorShape(layer.units, 1, 1)
    return shape  # softmax


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: TensorShape
    layers: tuple
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.class_count < 1:
            raise ShapeError("class_count must be >= 1")
        shapes = self.shapes()
        if not self.layers or self.layers[-1].kind != SOFTMAX:
            raise ShapeError("final layer must be softmax")
        if shapes[-1].size != self.class_count:
            raise ShapeError(
                f"final output size {shapes[-1].size} != class_count {self.class_count}")

    def shapes(self):
        """Output shape after each layer (validates propagation)."""
        out = []
        cur = self.input_shape
        for layer in self.layers:
            cur = _layer_out_shape(layer, cur)
            out.append(cur)
        return out

    @functools.cached_property
    def head_start(self) -> int:
        """Index of the first FC layer, the lowest one FC-only retraining
        reaches; with no FC layer, the final softmax.  The layers before it
        are the trunk, the rest the head."""
        return next((i for i, l in enumerate(self.layers) if l.kind == FC),
                    len(self.layers) - 1)

    @functools.cached_property
    def fc_layers(self) -> tuple:
        """Indices of the FC layers: what FC-only retraining writes."""
        return tuple(i for i, l in enumerate(self.layers) if l.kind == FC)

    @functools.cached_property
    def head_input(self) -> tuple:
        """Per-sample shape of the activations entering the head."""
        start = self.head_start
        shape = self.shapes()[start - 1] if start else self.input_shape
        return (shape.channels, shape.height, shape.width)

    def to_dict(self) -> dict:
        return {
            "input_shape": self.input_shape.to_list(),
            "class_count": self.class_count,
            "layers": [l.to_dict() for l in self.layers],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        return cls(
            input_shape=TensorShape(*d["input_shape"]),
            layers=tuple(LayerSpec.from_dict(ld) for ld in d["layers"]),
            class_count=d["class_count"],
        )

    def save(self, path):
        artifacts.write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "NetworkSpec":
        return artifacts.read_json(path, cls.from_dict)


def count_macs(spec: NetworkSpec) -> int:
    """Multiply-accumulates per single-sample inference.

    conv: C_out*C_in*k^2*H_out*W_out; fc: in*out; pooling and softmax count 0.
    """
    total = 0
    cur = spec.input_shape
    for layer in spec.layers:
        nxt = _layer_out_shape(layer, cur)
        if layer.kind == CONV:
            total += layer.filters * cur.channels * layer.kernel ** 2 * nxt.height * nxt.width
        elif layer.kind == FC:
            total += cur.size * layer.units
        cur = nxt
    return total


def count_params(spec: NetworkSpec) -> int:
    return sum(math.prod(w_shape) + math.prod(b_shape)
               for w_shape, b_shape in filter(None, param_shapes(spec)))


def param_shapes(spec: NetworkSpec):
    """Per-layer (W shape, b shape) tuples; None for parameterless layers."""
    out = []
    cur = spec.input_shape
    for layer in spec.layers:
        if layer.kind == CONV:
            out.append(((layer.filters, cur.channels, layer.kernel, layer.kernel),
                        (layer.filters,)))
        elif layer.kind == FC:
            out.append(((layer.units, cur.size), (layer.units,)))
        else:
            out.append(None)
        cur = _layer_out_shape(layer, cur)
    return out


def init_params(spec: NetworkSpec, rng: np.random.Generator):
    """He-style initialization for conv and fc weights; zero biases; all
    `DTYPE`, rounded from the float64 draws."""
    params = []
    for shapes in param_shapes(spec):
        if shapes is None:
            params.append(None)
            continue
        w_shape, b_shape = shapes
        fan_in = int(np.prod(w_shape[1:]))
        w = rng.standard_normal(w_shape) * np.sqrt(2.0 / fan_in)
        params.append((w.astype(DTYPE), np.zeros(b_shape, dtype=DTYPE)))
    return params


def params_dtype(params):
    """The dtype the engine runs a learner in: its parameters' (`DTYPE` for
    a network without any)."""
    return next((p[0].dtype for p in params if p is not None), DTYPE)


def copy_params(params):
    return [None if p is None else (p[0].copy(), p[1].copy()) for p in params]


def params_checksum(params) -> str:
    return hashlib.sha256(flatten_params(params).tobytes()).hexdigest()


def flatten_params(params) -> np.ndarray:
    chunks = []
    for p in params:
        if p is None:
            continue
        chunks.append(p[0].ravel())
        chunks.append(p[1].ravel())
    return np.concatenate(chunks) if chunks else np.zeros(0)


def unflatten_params(spec: NetworkSpec, flat: np.ndarray):
    params = []
    i = 0
    for shapes in param_shapes(spec):
        if shapes is None:
            params.append(None)
            continue
        w_shape, b_shape = shapes
        wn = int(np.prod(w_shape))
        bn = int(np.prod(b_shape))
        params.append((flat[i:i + wn].reshape(w_shape).copy(),
                       flat[i + wn:i + wn + bn].reshape(b_shape).copy()))
        i += wn + bn
    if i != flat.size:
        raise ShapeError(f"parameter vector length {flat.size} != expected {i}")
    return params


@dataclass
class WeakLearner:
    spec: NetworkSpec
    params: list
    macs: int
    eval_accuracy: float
    id: str

    @classmethod
    def initialize(cls, spec: NetworkSpec, seed: int, learner_id: str) -> "WeakLearner":
        rng = np.random.default_rng(seed)
        return cls(spec=spec, params=init_params(spec, rng),
                   macs=count_macs(spec), eval_accuracy=0.0, id=learner_id)

    def copy(self) -> "WeakLearner":
        return WeakLearner(spec=self.spec, params=copy_params(self.params),
                           macs=self.macs, eval_accuracy=self.eval_accuracy, id=self.id)

    def checksum(self) -> str:
        return params_checksum(self.params)


# ---------------------------------------------------------------------------
# forward / backward


def _im2col(x, k, s, p):
    """Patch matrix (c*k*k + 1, b*ho*wo) of a (b, c, h, w) batch: row
    (c, i, j) holds input channel c at kernel offset (i, j) for every output
    pixel, and the last row is all ones, the bias's operand."""
    b, c, h, w = x.shape
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    cols = np.empty((c * k * k + 1, b * ho * wo), dtype=x.dtype)
    cols[-1] = 1.0
    patches = cols[:-1].reshape(c, k, k, b, ho, wo)
    # each image's flat pixels sit between zero margins of e, so row (c, i, j)
    # at output pixel (y, x) is src[c, img, e + (s*y + i - p)*w + s*x + j - p]
    # and the whole block is one strided view of src
    e = p * w + p
    n = h * w + 2 * e
    src = np.zeros((c, b, n), dtype=x.dtype)
    src[:, :, e:n - e].reshape(c, b, h, w)[...] = x.transpose(1, 0, 2, 3)
    sz = src.itemsize
    patches[...] = np.ndarray(patches.shape, x.dtype, buffer=src, strides=(
        b * n * sz, w * sz, sz, n * sz, s * w * sz, s * sz))
    # the margins pad top and bottom; a horizontal shift wraps into the
    # neighbouring pixel row, so zero the columns it wrapped into: those
    # left of input column 0 and from input column w on
    for j in range(k):
        left, right = -((j - p) // s), -((j - p - w) // s)
        if left > 0:
            patches[:, :, j, :, :, :left] = 0.0
        if right < wo:
            patches[:, :, j, :, :, max(right, 0):] = 0.0
    return cols, ho, wo


def _col2im(dcols, x_shape, k, s, p):
    """Sum patch gradients (b, ho, wo, c, k, k) onto the (b, c, h, w) input
    padded by p; returns a (b, c, h + 2p, w + 2p) view of channels-last sums."""
    b, c, h, w = x_shape
    ho, wo = dcols.shape[1], dcols.shape[2]
    acc = np.zeros((b, h + 2 * p, w + 2 * p, c), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            acc[:, i:i + s * ho:s, j:j + s * wo:s] += dcols[..., i, j]
    return acc.transpose(0, 3, 1, 2)


def _avgpool(x, win):
    """Mean over win x win windows: the sum of the window's strided terms,
    then one divide. numpy's `mean(axis=(3, 5))` over a window view is about
    3x slower at batch 32."""
    terms = (x[:, :, i::win, j::win] for i in range(win) for j in range(win))
    return functools.reduce(np.add, terms) / (win * win)


def _softmax(z):
    # the ufunc reductions `z.max` and `e.sum` make, without the Python-level
    # method wrappers: the same bits, for less at batch 1
    e = z - np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def _forward_cache(spec: NetworkSpec, params, x, start=0, stop=None):
    """Run layers [start, stop) on a batch entering layer `start`, recording
    what backward needs; returns the batch leaving layer stop - 1, as
    (b, c, h, w), or as (b, classes) when the range ends at the final
    softmax.  FC and softmax outputs stay (b, units) inside the range: only
    a conv or pool reads one as (b, units, 1, 1)."""
    layers = spec.layers
    stop = len(layers) if stop is None else stop
    cache = []
    cur = x
    for idx in range(start, stop):
        layer = layers[idx]
        kind = layer.kind
        if cur.ndim == 2 and kind in (CONV, AVGPOOL):
            cur = cur.reshape(cur.shape[0], -1, 1, 1)
        if kind == CONV:
            w, b = params[idx]
            cols, ho, wo = _im2col(cur, layer.kernel, layer.stride, layer.padding)
            wb = np.concatenate((w.reshape(w.shape[0], -1), b[:, None]), axis=1)
            z = cols.T @ wb.T
            if layer.activation == "relu":
                np.maximum(z, 0.0, out=z)
            z = z.reshape(cur.shape[0], ho, wo, -1).transpose(0, 3, 1, 2)
            cache.append((cur.shape, cols, z))
            cur = z
        elif kind == AVGPOOL:
            cache.append(cur.shape)
            cur = _avgpool(cur, layer.window)
        elif kind == FC:
            w, b = params[idx]
            flat = cur.reshape(cur.shape[0], -1)
            z = flat @ w.T + b
            cache.append((cur.shape, flat, z))
            cur = np.maximum(z, 0.0) if layer.activation == "relu" else z
        else:  # softmax
            cache.append(cur.shape)
            cur = _softmax(cur.reshape(cur.shape[0], -1))
    if cur.ndim == 2 and stop < len(layers):
        cur = cur.reshape(cur.shape[0], -1, 1, 1)
    return cur, cache


def _backward(spec: NetworkSpec, params, cache, dlogits, start=0):
    """Backprop from d(loss)/d(softmax logits) down to layer `start`, whose
    forward `cache` holds; returns per-layer grads, None below `start`."""
    grads = [None] * len(spec.layers)
    dcur = dlogits
    for idx in range(len(spec.layers) - 1, start - 1, -1):
        layer = spec.layers[idx]
        entry = cache[idx - start]
        if layer.kind == SOFTMAX:
            dcur = dcur.reshape(entry)
        elif layer.kind == FC:
            in_shape, flat, z = entry
            dz = dcur.reshape(z.shape)
            if layer.activation == "relu":
                dz = dz * (z > 0)
            w, _ = params[idx]
            grads[idx] = (dz.T @ flat, np.add.reduce(dz, axis=0))
            if idx > start:  # the range's input needs no gradient
                dcur = (dz @ w).reshape(in_shape)
        elif layer.kind == AVGPOOL:
            in_shape, win = entry, layer.window
            d = dcur / (win * win)
            dcur = np.empty_like(d, shape=in_shape)
            for i in range(win):
                for j in range(win):
                    dcur[:, :, i::win, j::win] = d
        else:  # conv
            in_shape, cols, z = entry
            dz = dcur.reshape(z.shape)
            if layer.activation == "relu":   # z is the ReLU's output
                np.multiply(dz, z > 0, out=dz)   # dcur is a temporary of this pass
            w, _ = params[idx]
            f, c, k, _ = w.shape
            b_, _, ho, wo = z.shape
            dz_rows = dz.transpose(0, 2, 3, 1).reshape(-1, f)
            dwb = cols @ dz_rows
            grads[idx] = (dwb[:-1].reshape(c, k, k, f).transpose(3, 0, 1, 2), dwb[-1])
            if idx > start:
                p = layer.padding
                dcols = (dz_rows @ w.reshape(f, -1)).reshape(b_, ho, wo, c, k, k)
                dx = _col2im(dcols, in_shape, k, layer.stride, p)
                dcur = dx[:, :, p:p + in_shape[2], p:p + in_shape[3]]
    return grads


def _as_batch(spec: NetworkSpec, x, dtype):
    x = np.asarray(x, dtype=dtype)
    ish = spec.input_shape
    if x.ndim == 3:
        x = x[None]
    if x.ndim != 4 or x.shape[1:] != (ish.channels, ish.height, ish.width):
        raise ShapeError(f"input shape {x.shape} does not match {ish}")
    return x


def _as_head_batch(spec: NetworkSpec, acts, dtype):
    acts = np.asarray(acts, dtype=dtype)
    if acts.ndim != 4 or acts.shape[1:] != spec.head_input:
        raise ShapeError(f"activations of shape {acts.shape} do not enter a head "
                         f"that takes {spec.head_input}")
    return acts


def forward(learner: WeakLearner, x) -> np.ndarray:
    """Class-probability vector(s) for one sample or a batch: the head of
    its trunk."""
    probs = head(learner, trunk(learner, x))
    return probs[0] if np.ndim(x) == 3 else probs


def trunk(learner: WeakLearner, x) -> np.ndarray:
    """The batch of activations entering the head (`NetworkSpec.head_start`)
    for one sample or a batch: what FC-only retraining never changes."""
    spec, params = learner.spec, learner.params
    x = _as_batch(spec, x, params_dtype(params))
    acts, _ = _forward_cache(spec, params, x, stop=spec.head_start)
    return acts


def head(learner: WeakLearner, acts) -> np.ndarray:
    """Class probabilities of a batch of `trunk` activations."""
    spec, params = learner.spec, learner.params
    acts = _as_head_batch(spec, acts, params_dtype(params))
    probs, _ = _forward_cache(spec, params, acts, start=spec.head_start)
    return probs.reshape(acts.shape[0], -1)


def _one_hot(y, class_count, dtype):
    y = np.asarray(y, dtype=int)
    oh = np.zeros((y.shape[0], class_count), dtype=dtype)
    oh[np.arange(y.shape[0]), y] = 1.0
    return oh


def _sample_weights(sample_weights, n, dtype, what="samples"):
    """One per-sample loss weight for each of n samples, positive and finite
    in `dtype` (a positive float64 weight can round to 0.0 or inf there)."""
    with np.errstate(over="ignore"):
        weights = np.asarray(sample_weights, dtype=np.float64).astype(dtype)
    if weights.shape != (n,):
        raise ShapeError(f"{weights.size} weights for {n} {what}")
    if not all(0.0 < v < math.inf for v in weights.tolist()):
        raise ShapeError(f"sample weights must be positive and finite in {weights.dtype}")
    return weights


def _probs_and_grads(spec, params, x, y_onehot, weights, start=0):
    """Probabilities of the batch entering layer `start`, and the gradients
    of the weighted mean cross-entropy down to that layer."""
    probs, cache = _forward_cache(spec, params, x, start)
    n = x.shape[0]
    probs = probs.reshape(n, -1)
    dlogits = weights[:, None] * (probs - y_onehot) / n
    return probs, _backward(spec, params, cache, dlogits, start)


def _loss(probs, y_onehot, weights) -> float:
    # in float64: a float32 floor of 1e-300 rounds to 0.0, and a true-class
    # probability that underflowed would give an infinite loss
    p_true = np.clip((probs * y_onehot).sum(axis=1, dtype=np.float64), 1e-300, None)
    return float(np.mean(weights * -np.log(p_true)))


def _loss_and_grads(spec, params, x, y_onehot, weights, start=0):
    probs, grads = _probs_and_grads(spec, params, x, y_onehot, weights, start)
    return _loss(probs, y_onehot, weights), grads, probs


def _sgd_step(params, grads, lr, layers):
    lr = float(lr)   # a numpy float64 would promote float32 parameters
    for idx in layers:
        g = grads[idx]
        if g is None:
            continue
        w, b = params[idx]
        params[idx] = (w - lr * g[0], b - lr * g[1])


def accuracy(probs, y) -> float:
    """Top-1 accuracy of a batch of class probabilities (argmax ties resolve
    to the lowest class index)."""
    return float(np.mean(probs.argmax(axis=1) == np.asarray(y)))


def evaluate(learner: WeakLearner, x, y) -> float:
    """Top-1 `accuracy` of the learner's forward pass over (x, y)."""
    return accuracy(forward(learner, x), y)


def train(learner: WeakLearner, dataset, sample_weights, epochs, learning_rate,
          seed, batch_size=32):
    """Weighted-loss SGD over the train split.

    Per-sample weights multiply each sample's cross-entropy before the batch
    mean. Returns (trained learner, per-epoch mean loss history); the learner
    is not evaluated, so its eval_accuracy is 0.0.
    """
    x, y = dataset.split("train")
    spec = learner.spec
    n = x.shape[0]
    dtype = params_dtype(learner.params)
    weights = _sample_weights(sample_weights, n, dtype, "train samples")
    # C-order copies, never the input learner's arrays: the GEMMs round by
    # their operands' layout, and a learner must train to the same bits
    # whatever its arrays' layout (`prune_step`'s channel slices are not
    # C-ordered)
    params = copy_params(learner.params)
    x = x.astype(dtype, copy=False)
    y_onehot = _one_hot(y, spec.class_count, dtype)
    rng = np.random.default_rng(seed)
    history = []
    # a diverging step overflows before its loss is checked: raise the error,
    # not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch_size):
                sel = order[start:start + batch_size]
                loss, grads, _ = _loss_and_grads(spec, params, x[sel], y_onehot[sel],
                                                 weights[sel])
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch, learner.id, "train")
                _sgd_step(params, grads, learning_rate, range(len(params)))
                total += loss * len(sel)
            history.append(total / n)
    return WeakLearner(spec=spec, params=params, macs=learner.macs,
                       eval_accuracy=0.0, id=learner.id), history


def train_fc_only(learner: WeakLearner, acts, batch_y, sample_weights,
                  learning_rate):
    """One weighted SGD step on fully-connected layers only, from the batch's
    `trunk` activations: forward and backward run over the head alone, and
    the step computes no loss.

    The batch needs one integer label in [0, class_count) and one positive,
    finite weight per sample. The trunk's parameters are untouched: the
    updated learner shares them, and the step gives each FC layer new arrays.
    Returns (updated learner, pre-update forward probabilities for the
    batch): the forward pass that feeds the update is the same one whose
    outputs are returned, so callers can reuse it as the inference result.
    """
    spec = learner.spec
    dtype = params_dtype(learner.params)
    acts = _as_head_batch(spec, acts, dtype)
    n = acts.shape[0]
    if n == 0:
        raise ShapeError("train_fc_only requires a non-empty batch")
    y = np.asarray(batch_y)
    if y.shape != (n,):
        raise ShapeError(f"{y.size} labels for a batch of {n}")
    if y.dtype.kind not in "iu":
        raise ShapeError(f"labels must be integers, got {y.dtype}")
    if not all(0 <= v < spec.class_count for v in y.tolist()):
        raise ShapeError(f"labels must be in [0, {spec.class_count})")
    weights = _sample_weights(sample_weights, n, dtype)
    return fc_step(learner, acts, _one_hot(y, spec.class_count, dtype), weights,
                   learning_rate)


def fc_step(learner: WeakLearner, acts, y_onehot, weights, learning_rate):
    """`train_fc_only`'s step without its checks, for a caller whose inputs
    already meet them: `acts` a non-empty batch that enters the head,
    `y_onehot` its (n, class_count) one-hot labels, of exact 0.0 and 1.0,
    and `weights` its n positive, finite sample weights, all three in the
    dtype of the learner's parameters (an operand of another dtype would
    promote the step).  Returns what `train_fc_only` returns."""
    spec = learner.spec
    probs, grads = _probs_and_grads(spec, learner.params, acts, y_onehot,
                                    weights, spec.head_start)
    params = list(learner.params)
    _sgd_step(params, grads, learning_rate, spec.fc_layers)
    out = WeakLearner(spec=spec, params=params, macs=learner.macs,
                      eval_accuracy=learner.eval_accuracy, id=learner.id)
    return out, probs


def gradient_check(spec: NetworkSpec, seed: int, step=1e-5, batch=2) -> float:
    """Max relative error between backprop and central finite differences.

    Intended for toy specs (< 10k parameters); everything in float64, the
    parameters cast up from `init_params`.
    """
    rng = np.random.default_rng(seed)
    params = [None if p is None else (p[0].astype(np.float64), p[1].astype(np.float64))
              for p in init_params(spec, rng)]
    ish = spec.input_shape
    x = rng.standard_normal((batch, ish.channels, ish.height, ish.width))
    y = rng.integers(0, spec.class_count, size=batch)
    weights = rng.uniform(0.5, 1.5, size=batch)
    y_onehot = _one_hot(y, spec.class_count, np.float64)

    _, grads = _probs_and_grads(spec, params, x, y_onehot, weights)
    analytic = flatten_params(grads)
    flat = flatten_params(params)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            probe = flat.copy()
            probe[i] += sign * step
            probs, _ = _forward_cache(spec, unflatten_params(spec, probe), x)
            loss = _loss(probs, y_onehot, weights)
            if slot == 0:
                hi = loss
            else:
                lo = loss
        numeric[i] = (hi - lo) / (2 * step)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
