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

Memory layout. Callers see (b, c, h, w) batches; between layers the engine
keeps them batch-last, (c, h, w, b), and an FC or softmax output as
(units, b). A conv's patch matrix is (c*k*k + 1, ho*wo*b), its last row all
ones: `[W | b] @ cols` gives the (f, ho, wo, b) output with the bias added,
and `dz @ cols.T` the weight gradient with the bias gradient as its last
column. An FC layer reads `x.reshape(-1, b)`. ReLUs run in place, and
backward masks on their output, which is > 0 exactly where their input was.
Weights keep their (f, c, k, k) and (units, in) order.

Patch gathers. A conv fills its patch rows with one strided copy from a
zero-padded buffer it owns, in runs of wo*b values at stride 1. Its input
gradient is a transposed conv through the same gather: the output gradient
spread into zeros at the conv's stride, gathered with the kernel at stride
1, times the flipped kernel, for every stride and padding.
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
    """A spec, its parameters, eval accuracy and id; `macs` derives from the spec."""
    spec: NetworkSpec
    params: list
    eval_accuracy: float
    id: str

    @property
    def macs(self) -> int:
        return count_macs(self.spec)

    @classmethod
    def initialize(cls, spec: NetworkSpec, seed: int, learner_id: str) -> "WeakLearner":
        rng = np.random.default_rng(seed)
        return cls(spec=spec, params=init_params(spec, rng), eval_accuracy=0.0, id=learner_id)

    def copy(self) -> "WeakLearner":
        return WeakLearner(spec=self.spec, params=copy_params(self.params),
                           eval_accuracy=self.eval_accuracy, id=self.id)

    def checksum(self) -> str:
        return params_checksum(self.params)


# ---------------------------------------------------------------------------
# forward / backward


def _patches(src, k, s, bias_row):
    """Patch matrix (c*k*k [+ 1], ho*wo*b) of a batch-last buffer src
    (c, hp, wp, b) that holds its own zero padding: row (c, i, j) holds
    channel c at kernel offset (i, j) for every output pixel, batch
    innermost, and with `bias_row` a last row of ones, the bias's operand.
    Returns (cols, ho, wo)."""
    c, hp, wp, b = src.shape
    ho, wo = (hp - k) // s + 1, (wp - k) // s + 1
    cols = np.empty((c * k * k + bias_row, ho * wo * b), dtype=src.dtype)
    if bias_row:
        cols[-1] = 1.0
    # row (c, i, j) at output pixel (y, x) is src[c, s*y + i, s*x + j]: one
    # strided view of src (not `as_strided`: after about 10,000 of those
    # views numpy kept a 0.94 MB block alive)
    sz = src.itemsize
    cols[:c * k * k].reshape(c, k, k, ho, wo, b)[...] = np.ndarray(
        (c, k, k, ho, wo, b), src.dtype, buffer=src,
        strides=(hp * wp * b * sz, wp * b * sz, b * sz, s * wp * b * sz, s * b * sz, sz))
    return cols, ho, wo


def _im2col(x, k, s, p):
    """`_patches`, with its row of ones, of a (c, h, w, b) batch padded by p."""
    c, h, w, b = x.shape
    src = np.zeros((c, h + 2 * p, w + 2 * p, b), dtype=x.dtype)
    src[:, p:p + h, p:p + w] = x
    return _patches(src, k, s, True)


def _conv_dx(dz, w, in_shape, s, p):
    """A conv's input gradient (c, h, w, b) from dz (f, ho, wo, b): dz spread
    into zeros, output o at s*o + k-1-p, gathered at stride 1, times the
    kernel flipped in (i, j) with its (f, c) axes swapped."""
    f, c, k, _ = w.shape
    _, h, wd, b = in_shape
    e = k - 1 - p
    # outputs below lo, and from hy or hx on, saw only padding
    lo = max(0, -(e // s))
    hy, hx = min(dz.shape[1], (h - 1 + p) // s + 1), min(dz.shape[2], (wd - 1 + p) // s + 1)
    src = np.zeros((f, h + k - 1, wd + k - 1, b), dtype=dz.dtype)
    src[:, s * lo + e:s * hy + e:s, s * lo + e:s * hx + e:s] = dz[:, lo:hy, lo:hx]
    wt = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    return (wt @ _patches(src, k, 1, False)[0]).reshape(in_shape)


def _avgpool(x, win):
    """Mean over win x win windows of a (c, h, w, b) batch: the sum of the
    window's strided terms, then one divide (numpy's window `mean` is slower)."""
    terms = (x[:, i::win, j::win] for i in range(win) for j in range(win))
    return functools.reduce(np.add, terms) / (win * win)


def _softmax(z):
    # the ufunc reductions `z.max` and `e.sum` make, without the Python-level
    # method wrappers: the same bits, for less at batch 1
    e = z - np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def _layer(layer: LayerSpec, param, cur):
    """One layer's forward pass on a batch-last batch: (its output, what
    backward reads of it)."""
    kind = layer.kind
    if cur.ndim == 2 and kind in (CONV, AVGPOOL):
        cur = cur.reshape(cur.shape[0], 1, 1, -1)
    if kind == AVGPOOL:
        return _avgpool(cur, layer.window), cur.shape
    if kind == SOFTMAX:
        return _softmax(cur.reshape(-1, cur.shape[-1]).T).T, cur.shape
    w, b = param
    if kind == CONV:
        cols, ho, wo = _im2col(cur, layer.kernel, layer.stride, layer.padding)
        wb = np.concatenate((w.reshape(w.shape[0], -1), b[:, None]), axis=1)
        z = (wb @ cols).reshape(w.shape[0], ho, wo, -1)
    else:  # fc
        cols = cur.reshape(-1, cur.shape[-1])
        z = w @ cols + b[:, None]
    if layer.activation == "relu":
        np.maximum(z, 0.0, out=z)   # backward masks on the output: > 0 where z was
    return z, (cur.shape, cols, z)


def _batch_first(cur, inside):
    """A range's batch-last output as (b, c, h, w), or an FC or softmax one as
    (b, units), or (b, units, 1, 1) `inside` the network."""
    if cur.ndim == 4:
        return cur.transpose(3, 0, 1, 2)
    return cur.T.reshape(cur.shape[1], -1, 1, 1) if inside else cur.T


def _forward_cache(spec: NetworkSpec, params, x, start=0, stop=None):
    """Run layers [start, stop) on a (b, c, h, w) batch entering layer
    `start`, recording what backward needs; returns the batch leaving layer
    stop - 1 as `_batch_first` shapes it."""
    stop = len(spec.layers) if stop is None else stop
    cur, cache = x.transpose(1, 2, 3, 0), []
    for idx in range(start, stop):
        cur, saved = _layer(spec.layers[idx], params[idx], cur)
        cache.append(saved)
    return _batch_first(cur, stop < len(spec.layers)), cache


def _forward(spec: NetworkSpec, params, x, start=0, stop=None):
    """`_forward_cache`'s output without a cache: inference frees each
    layer's patch matrix once its GEMM is done."""
    stop = len(spec.layers) if stop is None else stop
    cur = x.transpose(1, 2, 3, 0)
    for idx in range(start, stop):
        cur = _layer(spec.layers[idx], params[idx], cur)[0]
    return _batch_first(cur, stop < len(spec.layers))


def _backward(spec: NetworkSpec, params, cache, dlogits, start=0):
    """Backprop from (b, classes) d(loss)/d(softmax logits) down to layer
    `start`, whose forward `cache` holds; returns per-layer grads, None below."""
    grads = [None] * len(spec.layers)
    dcur = dlogits.T
    for idx in range(len(spec.layers) - 1, start - 1, -1):
        layer = spec.layers[idx]
        entry = cache[idx - start]
        if layer.kind == SOFTMAX:
            dcur = dcur.reshape(entry)
            continue
        if layer.kind == AVGPOOL:
            c, h, w, b = entry
            win = layer.window
            dx = np.empty(entry, dtype=dcur.dtype)
            # each input pixel takes its window's gradient / win^2, in one pass
            np.divide(dcur.reshape(c, h // win, 1, w // win, 1, b), win * win,
                      out=dx.reshape(c, h // win, win, w // win, win, b))
            dcur = dx
            continue
        in_shape, cols, z = entry
        dz = dcur.reshape(z.shape)
        if layer.activation == "relu":   # z is the ReLU's output
            np.multiply(dz, z > 0, out=dz)   # dcur is a temporary of this pass
        w, _ = params[idx]
        rows = dz.reshape(w.shape[0], -1)
        if layer.kind == FC:
            grads[idx] = (rows @ cols.T, np.add.reduce(rows, axis=1))
            if idx > start:  # the range's input needs no gradient
                dcur = (w.T @ rows).reshape(in_shape)
        else:  # conv: the patch matrix's row of ones gives the bias gradient
            dwb = rows @ cols.T
            grads[idx] = (dwb[:, :-1].reshape(w.shape), dwb[:, -1])
            if idx > start:
                dcur = _conv_dx(dz, w, in_shape, layer.stride, layer.padding)
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
    return _forward(spec, params, x, stop=spec.head_start)


def head(learner: WeakLearner, acts) -> np.ndarray:
    """Class probabilities of a batch of `trunk` activations."""
    spec, params = learner.spec, learner.params
    acts = _as_head_batch(spec, acts, params_dtype(params))
    probs = _forward(spec, params, acts, start=spec.head_start)
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
    return WeakLearner(spec=spec, params=params, eval_accuracy=0.0, id=learner.id), history


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
    out = WeakLearner(spec=spec, params=params,
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
        probe = np.zeros_like(flat)
        probe[i] = step
        hi, lo = (_loss(_forward(spec, unflatten_params(spec, flat + d), x), y_onehot, weights)
                  for d in (probe, -probe))
        numeric[i] = (hi - lo) / (2 * step)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
