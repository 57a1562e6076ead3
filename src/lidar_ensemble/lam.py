"""The learned aggregation model: a small scoring network trained end to end
through the label-refinement weighted average.

Architecture: input standardization, three dense layers (32/64/128 by
default) each followed by batch normalization and ReLU, and a scalar head.
Gradients are derived analytically for this fixed architecture; training
uses Adam under a cross-entropy + Lovasz-Softmax objective, with the
softmax-weighted neighbor average differentiated exactly (all scores of a
neighborhood are coupled).
"""

from __future__ import annotations

import copy
import csv
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import phi_layout
from .errors import FileFormatError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
HIDDEN_SIZES = (32, 64, 128)
PROB_FLOOR = 1e-12
VAR_FLOOR = 1e-8
CHECKPOINT_MAGIC = b"LAMW"
CHECKPOINT_VERSION = 1

HISTOGRAM_SLICES = ("temporal", "sensor_distance", "center_distance")


class LamTrainingError(RuntimeError):
    """Raised when training produces a non-finite loss."""


@dataclass
class DenseBnLayer:
    """One hidden block: bias-free dense layer plus batch-norm affine/state."""

    weight: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    run_mean: np.ndarray
    run_var: np.ndarray


@dataclass
class LamParams:
    """Full parameter set of the aggregation model."""

    std_mean: np.ndarray
    std_var: np.ndarray
    layers: list
    head_weight: np.ndarray
    head_bias: float

    def __post_init__(self):
        if np.any(self.std_var <= 0):
            raise ValueError("standardization variances must be positive")
        for i, layer in enumerate(self.layers):
            if np.any(layer.run_var <= 0):
                raise ValueError(f"layer {i} running variance must be positive")

    @property
    def feature_dim(self) -> int:
        return len(self.std_mean)

    def copy(self) -> "LamParams":
        return copy.deepcopy(self)

    def named_parameters(self):
        """Trainable tensors in checkpoint order (running/standardization
        stats excluded); head.bias comes as a one-element copy."""
        return [(name, np.atleast_1d(tensor)) for name, tensor in _named_tensors(self)
                if name.rpartition(".")[2] not in _STATISTICS]


def initialize_lam_params(feature_dim: int, hidden_sizes=HIDDEN_SIZES, seed: int = 0) -> LamParams:
    """Fresh parameters: uniform(+-1/sqrt(fan_in)) weights, identity norms."""
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = feature_dim
    for size in hidden_sizes:
        bound = 1.0 / np.sqrt(fan_in)
        layers.append(DenseBnLayer(
            weight=rng.uniform(-bound, bound, size=(size, fan_in)),
            gamma=np.ones(size),
            beta=np.zeros(size),
            run_mean=np.zeros(size),
            run_var=np.ones(size),
        ))
        fan_in = size
    bound = 1.0 / np.sqrt(fan_in)
    return LamParams(
        std_mean=np.zeros(feature_dim),
        std_var=np.ones(feature_dim),
        layers=layers,
        head_weight=rng.uniform(-bound, bound, size=fan_in),
        head_bias=0.0,
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

# Rows per block of the elementwise passes, and per lam_forward call of
# eval_scores: a block of the widest default layer (512 x 128 float64,
# 512 KB) stays in L2 cache between its steps.
_ROW_BLOCK = 512


class _Workspace:
    """Named scratch arrays for the LAM step, reused from call to call.

    Each name is a 1-D buffer of one dtype that grows to the largest
    rows * cols asked of it; a caller gets a C-contiguous (rows, cols) view
    of its start, so arrays of any width can take turns in one name.
    Whatever a view held is overwritten by the next call that takes the
    same name.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, rows: int, cols: int, dtype=np.float64) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or len(buf) < rows * cols:
            buf = np.empty(rows * cols, dtype=dtype)
            self._buffers[name] = buf
        return buf[:rows * cols].reshape(rows, cols)


class _ColumnSum:
    """Column sums of an (R, C) array fed one row block at a time.

    numpy reduces a C-ordered array over axis 0 one row after another, so
    reducing [running total; next block] block after block adds the rows in
    the same order as .sum(axis=0) over all rows and gives the same bits.
    A single column is contiguous along the reduction, which numpy sums
    pairwise instead; _block_rows then makes the whole array one block.
    Sums sharing a scratch buffer must each fill and add a block before the
    next one fills.
    """

    def __init__(self, scratch: np.ndarray):
        self._scratch = scratch
        self.total = np.zeros(scratch.shape[1])
        self._first = True

    def rows(self, n: int) -> np.ndarray:
        """Where the caller writes the next block's n rows."""
        return self._scratch[1:n + 1]

    def add(self, n: int) -> None:
        if self._first:
            np.sum(self._scratch[1:n + 1], axis=0, out=self.total)
            self._first = False
        else:
            self._scratch[0] = self.total
            np.sum(self._scratch[:n + 1], axis=0, out=self.total)


def _block_rows(rows: int, width: int) -> int:
    return max(1, rows if width == 1 else min(rows, _ROW_BLOCK))


def _blocks(rows: int, block: int):
    for lo in range(0, rows, block):
        yield lo, min(lo + block, rows)


def _affine_relu(xhat: np.ndarray, layer: DenseBnLayer, out: np.ndarray) -> None:
    """out = max(xhat * gamma + beta, 0), a layer's activation from its
    normalized pre-activation; out may be xhat."""
    np.multiply(xhat, layer.gamma, out=out)
    np.add(out, layer.beta, out=out)
    np.maximum(out, 0.0, out=out)


def lam_forward(params: LamParams, feats: np.ndarray, train: bool = False,
                workspace: _Workspace | None = None):
    """Score a batch of feature vectors.

    Returns (scores (R,), cache). With train, batch statistics normalize
    each layer and the running statistics advance with momentum 0.1; the
    cache lives in workspace, when one is given, until its next use, and
    lam_backward consumes it. It holds what the backward cannot rebuild:
    the standardized input x0, each layer's normalized pre-activation
    xhat and inverse deviation ivar, and the last layer's activation
    a_last. Every activation is written into one workspace buffer of
    rows x the widest layer, since each is dead once the next layer's
    matmul has read it. Otherwise the running statistics normalize
    and params is not written, so the scores are a pure function of params
    and feats, and no activation is kept: two workspace buffers take turns
    as a layer's input and output, each output is normalized and rectified
    where its matmul wrote it, and the cache returned is None.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != params.feature_dim:
        raise ValueError(f"expected (R, {params.feature_dim}) features, got {feats.shape}")
    if not np.isfinite(feats).all():
        raise ValueError("feature batch contains non-finite values")

    ws = _Workspace() if workspace is None else workspace
    rows = len(feats)
    act = ws.take("x0" if train else "turn0", rows, params.feature_dim)
    np.subtract(feats, params.std_mean, out=act)
    np.divide(act, np.sqrt(params.std_var), out=act)
    x0, layers = act, []
    if train:  # sized for the widest layer at once, so no take of "act" below grows it
        ws.take("act", rows, max((len(layer.weight) for layer in params.layers), default=0))
    for i, layer in enumerate(params.layers):
        width = len(layer.weight)
        block = _block_rows(rows, width)
        # z, centred in place, becomes xhat
        z = ws.take(f"xhat{i}" if train else f"turn{(i + 1) % 2}", rows, width)
        np.matmul(act, layer.weight.T, out=z)
        if train:
            mean = z.mean(axis=0)
            sq_sum = _ColumnSum(ws.take("sum", block + 1, width))
            for lo, hi in _blocks(rows, block):
                zc = z[lo:hi]
                np.subtract(zc, mean, out=zc)
                np.multiply(zc, zc, out=sq_sum.rows(hi - lo))
                sq_sum.add(hi - lo)
            var = sq_sum.total / rows
            run_var_update = var * rows / (rows - 1) if rows > 1 else var
            layer.run_mean += BN_MOMENTUM * (mean - layer.run_mean)
            layer.run_var += BN_MOMENTUM * (run_var_update - layer.run_var)
        else:
            mean = layer.run_mean
            var = layer.run_var
        ivar = 1.0 / np.sqrt(var + BN_EPS)
        # the input activation is dead once the matmul has read it
        next_act = ws.take("act", rows, width) if train else z
        for lo, hi in _blocks(rows, block):
            xhat = z[lo:hi]
            if not train:
                np.subtract(xhat, mean, out=xhat)
            np.multiply(xhat, ivar, out=xhat)
            _affine_relu(xhat, layer, next_act[lo:hi])
        if train:
            layers.append({"xhat": z, "ivar": ivar})
        act = next_act
    scores = act @ params.head_weight + params.head_bias
    if not train:
        return scores, None
    return scores, {"x0": x0, "layers": layers, "a_last": act}


def eval_scores(params: LamParams, rows: int, fill) -> np.ndarray:
    """The scores of lam_forward without train of rows feature rows that
    fill(lo, hi, out) writes into out (hi - lo, D) a chunk at a time, so
    they are never held whole.

    Running statistics make the rows independent, so the rows are scored
    in blocks of _ROW_BLOCK rows through one workspace; large monolithic
    batches thrash memory. Zero rows give zero scores.
    """
    ws = _Workspace()
    scores = np.empty(rows)
    for lo, hi in _blocks(rows, _ROW_BLOCK):
        chunk = ws.take("feats", hi - lo, params.feature_dim)
        fill(lo, hi, chunk)
        scores[lo:hi] = lam_forward(params, chunk, workspace=ws)[0]
    return scores


def lam_backward(params: LamParams, cache: dict, dscores: np.ndarray,
                 workspace: _Workspace | None = None) -> dict:
    """Gradients of a scalar objective w.r.t. every trainable tensor,
    given its gradient w.r.t. the scores, for a cache of a train forward
    (batch statistics).

    The cache is consumed: the gradients are written over arrays that
    are dead by then. The top layer's gradient overwrites a_last, a block
    at a time after the block's ReLU mask is read. Layer i's weight
    gradient needs the activation of layer i - 1, which the cache does not
    keep: it is rebuilt from that layer's xhat with the forward's own
    multiply, add and maximum, so it has the forward's bits, into layer
    i's xhat once layer i's dz is formed, and layer i - 1's gradient goes
    beside it. Where the two do not fit in that xhat (twice the fan-in
    wider than the layer) both take workspace buffers. The rebuilt
    activation also gives layer i - 1 its ReLU mask. All layers share one
    column-sum scratch and one mask buffer."""
    ws = _Workspace() if workspace is None else workspace
    grads = {}
    d_act = act = cache["a_last"]
    grads["head.weight"] = act.T @ dscores
    grads["head.bias"] = np.atleast_1d(dscores.sum())
    rows = len(dscores)
    last = len(params.layers) - 1
    for i in reversed(range(len(params.layers))):
        layer = params.layers[i]
        xhat, ivar = cache["layers"][i]["xhat"], cache["layers"][i]["ivar"]
        width = xhat.shape[1]
        block = _block_rows(rows, width)
        scratch = ws.take("sum", block + 1, width)
        # the ReLU mask: act = max(y, 0) is positive exactly where y is,
        # NaN included
        mask = ws.take("mask", block, width, dtype=bool)
        beta_sum, gamma_sum, dxhat_sum, dxhat_x_sum = (_ColumnSum(scratch) for _ in range(4))
        # d_act becomes dy, then dxhat, then dz in place
        for lo, hi in _blocks(rows, block):
            n, d, x = hi - lo, d_act[lo:hi], xhat[lo:hi]
            np.greater(act[lo:hi], 0.0, out=mask[:n])
            if i == last:  # the head's np.outer(dscores, head_weight), a block at a time
                np.multiply(dscores[lo:hi, None], params.head_weight, out=d)
            np.multiply(d, mask[:n], out=d)
            np.copyto(beta_sum.rows(n), d)
            beta_sum.add(n)
            np.multiply(d, x, out=gamma_sum.rows(n))
            gamma_sum.add(n)
            np.multiply(d, layer.gamma, out=d)
            np.copyto(dxhat_sum.rows(n), d)
            dxhat_sum.add(n)
            np.multiply(d, x, out=dxhat_x_sum.rows(n))
            dxhat_x_sum.add(n)
        grads[f"layer{i}.gamma"] = gamma_sum.total
        grads[f"layer{i}.beta"] = beta_sum.total
        # dz = (ivar / rows) * (rows * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
        coef = ivar / rows
        for lo, hi in _blocks(rows, block):
            d, tmp = d_act[lo:hi], scratch[1:hi - lo + 1]
            np.multiply(d, rows, out=d)
            np.subtract(d, dxhat_sum.total, out=d)
            np.multiply(xhat[lo:hi], dxhat_x_sum.total, out=tmp)
            np.subtract(d, tmp, out=d)
            np.multiply(d, coef, out=d)
        if i == 0:  # the input gradient of layer 0 has no reader
            grads["layer0.weight"] = d_act.T @ cache["x0"]
            break
        fan_in = layer.weight.shape[1]
        if 2 * fan_in <= width:  # the first 2 * rows * fan_in values of the C-contiguous xhat
            flat = xhat.reshape(-1)
            a_prev = flat[:rows * fan_in].reshape(rows, fan_in)
            d_prev = flat[rows * fan_in:2 * rows * fan_in].reshape(rows, fan_in)
        else:  # layer i + 1's activation is dead once the mask is read; its
            # gradient, d_act, is not: the gradient's name alternates, so the
            # matmul below never writes over its own input
            a_prev = ws.take("a_prev", rows, fan_in)
            d_prev = ws.take(f"d_prev{i % 2}", rows, fan_in)
        prev, prev_xhat = params.layers[i - 1], cache["layers"][i - 1]["xhat"]
        for lo, hi in _blocks(rows, _block_rows(rows, fan_in)):
            _affine_relu(prev_xhat[lo:hi], prev, a_prev[lo:hi])
        grads[f"layer{i}.weight"] = d_act.T @ a_prev
        np.matmul(d_act, layer.weight, out=d_prev)
        d_act, act = d_prev, a_prev
    return grads


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _lovasz_extension_grad(fg_sorted: np.ndarray) -> np.ndarray:
    """Gradient of the Jaccard-loss Lovasz extension for one sorted class."""
    gts = fg_sorted.sum()
    intersection = gts - np.cumsum(fg_sorted)
    union = gts + np.cumsum(1.0 - fg_sorted)
    jaccard = 1.0 - intersection / union
    jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def _lovasz_softmax_with_grad(probs: np.ndarray, truth: np.ndarray):
    present = np.flatnonzero(np.bincount(truth))
    if len(probs) == 0:
        raise ValueError("lovasz_softmax requires at least one point")
    total = 0.0
    grad = np.zeros_like(probs)
    for c in present:
        fg = (truth == c).astype(np.float64)
        errors = np.where(fg > 0, 1.0 - probs[:, c], probs[:, c])
        perm = np.argsort(-errors, kind="stable")
        ext_grad = _lovasz_extension_grad(fg[perm])
        total += float(errors[perm] @ ext_grad)
        de = np.empty(len(errors))
        de[perm] = ext_grad
        grad[:, c] += np.where(fg > 0, -de, de)
    n = len(present)
    return total / n, grad / n


def _cross_entropy_with_grad(probs: np.ndarray, truth: np.ndarray):
    n = len(truth)
    p_true = probs[np.arange(n), truth]
    clamped = np.maximum(p_true, PROB_FLOOR)
    loss = float(-np.log(clamped).mean())
    grad = np.zeros_like(probs)
    grad[np.arange(n), truth] = np.where(p_true > PROB_FLOOR, -1.0 / (clamped * n), 0.0)
    return loss, grad


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Adam training hyperparameters; its decays and eps are ADAM_*."""

    learning_rate: float = 1e-3
    epochs: int = 25
    batch: int = 256
    ce_weight: float = 1.0
    lovasz_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.ce_weight < 0:
            raise ValueError("ce_weight must be >= 0")
        if self.lovasz_weight < 0:
            raise ValueError("lovasz_weight must be >= 0")
        if self.ce_weight == 0 and self.lovasz_weight == 0:
            raise ValueError("ce_weight and lovasz_weight must not both be 0")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_ce: float
    mean_lovasz: float
    total: float


@dataclass
class LamTrainingSet:
    """Per-neighborhood training instances, as references into the points
    of a labeled sequence (its scans' points, one frame after another).

    Sequence point j has its within-frame pseudo-label row probs[j] (P x
    K), its range to its own sensor sensor_distance[j] and its frame index
    frame[j]. Neighborhood i is query point query[i], with ground-truth
    class labels[i] in [0, K), and its pairs offsets[i]:offsets[i + 1]:
    pair r joins the query to point neighbor[r] at center distance
    distance[r]. The pairs' feature rows (phi_layout, D = 2K + 3) are not
    held: phi_rows builds them on demand, with the temporal offset
    frame[neighbor] - frame[query] over window. Empty neighborhoods are
    not representable: drop them when building the set.
    """

    offsets: np.ndarray
    neighbor: np.ndarray
    distance: np.ndarray
    query: np.ndarray
    labels: np.ndarray
    probs: np.ndarray
    sensor_distance: np.ndarray
    frame: np.ndarray
    window: int

    def __post_init__(self):
        for name, dtype in (("offsets", np.int64), ("neighbor", np.int64), ("distance", np.float64),
                            ("query", np.int64), ("labels", np.int64), ("probs", np.float64),
                            ("sensor_distance", np.float64), ("frame", np.int64)):
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not (len(self.offsets) == len(self.query) + 1 == len(self.labels) + 1
                and self.offsets[0] == 0 and self.offsets[-1] == len(self.neighbor) == len(self.distance)):
            raise ValueError("offsets, pair references, queries, and labels must align")
        points = len(self.probs)
        if self.probs.ndim != 2 or not len(self.sensor_distance) == len(self.frame) == points:
            raise ValueError("probs, sensor_distance, and frame need one entry per sequence point")
        if (np.diff(self.offsets) < 1).any():
            raise ValueError("every training neighborhood needs at least one neighbor")
        for name in ("neighbor", "query"):
            refs = getattr(self, name)
            if len(refs) and (refs.min() < 0 or refs.max() >= points):
                raise ValueError(f"{name} indices must refer to the {points} sequence points")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

    @property
    def feature_dim(self) -> int:
        return phi_layout.feature_dim(self.num_classes)

    def phi_rows(self, pairs, queries: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the feature rows of the given pairs (indices or a slice)
        into out, (R, D); queries holds each pair's neighborhood. Returns
        out."""
        neighbor = self.neighbor[pairs]
        query = self.query[queries]
        temporal = phi_layout.temporal_feature(self.frame[neighbor] - self.frame[query], self.window)
        # take gathers rows several times faster than fancy indexing
        return phi_layout.write_rows(out, self.distance[pairs], self.probs.take(query, axis=0),
                                     self.probs.take(neighbor, axis=0), temporal,
                                     self.sensor_distance[neighbor])

    def phi_moments(self) -> RowMoments:
        """The RowMoments of the set's (R, D) feature rows, which are built
        a block at a time; the set must hold at least one pair."""
        def fill(lo, hi, out):
            pairs = np.arange(lo, hi)
            self.phi_rows(pairs, np.searchsorted(self.offsets, pairs, side="right") - 1, out)

        return column_moments(fill, len(self.neighbor), self.feature_dim)


def column_moments(fill, rows: int, width: int) -> RowMoments:
    """RowMoments(rows, mean, var) with the bits of np.mean(a, axis=0) and
    np.var(a, axis=0) for an (rows, width) array a, rows >= 1 and width >=
    2, that is never held whole: fill(lo, hi, out) writes a's rows lo:hi
    into out, at most _ROW_BLOCK rows at a time. numpy takes both as column sums
    in row order (_ColumnSum), divided by rows: of a, then of the squared
    deviations from the mean, so each is one pass of fill calls."""
    block = min(_ROW_BLOCK, rows)
    scratch = np.empty((block + 1, width))
    total = _ColumnSum(scratch)
    for lo, hi in _blocks(rows, block):
        fill(lo, hi, total.rows(hi - lo))
        total.add(hi - lo)
    mean = total.total / rows
    squares = _ColumnSum(scratch)
    for lo, hi in _blocks(rows, block):
        dev = squares.rows(hi - lo)
        fill(lo, hi, dev)
        np.subtract(dev, mean, out=dev)
        np.multiply(dev, dev, out=dev)
        squares.add(hi - lo)
    return RowMoments(rows, mean, squares.total / rows)


def segment_sum(rows: np.ndarray, row_query: np.ndarray, n: int) -> np.ndarray:
    """Sums of the rows (R,) or (R, C) that share a query, for n queries,
    each added in row order. Every per-query sum of the package, in both
    ensembles and in LAM training, goes through here."""
    if rows.ndim == 1:
        return np.bincount(row_query, weights=rows, minlength=n)
    out = np.empty((n, rows.shape[1]))
    for c in range(rows.shape[1]):
        out[:, c] = np.bincount(row_query, weights=rows[:, c], minlength=n)
    return out


def segment_exp(scores: np.ndarray, row_query: np.ndarray, n: int):
    """(e, z): every row's exp(score), shifted by the largest score of its
    query so it cannot overflow, and the per-query sums z of e. A query
    without rows has z = 0."""
    shift = np.full(n, -np.inf)
    np.maximum.at(shift, row_query, scores)
    e = np.exp(scores - shift[row_query])
    return e, segment_sum(e, row_query, n)


def segment_softmax(scores: np.ndarray, row_query: np.ndarray, n: int) -> np.ndarray:
    """Normalized weight of every row: softmax of the scores of the rows
    that share its query, for n queries."""
    e, z = segment_exp(scores, row_query, n)
    return e / z[row_query]


def _softmax_refine(scores: np.ndarray, row_query: np.ndarray, probs: np.ndarray, n: int):
    w = segment_softmax(scores, row_query, n)
    return w, segment_sum(w[:, None] * probs, row_query, n)


def training_loss_and_grads(params: LamParams, phis: np.ndarray, row_query: np.ndarray,
                            probs: np.ndarray, labels: np.ndarray,
                            ce_weight: float = 1.0, lovasz_weight: float = 1.0,
                            workspace: _Workspace | None = None):
    """Loss and analytic parameter gradients for one batch of neighborhoods,
    through a train forward (batch statistics, running statistics advanced).

    probs (R, K) holds the neighbor pseudo-label row of each phi row.
    The refinement weights are the softmax of the scores within each
    neighborhood, so every neighbor's score receives gradient through the
    normalizer. Returns (total, ce, lovasz, grads).
    """
    n = len(labels)
    scores, cache = lam_forward(params, phis, train=True, workspace=workspace)
    weights, refined = _softmax_refine(scores, row_query, probs, n)
    ce, g_ce = _cross_entropy_with_grad(refined, labels)
    lov, g_lov = _lovasz_softmax_with_grad(refined, labels)
    g_refined = ce_weight * g_ce + lovasz_weight * g_lov
    per_query = np.einsum("qk,qk->q", refined, g_refined)
    per_row = np.einsum("rk,rk->r", probs, g_refined[row_query])
    dscores = weights * (per_row - per_query[row_query])
    grads = lam_backward(params, cache, dscores, workspace=workspace)
    total = ce_weight * ce + lovasz_weight * lov
    return total, ce, lov, grads


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class _Adam:
    def __init__(self, names, lr):
        self.lr = lr
        self.step_count = 0
        self.m = {name: None for name in names}
        self.v = {name: None for name in names}

    def step(self, params: LamParams, grads: dict) -> None:
        self.step_count += 1
        t = self.step_count
        tensors = dict(params.named_parameters())
        for name in self.m:
            g = grads[name]
            if self.m[name] is None:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * g * g
            mhat = self.m[name] / (1 - ADAM_BETA1 ** t)
            vhat = self.v[name] / (1 - ADAM_BETA2 ** t)
            update = self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            if name == "head.bias":
                params.head_bias = float(params.head_bias - update[0])
            else:
                tensors[name] -= update


def train_lam(data: LamTrainingSet, config: TrainConfig):
    """Train the aggregation model on precomputed source neighborhoods.

    Fresh parameters are initialized from config.seed and standardization
    statistics fit to the training features. Each batch's feature rows are
    built into a reused workspace buffer.
    Returns (params, per-epoch EpochStats list).
    """
    if len(data) == 0:
        raise ValueError("training set is empty")
    params = modulate_statistics(initialize_lam_params(data.feature_dim, seed=config.seed),
                                 [data.phi_moments()])
    rng = np.random.default_rng(config.seed)
    adam = _Adam([name for name, _ in params.named_parameters()], config.learning_rate)
    sizes = np.diff(data.offsets)
    label_columns = phi_layout.neighbor_label_columns(data.num_classes)
    ws = _Workspace()
    trace = []
    global_step = 0
    for epoch in range(config.epochs):
        perm = rng.permutation(len(data))
        ce_sum = lov_sum = 0.0
        seen = 0
        for start in range(0, len(perm), config.batch):
            sel = perm[start:start + config.batch]
            # the batch's neighborhoods one after another, each in pair order
            row_query = np.repeat(np.arange(len(sel)), sizes[sel])
            first = np.cumsum(sizes[sel]) - sizes[sel]
            pairs = np.arange(len(row_query)) + (data.offsets[sel] - first)[row_query]
            phis = data.phi_rows(pairs, sel[row_query], ws.take("phis", len(pairs), data.feature_dim))
            total, ce, lov, grads = training_loss_and_grads(
                params, phis, row_query, phis[:, label_columns], data.labels[sel],
                config.ce_weight, config.lovasz_weight, workspace=ws,
            )
            if not np.isfinite(total):
                raise LamTrainingError(f"non-finite loss at step {global_step}")
            adam.step(params, grads)
            ce_sum += ce * len(sel)
            lov_sum += lov * len(sel)
            seen += len(sel)
            global_step += 1
        mean_ce, mean_lov = ce_sum / seen, lov_sum / seen
        trace.append(EpochStats(epoch, mean_ce, mean_lov,
                                config.ce_weight * mean_ce + config.lovasz_weight * mean_lov))
    return params, trace


# ---------------------------------------------------------------------------
# Target-domain statistics modulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowMoments:
    """A chunk of feature rows given by its row count (at least one) and
    the bits of np.mean and np.var over axis 0 of its rows, which need not
    be held (column_moments)."""

    rows: int
    mean: np.ndarray
    var: np.ndarray


def modulate_statistics(params: LamParams, stream) -> LamParams:
    """Replace the standardization statistics with the stream's mean/variance.

    stream is an iterable of RowMoments, one per chunk of the feature rows,
    read one chunk at a time; every other parameter is untouched. Features
    with variance below 1e-8 are floored there, with a warning naming the
    columns.
    """
    # each chunk is merged in with the weights a = count / new_count and
    # b = rows / new_count; the first chunk has a = 0 and b = 1, so one
    # chunk gives exactly its own mean and var
    count, mean, var = 0, 0.0, 0.0
    for chunk in stream:
        if not isinstance(chunk, RowMoments):
            raise TypeError(f"modulate_statistics streams RowMoments, not {type(chunk).__name__}")
        new_count = count + chunk.rows
        a, b = count / new_count, chunk.rows / new_count
        delta = chunk.mean - mean
        mean = mean + delta * b
        var = var * a + chunk.var * b + delta * (delta * (a * b))
        count = new_count
    if count == 0:
        raise ValueError("statistics stream is empty")
    floored = var < VAR_FLOOR
    if floored.any():
        warnings.warn(
            f"variance floored at {VAR_FLOOR} for feature columns {np.flatnonzero(floored).tolist()}",
            RuntimeWarning,
            stacklevel=2,
        )
        var = np.where(floored, VAR_FLOOR, var)
    out = params.copy()
    out.std_mean = mean
    out.std_var = var
    return out


# ---------------------------------------------------------------------------
# Weight-distribution analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HistogramSlice:
    edges: np.ndarray
    counts: np.ndarray
    mean_weight: np.ndarray


# pairs per histogram block: np.histogram sums its weights one block of
# this many values at a time, in sorted order, so streaming the same blocks
# keeps its bits; every buffer of weight_histograms has this length
_HISTOGRAM_BLOCK = 1 << 16


def offset_dtype(window: int):
    """The smallest signed integer type that holds every offset in
    [-window, window]."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= window)


@dataclass(frozen=True)
class PairRecord:
    """What the weight histograms read of one scan's valid (query,
    neighbor) pairs, in pair order, as references into the points of the
    sequence: each pair's normalized aggregation weight and center
    distance (float64), its neighbor's sequence point index (uint32) and
    the neighbor's frame minus the query's (offset_dtype of the window),
    21 bytes per pair at windows up to 127."""

    weights: np.ndarray
    center_distance: np.ndarray
    neighbor: np.ndarray
    temporal_offset: np.ndarray

    def feature(self, name: str, sensor_distance: np.ndarray, window: int, start: int,
                out: np.ndarray) -> np.ndarray:
        """Write the values of histogram slice name (one of
        HISTOGRAM_SLICES) of pairs start:start + len(out) into out
        (float64) with the bits of their phi column, for a sequence whose
        points lie sensor_distance from their sensors and that was searched
        with this window; returns out."""
        end = start + len(out)
        if name == "temporal":
            phi_layout.temporal_feature(self.temporal_offset[start:end], window, out=out)
        elif name == "sensor_distance":
            np.take(sensor_distance, self.neighbor[start:end], out=out)
        else:
            out[:] = self.center_distance[start:end]
        return out


def _pair_blocks(records):
    """The records' pairs, in record order, as consecutive blocks of
    _HISTOGRAM_BLOCK pairs (the last one shorter) that may cross record
    boundaries; each block is a list of (record, start, end) pieces."""
    block, filled = [], 0
    for r in records:
        start = 0
        while start < len(r.weights):
            end = min(len(r.weights), start + _HISTOGRAM_BLOCK - filled)
            block.append((r, start, end))
            filled += end - start
            start = end
            if filled == _HISTOGRAM_BLOCK:
                yield block
                block, filled = [], 0
    if block:
        yield block


def weight_histograms(records, sensor_distance: np.ndarray, window: int, bins: int = 20) -> dict:
    """Distribution of normalized aggregation weights over feature slices,
    pooled across the records (one PairRecord per scan, in frame order) of
    a sequence whose points lie sensor_distance from their sensors and that
    was searched with this window: {slice name: HistogramSlice}. Each
    slice bins every pair by one feature, so per-slice counts sum to the
    number of pairs.

    The pairs are read in np.histogram's own blocks, and each block is
    sorted once for its counts and its weight sums, with np.histogram's
    cumulative arithmetic: edges, counts and mean weights have the bits of
    np.histogram over the pooled values. Beside the records it holds only
    buffers of _HISTOGRAM_BLOCK elements."""
    if not any(len(r.weights) for r in records):
        raise ValueError("no neighbor pairs to analyze")
    values_buf, weights_buf = np.empty(_HISTOGRAM_BLOCK), np.empty(_HISTOGRAM_BLOCK)

    def block_values(name, block):
        """The block's values of slice name, a view of values_buf."""
        n = 0
        for r, start, end in block:
            r.feature(name, sensor_distance, window, start, values_buf[n:n + end - start])
            n += end - start
        return values_buf[:n]

    report = {}
    for name in HISTOGRAM_SLICES:
        lo, hi = np.inf, -np.inf
        for block in _pair_blocks(records):
            values = block_values(name, block)
            lo, hi = min(lo, values.min()), max(hi, values.max())
        edges = np.histogram_bin_edges(np.array([lo, hi]), bins=bins)
        cum_counts = np.zeros(len(edges), np.intp)
        cum_weights = np.zeros(len(edges))
        for block in _pair_blocks(records):
            values = block_values(name, block)
            weights = np.concatenate([r.weights[start:end] for r, start, end in block],
                                     out=weights_buf[:len(values)])
            order = np.argsort(values)
            ranked = values[order]
            # np.histogram's inclusive search: the last bin holds its right edge
            at = np.concatenate((ranked.searchsorted(edges[:-1], "left"),
                                 ranked.searchsorted(edges[-1:], "right")))
            cum_counts += at
            cum_weights += np.concatenate(([0.0], weights[order].cumsum()))[at]
        counts, weight_sum = np.diff(cum_counts), np.diff(cum_weights)
        mean_weight = np.divide(weight_sum, counts, out=np.zeros(len(counts)), where=counts > 0)
        report[name] = HistogramSlice(edges=edges, counts=counts, mean_weight=mean_weight)
    return report


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# the tensors of _named_tensors that training does not update
_STATISTICS = ("std_mean", "std_var", "run_mean", "run_var")
# each hidden layer's tensors, in record order
_LAYER_TENSORS = ("weight", "gamma", "beta", "run_mean", "run_var")


def _named_tensors(params: LamParams):
    """Every tensor, in the checkpoint's record order."""
    out = [("std_mean", params.std_mean), ("std_var", params.std_var)]
    for i, layer in enumerate(params.layers):
        out += [(f"layer{i}.{attr}", getattr(layer, attr)) for attr in _LAYER_TENSORS]
    out += [("head.weight", params.head_weight), ("head.bias", np.float64(params.head_bias))]
    return out


def save_lam_params(params: LamParams, path) -> None:
    """Versioned binary checkpoint; see README for the exact layout."""
    d = params.feature_dim
    k = phi_layout.num_classes_of(d)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<III", CHECKPOINT_VERSION, d, k))
        for name, tensor in _named_tensors(params):
            raw = name.encode()
            arr = np.asarray(tensor, dtype=np.float64)
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.astype("<f8").tobytes())


def load_lam_params(path) -> LamParams:
    """Read a checkpoint written by save_lam_params, with any number of
    hidden layers. Every tensor's shape must agree with the header's D and
    the width of the layer before it; a malformed, repeated, unknown,
    missing, misshapen or non-finite tensor raises FileFormatError naming
    a byte offset (for a missing one, where the records end)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FileFormatError(f"{path}: bad magic at byte offset 0")
    if len(blob) < 16:
        raise FileFormatError(f"{path}: truncated header, the file ends at byte offset {len(blob)}")
    version, d, k = struct.unpack_from("<III", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FileFormatError(f"{path}: unsupported checkpoint version {version} at byte offset 4")
    if phi_layout.feature_dim(k) != d:
        raise FileFormatError(f"{path}: inconsistent D={d}, K={k} at byte offset 8")
    tensors = {}
    record_offset = {}
    data_offset = {}
    off = 16
    while off < len(blob):
        start = off
        try:
            (name_len,) = struct.unpack_from("<I", blob, off)
            off += 4
            name = blob[off:off + name_len].decode()
            off += name_len
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            dims = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            count = math.prod(dims)
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(dims).copy()
        except (struct.error, ValueError, OverflowError) as exc:
            raise FileFormatError(
                f"{path}: malformed tensor record at byte offset {min(off, len(blob))}") from exc
        if name in tensors:
            raise FileFormatError(f"{path}: repeated tensor '{name}' in the record at byte offset {start}")
        tensors[name], record_offset[name], data_offset[name] = arr, start, off
        off += 8 * count

    def tensor(name: str, shape: tuple, positive: bool = False) -> np.ndarray:
        if name not in tensors:
            raise FileFormatError(
                f"{path}: checkpoint missing tensor '{name}'; its records end at byte offset {len(blob)}")
        arr = tensors[name]
        if arr.shape != shape:
            raise FileFormatError(
                f"{path}: tensor '{name}' has shape {arr.shape}, expected {shape}, "
                f"in the record at byte offset {record_offset[name]}")
        if positive and not (arr > 0).all():
            raise FileFormatError(
                f"{path}: tensor '{name}' holds a variance that is not positive, "
                f"in the record at byte offset {record_offset[name]}")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise FileFormatError(
                f"{path}: tensor '{name}' holds a non-finite value at byte offset "
                f"{data_offset[name] + 8 * bad[0]}")
        return arr

    num_layers = 0
    while any(name.startswith(f"layer{num_layers}.") for name in tensors):
        num_layers += 1
    known = {"std_mean", "std_var", "head.weight", "head.bias",
             *(f"layer{i}.{attr}" for i in range(num_layers) for attr in _LAYER_TENSORS)}
    unknown = sorted(tensors.keys() - known, key=record_offset.get)
    if unknown:
        raise FileFormatError(
            f"{path}: unknown tensor '{unknown[0]}' in the record at byte offset {record_offset[unknown[0]]}")
    layers = []
    fan_in = d
    for i in range(num_layers):
        weight = tensors.get(f"layer{i}.weight")
        width = weight.shape[0] if weight is not None and weight.ndim == 2 else 0
        layers.append(DenseBnLayer(
            weight=tensor(f"layer{i}.weight", (width, fan_in)),
            gamma=tensor(f"layer{i}.gamma", (width,)),
            beta=tensor(f"layer{i}.beta", (width,)),
            run_mean=tensor(f"layer{i}.run_mean", (width,)),
            run_var=tensor(f"layer{i}.run_var", (width,), positive=True),
        ))
        fan_in = width
    return LamParams(
        std_mean=tensor("std_mean", (d,)),
        std_var=tensor("std_var", (d,), positive=True),
        layers=layers,
        head_weight=tensor("head.weight", (fan_in,)),
        head_bias=float(tensor("head.bias", ())),
    )


def write_loss_trace_csv(trace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_ce", "mean_lovasz", "total"])
        for rec in trace:
            writer.writerow([rec.epoch, repr(rec.mean_ce), repr(rec.mean_lovasz), repr(rec.total)])


def write_histogram_csv(report: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slice", "bin_left", "bin_right", "count", "normalized_weight_mean"])
        for name, hs in report.items():
            for b in range(len(hs.counts)):
                writer.writerow([name, repr(float(hs.edges[b])), repr(float(hs.edges[b + 1])),
                                 int(hs.counts[b]), repr(float(hs.mean_weight[b]))])
