"""A small trainable frame classifier with temporal max-pool subsampling.

Each hidden layer sees a sliding window of its input frames (zero padded at
the edges), applies an affine map and tanh; factor-2 max-pool stages between
layers realize the configured subsampling.  The output layer produces
row-normalized log-posteriors over the units plus blank.  Training minimizes
the lattice-marginal alignment loss by plain gradient descent with
newbob-style learning-rate decay; everything is float64 and, given a seed,
bitwise reproducible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Sequence

import numpy as np

from .ctc import batch_log_loss, logsumexp
from .errors import FormatError, NumericalError, float_rows, located, read_rows
from .lattice import CtcGraph, UttLattice, expand_lattices

log = logging.getLogger(__name__)

PARAMS_HEADER = "#adsm-params-v1"
CHUNK = 16    # utterances per batched encoder pass and frame-DP sweep


@dataclass
class TrainConfig:
    """Gradient-descent schedule; architecture lives in the params object."""

    learning_rate: float = 2.0
    decay: float = 0.7
    min_learning_rate: float = 1e-3
    epochs: int = 40
    batch_size: int = 0          # 0 = full batch
    clip: float = 50.0
    seed: int = 0
    holdout_fraction: float = 0.1

    def __post_init__(self):
        if self.learning_rate < 0 or self.min_learning_rate <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay factor must lie in (0, 1]")
        if self.epochs < 1 or self.clip <= 0:
            raise ValueError("epochs and clip must be positive")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout fraction must lie in [0, 1)")


@dataclass
class EncoderParams:
    """Weights of the context-window stack plus the output projection."""

    input_dim: int
    num_classes: int
    subsample_factor: int
    radii: tuple[int, ...]
    weights: list[np.ndarray]    # per hidden layer, ((2r+1)*D_in, H)
    biases: list[np.ndarray]
    out_w: np.ndarray            # (H_last, num_classes)
    out_b: np.ndarray

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two output classes")
        _pool_schedule(self.subsample_factor, len(self.weights))

    @property
    def pool_after(self) -> tuple[int, ...]:
        """The hidden layer after which each factor-2 pool stage runs."""
        return _pool_schedule(self.subsample_factor, len(self.weights))

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.weights)

    def arrays(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases, self.out_w, self.out_b]


def _pool_schedule(subsample_factor: int, n_layers: int) -> tuple[int, ...]:
    if subsample_factor < 1 or subsample_factor & (subsample_factor - 1):
        raise ValueError("subsample factor must be a power of two")
    stages = subsample_factor.bit_length() - 1
    return tuple(min(i, n_layers - 1) for i in range(stages))


def init_params(input_dim: int, hidden_sizes: Sequence[int], num_classes: int,
                subsample_factor: int = 1, radii: Sequence[int] | None = None,
                seed: int = 0) -> EncoderParams:
    """Fresh parameters with scaled-gaussian weights."""
    if not hidden_sizes:
        raise ValueError("need at least one hidden layer")
    radii = tuple(radii) if radii is not None else tuple(1 for _ in hidden_sizes)
    if len(radii) != len(hidden_sizes):
        raise ValueError("one context radius per hidden layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    d = input_dim
    for h, r in zip(hidden_sizes, radii):
        fan_in = (2 * r + 1) * d
        weights.append(rng.standard_normal((fan_in, h)) / np.sqrt(fan_in))
        biases.append(np.zeros(h))
        d = h
    out_w = rng.standard_normal((d, num_classes)) / np.sqrt(d)
    out_b = np.zeros(num_classes)
    return EncoderParams(input_dim, num_classes, subsample_factor, radii,
                         weights, biases, out_w, out_b)


def resize_output(params: EncoderParams, num_classes: int, subsample_factor: int,
                  seed: int = 0) -> EncoderParams:
    """Parameters for a changed class inventory and subsampling factor: the
    hidden layers are kept (copied), the pool stages redistributed over
    them, and only the output projection is renewed."""
    rng = np.random.default_rng(seed)
    d = params.hidden_sizes[-1]
    return replace(
        params,
        num_classes=num_classes,
        subsample_factor=subsample_factor,
        weights=[w.copy() for w in params.weights],
        biases=[b.copy() for b in params.biases],
        out_w=rng.standard_normal((d, num_classes)) / np.sqrt(d),
        out_b=np.zeros(num_classes),
    )


def _window(x: np.ndarray, r: int) -> np.ndarray:
    """(B, T, D) -> (B, T, (2r+1)*D) sliding context with zero edge padding."""
    if r == 0:
        return x
    B, T, D = x.shape
    xp = np.pad(x, ((0, 0), (r, r), (0, 0)))
    view = np.lib.stride_tricks.sliding_window_view(xp, 2 * r + 1, axis=1)
    return view.transpose(0, 1, 3, 2).reshape(B, T, (2 * r + 1) * D)


def _unwindow(dxw: np.ndarray, r: int, D: int) -> np.ndarray:
    if r == 0:
        return dxw
    B, T = dxw.shape[:2]
    parts = dxw.reshape(B, T, 2 * r + 1, D)
    dxp = np.zeros((B, T + 2 * r, D))
    for k in range(2 * r + 1):
        dxp[:, k : k + T] += parts[:, :, k]
    return dxp[:, r : r + T]


def _rows(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, x.shape[-1])


def _matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B, T, K) @ (K, H) as one 2-D product.  A lone row is doubled so that it
    takes BLAS's matrix path as in a batch, not the vector path (other bits)."""
    flat = _rows(x)
    out = (np.concatenate([flat, flat]) @ w)[:1] if len(flat) == 1 else flat @ w
    return out.reshape(*x.shape[:-1], w.shape[1])


def subsampled_length(T: int, factor: int) -> int:
    out = T
    for _ in range(factor.bit_length() - 1):
        out = (out + 1) // 2
    return out


def _pad(xs: Sequence[np.ndarray], params: EncoderParams):
    """Utterances as one zero-padded (B, T_max, D) batch, and their lengths."""
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    for x in xs:
        if x.ndim != 2 or x.shape[1] != params.input_dim:
            raise ValueError(f"expected (T, {params.input_dim}) features, got {x.shape}")
    lengths = np.array([len(x) for x in xs])
    if len(xs) == 1:
        return xs[0][None], lengths
    batch = np.zeros((len(xs), lengths.max(), params.input_dim))
    for row, x in zip(batch, xs):
        row[: len(x)] = x
    return batch, lengths


def _fill(h: np.ndarray, lengths: np.ndarray, value: float) -> np.ndarray:
    """``h`` (B, T, H) with each utterance's rows from its length on set to ``value``."""
    if lengths.min() == h.shape[1]:
        return h
    return np.where((np.arange(h.shape[1]) < lengths[:, None])[..., None], h, value)


def _forward(x: np.ndarray, lengths: np.ndarray, params: EncoderParams):
    """Log-posteriors (B, T', C) of a padded batch, their lengths, and the
    backward pass's cache.  Padded rows are 0 before each window and the
    output projection (each utterance sees its own zero edges), -inf before
    each pool; their log-posteriors are finite and meaningless."""
    stages = []
    h = x
    for i, (w, b, r) in enumerate(zip(params.weights, params.biases, params.radii)):
        xw = _window(h, r)
        h = _matmul(xw, w)
        np.tanh(np.add(h, b, out=h), out=h)
        stages.append(("layer", i, xw, h, lengths))
        for _ in range(params.pool_after.count(i)):
            h = _fill(h, lengths, -np.inf)
            T = h.shape[1]
            if T % 2:
                h = np.concatenate([h, np.full((len(h), 1, h.shape[2]), -np.inf)], axis=1)
            pair = h.reshape(len(h), -1, 2, h.shape[2])
            which = pair[:, :, 1] > pair[:, :, 0]     # (B, To, H): ties go to the first
            stages.append(("pool", T, which, None, None))
            h = np.maximum(pair[:, :, 0], pair[:, :, 1])
            lengths = (lengths + 1) // 2
        h = _fill(h, lengths, 0.0)
    logp = _matmul(h, params.out_w)
    logp += params.out_b
    logp -= logsumexp(logp, axis=2)
    if not np.isfinite(logp).all():
        raise NumericalError("encoder produced non-finite log-posteriors")
    return logp, lengths, (stages, h)


def encode_batch(xs: Sequence[np.ndarray],
                 params: EncoderParams) -> tuple[np.ndarray, np.ndarray]:
    """(B, T', C) log-posteriors and lengths of B utterances from one pass;
    each utterance's rows are bitwise its :func:`encode` matrix."""
    return _forward(*_pad(xs, params), params)[:2]


def encode(x: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Log-posterior matrix, ceil(T / subsample_factor) rows."""
    return encode_batch([x], params)[0][0]


def _backward(dscore: np.ndarray, params: EncoderParams, cache):
    """Gradients of sum-form loss w.r.t. every parameter array and nothing
    else, summed over the batch; ``dscore`` must be 0 on padded rows."""
    stages, h_last = cache
    n = len(params.weights)
    grads = [None] * (2 * n) + [_rows(h_last).T @ _rows(dscore), _rows(dscore).sum(axis=0)]
    dh = _matmul(dscore, params.out_w.T)
    for kind, a, b, c, lengths in reversed(stages):
        if kind == "pool":
            T, which = a, b
            dpair = np.stack([np.where(which, 0.0, dh), np.where(which, dh, 0.0)], axis=2)
            dh = dpair.reshape(len(dh), -1, dh.shape[2])[:, :T]
        else:
            i, xw, h = a, b, c
            dz = _rows(dh * (1.0 - h * h))
            grads[i], grads[n + i] = _rows(xw).T @ dz, dz.sum(axis=0)
            if i:
                dxw = _matmul(dz, params.weights[i].T).reshape(*xw.shape)
                dh = _fill(_unwindow(dxw, params.radii[i], params.hidden_sizes[i - 1]),
                           lengths, 0.0)     # the padding is a constant
    return grads


def _batch_step(items, params: EncoderParams, grads: bool = True):
    """Losses of (features, graph) pairs from one encoder pass and one DP
    sweep, and with ``grads`` their summed per-array gradients (else None)."""
    xs, graphs = zip(*items)
    logp, lengths, cache = _forward(*_pad(xs, params), params)
    losses, occ = batch_log_loss(graphs, logp, lengths, occupancy=grads)
    if not grads:
        return losses, None
    dscore = _fill(np.exp(logp) - occ, lengths, 0.0)
    return losses, _backward(dscore, params, cache)


def utterance_grads(x: np.ndarray, graph: CtcGraph, params: EncoderParams):
    """(loss, per-array gradients) for one utterance."""
    losses, grads = _batch_step([(x, graph)], params)
    return losses[0].item(), grads


@dataclass
class TrainResult:
    params: EncoderParams
    curve: list[tuple[float, float]]   # (train loss, holdout loss) per epoch
    skipped: int


def _as_graphs(items, vocab) -> list[CtcGraph]:
    """Each item as a graph; the lattices among them expand in one call."""
    for item in items:
        if not isinstance(item, (CtcGraph, UttLattice)):
            raise TypeError(f"expected UttLattice or CtcGraph, got {type(item)!r}")
    lattices = [item for item in items if isinstance(item, UttLattice)]
    if lattices and vocab is None:
        raise ValueError("expanding a lattice requires the vocabulary")
    expanded = iter(expand_lattices(lattices, vocab))
    return [next(expanded) if isinstance(item, UttLattice) else item for item in items]


def feasible_items(dataset, params: EncoderParams, vocab=None, graphs=None):
    """The utterances of (features, lattice-or-graph) pairs whose subsampled
    length can realize an accepted path, as (index, features, graph), and
    the number skipped.  ``graphs``, when given, holds each pair's graph."""
    if graphs is None:
        graphs = _as_graphs([lat for _, lat in dataset], vocab)
    items, skipped = [], 0
    for i, ((feats, _), graph) in enumerate(zip(dataset, graphs)):
        x = np.asarray(getattr(feats, "values", feats), dtype=np.float64)
        if subsampled_length(x.shape[0], params.subsample_factor) < graph.min_frames:
            skipped += 1
        else:
            items.append((i, x, graph))
    if not items:
        raise ValueError("every utterance is infeasible at this subsampling")
    if skipped:
        log.info("skipped %d infeasible utterances", skipped)
    return items, skipped


def train(dataset, params: EncoderParams, config: TrainConfig,
          vocab=None) -> TrainResult:
    """Fit the encoder to (features, lattice-or-graph) pairs.

    Utterances whose subsampled length cannot realize any accepted path are
    skipped and counted.  Returns the parameters of the best held-out epoch
    (training-loss epoch when the split is empty) and the loss curve.
    """
    items, skipped = feasible_items(list(dataset), params, vocab)
    items = [(x, graph) for _, x, graph in items]

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(items))
    # At least one utterance is left to train on.
    n_hold = min(int(round(config.holdout_fraction * len(items))), len(items) - 1)
    hold = [items[i] for i in order[:n_hold]]
    trainset = [items[i] for i in order[n_hold:]]
    # the holdout runs in chunks of similar length, its losses kept in holdout order
    by_length = sorted(range(n_hold), key=lambda k: len(hold[k][0]))
    hold_losses = np.empty(n_hold)

    arrays = params.arrays()
    lr = config.learning_rate
    best_loss = np.inf
    best_arrays = [a.copy() for a in arrays]
    curve: list[tuple[float, float]] = []

    for epoch in range(config.epochs):
        batch = config.batch_size or len(trainset)
        epoch_order = rng.permutation(len(trainset)) if config.batch_size else np.arange(len(trainset))
        losses = []
        for start in range(0, len(trainset), batch):
            idx = epoch_order[start : start + batch]
            grads = [np.zeros_like(a) for a in arrays]
            for lo in range(0, len(idx), CHUNK):
                loss, g = _batch_step([trainset[i] for i in idx[lo : lo + CHUNK]], params)
                losses.extend(loss)
                for acc, gi in zip(grads, g):
                    acc += gi
            scale = 1.0 / len(idx)
            norm = np.sqrt(sum(float((g * g).sum()) for g in grads)) * scale
            if norm > config.clip:
                scale *= config.clip / norm
            for a, g in zip(arrays, grads):
                a -= lr * scale * g
        train_loss = float(np.mean(losses))
        if not np.isfinite(train_loss):
            raise NumericalError(f"training diverged at epoch {epoch}")
        monitor = train_loss
        hold_loss = np.nan
        if hold:
            for lo in range(0, n_hold, CHUNK):
                chunk = by_length[lo : lo + CHUNK]
                hold_losses[chunk] = _batch_step([hold[k] for k in chunk], params, grads=False)[0]
            hold_loss = monitor = float(np.mean(hold_losses))
        curve.append((train_loss, hold_loss))
        if monitor < best_loss - 1e-12:
            best_loss = monitor
            best_arrays = [a.copy() for a in arrays]
        else:
            lr = max(lr * config.decay, config.min_learning_rate)
    for a, b in zip(arrays, best_arrays):
        a[...] = b
    return TrainResult(params, curve, skipped)


def save_params(params: EncoderParams, path) -> None:
    """Text checkpoint with an explicit shape header; exact float round-trip."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PARAMS_HEADER + "\n")
        fh.write(f"input_dim\t{params.input_dim}\n")
        fh.write(f"num_classes\t{params.num_classes}\n")
        fh.write(f"subsample_factor\t{params.subsample_factor}\n")
        fh.write(f"radii\t{' '.join(map(str, params.radii))}\n")
        fh.write(f"hidden\t{' '.join(map(str, params.hidden_sizes))}\n")
        for name, arr in _named_arrays(params):
            shape = " ".join(map(str, arr.shape))
            fh.write(f"array\t{name}\t{shape}\n")
            # the empty last item ends the last line, and writes nothing for an empty array
            fh.write("\n".join([*map(repr, arr.ravel().tolist()), ""]))


# A checkpoint's metadata keys: three integers, then one integer per hidden layer.
_PARAMS_META = ("input_dim", "num_classes", "subsample_factor", "radii", "hidden")


def load_params(path) -> EncoderParams:
    """Read a checkpoint.  The arrays hold the weights and each metadata line
    restates part of their shape, so the line that disagrees is named."""
    meta: dict[str, tuple[int, tuple[int, ...]]] = {}     # key: (line, values)
    arrays: dict[str, tuple[int, np.ndarray]] = {}        # name: (line, array)
    rows = read_rows(path, PARAMS_HEADER)
    for lineno, parts in rows:
        key = parts[0]
        if key != "array":
            with located(path, lineno, "bad checkpoint metadata"):
                if arrays or key not in _PARAMS_META or key in meta or len(parts) != 2:
                    raise ValueError(f"{key!r}: not an array header, nor a new key before them")
                values = tuple(int(v) for v in parts[1].split())
                if len(values) != 1 and key in _PARAMS_META[:3] or min(values, default=0) < 0:
                    raise ValueError(f"bad value {parts[1]!r} for {key}")
                if key == "subsample_factor":
                    _pool_schedule(values[0], 1)
                meta[key] = (lineno, values)
            continue
        with located(path, lineno, "bad array block"):
            if len(parts) != 3 or parts[1] in arrays:
                raise ValueError("expected array<TAB>name<TAB>shape with a new name")
            name, shape = parts[1], tuple(int(v) for v in parts[2].split())
            if len(shape) != (2 if "w" in name else 1) or min(shape) < 0:
                raise ValueError(f"bad shape {parts[2]!r} for {name}")
            block = list(islice(rows, math.prod(shape)))
            arrays[name] = (lineno, float_rows(path, block, 1, f"array {name}").reshape(shape))
    return _checked_params(path, meta, arrays)


def _checked_params(path, meta, arrays) -> EncoderParams:
    """Parameters from the read arrays, once each array header and metadata line agrees."""
    n = sum(name[0] == "w" and name[1:].isdigit() for name in arrays) or 1   # layers
    names = [f"{kind}{i}" for kind in "wb" for i in range(n)] + ["out_w", "out_b"]
    for name, (lineno, _) in arrays.items():
        if name not in names:
            raise FormatError(f"array {name} is not one of {n} layers", path=path, line=lineno)
    with located(path, what="checkpoint lacks"):
        (input_dim,), (classes,), (factor,), radii, hidden = (meta[k][1] for k in _PARAMS_META)
        weights, biases, (out_w, out_b) = ([arrays[name][1] for name in part] for part in
                                           (names[:n], names[n:2 * n], names[2 * n:]))
    widths = tuple(w.shape[1] for w in weights)
    rows = tuple(w.shape[0] for w in weights)
    want = tuple((2 * r + 1) * d for r, d in zip(radii, (input_dim,) + widths))
    claims = [      # (line at fault, holds, message)
        ("hidden", hidden == widths, f"hidden sizes {hidden}, weights {widths}"),
        ("radii", len(radii) == n, f"{len(radii)} radii for {n} layers"),
        ("num_classes", classes >= 2 and (classes,) == out_b.shape,
         f"{classes} classes: fewer than 2, or not the width of out_b"),
        ("input_dim" if want[:1] != rows[:1] else "radii", want == rows,
         f"input_dim and radii give {want} weight rows, not {rows}"),
        *((f"b{i}", b.shape == (h,), f"b{i} is not {h} wide")
          for i, (b, h) in enumerate(zip(biases, widths))),
        ("out_w", out_w.shape == (widths[-1], classes), "out_w is misshaped"),
    ]
    for key, holds, message in claims:
        if not holds:
            what = "bad checkpoint metadata: " if key in meta else ""
            raise FormatError(what + message, path=path, line=(meta.get(key) or arrays[key])[0])
    return EncoderParams(input_dim, classes, factor, radii, weights, biases, out_w, out_b)


def _named_arrays(params: EncoderParams):
    for i, w in enumerate(params.weights):
        yield f"w{i}", w
    for i, b in enumerate(params.biases):
        yield f"b{i}", b
    yield "out_w", params.out_w
    yield "out_b", params.out_b
