"""Exact dynamic programming over frame-transition graphs.

The training loss's forward-backward runs in linear space with per-block
scaling (Rabiner 1989): emissions are divided by their per-frame maximum,
forward rows are renormalised every frame, and the loss is the sum of the
logs of the normalisers and shifts.  A path whose partial mass falls below
about e^-708 of its utterance's at some frame is lost; an utterance whose
loss or occupancy comes out non-finite that way is recomputed in log space.
Viterbi, sampling and that fallback share one log-space frame loop over the
graph's padded neighbour tables; it differs only in its reduction
(log-sum-exp or max), so each DP step is a single vectorized gather and
reduction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InfeasibleUtteranceError, NumericalError
from .lattice import CtcGraph

PRIOR_FLOOR = 1e-10


def collapse(frame_labels: Sequence[int], blank: int) -> tuple[int, ...]:
    """Remove label loops, then blanks."""
    out = []
    prev = None
    for y in frame_labels:
        y = int(y)
        if y != prev and y != blank:
            out.append(y)
        prev = y
    return tuple(out)


@dataclass(frozen=True)
class Alignment:
    """A frame path with its collapsed unit sequence and frame spans."""

    frame_labels: tuple[int, ...]
    frame_states: tuple[int, ...]
    collapsed: tuple[int, ...]
    spans: tuple[tuple[int, int], ...]  # (first_frame, last_frame) per collapsed unit


def _check_posteriors(logp: np.ndarray) -> np.ndarray:
    logp = np.asarray(logp, dtype=np.float64)
    if logp.ndim != 2:
        raise ValueError("posterior matrix must be 2-D")
    if not np.all(np.isfinite(logp)):
        raise NumericalError("posterior matrix contains non-finite values")
    return logp


def _check_feasible(graph: CtcGraph, n_frames: int) -> None:
    if n_frames < graph.min_frames:
        raise InfeasibleUtteranceError(
            f"{n_frames} frames < minimal alignment length {graph.min_frames}")


def logsumexp(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """log(sum(exp(x))) along ``axis`` (kept as a length-1 axis), shifted by
    the maximum.  A slice that is all -inf gives -inf: its shift is 0, so no
    NaN and no floating-point warning arises."""
    m = x.max(axis=axis, keepdims=True)
    m[m == -np.inf] = 0.0
    s = np.exp(x - m).sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        return np.log(s) + m


def _max(x: np.ndarray) -> np.ndarray:
    return x.max(axis=0)


def _sweep(table: np.ndarray, first: np.ndarray, emit: np.ndarray, reduce) -> np.ndarray:
    """The log-space frame loop: row 0 is 0 on the ``first`` states,
    and row t reduces ``row[t-1] + emit[t-1]`` over each state's neighbours
    in ``table``.  With the predecessor table and ``logsumexp`` this is the
    forward pass without the current frame's score, with ``max`` the Viterbi
    pass; the successor table over reversed frames gives the backward pass."""
    rows = np.full(emit.shape, -np.inf)
    rows[0, first] = 0.0
    for t in range(1, len(rows)):
        rows[t, :-1] = reduce((rows[t - 1] + emit[t - 1])[table])
    return rows


def _block_table(tables: Sequence[np.ndarray], offsets: np.ndarray) -> np.ndarray:
    """Block-diagonal union of padded neighbour tables: graph b's states move
    to ``offsets[b]:offsets[b + 1]``, and every pad reads the shared sentinel.
    A single table is its own union."""
    if len(tables) == 1:
        return tables[0]
    offsets = np.asarray(offsets)
    S = offsets[-1]
    out = np.full((max(t.shape[0] for t in tables), S), S, dtype=np.intp)
    for t, lo, hi in zip(tables, offsets[:-1], offsets[1:]):
        out[: t.shape[0], lo:hi] = t
    sizes = np.diff(offsets)    # a graph's pads hold its own state count
    return np.where(out < np.repeat(sizes, sizes), out + np.repeat(offsets[:-1], sizes), S)


def _flip(rows: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Each column's frames 0..last reversed, -inf after them and in the
    sentinel slot: its own inverse on those frames."""
    src = last - np.arange(len(rows))[:, None]
    out = np.full(rows.shape, -np.inf)
    out[:, :-1] = np.where(src >= 0, np.take_along_axis(rows[:, :-1], np.maximum(src, 0), 0),
                           -np.inf)
    return out


def _stack(graphs: Sequence[CtcGraph], logp: np.ndarray, lengths: np.ndarray):
    """The graphs stacked block-diagonally: (offsets, owner block of each
    state, each state's last frame, and the (T, S + 1) emission scores, -inf
    in the sentinel's slot)."""
    for graph, n in zip(graphs, lengths):
        _check_feasible(graph, n)
    sizes = [g.n_states for g in graphs]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    owner = np.repeat(np.arange(len(graphs)), sizes)
    labels = np.concatenate([g.labels for g in graphs])
    emit = np.full((logp.shape[1], offsets[-1] + 1), -np.inf)
    emit[:, :-1] = logp[owner, :, labels].T
    return offsets, owner, lengths[owner] - 1, emit


def _occupancy(gamma: np.ndarray, graphs: Sequence[CtcGraph], owner: np.ndarray,
               shape: tuple[int, int, int]) -> np.ndarray:
    """(B, T, C) class occupancy from the (T, S) state occupancy: each
    (utterance, class, frame) cell sums its states in state order."""
    B, T, C = shape
    key = owner * C + np.concatenate([g.labels for g in graphs])
    cells = key * T + np.arange(T)[:, None]
    occ = np.bincount(cells.ravel(), weights=gamma.ravel(), minlength=B * C * T)
    return occ.reshape(B, C, T).transpose(0, 2, 1)


def _log_space_loss(graphs: Sequence[CtcGraph], logp: np.ndarray, lengths: np.ndarray,
                    occupancy: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`batch_log_loss` with every quantity in log space: the
    fallback for blocks whose scaled sweep underflows.  The backward pass
    runs over each utterance's own reversed frames."""
    offsets, owner, last, emit = _stack(graphs, logp, lengths)
    first = np.concatenate([g.initial + o for g, o in zip(graphs, offsets)])
    alpha = _sweep(_block_table([g.pred for g in graphs], offsets), first, emit, logsumexp) + emit
    totals = np.array([logsumexp(alpha[n - 1, g.final + o]).item()
                       for g, n, o in zip(graphs, lengths, offsets)])
    if not np.all(np.isfinite(totals)):
        raise NumericalError("all accepted paths carry zero probability")
    if not occupancy:
        return -totals, None
    final = np.concatenate([g.final + o for g, o in zip(graphs, offsets)])
    beta = _flip(_sweep(_block_table([g.succ for g in graphs], offsets), final,
                        _flip(emit, last), logsumexp), last)
    gamma = np.exp(alpha[:, :-1] + beta[:, :-1] - totals[owner])   # (T, S) state occupancy
    return -totals, _occupancy(gamma, graphs, owner, logp.shape)


def batch_log_loss(graphs: Sequence[CtcGraph], logp: np.ndarray, lengths: Sequence[int],
                   occupancy: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`log_loss` of B utterances in one forward (and backward) sweep
    over their graphs stacked block-diagonally.  ``logp`` is (B, T, C), its
    rows from ``lengths[b]`` on finite padding.  Returns the B losses and the
    (B, T, C) occupancy, 0 on padded rows.

    The sweeps run in linear space with per-block scaling (Rabiner 1989):
    each block's emissions are divided by their largest value in the frame,
    its forward row is renormalised to sum 1 every frame, and the backward
    pass divides by the same normalisers.  Every sum, maximum and normaliser
    stays within one block, so each value is bitwise that of a separate
    call.  A path whose partial mass falls below about e^-708 of its block's
    at some frame is lost; a block whose loss or occupancy comes out
    non-finite that way is recomputed in log space."""
    B = logp.shape[0]
    lengths = np.asarray(lengths)
    offsets, owner, last, emit = _stack(graphs, logp, lengths)
    starts = offsets[:-1]
    final = np.concatenate([g.final + o for g, o in zip(graphs, offsets)])
    with np.errstate(all="ignore"):     # underflow shows as a non-finite result
        scale = np.maximum.reduceat(emit[:, :-1], starts, axis=1)       # (T, B)
        e = np.zeros(emit.shape)        # the sentinel's slot stays 0
        e[:, :-1] = np.exp(emit[:, :-1] - scale[:, owner])
        alpha, norm = _scaled_forward(graphs, offsets, owner, e)
        fin = np.bincount(owner[final], alpha[last[final], final], B)
        totals = (np.cumsum(np.log(norm) + scale, axis=0)[lengths - 1, np.arange(B)]
                  + np.log(fin))
        ok = np.isfinite(totals)
        occ = None
        if occupancy:
            beta = _scaled_backward(graphs, offsets, lengths, e, norm[:, owner])
            gamma = alpha[:, :-1] * beta[:, :-1] / fin[owner]      # (T, S) state occupancy
            ok &= np.logical_and.reduceat(np.isfinite(gamma).all(axis=0), starts)
            occ = _occupancy(gamma, graphs, owner, logp.shape)
    losses = -totals
    if not ok.all():
        bad = np.flatnonzero(~ok)
        losses[bad], redone = _log_space_loss([graphs[b] for b in bad], logp[bad],
                                              lengths[bad], occupancy)
        if occupancy:
            occ[bad] = redone
    return losses, occ


def _scaled_forward(graphs: Sequence[CtcGraph], offsets: np.ndarray, owner: np.ndarray,
                    e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (T, S + 1) forward pass over scaled emissions ``e``, each block's
    row renormalised to sum 1, and the (T, B) normalisers."""
    T, B = len(e), len(graphs)
    table = _block_table([g.pred for g in graphs], offsets)
    alpha = np.zeros(e.shape)           # the sentinel's slot stays 0
    norm = np.empty((T, B))
    first = np.concatenate([g.initial + o for g, o in zip(graphs, offsets)])
    v = np.zeros(offsets[-1])
    v[first] = e[0, first]
    for t in range(T):
        if t:
            v = alpha[t - 1][table].sum(0) * e[t, :-1]
        norm[t] = np.add.reduceat(v, offsets[:-1])
        alpha[t, :-1] = v / norm[t][owner]
    return alpha, norm


def _scaled_backward(graphs: Sequence[CtcGraph], offsets: np.ndarray, lengths: np.ndarray,
                     e: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """The (T, S + 1) backward pass over scaled emissions ``e``, divided by
    the forward pass's per-state normalisers ``norm``.  It runs in natural
    frame order, each block's final states set to 1 at its own last frame,
    so no frame reversal is needed.  A block's rows after that frame are 0,
    or NaN should its forward pass die out in the padding."""
    starting: dict[int, list[np.ndarray]] = {}
    for g, o, n in zip(graphs, offsets, lengths):
        starting.setdefault(int(n) - 1, []).append(g.final + o)
    table = _block_table([g.succ for g in graphs], offsets)
    beta = np.zeros(e.shape)            # the sentinel's slot stays 0
    for t in range(len(e) - 1, -1, -1):
        if t < len(e) - 1:
            beta[t, :-1] = (beta[t + 1] * e[t + 1])[table].sum(0) / norm[t + 1]
        if t in starting:
            beta[t, np.concatenate(starting[t])] = 1.0
    return beta


def log_loss(graph: CtcGraph, logp: np.ndarray,
             occupancy: bool = True) -> tuple[float, np.ndarray | None]:
    """Marginal negative log-likelihood over all accepted frame paths, plus
    the per-frame class occupancy table (None with ``occupancy=False``,
    which runs the forward pass only).

    The occupancy is the loss gradient's moving part: with ``P = exp(logp)``
    the derivative w.r.t. the pre-softmax score at (t, c) is ``P[t, c] -
    occ[t, c]``.
    """
    logp = _check_posteriors(logp)
    losses, occ = batch_log_loss([graph], logp[None], [logp.shape[0]], occupancy)
    return losses[0].item(), None if occ is None else occ[0]


def _trace(graphs: Sequence[CtcGraph], scores: Sequence[np.ndarray], reduce,
           pick) -> list[Alignment]:
    """Sweep forward with ``reduce`` over the graphs stacked block-diagonally,
    each block's emissions taken from its own (T_b, C) ``scores`` and -inf
    after them, then walk all B paths back together, each from its own last
    frame.  ``pick`` maps a (k, B) array of candidate scores to one row index
    per column: first a final state, then, once per frame, each path's
    earlier state among the predecessors of its later one."""
    lengths = [len(s) for s in scores]
    for graph, n in zip(graphs, lengths):
        _check_feasible(graph, n)
    B, T = len(graphs), max(lengths)
    offsets = [0, *itertools.accumulate(g.n_states for g in graphs)]
    emit = np.full((T, offsets[-1] + 1), -np.inf)      # with the sentinel's slot
    finals = np.full((max(len(g.final) for g in graphs), B), offsets[-1])
    for b, (graph, s, lo, hi) in enumerate(zip(graphs, scores, offsets, offsets[1:])):
        emit[: len(s), lo:hi] = s[:, graph.labels]
        finals[: len(graph.final), b] = graph.final + lo
    table = _block_table([g.pred for g in graphs], offsets)
    first = np.concatenate([g.initial + o for g, o in zip(graphs, offsets)])
    score = _sweep(table, first, emit, reduce)
    score += emit
    last, cols = np.subtract(lengths, 1), np.arange(B)
    ends = score[last, finals]
    if (ends.max(0) == -np.inf).any():
        raise InfeasibleUtteranceError("no accepted path of this length")
    path = np.empty((T, B), dtype=np.intp)      # path[k, b]: state at frame last[b] - k
    path[0] = cur = finals[pick(ends), cols]
    for k in range(1, T):
        # A path already at its frame 0 reads a wrapped-around row; as every
        # state is its own predecessor, each list starts with a real state,
        # so it still picks real states, which are never read.
        preds = table[:, cur]
        path[k] = cur = preds[pick(score[last - k, preds]), cols]
    return [_alignment_from_states(graph, path[n - 1 :: -1, b] - lo)
            for b, (graph, n, lo) in enumerate(zip(graphs, lengths, offsets))]


def _alignment_from_states(graph: CtcGraph, states: np.ndarray) -> Alignment:
    labels = graph.labels[states].tolist()
    states = states.tolist()
    collapsed = []
    spans = []
    prev = None
    for t, (s, y) in enumerate(zip(states, labels)):
        if y != graph.blank:
            if s != prev:
                collapsed.append(y)
                spans.append([t, t])
            else:
                spans[-1][1] = t
        prev = s
    return Alignment(tuple(labels), tuple(states), tuple(collapsed),
                     tuple((a, b) for a, b in spans))


def _first_max(x: np.ndarray) -> np.ndarray:
    """Row of each column's maximum; ties go to the first row."""
    return x.argmax(axis=0)


def batch_viterbi(graphs: Sequence[CtcGraph], posteriors: Sequence[np.ndarray],
                  prior: np.ndarray | None = None,
                  prior_scale: float = 0.0) -> list[Alignment]:
    """:func:`viterbi` of B utterances in one max sweep over their graphs
    stacked block-diagonally and one backtrace of all B paths.  Each
    ``posteriors[b]`` is that utterance's own unpadded (T_b, C) matrix; every
    path is state for state that of a separate call."""
    posteriors = [_check_posteriors(logp) for logp in posteriors]
    if not 0.0 <= prior_scale <= 1.0:
        raise ValueError("prior scale must lie in [0, 1]")
    if prior_scale > 0.0:
        if prior is None:
            raise ValueError("prior_scale > 0 requires a prior")
        prior = np.asarray(prior, dtype=np.float64)
        if any(prior.shape != (logp.shape[1],) for logp in posteriors):
            raise ValueError("prior shape does not match class count")
        shift = prior_scale * np.log(np.maximum(prior, PRIOR_FLOOR))
        posteriors = [logp - shift for logp in posteriors]
    return _trace(graphs, posteriors, _max, _first_max)


def viterbi(graph: CtcGraph, logp: np.ndarray, prior: np.ndarray | None = None,
            prior_scale: float = 0.0) -> Alignment:
    """Best accepted frame path under prior-divided posteriors.

    Maximizes sum_t ( logp[t, y_t] - prior_scale * log q[y_t] ); the prior is
    floored at 1e-10 before the division so unseen classes stay finite.  Ties
    resolve to the smallest predecessor state id, making alignments
    bit-reproducible.  The B = 1 call of :func:`batch_viterbi`.
    """
    return batch_viterbi([graph], [logp], prior, prior_scale)[0]


def estimate_prior(posteriors: Iterable[np.ndarray], num_classes: int) -> np.ndarray:
    """Arithmetic mean of the posterior rows over every frame of the stream,
    renormalized to sum exactly to one."""
    total = np.zeros(num_classes)
    frames = 0
    for logp in posteriors:
        logp = _check_posteriors(logp)
        if logp.shape[1] != num_classes:
            raise ValueError("class count mismatch in posterior stream")
        total += np.exp(logp).sum(axis=0)
        frames += logp.shape[0]
    if frames == 0:
        raise ValueError("empty posterior stream")
    q = total / frames
    return q / q.sum()


def sample_path(graph: CtcGraph, logp: np.ndarray, temperature: float = 1.0,
                rng: np.random.Generator | int | None = None) -> Alignment:
    """Draw an accepted frame path with probability proportional to the path
    posterior raised to 1/temperature, by forward filtering and backward
    sampling.  Deterministic for a given seed."""
    logp = _check_posteriors(logp)
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    return _trace([graph], [logp / temperature], logsumexp,
                  lambda logw: [_draw(logw[:, 0], rng)])[0]


def _draw(logw: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with weight exp(logw); -inf entries are never drawn."""
    w = np.exp(logw - logw.max()).cumsum()
    return int(w.searchsorted(rng.random() * w[-1], side="right"))
