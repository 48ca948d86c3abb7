"""Exact dynamic programming over frame-transition graphs.

Every DP stacks its B graphs block-diagonally, one block per utterance, and
steps through the frames over the blocks' padded predecessor tables, so each
step is a single vectorized gather and reduction; the backward pass inverts
the stacked predecessor table into the successor table it gathers through.
The training loss's forward-backward runs in linear space with per-block
scaling (Rabiner 1989): emissions are divided by their per-frame maximum,
forward rows are renormalised every frame, and the loss is the sum of the
logs of the normalisers and shifts.  A path whose partial mass falls below
about e^-708 of its utterance's at some frame is lost; an utterance whose
loss or occupancy comes out non-finite that way is recomputed in log space.
Both spaces share one backward loop, which runs in natural frame order and
starts each block at its own last frame; no frames are reversed.  Viterbi,
sampling and the log-space forward share one frame loop that differs only in
its reduction (log-sum-exp or max).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleUtteranceError, NumericalError
from .lattice import CtcGraph, _neighbour_tables

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


def logsumexp(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """log(sum(exp(x))) along ``axis`` (kept as a length-1 axis), shifted by
    the maximum.  A slice that is all -inf gives -inf: its shift is 0, so no
    NaN arises.  Terms far below the maximum are meant to underflow to 0, so
    no floating-point warning arises either."""
    m = x.max(axis=axis, keepdims=True)
    m[m == -np.inf] = 0.0
    with np.errstate(divide="ignore", under="ignore"):
        return np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m


def _stack(graphs: Sequence[CtcGraph], lengths: np.ndarray):
    """The graphs stacked block-diagonally, each checked against its frame
    count: (block offsets, owner block and label of each state, offset
    initial and final states, and the predecessor table)."""
    for graph, n in zip(graphs, lengths):
        if n < graph.min_frames:
            raise InfeasibleUtteranceError(
                f"{n} frames < minimal alignment length {graph.min_frames}")
    sizes = [g.n_states for g in graphs]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    owner = np.repeat(np.arange(len(graphs)), sizes)
    labels = np.concatenate([g.labels for g in graphs])
    first = np.concatenate([g.initial + o for g, o in zip(graphs, offsets)])
    final = np.concatenate([g.final + o for g, o in zip(graphs, offsets)])
    return offsets, owner, labels, first, final, _block_table([g.pred for g in graphs], offsets)


def _block_table(tables: Sequence[np.ndarray], offsets: np.ndarray) -> np.ndarray:
    """Block-diagonal union of padded predecessor tables: graph b's states move
    to ``offsets[b]:offsets[b + 1]``, and every pad reads the shared sentinel.
    A single table is its own union."""
    if len(tables) == 1:
        return tables[0]
    S = offsets[-1]
    out = np.full((max(t.shape[0] for t in tables), S), S, dtype=np.intp)
    for t, lo, hi in zip(tables, offsets[:-1], offsets[1:]):
        out[: t.shape[0], lo:hi] = t
    sizes = np.diff(offsets)    # a graph's pads hold its own state count
    return np.where(out < np.repeat(sizes, sizes), out + np.repeat(offsets[:-1], sizes), S)


def _emissions(logp: np.ndarray, owner: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(T, S + 1) score of each stacked state's label in its own block's
    rows of the (B, T, C) ``logp``, -inf in the sentinel's slot."""
    emit = np.full((logp.shape[1], len(owner) + 1), -np.inf)
    emit[:, :-1] = logp[owner, :, labels].T
    return emit


def _sweep(table: np.ndarray, first: np.ndarray, emit: np.ndarray, reduce) -> np.ndarray:
    """The log-space forward loop: row 0 is 0 on the ``first`` states, and
    row t reduces ``row[t-1] + emit[t-1]`` over each state's predecessors in
    ``table``.  With ``logsumexp`` this is the forward pass without the
    current frame's score, with ``max`` the Viterbi pass."""
    rows = np.full(emit.shape, -np.inf)
    rows[0, first] = 0.0
    for t in range(1, len(rows)):
        rows[t, :-1] = reduce((rows[t - 1] + emit[t - 1])[table])
    return rows


def _successors(pred: np.ndarray) -> np.ndarray:
    """The successor table of a stacked predecessor table: column p lists the
    states whose predecessors include p, ascending, padded with the sentinel
    S that pads ``pred``."""
    S = pred.shape[1]
    k, to = np.nonzero(pred < S)
    return _neighbour_tables(pred[k, to], to, np.array([0, S]))[0]


def _backward(pred: np.ndarray, final: np.ndarray, ends: np.ndarray, beta: np.ndarray,
              one: float, step) -> np.ndarray:
    """The backward pass into ``beta`` ((T, S + 1), filled with the zero of
    its space) in natural frame order: row t is ``step(row[t+1], t + 1,
    table)`` over the successor ``table`` of the stacked ``pred``, then the
    ``final`` states whose block's last frame (``ends``) is t are set to
    ``one``.  A block's rows after its last frame carry no mass (in linear
    space they may hold NaN, should its forward pass die out in the
    padding)."""
    table = _successors(pred)
    last_frames = set(ends.tolist())
    for t in range(len(beta) - 1, -1, -1):
        if t < len(beta) - 1:
            beta[t, :-1] = step(beta[t + 1], t + 1, table)
        if t in last_frames:
            beta[t, final[ends == t]] = one
    return beta


def _occupancy(gamma: np.ndarray, owner: np.ndarray, labels: np.ndarray,
               shape: tuple[int, int, int]) -> np.ndarray:
    """(B, T, C) class occupancy from the (T, S) state occupancy: each
    (utterance, class, frame) cell sums its states in state order."""
    B, T, C = shape
    cells = (owner * C + labels) * T + np.arange(T)[:, None]
    occ = np.bincount(cells.ravel(), weights=gamma.ravel(), minlength=B * C * T)
    return occ.reshape(B, C, T).transpose(0, 2, 1)


def _log_space_loss(graphs: Sequence[CtcGraph], logp: np.ndarray, lengths: np.ndarray,
                    occupancy: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`batch_log_loss` with every quantity in log space: the
    fallback for blocks whose scaled sweep underflows.  Same stack and same
    backward loop; only the per-frame gather reduces by log-sum-exp."""
    _, owner, labels, first, final, pred = _stack(graphs, lengths)
    emit = _emissions(logp, owner, labels)
    ends = lengths[owner[final]] - 1
    alpha = _sweep(pred, first, emit, logsumexp) + emit
    per_block = np.searchsorted(owner[final], np.arange(1, len(graphs)))
    totals = np.array([logsumexp(v).item() for v in np.split(alpha[ends, final], per_block)])
    if not np.all(np.isfinite(totals)):
        raise NumericalError("all accepted paths carry zero probability")
    if not occupancy:
        return -totals, None
    beta = _backward(pred, final, ends, np.full(emit.shape, -np.inf), 0.0,
                     lambda row, t, table: logsumexp((row + emit[t])[table]))
    gamma = np.exp(alpha[:, :-1] + beta[:, :-1] - totals[owner])   # (T, S) state occupancy
    return -totals, _occupancy(gamma, owner, labels, logp.shape)


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
    offsets, owner, labels, first, final, pred = _stack(graphs, lengths)
    starts = offsets[:-1]
    emit = _emissions(logp, owner, labels)
    ends = lengths[owner[final]] - 1
    with np.errstate(all="ignore"):     # underflow shows as a non-finite result
        scale = np.maximum.reduceat(emit[:, :-1], starts, axis=1)       # (T, B)
        e = np.zeros(emit.shape)        # the sentinel's slot stays 0
        e[:, :-1] = np.exp(emit[:, :-1] - scale[:, owner])
        alpha = np.zeros(e.shape)       # forward rows, each block summing to 1
        norm = np.empty((len(e), B))
        v = np.zeros(offsets[-1])
        v[first] = e[0, first]
        for t in range(len(e)):
            if t:
                v = alpha[t - 1][pred].sum(0) * e[t, :-1]
            norm[t] = np.add.reduceat(v, starts)
            alpha[t, :-1] = v / norm[t][owner]
        fin = np.bincount(owner[final], alpha[ends, final], B)
        totals = (np.cumsum(np.log(norm) + scale, axis=0)[lengths - 1, np.arange(B)]
                  + np.log(fin))
        ok = np.isfinite(totals)
        occ = None
        if occupancy:
            state_norm = norm[:, owner]
            beta = _backward(pred, final, ends, np.zeros(e.shape), 1.0,
                             lambda row, t, table: (row * e[t])[table].sum(0) / state_norm[t])
            gamma = alpha[:, :-1] * beta[:, :-1] / fin[owner]      # (T, S) state occupancy
            ok &= np.logical_and.reduceat(np.isfinite(gamma).all(axis=0), starts)
            occ = _occupancy(gamma, owner, labels, logp.shape)
    losses = -totals
    if not ok.all():
        bad = np.flatnonzero(~ok)
        losses[bad], redone = _log_space_loss([graphs[b] for b in bad], logp[bad],
                                              lengths[bad], occupancy)
        if occupancy:
            occ[bad] = redone
    return losses, occ


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


def _trace(graphs: Sequence[CtcGraph], scores: np.ndarray, lengths: np.ndarray, reduce,
           pick, shift: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sweep forward with ``reduce`` over the graphs stacked block-diagonally,
    block b's emissions gathered from ``scores[b]`` ((B, T, C)), each less
    ``shift`` ((C,)) at its label when given, then walk
    all B paths back together, each from its own last frame ``lengths[b] -
    1``.  A block's rows after its last frame may hold any finite values or
    -inf: no path through them is walked back.  ``pick`` maps a (k, B) array
    of candidate scores to one row index per column: first a final state,
    then, once per frame, each path's earlier state among the predecessors of
    its later one.  Returns the (T, B) paths, ``path[k, b]`` the stacked
    state of utterance b at its frame ``lengths[b] - 1 - k`` (meaningless
    from ``k = lengths[b]`` on), and the block offsets."""
    offsets, owner, labels, first, final, table = _stack(graphs, lengths)
    emit = _emissions(scores, owner, labels)
    if shift is not None:
        emit[:, :-1] -= shift[labels]
    score = _sweep(table, first, emit, reduce)
    score += emit
    B, T = len(graphs), scores.shape[1]
    block = owner[final]    # each block's final states down its own column
    rank = np.arange(len(final)) - np.searchsorted(block, block)
    finals = np.full((rank.max() + 1, B), offsets[-1])
    finals[rank, block] = final
    last, cols = lengths - 1, np.arange(B)
    ends = score[last, finals]
    if (ends.max(0) == -np.inf).any():
        raise InfeasibleUtteranceError("no accepted path of this length")
    path = np.empty((T, B), dtype=np.intp)
    path[0] = cur = finals[pick(ends), cols]
    for k in range(1, T):
        # A path already at its frame 0 reads a wrapped-around row; as every
        # state is its own predecessor, each list starts with a real state,
        # so it still picks real states, which are never read.
        preds = table[:, cur]
        path[k] = cur = preds[pick(score[last - k, preds]), cols]
    return path, offsets


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


def viterbi_paths(graphs: Sequence[CtcGraph], logp: np.ndarray, lengths: np.ndarray,
                  prior: np.ndarray | None = None,
                  prior_scale: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Best accepted paths of B utterances under their (B, T, C) ``logp``
    divided by the prior as in :func:`viterbi` (block b's rows from
    ``lengths[b]`` on ignored), from one max sweep and one backtrace: the
    (T, B) paths and block offsets of :func:`_trace`.  The prior's
    ``prior_scale * log q`` is subtracted from the gathered (T, S) state
    scores, not from ``logp``, which is left as it is."""
    if not 0.0 <= prior_scale <= 1.0:
        raise ValueError("prior scale must lie in [0, 1]")
    shift = None
    if prior_scale > 0.0:
        if prior is None:
            raise ValueError("prior_scale > 0 requires a prior")
        prior = np.asarray(prior, dtype=np.float64)
        if prior.shape != logp.shape[2:]:
            raise ValueError("prior shape does not match class count")
        shift = prior_scale * np.log(np.maximum(prior, PRIOR_FLOOR))
    # ties go to the first row: the smallest state id
    return _trace(graphs, logp, lengths, lambda x: x.max(axis=0), lambda x: x.argmax(axis=0),
                  shift)


def batch_viterbi(graphs: Sequence[CtcGraph], posteriors: Sequence[np.ndarray],
                  prior: np.ndarray | None = None,
                  prior_scale: float = 0.0) -> list[Alignment]:
    """:func:`viterbi` of B utterances in one max sweep over their graphs
    stacked block-diagonally and one backtrace of all B paths.  Each
    ``posteriors[b]`` is that utterance's own unpadded (T_b, C) matrix; every
    path is state for state that of a separate call."""
    posteriors = [_check_posteriors(logp) for logp in posteriors]
    lengths = np.array([len(logp) for logp in posteriors])
    padded = np.full((len(posteriors), lengths.max(), posteriors[0].shape[1]), -np.inf)
    for row, logp in zip(padded, posteriors):
        row[: len(logp)] = logp
    path, offsets = viterbi_paths(graphs, padded, lengths, prior, prior_scale)
    return [_alignment_from_states(graph, path[n - 1 :: -1, b] - lo)
            for b, (graph, n, lo) in enumerate(zip(graphs, lengths, offsets))]


def viterbi(graph: CtcGraph, logp: np.ndarray, prior: np.ndarray | None = None,
            prior_scale: float = 0.0) -> Alignment:
    """Best accepted frame path under prior-divided posteriors.

    Maximizes sum_t ( logp[t, y_t] - prior_scale * log q[y_t] ); the prior is
    floored at 1e-10 before the division so unseen classes stay finite.  Ties
    resolve to the smallest predecessor state id, making alignments
    bit-reproducible.  The B = 1 call of :func:`batch_viterbi`.
    """
    return batch_viterbi([graph], [logp], prior, prior_scale)[0]


def estimate_prior(sums: np.ndarray, frames: int) -> np.ndarray:
    """Arithmetic mean of the posterior rows over ``frames`` frames, from the
    (N, C) ``sums`` of each utterance's rows of ``exp(logp)``, renormalized
    to sum exactly to one.  The sums add up in utterance order."""
    if frames == 0:
        raise ValueError("empty posterior stream")
    if not np.isfinite(sums).all():
        raise NumericalError("posterior sums contain non-finite values")
    q = sums.sum(axis=0) / frames
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
    path, _ = _trace([graph], (logp / temperature)[None], np.array([len(logp)]), logsumexp,
                     lambda logw: [_draw(logw[:, 0], rng)])
    return _alignment_from_states(graph, path[::-1, 0])


def _draw(logw: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with weight exp(logw); -inf entries are never drawn."""
    with np.errstate(under="ignore"):     # weights far below the largest are 0
        w = np.exp(logw - logw.max()).cumsum()
    return int(w.searchsorted(rng.random() * w[-1], side="right"))
