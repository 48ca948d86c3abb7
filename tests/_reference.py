"""Straightforward single-sequence CTC loss, used as an independent check.

Implements the classic alpha recursion over the blank-interleaved label
string directly from its textbook description.  No code is shared with the
package's graph-based machinery on purpose.
"""

import numpy as np
from scipy.special import logsumexp

NEG_INF = float("-inf")


def ctc_loss_single(logp: np.ndarray, labels, blank: int) -> float:
    """-log P(labels | logp) for one label sequence.

    logp: (T, C) log posteriors, rows normalized.
    labels: the target class ids, blank-free.
    """
    T = logp.shape[0]
    L = len(labels)
    ext = [blank]
    for l in labels:
        ext.extend((l, blank))
    S = len(ext)

    alpha = np.full(S, NEG_INF)
    alpha[0] = logp[0, ext[0]]
    if S > 1:
        alpha[1] = logp[0, ext[1]]
    for t in range(1, T):
        prev = alpha
        alpha = np.full(S, NEG_INF)
        for s in range(S):
            terms = [prev[s]]
            if s >= 1:
                terms.append(prev[s - 1])
            # skip transition: only between distinct non-blank labels
            if s >= 2 and ext[s] != blank and ext[s] != ext[s - 2]:
                terms.append(prev[s - 2])
            best = logsumexp(terms)
            alpha[s] = best + logp[t, ext[s]]
    tail = [alpha[S - 1]]
    if S > 1:
        tail.append(alpha[S - 2])
    total = logsumexp(tail)
    if total == NEG_INF:
        raise ValueError("no feasible alignment for %d labels in %d frames" % (L, T))
    return -float(total)


def viterbi_states(graph, scores: np.ndarray) -> tuple[int, ...]:
    """Best accepted state path of a frame-transition graph under per-frame
    class ``scores``, by the textbook recursion with back-pointers kept for
    every frame and state.  Ties go to the smallest predecessor state id, and
    at the last frame to the earliest of ``graph.final``."""
    T, n = scores.shape[0], graph.n_states
    preds = [[] for _ in range(n)]
    for p, s in graph.transitions():
        preds[s].append(p)
    emit = [[float(scores[t, graph.labels[s]]) for s in range(n)] for t in range(T)]
    delta = [NEG_INF] * n
    for s in graph.initial:
        delta[s] = emit[0][s]
    back = []
    for t in range(1, T):
        ptr, new = [0] * n, [NEG_INF] * n
        for s in range(n):
            best = min(preds[s])
            for p in sorted(preds[s]):
                if delta[p] > delta[best]:
                    best = p
            ptr[s], new[s] = best, delta[best] + emit[t][s]
        back.append(ptr)
        delta = new
    state = int(graph.final[0])
    for s in graph.final:
        if delta[s] > delta[state]:
            state = int(s)
    if delta[state] == NEG_INF:
        raise ValueError("no accepted path of this length")
    path = [state]
    for ptr in reversed(back):
        path.append(ptr[path[-1]])
    return tuple(reversed(path))
