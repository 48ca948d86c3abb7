"""Independent references the tests check the package against.

A straightforward single-sequence CTC loss (the classic alpha recursion over
the blank-interleaved label string, from its textbook description), a
forward-backward pass over a graph's transition list in extended precision,
a textbook back-pointer Viterbi, brute-force enumeration of label paths and of
accepted frame strings, and the plain one-lattice-at-a-time expansion of a
lattice into its frame-transition graph, whose padded successor table is
also built here from the transition list.  No code is shared with the
package's graph-based machinery on purpose.  Also the helpers only the tests
need: a graph's transition list, an encoder's parameters as one flat vector,
the label prior as the plain mean of a stream of posterior matrices, and a
language model's perplexity.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from adsm.ctc import collapse
from adsm.errors import InfeasibleUtteranceError, NumericalError
from adsm.lattice import CtcGraph, UttLattice, WordSegDAG, lattice_from_dag

NEG_INF = float("-inf")


def transitions(graph: CtcGraph) -> list[tuple[int, int]]:
    """All (from, to) pairs, self loops included."""
    n = graph.n_states
    return [(int(p), s) for s in range(n) for p in graph.pred[:, s] if p < n]


def n_params(params) -> int:
    return sum(a.size for a in params.arrays())


def flatten_params(params) -> np.ndarray:
    return np.concatenate([a.ravel() for a in params.arrays()])


def set_flat_params(params, vec: np.ndarray) -> None:
    pos = 0
    for a in params.arrays():
        a[...] = vec[pos : pos + a.size].reshape(a.shape)
        pos += a.size
    if pos != vec.size:
        raise ValueError("flat vector length mismatch")


def prior_mean(posteriors, num_classes: int) -> np.ndarray:
    """Arithmetic mean of the posterior rows over every frame of a stream of
    (T, C) log-posterior matrices, each matrix's column sums added to a
    running total in stream order, renormalized to sum exactly to one."""
    total = np.zeros(num_classes)
    frames = 0
    for logp in posteriors:
        total += np.exp(logp).sum(axis=0)
        frames += logp.shape[0]
    q = total / frames
    return q / q.sum()


def perplexity(lm, sequences) -> float:
    """exp of minus the mean log-probability per event (each sequence's
    units and its end event) under the n-gram model ``lm``."""
    lps, n = 0.0, 0
    for tokens in sequences:
        tokens = tuple(tokens)
        lps += lm.score(tokens)
        n += len(tokens) + 1
    if n == 0:
        raise ValueError("no events to evaluate")
    return math.exp(-lps / n)


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


def forward_backward_extended(graph, logp: np.ndarray) -> tuple[float, np.ndarray]:
    """(loss, (T, C) class occupancy) of a frame-transition graph, by the
    forward-backward recursion over its transition list in ``np.longdouble``
    (80-bit extended precision on x86), each frame's forward row divided by
    its sum and the backward row by the same number."""
    T, S = logp.shape[0], graph.n_states
    frm, to = np.array(transitions(graph)).T
    p = np.exp(logp.astype(np.longdouble))[:, graph.labels]
    alpha = np.zeros((T, S), np.longdouble)
    scale = np.zeros(T, np.longdouble)
    row = np.zeros(S, np.longdouble)
    row[graph.initial] = p[0, graph.initial]
    for t in range(T):
        if t:
            row = np.zeros(S, np.longdouble)
            np.add.at(row, to, alpha[t - 1, frm])
            row *= p[t]
        scale[t] = row.sum()
        alpha[t] = row / scale[t]
    beta = np.zeros((T, S), np.longdouble)
    beta[T - 1, graph.final] = 1
    for t in range(T - 2, -1, -1):
        np.add.at(beta[t], frm, beta[t + 1, to] * p[t + 1, to])
        beta[t] /= scale[t + 1]
    mass = alpha[T - 1, graph.final].sum()
    gamma = alpha * beta / mass
    occ = np.zeros((T, logp.shape[1]), np.longdouble)
    for s in range(S):
        occ[:, graph.labels[s]] += gamma[:, s]
    return -float(np.log(scale).sum() + np.log(mass)), occ.astype(np.float64)


def viterbi_states(graph, scores: np.ndarray) -> tuple[int, ...]:
    """Best accepted state path of a frame-transition graph under per-frame
    class ``scores``, by the textbook recursion with back-pointers kept for
    every frame and state.  Ties go to the smallest predecessor state id, and
    at the last frame to the earliest of ``graph.final``."""
    T, n = scores.shape[0], graph.n_states
    preds = [[] for _ in range(n)]
    for p, s in transitions(graph):
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


def ctc_expand_reference(lattice: UttLattice, vocab) -> CtcGraph:
    """Blank-augment one lattice into its frame-transition graph, finding
    ``min_frames`` as the first frame at which a final state is reachable."""
    n_nodes = lattice.n_nodes
    src, dst, uid, word = np.array(lattice.arcs, dtype=np.intp).reshape(-1, 4).T
    n_arcs = len(src)
    n_states = n_nodes + n_arcs
    states = np.arange(n_states)
    arc_states = states[n_nodes:]

    # Label -> label: arc a into node v, then arc b out of v with another label.
    by_src = np.argsort(src, kind="stable")
    first = np.searchsorted(src[by_src], dst, "left")
    n_next = np.searchsorted(src[by_src], dst, "right") - first
    a = np.repeat(np.arange(n_arcs), n_next)
    b = by_src[np.repeat(first - np.cumsum(n_next) + n_next, n_next) + np.arange(len(a))]
    keep = uid[a] != uid[b]
    a, b = a[keep], b[keep]

    # Self loops, node blank -> label state, label state -> node blank, label -> label.
    frm = np.concatenate([states, src, arc_states, arc_states[a]])
    to = np.concatenate([states, arc_states, dst, arc_states[b]])
    pred = _neighbour_table(to, frm, n_states)
    initial = np.concatenate([[0], arc_states[src == 0]])
    final = np.concatenate([[n_nodes - 1], arc_states[dst == n_nodes - 1]])

    # n_states + 1 when no final state is ever reachable.
    reach = np.zeros(n_states + 1, dtype=bool)
    reach[initial] = True
    for min_frames in range(1, n_states + 2):
        if reach[final].any():
            break
        reach[:-1] = reach[pred].any(axis=0)

    return CtcGraph(
        labels=np.concatenate([np.full(n_nodes, vocab.blank_id), uid]),
        blank=vocab.blank_id,
        initial=initial,
        final=final,
        pred=pred,
        state_word=np.concatenate([np.full(n_nodes, -1), word]),
        min_frames=min_frames,
    )


def successor_table(graphs) -> np.ndarray:
    """The padded successor table of graphs stacked block-diagonally (each
    graph's states offset by the state counts before it), built from their
    transition lists."""
    edges, off = [], 0
    for g in graphs:
        edges += [(p + off, s + off) for p, s in transitions(g)]
        off += g.n_states
    frm, to = np.array(edges).T
    return _neighbour_table(frm, to, off)


def _neighbour_table(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Column r lists the ``cols`` paired with row r, ascending, padded with n."""
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    count = np.bincount(rows, minlength=n)
    table = np.full((count.max(), n), n, dtype=np.intp)
    table[np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count), rows] = cols
    return table


def enumerate_label_paths(g: WordSegDAG | UttLattice) -> list[tuple[int, ...]]:
    """All source-to-sink unit-id sequences, by plain recursive walk.

    Exponential in path count; test and oracle use only.
    """
    lattice = lattice_from_dag(g) if isinstance(g, WordSegDAG) else g
    out_by_node: list[list[tuple[int, int]]] = [[] for _ in range(lattice.n_nodes)]
    for u, v, uid, _ in lattice.arcs:
        out_by_node[u].append((v, uid))
    sink = lattice.n_nodes - 1
    paths: list[tuple[int, ...]] = []

    def walk(node, prefix):
        if node == sink:
            paths.append(tuple(prefix))
            return
        for v, uid in out_by_node[node]:
            prefix.append(uid)
            walk(v, prefix)
            prefix.pop()

    walk(0, [])
    return paths


@dataclass(frozen=True)
class OracleResult:
    loss: float
    best_path: tuple[int, ...]
    path_probs: dict[tuple[int, ...], float]   # accepted frame path -> posterior


def enumerate_oracle(lattice: UttLattice | WordSegDAG, logp: np.ndarray,
                     max_frames: int = 8, max_units: int = 5) -> OracleResult:
    """Exhaustive reference: walk every frame string over the classes, keep
    those whose collapse is an allowed unit sequence, and tally in linear
    space with plain Python floats."""
    lattice = lattice_from_dag(lattice) if isinstance(lattice, WordSegDAG) else lattice
    logp = np.asarray(logp, dtype=np.float64)
    if logp.ndim != 2:
        raise ValueError("posterior matrix must be 2-D")
    if not np.all(np.isfinite(logp)):
        raise NumericalError("posterior matrix contains non-finite values")
    T, classes = logp.shape
    blank = classes - 1
    if T > max_frames or classes - 1 > max_units:
        raise ValueError(f"instance too large for enumeration (T={T}, units={classes - 1})")
    allowed = set(enumerate_label_paths(lattice))
    rows = [[float(x) for x in row] for row in logp]
    total = 0.0
    best_lp = -math.inf
    best_path: tuple[int, ...] = ()
    path_probs: dict[tuple[int, ...], float] = {}
    for y in itertools.product(range(classes), repeat=T):
        if collapse(y, blank) not in allowed:
            continue
        lp = 0.0
        for t in range(T):
            lp += rows[t][y[t]]
        p = math.exp(lp)
        total += p
        path_probs[y] = p
        if lp > best_lp:
            best_lp = lp
            best_path = y
    if total == 0.0 or not path_probs:
        raise InfeasibleUtteranceError("no accepted frame string at this length")
    for y in path_probs:
        path_probs[y] /= total
    return OracleResult(-math.log(total), best_path, path_probs)
