"""Utterance lattices and their blank-augmented frame-transition graphs.

An :class:`UttLattice` encodes the allowed unit sequences of a word sequence
as labeled arcs between nodes.  A word's segmentations form a one-word
lattice over its character positions (implicit form) or trie nodes
(explicit form); such lattices chain into an utterance lattice, which
expands into a :class:`CtcGraph` whose frame paths are exactly the
blank-augmented alignments of every allowed unit sequence.  The graph keeps
its transitions in one table, each state's predecessors; the loss's backward
pass derives the successors from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vocab import Vocabulary


@dataclass(frozen=True)
class UttLattice:
    """Acyclic graph over a word sequence; every path from node 0 to the last
    node is one allowed unit sequence.  Arcs never cross a word boundary,
    and arcs that end a word carry word-end labels."""

    words: tuple[str, ...]
    n_nodes: int
    arcs: tuple[tuple[int, int, int, int], ...]  # (from, to, unit id, word index)


def build_word_dag_implicit(word: str, vocab: Vocabulary) -> UttLattice:
    """One-word lattice of every segmentation of ``word`` over the vocabulary.

    Nodes are the character positions 0..len(word).  Arcs that cannot reach
    the sink or be reached from the source are pruned so downstream graphs
    carry no dead states.  Raises ValueError when the word is not spellable.
    """
    n = len(word)
    candidate = []
    for i in range(n):
        for j in range(i + 1, n + 1):
            unit = (word[i:j], j == n)
            uid = vocab.id_of.get(unit)
            if uid is not None:
                candidate.append((i, j, uid))
    fwd = [False] * (n + 1)
    fwd[0] = True
    for i, j, _ in candidate:  # candidates are sorted by (i, j): one forward sweep suffices
        if fwd[i]:
            fwd[j] = True
    bwd = [False] * (n + 1)
    bwd[n] = True
    for i, j, _ in reversed(candidate):
        if bwd[j]:
            bwd[i] = True
    if not (fwd[n] and bwd[0]):
        raise ValueError(f"word {word!r} is not spellable over the vocabulary")
    arcs = tuple((i, j, uid, 0) for i, j, uid in candidate if fwd[i] and bwd[j])
    return UttLattice((word,), n + 1, arcs)


def build_word_dag_explicit(variants: Sequence[Sequence[int]],
                            vocab: Vocabulary) -> UttLattice:
    """Prefix-sharing one-word lattice whose path set is exactly the given
    variant set.

    Variants sharing only a suffix stay on separate branches (merging them
    could splice paths together); all branches join at a single sink node.
    """
    seqs = sorted({tuple(v) for v in variants})
    if not seqs:
        raise ValueError("no variants")
    words = set()
    for ids in seqs:
        units = [vocab.unit(i) for i in ids]
        flags = [e for _, e in units]
        if not flags[-1] or any(flags[:-1]):
            raise ValueError("word_end must sit exactly on the last unit")
        words.add("".join(s for s, _ in units))
    if len(words) > 1:
        raise ValueError(f"variants spell different words: {sorted(words)}")
    word = words.pop()

    # Trie over variant prefixes; node ids in discovery order, sink appended last.
    children: list[dict[int, int]] = [{}]
    trie_arcs: list[tuple[int, int, int, int]] = []
    ends: list[tuple[int, int]] = []  # (pre-final node, final unit id)
    for ids in seqs:
        node = 0
        for uid in ids[:-1]:
            nxt = children[node].get(uid)
            if nxt is None:
                nxt = len(children)
                children.append({})
                children[node][uid] = nxt
                trie_arcs.append((node, nxt, uid, 0))
            node = nxt
        ends.append((node, ids[-1]))
    sink = len(children)
    arcs = tuple(trie_arcs) + tuple((node, sink, uid, 0) for node, uid in ends)
    return UttLattice((word,), sink + 1, arcs)


def concat_utterance(lattices: Sequence[UttLattice]) -> UttLattice:
    """Chain lattices, fusing each one's last node with the next one's node 0
    and shifting its word indices past the words before it."""
    if not lattices:
        raise ValueError("empty word list")
    arcs: list[tuple[int, int, int, int]] = []
    words: list[str] = []
    offset = 0
    for lat in lattices:
        n_words = len(words)
        for u, v, uid, w in lat.arcs:
            arcs.append((u + offset, v + offset, uid, w + n_words))
        offset += lat.n_nodes - 1  # the last node is reused as the next one's node 0
        words.extend(lat.words)
    return UttLattice(tuple(words), offset + 1, tuple(arcs))


@dataclass
class CtcGraph:
    """Frame-transition graph: states emit one class per frame, a frame path
    is accepted when consecutive states are linked by a transition (self
    loops included), it starts in ``initial`` and ends in ``final``.

    States 0..n_nodes-1 are the lattice nodes' blank states; one label state
    per lattice arc follows.  Direct label-to-label transitions exist only
    between different labels; identical neighbors must pass through the
    intervening node's blank state, which keeps the collapse of every
    accepted path inside the lattice's path set.

    ``pred[:, s]`` lists the predecessors of state ``s`` (itself included)
    in ascending order, padded at the end with the sentinel ``n_states``, so
    a DP row with one extra -inf slot gathers through the table in one step.
    It is the graph's one transition table: the backward pass of the loss
    derives the successors from it.  A label state's label is its arc's
    unit id.
    """

    labels: np.ndarray           # per-state emitted class, blank for node states
    blank: int
    initial: np.ndarray          # state ids
    final: np.ndarray            # state ids
    pred: np.ndarray             # (max in-degree, n_states) padded predecessor table
    state_word: np.ndarray       # word index per state, -1 for blanks
    min_frames: int

    @property
    def n_states(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return self.blank + 1


def ctc_expand(lattice: UttLattice, vocab: Vocabulary) -> CtcGraph:
    """Blank-augment a lattice into its frame-transition graph."""
    return expand_lattices([lattice], vocab)[0]


EXPAND_STACK = 64  # lattices stacked per pass; bounds the stacked temporaries


def expand_lattices(lattices: Sequence[UttLattice], vocab: Vocabulary) -> list[CtcGraph]:
    """:func:`ctc_expand` of each lattice, ``EXPAND_STACK`` at a time stacked
    into one block-diagonal lattice: lattice b's states (its nodes, then its
    arcs) take the contiguous range ``off[b]:off[b + 1]``, the edges and
    predecessor table are built once over the stack, and each graph is cut
    from its range.  Every graph equals that of expanding its lattice alone.

    Raises ValueError naming an arc that does not run from a lower to a
    higher node of its lattice."""
    graphs: list[CtcGraph] = []
    for lo in range(0, len(lattices), EXPAND_STACK):
        graphs += _expand_stack(lattices[lo : lo + EXPAND_STACK], vocab)
    return graphs


def _expand_stack(lattices: Sequence[UttLattice], vocab: Vocabulary) -> list[CtcGraph]:
    B = len(lattices)
    n_nodes = np.array([lat.n_nodes for lat in lattices], dtype=np.intp)
    n_arcs = np.array([len(lat.arcs) for lat in lattices], dtype=np.intp)
    src, dst, uid, word = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(lat.arcs for lat in lattices)),
        dtype=np.intp, count=4 * int(n_arcs.sum())).reshape(-1, 4).T
    owner = np.repeat(np.arange(B), n_arcs)
    arc = np.arange(len(src)) - np.repeat(np.cumsum(n_arcs) - n_arcs, n_arcs)
    bad = ~((0 <= src) & (src < dst) & (dst < n_nodes[owner]))
    if bad.any():
        b, a = owner[bad.argmax()], arc[bad.argmax()]
        raise ValueError(f"arc {a} {lattices[b].arcs[a]} of lattice {b} does not run "
                         f"from a lower to a higher node below {n_nodes[b]}")
    off = np.concatenate([[0], np.cumsum(n_nodes + n_arcs)])
    n_states = int(off[-1])
    states = np.arange(n_states)
    arc_states = off[owner] + n_nodes[owner] + arc
    node_src, node_dst = off[owner] + src, off[owner] + dst

    # Label -> label: arc a into node v, then arc b out of v with another label.
    by_src = np.argsort(node_src, kind="stable")
    first = np.searchsorted(node_src[by_src], node_dst, "left")
    n_next = np.searchsorted(node_src[by_src], node_dst, "right") - first
    a = np.repeat(np.arange(len(src)), n_next)
    # for each a in turn, b runs through by_src[first[a] : first[a] + n_next[a]]
    b = by_src[np.repeat(first - np.cumsum(n_next) + n_next, n_next) + np.arange(len(a))]
    min_frames = _min_frames(a, b, src, dst, uid, owner, n_nodes, off)
    keep = uid[a] != uid[b]
    a, b = a[keep], b[keep]

    # Self loops, node blank -> label state, label state -> node blank, label -> label.
    frm = np.concatenate([states, node_src, arc_states, arc_states[a]])
    to = np.concatenate([states, arc_states, node_dst, arc_states[b]])
    labels = np.full(n_states, vocab.blank_id, dtype=np.intp)
    labels[arc_states] = uid
    state_word = np.full(n_states, -1, dtype=np.intp)
    state_word[arc_states] = word
    # Ascending global ids group by lattice, each node state before its arcs.
    initial = np.sort(np.concatenate([off[:-1], arc_states[src == 0]]))
    final = np.sort(np.concatenate([off[1:] - n_arcs - 1,
                                    arc_states[dst == n_nodes[owner] - 1]]))
    cut_i, cut_f = np.searchsorted(initial, off).tolist(), np.searchsorted(final, off).tolist()
    local = states - np.repeat(off[:-1], np.diff(off))
    initial, final = local[initial], local[final]
    bounds = off.tolist()
    return [CtcGraph(labels=labels[lo:hi], blank=vocab.blank_id,
                     initial=initial[cut_i[k] : cut_i[k + 1]],
                     final=final[cut_f[k] : cut_f[k + 1]],
                     pred=pred, state_word=state_word[lo:hi], min_frames=m)
            for k, (lo, hi, pred, m) in enumerate(zip(
                bounds, bounds[1:], _neighbour_tables(to, frm, off), min_frames))]


def _min_frames(a, b, src, dst, uid, owner, n_nodes, off) -> list[int]:
    """Minimal accepted path length per lattice, by a DP over its nodes in
    node order whose state is the last arc taken (so its label): one frame
    per arc, and one more for the blank forced between equal labels, across
    word boundaries too.  ``a[i] -> b[i]`` lists every pair of consecutive
    arcs.  A lattice without a path gets its state count + 1; a lattice of
    one node, one blank frame."""
    big = np.iinfo(np.intp).max // 2
    frames = np.where(src == 0, 1, big)
    step = np.argsort(src[b], kind="stable")
    a, b = a[step], b[step]
    cost = 1 + (uid[a] == uid[b])
    # Arcs run from lower to higher nodes, so node k of every lattice is
    # settled once the nodes below it are; all lattices take it in one step.
    # No arc leaves the last node of the largest lattice.
    cuts = np.searchsorted(src[b], np.arange(1, n_nodes.max())).tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        np.minimum.at(frames, b[lo:hi], frames[a[lo:hi]] + cost[lo:hi])
    ends = dst == n_nodes[owner] - 1
    best = np.full(len(n_nodes), big)
    np.minimum.at(best, owner[ends], frames[ends])
    out = np.where(best < big, best, np.diff(off) + 1)
    return np.where(n_nodes == 1, 1, out).tolist()


def _neighbour_tables(rows: np.ndarray, cols: np.ndarray, off: np.ndarray) -> list[np.ndarray]:
    """For each block of states ``off[b]:off[b + 1]``, the table whose column
    r lists the ``cols`` paired with row ``off[b] + r``, ascending, as ids
    within the block, padded with the block's size."""
    n = int(off[-1])
    rows, cols = np.divmod(np.sort(rows * n + cols), n)
    count = np.bincount(rows, minlength=n)
    # Pads hold their block's end, which the shift to block ids makes its size.
    table = np.repeat(off[1:], np.diff(off))[None].repeat(count.max(), axis=0)
    table[np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count), rows] = cols
    bounds = off.tolist()
    return [table[:deg, lo:hi] - lo for deg, lo, hi in
            zip(np.maximum.reduceat(count, off[:-1]).tolist(), bounds, bounds[1:])]


def path_stats(lattice: UttLattice) -> tuple[int, int, int]:
    """(path count, shortest label length, longest label length) by DP."""
    count, _, lo, hi = _label_path_dp(lattice)
    return count, lo, hi


def path_length_stats(lattice: UttLattice) -> tuple[int, float]:
    """(path count, mean label length over all paths)."""
    count, total, _, _ = _label_path_dp(lattice)
    return count, total / count if count else 0.0


def _label_path_dp(lattice: UttLattice):
    n = len(lattice.arcs)
    out_by_node: list[list[int]] = [[] for _ in range(lattice.n_nodes)]
    for a, (u, _, _, _) in enumerate(lattice.arcs):
        out_by_node[u].append(a)
    starts = out_by_node[0]
    finals = [a for a, (_, v, _, _) in enumerate(lattice.arcs)
              if v == lattice.n_nodes - 1]

    INF = 1 << 60
    count = [0] * n
    total = [0] * n
    lo = [INF] * n
    hi = [-1] * n
    for a in starts:
        count[a], total[a], lo[a], hi[a] = 1, 1, 1, 1
    # Arc order is topological: an arc's id can only feed arcs with larger
    # source nodes, and arcs are sorted by source node first.
    for a in range(n):
        if not count[a]:
            continue
        for b in out_by_node[lattice.arcs[a][1]]:
            count[b] += count[a]
            total[b] += total[a] + count[a]
            lo[b] = min(lo[b], lo[a] + 1)
            hi[b] = max(hi[b], hi[a] + 1)
    c = sum(count[a] for a in finals)
    t = sum(total[a] for a in finals)
    l = min((lo[a] for a in finals if count[a]), default=0)
    h = max((hi[a] for a in finals if count[a]), default=0)
    return c, t, l, h

