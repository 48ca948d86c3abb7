"""Per-word segmentation DAGs, utterance lattices, and their blank-augmented
frame-transition graphs.

A :class:`WordSegDAG` encodes a word's allowed unit sequences as labeled arcs
between character positions (implicit form) or trie nodes (explicit form).
Word DAGs concatenate into an :class:`UttLattice`, which expands into a
:class:`CtcGraph` whose frame paths are exactly the blank-augmented alignments
of every allowed unit sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vocab import Vocabulary

GRAPH_HEADER = "#adsm-graph-v1"
DAG_HEADER = "#adsm-dag-v1"


@dataclass(frozen=True)
class WordSegDAG:
    """Acyclic graph over one word; every source-to-sink path is one allowed
    unit sequence.  ``node_pos[n]`` is the character position of node ``n``;
    the source is node 0 at position 0, the sink is the last node at
    position ``len(word)``.  Arcs into the sink carry word-end labels."""

    word: str
    node_pos: tuple[int, ...]
    arcs: tuple[tuple[int, int, int], ...]  # (from_node, to_node, unit id)

    @property
    def n_nodes(self) -> int:
        return len(self.node_pos)

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return len(self.node_pos) - 1


@dataclass(frozen=True)
class UttLattice:
    """Concatenation of word DAGs; arcs never cross a word boundary.

    ``boundaries[i]`` is the node where word ``i`` starts; the final entry is
    the global sink."""

    words: tuple[str, ...]
    n_nodes: int
    arcs: tuple[tuple[int, int, int, int], ...]  # (from, to, unit id, word index)
    boundaries: tuple[int, ...]


def build_word_dag_implicit(word: str, vocab: Vocabulary) -> WordSegDAG:
    """DAG of every segmentation of ``word`` over the vocabulary.

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
    arcs = tuple((i, j, uid) for i, j, uid in candidate if fwd[i] and bwd[j])
    return WordSegDAG(word, tuple(range(n + 1)), arcs)


def build_word_dag_explicit(variants: Sequence[Sequence[int]],
                            vocab: Vocabulary) -> WordSegDAG:
    """Prefix-sharing DAG whose path set is exactly the given variant set.

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
    n = len(word)

    # Trie over variant prefixes; node ids in discovery order, sink appended last.
    node_pos = [0]
    children: list[dict[int, int]] = [{}]
    trie_arcs: list[tuple[int, int, int]] = []
    ends: list[tuple[int, int]] = []  # (pre-final node, final unit id)
    for ids in seqs:
        node = 0
        for uid in ids[:-1]:
            nxt = children[node].get(uid)
            if nxt is None:
                nxt = len(node_pos)
                spelling, _ = vocab.unit(uid)
                node_pos.append(node_pos[node] + len(spelling))
                children.append({})
                children[node][uid] = nxt
                trie_arcs.append((node, nxt, uid))
            node = nxt
        ends.append((node, ids[-1]))
    sink = len(node_pos)
    node_pos.append(n)
    arcs = tuple(trie_arcs) + tuple((node, sink, uid) for node, uid in ends)
    return WordSegDAG(word, tuple(node_pos), arcs)


def concat_utterance(dags: Sequence[WordSegDAG]) -> UttLattice:
    """Chain word DAGs, fusing each sink with the next source."""
    if not dags:
        raise ValueError("empty word list")
    arcs: list[tuple[int, int, int, int]] = []
    boundaries = [0]
    offset = 0
    for w, dag in enumerate(dags):
        for u, v, uid in dag.arcs:
            arcs.append((u + offset, v + offset, uid, w))
        offset += dag.n_nodes - 1  # sink is reused as the next word's source
        boundaries.append(offset)
    return UttLattice(tuple(d.word for d in dags), offset + 1, tuple(arcs),
                      tuple(boundaries))


def lattice_from_dag(dag: WordSegDAG) -> UttLattice:
    return concat_utterance([dag])


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
    ``succ`` is the same table for successors.
    """

    labels: np.ndarray           # per-state emitted class, blank for node states
    blank: int
    initial: np.ndarray          # state ids
    final: np.ndarray            # state ids
    pred: np.ndarray             # (max in-degree, n_states) padded predecessor table
    succ: np.ndarray             # (max out-degree, n_states) padded successor table
    state_arc: np.ndarray        # lattice arc index per state, -1 for blanks
    state_word: np.ndarray       # word index per state, -1 for blanks
    min_frames: int

    @property
    def n_states(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return self.blank + 1

    def transitions(self) -> list[tuple[int, int]]:
        """All (from, to) pairs, self loops included."""
        n = self.n_states
        return [(int(p), s) for s in range(n) for p in self.pred[:, s] if p < n]


def ctc_expand(lattice: UttLattice, vocab: Vocabulary) -> CtcGraph:
    """Blank-augment a lattice into its frame-transition graph."""
    n_nodes = lattice.n_nodes
    src, dst, uid, word = np.array(lattice.arcs, dtype=np.intp).reshape(-1, 4).T
    n_arcs = len(src)
    n_states = n_nodes + n_arcs
    states = np.arange(n_states)
    arc_states = states[n_nodes:]
    no_arc = np.full(n_nodes, -1)

    # Label -> label: arc a into node v, then arc b out of v with another label.
    by_src = np.argsort(src, kind="stable")
    first = np.searchsorted(src[by_src], dst, "left")
    n_next = np.searchsorted(src[by_src], dst, "right") - first
    a = np.repeat(np.arange(n_arcs), n_next)
    # for each a in turn, b runs through by_src[first[a] : first[a] + n_next[a]]
    b = by_src[np.repeat(first - np.cumsum(n_next) + n_next, n_next) + np.arange(len(a))]
    keep = uid[a] != uid[b]
    a, b = a[keep], b[keep]

    # Self loops, node blank -> label state, label state -> node blank, label -> label.
    frm = np.concatenate([states, src, arc_states, arc_states[a]])
    to = np.concatenate([states, arc_states, dst, arc_states[b]])
    pred = _neighbour_table(to, frm, n_states)
    initial = np.concatenate([[0], arc_states[src == 0]])
    final = np.concatenate([[n_nodes - 1], arc_states[dst == n_nodes - 1]])

    # Minimal accepted path length: the first frame at which a final state
    # is reachable (n_states + 1 when none ever is).
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
        succ=_neighbour_table(frm, to, n_states),
        state_arc=np.concatenate([no_arc, np.arange(n_arcs)]),
        state_word=np.concatenate([no_arc, word]),
        min_frames=min_frames,
    )


def _neighbour_table(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Column r lists the ``cols`` paired with row r, ascending, padded with n."""
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    count = np.bincount(rows, minlength=n)
    table = np.full((count.max(), n), n, dtype=np.intp)
    table[np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count), rows] = cols
    return table


def path_stats(g: WordSegDAG | UttLattice) -> tuple[int, int, int]:
    """(path count, shortest label length, longest label length) by DP."""
    count, _, lo, hi = _label_path_dp(g)
    return count, lo, hi


def path_length_stats(g: WordSegDAG | UttLattice) -> tuple[int, float]:
    """(path count, mean label length over all paths)."""
    count, total, _, _ = _label_path_dp(g)
    return count, total / count if count else 0.0


def _label_path_dp(g):
    lattice = lattice_from_dag(g) if isinstance(g, WordSegDAG) else g
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


def dump_graph(graph: CtcGraph, vocab: Vocabulary | None = None) -> str:
    """Line-oriented dump (`state id label`, `arc from to`) for golden tests."""
    lines = [GRAPH_HEADER]
    for s in range(graph.n_states):
        uid = int(graph.labels[s])
        if vocab is not None:
            label = vocab.spelling(uid)
        else:
            label = "eps" if uid == graph.blank else str(uid)
        lines.append(f"state {s} {label}")
    for u, v in graph.transitions():
        lines.append(f"arc {u} {v}")
    for s in graph.initial:
        lines.append(f"initial {int(s)}")
    for s in graph.final:
        lines.append(f"final {int(s)}")
    return "\n".join(lines) + "\n"


def dump_dag(dag: WordSegDAG, vocab: Vocabulary | None = None) -> str:
    lines = [DAG_HEADER]
    for n, pos in enumerate(dag.node_pos):
        lines.append(f"node {n} {pos}")
    for u, v, uid in dag.arcs:
        label = vocab.spelling(uid) if vocab is not None else str(uid)
        lines.append(f"arc {u} {v} {label}")
    return "\n".join(lines) + "\n"
