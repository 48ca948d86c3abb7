"""Segment text without audio.

Words present in the final table take their stored variants (argmax weight
or a weighted draw); unknown words are segmented by an n-gram model over
subword units, maximized with a dynamic program over split positions.  The
single-character units force-inserted into the vocabulary guarantee every
word over the training alphabet gets some segmentation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import located, read_rows
from .vocab import SegMode, SegTable, Unit, Vocabulary, marked, parse_marked

BOS = "<s>"
EOS = "</s>"

LM_HEADER = "#adsm-lm-v1"


@dataclass
class SubwordNgramLM:
    """Add-k smoothed n-gram model over marked unit spellings.

    Histories are fixed-length ``order - 1`` tuples (front-padded with the
    start symbol); predicted events are every unit of the vocabulary plus the
    end symbol, so conditionals sum to one for any history.
    """

    order: int
    add_k: float
    events: tuple[str, ...]
    counts: dict[tuple[str, ...], dict[str, float]] = field(default_factory=dict)
    totals: dict[tuple[str, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if not (math.isfinite(self.add_k) and self.add_k > 0):
            raise ValueError("smoothing constant must be finite and positive")
        if EOS not in self.events:
            raise ValueError("event inventory must contain the end symbol")
        if len(set(self.events)) != len(self.events):
            raise ValueError("event inventory repeats an event")
        self._event_set = set(self.events)
        self._memo: dict[tuple[str, tuple[str, ...]], float] = {}

    def _history(self, tokens: tuple[str, ...]) -> tuple[str, ...]:
        ctx = (BOS,) * (self.order - 1) + tokens
        return ctx[len(ctx) - (self.order - 1) :] if self.order > 1 else ()

    def add(self, history: tuple[str, ...], event: str, weight: float) -> None:
        per = self.counts.setdefault(history, {})
        per[event] = per.get(event, 0.0) + weight
        self.totals[history] = self.totals.get(history, 0.0) + weight
        self._memo.clear()

    def logp(self, event: str, history: tuple[str, ...]) -> float:
        """log P(event | last order-1 tokens), smoothed; memoized on (event,
        fixed-length history), at most events x distinct histories entries,
        and :meth:`add` clears the memo."""
        return self._logp(event, self._history(history))

    def _logp(self, event: str, h: tuple[str, ...]) -> float:
        """:meth:`logp` for a history already cut to ``order - 1`` tokens."""
        lp = self._memo.get((event, h))
        if lp is None:
            if event not in self._event_set:
                raise KeyError(f"unknown event {event!r}")
            c = self.counts.get(h, {}).get(event, 0.0)
            tot = self.totals.get(h, 0.0)
            lp = self._memo[event, h] = math.log((c + self.add_k) / (tot + self.add_k * len(self.events)))
        return lp

    def score(self, tokens) -> float:
        """Total log-probability of a unit sequence including its end event."""
        tokens = tuple(tokens)
        lp = 0.0
        for i, tok in enumerate(tokens):
            lp += self.logp(tok, tokens[:i])
        return lp + self.logp(EOS, tokens)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(LM_HEADER + "\n")
            fh.write(f"order\t{self.order}\n")
            fh.write(f"add_k\t{self.add_k!r}\n")
            fh.write("events\t" + " ".join(self.events) + "\n")
            for h in sorted(self.counts):
                per = self.counts[h]
                for event in sorted(per):
                    hs = " ".join(h) if h else "-"
                    fh.write(f"ngram\t{hs}\t{event}\t{per[event]!r}\n")

    @classmethod
    def load(cls, path) -> "SubwordNgramLM":
        meta = {}
        rows = []
        for lineno, parts in read_rows(path, LM_HEADER):
            with located(path, lineno):
                if parts[0] == "ngram":
                    if len(parts) != 4:
                        raise ValueError("expected ngram<TAB>hist<TAB>event<TAB>count")
                    rows.append((lineno, *parts[1:]))
                elif (len(parts) != 2 or parts[0] not in ("order", "add_k", "events")
                      or parts[0] in meta):
                    raise ValueError(f"expected one new metadata key<TAB>value, not {parts[0]!r}")
                else:
                    meta[parts[0]] = parts[1]
        with located(path, what="bad LM metadata"):
            lm = cls(order=int(meta["order"]), add_k=float(meta["add_k"]),
                     events=tuple(meta["events"].split()))
        units = lm._event_set - {EOS}
        for lineno, hs, event, count_s in rows:
            h = () if hs == "-" else tuple(hs.split())
            with located(path, lineno):
                try:
                    count = float(count_s)
                except ValueError:
                    raise ValueError(f"count {count_s!r} is not a number") from None
                if not (math.isfinite(count) and count > 0):
                    raise ValueError(f"count {count_s!r} is not finite and positive")
                if event not in lm._event_set:
                    raise ValueError(f"event {event!r} is not in the inventory")
                if len(h) != lm.order - 1 or not all(t == BOS or t in units for t in h):
                    raise ValueError(f"history {hs!r} is not {lm.order - 1} start "
                                     "symbols or units")
                if event in lm.counts.get(h, ()):
                    raise ValueError(f"repeated row for history {hs!r} and event {event!r}")
                lm.add(h, event, count)
        return lm


def train_lm(table: SegTable, order: int = 2, add_k: float = 0.1) -> SubwordNgramLM:
    """Count every variant of every word, weighted by its table weight."""
    if table.mode is not SegMode.EXPLICIT:
        raise ValueError("training the LM needs an explicit table")
    if not len(table):
        raise ValueError("empty segmentation table")
    events = tuple(sorted(marked(u) for u in table.vocab)) + (EOS,)
    lm = SubwordNgramLM(order=order, add_k=add_k, events=events)
    for word in table.words():
        for units, weight in table.unit_variants(word):
            tokens = tuple(marked(u) for u in units)
            for i, tok in enumerate(tokens):
                lm.add(lm._history(tokens[:i]), tok, weight)
            lm.add(lm._history(tokens), EOS, weight)
    return lm


def _segment_dp(word: str, vocab: Vocabulary, lm: SubwordNgramLM):
    """Highest-scoring unit sequence spelling the word.

    States are (character position, LM history), one dict of LM histories
    per position, filled in position order; ties fall to fewer units, then
    to the lexicographically smallest token sequence.
    """
    L = len(word)
    # spans[i]: units starting at i as (end position, unit, token)
    spans: list[list[tuple[int, Unit, str]]] = [[] for _ in range(L)]
    for i in range(L):
        for j in range(i + 1, L + 1):
            unit = (word[i:j], j == L)
            if unit in vocab.id_of:
                tok = marked(unit)
                if tok not in lm._event_set:
                    raise ValueError(f"unit {tok!r} of the vocabulary is not an event of the LM")
                spans[i].append((j, unit, tok))
    # layers[pos]: LM history -> best (score, units used, tokens, units) at pos
    layers: list[dict] = [{} for _ in range(L + 1)]
    layers[0][lm._history(())] = (0.0, 0, (), ())
    for pos in range(L):
        for hist, (score, n, toks, units) in layers[pos].items():
            for j, unit, tok in spans[pos]:
                cand = (score + lm._logp(tok, hist), n + 1, toks + (tok,), units + (unit,))
                nxt = (hist + (tok,))[1:]               # the fixed-length history after tok
                cur = layers[j].get(nxt)
                if cur is None or _better(cand, cur):
                    layers[j][nxt] = cand
    done = None
    for hist, (score, n, toks, units) in layers[L].items():
        cand = (score + lm._logp(EOS, hist), n, toks, units)
        if done is None or _better(cand, done):
            done = cand
    return done


def _better(a, b) -> bool:
    """Higher score, then fewer units, then smaller token sequence."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


def _variant_cdf(table: SegTable, word: str):
    """A seen word's variants as unit tuples, and the cumulative distribution
    of their weights.  ``cdf.searchsorted(u, side="right")`` of a uniform u
    is the pick Generator.choice(len(variants), p=p) makes from the same
    draw, without its per-call checks of p (the SegTable constructor
    enforces weights in (0, 1] summing to 1)."""
    variants = table.unit_variants(word)
    weights = np.array([w for _, w in variants])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return [units for units, _ in variants], cdf


def segment_word(word: str, table: SegTable, lm: SubwordNgramLM,
                 mode: str = "best",
                 rng: np.random.Generator | int | None = None) -> tuple[Unit, ...]:
    """One segmentation of ``word``.

    Seen words use their stored variants: ``best`` takes the heaviest
    (ties: lexicographically smallest), ``sample`` draws by weight.  Unseen
    words always take the LM-optimal segmentation.
    """
    if mode not in ("best", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if word in table:
        if mode == "best":
            return tuple(table.vocab.unit(i) for i in table.best_variant(word))
        variants, cdf = _variant_cdf(table, word)
        return variants[int(cdf.searchsorted(np.random.default_rng(rng).random(), side="right"))]
    result = _segment_dp(word, table.vocab, lm)
    if result is None:
        missing = sorted({ch for ch in word if (ch, True) not in table.vocab
                          and (ch, False) not in table.vocab})
        raise ValueError(
            f"cannot segment {word!r}: characters {missing!r} are outside the alphabet"
            if missing else f"cannot segment {word!r} with the current vocabulary")
    return result[3]


def segment_corpus(lines, table: SegTable, lm: SubwordNgramLM,
                   mode: str = "best", seed: int = 0) -> list[str]:
    """Space-joined marked tokens per line; word-end markers make the
    mapping invertible.

    A first pass gives each word that draws nothing (every word in ``best``
    mode, unseen words in ``sample`` mode) its token string once, through
    :func:`segment_word`, and numbers the draws of ``sample`` mode, one per
    seen-word occurrence in corpus order, collecting each word's numbers.
    The draws take one uniform array, the stream of one draw each.  A second
    pass joins each line from per-word strings, so the lines equal
    segmenting every occurrence with :func:`segment_word` and one generator.
    """
    if mode not in ("best", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    lines = list(lines)
    rng = np.random.default_rng(seed)
    strings: dict[str, str] = {}           # word -> its tokens; "" if it draws
    draws: dict[str, array] = {}           # word that draws -> its draw numbers
    n = 0
    for line in lines:
        for word in line.split():
            if word not in strings:
                if mode == "sample" and word in table:
                    strings[word], draws[word] = "", array("i")
                else:
                    strings[word] = " ".join(map(marked, segment_word(word, table, lm, mode, rng)))
            if word in draws:
                draws[word].append(n)
                n += 1
    take = _draw_variants(table, draws, rng.random(n))
    return [" ".join([strings[w] or take[w]() for w in line.split()]) for line in lines]


def _draw_variants(table: SegTable, draws: dict[str, array], u: np.ndarray) -> dict:
    """Per word, a callable returning its drawn token strings in corpus
    order: its uniforms ``u[draws[word]]`` map to variants by one search of
    its cdf.  A function of its own, so ``u`` is freed before lines are built."""
    take = {}
    for word, at in draws.items():
        variants, cdf = _variant_cdf(table, word)
        choices = [" ".join(map(marked, units)) for units in variants]
        picks = cdf.searchsorted(u[np.frombuffer(at, dtype=np.intc)], side="right")
        take[word] = iter([choices[k] for k in picks.tolist()]).__next__
    return take


def detokenize(line: str) -> str:
    """Rebuild the word sequence from marked tokens; inverse of
    :func:`segment_corpus` on its output."""
    words = []
    current: list[str] = []
    for token in line.split():
        spelling, word_end = parse_marked(token)
        current.append(spelling)
        if word_end:
            words.append("".join(current))
            current = []
    if current:
        raise ValueError("dangling tokens: line does not end a word")
    return " ".join(words)
