"""Segment text without audio.

Words present in the final table take their stored variants (argmax weight
or a weighted draw); unknown words are segmented by an n-gram model over
subword units, maximized with a dynamic program over split positions.  The
single-character units force-inserted into the vocabulary guarantee every
word over the training alphabet gets some segmentation.
"""

from __future__ import annotations

import math
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

    def _history(self, tokens: tuple[str, ...]) -> tuple[str, ...]:
        ctx = (BOS,) * (self.order - 1) + tokens
        return ctx[len(ctx) - (self.order - 1) :] if self.order > 1 else ()

    def add(self, history: tuple[str, ...], event: str, weight: float) -> None:
        per = self.counts.setdefault(history, {})
        per[event] = per.get(event, 0.0) + weight
        self.totals[history] = self.totals.get(history, 0.0) + weight

    def logp(self, event: str, history: tuple[str, ...]) -> float:
        """log P(event | last order-1 tokens), smoothed."""
        if event not in self._event_set:
            raise KeyError(f"unknown event {event!r}")
        h = self._history(history)
        c = self.counts.get(h, {}).get(event, 0.0)
        tot = self.totals.get(h, 0.0)
        return math.log((c + self.add_k) / (tot + self.add_k * len(self.events)))

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

    States are (character position, LM history); ties fall to fewer units,
    then to the lexicographically smallest token sequence.
    """
    L = len(word)
    # spans[i]: units starting at i as (end position, unit, token)
    spans: list[list[tuple[int, Unit, str]]] = [[] for _ in range(L)]
    for i in range(L):
        for j in range(i + 1, L + 1):
            piece = word[i:j]
            unit = (piece, j == L)
            if unit in vocab:
                tok = marked(unit)
                if tok not in lm._event_set:
                    raise ValueError(f"unit {tok!r} of the vocabulary is not an event of the LM")
                spans[i].append((j, unit, tok))
    best: dict[tuple[int, tuple[str, ...]], tuple[float, int, tuple[str, ...], tuple[Unit, ...]]] = {}
    best[(0, lm._history(()))] = (0.0, 0, (), ())
    done = None
    for pos in range(L + 1):
        states = [s for s in best if s[0] == pos]
        for state in states:
            score, n, toks, units = best[state]
            _, hist = state
            if pos == L:
                cand = (score + lm.logp(EOS, hist), n, toks, units)
                if done is None or _better(cand, done):
                    done = cand
                continue
            for j, unit, tok in spans[pos]:
                cand = (score + lm.logp(tok, hist), n + 1, toks + (tok,), units + (unit,))
                nxt = (j, lm._history(hist + (tok,)))
                cur = best.get(nxt)
                if cur is None or _better(cand, cur):
                    best[nxt] = cand
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
    of their weights."""
    variants = table.unit_variants(word)
    weights = np.array([w for _, w in variants])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return [units for units, _ in variants], cdf


def _draw_variant(variants: list, cdf: np.ndarray, rng: np.random.Generator):
    """The draw Generator.choice(len(variants), p=p) makes, without its
    per-call checks of p (the SegTable constructor enforces weights in (0, 1]
    summing to 1): same pick, same generator state afterwards."""
    return variants[int(cdf.searchsorted(rng.random(), side="right"))]


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
        return _draw_variant(*_variant_cdf(table, word), np.random.default_rng(rng))
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

    A segmentation that draws nothing (every word in ``best`` mode, unseen
    words in ``sample`` mode) is computed once per distinct word, and so are
    the variants and weight distribution a seen word is drawn from in
    ``sample`` mode.  Each occurrence of a seen word takes one draw and unseen
    words none, so the sampled lines are the same as segmenting every
    occurrence with :func:`segment_word`.
    """
    rng = np.random.default_rng(seed)
    fixed: dict[str, list[str]] = {}
    drawn: dict[str, tuple[list[list[str]], np.ndarray]] = {}
    out = []
    for line in lines:
        tokens: list[str] = []
        for word in line.split():
            toks = fixed.get(word)
            if toks is None and mode == "sample" and word in table:
                if word not in drawn:
                    variants, cdf = _variant_cdf(table, word)
                    drawn[word] = [[marked(u) for u in units] for units in variants], cdf
                toks = _draw_variant(*drawn[word], rng)
            elif toks is None:
                toks = [marked(u) for u in segment_word(word, table, lm, mode, rng)]
                fixed[word] = toks
            tokens.extend(toks)
        out.append(" ".join(tokens))
    return out


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
