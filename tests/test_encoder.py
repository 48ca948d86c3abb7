import math

import numpy as np
import pytest

from adsm import encoder
from adsm.encoder import (CHUNK, EncoderParams, TrainConfig, encode, init_params,
                          load_params, resize_output, save_params, subsampled_length,
                          train, utterance_grads)
from adsm.ctc import _log_space_loss, batch_log_loss, log_loss
from adsm.errors import FormatError, NumericalError
from adsm.lattice import build_word_dag_implicit, concat_utterance, ctc_expand
from adsm.vocab import Vocabulary
from conftest import chars_vocab
from _reference import flatten_params, n_params, set_flat_params


def test_train_config_validation():
    TrainConfig()
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(decay=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(holdout_fraction=1.0)


def test_subsampled_length_is_iterated_ceil():
    rng = np.random.default_rng(5)
    for _ in range(200):
        T = int(rng.integers(1, 50))
        f = 2 ** int(rng.integers(0, 4))
        want = T
        k = f
        while k > 1:
            want = math.ceil(want / 2)
            k //= 2
        assert subsampled_length(T, f) == want
    assert subsampled_length(17, 1) == 17


def test_init_params_shapes_and_pool_schedule():
    p = init_params(6, (8, 5), 4, subsample_factor=4, radii=(1, 0), seed=0)
    assert p.hidden_sizes == (8, 5)
    assert p.weights[0].shape == (3 * 6, 8)
    assert p.weights[1].shape == (8, 5)
    assert p.out_w.shape == (5, 4)
    assert p.pool_after == (0, 1)
    assert init_params(6, (8, 5), 4, subsample_factor=8).pool_after == (0, 1, 1)
    assert init_params(6, (8,), 4, subsample_factor=4).pool_after == (0, 0)
    with pytest.raises(ValueError, match="power of two"):
        init_params(6, (8,), 4, subsample_factor=3)
    with pytest.raises(ValueError, match="radius"):
        init_params(6, (8, 5), 4, radii=(1,))


def test_encode_shape_and_normalization():
    rng = np.random.default_rng(9)
    for factor in (1, 2, 4):
        p = init_params(5, (7,), 4, subsample_factor=factor, seed=1)
        for T in (1, 3, 8, 11):
            x = rng.standard_normal((T, 5))
            logp = encode(x, p)
            assert logp.shape == (subsampled_length(T, factor), 4)
            np.testing.assert_allclose(np.exp(logp).sum(axis=1), 1.0, rtol=1e-12)
    with pytest.raises(ValueError, match="expected"):
        encode(rng.standard_normal((4, 3)), p)


def test_encode_raises_where_finite_weights_overflow():
    rng = np.random.default_rng(4)
    p = init_params(8, (16,), 5, 2, (0,), seed=0)
    p.out_w[:] = 1e308          # finite, but the output scores overflow
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            encode(rng.standard_normal((6, 8)), p)


def test_encode_matches_manual_single_layer():
    # radius 1, no pooling: one affine + tanh + affine + log softmax
    rng = np.random.default_rng(13)
    p = init_params(3, (4,), 5, subsample_factor=1, radii=(1,), seed=2)
    x = rng.standard_normal((6, 3))
    xp = np.vstack([np.zeros(3), x, np.zeros(3)])
    ctx = np.hstack([xp[t : t + 3].ravel() for t in range(6)]).reshape(6, 9)
    h = np.tanh(ctx @ p.weights[0] + p.biases[0])
    score = h @ p.out_w + p.out_b
    want = score - np.log(np.exp(score).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(encode(x, p), want, atol=1e-12)


def test_pooling_keeps_pairwise_max():
    # with frame-local context, swapping a pooling pair cannot change the output
    rng = np.random.default_rng(17)
    p = init_params(4, (6,), 3, subsample_factor=2, radii=(0,), seed=3)
    x = rng.standard_normal((8, 4))
    swapped = x.copy()
    for k in range(0, 8, 2):
        swapped[[k, k + 1]] = swapped[[k + 1, k]]
    np.testing.assert_allclose(encode(x, p), encode(swapped, p), atol=1e-12)


def small_graph(vocab_word="ab"):
    vocab = chars_vocab(vocab_word)
    dag = build_word_dag_implicit(vocab_word, vocab)
    return vocab, ctc_expand(dag, vocab)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(19)
    for factor in (1, 2):
        vocab, graph = small_graph()
        p = init_params(3, (4,), vocab.num_classes, subsample_factor=factor, seed=4)
        assert n_params(p) <= 100
        T = graph.min_frames * factor + 2
        x = rng.standard_normal((T, 3))
        _, grads = utterance_grads(x, graph, p)
        flat_g = np.concatenate([g.ravel() for g in grads])
        theta = flatten_params(p)
        eps = 1e-4
        for k in rng.choice(theta.size, size=12, replace=False):
            step = np.zeros_like(theta)
            step[k] = eps
            set_flat_params(p, theta + step)
            up, _ = utterance_grads(x, graph, p)
            set_flat_params(p, theta - step)
            dn, _ = utterance_grads(x, graph, p)
            set_flat_params(p, theta)
            fd = (up - dn) / (2 * eps)
            assert flat_g[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def toy_dataset(n=12, T=6, seed=0):
    """Two prototype classes, one single-letter word each."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_units([("a", True), ("b", True)])
    protos = {"a": rng.standard_normal(3), "b": rng.standard_normal(3)}
    data = []
    for i in range(n):
        word = "ab"[i % 2]
        x = protos[word] + 0.05 * rng.standard_normal((T, 3))
        lat = build_word_dag_implicit(word, vocab)
        data.append((x, ctc_expand(lat, vocab)))
    return vocab, data


def test_train_reduces_loss_and_is_seeded():
    vocab, data = toy_dataset()
    cfg = TrainConfig(learning_rate=0.5, epochs=15, seed=7, holdout_fraction=0.25)
    p1 = init_params(3, (6,), vocab.num_classes, seed=5)
    r1 = train(data, p1, cfg)
    assert r1.params is p1
    assert len(r1.curve) == 15
    assert r1.skipped == 0
    assert r1.curve[-1][0] < r1.curve[0][0]
    assert all(np.isfinite(h) for _, h in r1.curve)
    p2 = init_params(3, (6,), vocab.num_classes, seed=5)
    r2 = train(data, p2, cfg)
    np.testing.assert_array_equal(flatten_params(p1), flatten_params(p2))


def test_train_restores_best_holdout_epoch():
    vocab, data = toy_dataset()
    cfg = TrainConfig(learning_rate=0.5, epochs=10, seed=7, holdout_fraction=0.25)
    p = init_params(3, (6,), vocab.num_classes, seed=5)
    result = train(data, p, cfg)
    best = min(h for _, h in result.curve)
    rng = np.random.default_rng(7)
    order = rng.permutation(len(data))
    hold = [data[i] for i in order[: int(round(0.25 * len(data)))]]
    final = float(np.mean([log_loss(g, encode(x, p))[0] for x, g in hold]))
    assert final == pytest.approx(best, abs=1e-12)


def test_train_holdout_leaves_one_utterance_to_train_on():
    vocab, data = toy_dataset()
    cfg = TrainConfig(learning_rate=0.5, epochs=2, seed=7, holdout_fraction=0.9)
    # one utterance: nothing is held out and the training loss is monitored
    p = init_params(3, (6,), vocab.num_classes, seed=5)
    result = train(data[:1], p, cfg)
    assert all(math.isnan(h) for _, h in result.curve)
    # two utterances: 0.9 rounds to both, but one is kept for training, so the
    # first epoch's training loss is one utterance's loss under the initial model
    p = init_params(3, (6,), vocab.num_classes, seed=5)
    initial = [log_loss(g, encode(x, p))[0] for x, g in data[:2]]
    result = train(data[:2], p, cfg)
    assert all(np.isfinite(h) for _, h in result.curve)
    assert result.curve[0][0] in initial


def test_train_skips_infeasible_and_rejects_empty():
    vocab, data = toy_dataset(n=6, T=6)
    v2 = chars_vocab("ab")
    two_label = ctc_expand(build_word_dag_implicit("ab", v2), v2)
    # raw T=2 pools to one frame at factor 4; two labels cannot fit
    p = init_params(3, (6,), vocab.num_classes, subsample_factor=4, seed=5)
    short = (np.zeros((2, 3)), two_label)
    result = train(data + [short], p, TrainConfig(epochs=1, seed=0))
    assert result.skipped == 1
    with pytest.raises(ValueError, match="infeasible"):
        train([short], p, TrainConfig(epochs=1, seed=0))


def test_train_expands_lattices_and_rejects_other_items():
    vocab, data = toy_dataset(n=6)
    lattices = [build_word_dag_implicit("ab"[i % 2], vocab) for i in range(6)]
    cfg = TrainConfig(learning_rate=0.5, epochs=3, seed=7)
    p1 = init_params(3, (6,), vocab.num_classes, seed=5)
    p2 = init_params(3, (6,), vocab.num_classes, seed=5)
    mixed = [(x, lat if i % 3 else g) for i, ((x, g), lat) in enumerate(zip(data, lattices))]
    assert train(mixed, p1, cfg, vocab).curve == train(data, p2, cfg).curve
    np.testing.assert_array_equal(flatten_params(p1), flatten_params(p2))
    with pytest.raises(ValueError, match="requires the vocabulary"):
        train(mixed, p1, cfg)
    with pytest.raises(TypeError, match="expected UttLattice or CtcGraph"):
        train(data + [(data[0][0], "ab")], p1, cfg, vocab)


def test_resize_output_modes():
    p = init_params(3, (6, 4), 5, subsample_factor=2, seed=11)
    q = resize_output(p, 8, 2, seed=12)
    for got, kept in zip(q.weights + q.biases, p.weights + p.biases):
        np.testing.assert_array_equal(got, kept)
        assert got is not kept
    assert (q.num_classes, q.subsample_factor, q.pool_after) == (8, 2, (0,))
    assert p.num_classes == 5
    np.testing.assert_array_equal(
        q.out_w, np.random.default_rng(12).standard_normal((4, 8)) / np.sqrt(4))
    np.testing.assert_array_equal(q.out_b, np.zeros(8))
    with pytest.raises(ValueError, match="output classes"):
        resize_output(p, 1, 2)


def test_set_subsample_redistributes_pools():
    p = init_params(3, (6, 4), 5, subsample_factor=2, seed=11)
    assert p.pool_after == (0,)
    q = resize_output(p, 8, 4, seed=12)
    assert (q.num_classes, q.subsample_factor, q.pool_after) == (8, 4, (0, 1))
    assert (p.num_classes, p.subsample_factor, p.pool_after) == (5, 2, (0,))
    assert encode(np.ones((9, 3)), q).shape == (3, 8)
    for factor in (0, 3, 6):
        with pytest.raises(ValueError, match="power of two"):
            resize_output(p, 8, factor)


def test_params_save_load_round_trip(tmp_path):
    p = init_params(3, (5, 4), 6, subsample_factor=2, radii=(1, 0), seed=13)
    path = tmp_path / "params.txt"
    save_params(p, path)
    q = load_params(path)
    assert (q.input_dim, q.num_classes, q.subsample_factor) == (3, 6, 2)
    assert q.radii == (1, 0)
    assert q.pool_after == p.pool_after
    np.testing.assert_array_equal(flatten_params(q), flatten_params(p))
    first = path.read_bytes()
    save_params(q, path)
    assert path.read_bytes() == first


@pytest.mark.parametrize("hidden", [(5, 4), (0,)])
def test_params_file_holds_one_repr_per_value(tmp_path, hidden):
    p = init_params(3, hidden, 6, radii=(1,) * len(hidden), seed=3)
    path = tmp_path / "params.txt"
    save_params(p, path)
    head = path.read_text().partition("array\t")[0]
    want = head + "".join(
        f"array\t{name}\t{' '.join(map(str, a.shape))}\n"
        + "".join(repr(float(v)) + "\n" for v in a.ravel())
        for name, a in encoder._named_arrays(p))
    assert path.read_bytes() == want.encode()


def test_params_load_rejects_bad_files(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("wrong\n")
    with pytest.raises(FormatError, match="header"):
        load_params(path)
    p = init_params(3, (4,), 5, seed=0)
    save_params(p, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(FormatError):
        load_params(path)
    for key, bad in (("subsample_factor", "3"), ("num_classes", "1"), ("radii", "1 1"),
                     ("hidden", "")):
        edited = [f"{key}\t{bad}" if l.startswith(key + "\t") else l for l in lines]
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(FormatError, match="metadata") as err:
            load_params(path)
        assert err.value.path == path


def test_params_load_rejects_non_finite_values_and_bad_array_lines(tmp_path):
    path = tmp_path / "params.txt"
    save_params(init_params(3, (4,), 5, seed=0), path)
    lines = path.read_text().splitlines()
    first_value = lines.index(next(l for l in lines if l.startswith("array\t"))) + 1
    for bad in ("nan", "inf", "-inf"):
        edited = lines[:first_value] + [bad] + lines[first_value + 1:]
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(FormatError, match="non-finite"):
            load_params(path)
    for bad in ("array\tw0", "array\tw0\tthree 4", "arrays\tw0\t12 4"):
        edited = lines[:first_value - 1] + [bad] + lines[first_value:]
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(FormatError, match="array"):
            load_params(path)


def test_params_load_names_the_line_of_an_unknown_repeated_or_bad_entry(tmp_path):
    path = tmp_path / "params.txt"
    save_params(init_params(3, (4,), 5, seed=0), path)
    lines = path.read_text().splitlines()
    first_value = lines.index(next(l for l in lines if l.startswith("array\t"))) + 1
    cases = [
        (lines[:1] + ["learning_rate\t7"] + lines[1:], 2, "learning_rate"),
        (lines[:2] + ["input_dim\t3"] + lines[2:], 3, "input_dim"),
        (lines + ["array\tw9\t1", "0.5"], len(lines) + 1, "w9"),
        ([l if not l.startswith("radii\t") else "radii\t-1" for l in lines], 5, "radii"),
        (lines[:first_value + 5] + ["0.5x"] + lines[first_value + 6:], first_value + 6, "0.5x"),
        (lines[:first_value + 5] + ["-inf"] + lines[first_value + 6:], first_value + 6,
         "non-finite"),
    ]
    for edited, line, message in cases:
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(FormatError, match=message) as err:
            load_params(path)
        assert err.value.line == line


def mixed_items(rng, n, factor, dim=3):
    """Utterances of 1-3 words over a vocabulary with multi-letter units, so
    lattices have several paths; lengths are mixed, odd ones included."""
    vocab = Vocabulary.from_units(
        [(c, e) for c in "abc" for e in (False, True)]
        + [("ab", False), ("ab", True), ("bc", True), ("ca", False)])
    items = []
    for _ in range(n):
        words = rng.choice(["a", "ab", "abc", "cab", "bca"], size=int(rng.integers(1, 4)))
        lat = concat_utterance([build_word_dag_implicit(w, vocab) for w in words])
        graph = ctc_expand(lat, vocab)
        T = graph.min_frames * factor + int(rng.integers(0, 6))
        items.append((rng.standard_normal((T, dim)), graph))
    return vocab, items


def arrays_close(got, want, rel=1e-12):
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= rel * np.abs(w).max()


@pytest.mark.parametrize("factor", [1, 2, 4])
@pytest.mark.parametrize("radii", [(0,), (1,), (1, 0), (0, 1)])
def test_batched_step_equals_per_utterance_calls(factor, radii):
    rng = np.random.default_rng(factor * 10 + len(radii) + sum(radii))
    vocab, items = mixed_items(rng, 11, factor)
    hidden = (6,) if len(radii) == 1 else (6, 5)
    p = init_params(3, hidden, vocab.num_classes, factor, radii, seed=2)
    for batch in (items, items[:1], items[3:5]):
        xs, graphs = zip(*batch)
        with np.errstate(all="raise"):
            logp, lengths, _ = encoder._forward(*encoder._pad(xs, p), p)
            losses, occ = batch_log_loss(graphs, logp, lengths)
            step_losses, step_grads = encoder._batch_step(batch, p)
            hold_losses, none = encoder._batch_step(batch, p, grads=False)
            singles = [utterance_grads(x, g, p) for x, g in batch]
        assert none is None
        assert lengths.tolist() == [subsampled_length(len(x), factor) for x in xs]
        ref_losses, ref_occ = _log_space_loss(graphs, logp, lengths, True)
        assert np.all(np.abs(losses - ref_losses) <= 1e-12 * np.maximum(1.0, np.abs(ref_losses)))
        assert np.abs(occ - ref_occ).max() <= 1e-12
        for b, (x, g) in enumerate(batch):
            n = lengths[b]
            want_loss, want_occ = log_loss(g, encode(x, p))
            np.testing.assert_array_equal(logp[b, :n], encode(x, p))
            np.testing.assert_array_equal(occ[b, :n], want_occ)
            assert not occ[b, n:].any()
            assert losses[b] == step_losses[b] == hold_losses[b] == want_loss == singles[b][0]
        arrays_close(step_grads, [sum(gs) for gs in zip(*(g for _, g in singles))])


def reference_first_epoch(data, params, config):
    """train's first epoch with full-batch gradients summed utterance by
    utterance: (training loss, holdout loss, updated parameters)."""
    order = np.random.default_rng(config.seed).permutation(len(data))
    n_hold = int(round(config.holdout_fraction * len(data)))
    hold = [data[i] for i in order[:n_hold]]
    trainset = [data[i] for i in order[n_hold:]]
    results = [utterance_grads(x, g, params) for x, g in trainset]
    grads = [sum(gs) for gs in zip(*(g for _, g in results))]
    scale = 1.0 / len(trainset)
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads)) * scale
    if norm > config.clip:
        scale *= config.clip / norm
    for a, g in zip(params.arrays(), grads):
        a -= config.learning_rate * scale * g
    hold_loss = float(np.mean([log_loss(g, encode(x, params))[0] for x, g in hold]))
    return float(np.mean([loss for loss, _ in results])), hold_loss, params


def test_full_batch_training_spans_several_chunks():
    rng = np.random.default_rng(31)
    vocab, data = mixed_items(rng, 3 * CHUNK + 5, 2)
    config = TrainConfig(learning_rate=0.5, epochs=1, batch_size=0, seed=3,
                         holdout_fraction=0.4)
    p = init_params(3, (6,), vocab.num_classes, 2, (1,), seed=8)
    train_loss, hold_loss, want = reference_first_epoch(
        data, init_params(3, (6,), vocab.num_classes, 2, (1,), seed=8), config)
    with np.errstate(all="raise"):
        result = train(data, p, config)
    assert result.curve[0][0] == train_loss
    assert result.curve[0][1] == pytest.approx(hold_loss, rel=1e-12)
    arrays_close(p.arrays(), want.arrays())


def test_holdout_is_evaluated_in_length_order(monkeypatch):
    rng = np.random.default_rng(37)
    vocab, data = mixed_items(rng, 2 * CHUNK + 30, 2)
    config = TrainConfig(learning_rate=0.5, epochs=3, batch_size=0, seed=4,
                         holdout_fraction=0.5)
    p = init_params(3, (6,), vocab.num_classes, 2, (1,), seed=9)
    order = np.random.default_rng(config.seed).permutation(len(data))
    hold = [data[i] for i in order[:len(data) // 2]]
    per_epoch = -(-len(hold) // CHUNK)
    chunks, in_order = [], []   # holdout chunk lengths; each epoch's in-order loss
    step = encoder._batch_step

    def recording(items, params, grads=True):
        if not grads:
            if len(chunks) % per_epoch == 0:    # an epoch's first holdout chunk
                in_order.append(float(np.mean(np.concatenate(
                    [step(hold[lo : lo + CHUNK], params, grads=False)[0]
                     for lo in range(0, len(hold), CHUNK)]))))
            chunks.append([len(x) for x, _ in items])
        return step(items, params, grads)

    monkeypatch.setattr(encoder, "_batch_step", recording)
    result = train(data, p, config)
    assert per_epoch > 1 and len(chunks) == per_epoch * config.epochs
    for epoch, (_, hold_loss) in enumerate(result.curve):
        lengths = [n for chunk in chunks[epoch * per_epoch : (epoch + 1) * per_epoch]
                   for n in chunk]
        assert lengths == sorted(len(x) for x, _ in hold) and lengths[0] < lengths[-1]
        assert hold_loss == in_order[epoch]


def test_overflowing_checkpoint_fails_at_the_first_batch(monkeypatch):
    rng = np.random.default_rng(5)
    vocab, data = mixed_items(rng, 2 * CHUNK, 2)
    p = init_params(3, (6,), vocab.num_classes, 2, (0,), seed=0)
    p.out_w[:] = 1e308          # finite, but the output scores overflow
    calls = []
    forward = encoder._forward
    monkeypatch.setattr(encoder, "_forward", lambda *a: calls.append(1) or forward(*a))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            train(data, p, TrainConfig(epochs=1, batch_size=0))
    assert len(calls) == 1
