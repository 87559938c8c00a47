import io
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vh2kg import skipgram, walks
from vh2kg.errors import (EmptyCorpus, IndexOutOfRange, MalformedVectors,
                          UnknownToken)
from vh2kg.skipgram import (EmbeddingModel, SkipGramConfig, build_vocab,
                            cosine_neighbors, cosine_similarity,
                            export_vectors, init_model, parse_vectors,
                            predict_probability, sg_loss_and_grad,
                            softmax_probabilities, train_skipgram)
from vh2kg.walks import WalkConfig, WalkCorpus, wl_relabel


def random_model(rng, vocab_size, dim):
    vocab = [f"tok{i}" for i in range(vocab_size)]
    model = EmbeddingModel(vocab,
                           rng.standard_normal((vocab_size, dim)),
                           rng.standard_normal((vocab_size, dim)))
    return model


def numeric_gradients(model, center, context, eps=1e-5):
    """Central finite differences of the loss in every parameter."""
    g_in = np.zeros_like(model.input_vectors)
    g_out = np.zeros_like(model.output_vectors)
    for mat, grad in ((model.input_vectors, g_in),
                      (model.output_vectors, g_out)):
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = mat[idx]
            mat[idx] = orig + eps
            up, _, _ = sg_loss_and_grad(model, center, context)
            mat[idx] = orig - eps
            down, _, _ = sg_loss_and_grad(model, center, context)
            mat[idx] = orig
            grad[idx] = (up - down) / (2 * eps)
    return g_in, g_out


def test_gradient_check_small():
    rng = np.random.default_rng(0)
    for _ in range(5):
        model = random_model(rng, int(rng.integers(3, 8)), int(rng.integers(2, 5)))
        center = int(rng.integers(len(model.vocab)))
        context = int(rng.integers(len(model.vocab)))
        _, grad_in, grad_out = sg_loss_and_grad(model, center, context)
        num_in, num_out = numeric_gradients(model, center, context)
        for a, n in ((grad_in, num_in), (grad_out, num_out)):
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            assert np.max(np.abs(a - n) / denom) <= 1e-4


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    model = random_model(rng, 12, 6)
    for c in range(12):
        p = softmax_probabilities(model, c)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert (p > 0).all()


def test_grad_in_nonzero_only_on_center_row():
    rng = np.random.default_rng(2)
    model = random_model(rng, 6, 3)
    _, grad_in, _ = sg_loss_and_grad(model, 2, 4)
    mask = np.zeros(6, dtype=bool)
    mask[2] = True
    assert np.allclose(grad_in[~mask], 0.0)
    assert not np.allclose(grad_in[2], 0.0)


def test_index_bounds():
    rng = np.random.default_rng(3)
    model = random_model(rng, 4, 2)
    with pytest.raises(IndexOutOfRange):
        sg_loss_and_grad(model, 4, 0)
    with pytest.raises(IndexOutOfRange):
        sg_loss_and_grad(model, 0, -5)


def test_bigram_training_under_one_second():
    corpus = WalkCorpus([["a", "b"] * 25] * 10)
    cfg = SkipGramConfig(vector_size=16, window=1, epochs=8,
                         negative_samples=0, learning_rate=0.1, seed=0)
    start = time.perf_counter()
    model, losses = train_skipgram(corpus, cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert predict_probability(model, context="b", center="a") > 0.9
    assert losses[-1] < losses[0]


def test_negative_sampling_reduces_loss():
    rng = np.random.default_rng(4)
    seqs = [[f"w{rng.integers(20)}" for _ in range(15)] for _ in range(20)]
    cfg = SkipGramConfig(vector_size=12, window=3, epochs=5,
                         negative_samples=5, seed=0)
    model, losses = train_skipgram(WalkCorpus(seqs), cfg)
    assert losses[-1] < losses[0]
    assert len(model.vocab) <= 20


def test_training_deterministic():
    seqs = [["x", "y", "z", "x", "y"]] * 6
    cfg = SkipGramConfig(vector_size=8, window=2, epochs=3, seed=5)
    m1, l1 = train_skipgram(WalkCorpus(seqs), cfg)
    m2, l2 = train_skipgram(WalkCorpus(seqs), cfg)
    assert l1 == l2
    assert np.array_equal(m1.input_vectors, m2.input_vectors)


def test_vocab_ordering():
    corpus = WalkCorpus([["b", "a", "b", "c", "c", "c"]])
    vocab, counts = build_vocab(corpus)
    assert vocab == ["c", "b", "a"]
    assert counts.tolist() == [3, 2, 1]


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        train_skipgram(WalkCorpus([]))
    with pytest.raises(EmptyCorpus):
        train_skipgram(WalkCorpus([[]]))


def test_export_parse_round_trip():
    rng = np.random.default_rng(6)
    model = random_model(rng, 5, 4)
    tokens, matrix = parse_vectors(export_vectors(model))
    assert tokens == model.vocab
    assert np.array_equal(matrix, model.input_vectors)


def cell_by_cell_export(model):
    """The vector writer that formats one numpy scalar at a time."""
    lines = []
    for i, token in enumerate(model.vocab):
        cells = "\t".join(repr(float(v)) for v in model.input_vectors[i])
        lines.append(f"{token.translate(walks._TSV_ESCAPE)}\t{cells}")
    return "\n".join(lines) + "\n"


def test_export_matches_the_cell_by_cell_writer():
    rng = np.random.default_rng(12)
    specials = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0,
                         0.1, 1 / 3, 2.0 ** 60])
    for size, dim in ((1, 1), (7, 3), (50, 64)):
        scaled = rng.standard_normal((size, dim)) * 10.0 ** rng.integers(
            -320, 300, size=(size, dim))
        vectors = np.where(rng.random((size, dim)) < 0.3,
                           rng.choice(specials, size=(size, dim)), scaled)
        model = EmbeddingModel([f"t\t{i} \\" for i in range(size)], vectors,
                               np.zeros_like(vectors))
        assert export_vectors(model) == cell_by_cell_export(model)
    assert "-0.0" in export_vectors(EmbeddingModel(["z"], np.array([[-0.0]]),
                                                   np.zeros((1, 1))))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(st.characters(blacklist_categories=("Cs",))
                        | st.sampled_from("\\\t\n\r\u2028tnr")),
                min_size=1, max_size=6, unique=True))
def test_export_parse_round_trip_any_tokens(tokens):
    rng = np.random.default_rng(len(tokens))
    vectors = rng.standard_normal((len(tokens), 3))
    model = EmbeddingModel(tokens, vectors, np.zeros_like(vectors))
    # through a UTF-8 file read in text mode, as the CLI reads it
    data = export_vectors(model).encode("utf-8")
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    parsed, matrix = parse_vectors(text)
    assert parsed == tokens
    assert np.array_equal(matrix, vectors)


@pytest.mark.parametrize("text", [
    "a\t1.0\nb\tx\n",         # not a number
    "a\t1.0\t2.0\nb\t1.0\n",  # ragged
    "a\n",                    # no vector
    "a\\q\t1.0\n",            # unknown escape
    "a\\\t1.0\n",             # escape cut short by the separator
])
def test_parse_vectors_rejects_malformed_rows(text):
    with pytest.raises(MalformedVectors):
        parse_vectors(text)


def test_cosine_neighbors_excludes_self():
    vocab = ["a", "b", "c"]
    vecs = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    model = EmbeddingModel(vocab, vecs, np.zeros_like(vecs))
    neighbors = cosine_neighbors(model, "a", n=2)
    assert [t for t, _ in neighbors] == ["b", "c"]
    assert neighbors[0][1] > neighbors[1][1]
    with pytest.raises(UnknownToken):
        cosine_neighbors(model, "nope")


def test_cosine_similarity_bounds():
    assert cosine_similarity(np.array([1.0, 0]), np.array([2.0, 0])) == pytest.approx(1.0)
    assert cosine_similarity(np.array([1.0, 0]), np.array([0, 3.0])) == pytest.approx(0.0)
    assert cosine_similarity(np.zeros(2), np.array([1.0, 1.0])) == 0.0


def per_pair_reference(corpus, cfg):
    """Negative-sampling SGD one pair at a time: the loop the minibatched
    trainer replaced, kept as its oracle."""
    vocab, counts = build_vocab(corpus)
    model = init_model(vocab, cfg)
    noise = counts ** 0.75
    noise /= noise.sum()
    rng = np.random.default_rng(cfg.seed + 1)
    k = cfg.negative_samples
    signs = np.concatenate(([1.0], -np.ones(k)))
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (1.0 - 0.9 * epoch / cfg.epochs)
        total, n = 0.0, 0
        for seq in corpus.sequences:
            ids = [model.index[t] for t in seq]
            for t, center in enumerate(ids):
                for j in range(max(0, t - cfg.window),
                               min(len(ids), t + cfg.window + 1)):
                    if j == t:
                        continue
                    negatives = rng.choice(len(vocab), size=k, p=noise)
                    v_c = model.input_vectors[center]
                    rows = np.concatenate(([ids[j]], negatives))
                    u = model.output_vectors[rows]
                    scores = 1.0 / (1.0 + np.exp(-(signs * (u @ v_c))))
                    total -= float(np.sum(np.log(np.clip(scores, 1e-12, None))))
                    n += 1
                    coeff = signs * (scores - 1.0)
                    grad_center = coeff @ u
                    np.add.at(model.output_vectors, rows,
                              -lr * np.outer(coeff, v_c))
                    model.input_vectors[center] -= lr * grad_center
        losses.append(total / n)
    return model, losses


def test_batch_of_one_matches_per_pair_sgd(monkeypatch):
    # walks of two tokens with window 1: every occurrence has one context,
    # so its shared negatives are that pair's own
    rng = np.random.default_rng(7)
    corpus = WalkCorpus([[f"w{i}" for i in rng.integers(25, size=2)]
                         for _ in range(30)])
    cfg = SkipGramConfig(vector_size=10, window=1, epochs=3,
                         negative_samples=4, seed=3)
    expected, expected_losses = per_pair_reference(corpus, cfg)
    monkeypatch.setattr(skipgram, "_OCCURRENCES", 1)
    model, losses = train_skipgram(corpus, cfg)
    assert np.allclose(model.input_vectors, expected.input_vectors,
                       rtol=1e-9, atol=0)
    assert np.allclose(model.output_vectors, expected.output_vectors,
                       rtol=1e-9, atol=0)
    assert np.allclose(losses, expected_losses, rtol=1e-9, atol=0)


def pair_arrays(corpus, index, window):
    """Every (center, context) pair in corpus order: sequence by sequence,
    center by center, context positions ascending."""
    centers, contexts = [], []
    for seq in corpus.sequences:
        ids = [index[t] for t in seq]
        for t, center in enumerate(ids):
            for j in range(max(0, t - window), min(len(ids), t + window + 1)):
                if j != t:
                    centers.append(center)
                    contexts.append(ids[j])
    return np.array(centers), np.array(contexts)


def minibatch_reference_epoch(model, centers, contexts, lr, rng, cdf, k):
    """The per-pair minibatch epoch: 128 consecutive pairs, each with its
    own k negatives, every gradient of a batch materialised and summed per
    row with a stable argsort and ``np.add.reduceat``.  Kept as the
    reference for loss levels."""
    def scatter_add(matrix, rows, values):
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        matrix[rows[starts]] += np.add.reduceat(values[order], starts, axis=0)

    signs = np.r_[1.0, -np.ones(k)]
    w_in, w_out = model.input_vectors, model.output_vectors
    total = 0.0
    for lo in range(0, len(centers), 128):
        c = centers[lo:lo + 128]
        negatives = np.searchsorted(cdf, rng.random((len(c), k)), side="right")
        rows = np.concatenate((contexts[lo:lo + 128, None], negatives), axis=1)
        v = w_in[c]
        u = w_out[rows]
        scores = 1.0 / (1.0 + np.exp(-(signs * np.einsum("bkd,bd->bk", u, v))))
        total += -float(np.sum(np.log(np.clip(scores, 1e-12, None))))
        coeff = signs * (scores - 1.0)
        grad_center = np.einsum("bk,bkd->bd", coeff, u)
        grad_out = coeff[:, :, None] * v[:, None, :]
        scatter_add(w_out, rows.ravel(), -lr * grad_out.reshape(-1, v.shape[1]))
        scatter_add(w_in, c, -lr * grad_center)
    return total


def pair_minibatch_reference(corpus, cfg):
    """Training with ``minibatch_reference_epoch``: the trainer before
    negatives were shared per center occurrence."""
    vocab, counts = build_vocab(corpus)
    model = init_model(vocab, cfg)
    centers, contexts = pair_arrays(corpus, model.index, cfg.window)
    noise = counts ** 0.75
    cdf = np.cumsum(noise / noise.sum())
    cdf /= cdf[-1]
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (1.0 - 0.9 * epoch / cfg.epochs)
        total = minibatch_reference_epoch(model, centers, contexts, lr, rng,
                                          cdf, cfg.negative_samples)
        losses.append(total / len(centers))
    return model, losses


def test_minibatches_stay_stable_on_planted_corpus(planted):
    doc, _ = planted
    corpus = wl_relabel(doc, WalkConfig(depth=4, walks_per_entity=100,
                                        wl_iterations=0, seed=6))
    cfg = SkipGramConfig(vector_size=48, window=5, epochs=5, seed=6)
    model, losses = train_skipgram(corpus, cfg)
    assert np.isfinite(losses).all()
    assert all(later < losses[0] for later in losses[1:])
    assert np.isfinite(model.input_vectors).all()
    # shared negatives and larger batches cost little of the final loss
    _, pair_losses = pair_minibatch_reference(corpus, cfg)
    assert losses[-1] == pytest.approx(pair_losses[-1], rel=0.05)


def per_occurrence_reference(corpus, cfg):
    """Negative-sampling SGD over batches of ``skipgram._OCCURRENCES``
    center occurrences, walked one occurrence at a time.  An occurrence's k
    negatives are shared by its contexts and weighted by their count; every
    gradient is taken at the weights from the start of its batch, and
    repeated rows sum with ``np.add.at``."""
    vocab, counts = build_vocab(corpus)
    model = init_model(vocab, cfg)
    occurrences = []
    for seq in corpus.sequences:
        ids = [model.index[t] for t in seq]
        for t, center in enumerate(ids):
            contexts = [ids[j] for j in range(max(0, t - cfg.window),
                                              min(len(ids), t + cfg.window + 1))
                        if j != t]
            if contexts:
                occurrences.append((center, contexts))
    pairs = sum(len(contexts) for _, contexts in occurrences)
    noise = counts ** 0.75
    cdf = np.cumsum(noise / noise.sum())
    cdf /= cdf[-1]
    rng = np.random.default_rng(cfg.seed + 1)
    k, batch = cfg.negative_samples, skipgram._OCCURRENCES
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (1.0 - 0.9 * epoch / cfg.epochs)
        draws = np.searchsorted(cdf, rng.random((len(occurrences), k)),
                                side="right")
        total = 0.0
        for lo in range(0, len(occurrences), batch):
            w_in = model.input_vectors.copy()
            w_out = model.output_vectors.copy()
            for (center, contexts), negatives in zip(occurrences[lo:lo + batch],
                                                     draws[lo:lo + batch]):
                v = w_in[center]
                u = w_out[contexts]
                pos = 1.0 / (1.0 + np.exp(-(u @ v)))
                u_neg = w_out[negatives]
                neg = 1.0 / (1.0 + np.exp(u_neg @ v))
                total -= float(np.sum(np.log(np.clip(pos, 1e-12, None))))
                total -= len(contexts) * float(
                    np.sum(np.log(np.clip(neg, 1e-12, None))))
                coeff_pos = pos - 1.0
                coeff_neg = len(contexts) * (1.0 - neg)
                np.add.at(model.output_vectors, contexts,
                          -lr * np.outer(coeff_pos, v))
                np.add.at(model.output_vectors, negatives,
                          -lr * np.outer(coeff_neg, v))
                np.add.at(model.input_vectors, center,
                          -lr * (coeff_pos @ u + coeff_neg @ u_neg))
        losses.append(total / pairs)
    return model, losses


def random_corpus(rng, vocab_size, sequences, length):
    """Random walks over ``vocab_size`` tokens, every token used at least
    once, in sequences of ``length``."""
    extra = rng.integers(vocab_size, size=sequences * length - vocab_size)
    ids = rng.permutation(np.r_[np.arange(vocab_size), extra])
    return WalkCorpus([[f"w{i}" for i in ids[lo:lo + length]]
                       for lo in range(0, len(ids), length)])


@pytest.mark.parametrize("vocab_size", [25, 1000])
def test_minibatches_match_the_scatter_add_epoch(vocab_size):
    # 1000 tokens is more than the 52 * (6 + 5) rows a batch can touch, so
    # each update compacts a strict subset of the vocabulary.  Walks of
    # uneven length leave some context slots empty, and a walk of one token
    # is an occurrence without contexts.
    rng = np.random.default_rng(vocab_size)
    corpus = random_corpus(rng, vocab_size, sequences=60, length=30)
    corpus.sequences += [[f"w{i}" for i in rng.integers(vocab_size, size=n)]
                         for n in (1, 2, 3, 5, 1)]
    cfg = SkipGramConfig(vector_size=16, window=3, epochs=3,
                         negative_samples=5, seed=11)
    assert skipgram._OCCURRENCES == 52
    model, losses = train_skipgram(corpus, cfg)
    assert len(model.vocab) == vocab_size
    expected, expected_losses = per_occurrence_reference(corpus, cfg)
    assert np.allclose(model.input_vectors, expected.input_vectors,
                       rtol=1e-9, atol=0)
    assert np.allclose(model.output_vectors, expected.output_vectors,
                       rtol=1e-9, atol=0)
    assert np.allclose(losses, expected_losses, rtol=1e-9, atol=0)


def test_scatter_add_sums_repeated_rows():
    """``_update_rows`` against ``np.add.at``: repeated rows sum, and rows
    outside the batch stay bit-equal."""
    rng = np.random.default_rng(8)
    lr = 0.025
    cases = [
        # a few repeated rows, one vector per row
        (np.array([4, 1, 4, 0, 4, 1, 5]), np.arange(7), 7),
        # a negative equal to its own context: rows[b, 0] == rows[b, j]
        (np.array([[3, 3, 1], [0, 5, 0], [4, 4, 4]]).ravel(),
         np.repeat(np.arange(3), 3), 3),
        # one row 60 times among a few others, over few distinct vectors
        (rng.permutation(np.r_[np.full(60, 2), [0, 5, 1, 5]]),
         rng.integers(4, size=64), 4),
    ]
    for rows, cols, n in cases:
        matrix = rng.standard_normal((7, 3))
        vectors = rng.standard_normal((n, 3))
        weights = rng.standard_normal(len(rows))
        for w in (weights, None):
            expected = matrix.copy()
            terms = vectors[cols] * (1.0 if w is None else w[:, None])
            np.add.at(expected, rows, -lr * terms)
            updated = matrix.copy()
            skipgram._update_rows(updated, np.unique(rows, return_inverse=True),
                                  cols, vectors, lr, w)
            assert np.allclose(updated, expected, rtol=1e-12, atol=1e-12)
            untouched = np.setdiff1d(np.arange(7), rows)
            assert len(untouched)
            assert np.array_equal(updated[untouched], expected[untouched])
