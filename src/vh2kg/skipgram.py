"""Skip-gram training over walk corpora.

Two routes: exact softmax (the verification oracle, tractable for small
vocabularies, updated pair by pair) and negative sampling with a
unigram^0.75 noise distribution (the large-vocabulary path).  Negative
sampling trains per center occurrence: an occurrence draws k negatives,
all of its contexts share them, and a minibatch holds whole consecutive
occurrences.  A minibatch updates each matrix with one small matrix product
over the batch's distinct rows, so training calls BLAS; it is deterministic
under a seed, whatever BLAS's thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BadConfig, EmptyCorpus, IndexOutOfRange, MalformedVectors,
                     UnknownToken)
from .walks import WalkCorpus, _escape_token, _unescape_token


@dataclass(frozen=True)
class SkipGramConfig:
    vector_size: int = 64
    window: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    negative_samples: int = 5   # 0 selects the exact-softmax route
    seed: int = 0

    def __post_init__(self):
        if self.vector_size < 1:
            raise BadConfig("vector_size must be >= 1")
        if self.window < 1:
            raise BadConfig("window must be >= 1")
        if self.epochs < 1:
            raise BadConfig("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise BadConfig("learning_rate must be > 0")
        if self.negative_samples < 0:
            raise BadConfig("negative_samples must be >= 0")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise BadConfig("seed must be >= 0")


@dataclass
class EmbeddingModel:
    vocab: list[str]
    input_vectors: np.ndarray   # |V| x D
    output_vectors: np.ndarray  # |V| x D
    index: dict = field(init=False)

    def __post_init__(self):
        assert self.input_vectors.shape == self.output_vectors.shape
        self.index = {tok: i for i, tok in enumerate(self.vocab)}

    def vector(self, token: str) -> np.ndarray:
        if token not in self.index:
            raise UnknownToken(token)
        return self.input_vectors[self.index[token]]


def build_vocab(corpus: WalkCorpus) -> tuple[list[str], np.ndarray]:
    counts: dict[str, int] = {}
    for seq in corpus.sequences:
        for tok in seq:
            counts[tok] = counts.get(tok, 0) + 1
    if not counts:
        raise EmptyCorpus("corpus has no tokens")
    vocab = sorted(counts, key=lambda t: (-counts[t], t))
    return vocab, np.array([counts[t] for t in vocab], dtype=float)


def init_model(vocab: list[str], cfg: SkipGramConfig) -> EmbeddingModel:
    rng = np.random.default_rng(cfg.seed)
    dim = cfg.vector_size
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))
    return EmbeddingModel(vocab, w_in, w_out)


def softmax_probabilities(model: EmbeddingModel, center_idx: int) -> np.ndarray:
    logits = model.output_vectors @ model.input_vectors[center_idx]
    logits = logits - logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


def sg_loss_and_grad(model: EmbeddingModel, center_idx: int, context_idx: int):
    """Exact-softmax loss -log p(context|center) and full-matrix gradients."""
    size = len(model.vocab)
    if not (0 <= center_idx < size and 0 <= context_idx < size):
        raise IndexOutOfRange(f"indices ({center_idx}, {context_idx}) for |V|={size}")
    p = softmax_probabilities(model, center_idx)
    loss = -float(np.log(p[context_idx]))
    delta = p.copy()
    delta[context_idx] -= 1.0
    grad_out = np.outer(delta, model.input_vectors[center_idx])
    grad_in = np.zeros_like(model.input_vectors)
    grad_in[center_idx] = model.output_vectors.T @ delta
    return loss, grad_in, grad_out


#: Center occurrences per negative-sampling minibatch.  On the fixture walks
#: an occurrence has about 4.3 contexts, so a batch is about 220 pairs.
#: Consecutive occurrences share centers and contexts, and every gradient of
#: a batch is taken at the weights before its update, so a much larger batch
#: sums many stale gradients into the same rows: at 156 the planted pairs
#: grow less similar, and at 208 training diverges.  A batch of one
#: occurrence with one context is plain per-pair SGD.
_OCCURRENCES = 52


def _occurrences(sequences, index, window):
    """Every center occurrence that has a context, in corpus order: its
    token id, and its context ids at offsets -window..-1, 1..window, with
    -1 for an offset outside its sequence."""
    ids = np.array([index[t] for seq in sequences for t in seq], dtype=np.intp)
    lengths = np.array([len(seq) for seq in sequences], dtype=np.intp)
    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    offsets = np.array([o for o in range(-window, window + 1) if o != 0])
    positions = np.arange(len(ids))[:, None] + offsets
    valid = (positions >= starts[:, None]) & (positions < ends[:, None])
    contexts = np.where(valid, ids[np.where(valid, positions, 0)], -1)
    keep = valid.any(axis=1)
    return ids[keep], contexts[keep]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _update_rows(matrix, compacted, cols, vectors, lr, weights=None):
    """``matrix[rows[i]] -= lr * weights[i] * vectors[cols[i]]`` for every i,
    summing the terms of repeated rows; ``compacted`` is
    ``np.unique(rows, return_inverse=True)`` and weights default to 1.

    One bincount lays the weights out as a (distinct rows x len(vectors))
    matrix, and one GEMM with ``vectors`` gives each distinct row its summed
    update.
    """
    uniq, inverse = compacted
    n = len(vectors)
    spread = np.bincount(inverse * n + cols, weights, minlength=len(uniq) * n)
    matrix[uniq] -= lr * (spread.reshape(len(uniq), n) @ vectors)


def _softmax_epoch(model, centers, contexts, lr):
    total = 0.0
    for center, context in zip(centers.tolist(), contexts.tolist()):
        loss, grad_in, grad_out = sg_loss_and_grad(model, center, context)
        model.output_vectors -= lr * grad_out
        model.input_vectors[center] -= lr * grad_in[center]
        total += loss
    return total


def _negative_sampling(model, counts, centers, contexts, rates, k, rng):
    """Minibatched SGD with k negatives per center occurrence, shared by all
    of its contexts; one epoch per learning rate in ``rates``, and each
    epoch's summed loss is returned.

    An occurrence is one row of slots: its contexts (label 1), then its
    negatives (label 0).  An empty context slot holds one of the
    occurrence's real contexts at weight 0, so it touches no row the batch
    does not touch anyway.  A shared negative stands in for one negative of
    each of the occurrence's pairs, so it is weighted by the context count:
    the expected update, and the loss, are those of per-pair SGNS.  All
    gradients of a batch are taken at the weights before its update.
    """
    # unigram^0.75 noise, normalised the way Generator.choice normalises p
    noise = counts ** 0.75
    cdf = np.cumsum(noise / noise.sum())
    cdf /= cdf[-1]
    present = contexts >= 0
    contexts = np.where(present, contexts, contexts.max(axis=1, keepdims=True))
    width = contexts.shape[1] + k
    signs = np.r_[np.ones(contexts.shape[1]), -np.ones(k)]
    weights = np.concatenate(
        (present, np.repeat(present.sum(axis=1, keepdims=True), k, axis=1)),
        axis=1).astype(float)
    signed_weights = weights * signs
    # a batch's distinct centers are the same in every epoch
    batches = []
    for lo in range(0, len(centers), _OCCURRENCES):
        compacted_c = np.unique(centers[lo:lo + _OCCURRENCES],
                                return_inverse=True)
        batches.append((lo, lo + _OCCURRENCES, compacted_c,
                        np.repeat(compacted_c[1], width)))
    w_in, w_out = model.input_vectors, model.output_vectors
    totals = []
    for lr in rates:
        draws = np.searchsorted(cdf, rng.random((len(centers), k)), side="right")
        slots = np.concatenate((contexts, draws), axis=1)
        total = 0.0
        for lo, hi, (c_uniq, c_col), out_cols in batches:
            rows = slots[lo:hi]
            # take gathers rows about twice as fast as fancy indexing
            v_uniq = w_in.take(c_uniq, axis=0)           # distinct centers x D
            u = w_out.take(rows, axis=0)                 # B x slots x D
            scores = _sigmoid(signs * np.einsum("bsd,bd->bs", u,
                                                v_uniq.take(c_col, axis=0)))
            total -= float(np.vdot(weights[lo:hi],
                                   np.log(np.maximum(scores, 1e-12))))
            coeff = signed_weights[lo:hi] * (scores - 1.0)  # d(loss)/d(u . v)
            grad_center = np.einsum("bs,bsd->bd", coeff, u)
            _update_rows(w_out, np.unique(rows.ravel(), return_inverse=True),
                         out_cols, v_uniq, lr, coeff.ravel())
            _update_rows(w_in, (c_uniq, c_col), np.arange(len(c_col)),
                         grad_center, lr)
        totals.append(total)
    return totals


def train_skipgram(corpus: WalkCorpus, cfg: SkipGramConfig = SkipGramConfig()
                   ) -> tuple[EmbeddingModel, list[float]]:
    """SGD over all (center, context) pairs; returns the model and the
    average loss per pair for each epoch.  Negative sampling updates
    minibatches of whole center occurrences, each with k negatives shared by
    its contexts; the exact-softmax route updates pair by pair."""
    if not corpus.sequences or all(not s for s in corpus.sequences):
        raise EmptyCorpus("cannot train on an empty corpus")
    vocab, counts = build_vocab(corpus)
    model = init_model(vocab, cfg)
    centers, contexts = _occurrences(corpus.sequences, model.index, cfg.window)
    present = contexts >= 0
    pairs = int(present.sum())
    if pairs == 0:
        raise EmptyCorpus("corpus yields no training pairs")
    # linear decay to 10% of the initial rate over the epochs
    rates = [cfg.learning_rate * (1.0 - 0.9 * epoch / cfg.epochs)
             for epoch in range(cfg.epochs)]
    if cfg.negative_samples == 0:
        pair_centers = np.broadcast_to(centers[:, None], contexts.shape)[present]
        totals = [_softmax_epoch(model, pair_centers, contexts[present], lr)
                  for lr in rates]
    else:
        totals = _negative_sampling(model, counts, centers, contexts, rates,
                                    cfg.negative_samples,
                                    np.random.default_rng(cfg.seed + 1))
    return model, [total / pairs for total in totals]


def predict_probability(model: EmbeddingModel, context: str, center: str) -> float:
    """Exact-softmax p(context | center) for trained models."""
    return float(softmax_probabilities(model, model.index[center])[model.index[context]])


def cosine_neighbors(model: EmbeddingModel, token: str, n: int = 10) -> list[tuple[str, float]]:
    if token not in model.index:
        raise UnknownToken(token)
    target = model.vector(token)
    norms = np.linalg.norm(model.input_vectors, axis=1)
    norms[norms == 0] = 1.0
    t_norm = np.linalg.norm(target) or 1.0
    sims = (model.input_vectors @ target) / (norms * t_norm)
    order = [i for i in np.argsort(-sims, kind="stable") if i != model.index[token]]
    return [(model.vocab[i], float(sims[i])) for i in order[:n]]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))


def export_vectors(model: EmbeddingModel) -> str:
    """One line per token: the escaped token, then its input vector, all
    tab-separated."""
    lines = [f"{_escape_token(token)}\t" + "\t".join(map(repr, row))
             for token, row in zip(model.vocab, model.input_vectors.tolist())]
    return "\n".join(lines) + "\n"


def parse_vectors(text: str) -> tuple[list[str], np.ndarray]:
    """Inverse of export_vectors; raises MalformedVectors on a row that is
    not a token followed by as many numbers as the first row."""
    vocab, rows = [], []
    for line_no, line in enumerate(text.split("\n"), 1):
        if not line:
            continue
        token, *cells = line.split("\t")
        try:
            row = [float(v) for v in cells]
        except ValueError:
            raise MalformedVectors(f"line {line_no}: non-numeric cell") from None
        if not row or (rows and len(row) != len(rows[0])):
            raise MalformedVectors(
                f"line {line_no}: {len(row)} numbers, expected "
                f"{len(rows[0]) if rows else 'at least 1'}")
        vocab.append(_unescape_token(token, line_no, MalformedVectors))
        rows.append(row)
    return vocab, np.array(rows)
