"""Skip-gram training over walk corpora.

Two routes: exact softmax (the verification oracle, tractable for small
vocabularies, updated pair by pair) and negative sampling with a
unigram^0.75 noise distribution (the large-vocabulary path, updated in
minibatches of consecutive pairs).  A minibatch updates each matrix with
one small matrix product over the batch's distinct rows, so training calls
BLAS; it is deterministic under a seed, whatever BLAS's thread count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCorpus, IndexOutOfRange, MalformedVectors, UnknownToken
from .walks import WalkCorpus


@dataclass(frozen=True)
class SkipGramConfig:
    vector_size: int = 100
    window: int = 9
    epochs: int = 5
    learning_rate: float = 0.025
    negative_samples: int = 5   # 0 selects the exact-softmax route
    seed: int = 0

    def __post_init__(self):
        if self.vector_size < 1:
            raise ValueError("vector_size must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")


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


#: Pairs per negative-sampling minibatch.  Consecutive pairs share centers
#: and contexts, so a batch much larger than this sums many stale gradients
#: into the same rows and diverges; a batch of one is plain per-pair SGD.
#: A batch touches at most 128 * (k + 1) output rows and 128 input rows,
#: and each update is a GEMM over those rows, whatever the vocabulary's size.
_BATCH = 128


def _pair_arrays(sequences, index, window):
    """Every (center, context) pair as two index arrays, in corpus order:
    sequence by sequence, center by center, context positions ascending."""
    ids = np.array([index[t] for seq in sequences for t in seq], dtype=np.intp)
    lengths = np.array([len(seq) for seq in sequences], dtype=np.intp)
    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    offsets = np.array([o for o in range(-window, window + 1) if o != 0])
    positions = np.arange(len(ids))[:, None] + offsets
    valid = (positions >= starts[:, None]) & (positions < ends[:, None])
    centers = np.broadcast_to(ids[:, None], positions.shape)[valid]
    return centers, ids[positions[valid]]


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


def _negative_sampling_epoch(model, centers, contexts, lr, rng, cdf, k):
    """One pass of minibatched SGD; each row of a batch scores its context
    (label 1) and k negatives drawn from the noise CDF (label 0), and all
    gradients of a batch are taken at the weights before its update.
    The batch's distinct centers are found once: the output-matrix update
    multiplies by their vectors, and the input-matrix update writes their
    rows."""
    signs = np.r_[1.0, -np.ones(k)]
    w_in, w_out = model.input_vectors, model.output_vectors
    total = 0.0
    for lo in range(0, len(centers), _BATCH):
        c = centers[lo:lo + _BATCH]
        negatives = np.searchsorted(cdf, rng.random((len(c), k)), side="right")
        rows = np.concatenate((contexts[lo:lo + _BATCH, None], negatives), axis=1)
        c_uniq, c_col = compacted_c = np.unique(c, return_inverse=True)
        v_uniq = w_in[c_uniq]                        # distinct centers x D
        v = v_uniq[c_col]                            # B x D
        u = w_out[rows]                              # B x (k+1) x D
        scores = _sigmoid(signs * np.einsum("bkd,bd->bk", u, v))
        total += -float(np.sum(np.log(np.clip(scores, 1e-12, None))))
        coeff = signs * (scores - 1.0)               # d(loss)/d(u_row . v)
        grad_center = np.einsum("bk,bkd->bd", coeff, u)
        _update_rows(w_out, np.unique(rows.ravel(), return_inverse=True),
                     np.repeat(c_col, k + 1), v_uniq, lr, coeff.ravel())
        _update_rows(w_in, compacted_c, np.arange(len(c)), grad_center, lr)
    return total


def train_skipgram(corpus: WalkCorpus, cfg: SkipGramConfig = SkipGramConfig()
                   ) -> tuple[EmbeddingModel, list[float]]:
    """SGD over all (center, context) pairs; returns the model and the
    average loss per epoch.  Negative sampling updates minibatches of
    consecutive pairs; the exact-softmax route updates pair by pair."""
    if not corpus.sequences or all(not s for s in corpus.sequences):
        raise EmptyCorpus("cannot train on an empty corpus")
    vocab, counts = build_vocab(corpus)
    model = init_model(vocab, cfg)
    centers, contexts = _pair_arrays(corpus.sequences, model.index, cfg.window)
    if len(centers) == 0:
        raise EmptyCorpus("corpus yields no training pairs")
    # unigram^0.75 noise, normalised the way Generator.choice normalises p
    noise = counts ** 0.75
    cdf = np.cumsum(noise / noise.sum())
    cdf /= cdf[-1]
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    for epoch in range(cfg.epochs):
        # linear decay to 10% of the initial rate over the epochs
        frac = epoch / cfg.epochs
        lr = cfg.learning_rate * (1.0 - 0.9 * frac)
        if cfg.negative_samples == 0:
            total = _softmax_epoch(model, centers, contexts, lr)
        else:
            total = _negative_sampling_epoch(model, centers, contexts, lr, rng,
                                             cdf, cfg.negative_samples)
        losses.append(total / len(centers))
    return model, losses


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


# Walk tokens include literal lexical forms, so a token may hold the TSV's
# own separators; they are written as backslash escapes.
_TSV_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_TSV_ESCAPE = str.maketrans(_TSV_ESCAPES)
_TSV_UNESCAPES = {esc[1]: char for char, esc in _TSV_ESCAPES.items()}
_TSV_ESCAPE_RE = re.compile(r"\\(.?)", re.S)


def export_vectors(model: EmbeddingModel) -> str:
    """One line per token: the escaped token, then its input vector, all
    tab-separated."""
    lines = []
    for i, token in enumerate(model.vocab):
        cells = "\t".join(repr(float(v)) for v in model.input_vectors[i])
        lines.append(f"{token.translate(_TSV_ESCAPE)}\t{cells}")
    return "\n".join(lines) + "\n"


def _unescape_token(token: str, line_no: int) -> str:
    def one(m):
        try:
            return _TSV_UNESCAPES[m.group(1)]
        except KeyError:
            raise MalformedVectors(
                f"line {line_no}: bad escape {m.group(0)!r}") from None
    return _TSV_ESCAPE_RE.sub(one, token) if "\\" in token else token


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
        vocab.append(_unescape_token(token, line_no))
        rows.append(row)
    return vocab, np.array(rows)
