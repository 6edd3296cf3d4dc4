"""Positional-stress baseline: a linear classifier over averaged subword
embeddings, one independent sigmoid head per metrical position.

Features are word unigrams plus boundary-marked character n-grams
(<so, sol, ol> for "sol" at n=3). Known grams get dense ids from the
vocabulary built on the training set; unseen grams at prediction time
hash into a fixed bucket range. Training is plain per-example SGD on the
summed binary cross-entropy of the 11 heads, with early stopping on
exact-match accuracy over the evaluation set.

``build_vocab`` is the one pass over the training texts, and ``train``
runs it once: it cuts each distinct word into grams once, gives ids to
grams in first-occurrence order and returns each text's ids, its words'
ids in turn, which equal what ``featurize`` gives. ``train`` turns each
example's ids into index arrays: the ids in order, and for k = 1, 2, ...
the ids that occur more than k times. A step adds to every occurrence of
an id, in occurrence order, through them, so every weight
gets the same float adds in the same order as numpy's ``add.at`` scatter,
which the trainer used before: the weights and model files are
bit-identical to that trainer's.

A step keeps its 11 scores; the epoch's losses come from them in one
array pass once the epoch is over, and are added up in step order.

``featurize`` reads each word's ids from the vocabulary's word memo,
``FeatureVocab.word_ids``, a dict from a cleaned word to its ids.
``build_vocab`` seeds it with every training word, so those hit from the
first prediction on; a vocabulary from ``load_model`` starts with an
empty memo and fills it as words come. A word the memo lacks is cut as
before, into dense ids or hashed buckets, and kept while the memo holds
fewer than ``_WORD_MEMO`` words; nothing is evicted. The memo is neither
compared nor saved and gives the ids a cut gives, so it changes no
model file, training history or prediction. On the harness corpus a warm
``predict`` takes ~18 µs a line, against ~44 with a cut per word.
"""

from __future__ import annotations

import base64
import json
import math
import zlib
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import CorpusLine
from .errors import CorruptModelFile, DataError, EmptyTrainingSet
from .phonology import clean_text
from .scansion import PATTERN_LENGTH, check_pattern

_FORMAT = "escansion-baseline"
_VERSION = 1
# featurize adds a word to its vocabulary's memo only while the memo holds
# fewer words than this. A word of ~20 grams takes ~400 bytes when its ids
# are dense and ~950 when they are buckets, each a new int: ~3-8 MB in all
_WORD_MEMO = 8192
# a fired head's byte, 0 or 1, to its pattern symbol
_SYMBOLS = bytes.maketrans(b"\x00\x01", b"-+")


@dataclass(frozen=True)
class TrainConfig:
    ngram_min: int = 3
    ngram_max: int = 6
    embedding_dim: int = 100
    epochs: int = 10
    learning_rate: float = 0.05
    seed: int = 13
    patience: int = 5
    bucket_count: int = 10000

    def __post_init__(self):
        for name in ("epochs", "embedding_dim", "bucket_count", "ngram_min",
                     "ngram_max", "patience", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise DataError(f"{name} must be an integer, not {value!r}")
            least = 0 if name == "seed" else 1
            if value < least:
                raise DataError(f"{name} must be at least {least}")
        if self.ngram_min > self.ngram_max:
            raise DataError("ngram_min must not exceed ngram_max")
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise DataError(f"learning_rate must be a number, not {rate!r}")
        if not (math.isfinite(rate) and rate > 0):
            raise DataError("learning_rate must be a finite number above 0")


@dataclass(frozen=True)
class FeatureVocab:
    ngram_to_id: dict[str, int]
    bucket_count: int
    ngram_min: int
    ngram_max: int
    # a cleaned word's featurize ids: a cache that is neither compared nor
    # saved, seeded by build_vocab and filled by featurize
    word_ids: dict[str, list[int]] = field(default_factory=dict,
                                           compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.ngram_to_id) + self.bucket_count


def _word_keys(word: str, nmin: int, nmax: int) -> list[str]:
    """The keys of one cleaned word: the word, then its boundary-marked
    n-grams, shortest first."""
    keys = [word]
    padded = f"<{word}>"
    # no gram is longer than the padded word: the cap bounds the loop
    # whatever a config or model file gives as nmax
    for n in range(nmin, min(nmax, len(padded)) + 1):
        keys += [padded[i:i + n] for i in range(len(padded) - n + 1)]
    return keys


def _bucket(key: str, base: int, buckets: int) -> int:
    return base + zlib.crc32(key.encode("utf-8")) % buckets


def build_vocab(texts, config: TrainConfig) -> tuple[FeatureVocab, list]:
    """The vocabulary of ``texts`` and each text's ``featurize`` ids, from
    one pass that cuts each distinct word once; ids go to keys in
    first-occurrence order."""
    nmin, nmax = config.ngram_min, config.ngram_max
    ids: dict[str, int] = {}
    word_ids: dict[str, list[int]] = {}
    rows = []
    for text in texts:
        row: list[int] = []
        for word in clean_text(text).split():
            known = word_ids.get(word)
            if known is None:
                known = word_ids[word] = [ids.setdefault(key, len(ids))
                                          for key in _word_keys(word, nmin, nmax)]
            row += known
        rows.append(row)
    return FeatureVocab(ids, config.bucket_count, nmin, nmax, word_ids), rows


def featurize(line: str, vocab: FeatureVocab) -> list[int]:
    """Feature ids for a line, a new list; repeats preserved, unseen grams
    hashed. A word's ids come from the vocabulary's memo, or are cut once
    and kept there while it holds fewer than ``_WORD_MEMO`` words. A line
    that is not a string raises DataError."""
    if not isinstance(line, str):
        raise DataError(f"line must be a string, not {line!r}")
    memo = vocab.word_ids
    out: list[int] = []
    for word in clean_text(line).split():
        ids = memo.get(word)
        if ids is None:
            ngram_to_id, base = vocab.ngram_to_id, len(vocab.ngram_to_id)
            ids = []
            for key in _word_keys(word, vocab.ngram_min, vocab.ngram_max):
                known = ngram_to_id.get(key)
                ids.append(known if known is not None
                           else _bucket(key, base, vocab.bucket_count))
            if len(memo) < _WORD_MEMO:
                memo[word] = ids
        out += ids
    return out


@dataclass
class PositionalStressModel:
    vocab: FeatureVocab
    embeddings: np.ndarray  # (vocab.size, dim) float64
    head_weights: np.ndarray  # (11, dim)
    head_biases: np.ndarray  # (11,)
    train_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.head_weights.shape[0] != PATTERN_LENGTH:
            raise ValueError(f"model needs {PATTERN_LENGTH} heads")
        for arr in (self.embeddings, self.head_weights, self.head_biases):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite weights")

    @property
    def embedding_dim(self) -> int:
        return self.embeddings.shape[1]


def _pattern_targets(pattern: str) -> np.ndarray:
    return np.array([1.0 if c == "+" else 0.0 for c in pattern])


def _pairs(dataset, name: str) -> list[tuple[str, str]]:
    """The (text, gold pattern) pairs of corpus lines or pairs. A dataset
    that is not iterable, or is a string or bytes, is a DataError, and so
    are an item that is neither a ``CorpusLine`` nor a pair, a text that
    is not a string and a gold that fails ``check_pattern``, each naming
    the example."""
    if not isinstance(dataset, Iterable) or isinstance(dataset, (str, bytes)):
        raise DataError(f"{name} set must be a list of examples, "
                        f"not {dataset!r}")
    pairs = []
    for index, item in enumerate(dataset):
        if isinstance(item, CorpusLine):
            text, pattern = item.text, item.gold
        else:
            try:
                text, pattern = item
            except (TypeError, ValueError):
                raise DataError(f"{name} example {index}: {item!r} is neither "
                                "a CorpusLine nor a (text, pattern) pair"
                                ) from None
        if not isinstance(text, str):
            raise DataError(f"{name} example {index}: text {text!r} "
                            "is not a string")
        try:
            check_pattern(pattern)
        except DataError as exc:
            raise type(exc)(f"{name} example {index}: gold {exc}") from None
        pairs.append((text, pattern))
    return pairs


def _hidden(embeddings: np.ndarray, ids) -> np.ndarray:
    """The mean of the ``ids`` rows, a list or an index array: the sum and
    the division ``ndarray.mean`` makes, without its wrappers."""
    if not len(ids):
        return np.zeros(embeddings.shape[1])
    return np.add.reduce(embeddings[ids], 0) / len(ids)


def _scores(embeddings, head_weights, head_biases, ids) -> np.ndarray:
    """The 11 head scores of the ``ids``' mean row, before the sigmoid."""
    return head_weights @ _hidden(embeddings, ids) + head_biases


def _index_arrays(ids: list[int]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """An example's ids as an index array, in order, and the repeats: for
    k = 1, 2, ..., the ids that occur more than k times, each array holding
    distinct ids."""
    counts = Counter(ids)
    repeats = [[i for i, n in counts.items() if n > k]
               for k in range(1, max(counts.values(), default=1))]
    return (np.array(ids, dtype=np.intp),
            tuple(np.array(rows, dtype=np.intp) for rows in repeats))


def _scatter_add(target: np.ndarray, feature, value: np.ndarray) -> None:
    """Add ``value`` to ``target``'s row of every id of ``feature``, once per
    occurrence, as numpy's ``add.at`` would: the fancy-index add reaches each
    distinct id once, then each repeat array adds one occurrence more. Every
    element gets the same float adds in the same order, so the result is
    bit-identical."""
    ids, repeats = feature
    target[ids] += value
    for rows in repeats:
        target[rows] += value


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # np.clip's ufuncs, without its wrapper
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -500.0), 500.0)))


def _bce(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each row's summed binary cross-entropy, rows being examples.
    Stable: log sigma(s) = -log1p(exp(-s))."""
    return (np.log1p(np.exp(-np.abs(scores))) + np.maximum(scores, 0)
            - scores * targets).sum(axis=1)


def _sum_in_order(values) -> float:
    """Python floats added left to right, as the per-step ``+=`` did:
    ``sum`` compensates its float adds from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


def _example_step(embeddings, head_weights, head_biases, ids, targets, scores):
    """One example's hidden vector and score gradient. Its 11 scores go
    into ``scores``, a row of the array whose losses ``_bce`` gives."""
    h = _hidden(embeddings, ids)
    np.add(head_weights @ h, head_biases, out=scores)
    return h, _sigmoid(scores) - targets


def loss_and_grads(embeddings, head_weights, head_biases, examples):
    """Mean summed-BCE loss and its analytic gradients over a batch.

    ``examples`` is a list of (feature ids, 11-dim target vector) pairs.
    Exposed so the gradients can be checked against finite differences;
    ``train`` takes its steps from the same ``_example_step`` and
    ``_scatter_add``, and its epoch loss, as here, from the examples'
    scores once they are all in, summed in example order.
    """
    grad_e = np.zeros_like(embeddings)
    grad_w = np.zeros_like(head_weights)
    grad_b = np.zeros_like(head_biases)
    n = len(examples)
    scores = np.empty((n, PATTERN_LENGTH))
    targets = np.array([y for _, y in examples])
    for k, (ids, y) in enumerate(examples):
        feature = _index_arrays(ids)
        h, g = _example_step(embeddings, head_weights, head_biases,
                             feature[0], y, scores[k])
        grad_w += g[:, None] * h
        grad_b += g
        if ids:
            _scatter_add(grad_e, feature, (head_weights.T @ g) / len(ids))
    loss = _sum_in_order(_bce(scores, targets).tolist())
    return loss / n, grad_e / n, grad_w / n, grad_b / n


# numpy's overflow warnings would only precede the divergence error below
@np.errstate(over="ignore", invalid="ignore")
def train(train_set, eval_set, config: TrainConfig | None = None) -> PositionalStressModel:
    """Fit the 11-head linear model by per-example SGD.

    Deterministic for a fixed seed. Early-stops once eval exact-match has
    not improved for ``patience`` consecutive epochs, and keeps the best
    epoch's weights. ``eval_set`` may be None, for none. Raises DataError
    for a config that is neither None, the default, nor a ``TrainConfig``,
    for an example ``_pairs`` refuses, or when the kept weights are not
    finite.
    """
    if config is None:
        config = TrainConfig()
    elif not isinstance(config, TrainConfig):
        raise DataError(f"config must be a TrainConfig, not {config!r}")
    train_pairs = _pairs(train_set, "training")
    if not train_pairs:
        raise EmptyTrainingSet("no training examples")
    eval_pairs = _pairs(() if eval_set is None else eval_set, "eval")

    vocab, features = build_vocab([text for text, _ in train_pairs], config)
    # index arrays built once: every step reuses them
    features = [_index_arrays(ids) for ids in features]
    rng = np.random.default_rng(config.seed)
    dim = config.embedding_dim
    try:
        embeddings = rng.uniform(-0.5 / dim, 0.5 / dim,
                                 size=(vocab.size, dim))
    except (MemoryError, ValueError):
        # numpy raises ValueError for a size past what it can address
        raise DataError(f"embedding table of {vocab.size} rows x {dim} "
                        "dim is too large to allocate") from None
    head_weights = np.zeros((PATTERN_LENGTH, dim))
    head_biases = np.zeros(PATTERN_LENGTH)

    targets = np.array([_pattern_targets(pattern) for _, pattern in train_pairs])
    # each example's scores of the epoch, in example order
    scores = np.empty((len(train_pairs), PATTERN_LENGTH))
    eval_feats = [(np.array(featurize(text, vocab), dtype=np.intp), pattern)
                  for text, pattern in eval_pairs]

    def eval_accuracy() -> float:
        if not eval_feats:
            return float("nan")
        hits = sum(_scores_to_pattern(_scores(embeddings, head_weights,
                                              head_biases, ids)) == pattern
                   for ids, pattern in eval_feats)
        return 100.0 * hits / len(eval_feats)

    lr = config.learning_rate
    best = (-1.0, None)
    stale = 0
    history = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_pairs))
        for idx in order:
            feature = features[idx]
            ids = feature[0]
            h, g = _example_step(embeddings, head_weights, head_biases,
                                 ids, targets[idx], scores[idx])
            grad_h = head_weights.T @ g
            head_weights -= lr * (g[:, None] * h)
            head_biases -= lr * g
            if len(ids):
                _scatter_add(embeddings, feature, -lr * grad_h / len(ids))
        epoch_loss = _sum_in_order(_bce(scores, targets)[order].tolist())
        acc = eval_accuracy()
        history.append({"epoch": epoch,
                        "train_loss": epoch_loss / len(train_pairs),
                        "eval_exact_match": None if np.isnan(acc) else acc})
        if eval_feats:
            if acc > best[0]:
                best = (acc, (embeddings.copy(), head_weights.copy(),
                              head_biases.copy()))
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break

    if best[1] is not None:
        embeddings, head_weights, head_biases = best[1]
    if not all(np.isfinite(a).all()
               for a in (embeddings, head_weights, head_biases)):
        raise DataError("training diverged to non-finite weights")
    meta = {
        "epochs_requested": config.epochs,
        "epochs_run": len(history),
        "learning_rate": config.learning_rate,
        "seed": config.seed,
        "patience": config.patience,
        "history": history,
    }
    return PositionalStressModel(vocab, embeddings, head_weights, head_biases, meta)


def _scores_to_pattern(scores: np.ndarray) -> str:
    fired = scores >= 0.0  # sigmoid(s) >= 0.5 iff s >= 0; ties stress
    if not fired.any():
        fired[int(np.argmax(scores))] = True
    # numpy stores a bool as one byte, 0 or 1
    return fired.tobytes().translate(_SYMBOLS).decode("ascii")


def _raw_scores(model: PositionalStressModel, line: str) -> np.ndarray:
    """The 11 head scores of a line, before the sigmoid."""
    return _scores(model.embeddings, model.head_weights, model.head_biases,
                   featurize(line, model.vocab))


def predict_scores(model: PositionalStressModel, line: str) -> np.ndarray:
    return _sigmoid(_raw_scores(model, line))


def predict(model: PositionalStressModel, line: str) -> str:
    """Always an 11-symbol pattern; the best head is forced on if none fire."""
    return _scores_to_pattern(_raw_scores(model, line))


# --- serialization ----------------------------------------------------------

def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode()


def _decode(blob: str, shape: tuple[int, ...]) -> np.ndarray:
    if not isinstance(blob, str):
        raise CorruptModelFile(f"weight blob is {type(blob).__name__}, "
                               "not base64 text")
    raw = base64.b64decode(blob.encode())
    expected = 8 * int(np.prod(shape))
    if len(raw) != expected:
        raise CorruptModelFile(f"weight blob has {len(raw)} bytes, wanted {expected}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def save_model(model: PositionalStressModel, path) -> None:
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "embedding_dim": model.embedding_dim,
        "bucket_count": model.vocab.bucket_count,
        "ngram_min": model.vocab.ngram_min,
        "ngram_max": model.vocab.ngram_max,
        "vocab": list(model.vocab.ngram_to_id),
        "embeddings": _encode(model.embeddings),
        "head_weights": _encode(model.head_weights),
        "head_biases": _encode(model.head_biases),
        "train_meta": model.train_meta,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path) -> PositionalStressModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past what json follows
        raise CorruptModelFile(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise CorruptModelFile(f"{path}: not a {_FORMAT} file")
    if doc.get("version") != _VERSION:
        raise CorruptModelFile(f"{path}: unsupported version {doc.get('version')!r}")
    try:
        keys = doc["vocab"]
        if not (isinstance(keys, list) and all(isinstance(k, str) for k in keys)):
            raise TypeError("vocab is not a list of strings")
        vocab = FeatureVocab(
            {key: i for i, key in enumerate(keys)},
            doc["bucket_count"], doc["ngram_min"], doc["ngram_max"])
        dim = doc["embedding_dim"]
        # a model's sizes are ones training accepts
        TrainConfig(ngram_min=vocab.ngram_min, ngram_max=vocab.ngram_max,
                    embedding_dim=dim, bucket_count=vocab.bucket_count)
        model = PositionalStressModel(
            vocab=vocab,
            embeddings=_decode(doc["embeddings"], (vocab.size, dim)),
            head_weights=_decode(doc["head_weights"], (PATTERN_LENGTH, dim)),
            head_biases=_decode(doc["head_biases"], (PATTERN_LENGTH,)),
            train_meta=doc["train_meta"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelFile(f"{path}: {exc}") from exc
    return model
