import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wordbank
from escansion import baseline
from escansion.baseline import (
    FeatureVocab,
    TrainConfig,
    build_vocab,
    featurize,
    load_model,
    loss_and_grads,
    predict,
    predict_scores,
    save_model,
    train,
    _bucket,
    _pattern_targets,
    _scores_to_pattern,
    _word_keys,
)
from escansion.errors import CorruptModelFile, DataError, EmptyTrainingSet
from escansion.phonology import clean_text
from escansion.scansion import PATTERN_LENGTH

TINY = [
    ("cubra de nieve la hermosa cumbre", "+--+---+-+-"),
    ("en tanto que de rosa y azucena", "-+---+---+-"),
    ("polvo seran mas polvo enamorado", "+--+-+---+-"),
    ("goza cuello cabello labio y frente", "+-+--+-+-+-"),
]


def _tiny_config(**kw):
    base = dict(ngram_min=3, ngram_max=4, embedding_dim=8, epochs=5,
                learning_rate=0.05, seed=7, patience=5, bucket_count=32)
    base.update(kw)
    return TrainConfig(**base)


def _reference_featurize(line, vocab):
    """``featurize`` with no word memo: every key of every word looked up,
    an unseen one hashed into its bucket."""
    base = len(vocab.ngram_to_id)
    out = []
    for word in clean_text(line).split():
        for key in _word_keys(word, vocab.ngram_min, vocab.ngram_max):
            known = vocab.ngram_to_id.get(key)
            out.append(known if known is not None
                       else _bucket(key, base, vocab.bucket_count))
    return out


class TestFeaturize:
    def test_boundary_marked_trigrams(self):
        config = _tiny_config(ngram_min=3, ngram_max=3)
        vocab, _ = build_vocab(["sol"], config)
        assert set(vocab.ngram_to_id) == {"sol", "<so", "ol>"}
        ids = featurize("sol", vocab)
        # unigram "sol" and ngram "sol" share one id, so 4 hits / 3 distinct
        assert len(ids) == 4
        assert len(set(ids)) == 3
        assert ids.count(vocab.ngram_to_id["sol"]) == 2

    def test_empty_line(self):
        vocab, _ = build_vocab(["sol"], _tiny_config())
        assert featurize("", vocab) == []
        assert featurize("...", vocab) == []

    def test_deterministic(self):
        vocab, _ = build_vocab([t for t, _ in TINY], _tiny_config())
        line = TINY[0][0]
        assert featurize(line, vocab) == featurize(line, vocab)

    def test_unseen_grams_hash_into_buckets(self):
        vocab, _ = build_vocab(["sol"], _tiny_config(bucket_count=16))
        base = len(vocab.ngram_to_id)
        ids = featurize("zzyzx", vocab)
        assert ids
        assert all(base <= i < base + 16 for i in ids)

    def test_ngram_max_past_the_longest_word_is_bounded(self):
        # no gram is longer than its padded word, so a huge ngram_max, from
        # a config or a model file, gives the keys of the longest word's
        # length; a child with a time limit, so an unbounded loop fails
        words = "en tanto que de rosa y azucena".split()
        script = ("from escansion.baseline import _word_keys\n"
                  f"print([_word_keys(w, 3, 10 ** 9) for w in {words!r}])\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        capped = [_word_keys(w, 3, len("<azucena>")) for w in words]
        assert proc.stdout == f"{capped}\n"

    def test_size(self):
        vocab = FeatureVocab({"a": 0, "b": 1}, bucket_count=10,
                             ngram_min=3, ngram_max=6)
        assert vocab.size == 12


class TestWordMemo:
    # seen words, words no training text has, and words repeated in a line
    LINES = [TINY[0][0], "la rosa y la rosa y la flor de la rosa",
             "zzyzx plugh cubra zzyzx de xyzzy", "Cubra, de NIEVE!", "",
             "azucena rosa azucena rosa"]

    def test_matches_the_memo_free_reference(self, tmp_path):
        model = train(TINY, TINY[:2], _tiny_config(epochs=2))
        save_model(model, tmp_path / "model.json")
        back = load_model(tmp_path / "model.json")
        assert back.vocab.word_ids == {}
        for vocab in (model.vocab, back.vocab):
            # twice: the first call fills the memo, the second reads it
            for _ in range(2):
                for line in self.LINES:
                    assert featurize(line, vocab) == _reference_featurize(
                        line, vocab)
        assert set(back.vocab.word_ids) == {
            word for line in self.LINES for word in clean_text(line).split()}
        for line in self.LINES:
            assert np.array_equal(predict_scores(model, line),
                                  predict_scores(back, line))

    def test_build_vocab_seeds_every_training_word(self):
        texts = [text for text, _ in TINY] + ["la rosa y la rosa"]
        vocab, rows = build_vocab(texts, _tiny_config())
        words = {word for text in texts for word in clean_text(text).split()}
        assert set(vocab.word_ids) == words
        for word, ids in vocab.word_ids.items():
            assert ids == _reference_featurize(word, vocab)
        assert rows == [_reference_featurize(text, vocab) for text in texts]

    def test_memo_is_not_compared_shown_or_saved(self, tmp_path):
        model = train(TINY, [], _tiny_config(epochs=2))
        save_model(model, tmp_path / "before.json")
        predict(model, "palabras nunca vistas aqui")
        save_model(model, tmp_path / "after.json")
        assert (tmp_path / "before.json").read_bytes() == \
            (tmp_path / "after.json").read_bytes()
        vocab = model.vocab
        bare = FeatureVocab(vocab.ngram_to_id, vocab.bucket_count,
                            vocab.ngram_min, vocab.ngram_max)
        assert bare == vocab
        assert repr(bare) == repr(vocab)
        assert "word_ids" not in repr(vocab)

    def test_memo_stops_growing_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(baseline, "_WORD_MEMO", 25)
        vocab, _ = build_vocab([text for text, _ in TINY], _tiny_config())
        seeded = dict(vocab.word_ids)
        assert len(seeded) == 21
        unseen = [f"palabra{letter}" for letter in "abcdefghijklmnopqrstuv"]
        for first in range(0, len(unseen), 3):
            line = " ".join(unseen[first:first + 3] + ["cubra"])
            assert featurize(line, vocab) == _reference_featurize(line, vocab)
        assert len(vocab.word_ids) == 25
        assert vocab.word_ids.items() >= seeded.items()
        # a word past the cap is cut again on every call, to the same ids
        assert unseen[-1] not in vocab.word_ids
        for _ in range(2):
            assert featurize(unseen[-1], vocab) == _reference_featurize(
                unseen[-1], vocab)
        assert len(vocab.word_ids) == 25

    def test_memo_holds_the_training_words_plus_the_cap(self, monkeypatch):
        # a cap below the 21 training words adds nothing to the seed
        monkeypatch.setattr(baseline, "_WORD_MEMO", 4)
        vocab, _ = build_vocab([text for text, _ in TINY], _tiny_config())
        seeded = len(vocab.word_ids)
        featurize("palabras nunca vistas aqui", vocab)
        assert len(vocab.word_ids) == seeded

    def test_mutating_the_result_leaves_the_memo_as_it_was(self):
        vocab, _ = build_vocab([text for text, _ in TINY], _tiny_config())
        for line in ("cubra", "zzyzx", "cubra cubra", "zzyzx"):
            first = featurize(line, vocab)
            expected = list(first)
            first.append(-1)
            first[0] = -2
            assert featurize(line, vocab) == expected

    @pytest.mark.parametrize("line", [None, 5, b"cubra de nieve",
                                      ["cubra"]])
    def test_a_line_that_is_not_a_string_is_a_data_error(self, line):
        model = train(TINY, [], _tiny_config(epochs=1))
        message = f"^line must be a string, not {re.escape(repr(line))}$"
        for call in (lambda: featurize(line, model.vocab),
                     lambda: predict(model, line),
                     lambda: predict_scores(model, line)):
            with pytest.raises(DataError, match=message):
                call()


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        config = _tiny_config()
        texts = [t for t, _ in TINY] + [
            "el viento mueve esparce y desordena",
            "oro bruñido al sol relumbra en vano",
            "mientras por competir con tu cabello",
            "un humor entre perlas destilado",
            "serán ceniza mas tendrá sentido",
            "burla burlando van los tres delante",
        ]
        patterns = [p for _, p in TINY] + ["-+-+-+---+-"] * 6
        vocab, _ = build_vocab(texts, config)
        dim = 6
        emb = rng.normal(0, 0.3, (vocab.size, dim))
        w = rng.normal(0, 0.3, (PATTERN_LENGTH, dim))
        b = rng.normal(0, 0.3, PATTERN_LENGTH)
        examples = [(featurize(t, vocab), _pattern_targets(p))
                    for t, p in zip(texts[:10], patterns[:10])]

        loss, grad_e, grad_w, grad_b = loss_and_grads(emb, w, b, examples)
        eps = 1e-6

        def numeric(array, index):
            array[index] += eps
            up, *_ = loss_and_grads(emb, w, b, examples)
            array[index] -= 2 * eps
            down, *_ = loss_and_grads(emb, w, b, examples)
            array[index] += eps
            return (up - down) / (2 * eps)

        def check(analytic, numeric_value):
            scale = max(abs(analytic), abs(numeric_value), 1e-8)
            assert abs(analytic - numeric_value) / scale <= 1e-4

        for i in range(PATTERN_LENGTH):
            check(grad_b[i], numeric(b, i))
            for j in range(0, dim, 2):
                check(grad_w[i, j], numeric(w, (i, j)))
        touched = sorted({i for ids, _ in examples for i in ids})[:15]
        for row in touched:
            for j in range(0, dim, 3):
                check(grad_e[row, j], numeric(emb, (row, j)))

    def test_loss_non_increasing_for_small_lr(self):
        config = _tiny_config(learning_rate=0.01, epochs=12, seed=3)
        model = train(TINY, [], config)
        losses = [h["train_loss"] for h in model.train_meta["history"]]
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-9


class TestTrain:
    def test_steps_follow_the_checked_gradient(self):
        # one example, so each epoch is one SGD step from the gradient that
        # loss_and_grads gives and the finite-difference test checks
        config = _tiny_config(epochs=3)
        text, pattern = TINY[0]
        model = train([(text, pattern)], [], config)
        vocab, _ = build_vocab([text], config)
        example = [(featurize(text, vocab), _pattern_targets(pattern))]
        dim, lr = config.embedding_dim, config.learning_rate
        emb = np.random.default_rng(config.seed).uniform(
            -0.5 / dim, 0.5 / dim, size=(vocab.size, dim))
        weights = np.zeros((PATTERN_LENGTH, dim))
        biases = np.zeros(PATTERN_LENGTH)
        for entry in model.train_meta["history"]:
            loss, grad_e, grad_w, grad_b = loss_and_grads(
                emb, weights, biases, example)
            assert entry["train_loss"] == pytest.approx(loss, rel=1e-12)
            emb = emb - lr * grad_e
            weights = weights - lr * grad_w
            biases = biases - lr * grad_b
        assert len(model.train_meta["history"]) == 3
        assert np.allclose(model.embeddings, emb, rtol=1e-12, atol=1e-15)
        assert np.allclose(model.head_weights, weights, rtol=1e-12, atol=1e-15)
        assert np.allclose(model.head_biases, biases, rtol=1e-12, atol=1e-15)

    def test_memorizes_single_line(self):
        line = TINY[0]
        config = _tiny_config(epochs=100, embedding_dim=16)
        model = train([line], [line], config)
        assert predict(model, line[0]) == line[1]

    def test_deterministic_given_seed(self):
        a = train(TINY, TINY[:2], _tiny_config())
        b = train(TINY, TINY[:2], _tiny_config())
        assert np.array_equal(a.embeddings, b.embeddings)
        assert np.array_equal(a.head_weights, b.head_weights)
        assert np.array_equal(a.head_biases, b.head_biases)

    def test_early_stops_by_epoch_six(self):
        # eval gold is unreachable garbage, so exact-match stays at 0 and
        # patience 5 halts training after epoch 6
        eval_set = [("xyzzy plugh", "+++++++++++")]
        config = _tiny_config(epochs=100, patience=5)
        model = train(TINY, eval_set, config)
        assert model.train_meta["epochs_run"] == 6

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train([], [], _tiny_config())

    @pytest.mark.parametrize("pattern", [
        "+",  # numpy would broadcast it over all 11 heads
        "+-x+-+-+-+-",  # the x would train as unstressed
        "+-+-+-+-+-+-+",  # numpy would fail to broadcast 13 over 11
        "-" * 11,  # no stress: not a pattern predict could give
        None,
    ])
    @pytest.mark.parametrize("name", ["training", "eval"])
    def test_malformed_gold_is_a_data_error(self, name, pattern):
        bad = [TINY[0], ("sol de la tarde", pattern)]
        train_set, eval_set = (bad, TINY) if name == "training" else (TINY, bad)
        with pytest.raises(DataError) as exc:
            train(train_set, eval_set, _tiny_config(epochs=1))
        assert str(exc.value).startswith(f"{name} example 1: gold pattern "
                                         f"{pattern!r} ")

    @pytest.mark.parametrize("text", [None, 5, b"sol de la tarde"])
    @pytest.mark.parametrize("name", ["training", "eval"])
    def test_text_not_a_string_is_a_data_error(self, name, text):
        bad = [TINY[0], (text, TINY[0][1])]
        train_set, eval_set = (bad, TINY) if name == "training" else (TINY, bad)
        with pytest.raises(DataError) as exc:
            train(train_set, eval_set, _tiny_config(epochs=1))
        assert str(exc.value) == (f"{name} example 1: text {text!r} "
                                  "is not a string")

    def test_builds_the_vocabulary_once(self, monkeypatch):
        # one build_vocab call per train, eval set or not: perfbench times
        # the vocabulary pass as that function's span
        calls = []
        real = baseline.build_vocab

        def counted(texts, config):
            calls.append(list(texts))
            return real(texts, config)

        monkeypatch.setattr(baseline, "build_vocab", counted)
        train(TINY, [], _tiny_config(epochs=2))
        train(TINY, TINY[:2], _tiny_config(epochs=2))
        assert calls == [[text for text, _ in TINY]] * 2

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize("field", ["epochs", "embedding_dim", "bucket_count",
                                       "ngram_min", "ngram_max", "patience",
                                       "seed"])
    def test_sizes_are_integers(self, field, value):
        with pytest.raises(DataError) as exc:
            TrainConfig(**{field: value})
        assert str(exc.value) == f"{field} must be an integer, not {value!r}"

    @pytest.mark.parametrize("value", ["0.1", None, True, [0.1]])
    def test_learning_rate_is_a_number(self, value):
        with pytest.raises(DataError) as exc:
            TrainConfig(learning_rate=value)
        assert (str(exc.value)
                == f"learning_rate must be a number, not {value!r}")
        # an int is a number: a model file may hold "learning_rate": 1
        assert TrainConfig(learning_rate=1).learning_rate == 1

    def test_seed_is_not_negative(self):
        assert TrainConfig(seed=0).seed == 0
        with pytest.raises(DataError) as exc:
            TrainConfig(seed=-1)
        assert str(exc.value) == "seed must be at least 0"

    def test_accepts_corpus_lines(self):
        lines = wordbank.synthetic_corpus(8, seed=3)
        model = train(lines, lines[:2], _tiny_config(epochs=2))
        assert model.train_meta["epochs_run"] == 2


def _reference_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _reference_bce(scores, targets):
    return float(np.sum(np.log1p(np.exp(-np.abs(scores)))
                        + np.maximum(scores, 0) - scores * targets))


def _reference_vocab(texts, config):
    """The vocabulary as a loop over every key of every word of every text
    numbers it: each key at its first occurrence."""
    ids = {}
    for text in texts:
        for word in clean_text(text).split():
            for key in _word_keys(word, config.ngram_min, config.ngram_max):
                if key not in ids:
                    ids[key] = len(ids)
    return FeatureVocab(ids, config.bucket_count, config.ngram_min,
                        config.ngram_max)


def _reference_pattern(scores):
    """``_scores_to_pattern`` as it stood: one symbol per head, joined."""
    fired = scores >= 0.0
    if not fired.any():
        fired[int(np.argmax(scores))] = True
    return "".join("+" if f else "-" for f in fired)


def _reference_train(train_pairs, eval_pairs, config):
    """``train`` as it stood with numpy's unbuffered ``np.add.at`` scatter,
    ``ndarray.mean``, ``np.clip``, ``np.outer`` and each step's loss added
    as the step is taken: the weights and ``train_meta`` it gives."""
    vocab = _reference_vocab([text for text, _ in train_pairs], config)
    rng = np.random.default_rng(config.seed)
    dim, lr = config.embedding_dim, config.learning_rate
    emb = rng.uniform(-0.5 / dim, 0.5 / dim, size=(vocab.size, dim))
    weights = np.zeros((PATTERN_LENGTH, dim))
    biases = np.zeros(PATTERN_LENGTH)
    features = [_reference_featurize(text, vocab) for text, _ in train_pairs]
    targets = [_pattern_targets(pattern) for _, pattern in train_pairs]
    evals = [(_reference_featurize(text, vocab), pattern)
             for text, pattern in eval_pairs]

    def hidden(ids):
        return emb[ids].mean(axis=0) if ids else np.zeros(dim)

    best, stale, history = (-1.0, None), 0, []
    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for idx in rng.permutation(len(train_pairs)):
            ids, y = features[idx], targets[idx]
            h = hidden(ids)
            scores = weights @ h + biases
            total += _reference_bce(scores, y)
            g = _reference_sigmoid(scores) - y
            grad_h = weights.T @ g
            weights -= lr * np.outer(g, h)
            biases -= lr * g
            if ids:
                np.add.at(emb, ids, -lr * grad_h / len(ids))
        acc = (100.0 * sum(_reference_pattern(weights @ hidden(ids) + biases)
                           == pattern for ids, pattern in evals) / len(evals)
               if evals else None)
        history.append({"epoch": epoch, "train_loss": total / len(train_pairs),
                        "eval_exact_match": acc})
        if evals:
            if acc > best[0]:
                best = (acc, (emb.copy(), weights.copy(), biases.copy()))
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    if best[1] is not None:
        emb, weights, biases = best[1]
    meta = {"epochs_requested": config.epochs, "epochs_run": len(history),
            "learning_rate": lr, "seed": config.seed,
            "patience": config.patience, "history": history}
    return emb, weights, biases, meta


class TestBitIdentity:
    # "polvo" twice, the 1-grams of every word several times, and a line of
    # punctuation, which featurizes to nothing, in train and eval
    EMPTY = ("... ;", "+--+---+-+-")
    CORPUS = [(ln.text, ln.gold) for ln in wordbank.synthetic_corpus(30, seed=4)]
    # words that repeat within a line and across lines
    REPEATS = [
        ("la rosa y la rosa y la flor de la rosa", "-+---+---+-"),
        ("rosa de la flor y flor de la rosa", "+--+---+-+-"),
        ("la flor la flor la rosa la flor", "-+-+-+---+-"),
        ("y la rosa y la flor y la rosa", "+-+--+-+-+-"),
    ]

    @pytest.mark.parametrize("case", ["tiny", "ngram-min-1", "early-stop",
                                      "corpus", "repeated-words"])
    def test_train_matches_the_add_at_trainer(self, case):
        train_pairs, eval_pairs, config = {
            "tiny": (TINY + [self.EMPTY], [], _tiny_config(epochs=4)),
            "ngram-min-1": (TINY + [self.EMPTY], TINY[:2] + [self.EMPTY],
                            _tiny_config(ngram_min=1, ngram_max=2, epochs=6,
                                         learning_rate=0.5)),
            # patience 1 and unreachable eval gold: the best epoch is the
            # first and training stops at the second
            "early-stop": (TINY + [self.EMPTY],
                           [("xyzzy plugh", "+++++++++++"), self.EMPTY],
                           _tiny_config(epochs=8, patience=1)),
            "corpus": (self.CORPUS[:24] + [self.EMPTY], self.CORPUS[24:],
                       _tiny_config(ngram_min=1, ngram_max=3, epochs=6,
                                    embedding_dim=12)),
            # the default 3-6 gram range
            "repeated-words": (self.REPEATS + TINY + [self.EMPTY],
                               self.REPEATS[:2] + TINY[:1],
                               _tiny_config(ngram_min=3, ngram_max=6,
                                            epochs=5)),
        }[case]
        texts = [text for text, _ in train_pairs]
        vocab, rows = build_vocab(texts, config)
        # cutting each distinct word once numbers the keys as the loop over
        # every key of every text does, and a text's row is its featurize ids
        assert vocab == _reference_vocab(texts, config)
        assert rows == [_reference_featurize(text, vocab) for text in texts]
        counts = [max(map(ids.count, ids), default=0) for ids in rows]
        # ids repeat, with 1-grams three times or more, and a line has none
        assert max(counts) >= (3 if config.ngram_min == 1 else 2)
        assert 0 in counts
        model = train(train_pairs, eval_pairs, config)
        emb, weights, biases, meta = _reference_train(train_pairs,
                                                      eval_pairs, config)
        assert np.array_equal(model.embeddings, emb)
        assert np.array_equal(model.head_weights, weights)
        assert np.array_equal(model.head_biases, biases)
        assert model.train_meta == meta
        assert model.vocab.ngram_to_id == vocab.ngram_to_id
        if case == "early-stop":
            assert meta["epochs_run"] == 2


class TestPredict:
    def test_always_eleven_symbols(self):
        model = train(TINY, [], _tiny_config(epochs=2))
        for text in ["sol", "", "palabras nunca vistas aqui", TINY[0][0]]:
            pattern = predict(model, text)
            assert len(pattern) == PATTERN_LENGTH
            assert set(pattern) <= {"+", "-"}
            assert "+" in pattern

    def test_zero_model_fires_everywhere(self):
        vocab, _ = build_vocab(["sol"], _tiny_config())
        from escansion.baseline import PositionalStressModel
        model = PositionalStressModel(
            vocab=vocab,
            embeddings=np.zeros((vocab.size, 4)),
            head_weights=np.zeros((PATTERN_LENGTH, 4)),
            head_biases=np.zeros(PATTERN_LENGTH),
        )
        assert predict(model, "sol") == "+" * PATTERN_LENGTH
        assert np.allclose(predict_scores(model, "sol"), 0.5)

    def test_forced_argmax_when_nothing_fires(self):
        vocab, _ = build_vocab(["sol"], _tiny_config())
        from escansion.baseline import PositionalStressModel
        biases = -np.ones(PATTERN_LENGTH)
        biases[4] = -0.5
        model = PositionalStressModel(
            vocab=vocab,
            embeddings=np.zeros((vocab.size, 4)),
            head_weights=np.zeros((PATTERN_LENGTH, 4)),
            head_biases=biases,
        )
        assert predict(model, "sol") == "----+------"


    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, -1e-300, 1e-300]),
                              st.floats(allow_nan=True)),
                    min_size=PATTERN_LENGTH, max_size=PATTERN_LENGTH),
           st.booleans())
    def test_pattern_equals_the_joined_symbols(self, scores, negate):
        # negate makes every score negative or zero: with no zero among
        # them no head fires, and the argmax is forced on
        scores = np.array(scores)
        if negate:
            scores = -np.abs(scores)
        assert _scores_to_pattern(scores.copy()) == _reference_pattern(scores)

    @pytest.mark.parametrize("scores", [
        [-1.0] * PATTERN_LENGTH,
        [-3.0, -2.0, -0.5] + [-1.0] * 8,
        [-0.0] * PATTERN_LENGTH,
        [0.0] + [-1.0] * 10,
        [-1.0] * 10 + [-0.0],
    ])
    def test_pattern_edges(self, scores):
        scores = np.array(scores)
        pattern = _scores_to_pattern(scores.copy())
        assert pattern == _reference_pattern(scores)
        assert pattern.count("+") >= 1


class TestSaveLoad:
    def test_round_trip_predictions_identical(self, tmp_path):
        model = train(TINY, TINY[:2], _tiny_config(epochs=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        for text, _ in TINY:
            assert np.array_equal(predict_scores(model, text),
                                  predict_scores(back, text))
            assert predict(model, text) == predict(back, text)

    def test_load_then_save_is_byte_identical(self, tmp_path):
        model = train(TINY, [], _tiny_config(epochs=2))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_file(self, tmp_path):
        model = train(TINY, [], _tiny_config(epochs=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(CorruptModelFile):
            load_model(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "not_a_model.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(CorruptModelFile):
            load_model(path)

    def test_garbled_blob(self, tmp_path):
        model = train(TINY, [], _tiny_config(epochs=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        import json
        doc = json.loads(path.read_text())
        doc["embeddings"] = doc["embeddings"][:40]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CorruptModelFile):
            load_model(path)

    @pytest.mark.parametrize("vocab", [[0, 1], "grams", {"sol": 0}],
                             ids=["ints", "string", "object"])
    def test_vocab_not_a_list_of_strings_names_the_path(self, tmp_path, vocab):
        import json
        path = tmp_path / "model.json"
        save_model(train(TINY, [], _tiny_config(epochs=1)), path)
        doc = json.loads(path.read_text())
        doc["vocab"] = vocab
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CorruptModelFile) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: vocab is not a list of strings"

    @pytest.mark.parametrize("field,value", [
        ("ngram_min", 0), ("ngram_max", 2), ("embedding_dim", 0),
        ("bucket_count", 0), ("ngram_min", 2.5), ("ngram_max", 6.5)])
    def test_unusable_size_names_the_path(self, tmp_path, field, value):
        import json
        path = tmp_path / "model.json"
        save_model(train(TINY, [], _tiny_config(epochs=1)), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CorruptModelFile) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert field in str(exc.value)
