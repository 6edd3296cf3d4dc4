"""Every reader of an input file either returns or raises a DataError,
whatever text or bytes the file holds."""

import json
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escansion import baseline, corpus, metrics
from escansion.errors import DataError
from escansion.phonology import StressLexicon

# text near each reader's format: tabs, newlines, digits, patterns, marks
_NEAR_TEXT = st.text(alphabet="\t\n\r #+-01'aeiouáñü9 x", max_size=200)
_CONTENT = st.one_of(
    st.binary(max_size=300),
    st.text(max_size=200).map(str.encode),
    _NEAR_TEXT.map(str.encode),
    _NEAR_TEXT.map(lambda text: text.encode() + b"\xff\xfe"),
)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
# brackets nested deeper than a recursive reader can follow
_DEPTH = st.integers(min_value=1, max_value=5000)
# a model file whose header is right and whose fields are each a usable
# value or anything at all
_USABLE = {"embedding_dim": 1, "bucket_count": 1, "ngram_min": 1,
           "ngram_max": 1, "vocab": [], "embeddings": "AAAAAAAAAAA=",
           "head_weights": "", "head_biases": "", "train_meta": {}}
_MODEL_DOC = st.fixed_dictionaries(
    {"format": st.just("escansion-baseline"), "version": st.just(1)},
    optional={key: st.just(value) | _JSON
              for key, value in _USABLE.items()},
).map(lambda doc: json.dumps(doc).encode("utf-8"))
_DEEP_JSON = _DEPTH.map(lambda n: b"[" * n + b"]" * n)

_TAGS = ("TEI", "text", "body", "div", "lg", "l", "seg")
_ATTRS = st.dictionaries(
    st.sampled_from(["met", "n", "xml:id", "ana", "type", "cert"]),
    st.one_of(st.text(max_size=14),
              st.sampled_from(["+--+---+-+-", "10010001010", "manual",
                               "0", "-3", "١٢"])),
    max_size=3)


def _element(tag, attrs, children):
    attr_text = "".join(f" {k}={quoteattr(v)}" for k, v in attrs.items())
    return f"<{tag}{attr_text}>{''.join(children)}</{tag}>"


_NODE = st.recursive(
    st.text(max_size=30).map(escape),
    lambda inner: st.builds(_element, st.sampled_from(_TAGS), _ATTRS,
                            st.lists(inner, max_size=4)),
    max_leaves=15)
# TEI-like trees, some with an XML namespace, under any declared encoding
_TEI = st.builds(
    lambda encoding, ns, body: (
        f'<?xml version="1.0" encoding="{encoding}"?>'
        f'<TEI{ns}>{body}</TEI>').encode("utf-8"),
    st.sampled_from(["UTF-8", "latin-1", "UTF-16", "utf-32", "shift_jis"])
    | st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_",
              min_size=1, max_size=12),
    st.sampled_from(["", ' xmlns="http://www.tei-c.org/ns/1.0"']),
    st.lists(_NODE, max_size=4).map("".join))
_DEEP_TEI = _DEPTH.map(lambda n: ("<TEI>" + "<div>" * n + "</div>" * n
                                  + "</TEI>").encode())


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _returns_or_data_error(read, path, content):
    path.write_bytes(content)
    try:
        read(path)
    except DataError:
        pass


@given(content=_CONTENT)
@settings(max_examples=300, deadline=None)
def test_read_tsv(path, content):
    _returns_or_data_error(corpus.read_tsv, path, content)


@given(content=st.one_of(_CONTENT, _TEI, _DEEP_TEI))
@settings(max_examples=300, deadline=None)
def test_parse_tei(path, content):
    _returns_or_data_error(corpus.parse_tei, path, content)


@given(content=_CONTENT)
@settings(max_examples=300, deadline=None)
def test_read_predictions(path, content):
    _returns_or_data_error(metrics._read_predictions, path, content)


@given(content=_CONTENT)
@settings(max_examples=300, deadline=None)
def test_lexicon_load(path, content):
    _returns_or_data_error(StressLexicon.load, path, content)


@given(content=st.one_of(_CONTENT, _MODEL_DOC, _DEEP_JSON))
@settings(max_examples=300, deadline=None)
def test_load_model(path, content):
    _returns_or_data_error(baseline.load_model, path, content)


_MODEL_HEAD = (b'{"format": "escansion-baseline", "version": 1, '
               b'"embedding_dim": 1, "bucket_count": 1, "ngram_min": 1, '
               b'"ngram_max": 1, "vocab": [], "train_meta": {}, '
               b'"head_weights": "", "head_biases": "", ')


# inputs the draws above found raising something other than a DataError
@pytest.mark.parametrize("read,content", [
    (corpus.parse_tei, b'<?xml version="1.0" encoding="a"?><TEI></TEI>'),
    (corpus.parse_tei,
     b'<?xml version="1.0" encoding="utf-32"?><TEI></TEI>'),
    (corpus.parse_tei, b"<TEI>" + b"<div>" * 2000 + b"</div>" * 2000
     + b"</TEI>"),
    (baseline.load_model, b"[" * 2000 + b"]" * 2000),
    (baseline.load_model, _MODEL_HEAD + b'"embeddings": null}'),
    (baseline.load_model, _MODEL_HEAD + b'"embeddings": {}}'),
], ids=["tei-unknown-encoding", "tei-multi-byte-encoding",
        "tei-nested-2000-deep", "model-nested-2000-deep",
        "model-blob-null", "model-blob-object"])
def test_found_inputs(path, read, content):
    _returns_or_data_error(read, path, content)
