import json

import pytest

from anickres.documents import (
    DocumentError,
    PresentationDocument,
    Report,
    parse_expression,
)
from anickres.kostant import small_system


EXPLICIT = """
{
  "p": 2,
  "alphabet": [
    {"name": "a0", "degree": 1, "rank": 0},
    {"name": "b0", "degree": 1, "rank": 1}
  ],
  "relations": [
    [[1, ["a0", "a0"]]],
    [[1, ["b0", "b0"]]],
    [[1, ["b0", "a0", "b0", "a0"]], [1, ["a0", "b0", "a0", "b0"]]]
  ]
}
"""


def test_explicit_document_builds_small_l0():
    loaded = PresentationDocument.from_json(EXPLICIT).build()
    reference = small_system(0)
    assert {str(r.lhs) for r in loaded.system.rules} == {
        str(r.lhs) for r in reference.rules
    }
    assert loaded.system.is_complete()[0]


def test_document_rejects_bad_json():
    with pytest.raises(DocumentError):
        PresentationDocument.from_json("{not json")


def test_document_rejects_undeclared_generator():
    doc = PresentationDocument(
        p=2,
        alphabet=[{"name": "a0", "degree": 1, "rank": 0}],
        relations=[[[1, ["zz"]]]],
    )
    with pytest.raises(DocumentError):
        doc.build()


def test_document_rejects_duplicate_names():
    doc = PresentationDocument(
        p=2,
        alphabet=[
            {"name": "a0", "degree": 1, "rank": 0},
            {"name": "a0", "degree": 1, "rank": 1},
        ],
        relations=[],
    )
    with pytest.raises(DocumentError):
        doc.build()


@pytest.mark.parametrize("name", ["1", "e", "2", "-3", "a b", "a\tb", "a+b", "+", "", 7])
def test_document_rejects_names_an_expression_cannot_spell(name):
    doc = PresentationDocument(
        p=2,
        alphabet=[{"name": name, "degree": 1, "rank": 0}],
        relations=[],
    )
    with pytest.raises(DocumentError, match="generator name"):
        doc.build()


@pytest.mark.parametrize(
    "entry, reason",
    [
        ({"name": "x", "degree": 1, "rank": 0, "degre": 2}, "unknown key 'degre'"),
        ("x", "alphabet entry 'x' is not an object"),
        (["x", 1, 0], "alphabet entry ['x', 1, 0] is not an object"),
        (None, "alphabet entry None is not an object"),
    ],
)
def test_document_rejects_malformed_alphabet_entries(entry, reason):
    # an entry is an object with exactly the keys name, degree and rank: a
    # misspelt key would otherwise be ignored, and a non-object entry fail
    # with Python's own wording
    doc = PresentationDocument(p=2, alphabet=[entry], relations=[])
    with pytest.raises(DocumentError) as info:
        doc.build()
    assert str(info.value).startswith(reason)


def test_explicit_document_takes_no_params():
    # an explicit document gives p, alphabet and relations; params belong to
    # a builtin, and an empty object, the default, is the only one allowed
    data = json.loads(EXPLICIT)
    assert PresentationDocument(**data, params={}).build().system.rules
    for params in (3, [], {"l": 1}):
        with pytest.raises(DocumentError, match="params belong to a builtin document"):
            PresentationDocument(**data, params=params).build()


def test_document_needs_content():
    with pytest.raises(DocumentError):
        PresentationDocument().build()


def test_builtin_selector():
    doc = PresentationDocument(builtin="small", params={"l": 1})
    loaded = doc.build()
    assert len(loaded.system.alphabet) == 4
    assert loaded.document is doc
    with pytest.raises(DocumentError):
        PresentationDocument(builtin="nope").build()


def test_document_json_roundtrip():
    doc = PresentationDocument(builtin="small", params={"l": 2})
    again = PresentationDocument.from_json(doc.to_json())
    assert again.builtin == doc.builtin
    assert again.params == doc.params


def test_parse_expression():
    system = small_system(1)
    f = parse_expression(system, "b0 a0 b0 a0 + a0 b0 a0 b0")
    assert system.normal_form(f).is_zero()
    g = parse_expression(system, "1")
    assert list(g.terms) == [system.alphabet.empty_word]
    h = parse_expression(system, "3 a0 b0 + a0 b0")
    assert h.terms.get(system.alphabet.word("a0", "b0"), 0) == 0


def test_parse_expression_errors():
    system = small_system(0)
    with pytest.raises(DocumentError):
        parse_expression(system, "a0 + ")
    with pytest.raises(DocumentError):
        parse_expression(system, "zz")


def test_report_roundtrip():
    report = Report(
        "betti",
        {"D": 16, "l": 3},
        {"exact": True},
        tables={"betti": {"0": {"0": 1}}},
        timing=1.23,
    )
    again = Report.from_json(report.to_json())
    assert again == report  # timing excluded from equality
    assert report.to_json() == again.to_json()  # byte-identical canonical form
