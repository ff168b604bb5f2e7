import pytest
from hypothesis import given, settings, strategies as st

from dyntwist import DyntwistError, LieData, SchemaError, UEnvelope, schema
from dyntwist.cli import main

from conftest import CORPUS, ORDER


def test_parse_corpus_algebras(sl2, ab2, aff, nonab):
    for name, lie in (("sl2", sl2), ("abelian2", ab2), ("affxc2", aff),
                      ("nonab", nonab)):
        parsed = schema.parse_algebra((CORPUS / f"{name}.alg").read_text())
        assert parsed.basis_names == lie.basis_names
        assert parsed._sc == lie._sc
        assert parsed.h_indices == lie.h_indices
        assert parsed.mode == lie.mode
    assert aff.mode == "abelian_base"
    assert aff.h_indices == (2, 3)


def test_corpus_rmatrix_matches_fixture(sl2, sl2_rho, ab2, ab2_rho,
                                        aff, aff_rho):
    for name, lie, rho in (("sl2", sl2, sl2_rho), ("abelian2", ab2, ab2_rho),
                           ("affxc2", aff, aff_rho)):
        body = schema.parse_rmatrix(
            (CORPUS / f"{name}.rmat").read_text(), lie, ORDER
        )
        # a file may carry leg degrees beyond the fixture's as headroom
        for d in range(ORDER + 1):
            assert body.component(sh=d) == rho.body.component(sh=d)


def test_twist_round_trip(sl2_uea, sl2_pair):
    doc = schema.dump_twist(sl2_pair.K)
    back = schema.parse_twist(doc, sl2_uea)
    assert back == sl2_pair.K
    assert back.order == ORDER and back.arity == 2


def test_twist_parse_straightens_words(sl2_uea):
    # f.e in a slot is straightened to ef - h
    doc = (
        "twist\narity 1\norder 1\nhbar 0\n"
        "term 1 * (f.e | 1)\nend\n"
    )
    K = schema.parse_twist(doc, sl2_uea)
    doc2 = (
        "twist\narity 1\norder 1\nhbar 0\n"
        "term 1 * (e.f | 1)\nterm -1 * (h | 1)\nend\n"
    )
    assert K == schema.parse_twist(doc2, sl2_uea)


def test_comments_and_blank_lines(sl2):
    doc = "# header\n\nrmatrix\nterm 1 * e^f * 1  # inline\n\nend\n"
    body = schema.parse_rmatrix(doc, sl2, ORDER)
    assert not body.is_zero()


@pytest.mark.parametrize(
    "doc",
    [
        "rmatrix\nterm 1 * e^f * 1\n",  # unclosed block
        "algebra\ndim 2\nend\n",  # missing basis
        "algebra\ndim\nbasis a\nend\n",  # dim without a value
        "algebra\ndim x\nbasis a\nend\n",  # non-integer dim
        "algebra\ndim 1\nbasis a\nmode\nend\n",  # mode without a value
        "algebra\ndim 1\nbasis a\nh_indices x\nend\n",  # non-integer index
        "algebra\ndim 2\nbasis a b\nbracket 0 x -> (1, 0)\nend\n",
        "algebra\ndim 2\nbasis a b\nbracket 0 1 -> (1, 9)\nend\n",
        "algebra\ndim 2\nbasis a b\nbracket 0 1 -> (1, -1)\nend\n",
        "algebra\ndim 2\nbasis a a\nend\n",  # duplicate basis name
        # repeated lines are refused, not read last-wins
        "algebra\ndim 2\nbasis a b\nbracket 0 1 -> (1, 0)\n"
        "bracket 0 1 -> (2, 1)\nend\n",
        "algebra\ndim 2\nbasis a b\nbracket 0 1 -> (1, 1)\n"
        "bracket 1 0 -> (-1, 1)\nend\n",  # the same unordered pair
        "algebra\ndim 2\nbasis a b\nbracket 0 1 -> (1, 1) (5, 1)\nend\n",
        "algebra\ndim 2\ndim 2\nbasis a b\nend\n",
        "algebra\ndim 2\nbasis a b\nbasis a b\nend\n",
        "algebra\ndim 2\nbasis a b\nh_indices 1\nh_indices 1\nend\n",
        "algebra\ndim 2\nbasis a b\nmode reductive\nmode reductive\nend\n",
        "algebra\ndim 2\nbasis a 1\nend\n",  # '1' is the empty word
        "algebra\ndim 2\nbasis a b.c\nend\n",  # '.' joins words
        # an exponent would build 10**999999999 before any check
        "algebra\ndim 2\nbasis a b\nbracket 0 1 -> (1e999999999, 1)\nend\n",
        "rmatrix\nterm 1 e^f 1\nend\n",  # malformed term
        "rmatrix\nterm 1/0 * e^f * 1\nend\n",  # bad rational
        "rmatrix\nterm 1 * e^f * e\nend\n",  # leg outside the base
        "twist\nterm 1 * (1 | 1)\nend\n",  # term before headers
        "twist\narity 2\norder -1\nend\n",  # negative order
        "twist\narity 2\norder 2\nhbar -1\nend\n",  # negative level
        "twist\narity 2\norder two\nend\n",  # non-integer header
        "twist\narity\norder 2\nend\n",  # header without a value
        "twist\narity 2\norder 99999999\nend\n",  # order above MAX_ORDER
        # a second header would re-read (or truncate away) earlier terms
        "twist\narity 2\norder 3\nhbar 3\nterm 1 * (e | f | 1)\n"
        "order 1\nend\n",
        "twist\narity 2\norder 1\narity 1\nend\n",
        # a level above the declared order
        "twist\narity 2\norder 2\nhbar 5\nterm 1 * (1 | 1 | 1)\nend\n",
    ],
)
def test_malformed_documents_raise(sl2, sl2_uea, doc):
    with pytest.raises(SchemaError):
        if doc.startswith("algebra"):
            schema.parse_algebra(doc)
        elif doc.startswith("twist"):
            schema.parse_twist(doc, sl2_uea)
        else:
            schema.parse_rmatrix(doc, sl2, ORDER)


# each names the line, whichever reader meets the bad name
@pytest.mark.parametrize("command, doc, err", [
    ("check-rmatrix", "rmatrix\nterm 1 * e^f * 1\nterm 1 * e^q * 1\nend\n",
     "line 3: unknown basis name 'q'"),
    ("check-rmatrix", "rmatrix\nterm 1 * e^f * z\nend\n",
     "line 2: unknown basis name 'z'"),
    ("verify-twist", "twist\narity 2\norder 1\nhbar 0\n"
     "term 1 * (1 | 1 | 1)\nhbar 1\nterm 1 * (e | zz | 1)\nend\n",
     "line 7: unknown basis name 'zz'"),
    ("check-rmatrix", "rmatrix\nterm 1 * e^f^h * 1\nend\n",
     "line 2: expected a wedge a^b"),
    ("check-rmatrix", "rmatrix\n# comment\nterm 1 * e^f * h..h\nend\n",
     "line 3: unknown basis name ''"),
], ids=["wedge-name", "leg", "slot", "three-factor-wedge", "empty-name"])
def test_unknown_names_are_malformed_input(tmp_path, capsys, command, doc,
                                           err):
    path = tmp_path / "doc"
    path.write_text(doc)
    reads = ["--rmatrix"] if command == "check-rmatrix" else []
    assert main([command, "--algebra", str(CORPUS / "sl2.alg"), *reads,
                 str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: {err}\n"
    assert captured.out == ""


def test_load_file_missing():
    with pytest.raises(SchemaError):
        schema.load_file("/nonexistent/file")


# line soups over the algebra keywords: values may be missing, non-integer,
# out of range, unbalanced or plain noise
_names = st.sampled_from(["a", "b", "c", "e", "1", "a.b", "x^y"])
_values = st.one_of(
    st.integers(-2, 5).map(str),
    st.sampled_from(["", "x", "1/2", "-", "->", "reductive", "abelian_base"]),
    st.text(alphabet="ab01-/(),> ", max_size=6),
)
_pairs = st.lists(
    st.tuples(st.one_of(st.integers(-3, 3).map(str), _values),
              st.one_of(st.integers(-1, 5).map(str), _values)),
    max_size=3,
).map(lambda ps: " ".join(f"({c}, {k})" for c, k in ps))
_lines = st.one_of(
    st.tuples(st.sampled_from(["dim", "h_indices", "mode", "bracket"]),
              st.lists(_values, max_size=4)).map(
        lambda t: " ".join([t[0], *t[1]])),
    st.lists(_names, max_size=5).map(lambda ns: " ".join(["basis", *ns])),
    st.tuples(_values, _values, _pairs).map(
        lambda t: f"bracket {t[0]} {t[1]} -> {t[2]}"),
)


# a matching dim/basis header, so that soups also reach LieData
_header = st.lists(_names, max_size=4).map(
    lambda ns: [f"dim {len(ns)}", " ".join(["basis", *ns])])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just([]), _header), st.lists(_lines, max_size=5))
def test_parse_algebra_fuzz(header, lines):
    doc = "\n".join(["algebra", *header, *lines, "end"]) + "\n"
    try:
        lie = schema.parse_algebra(doc)
    except DyntwistError:
        return
    assert isinstance(lie, LieData)
    assert len(set(lie.basis_names)) == lie.dim
    for comps in lie._sc.values():
        assert all(0 <= k < lie.dim for k in comps)


# rational-ish tokens and monomial-ish tokens over the sl2 names (e, h, f)
_good_coeffs = st.one_of(
    st.integers(-3, 3).map(str), st.sampled_from(["1/2", "-2/3", "0.5"]))
_coeffs = st.one_of(
    _good_coeffs, st.sampled_from(["1/0", "1e9", "x", "", "*", "1/2/3"]))
_words = st.lists(st.sampled_from(["e", "h", "f"]), max_size=3).map(
    lambda ws: ".".join(ws) or "1")
_monos = st.one_of(
    _words, st.sampled_from(["", "x", "e.", ".h", "e..f", "h^h", "(", "|"]))
_legs = st.integers(0, 3).map(lambda d: ".".join(["h"] * d) or "1")


def _soup(keywords, values):
    """Lines of a keyword followed by a few random tokens."""
    return st.tuples(st.sampled_from(keywords),
                     st.lists(values, max_size=5)).map(
        lambda t: " ".join([t[0], *t[1]]))


# well-formed terms, then at most one line of noise
_rmatrix_terms = st.tuples(
    _good_coeffs, st.sampled_from(["e", "h", "f"]),
    st.sampled_from(["e", "h", "f"]), _legs,
).map(lambda t: f"term {t[0]} * {t[1]}^{t[2]} * {t[3]}")
_rmatrix_noise = st.one_of(
    st.tuples(_coeffs, _monos, _monos, _monos).map(
        lambda t: f"term {t[0]} * {t[1]}^{t[2]} * {t[3]}"),
    st.tuples(_coeffs, _monos, _monos).map(
        lambda t: f"term {t[0]} * {t[1]} * {t[2]}"),
    _soup(["term", "rmatrix", "hbar", "end"], st.one_of(_coeffs, _monos)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_rmatrix_terms, max_size=4),
       st.lists(_rmatrix_noise, max_size=1), st.randoms())
def test_parse_rmatrix_fuzz(sl2, terms, noise, rnd):
    lines = terms + noise
    rnd.shuffle(lines)
    doc = "\n".join(["rmatrix", *lines, "end"]) + "\n"
    try:
        body = schema.parse_rmatrix(doc, sl2, ORDER)
    except DyntwistError:
        return
    assert body.order == ORDER
    for (w, s), _ in body.terms.items():
        assert all(sl2.is_h(i) for i in s)


def _twist_lines(arity):
    """Headers for `arity`, well-formed terms, and noise lines."""
    term = st.tuples(
        _good_coeffs, st.lists(_words, min_size=arity, max_size=arity),
        _legs,
    ).map(lambda t: f"term {t[0]} * (" + " | ".join([*t[1], t[2]]) + ")")
    level = st.integers(0, 3).map(lambda n: f"hbar {n}")
    noise = st.one_of(
        st.tuples(st.sampled_from(["arity", "order", "hbar"]),
                  st.one_of(st.integers(-1, 4).map(str),
                            st.sampled_from(["", "x", "1 2", "99"]))).map(
            lambda t: f"{t[0]} {t[1]}"),
        st.tuples(_coeffs, st.lists(_monos, max_size=4)).map(
            lambda t: f"term {t[0]} * (" + " | ".join(t[1]) + ")"),
        _soup(["term", "twist", "arity"], st.one_of(_coeffs, _monos)),
    )
    return st.tuples(
        st.integers(0, 3).map(
            lambda n: [f"arity {arity}", f"order {n}", "hbar 0"]),
        st.lists(st.one_of(term, level), max_size=5),
        st.lists(noise, max_size=1),
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2).flatmap(_twist_lines), st.booleans(), st.randoms())
def test_parse_twist_fuzz(sl2_uea, parts, with_header, rnd):
    header, body, noise = parts
    lines = body + noise
    rnd.shuffle(lines)
    doc = "\n".join(
        ["twist", *(header if with_header else []), *lines, "end"]) + "\n"
    try:
        K = schema.parse_twist(doc, sl2_uea)
    except DyntwistError:
        return
    assert 0 <= K.order <= schema.MAX_ORDER
    for key in K.terms:
        assert len(key) == K.arity + 1
        assert all(sl2_uea.lie.is_h(i) for i in key[-1])


def test_parse_twist_straightens_the_leg():
    # in U h, b.a = a.b - [a, b] = a.b - b
    lie = schema.parse_algebra((CORPUS / "nonab.alg").read_text())
    uea = UEnvelope(lie)
    doc = "twist\narity 1\norder 1\nhbar 0\nterm 1 * (1 | b.a)\nend\n"
    a, b = lie.index_of("a"), lie.index_of("b")
    K = schema.parse_twist(doc, uea)
    assert K.layer(0) == {((), (a, b)): 1, ((), (b,)): -1}
    assert not K.layer(1)
