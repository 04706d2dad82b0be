import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regmaps.cli as cli
import regmaps.words
from regmaps.errors import (ContractViolation, ParseError, RegmapsError,
                            ResourceLimitExceeded)
from regmaps.grammar import (MAX_NESTING, GroupFile, MapDecl, _Cursor,
                             _parse_word, format_group_file, format_word,
                             matrix_group, parse_group_file, read_group_text,
                             realize_group_file)
from regmaps.perm import Perm
from regmaps.verify import corpus_names, corpus_text
from regmaps.words import Presentation, Word

GOOD = """\
group sample
gens a, b
rel a^4
rel b^2
rel (a*b)^3   # comment after a statement
rel [a, b] = a^2

map m : oriented r=a l=b
"""


def test_parse_basics():
    gf = parse_group_file(GOOD)
    assert gf.name == "sample"
    assert gf.mode == "gens"
    assert gf.gen_names == ("a", "b")
    assert len(gf.presentation.relators) == 4
    assert gf.maps[0].name == "m" and gf.maps[0].kind == "oriented"
    assert gf.maps[0].word("r") == Word.gen(0)


def test_roundtrip_through_printer():
    gf = parse_group_file(GOOD)
    printed = format_group_file(gf)
    assert parse_group_file(printed) == gf
    # printing is idempotent
    assert format_group_file(parse_group_file(printed)) == printed


def test_a_long_cycle_is_printed_near_the_size_of_its_text():
    # a cycle given as a range, as `tc --export-perms` gives a cyclic
    # group's, is the 1-based points in order; one string per point held
    # at once would cost about nine times the text
    n = 200_000
    gf = GroupFile("c", "perm", ("a",), None, ((range(n),),), (), None, ())
    want = ("group c\nperm a = (" + " ".join(map(str, range(1, n + 1)))
            + ")\n")
    tracemalloc.start()
    try:
        text = format_group_file(gf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == want
    assert peak < 2.5 * len(text)
    cycles = ((tuple(range(n)),),)
    assert format_group_file(GroupFile(
        "c", "perm", ("a",), None, cycles, (), None, ())) == want


def test_word_forms():
    gf = parse_group_file(
        "group w\ngens a, b\nrel a^-2\nrel a^b\nrel b*(a*b)^2\n")
    rels = gf.presentation.relators
    assert rels[0].letters == (-1, -1)
    assert rels[1].letters == (-2, 1, 2)       # conjugation b^-1 a b
    assert rels[2].letters == (2, 1, 2, 1, 2)


def test_equality_relator_folds():
    gf = parse_group_file("group w\ngens a, b\nrel a*b = b\n")
    assert gf.presentation.relators[0].letters == (1,)
    # an equality that reduces to nothing is dropped
    gf = parse_group_file("group w\ngens a\nrel a = a\nrel a^3\n")
    assert len(gf.presentation.relators) == 1


def test_lexer_position_reporting():
    with pytest.raises(ParseError) as e:
        parse_group_file("group t\ngens a\nrel a%2\n")
    assert e.value.line == 3 and e.value.column == 6
    assert "line 3, column 6" in str(e.value)


_GENS = "group t\ngens a\n"


@pytest.mark.parametrize("text,fragment", [
    ("gens a\n", "must start with a 'group' line"),
    ("group t\ngroup u\ngens a\n", "duplicate 'group'"),
    ("", "missing 'group' line"),
    ("group t\n", "no generator declarations"),
    ("group t\ngens a, a\n", "duplicate generator"),
    ("group t\ngens a\ngens b\n", "duplicate 'gens'"),
    ("group t\nperm a = (1 2)\nrel a^2\n", "'rel' requires"),
    ("group t\ngens a\nperm b = (1 2)\n", "cannot be mixed"),
    ("group t\nfrob a\n", "unknown keyword"),
    ("group t\ngens a\nrel c^2\n", "unknown identifier"),
    ("group t\ngens a b\n", "expected ','"),
    ("group t\nmap m : oriented r=a l=a\n", "need a generator declaration"),
    ("group t\ngens a\nrel a^2\nmap m : oriented l=a r=a\n", "expected r="),
    ("group t\ngens a\nrel a^2\nmap m : warped r=a l=a\n",
     "expected 'oriented' or 'flagged'"),
    ("group t\ngens a\nrel a^2\nmap m : oriented r=a l=a\n"
     "map m : oriented r=a l=a\n", "duplicate map"),
    ("group t\nperm a = (1 2)(2 3)\n", "point 2 repeated"),
    ("group t\nperm a = (0 1)\n", "positive integers"),
    ("group t\nmat a = [[1,0],[0,1]] mod 6\n", "must be a prime"),
    ("group t\nmat a = [[1,0],[0,1]] mod 3\nmat b = [[1,0],[0,1]] mod 5\n",
     "share one modulus"),
    ("group t\ngens a\nrel a^2000000000\n", "exponent overflow"),
    # a digit outside ASCII, and a literal past int()'s digit limit
    ("group t\ngens a\nrel a^\u00b2\n", "column 7: unexpected character"),
    pytest.param("group t\ngens a\nrel a^" + "9" * 5000 + "\n",
                 "column 7: integer literal too long", id="5000-digit literal"),
    ("group t\ngens a\nrel a^2 junk\n", "unexpected trailing"),
    # the whole message, one case per raise site
    ("\n\ngens a\n", "line 3, column 1: file must start with a 'group' line"),
    ("group t\ngroup u\ngens a\n", "line 2, column 1: duplicate 'group' line"),
    ("# only a comment\n", "line 1, column 1: empty file: missing 'group' line"),
    ("group t\n# none\n", "line 1, column 1: no generator declarations"),
    ("group t\n= a\n", "line 2, column 1: expected a keyword"),
    ("group 7\n", "line 1, column 7: expected an identifier"),
    ("group t\ngens a, a\n", "line 2, column 9: duplicate generator 'a'"),
    ("group t\ngens a, 3\n", "line 2, column 9: expected a generator name"),
    ("group t\ngens a,\n", "line 2, column 7: unexpected end of line"),
    ("group t\ngens a\ngens b\n", "line 3, column 1: duplicate 'gens' line"),
    ("group t\nperm a = (1 2)\nrel a^2\n",
     "line 3, column 1: 'rel' requires a 'gens' declaration"),
    ("group t\ngens a\nperm b = (1 2)\n",
     "line 3, column 1: 'perm' declarations cannot be mixed with 'gens'"),
    ("group t\nfrob a\n", "line 2, column 1: unknown keyword 'frob'"),
    (_GENS + "rel c^2\n", "line 3, column 5: unknown identifier 'c'"),
    (_GENS + "rel a*)\n", "line 3, column 7: unexpected ')' in word"),
    (_GENS + "rel a*\n", "line 3, column 6: unexpected end of line"),
    (_GENS + "rel (a a\n", "line 3, column 8: expected ')'"),
    (_GENS + "rel a^\n", "line 3, column 6: expected an exponent"),
    (_GENS + "rel " + "(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1)
     + "\n", "line 3, column 105: brackets nested deeper than 100"),
    ("group t\ngens a b\n", "line 2, column 8: expected ','"),
    ("group t\nmap m : oriented r=a l=a\n",
     "line 2, column 1: maps need a generator declaration first"),
    (_GENS + "map m oriented r=a l=a\n", "line 3, column 7: expected ':'"),
    (_GENS + "rel a^2\nmap m : oriented l=a r=a\n",
     "line 4, column 18: expected r=<word>"),
    (_GENS + "rel a^2\nmap m : warped r=a l=a\n",
     "line 4, column 9: expected 'oriented' or 'flagged'"),
    (_GENS + "rel a^2\nmap m : oriented r=a l=a\n"
     "map m : oriented r=a l=a\n", "line 5, column 1: duplicate map 'm'"),
    ("group t\nperm a (1 2)\n", "line 2, column 8: expected '='"),
    ("group t\nperm a = (1 2)\nperm a = (1 3)\n",
     "line 3, column 1: duplicate name 'a'"),
    ("group t\nperm a = (1 2)(2 3)\n", "line 2, column 16: point 2 repeated"),
    ("group t\nperm a = (0 1)\n",
     "line 2, column 11: cycle points are positive integers"),
    ("group t\nmat a = [[1,0],[0,1]] mod 3\nmat a = [[1,0],[0,1]] mod 3\n",
     "line 3, column 1: duplicate name 'a'"),
    ("group t\nmat a = [[1,x],[0,1]] mod 3\n",
     "line 2, column 13: expected a matrix entry"),
    ("group t\nmat a = [[1,0],[0,1]] by 3\n", "line 2, column 1: expected 'mod'"),
    ("group t\nmat a = [[1,0],[0,1]] mod 6\n",
     "line 2, column 27: modulus must be a prime"),
    ("group t\nmat a = [[1,0],[0,1]] mod 10000000000000000000000000007\n",
     "line 2, column 27: cannot decide whether"
     " 10000000000000000000000000007 is prime"),
    ("group t\nmat a = [[1,0],[0,1]] mod 3\nmat b = [[1,0],[0,1]] mod 5\n",
     "line 3, column 27: all matrices must share one modulus"),
    (_GENS + "rel a^2000000000\n", "line 3, column 7: exponent overflow"),
    ("group t\ngens a, b\nrel (a*b)^600000\n",
     "line 3, column 11: exponent overflow"),
    (_GENS + "rel a^600000*a^600000\n",
     "line 3, column 1: word longer than 1000000 letters"),
    (_GENS + "rel a^\u00b2\n", "line 3, column 7: unexpected character '\u00b2'"),
    pytest.param("group t\nperm a = (1 " + "9" * 5000 + ")\n",
                 "line 2, column 13: integer literal too long",
                 id="5000-digit point"),
    (_GENS + "rel a^2 junk\n", "line 3, column 9: unexpected trailing 'junk'"),
])
def test_rejections(text, fragment):
    with pytest.raises(ParseError) as e:
        parse_group_file(text)
    # a fragment that starts with the position is the whole message
    if fragment.startswith("line "):
        assert str(e.value) == fragment
    else:
        assert fragment in str(e.value)


def test_a_long_power_relator_is_parsed_in_one_copy():
    # the relator's letters take 8 MB; building them takes no second copy
    tracemalloc.start()
    try:
        gf = parse_group_file("group t\ngens a\nrel a^1000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gf.presentation.relators[0] == Word.gen(0) ** 10**6
    assert peak <= 10_000_000


@pytest.mark.parametrize("text,message", [
    # the nesting bound is met before the '+' is read
    (_GENS + "rel " + "(" * (MAX_NESTING + 1) + "a+b" + ")" * (MAX_NESTING + 1)
     + "\n", "line 3, column 105: brackets nested deeper than 100"),
    (_GENS + "rel c %\n", "line 3, column 5: unknown identifier 'c'"),
    ("group t\nperm a = (1 2)\nrel a^2 %\n",
     "line 3, column 1: 'rel' requires a 'gens' declaration"),
])
def test_a_line_is_read_up_to_its_first_error(text, message):
    # tokens are lexed as the parser reaches them, so the error reported is
    # the first in reading order, even where a later character is bad
    with pytest.raises(ParseError) as e:
        parse_group_file(text)
    assert str(e.value) == message


letter = st.sampled_from((1, -1, 2, -2))
factor = st.lists(letter, min_size=1, max_size=4).map(
    lambda ls: Word(tuple(ls))).filter(lambda w: not w.is_empty())


@given(st.lists(factor, min_size=1, max_size=8), st.integers(4, 24))
@settings(max_examples=200, deadline=None)
def test_a_product_is_parsed_as_the_fold_of_its_factors(factors, bound):
    # every prefix of the product gives the left fold of `*`, under a letter
    # bound small enough to be met: the reduced concatenation, refused at
    # the first factor that the reduced word before it cannot take
    names = {"a": Word.gen(0), "b": Word.gen(1)}
    texts = ["(" + format_word(w, "ab") + ")" for w in factors]
    assert _parse_word(_Cursor(texts[0], 1), names) == factors[0]
    refusal = f"word longer than {bound} letters"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regmaps.words, "MAX_WORD_LETTERS", bound)
        folded = factors[0]
        for k, w in enumerate(factors[1:], 2):
            cur = _Cursor("*".join(texts[:k]), 1)
            if len(folded.letters) + len(w.letters) > bound:
                with pytest.raises(ContractViolation, match=refusal):
                    _parse_word(cur, names)
                break
            folded = Word(folded.letters + w.letters)
            assert _parse_word(cur, names) == folded
            assert cur.done()


def test_a_long_product_is_parsed_in_linear_time():
    text = ("group g\ngens a, b\nrel "
            + "*".join("ab"[i % 2] for i in range(10**5)) + "\n")
    start = time.perf_counter()
    gf = parse_group_file(text)
    assert time.perf_counter() - start < 2.0
    assert gf.presentation.relators[0].letters == (1, 2) * (10**5 // 2)


def test_generator_named_like_a_field():
    # 'l' as a generator name stays unambiguous because map fields are
    # positional: the word for r stops at the first token that cannot
    # extend it.
    gf = parse_group_file(
        "group t\ngens r, l\nrel r^4\nrel l^2\nrel (r*l)^2\n"
        "map m : oriented r=l l=r*l\n")
    md = gf.maps[0]
    assert md.word("r") == Word.gen(1)
    assert md.word("l").letters == (1, 2)


def test_format_word_run_lengths():
    names = ("a", "b")
    assert format_word(Word((1, 1, 1)), names) == "a^3"
    assert format_word(Word((-1, -1, 2)), names) == "a^-2*b"
    assert format_word(Word((1, 2, 1)), names) == "a*b*a"
    # the empty word prints as a zero power, which parses back to it
    assert format_word(Word(()), names) == "a^0"
    gf = parse_group_file("group t\ngens a, b\nrel a^2\nrel b^2\n"
                          "map m : flagged t=a r=b l=a^0\n")
    assert gf.maps[0].word("l").is_empty()
    assert parse_group_file(format_group_file(gf)) == gf


def test_matrix_group_realization():
    # the two standard generators of GL(2, 3)
    G = matrix_group(3, (((-1, 1), (0, -1)), ((0, 1), (1, 0))))
    assert G.order == 48
    with pytest.raises(ContractViolation):
        matrix_group(3, (((1, 2), (2, 1)),))  # determinant 0 mod 3
    with pytest.raises(ContractViolation):
        matrix_group(4, (((1, 0), (0, 1)),))


def test_matrix_group_point_bound():
    # refused on the number of points, before any vector or closure
    with pytest.raises(ResourceLimitExceeded) as e:
        matrix_group(101, (((2, 1), (1, 0)),), max_order=2000)
    assert e.value.limit_name == "max_order"
    with pytest.raises(ResourceLimitExceeded):
        matrix_group(10**12 + 39, (((2, 1), (1, 0)),))


def test_perm_generator_order_bound():
    # a generator of order lcm(3, 4) = 12 is refused on its cycle lengths,
    # with closure's refusal; a bound below 1 stays closure's contract
    gf = parse_group_file("group c12\nperm a = (1 2 3)(4 5 6 7)\n")
    with pytest.raises(ResourceLimitExceeded,
                       match=r"^closure exceeded max_order=11$"):
        realize_group_file(gf, max_order=11)
    assert realize_group_file(gf, max_order=12).group.order == 12
    with pytest.raises(ContractViolation,
                       match="max_order must be at least 1, got 0"):
        realize_group_file(gf, max_order=0)


def test_realize_perm_mode_and_evaluate():
    gf = parse_group_file(
        "group klein\nperm a = (1 2)\nperm b = (3 4)\n"
        "map m : flagged t=a r=b l=a*b\n")
    rz = realize_group_file(gf)
    assert rz.group.order == 4
    a, b = rz.group.gen_indices
    assert (Word.gen(0) * Word.gen(0)).evaluate(rz.group, (a, b)) == 0
    assert "m" in rz.maps
    m = rz.maps["m"]
    assert sorted((m.t, m.r, m.l)) == sorted((a, b, rz.group.mul(a, b)))


def test_realize_rejects_broken_map():
    gf = parse_group_file(
        "group t\nperm a = (1 2)\nperm b = (3 4)\n"
        "map m : oriented r=a l=a*b*a*b\n")  # l evaluates to the identity
    with pytest.raises(ContractViolation) as e:
        realize_group_file(gf)
    assert "map 'm'" in str(e.value)


@pytest.mark.parametrize("content", [None, b"group \xff\n"],
                         ids=["missing", "not_utf8"])
def test_an_unreadable_file_is_a_contract_violation(tmp_path, capsys,
                                                    content):
    p = tmp_path / "bad.grp"
    if content is not None:
        p.write_bytes(content)
    with pytest.raises(ContractViolation, match="^cannot read "):
        read_group_text(p)
    assert cli.main(["analyze", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {p}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("p", [701, 997])
def test_a_refused_matrix_action_peaks_under_160_mb(tmp_path, capsys, p):
    # a generator whose order passes the cell bound is refused before any
    # image tuple on the p**2 - 1 points is built
    f = tmp_path / "big.grp"
    f.write_text(f"group big\nmat a = [[2,1],[1,0]] mod {p}\n"
                 f"mat b = [[0,1],[1,0]] mod {p}\n"
                 "map m : oriented r=a l=b\n", encoding="utf-8")
    tracemalloc.start()
    try:
        ret = cli.main(["analyze", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ret == 5
    assert "max_cells" in capsys.readouterr().err
    assert peak < 160 * 10**6


@pytest.mark.parametrize("opens,closes", [("(", ")"), ("[a, ", "]")])
def test_nesting_limit(opens, closes):
    def text(depth):
        return ("group g\ngens a\nrel "
                + opens * depth + "a" + closes * depth + "\n")
    parse_group_file(text(MAX_NESTING))
    with pytest.raises(ParseError, match="nested deeper"):
        parse_group_file(text(MAX_NESTING + 1))


# -- properties --------------------------------------------------------------

ALPHABET = "abglmprt \t\n()[]*^,=:#-_019é²"
TOKENS = ("a", "b", "l", "r", "0", "1", "-2", "99", "(", ")", "[", "]", ",",
          "*", "^", "=", ":", " ", "#", "\n", "é", "gens", "rel", "perm",
          "mat", "mod", "map", "oriented", "flagged")
CORPUS_LINES = [corpus_text(n).splitlines() for n in corpus_names()]


@st.composite
def corrupted_corpus_text(draw):
    """A corpus file with a short span of one or two statements replaced
    by a few tokens."""
    lines = list(draw(st.sampled_from(CORPUS_LINES)))
    statements = [k for k, line in enumerate(lines)
                  if line and not line.startswith("#")]
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.sampled_from(statements))
        i = draw(st.integers(0, len(lines[k])))
        j = draw(st.integers(i, min(len(lines[k]), i + 4)))
        new = "".join(draw(st.lists(st.sampled_from(TOKENS), max_size=3)))
        lines[k] = lines[k][:i] + new + lines[k][j:]
    return "\n".join(lines)


@given(st.one_of(st.text(alphabet=ALPHABET, max_size=120),
                 corrupted_corpus_text()))
@settings(max_examples=300, deadline=None)
def test_parse_returns_or_raises_package_error(text):
    try:
        parse_group_file(text)
    except RegmapsError:
        pass


# Identifiers, keywords among them: a name is never read as a keyword.
NAMES = st.sampled_from(
    ("a", "b", "x1", "y_2", "r", "l", "mod", "rel", "map", "group"))


@st.composite
def group_files(draw):
    """A GroupFile in any of the three modes, with up to two maps."""
    mode = draw(st.sampled_from(("gens", "perm", "mat")))
    gen_names = tuple(draw(st.lists(NAMES, min_size=1, max_size=3,
                                    unique=True)))
    n = len(gen_names)
    letter = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    word = st.lists(letter, min_size=1, max_size=8).map(
        lambda ls: Word(tuple(ls))).filter(lambda w: not w.is_empty())
    presentation, perm_cycles, matrices, modulus = None, (), (), None
    if mode == "gens":
        presentation = Presentation(gen_names, tuple(
            draw(st.lists(word, max_size=4))))
    elif mode == "perm":
        degree = draw(st.integers(1, 6))
        perm_cycles = tuple(
            tuple(Perm(draw(st.permutations(range(degree)))).cycles())
            for _ in gen_names)
    else:
        modulus = draw(st.sampled_from((2, 3, 5, 7)))
        entry = st.integers(-9, 9)
        matrices = tuple(
            tuple(tuple(draw(st.lists(entry, min_size=2, max_size=2)))
                  for _ in range(2))
            for _ in gen_names)
    maps = []
    for name in draw(st.lists(NAMES, max_size=2, unique=True)):
        kind = draw(st.sampled_from(("oriented", "flagged")))
        fields = ("r", "l") if kind == "oriented" else ("t", "r", "l")
        maps.append(MapDecl(name, kind,
                            tuple((f, draw(word)) for f in fields)))
    return GroupFile(name=draw(NAMES), mode=mode, gen_names=gen_names,
                     presentation=presentation, perm_cycles=perm_cycles,
                     matrices=matrices, modulus=modulus, maps=tuple(maps))


@given(group_files())
@settings(max_examples=60, deadline=None)
def test_parse_inverts_format(gf):
    assert parse_group_file(format_group_file(gf)) == gf
