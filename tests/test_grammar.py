import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmaps.errors import (ContractViolation, ParseError, RegmapsError,
                            ResourceLimitExceeded)
from regmaps.grammar import (MAX_NESTING, GroupFile, MapDecl,
                             format_group_file, format_word, load_group_file,
                             matrix_group, parse_group_file,
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
])
def test_rejections(text, fragment):
    with pytest.raises(ParseError) as e:
        parse_group_file(text)
    assert fragment in str(e.value)


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
    with pytest.raises(ContractViolation):
        format_word(Word(()), names)


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


def test_load_group_file(tmp_path):
    p = tmp_path / "t.grp"
    p.write_text(GOOD, encoding="utf-8")
    assert load_group_file(p) == parse_group_file(GOOD)


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
