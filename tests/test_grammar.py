import pytest

from regmaps.errors import ContractViolation, ParseError
from regmaps.grammar import (MAX_NESTING, format_group_file, format_word,
                             load_group_file, matrix_group, parse_group_file,
                             realize_group_file)
from regmaps.words import Word

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


def test_realize_perm_mode_and_evaluate():
    gf = parse_group_file(
        "group klein\nperm a = (1 2)\nperm b = (3 4)\n"
        "map m : flagged t=a r=b l=a*b\n")
    rz = realize_group_file(gf)
    assert rz.group.order == 4
    assert rz.evaluate(Word.gen(0) * Word.gen(0)) == 0
    assert "m" in rz.maps
    m = rz.maps["m"]
    assert sorted((m.t, m.r, m.l)) == sorted(
        (rz.gen_elements[0], rz.gen_elements[1],
         rz.group.mul(rz.gen_elements[0], rz.gen_elements[1])))


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
