"""The paper's theorem on a family of groups, not on the corpus alone.

AGL(1,q) = <x -> wx, x -> x + 1>, with w a primitive root mod a prime q,
acts on the q points of GF(q).  By James and Jones (1985) the regular
embeddings of the complete graph K_q are exactly its oriented maps with
q vertices: there are phi(q - 1) of them, each of valency q - 1 and chiral
for every q >= 5.  Each is a q-map whose Sylow q-subgroup, the
translations, is normal and elementary abelian.
"""

from math import gcd

import pytest

from regmaps.census import census_classify, enumerate_oriented
from regmaps.classify import certify_sylow_structure, verify_classification_law
from regmaps.grammar import parse_group_file, realize_group_file


def primitive_root(q: int) -> int:
    return next(w for w in range(2, q)
                if len({pow(w, e, q) for e in range(1, q)}) == q - 1)


def cycles(image) -> str:
    """The cycle notation of the permutation x -> image(x) of GF(q), with
    x written as the point x + 1."""
    q = len(image)
    seen, out = set(), []
    for x in range(q):
        if x in seen or image[x] == x:
            continue
        cyc = [x]
        while image[cyc[-1]] != x:
            cyc.append(image[cyc[-1]])
        seen.update(cyc)
        out.append("(" + " ".join(str(y + 1) for y in cyc) + ")")
    return "".join(out)


def agl1_file(q: int) -> str:
    w = primitive_root(q)
    return "\n".join([
        f"group agl1_{q}",
        "perm a = " + cycles([w * x % q for x in range(q)]),
        "perm b = " + cycles([(x + 1) % q for x in range(q)]),
    ]) + "\n"


def phi(n: int) -> int:
    return sum(gcd(k, n) == 1 for k in range(1, n + 1))


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_agl1_oriented_census_is_the_regular_embeddings_of_kq(q, tmp_path):
    path = tmp_path / f"agl1_{q}.grp"
    path.write_text(agl1_file(q))
    G = realize_group_file(parse_group_file(path.read_text())).group
    assert G.order == q * (q - 1)
    entries = census_classify(enumerate_oriented(G))
    qmaps = [e for e in entries
             if e.classification is not None and e.classification.p == q]
    assert len(qmaps) == phi(q - 1)
    for e in qmaps:
        assert (e.report.vertices, e.report.valency) == (q, q - 1)
        assert e.classification.orientation_status == "chiral"
        assert e.classification.normal
        assert not e.violations
        assert (certify_sylow_structure(e.map).case_tag
                == "direct_product_elementary")
        assert verify_classification_law(e.map).branch == "normal"
