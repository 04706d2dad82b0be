"""The paper's theorem on a family of groups, not on the corpus alone.

AGL(1,q) = <x -> wx, x -> x + 1>, with w a primitive element of GF(q),
acts on the q points of GF(q).  By James and Jones (1985) the regular
embeddings of the complete graph K_q, for q = p^e, are exactly its oriented
maps with q vertices: there are phi(q - 1)/e classes of them up to
isomorphism, each of valency q - 1 and chiral for every q >= 5.  Each is a
p-map with k = e whose Sylow p-subgroup, the translations, is normal and
elementary abelian of rank e.
"""

from math import gcd

import pytest

from regmaps.census import census_classify, enumerate_oriented
from regmaps.classify import certify_sylow_structure
from regmaps.grammar import parse_group_file, realize_group_file

from oracles import verify_classification_law


def times_primitive(p: int, e: int) -> list:
    """The map x -> w*x of GF(p^e), for w a primitive element.  An element
    is the number whose base-p digits are its coefficients at 1, w, ...,
    w^(e-1).  Each reduction w^e = sum of low[i] w^i is tried in turn, low
    running over the digits of 0, 1, 2, ...; the first under which w has
    order p^e - 1 is kept, and only a primitive polynomial gives w that
    order.  For e = 1, w is the least primitive root mod p."""
    q = p ** e

    def digits(x: int) -> list:
        return [x // p ** i % p for i in range(e)]

    for low in map(digits, range(q)):  # w^e = sum of low[i] w^i
        image = [sum((up + d[-1] * c) % p * p ** i
                     for i, (up, c) in enumerate(zip([0] + d[:-1], low)))
                 for d in map(digits, range(q))]
        x, k = image[1], 1  # walk the powers of w from w, at most q of them
        while x != 1 and k < q:
            x, k = image[x], k + 1
        if x == 1 and k == q - 1:
            return image
    raise AssertionError(f"no primitive polynomial of degree {e} mod {p}")


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


def prime_power(q: int) -> tuple:
    """(p, e) with q = p^e for a prime power q > 1."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q, e = q // p, e + 1
    assert q == 1, "not a prime power"
    return p, e


def agl1_file(q: int) -> str:
    p, e = prime_power(q)
    return "\n".join([
        f"group agl1_{q}",
        "perm a = " + cycles(times_primitive(p, e)),
        "perm b = " + cycles([x - x % p + (x + 1) % p for x in range(q)]),
    ]) + "\n"


def phi(n: int) -> int:
    return sum(gcd(k, n) == 1 for k in range(1, n + 1))


@pytest.mark.parametrize("q", [5, 7, 11, 13, 8, 9, 16, 25, 27, 32, 49])
def test_agl1_oriented_census_is_the_regular_embeddings_of_kq(q, tmp_path):
    p, e = prime_power(q)
    path = tmp_path / f"agl1_{q}.grp"
    path.write_text(agl1_file(q))
    G = realize_group_file(parse_group_file(path.read_text())).group
    assert G.order == q * (q - 1)
    entries = census_classify(enumerate_oriented(G, max_order=G.order))
    kq = [entry for entry in entries if entry.report.vertices == q]
    assert len(kq) == phi(q - 1) // e
    for entry in kq:
        cl = entry.classification
        assert entry.report.valency == q - 1
        assert (cl.p, cl.k) == (p, e)
        assert cl.orientation_status == "chiral"
        assert cl.normal
        assert not entry.violations
        structure = certify_sylow_structure(entry.map)
        assert structure.case_tag == "direct_product_elementary"
        assert structure.complement_rank == e
        assert verify_classification_law(entry.map).branch == "normal"
