"""Groebner engine: pinned outputs on standard systems and normal-form properties."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loggeom.polys import (
    DEGREVLEX, LEX, QQ, ZZ, PrimeField, exp_divides, groebner, groebner_with_cofactors,
    leading_term, nf_with_cofactors, poly_add, poly_mul,
)


def cyclic(n):
    gens = []
    for d in range(1, n):
        p = {}
        for s in range(n):
            e = [0] * n
            for t in range(d):
                e[(s + t) % n] += 1
            p[tuple(e)] = p.get(tuple(e), 0) + 1
        gens.append(p)
    gens.append({(1,) * n: 1, (0,) * n: -1})
    return gens


def katsura(n):
    size = n + 1

    def var(i):
        return tuple(1 if j == i else 0 for j in range(size))

    gens = []
    for m in range(n):
        p = {}
        for l in range(-n, n + 1):
            k = m - l
            if abs(k) <= n:
                e = tuple(a + b for a, b in zip(var(abs(l)), var(abs(k))))
                p[e] = p.get(e, 0) + 1
        p[var(m)] = p.get(var(m), 0) - 1
        gens.append({e: c for e, c in p.items() if c})
    p = {var(0): 1}
    for l in range(1, n + 1):
        p[var(l)] = 2
    p[(0,) * size] = -1
    gens.append(p)
    return gens


RANDOM = [
    {(2, 0, 0): 3, (0, 1, 1): -2, (1, 0, 0): 1, (0, 0, 0): -4},
    {(1, 1, 0): 2, (0, 0, 2): 5, (0, 1, 0): -3},
    {(0, 2, 0): -1, (1, 0, 1): 4, (0, 0, 1): 2, (0, 0, 0): 1},
]

SYSTEMS = {"cyclic-4": cyclic(4), "katsura-2": katsura(2), "katsura-3": katsura(3),
           "random": RANDOM}
DOMAINS = {"F": PrimeField(32003), "Q": QQ, "Z": ZZ}
ORDERS = {"degrevlex": DEGREVLEX, "lex": LEX}


def gb_digest(basis, cofs) -> str:
    """SHA-256 of the basis and cofactors, basis order kept, terms sorted."""
    def enc(p):
        return sorted([list(e), str(c)] for e, c in p.items())
    payload = {"basis": [enc(g) for g in basis],
               "cofactors": [[enc(c) for c in row] for row in cofs]}
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


# Computed by the engine before leading terms were cached, pairs were kept
# in a heap and reduction went in place; any change here changes reports.
# Left out: katsura-3 in lex over Q and Z and the random system in lex
# over Z, which take seconds to minutes.
GOLDEN = {
    "cyclic-4/F/degrevlex":
        "449d459c93555bd793e9d1003fdf0e70c0869bed12b37ad4f7dec8aee12b0207",
    "cyclic-4/F/lex":
        "056edff25807bc635e512ac4255221671f074bc68631046f0d153da32e068130",
    "cyclic-4/Q/degrevlex":
        "b5c6ec457dc9d824fabe5d8d36a4b11ffe4f6a78b263346e94f6466b6de08265",
    "cyclic-4/Q/lex":
        "31ec085143f2d0289c9ee0a22fdbd1e3e8eed0b60b7d9fd8b8045cd4ba808c51",
    "cyclic-4/Z/degrevlex":
        "b5c6ec457dc9d824fabe5d8d36a4b11ffe4f6a78b263346e94f6466b6de08265",
    "cyclic-4/Z/lex":
        "31ec085143f2d0289c9ee0a22fdbd1e3e8eed0b60b7d9fd8b8045cd4ba808c51",
    "katsura-2/F/degrevlex":
        "6b660a366e990c4123659178892c8657c3a60d48a4bf6acee38ce2219139b694",
    "katsura-2/F/lex":
        "31a7a5c74cd62880956b1393683a071a08b20b3f5a5bddc500e4942963eee8d5",
    "katsura-2/Q/degrevlex":
        "af9ea3e19ac512df444b4ea9a46e7c20816f32dff10b2206248a26d73c95b288",
    "katsura-2/Q/lex":
        "51ebb9a72ace969fb061a627919660899ae5e1dd7f98ce7b3ec4d7843e872e0e",
    "katsura-2/Z/degrevlex":
        "1ba3c706d80739ab1b1ceecead6d64be0d244345f172bae0dc6cd18e62d56ddb",
    "katsura-2/Z/lex":
        "3e9e257ba8d3bf13ecfc4976a893081093ddfeed528f788973eafda0bc86d473",
    "katsura-3/F/degrevlex":
        "d4b15027c2164175ccf76c053ae53a151bb1f78a0c55729b9c4b95b11f5a67e0",
    "katsura-3/F/lex":
        "5365b136b2e635bcca28e088923552c8658767c45454b496cb22ef849f204605",
    "katsura-3/Q/degrevlex":
        "4a06933816bcc46a090cff264a4234549eac661075f47b1e6248e030db01335e",
    "katsura-3/Z/degrevlex":
        "03e1ceef27d9dac46d4fcc3dd608e91c6bc01d8e02f6fa28960c22fcc1f6d084",
    "random/F/degrevlex":
        "624fe16cbdcd2808e2b82b4b2f59e3817ddac8604879b907868a3046be7134f0",
    "random/F/lex":
        "758247fd3b0afa087aac73e50ee9b9f50f51ed93c2e70c2e3bb84bbf7af07fe7",
    "random/Q/degrevlex":
        "5a7c439bedcecd7cbfa6dc5603bc45dedabf50621db5cde998bf65d2402f4ebc",
    "random/Q/lex":
        "92e5e045ca48685d8975ebadd7ca0d5c1572095de3adfa962efb95ec8b1da1ac",
    "random/Z/degrevlex":
        "fc8381323640007214a8d9fbb5b32f4bcb0c36683b8c8ba34f5c24df1d54c990",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_groebner_golden(case):
    system, dom, order = case.split("/")
    domain = DOMAINS[dom]
    gens = [{e: domain.normalize(c) for e, c in g.items()} for g in SYSTEMS[system]]
    basis, cofs = groebner_with_cofactors(gens, ORDERS[order], domain)
    assert gb_digest(basis, cofs) == GOLDEN[case]


@st.composite
def polys_in(draw, domain, nvars=3, max_terms=4):
    p = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        c = domain.normalize(draw(st.integers(-6, 6)))
        if not domain.is_zero(c):
            p[e] = c
    return p


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(DOMAINS)), st.sampled_from(sorted(ORDERS)), st.data())
def test_nf_with_cofactors_properties(dom, order_name, data):
    domain, order = DOMAINS[dom], ORDERS[order_name]
    f = data.draw(polys_in(domain))
    basis = [g for g in data.draw(st.lists(polys_in(domain), max_size=3)) if g]
    r, cof = nf_with_cofactors(f, basis, order, domain)
    total = r
    for c, g in zip(cof, basis):
        total = poly_add(total, poly_mul(c, g, domain), domain)
    assert total == f
    lts = [leading_term(g, order) for g in basis]
    for m, c in r.items():
        lcs = [lc for le, lc in lts if exp_divides(le, m)]
        if domain.is_field:
            assert not lcs
        else:
            # D-reduction leaves a remainder smaller than every applicable lc
            assert all(abs(c) < abs(lc) for lc in lcs)


# groebner skips S-pairs by Buchberger's chain criterion over fields, while
# groebner_with_cofactors takes every pair; reduced bases are unique, so
# the two must agree.
@pytest.mark.parametrize("system", ["cyclic-4", "cyclic-5", "katsura-3", "katsura-4"])
@pytest.mark.parametrize("dom", ["F", "Q"])
def test_groebner_equals_tracked_basis(system, dom):
    domain = DOMAINS[dom]
    n = int(system[-1])
    raw = cyclic(n) if system.startswith("cyclic") else katsura(n)
    gens = [{e: domain.normalize(c) for e, c in g.items()} for g in raw]
    assert groebner(gens, DEGREVLEX, domain) == groebner_with_cofactors(
        gens, DEGREVLEX, domain)[0]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["F", "Q"]), st.sampled_from(sorted(ORDERS)), st.data())
def test_groebner_equals_tracked_basis_on_random_systems(dom, order_name, data):
    domain, order = DOMAINS[dom], ORDERS[order_name]
    gens = data.draw(st.lists(polys_in(domain), min_size=1, max_size=4))
    assert groebner(gens, order, domain) == groebner_with_cofactors(gens, order, domain)[0]
