import pytest

from multiloop import checks
from multiloop.descent import LoopElement
from multiloop.kaehler import invariant_matches_base_image_at
from multiloop.laurent import GaloisElement, LaurentPoly, box_degrees
from multiloop.liealg import nonzeros
from multiloop.session import Session, SessionSpec


def in_base_ring(p) -> bool:
    """Every exponent of the Laurent polynomial p lies in the base lattice."""
    return all(p.ring.in_base_lattice(e) for e in p.terms)


def identity(group) -> GaloisElement:
    """The neutral element (0, ..., 0) of a Galois group."""
    return GaloisElement(group, (0,) * group.n)


def descent_action(tw, g, x) -> LoopElement:
    """The semilinear descent action x -> u_g(^g x) on a loop element: the term
    v (x) s^e goes to chi_g(e) u_g(v) (x) s^e."""
    u, group = tw.cocycle.value(g), tw.group
    return LoopElement(
        x.parent,
        {
            e: tuple(u.apply(nonzeros([c * group.character(g, e) for c in v])))
            for e, v in x.terms.items()
        },
    )


def from_terms(ring, terms) -> LaurentPoly:
    """The Laurent polynomial sum of c s^exp over the (exp, c) in terms: a
    repeated exponent adds up, and a zero sum drops it."""
    out = {}
    for exp, coeff in terms:
        exp = tuple(int(e) for e in exp)
        c = ring.field.scalar(coeff)
        if exp in out:
            c = out[exp] + c
        if c:
            out[exp] = c
        elif exp in out:
            del out[exp]
    return LaurentPoly(ring, out)


def random_poly(ring, rng, max_terms: int = 3, span: int = 3) -> LaurentPoly:
    """One polynomial of `check_zrel`'s draw stream, from a drawer made for it
    alone; `check_zrel` makes one drawer per loop, and both read the same bits."""
    return checks._drawer(ring, rng, max_terms, span)()


def invariant_matches_base_image(ring, window: int) -> bool:
    """The window fixed classes equal the reduced base-ring image, degree by degree.

    Off the base lattice both sides are empty.
    """
    return all(
        invariant_matches_base_image_at(ring, degree)
        for degree in box_degrees(ring.n, window)
        if ring.in_base_lattice(degree)
    )


def matrix_records(auto):
    """The matrix of a Lie automorphism as rows of strings, the form a
    "matrix" entry of a spec takes."""
    dim = auto.algebra.dim
    return [[str(auto.columns[j][i]) for j in range(dim)] for i in range(dim)]


def make_session(family, rank, autos, orders, window=2, margin=1, seed=0) -> Session:
    return Session(
        SessionSpec.from_dict(
            {
                "algebra": {"family": family, "rank": rank},
                "autos": autos,
                "orders": orders,
                "window": window,
                "margin": margin,
                "seed": seed,
            }
        )
    )


@pytest.fixture(scope="session")
def a1_n1():
    return make_session("A", 1, [{"kind": "identity"}], [1])


@pytest.fixture(scope="session")
def a1_n2():
    return make_session("A", 1, [{"kind": "identity"}, {"kind": "identity"}], [1, 1], window=1)


@pytest.fixture(scope="session")
def a2_twisted():
    return make_session("A", 2, [{"kind": "diagram", "perm": [1, 0]}], [2])


@pytest.fixture(scope="session")
def d4_triality():
    return make_session("D", 4, [{"kind": "diagram", "perm": [2, 1, 3, 0]}], [3], window=1)
