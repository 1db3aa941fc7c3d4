"""Spellings the tests share, each a few lines on the public API of weilcalc.

The seeded draws reproduce the strings the tests have always seeded with,
so every random input is the one it was.
"""

import itertools
import random

from weilcalc import VForm, WeilCochain, act, delta, evaluate, wedgedot
from weilcalc.algebroid import end_index
from weilcalc.fixtures import random_vform


def scalar_wedge(sf, vf):
    """sf ^ vf for a scalar form sf (a rank-1 VForm): sf Id_V acting on vf."""
    m = vf.rank
    return act(VForm(sf.nvars, m * m, sf.degree, {
        (end_index(m, b, b), idx): f for (_, idx), f in sf.comps.items()
        for b in range(1, m + 1)}), vf)


def lieA_vform(A, rep, alpha, vf):
    """L^A_alpha on a plain V-valued form, delta vf evaluated on alpha; a
    zero form (also the degree -1 form iota leaves on a 0-form) is kept."""
    return vf if vf.is_zero else evaluate(delta(A, rep, vf), [alpha])


def wedgedot_multi(gamma, thetas, ideal):
    """Iterated pairing, last form first: gamma . (t_1, ..., t_l)
    = gamma . t_l . t_{l-1} ... . t_1."""
    for theta in reversed(thetas):
        gamma = wedgedot(gamma, theta, ideal)
    return gamma


def random_section(A, seed, bound=1):
    """Seeded random section of A, as its degree-0 form."""
    return random_vform(random.Random(f"section:{seed}"), A.nvars, A.rank, 0, bound)


def random_endform(fix, degree, seed, bound=1):
    """Seeded random End(V)-valued form on a fixture's ideal bundle V."""
    rng = random.Random(f"endform:{fix.name}:{degree}:{seed}")
    return random_vform(rng, fix.A.nvars, fix.ideal.m ** 2, degree, bound)


def random_symform(fix, arity, degree, seed, bound=1):
    """Seeded random ideal-valued form with ``arity`` open symmetric slots,
    as the level-``arity`` row of a W^{arity, arity + degree} cochain."""
    rng = random.Random(f"symform:{fix.name}:{arity}:{degree}:{seed}")
    A, m = fix.A, fix.ideal.m
    return WeilCochain(A, m, arity, arity + degree, {
        (arity, (), J): random_vform(rng, A.nvars, m, degree, bound)
        for J in itertools.combinations_with_replacement(range(1, A.rank + 1), arity)})
