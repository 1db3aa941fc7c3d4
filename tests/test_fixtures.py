import random

import pytest

from weilcalc import (VForm, WeilCochain, build_fixture, check_IM,
                      coupling_checks, curving_suite, delta, random_cochain,
                      validate_algebroid, validate_rep)
from weilcalc.fixtures import FIXTURE_NAMES, random_vform


def test_unknown_fixture_rejected():
    with pytest.raises(ValueError):
        build_fixture("F9_unknown")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_fixture_passes_every_checker(name):
    fix = build_fixture(name)
    assert validate_algebroid(fix.A).passed
    assert validate_rep(fix.A, fix.rep).passed
    assert check_IM(fix.A, fix.rep, fix.imc.cochain).passed
    assert coupling_checks(fix.imc).passed
    assert curving_suite(fix.imc, fix.curving).passed


def test_F0_has_no_positive_degree_forms(f0):
    c = random_cochain(f0.A, f0.rep, 1, 2, 1, seed=0)
    assert c.is_zero
    assert VForm.zero(0, 3, 1).is_zero


def test_F1_shape(f1):
    assert (f1.A.nvars, f1.A.rank, f1.ideal.m) == (2, 3, 1)
    assert f1.ideal.indices == (3,)
    assert f1.ideal.is_abelian


def test_F2_shape(f2):
    assert (f2.A.nvars, f2.A.rank, f2.ideal.m) == (2, 5, 3)
    assert not f2.ideal.is_abelian


def test_F3_shape(f3):
    assert (f3.A.nvars, f3.A.rank, f3.ideal.m) == (4, 2, 1)


def test_random_cochain_deterministic(f2):
    a = random_cochain(f2.A, f2.rep, 2, 1, 1, seed=42)
    b = random_cochain(f2.A, f2.rep, 2, 1, 1, seed=42)
    assert a == b
    c = random_cochain(f2.A, f2.rep, 2, 1, 1, seed=43)
    assert a != c


def test_random_cochain_p0_is_the_level0_cochain_of_a_random_vform(f1):
    # the single cell (0, (), ()) is drawn as a plain form on the same rng
    out = random_cochain(f1.A, f1.rep, 0, 2, 1, seed=7)
    rng = random.Random("cochain:0:2:1:7")
    assert out == WeilCochain.from_vform(f1.A, random_vform(rng, 2, 1, 2, 1))
    assert not out.is_zero and out.as_vform().degree == 2


def test_delta_squared_sweep_100_seeds(f1):
    for seed in range(100):
        c = random_cochain(f1.A, f1.rep, 1, 1, 1, seed=seed)
        assert delta(f1.A, f1.rep, delta(f1.A, f1.rep, c)).is_zero
