"""Differential oracle: specializing a formal family at a rational weight
gives what the specialized context computes directly."""

import random
from fractions import Fraction

import pytest

from oracles import substitute
from vermabranch.diag_pair import DiagContext, lowering_constant, singular_vector_Ptilde
from vermabranch.polyring import GeoPoly
from vermabranch.so_pair import SoPairContext, expected_ladder_constants, singular_vector_F

DEGREES = range(7)


def _weight(rng):
    """A random rational off the families' special loci.  lam, mu in N_0 are
    precondition errors, and the normalization of F_l fails only at integer
    and half-integer alpha = -lam-(n-1)/2; a denominator of 3 or more avoids
    all of them."""
    while True:
        w = Fraction(rng.randint(-40, 40), rng.randint(3, 12))
        if w.denominator >= 3:
            return w


def _specialize(p, bindings):
    return GeoPoly(p.vars, {e: substitute(c, bindings)
                            for e, c in p.coefficients().items()})


@pytest.mark.parametrize("seed", range(4))
def test_diag_pair_specialization_commutes(seed):
    rng = random.Random(seed)
    lam, mu = _weight(rng), _weight(rng)
    formal, at = DiagContext.formal(), DiagContext.at(lam, mu)
    bindings = {"l": lam, "m": mu}
    for l in DEGREES:
        assert _specialize(singular_vector_Ptilde(formal, l), bindings) \
            == singular_vector_Ptilde(at, l)
        assert substitute(lowering_constant(formal, l), bindings) == lowering_constant(at, l)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_so_pair_specialization_commutes(n, seed):
    rng = random.Random(100 * n + seed)
    lam = _weight(rng)
    formal, at = SoPairContext.formal(n), SoPairContext.at(n, lam)
    bindings = {"l": lam}
    for l in DEGREES:
        assert _specialize(singular_vector_F(formal, l), bindings) \
            == singular_vector_F(at, l)
        assert [substitute(c, bindings) for c in expected_ladder_constants(formal, l)] \
            == list(expected_ladder_constants(at, l))
