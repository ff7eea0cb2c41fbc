"""Suite composition: run configurations and the truncated character check for
the conformal-parabolic branching."""

from __future__ import annotations

from collections import namedtuple
from math import comb
from typing import Dict

from . import diag_pair, so_pair
from .report import ReportBundle, VerificationRecord, record


def hilbert_check(n: int, J: int) -> VerificationRecord:
    """Graded dimensions of both sides of the scalar branching: the sum of
    the degree-shifted subfamily characters,

        sum_{j<=J} q^j (1-q)^{-(n-1)},

    must agree with (1-q)^{-n} through order q^J."""
    if n < 2 or J < 0:
        raise ValueError("need n >= 2 and J >= 0")
    lhs = [sum(comb(k - j + n - 2, n - 2) for j in range(k + 1)) for k in range(J + 1)]
    rhs = [comb(k + n - 1, n - 1) for k in range(J + 1)]
    return record(f"hilbert.n={n},J={J}", "so-pair:branching-character",
                  lhs == rhs, witness=f"{lhs} vs {rhs}")


# ---------------------------------------------------------------------------
# run configurations
# ---------------------------------------------------------------------------

class RunConfig(namedtuple("RunConfig", "scenario n max_degree lam mu N cutoff seed",
                           defaults=(3, 4, None, None, 3, 8, 0))):
    """What one suite run checks.  ``_fields`` is the tuple of its field
    names, which the CLI reads its options by.  The scenario is one of
    so_pair, diag_pair, branch and all; lam and mu are Fractions, None
    meaning formal."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        # only the orthogonal pair reads lambda without mu
        if self.scenario != "so_pair" and (self.lam is None) != (self.mu is None):
            raise ValueError("lambda and mu must be given together")
        return self

    def to_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "n": self.n,
            "max-degree": self.max_degree,
            "lambda": "formal" if self.lam is None else str(self.lam),
            "mu": "formal" if self.mu is None else str(self.mu),
            "N": self.N,
            "cutoff": self.cutoff,
        }


def _so_context(config: RunConfig) -> so_pair.SoPairContext:
    if config.lam is None:
        return so_pair.SoPairContext.formal(config.n)
    return so_pair.SoPairContext.at(config.n, config.lam)


def _diag_context(config: RunConfig) -> diag_pair.DiagContext:
    if config.lam is None:
        return diag_pair.DiagContext.formal()
    for name, v in (("lambda", config.lam), ("mu", config.mu)):
        if v.denominator == 1 and v >= 0:
            raise ValueError(
                f"{name} = {v} lies in N_0; the singular-vector family degenerates")
    return diag_pair.DiagContext.at(config.lam, config.mu)


def so_suite(config: RunConfig) -> ReportBundle:
    ctx = _so_context(config)
    d = config.max_degree
    bundle = ReportBundle()
    bundle.extend(so_pair.singular_family_check(ctx, d))
    bundle.extend(so_pair.verify_sl2(ctx, d))
    bundle.extend(so_pair.casimir_check(ctx, d))
    bundle.extend(so_pair.pq_membership_check(ctx, d))
    bundle.extend(so_pair.t_model_check(ctx, d))
    bundle.extend(so_pair.verify_nonclosure(ctx))
    bundle.add(hilbert_check(config.n, 2 * d))
    return bundle


def diag_suite(config: RunConfig) -> ReportBundle:
    ctx = _diag_context(config)
    d = config.max_degree
    bundle = ReportBundle()
    bundle.extend(diag_pair.annihilation_check(ctx, d))
    bundle.extend(diag_pair.t_annihilation_check(ctx, min(d, 8)))
    bundle.extend(diag_pair.verify_lowering(ctx, d))
    bundle.extend(diag_pair.commutation_check(ctx))
    bundle.extend(diag_pair.model_transport_check(ctx, min(d, 5)))
    bundle.extend(diag_pair.recursion_crosscheck(ctx, d))
    bundle.extend(diag_pair.top_coefficient_check(ctx, d))
    return bundle


def branch_suite(config: RunConfig) -> ReportBundle:
    bundle = ReportBundle()
    if config.lam is not None:
        if config.lam + config.mu != config.N:
            raise ValueError(
                f"lambda + mu = {config.lam + config.mu} does not match N = {config.N}")
        ctx = diag_pair.DiagContext.at(config.lam, config.mu)
        bundle.extend(diag_pair.decomposition_report(ctx, config.cutoff))
    else:
        bundle.extend(diag_pair.grothendieck_check(config.N, config.cutoff))
    bundle.extend(diag_pair.involution_check(config.cutoff))
    bundle.extend(diag_pair.character_check(config.cutoff))
    return bundle


def run_suite(config: RunConfig) -> ReportBundle:
    """Compose the selected scenario's checks into one bundle."""
    suites = {
        "so_pair": [so_suite],
        "diag_pair": [diag_suite],
        "branch": [branch_suite],
        "all": [so_suite, diag_suite, branch_suite],
    }
    if config.scenario not in suites:
        raise ValueError(f"unknown scenario {config.scenario!r}")
    bundle = ReportBundle()
    for suite in suites[config.scenario]:
        bundle.extend(suite(config))
    return bundle
