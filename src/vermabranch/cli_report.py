"""Suite composition: run configurations and the truncated character check for
the conformal-parabolic branching."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, Optional

from . import diag_pair, so_pair
from .report import Fields, ReportBundle, VerificationRecord, record


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

class RunConfig(Fields):
    """What one suite run checks.  ``__slots__`` is the tuple of its field
    names, which the CLI reads its options by."""

    __slots__ = ("scenario", "n", "max_degree", "lam", "mu", "N", "cutoff", "seed")

    def __init__(self, scenario: str, n: int = 3, max_degree: int = 4,
                 lam: Optional[Fraction] = None, mu: Optional[Fraction] = None,
                 N: int = 3, cutoff: int = 8, seed: int = 0):
        # scenario: so_pair | diag_pair | branch | all; lam None means formal
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        # only the orthogonal pair reads lambda without mu
        if scenario != "so_pair" and (lam is None) != (mu is None):
            raise ValueError("lambda and mu must be given together")
        self.scenario, self.n, self.max_degree = scenario, n, max_degree
        self.lam, self.mu, self.N, self.cutoff, self.seed = lam, mu, N, cutoff, seed

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
