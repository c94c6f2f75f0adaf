"""Stationary decentralized-market output under partial token circulation.

With CRRA utility u(q) = q^(1-eta)/(1-eta) and effort cost
w(q) = q^(1+alpha)/(1+alpha), the efficient trade solves u' = w' (q* = 1).
Discounting pushes the full-circulation stationary output to
q_hat(1) = beta^(1/(eta+alpha)); when only a fraction delta of newly minted
tokens circulates, the liquidity premium condition
1/beta = delta * q^-(eta+alpha) + (1 - delta) pushes output lower still, so
full circulation Pareto-dominates partial circulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DomainError


@dataclass(frozen=True)
class CirculationParams:
    """beta_disc: discount factor; eta: utility curvature; alpha_eff: effort
    convexity; delta: circulating fraction of new tokens."""

    beta_disc: float
    eta: float
    alpha_eff: float
    delta: float

    def __post_init__(self):
        for name in ("beta_disc", "eta", "alpha_eff", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.beta_disc < 1.0:
            raise ValueError("beta_disc must lie in (0, 1)")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if self.alpha_eff < 0.0:
            raise ValueError("alpha_eff must be >= 0")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")


def stationary_dm_output(params: CirculationParams) -> dict:
    """Closed-form stationary outputs.

    Returns q_star (efficient trade, always 1 under the CRRA forms),
    q_hat_full (full circulation), q_hat_delta (fraction-delta circulation),
    and whether full circulation strictly Pareto-dominates. Raises
    DomainError only when the floats break the ordering
    q_hat_delta <= q_hat_full < q_star (e.g. at alpha_eff = 1e20, where
    q_hat_full rounds to 1).

    q_hat_delta is (delta * beta / (1 - beta + delta * beta)) ** ex, the
    condition solved without 1/beta: 1/beta - 1 cancels as beta nears 1 and
    overflows for beta below about 1e-308.

    For delta < 1 the true q_hat_delta lies strictly below q_hat_full, but
    with delta close to 1 the closed form can round up to q_hat_full (e.g.
    beta=0.09375, eta=0.5, alpha=0, delta=1-2**-53). The result is then the
    largest float strictly below q_hat_full, so strict dominance holds at
    floating-point edges too.
    """
    beta, eta, alpha, delta = (params.beta_disc, params.eta,
                               params.alpha_eff, params.delta)
    ex = 1.0 / (eta + alpha)
    q_star = 1.0  # q^-eta = q^alpha has the unit root for any valid exponents
    q_hat_full = beta ** ex
    # at delta = 1 the two conditions coincide; reuse the full-circulation
    # value so the equality is exact rather than float-noise strict
    if delta == 1.0:
        q_hat_delta = q_hat_full
    else:
        q_hat_delta = (delta * beta / (1.0 - beta + delta * beta)) ** ex
        if q_hat_delta >= q_hat_full:
            q_hat_delta = math.nextafter(q_hat_full, 0.0)

    if not (q_hat_delta <= q_hat_full < q_star):
        raise DomainError("stationary outputs violate q_hat(delta) <= q_hat(1) < q*")
    if delta < 1.0 and not q_hat_delta < q_hat_full:
        raise DomainError("partial circulation failed to reduce output strictly")
    return {"q_star": q_star, "q_hat_full": q_hat_full, "q_hat_delta": q_hat_delta,
            "pareto_dominates": q_hat_delta < q_hat_full}


def gamma_dynamics(gamma0: float, eta: float, alpha_eff: float, steps: int,
                   ) -> list[float]:
    """Token-premium recursion gamma_{t+1} = gamma_t ** (rho / (rho - 1))
    with rho = (1 + alpha) / (eta + alpha). gamma = 1 is the stationary
    point; below it the sequence collapses toward zero."""
    if gamma0 <= 0:
        raise ValueError("gamma0 must be > 0")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rho = (1.0 + alpha_eff) / (eta + alpha_eff)
    if rho == 1.0:
        raise DomainError("the recursion exponent degenerates at rho = 1")
    exponent = rho / (rho - 1.0)
    seq = [float(gamma0)]
    for _ in range(steps):
        seq.append(seq[-1] ** exponent)
    return seq
