"""Four market-level models around one-person-one-identity infrastructure.

1. Puzzle congestion: miners racing deadlines spread out into an equilibrium,
   and the cost gap versus identity-based selection is the price of anarchy.
2. Reward regimes: iterated dominance picks unique-identity mining over
   winner-take-all proof-of-work once rewards are spread wide enough.
3. Platform competition: cross-side network effects make strong feedback
   tip markets and weak feedback share them.
4. Token circulation: partial redemption always trims stationary output.

Run with: python3 demos/market_models.py
"""

from __future__ import annotations

from zkpoi.econ import circulation as circ
from zkpoi.econ import congestion as cong
from zkpoi.econ import games, network


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    banner("1. Congestion races and the price of anarchy")
    inst = cong.CongestionInstance(k=2, n_miners=2, mu=1.0, gamma=0.0,
                                   deadline=1.0)
    sol = cong.solve_congestion_nash(inst)
    print(f"  2 miners, 2 puzzles, free entry: equilibrium loads {sol.allocation.loads}, "
          f"potential {sol.potential_value:.6f}")
    priced = cong.CongestionInstance(k=2, n_miners=2, mu=1.0, gamma=0.1,
                                     deadline=1.0)
    ratio = cong.price_of_crypto_anarchy(priced, zkpoi_cost=0.01).ratio
    print(f"  with entry cost 0.1 vs a 0.01 identity check, the worst "
          f"equilibrium costs {ratio:.1f}x more")

    banner("2. Which reward regime survives iterated dominance?")
    matrix = games.udce_vs_plfc_game(
        4, 1.5, 4.0, share_model="zipf",
        population=10_000, top_count=16, top_share=0.9)
    result = games.idsds(matrix)
    names = {games.UDCE: "unique-identity", games.PLFC: "winner-take-all"}
    print(f"  4 miners, hash power calibrated so the top 16 of 10k hold 90%:")
    print(f"  unique survivor: {tuple(names[s] for s in result.unique_survivor)}")
    print(f"  survivor verified as an equilibrium: {result.nash_verified}")
    u = {("A", "A"): 3.0, ("A", "B"): 0.0, ("B", "A"): 2.0, ("B", "B"): 1.0}
    print(f"  and as a population strategy, 'A' resists invasion: "
          f"{games.is_ess(u, ('A', 'B'), 'A')}")

    banner("3. Two-sided platform competition")
    for label, a in (("strong feedback (elasticity 2.0)", 2.0),
                     ("weak feedback (elasticity 0.5)", 0.5)):
        shares = []
        for seed in range(20):
            st = network.NetworkState(m_a=1.0, m_b=1.0, c_a=1.0, c_b=1.0,
                                      lam=0.5, alpha=a, beta=a)
            m_a, m_b, c_a, c_b = network.simulate_network_growth(st, 2000, seed)[-1]
            shares.append((m_a + c_a) / (m_a + m_b + c_a + c_b))
        tipped = sum(max(s, 1 - s) >= 0.9 for s in shares)
        print(f"  {label}: {tipped}/20 runs tip past 90/10 "
              f"(share range {min(shares):.2f}-{max(shares):.2f})")
    steps = network.overtake_analysis(10.0, 0.5, 25.0, 0.0)["steps_needed"]
    print(f"  a 10-merchant deficit at even traffic takes {steps:.0f} "
          f"arrivals to close")

    banner("4. Partial redemption trims stationary output")
    for delta in (1.0, 0.75, 0.5, 0.25):
        out = circ.stationary_dm_output(circ.CirculationParams(
            beta_disc=0.9, eta=0.5, alpha_eff=0.5, delta=delta))
        print(f"  redeemable fraction {delta:4.2f}: "
              f"stationary output {out['q_hat_delta']:.6f} "
              f"(frictionless benchmark {out['q_star']:.1f})")
    path = circ.gamma_dynamics(0.9, eta=0.5, alpha_eff=0.5, steps=6)
    print(f"  issuance-share dynamics from 0.9: "
          f"{', '.join(f'{g:.4f}' for g in path)}")
    print("  below the stationary point the share collapses toward zero.")


if __name__ == "__main__":
    main()
