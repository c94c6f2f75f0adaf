"""Economic apparatus: congestion-game equilibria and the price of
crypto-anarchy, dominance and evolutionary-stability analysis, two-sided
network-effect dynamics, and stationary token-circulation outputs."""
