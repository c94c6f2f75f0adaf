"""Sybil-resistant anonymous registration from government-issued documents,
with the game-theoretic apparatus that makes honest participation pay.

The pipeline: validate a certificate chain or electronic passport, derive an
unlinkable per-network pseudonym from a deterministic document signature,
prove the derivation to an attested registry that admits each person once,
then study the surrounding incentives — per-epoch cooperation games over
sharded validation, mining as a congestion game, reward-regime dominance,
network effects between competing payment networks, and token circulation.

Each name is imported from the module that defines it (`from zkpoi import
identity`, `from zkpoi.econ import congestion`); this package itself exports
only `__version__`.
"""

__version__ = "0.1.0"
