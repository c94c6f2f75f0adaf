"""One person, one pseudonym: a full registration round against the registry.

Shows the wallet-side derivation (document + passphrase -> deterministic
pseudonym and keys), the attested channel to the registry enclave, successful
registration, and the three ways a second identity grab fails: a new
passphrase, a renewed certificate, and a replayed registration proof.

Run with: python3 demos/registration_round.py
"""

from __future__ import annotations

from zkpoi import attestation, credential, identity, registry
from zkpoi.errors import DuplicateIdentity, ReplayedRegProof

GENESIS, YEAR = identity.GENESIS, identity.YEAR
WINDOW = (GENESIS, GENESIS + 10 * YEAR)
NOW = GENESIS + YEAR
NETWORK = "chain-demo"
KDF_ITERS = 64  # keep the demo snappy; production uses thousands


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    banner("1. A citizen and their document")
    store, hierarchy = identity.generate_ca_hierarchy(2, 1, seed=2024)
    card = identity.issue_identity_cert(
        hierarchy, hierarchy.issuers[0], "Avery Example", "UID-00000001", WINDOW)
    print(f"  issued cert serial={card.certificate.serial} under "
          f"{card.certificate.issuer_name!r}")

    banner("2. Wallet derives the registration bundle")
    bundle, _ = credential.build_registration_bundle(
        card, "correct horse battery staple", NETWORK, store, NOW,
        kdf_iterations=KDF_ITERS)
    print(f"  pseudonym: {bundle.pseudonym.digest.hex()[:32]}… "
          f"suffix={bundle.pseudonym.suffix}")
    print(f"  fresh encryption key: {bundle.pk.hex()[:32]}…")
    verdict = credential.verify_registration_bundle(bundle, store, NETWORK, NOW)
    print(f"  self-check before sending: accepted={verdict.accepted}")

    banner("3. Attested channel to the registry enclave")
    reg = registry.Registry(store, NETWORK, seed=7)
    session = reg.open_session(registry.WALLET_ENCLAVE)
    print(f"  mutual attestation ok; channel binds wallet <-> "
          f"{reg.enclave.name} v{reg.enclave.version}")

    entry = reg.register(attestation.seal(session, bundle.to_bytes()), session, NOW)
    print(f"  registered: status={entry.status} online_count={reg.online_count()}")

    banner("4. Second identities do not exist")
    retry, _ = credential.build_registration_bundle(
        card, "a different passphrase entirely", NETWORK, store, NOW,
        kdf_iterations=KDF_ITERS)
    same = retry.pseudonym.digest == bundle.pseudonym.digest
    print(f"  new passphrase, same document -> same pseudonym: {same}")
    try:
        reg.register(attestation.seal(session, retry.to_bytes()), session, NOW)
    except DuplicateIdentity as exc:
        print(f"  rejected: DuplicateIdentity: {exc}")

    renewed_card = identity.issue_identity_cert(
        hierarchy, hierarchy.issuers[0], "Avery Example", "UID-00000001", WINDOW)
    renewed, _ = credential.build_registration_bundle(
        renewed_card, "brand new phrase", NETWORK, store, NOW,
        kdf_iterations=KDF_ITERS)
    print(f"  renewed cert serial={renewed_card.certificate.serial} "
          f"(old was {card.certificate.serial}); pseudonym differs: "
          f"{renewed.pseudonym.digest != bundle.pseudonym.digest}")
    try:
        reg.register(attestation.seal(session, renewed.to_bytes()), session, NOW)
    except DuplicateIdentity as exc:
        print("  still rejected — the registry tracks the document, not the "
              f"cert: DuplicateIdentity: {exc}")

    banner("5. Going offline needs a removal proof, not a replay")
    try:
        reg.take_offline(attestation.seal(session, bundle.to_bytes()), session, NOW)
    except ReplayedRegProof as exc:
        print(f"  replayed registration proof rejected: {exc}")
    off_bundle, _ = credential.build_registration_bundle(
        card, "correct horse battery staple", NETWORK, store, NOW,
        kdf_iterations=KDF_ITERS, suffix=credential.SUFFIX_OFF)
    entry = reg.take_offline(attestation.seal(session, off_bundle.to_bytes()),
                             session, NOW)
    print(f"  proper removal proof: status={entry.status} "
          f"online_count={reg.online_count()}")

    banner("6. What the untrusted host can actually see")
    view = reg.host_view()
    print(f"  log entries: {len(view['log'])}  blinded identity tags: "
          f"{len(view['id_tags'])}")
    print(f"  accumulator root: {view['accumulator_root'][:32]}…")
    print("  nothing in the view links a pseudonym back to a document.")


if __name__ == "__main__":
    main()
