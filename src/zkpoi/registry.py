"""The simulated permissionless registry: one pseudonym per person.

Registration runs entirely inside attested logic: the bundle arrives sealed
under an attestation session, is re-verified, and the verifier checks the
document's unique identifier against a keyed-tag store whose key only the
attested logic holds; the verified document is not decoded again. Only the
document's own signature and the pseudonym secret may come from the
registry's record of the checks behind the entries it admitted. A repeat
presentation of an admitted, still registered document is refused before
its key binding is verified, so it costs no signature check.
The host observes pseudonym digests, public keys and opaque tags; it never
sees a plaintext identifier. A second uniqueness layer, the
set accumulator over stable personal attributes, catches re-issued
documents whose identifier changed.

Only `register` writes the identifier tags and the attribute accumulator,
and only after `verify_registration_bundle` accepts the bundle; only
`take_offline`, under re-registration, removes them. A session by itself
writes nothing.

State mutates through a single-writer ordered log; the epoch of an entry is
its log position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container

from . import attestation
from .accumulator import Accumulator, accumulator_generate, accumulator_remove
from .codec import Encoder
from .crypto import ByteStream, hash_parts, hmac_sha256
from .errors import (
    DecodeError,
    DuplicateIdentity,
    DuplicateReason,
    InvalidBundle,
    MeasurementMismatch,
    NoSession,
    ReplayedRegProof,
    UnknownPseudonym,
)
from .credential import (
    SUFFIX_REG,
    BundleVerdict,
    Pseudonym,
    RegistrationBundle,
    verify_registration_bundle,
)
from .identity import CertChain, EPassport, SignatureCheck, TrustStore

REGISTRY_ENCLAVE = attestation.EnclaveIdentity(name="zkpoi-registry", version=1)
WALLET_ENCLAVE = attestation.EnclaveIdentity(name="zkpoi-wallet", version=1)

STATUS_ONLINE = "online"
STATUS_OFFLINE = "offline"


@dataclass
class RegistryEntry:
    pseudonym: Pseudonym  # REG form
    pk: bytes
    status: str
    registered_at: int


class EncryptedIdDB:
    """Identifier store under a key held only by attested logic.

    Each identifier is kept as a keyed deterministic tag: equality is
    testable with the key, and the host-visible view is the bare tag set.
    """

    def __init__(self, db_key: bytes):
        self._db_key = db_key
        self._tags: set[bytes] = set()

    def tag(self, unique_id: str) -> bytes:
        return hmac_sha256(self._db_key, unique_id.encode("utf-8"))

    def __contains__(self, unique_id: str) -> bool:
        return self.tag(unique_id) in self._tags

    def add(self, unique_id: str) -> None:
        self._tags.add(self.tag(unique_id))

    def remove(self, unique_id: str) -> None:
        self._tags.discard(self.tag(unique_id))

    def host_view(self) -> frozenset[bytes]:
        return frozenset(self._tags)


def default_identity_attributes(doc) -> tuple[str, ...]:
    """Stable personal attributes that survive document renewal.

    The holder's name, birth date and nationality for passports; the issuer
    and subject names for certificates.
    """
    if isinstance(doc, EPassport):
        return ("epassport", doc.dg1.name, doc.dg1.birth_date, doc.dg1.nationality)
    if isinstance(doc, CertChain):
        return ("card", doc.leaf.issuer_name, doc.leaf.subject_name)
    raise TypeError(f"no attribute rule for {type(doc).__name__}")


def encode_attributes(attributes: tuple[str, ...]) -> bytes:
    enc = Encoder("attrs:v1").put_u64(len(attributes))
    for a in attributes:
        enc.put_text(a)
    return enc.done()


class Registry:
    """Single-writer pseudonym ledger bound to one network identifier."""

    def __init__(self, trust_store: TrustStore, blockchain_id: str, *, seed: int,
                 allow_reregistration: bool = False):
        stream = ByteStream(hash_parts(b"registry-secrets", seed.to_bytes(8, "big"),
                                       blockchain_id.encode("utf-8")))
        self.trust_store = trust_store
        self.blockchain_id = blockchain_id
        self.allow_reregistration = allow_reregistration
        self.enclave = REGISTRY_ENCLAVE
        self._id_db = EncryptedIdDB(stream.take(32))
        self._session_rng = stream
        self.accumulator: Accumulator = accumulator_generate(seed)
        self.entries: dict[bytes, RegistryEntry] = {}  # digest -> entry
        self.log: list[dict] = []
        # Document-signature and secret checks that verified inside the
        # bundles this registry admitted; a repeat presentation of an
        # admitted document is not verified against them again.
        self._verified: set[SignatureCheck] = set()

    # -- sessions -------------------------------------------------------------

    def open_session(self, client: attestation.EnclaveIdentity,
                     policy: attestation.AttestationPolicy | None = None,
                     ) -> attestation.AttestationSession:
        """Attest a client against this registry's enclave. Only the wallet
        enclave is admitted as a client."""
        if client.measurement != WALLET_ENCLAVE.measurement:
            raise MeasurementMismatch("client", f"{client.name} v{client.version}")
        policy = policy or attestation.AttestationPolicy.expecting(client, self.enclave)
        return attestation.mutual_attest(client, self.enclave, policy, rng=self._session_rng)

    def _unseal_bundle(self, session, sealed_bundle: bytes) -> RegistrationBundle:
        if not isinstance(session, attestation.AttestationSession):
            raise NoSession("a valid attestation session is required")
        if session.server.measurement != self.enclave.measurement:
            raise NoSession("session was not attested against this registry")
        try:
            return RegistrationBundle.from_bytes(attestation.unseal(session, sealed_bundle))
        except DecodeError as exc:
            raise InvalidBundle(f"bundle does not decode: {exc}") from exc

    def _verify(self, bundle: RegistrationBundle, now: int, *,
                registered: Container[str] = ()) -> BundleVerdict:
        verdict = verify_registration_bundle(bundle, self.trust_store, self.blockchain_id, now,
                                             verified=self._verified, registered=registered)
        if verdict.accepted:
            return verdict
        if verdict.failed_step is None:
            raise DuplicateIdentity(verdict.reason, DuplicateReason.IDENTIFIER)
        raise InvalidBundle(f"bundle rejected at {verdict.code}: {verdict.reason}")

    # -- core operations --------------------------------------------------------

    @property
    def epoch(self) -> int:
        return len(self.log)

    def _append(self, op: str, pseudonym: Pseudonym, pk: bytes) -> int:
        at = self.epoch
        self.log.append({"op": op, "pseudonym": pseudonym.label(), "pk": pk.hex(),
                         "epoch": at})
        return at

    def register(self, sealed_bundle: bytes, session, now: int) -> RegistryEntry:
        """Admit a new pseudonym: verify the sealed bundle, enforce identifier
        and attribute uniqueness, then append the entry."""
        bundle = self._unseal_bundle(session, sealed_bundle)
        if bundle.pseudonym.suffix != SUFFIX_REG:
            raise InvalidBundle("registration requires a REG-suffix pseudonym")
        verdict = self._verify(bundle, now, registered=self._id_db)
        existing = self.entries.get(bundle.pseudonym.digest)
        if existing is not None and not (self.allow_reregistration
                                         and existing.status == STATUS_OFFLINE):
            raise DuplicateIdentity("pseudonym already registered",
                                    DuplicateReason.PSEUDONYM)
        attributes = default_identity_attributes(verdict.document)
        if not self.accumulator.admit(encode_attributes(attributes)):
            raise DuplicateIdentity("personal attributes already registered",
                                    DuplicateReason.ATTRIBUTES)
        self._id_db.add(verdict.unique_id)
        self._verified.update(verdict.checks)
        entry = RegistryEntry(pseudonym=bundle.pseudonym, pk=bundle.pk,
                              status=STATUS_ONLINE, registered_at=self.epoch)
        self.entries[bundle.pseudonym.digest] = entry
        self._append("register", bundle.pseudonym, bundle.pk)
        return entry

    def take_offline(self, sealed_off_bundle: bytes, session, now: int) -> RegistryEntry:
        """Retire a pseudonym on presentation of its OFF-suffix bundle.

        A replayed REG-suffix bundle is rejected outright; whether the
        identity may later re-register is the re-registration policy flag.
        """
        bundle = self._unseal_bundle(session, sealed_off_bundle)
        if bundle.pseudonym.suffix == SUFFIX_REG:
            raise ReplayedRegProof("a registration proof cannot retire a pseudonym")
        verdict = self._verify(bundle, now)
        entry = self.entries.get(bundle.pseudonym.digest)
        if entry is None or entry.status != STATUS_ONLINE:
            raise UnknownPseudonym("no online entry for this pseudonym")
        if entry.pk != bundle.pk:
            raise InvalidBundle("removal key does not match the registered key")
        entry.status = STATUS_OFFLINE
        self._append("offline", bundle.pseudonym, bundle.pk)
        if self.allow_reregistration:
            # The id that registered: the digest hashes it and matched the entry's.
            self._id_db.remove(verdict.unique_id)
            leaf = encode_attributes(default_identity_attributes(verdict.document))
            if self.accumulator.contains(leaf):
                accumulator_remove(self.accumulator, leaf)
        return entry

    # -- host-side views ---------------------------------------------------------

    def online_count(self) -> int:
        return sum(1 for e in self.entries.values() if e.status == STATUS_ONLINE)

    def host_view(self) -> dict:
        """Everything the untrusted host can observe."""
        return {
            "log": [dict(rec) for rec in self.log],
            "id_tags": sorted(t.hex() for t in self._id_db.host_view()),
            "accumulator_root": self.accumulator.root.hex(),
            "entries": {
                d.hex(): {"pk": e.pk.hex(), "status": e.status}
                for d, e in self.entries.items()
            },
        }
