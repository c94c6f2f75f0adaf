"""Pseudonym derivation and the transparent registration-bundle verifier.

A registration bundle binds a fresh public key to a deterministic
per-network pseudonym:

    pseudonym digest = Hash(secret || network id || unique id)

with length-prefixed framing, where the secret is the document's
deterministic signature over a fixed common string (so the same document
always yields the same pseudonym on the same network), and the REG/OFF
suffix rides alongside the digest rather than inside the hash.

Documents without challenge-signing support take a degraded path: the
secret becomes a key-derivation output over the holder's passphrase, the
key-binding and secret-verification steps drop out, and determinism holds
only per (document, passphrase).

Verification re-executes every generation-side check against the evidence
disclosed inside an attested session; there is no succinct proof object,
the verifier simply reruns the predicate. An accepting verdict carries the
decoded document and its unique id, so callers use the verified values
instead of decoding the evidence again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Container

from .codec import Decoder, Encoder, frame_parts
from .crypto import PUBLIC_KEY_LEN, SigningKey, hash_parts, pbkdf2_sha256, sha256
from .errors import DecodeError, EmptyPassphrase, InvalidDocument, NoActiveAuthentication
from .identity import (
    DOCUMENT_KINDS,
    SignatureCheck,
    TrustStore,
    active_auth_challenge,
    active_auth_sign,
    active_auth_verify,
    public_bytes_hash,
    public_document,
    sign_challenge,
    verify_unless_recorded,
)

SUFFIX_REG = "REG"
SUFFIX_OFF = "OFF"

AA_MODE_FULL = "full"
AA_MODE_ABSENT = "absent"

# Versioned so a future change of the common string cannot silently collide
# with pseudonyms minted under this one.
PREFIXED_COMMON_STRING = "zkpoi/pseudonym-secret/v1"
# Every signature secret answers this one challenge, so it is framed once.
_SECRET_CHALLENGE = active_auth_challenge(PREFIXED_COMMON_STRING.encode("utf-8"))

DEFAULT_KDF_ITERATIONS = 2048
# The degraded path cannot anchor unpredictability in a chip signature, so it
# spends more KDF work instead of less to keep offline guessing expensive.
AA_ABSENT_ITERATION_MULTIPLIER = 8


@dataclass(frozen=True)
class Pseudonym:
    digest: bytes
    suffix: str

    def __post_init__(self):
        if self.suffix not in (SUFFIX_REG, SUFFIX_OFF):
            raise ValueError(f"suffix must be {SUFFIX_REG} or {SUFFIX_OFF}")

    def label(self) -> str:
        return f"{self.digest.hex()}:{self.suffix}"


def derive_keypair(passphrase: str, doc_hash: bytes, iterations: int) -> SigningKey:
    """Deterministic signing key from a passphrase and document hash.

    The same (passphrase, document, iterations) always reproduce the same
    key, which is what lets a holder recover a lost wallet key.
    """
    if not passphrase:
        raise EmptyPassphrase("a passphrase is mandatory")
    # The v1 salt frames the document hash twice; keeping it keeps every wallet key.
    salt = hash_parts(b"kdf-salt", doc_hash, doc_hash, iterations.to_bytes(8, "big"))
    return SigningKey.from_seed(pbkdf2_sha256(passphrase, salt, iterations))


def compute_signature_secret(doc) -> bytes:
    """The document's deterministic signature over the fixed common string.

    Unpredictable without the document key, yet verifiable against its
    public key, and identical on every invocation, so it is signed once per
    document object: kept in the instance dict outside the dataclass
    fields, where equality, hashing, repr and `dataclasses.replace` never
    see it (a replaced copy signs afresh).
    """
    secret = doc.__dict__.get("_signature_secret")
    if secret is None:
        secret = sign_challenge(doc, _SECRET_CHALLENGE)
        doc.__dict__["_signature_secret"] = secret
    return secret


def _secret_check(doc_public_key: bytes, secret: bytes) -> SignatureCheck:
    """The check behind a signature secret, as `verify_unless_recorded` takes it."""
    return (doc_public_key, secret, _SECRET_CHALLENGE)


def derive_pseudonym(signature_secret: bytes, blockchain_id: str, unique_id: str,
                     suffix: str = SUFFIX_REG) -> Pseudonym:
    """Hash the framed concatenation of secret, network id and unique id.

    The suffix is appended after hashing (carried beside the digest), so the
    registration and removal forms share a digest but never compare equal.
    """
    if not signature_secret or not blockchain_id or not unique_id:
        raise ValueError("all pseudonym inputs must be non-empty")
    digest = sha256(frame_parts(signature_secret,
                                blockchain_id.encode("utf-8"),
                                unique_id.encode("utf-8")))
    return Pseudonym(digest=digest, suffix=suffix)


@dataclass(frozen=True)
class TransparentEvidence:
    """What the prover discloses inside a verification session: the public
    document and the pseudonym secret. Never leaves a sealed channel."""

    doc_kind: str  # card-chain | epassport
    doc_bytes: bytes
    secret: bytes
    aa_mode: str

    def decode_document(self):
        kind = DOCUMENT_KINDS.get(self.doc_kind)
        if kind is None:
            raise DecodeError(f"unknown document kind {self.doc_kind!r}")
        return kind.from_bytes(self.doc_bytes)


@dataclass(frozen=True)
class RegistrationBundle:
    pseudonym: Pseudonym
    pk: bytes
    sign_pk: bytes | None  # document signature over pk; absent on the degraded path
    evidence: TransparentEvidence

    def to_bytes(self) -> bytes:
        return (
            Encoder("bundle:v1")
            .put_bytes(self.pseudonym.digest)
            .put_text(self.pseudonym.suffix)
            .put_bytes(self.pk)
            .put_opt_bytes(self.sign_pk)
            .put_text(self.evidence.doc_kind)
            .put_bytes(self.evidence.doc_bytes)
            .put_bytes(self.evidence.secret)
            .put_text(self.evidence.aa_mode)
            .done()
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RegistrationBundle":
        d = Decoder(blob, "bundle:v1")
        digest = d.take_bytes()
        suffix = d.take_text()
        pk = d.take_bytes()
        sign_pk = d.take_opt_bytes()
        evidence = TransparentEvidence(doc_kind=d.take_text(), doc_bytes=d.take_bytes(),
                                       secret=d.take_bytes(), aa_mode=d.take_text())
        d.finish()
        if suffix not in (SUFFIX_REG, SUFFIX_OFF):
            raise DecodeError("bundle carries an unknown pseudonym suffix")
        if evidence.aa_mode not in (AA_MODE_FULL, AA_MODE_ABSENT):
            raise DecodeError("bundle carries an unknown authentication mode")
        return cls(Pseudonym(digest, suffix), pk, sign_pk, evidence)


@dataclass(frozen=True)
class BundleVerdict:
    accepted: bool
    # 3..7, first check that failed; None on an accepted verdict and on the
    # refusal of a registered identifier (`already_registered`).
    failed_step: int | None = None
    reason: str | None = None
    # The verified document and its unique id; None on a rejected verdict.
    unique_id: str | None = None
    document: object = field(default=None, compare=False, repr=False)
    # The document-signature and secret checks verified rather than found in
    # the caller's record; the caller records them once it admits the entry.
    checks: tuple[SignatureCheck, ...] = field(default=(), compare=False, repr=False)

    @property
    def code(self) -> str | None:
        return None if self.failed_step is None else f"step{self.failed_step}"

    @staticmethod
    def fail(step: int, reason: str) -> "BundleVerdict":
        return BundleVerdict(False, step, reason)

    @staticmethod
    def already_registered() -> "BundleVerdict":
        return BundleVerdict(False, reason="identifier already registered")


def _required_mode(doc) -> tuple[str, bytes | None]:
    """The mode a document requires and its signing key: "full" when
    `public_key()` succeeds, "absent" when it raises NoActiveAuthentication."""
    try:
        return AA_MODE_FULL, doc.public_key()
    except NoActiveAuthentication:
        return AA_MODE_ABSENT, None


def _absent_mode_secret(passphrase: str, doc_hash: bytes, iteration_count: int) -> bytes:
    salt = hash_parts(b"degraded-secret-salt", doc_hash)
    return pbkdf2_sha256(passphrase, salt, iteration_count * AA_ABSENT_ITERATION_MULTIPLIER)


def build_registration_bundle(doc, passphrase: str, blockchain_id: str,
                              trust_store: TrustStore, now: int, *,
                              aa_mode: str = AA_MODE_FULL, suffix: str = SUFFIX_REG,
                              kdf_iterations: int = DEFAULT_KDF_ITERATIONS,
                              ) -> tuple[RegistrationBundle, SigningKey]:
    """Run the full generation pipeline on a validated document.

    Returns the bundle together with the derived signing key; only its
    public key enters the bundle. Raises InvalidDocument when validation
    rejects the document; before the KDF, NoActiveAuthentication for "full"
    on a document that cannot sign and ValueError for "absent" on one that can.

    The wallet's record of `doc` holds the document-signature checks its
    accepted validations verified, read through `verify_unless_recorded`
    like the store's and a registry's records, and the secret is signed
    once (`compute_signature_secret`); both live on `doc` outside its
    fields. So a document's first build verifies its leaf or security
    object and later builds of the same object do not. Validity windows,
    chain linkage, root trust, data-group hashes, the KDF, the wallet key
    and the key binding run on every call.
    """
    if aa_mode not in (AA_MODE_FULL, AA_MODE_ABSENT):
        raise ValueError(f"unknown aa_mode {aa_mode!r}")
    public = public_document(doc)
    record = doc.__dict__.setdefault("_verified", set())
    report = public.validate(trust_store, now, verified=record)
    if not report.accepted:
        raise InvalidDocument(report)
    record.update(report.checks)
    mode, _ = _required_mode(public)
    if aa_mode != mode:
        error = NoActiveAuthentication if mode == AA_MODE_ABSENT else ValueError
        raise error(f"the document requires authentication mode {mode!r}")
    unique_id = public.unique_id()
    doc_bytes = public.public_bytes()
    doc_digest = public_bytes_hash(doc_bytes)
    key = derive_keypair(passphrase, doc_digest, kdf_iterations)
    if aa_mode == AA_MODE_FULL:
        secret = compute_signature_secret(doc)
        sign_pk = active_auth_sign(doc, key.public_bytes)
    else:
        secret = _absent_mode_secret(passphrase, doc_digest, kdf_iterations)
        sign_pk = None
    pseudonym = derive_pseudonym(secret, blockchain_id, unique_id, suffix)
    evidence = TransparentEvidence(doc_kind=public.kind, doc_bytes=doc_bytes,
                                   secret=secret, aa_mode=aa_mode)
    return RegistrationBundle(pseudonym, key.public_bytes, sign_pk, evidence), key


def verify_registration_bundle(bundle: RegistrationBundle, trust_store: TrustStore,
                               blockchain_id: str, now: int, *,
                               verified: Collection[SignatureCheck] = (),
                               registered: Container[str] = ()) -> BundleVerdict:
    """Re-execute the generation checks; report the first failing step.

    Step 3 validates the disclosed document, step 4 extracts the unique id,
    step 5 recomputes the pseudonym, step 6 checks the mode the document
    requires (`_required_mode`), a PUBLIC_KEY_LEN-byte wallet key, the
    presence of the key binding, which only a full-mode bundle carries, and
    then the binding itself, and step 7 checks the secret of a full-mode
    bundle.
    An accepting verdict carries the decoded document, its unique id and the
    checks it verified. The document's signature and the secret are not
    verified again when equal to a check in the caller's record `verified`;
    every other check runs on every call.

    A bundle whose unique id is in the caller's `registered` is refused
    with a verdict that failed no step (`BundleVerdict.already_registered`).
    When its secret check is in `verified`, the refusal comes right after
    step 6's framing checks, without verifying the key binding or the
    secret: only the holder's own bundles carry a recorded secret, so no
    forger reaches it. Otherwise it comes after step 7.
    """
    try:
        doc = bundle.evidence.decode_document()
    except DecodeError as exc:
        return BundleVerdict.fail(3, f"evidence does not decode: {exc}")
    report = doc.validate(trust_store, now, verified=verified)
    if not report.accepted:
        return BundleVerdict.fail(3, f"document rejected: {report.failure_code.value}")

    try:
        unique_id = doc.unique_id()
    except Exception as exc:
        return BundleVerdict.fail(4, f"unique id extraction failed: {exc}")

    if not bundle.evidence.secret:
        return BundleVerdict.fail(5, "pseudonym secret is empty")
    expected = derive_pseudonym(bundle.evidence.secret, blockchain_id, unique_id,
                                bundle.pseudonym.suffix)
    if expected.digest != bundle.pseudonym.digest:
        return BundleVerdict.fail(5, "pseudonym digest does not recompute")

    checks = list(report.checks)
    mode, doc_pk = _required_mode(doc)
    if bundle.evidence.aa_mode != mode:
        return BundleVerdict.fail(6, f"the document requires authentication mode {mode!r}")
    if len(bundle.pk) != PUBLIC_KEY_LEN:
        return BundleVerdict.fail(6, f"wallet key is not {PUBLIC_KEY_LEN} bytes")
    if doc_pk is None and bundle.sign_pk is not None:
        return BundleVerdict.fail(6, "absent mode carries no key binding")
    if doc_pk is not None:
        if bundle.sign_pk is None:
            return BundleVerdict.fail(6, "key binding signature does not verify")
        secret_check = _secret_check(doc_pk, bundle.evidence.secret)
        if secret_check in verified and unique_id in registered:
            return BundleVerdict.already_registered()
        if not active_auth_verify(doc_pk, bundle.pk, bundle.sign_pk):
            return BundleVerdict.fail(6, "key binding signature does not verify")
        if not verify_unless_recorded(secret_check, verified, checks):
            return BundleVerdict.fail(7, "pseudonym secret does not verify")
    if unique_id in registered:
        return BundleVerdict.already_registered()
    return BundleVerdict(True, unique_id=unique_id, document=doc, checks=tuple(checks))
