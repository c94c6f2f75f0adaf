"""Synthetic PKI and travel-document issuance plus their validators.

Two document families are modeled:

* identity cards: an end-entity certificate chained through zero or more
  intermediate authorities to a self-signed trusted root, with the holder's
  signing key kept off the serialized form;
* electronic passports: a machine-readable data group (DG1) with standard
  7-3-1 check digits, an optional personal number (DG11), an optional
  chip-resident challenge-signing key (DG15), and a security object binding
  hashes of all populated groups under a document-signer certificate that a
  country root vouches for.

Validation never raises for a bad document; it returns a report whose
failure code names the first check that failed.
"""

from __future__ import annotations

import datetime as _dt
import functools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import ClassVar, Collection, Union

from .codec import Decoder, Encoder
from .crypto import SigningKey, hash_parts, verify_signature
from .errors import (
    DecodeError,
    MissingIdentifier,
    NoActiveAuthentication,
    UnknownAuthority,
)

# Fixed synthetic epoch all fixture windows hang off (2020-09-13T12:26:40Z).
GENESIS = 1_600_000_000
YEAR = 365 * 24 * 3600

_AA_CONTEXT = b"zkpoi/active-auth/v1"

# One Ed25519 check: (public key, signature, signed bytes).
SignatureCheck = tuple[bytes, bytes, bytes]


class FailureCode(str, Enum):
    GRAMMAR_ERROR = "GrammarError"
    EXPIRED = "Expired"
    REVOKED = "Revoked"
    CHAIN_BROKEN = "ChainBroken"
    BAD_SIGNATURE = "BadSignature"
    NOT_TRUSTED = "NotTrusted"
    HASH_MISMATCH = "HashMismatch"


@dataclass(frozen=True)
class ValidationReport:
    verdict: str  # "accepted" | "rejected"
    failure_code: FailureCode | None
    checked_at: int
    # The document's own signature checks this validation verified rather
    # than found in the caller's record; empty on a rejected report.
    checks: tuple[SignatureCheck, ...] = field(default=(), compare=False, repr=False)

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    @staticmethod
    def ok(now: int, checks: list[SignatureCheck]) -> "ValidationReport":
        return ValidationReport("accepted", None, now, tuple(checks))

    @staticmethod
    def fail(code: FailureCode, now: int) -> "ValidationReport":
        return ValidationReport("rejected", code, now)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _encoded_once(encode):
    """Run a frozen document's encoding method once per instance.

    The bytes are kept in the instance dict under ``_<method name>``,
    outside the dataclass fields: equality, hashing, repr and
    `dataclasses.replace` never see them, so a replaced copy (a renewal, a
    forgery) encodes afresh. `_remember` seeds the memo with bytes a
    document was decoded from or signed; the codec is canonical, so
    encoding the fields again would give those very bytes."""
    key = "_" + encode.__name__

    @functools.wraps(encode)
    def once(self) -> bytes:
        encoded = self.__dict__.get(key)
        if encoded is None:
            encoded = self.__dict__[key] = encode(self)
        return encoded
    return once


def _remember(doc, **encodings: bytes):
    """Seed `doc`'s memo: each `_encoded_once` method name with its bytes."""
    for name, encoded in encodings.items():
        doc.__dict__["_" + name] = encoded
    return doc


@dataclass(frozen=True)
class Certificate:
    subject_name: str
    issuer_name: str
    serial: int
    not_before: int
    not_after: int
    subject_public_key: bytes
    unique_id_field: str | None
    is_ca: bool
    signature: bytes  # issuer signature over tbs_bytes()

    @_encoded_once
    def tbs_bytes(self) -> bytes:
        """To-be-signed portion: every field except the signature."""
        return (
            Encoder("cert-tbs:v1")
            .put_text(self.subject_name)
            .put_text(self.issuer_name)
            .put_u64(self.serial)
            .put_u64(self.not_before)
            .put_u64(self.not_after)
            .put_bytes(self.subject_public_key)
            .put_opt_text(self.unique_id_field)
            .put_bool(self.is_ca)
            .done()
        )

    @_encoded_once
    def to_bytes(self) -> bytes:
        return Encoder("cert:v1").put_bytes(self.tbs_bytes()).put_bytes(self.signature).done()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Certificate":
        blob = bytes(blob)  # the memo keeps immutable bytes
        outer = Decoder(blob, "cert:v1")
        tbs = outer.take_bytes()
        signature = outer.take_bytes()
        outer.finish()
        d = Decoder(tbs, "cert-tbs:v1")
        cert = cls(
            subject_name=d.take_text(),
            issuer_name=d.take_text(),
            serial=d.take_u64(),
            not_before=d.take_u64(),
            not_after=d.take_u64(),
            subject_public_key=d.take_bytes(),
            unique_id_field=d.take_opt_text(),
            is_ca=d.take_bool(),
            signature=signature,
        )
        d.finish()
        if cert.not_before >= cert.not_after:
            raise DecodeError("validity window is reversed or empty")
        return _remember(cert, tbs_bytes=tbs, to_bytes=blob)

    def fingerprint(self) -> bytes:
        return hash_parts(b"cert-fingerprint", self.to_bytes())

    def unique_id(self) -> str:
        if not self.unique_id_field:
            raise MissingIdentifier("certificate has no unique identifier")
        return self.unique_id_field


@dataclass(frozen=True)
class CertChain:
    """Leaf plus intermediates, leaf first; the root stays in the trust store."""

    kind: ClassVar[str] = "card-chain"

    leaf: Certificate
    intermediates: tuple[Certificate, ...]
    root_fingerprint: bytes

    def certs(self) -> tuple[Certificate, ...]:
        return (self.leaf, *self.intermediates)

    @_encoded_once
    def to_bytes(self) -> bytes:
        enc = Encoder("chain:v1").put_u64(len(self.intermediates) + 1)
        for cert in self.certs():
            enc.put_bytes(cert.to_bytes())
        return enc.put_bytes(self.root_fingerprint).done()

    public_bytes = to_bytes

    def unique_id(self) -> str:
        return self.leaf.unique_id()

    def public_key(self) -> bytes:
        return self.leaf.subject_public_key

    def validate(self, store: TrustStore, now: int, *,
                 verified: Collection[SignatureCheck] = ()) -> ValidationReport:
        return validate_chain(self, store, now, verified=verified)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CertChain":
        blob = bytes(blob)  # the memo keeps immutable bytes
        d = Decoder(blob, "chain:v1")
        count = d.take_u64()
        if count < 1:
            raise DecodeError("chain must hold at least a leaf")
        leaf = Certificate.from_bytes(d.take_bytes())
        intermediates = tuple(_decode_issuer(d.take_bytes()) for _ in range(count - 1))
        root_fp = d.take_bytes()
        d.finish()
        chain = cls(leaf=leaf, intermediates=intermediates, root_fingerprint=root_fp)
        return _remember(chain, to_bytes=blob)


@functools.lru_cache(maxsize=128)
def _decode_issuer(blob: bytes) -> Certificate:
    """`Certificate.from_bytes` for an issuer's certificate (an intermediate
    CA or a document signer): equal bytes decode to one shared certificate
    while they stay among the process's 128 most recently decoded.

    A handful of issuers sign every holder's document, so their bytes
    recur in every chain and passport. The memo holds decoded, immutable
    certificates only, never a signature check or a verdict: validation
    still checks every certificate for every document. Leaves are not
    memoized, and the fixed bound keeps distinct (say, forged) issuer
    bytes from growing it."""
    return Certificate.from_bytes(blob)


@dataclass(frozen=True)
class TrustStore:
    trusted_roots: dict[bytes, bytes]  # fingerprint -> root public key
    allowed_authorities: frozenset[str]
    root_names: dict[str, bytes]  # root subject name -> fingerprint
    # Issuer signature checks verified inside a document this store
    # accepted: intermediate CAs and document signers only, never leaves.
    # Owned by this store; a copy starts empty.
    _verified_issuers: set[SignatureCheck] = field(
        default_factory=set, init=False, compare=False, repr=False)


class CertAuthority:
    """Issuing handle: a CA certificate plus its private key and serial counter."""

    def __init__(self, cert: Certificate, key: SigningKey,
                 chain_up: tuple[Certificate, ...], root_fingerprint: bytes,
                 seed_tag: bytes):
        self.cert = cert
        self._key = key
        # Intermediates between an issued leaf and the root, leaf-adjacent first.
        self.chain_up = chain_up
        self.root_fingerprint = root_fingerprint
        self._seed_tag = seed_tag
        self._next_serial = 1

    @property
    def name(self) -> str:
        return self.cert.subject_name

    def allocate_serial(self) -> int:
        serial = self._next_serial
        self._next_serial += 1
        return serial

    def sign(self, tbs: bytes) -> bytes:
        return self._key.sign(tbs)

    def derive_subject_key(self, *labels: bytes) -> SigningKey:
        return SigningKey.from_labels(self._seed_tag, *labels)


@dataclass
class CaHierarchy:
    authorities: dict[str, CertAuthority]  # every CA by name
    issuers: tuple[str, ...]  # the deepest (leaf-issuing) authority per country

    def authority(self, name: str) -> CertAuthority:
        try:
            return self.authorities[name]
        except KeyError:
            raise UnknownAuthority(f"no issuing authority named {name!r}") from None


def _make_cert(subject: str, issuer: str, serial: int, window: tuple[int, int],
               subject_key: bytes, unique_id: str | None, is_ca: bool,
               signer: SigningKey) -> Certificate:
    unsigned = Certificate(subject, issuer, serial, window[0], window[1],
                           subject_key, unique_id, is_ca, signature=b"")
    tbs = unsigned.tbs_bytes()
    return _remember(replace(unsigned, signature=signer.sign(tbs)), tbs_bytes=tbs)


def generate_ca_hierarchy(country_count: int, intermediates_per_root: int,
                          seed: int) -> tuple[TrustStore, CaHierarchy]:
    """Build `country_count` root authorities, each with a chain of
    `intermediates_per_root` intermediates hanging off it.

    Fully deterministic in (country_count, intermediates_per_root, seed).
    """
    if country_count < 1:
        raise ValueError("country_count must be >= 1")
    if intermediates_per_root < 0:
        raise ValueError("intermediates_per_root must be >= 0")
    seed_tag = hash_parts(b"hierarchy-seed", seed.to_bytes(8, "big"))
    ca_window = (GENESIS, GENESIS + 50 * YEAR)

    trusted_roots: dict[bytes, bytes] = {}
    root_names: dict[str, bytes] = {}
    authorities: dict[str, CertAuthority] = {}
    issuers: list[str] = []

    for c in range(country_count):
        root_name = f"Country-{c + 1:02d} Root CA"
        root_key = SigningKey.from_labels(seed_tag, b"root", c.to_bytes(4, "big"))
        root_cert = _make_cert(root_name, root_name, serial=1, window=ca_window,
                               subject_key=root_key.public_bytes, unique_id=None,
                               is_ca=True, signer=root_key)
        root_fp = root_cert.fingerprint()
        trusted_roots[root_fp] = root_key.public_bytes
        root_names[root_name] = root_fp
        root_auth = CertAuthority(root_cert, root_key, chain_up=(), root_fingerprint=root_fp,
                                  seed_tag=hash_parts(seed_tag, root_name.encode()))
        root_auth.allocate_serial()  # serial 1 spent on the root itself
        authorities[root_name] = root_auth

        parent = root_auth
        for i in range(intermediates_per_root):
            name = f"Country-{c + 1:02d} Intermediate CA {i + 1}"
            key = SigningKey.from_labels(seed_tag, b"intermediate",
                                         c.to_bytes(4, "big"), i.to_bytes(4, "big"))
            cert = _make_cert(name, parent.name, parent.allocate_serial(), ca_window,
                              key.public_bytes, None, True, signer=parent._key)
            auth = CertAuthority(cert, key, chain_up=(cert,) + parent.chain_up,
                                 root_fingerprint=root_fp,
                                 seed_tag=hash_parts(seed_tag, name.encode()))
            authorities[name] = auth
            parent = auth
        issuers.append(parent.name)

    store = TrustStore(trusted_roots=trusted_roots,
                       allowed_authorities=frozenset(authorities),
                       root_names=root_names)
    hierarchy = CaHierarchy(authorities=authorities, issuers=tuple(issuers))
    return store, hierarchy


@dataclass(frozen=True)
class IdentityCard:
    """An issued certificate chain together with the holder's signing key.

    The key never enters the serialized chain; it models the private key a
    national identity card keeps on-chip for challenge signing.
    """

    chain: CertChain
    holder_key: SigningKey = field(repr=False)

    @property
    def certificate(self) -> Certificate:
        return self.chain.leaf


def issue_identity_cert(hierarchy: CaHierarchy, authority_name: str, subject: str,
                        unique_id: str, validity: tuple[int, int]) -> IdentityCard:
    """Issue an end-entity certificate for `subject` under the named authority.
    ValueError for an empty `unique_id`, which no wallet could register."""
    if not unique_id:
        raise ValueError("an identity certificate needs a non-empty unique identifier")
    auth = hierarchy.authority(authority_name)
    serial = auth.allocate_serial()
    holder_key = auth.derive_subject_key(b"holder", serial.to_bytes(8, "big"), subject.encode())
    leaf = _make_cert(subject, auth.name, serial, validity, holder_key.public_bytes,
                      unique_id, is_ca=False, signer=auth._key)
    chain = CertChain(leaf=leaf, intermediates=auth.chain_up,
                      root_fingerprint=auth.root_fingerprint)
    return IdentityCard(chain=chain, holder_key=holder_key)


def validate_chain(chain: CertChain, store: TrustStore, now: int,
                   crl: frozenset[tuple[str, int]] | None = None, *,
                   verified: Collection[SignatureCheck] = ()) -> ValidationReport:
    """Four-step validation of a decoded chain (`CertChain.from_bytes`
    checks the grammar, and raises DecodeError).

    1. validity window of every certificate;
    2. revocation against the optional (issuer, serial) set — skipped when absent;
    3. issuer/subject linkage and signature along the chain;
    4. the chain terminates at a trusted self-signed root from the store.

    Every step runs on every call. Each signature check goes through
    `verify_unless_recorded`: an intermediate certificate's against the
    store's record of accepted documents, the leaf's against the caller's
    record `verified`. An accepting report carries the leaf check when it
    was verified here.
    """
    certs = chain.certs()
    for cert in certs:
        if not (cert.not_before <= now <= cert.not_after):
            return ValidationReport.fail(FailureCode.EXPIRED, now)
    if crl:
        for cert in certs:
            if (cert.issuer_name, cert.serial) in crl:
                return ValidationReport.fail(FailureCode.REVOKED, now)
    fresh: list[SignatureCheck] = []
    checks: list[SignatureCheck] = []

    def signed(issuer_key: bytes, cert: Certificate) -> bool:
        check = (issuer_key, cert.signature, cert.tbs_bytes())
        if cert is chain.leaf:
            return verify_unless_recorded(check, verified, checks)
        return verify_unless_recorded(check, store._verified_issuers, fresh)

    for child, parent in zip(certs, certs[1:]):
        if child.issuer_name != parent.subject_name or not parent.is_ca:
            return ValidationReport.fail(FailureCode.CHAIN_BROKEN, now)
        if not signed(parent.subject_public_key, child):
            return ValidationReport.fail(FailureCode.BAD_SIGNATURE, now)
    top = certs[-1]
    root_key = store.trusted_roots.get(chain.root_fingerprint)
    if root_key is None or top.issuer_name not in store.allowed_authorities:
        return ValidationReport.fail(FailureCode.NOT_TRUSTED, now)
    if not signed(root_key, top):
        return ValidationReport.fail(FailureCode.BAD_SIGNATURE, now)
    store._verified_issuers.update(fresh)
    return ValidationReport.ok(now, checks)


# ---------------------------------------------------------------------------
# Electronic passports
# ---------------------------------------------------------------------------

_CHECK_WEIGHTS = (7, 3, 1)


def icao_check_digit(data: str) -> int:
    """Standard 7-3-1 weighted check digit over A-Z, 0-9 and filler '<'."""
    total = 0
    for i, ch in enumerate(data):
        if ch.isdigit():
            v = int(ch)
        elif "A" <= ch <= "Z":
            v = ord(ch) - ord("A") + 10
        elif ch == "<":
            v = 0
        else:
            raise ValueError(f"character {ch!r} not in the check-digit alphabet")
        total += v * _CHECK_WEIGHTS[i % 3]
    return total % 10


@dataclass(frozen=True)
class Dg1:
    """The fourteen machine-readable-zone data elements."""

    document_type: str
    issuing_state: str
    name: str
    document_number: str
    document_number_cd: int
    nationality: str
    birth_date: str  # YYMMDD
    birth_date_cd: int
    sex: str
    expiry_date: str  # YYMMDD
    expiry_date_cd: int
    optional_data: str
    optional_data_cd: int
    composite_cd: int

    @classmethod
    def build(cls, *, issuing_state: str, name: str, document_number: str,
              nationality: str, birth_date: str, sex: str, expiry_date: str,
              optional_data: str = "") -> "Dg1":
        yymmdd_timestamp(birth_date)  # ValueError unless a YYMMDD day
        yymmdd_timestamp(expiry_date)
        doc_cd = icao_check_digit(document_number)
        birth_cd = icao_check_digit(birth_date)
        expiry_cd = icao_check_digit(expiry_date)
        opt_cd = icao_check_digit(optional_data) if optional_data else 0
        composite = icao_check_digit(
            f"{document_number}{doc_cd}{birth_date}{birth_cd}"
            f"{expiry_date}{expiry_cd}{optional_data}{opt_cd}"
        )
        return cls("P", issuing_state, name, document_number, doc_cd,
                   nationality, birth_date, birth_cd, sex, expiry_date, expiry_cd,
                   optional_data, opt_cd, composite)

    @_encoded_once
    def to_bytes(self) -> bytes:
        return (
            Encoder("dg1:v1")
            .put_text(self.document_type).put_text(self.issuing_state).put_text(self.name)
            .put_text(self.document_number).put_u64(self.document_number_cd)
            .put_text(self.nationality)
            .put_text(self.birth_date).put_u64(self.birth_date_cd)
            .put_text(self.sex)
            .put_text(self.expiry_date).put_u64(self.expiry_date_cd)
            .put_text(self.optional_data).put_u64(self.optional_data_cd)
            .put_u64(self.composite_cd)
            .done()
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Dg1":
        blob = bytes(blob)  # the memo keeps immutable bytes
        d = Decoder(blob, "dg1:v1")
        out = cls(d.take_text(), d.take_text(), d.take_text(),
                  d.take_text(), d.take_u64(), d.take_text(),
                  d.take_text(), d.take_u64(), d.take_text(),
                  d.take_text(), d.take_u64(), d.take_text(), d.take_u64(), d.take_u64())
        d.finish()
        return _remember(out, to_bytes=blob)


def yymmdd_timestamp(date: str) -> int:
    """YYMMDD date (end of day, UTC) to unix seconds; years map into 2000-2099.
    ValueError unless the date is six ASCII digits naming a calendar day.
    The one date check of the DG1 birth and expiry dates."""
    if not (len(date) == 6 and date.isascii() and date.isdigit()):
        raise ValueError(f"date {date!r} is not YYMMDD")
    year, month, day = 2000 + int(date[:2]), int(date[2:4]), int(date[4:6])
    end = _dt.datetime(year, month, day, 23, 59, 59, tzinfo=_dt.timezone.utc)
    return int(end.timestamp())


@dataclass(frozen=True)
class HolderFields:
    name: str
    document_number: str
    nationality: str
    birth_date: str
    sex: str
    expiry_date: str
    issuing_state: str
    optional_data: str = ""
    personal_number: str | None = None


@dataclass(frozen=True)
class EPassport:
    kind: ClassVar[str] = "epassport"

    dg1: Dg1
    dg11_personal_number: str | None
    dg15_public_key: bytes | None
    sod_dg_hashes: tuple[tuple[int, bytes], ...]  # sorted (group, digest) pairs
    sod_signature: bytes
    dsc: Certificate
    aa_secret: SigningKey | None = field(repr=False, compare=False, default=None)

    def computed_dg_hashes(self) -> tuple[tuple[int, bytes], ...]:
        groups: list[tuple[int, bytes]] = [(1, hash_parts(b"dg", b"\x01", self.dg1.to_bytes()))]
        if self.dg11_personal_number is not None:
            groups.append((11, hash_parts(b"dg", b"\x0b", self.dg11_personal_number.encode())))
        if self.dg15_public_key is not None:
            groups.append((15, hash_parts(b"dg", b"\x0f", self.dg15_public_key)))
        return tuple(sorted(groups))

    @_encoded_once
    def sod_payload(self) -> bytes:
        enc = Encoder("sod:v1").put_u64(len(self.sod_dg_hashes))
        for group, digest in self.sod_dg_hashes:
            enc.put_u64(group).put_bytes(digest)
        return enc.done()

    @_encoded_once
    def public_bytes(self) -> bytes:
        """Everything a reader can lift off the document; chip key excluded."""
        return (
            Encoder("epassport:v1")
            .put_bytes(self.dg1.to_bytes())
            .put_opt_text(self.dg11_personal_number)
            .put_opt_bytes(self.dg15_public_key)
            .put_bytes(self.sod_payload())
            .put_bytes(self.sod_signature)
            .put_bytes(self.dsc.to_bytes())
            .done()
        )

    def unique_id(self) -> str:
        """The personal number when present, else the document number."""
        if self.dg11_personal_number is not None:
            unique_id = self.dg11_personal_number
        else:
            unique_id = self.dg1.document_number
        if not unique_id:
            raise MissingIdentifier("passport has an empty unique identifier")
        return unique_id

    def public_key(self) -> bytes:
        if self.dg15_public_key is None:
            raise NoActiveAuthentication("passport publishes no chip verification key")
        return self.dg15_public_key

    def validate(self, store: TrustStore, now: int, *,
                 verified: Collection[SignatureCheck] = ()) -> ValidationReport:
        return validate_epassport(self, store, now, verified=verified)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "EPassport":
        blob = bytes(blob)  # the memo keeps immutable bytes
        d = Decoder(blob, "epassport:v1")
        dg1 = Dg1.from_bytes(d.take_bytes())
        dg11 = d.take_opt_text()
        dg15 = d.take_opt_bytes()
        sod_payload = d.take_bytes()
        sod_signature = d.take_bytes()
        dsc = _decode_issuer(d.take_bytes())
        d.finish()
        sd = Decoder(sod_payload, "sod:v1")
        count = sd.take_u64()
        hashes = tuple((sd.take_u64(), sd.take_bytes()) for _ in range(count))
        sd.finish()
        passport = cls(dg1=dg1, dg11_personal_number=dg11, dg15_public_key=dg15,
                       sod_dg_hashes=hashes, sod_signature=sod_signature, dsc=dsc)
        return _remember(passport, sod_payload=sod_payload, public_bytes=blob)


class DscHandle:
    """Document-signer handle: certificate plus its private key."""

    def __init__(self, cert: Certificate, key: SigningKey):
        self.cert = cert
        self._key = key

    def sign(self, payload: bytes) -> bytes:
        return self._key.sign(payload)


def issue_dsc(csca: CertAuthority, label: str, validity: tuple[int, int]) -> DscHandle:
    """Issue a document-signer certificate directly under a country root."""
    serial = csca.allocate_serial()
    key = csca.derive_subject_key(b"dsc", serial.to_bytes(8, "big"), label.encode())
    cert = _make_cert(f"{csca.name} DSC {label}", csca.name, serial, validity,
                      key.public_bytes, None, is_ca=False, signer=csca._key)
    return DscHandle(cert, key)


def issue_epassport(csca: CertAuthority, dsc: DscHandle, holder: HolderFields,
                    with_aa: bool, seed: int) -> EPassport:
    """Assemble a passport whose security object the given DSC signs.

    with_aa=False leaves both the chip key and its public data group absent.
    ValueError for a holder without a non-empty unique identifier, or with
    a birth or expiry date that is not a YYMMDD day.
    """
    if dsc.cert.issuer_name != csca.name:
        raise UnknownAuthority("document signer was not issued by the given country root")
    dg1 = Dg1.build(issuing_state=holder.issuing_state, name=holder.name,
                    document_number=holder.document_number, nationality=holder.nationality,
                    birth_date=holder.birth_date, sex=holder.sex,
                    expiry_date=holder.expiry_date, optional_data=holder.optional_data)
    aa_secret = None
    dg15 = None
    if with_aa:
        aa_secret = SigningKey.from_labels(b"chip-key", seed.to_bytes(8, "big"),
                                           holder.document_number.encode())
        dg15 = aa_secret.public_bytes
    draft = EPassport(dg1=dg1, dg11_personal_number=holder.personal_number,
                      dg15_public_key=dg15, sod_dg_hashes=(), sod_signature=b"",
                      dsc=dsc.cert, aa_secret=aa_secret)
    try:
        draft.unique_id()
    except MissingIdentifier as exc:
        raise ValueError(str(exc)) from None
    hashes = draft.computed_dg_hashes()
    draft = replace(draft, sod_dg_hashes=hashes)
    payload = draft.sod_payload()
    return _remember(replace(draft, sod_signature=dsc.sign(payload)), sod_payload=payload)


def validate_epassport(passport: EPassport, csca_store: TrustStore, now: int, *,
                       verified: Collection[SignatureCheck] = ()) -> ValidationReport:
    """Passive-authentication checks, in fixed order.

    (a) every populated data group hashes to its security-object entry;
    (b) the security-object signature verifies under the document signer;
    (c) the document signer traces to a trusted country root;
    (d) the signer, then the document, are inside their validity windows;
        a document expiry or birth date that is not a YYMMDD date is a
        grammar error.

    Every check runs on every call. Each signature check goes through
    `verify_unless_recorded`: the root's on the document signer against the
    store's record of accepted documents, the security object's against the
    caller's record `verified`. An accepting report carries the
    security-object check when it was verified here.
    """
    if passport.computed_dg_hashes() != passport.sod_dg_hashes:
        return ValidationReport.fail(FailureCode.HASH_MISMATCH, now)
    dsc = passport.dsc
    checks: list[SignatureCheck] = []
    if not verify_unless_recorded((dsc.subject_public_key, passport.sod_signature,
                                   passport.sod_payload()), verified, checks):
        return ValidationReport.fail(FailureCode.BAD_SIGNATURE, now)
    root_key = csca_store.trusted_roots.get(csca_store.root_names.get(dsc.issuer_name))
    fresh: list[SignatureCheck] = []
    if (root_key is None
            or dsc.issuer_name not in csca_store.allowed_authorities
            or not verify_unless_recorded((root_key, dsc.signature, dsc.tbs_bytes()),
                                          csca_store._verified_issuers, fresh)):
        return ValidationReport.fail(FailureCode.NOT_TRUSTED, now)
    if not dsc.not_before <= now <= dsc.not_after:
        return ValidationReport.fail(FailureCode.EXPIRED, now)
    try:
        expiry = yymmdd_timestamp(passport.dg1.expiry_date)
        yymmdd_timestamp(passport.dg1.birth_date)
    except ValueError:
        return ValidationReport.fail(FailureCode.GRAMMAR_ERROR, now)
    if now > expiry:
        return ValidationReport.fail(FailureCode.EXPIRED, now)
    csca_store._verified_issuers.update(fresh)
    return ValidationReport.ok(now, checks)


# ---------------------------------------------------------------------------
# Cross-document helpers
# ---------------------------------------------------------------------------

Document = Union[CertChain, IdentityCard, EPassport]

# Each document kind by the wire tag a registration bundle carries for it.
DOCUMENT_KINDS = {cls.kind: cls for cls in (CertChain, EPassport)}


def public_document(doc: Document) -> Union[CertChain, EPassport]:
    """The public form of `doc`: an identity card's chain, a chain or a
    passport itself. TypeError for anything else, a bare certificate included."""
    if isinstance(doc, IdentityCard):
        return doc.chain
    if isinstance(doc, (CertChain, EPassport)):
        return doc
    raise TypeError(f"{type(doc).__name__} is not an identity document")


def active_auth_challenge(message: bytes) -> bytes:
    """The framed digest a document's resident key signs to answer `message`."""
    return hash_parts(_AA_CONTEXT, message)


def sign_challenge(doc: Union[IdentityCard, EPassport], challenge: bytes) -> bytes:
    """Deterministic signature by the document's resident key over a framed
    challenge (`active_auth_challenge`)."""
    if isinstance(doc, IdentityCard):
        return doc.holder_key.sign(challenge)
    if isinstance(doc, EPassport):
        if doc.aa_secret is None:
            raise NoActiveAuthentication("passport has no chip signing key")
        return doc.aa_secret.sign(challenge)
    raise NoActiveAuthentication(f"{type(doc).__name__} cannot sign challenges")


def active_auth_sign(doc: Union[IdentityCard, EPassport], message: bytes) -> bytes:
    """Deterministic challenge signature by the document's resident key."""
    return sign_challenge(doc, active_auth_challenge(message))


def active_auth_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    return verify_signature(public_key, signature, active_auth_challenge(message))


def verify_unless_recorded(check: SignatureCheck, verified: Collection[SignatureCheck],
                           fresh: list[SignatureCheck]) -> bool:
    """Whether the check's key signed its bytes. A check equal to one in
    `verified` is not verified again; one verified here is appended to
    `fresh`, which the caller records only once it admits the document."""
    if check in verified:
        return True
    if not verify_signature(*check):
        return False
    fresh.append(check)
    return True


def public_bytes_hash(blob: bytes) -> bytes:
    """Stable digest of a document's public form; used as a derivation salt."""
    return hash_parts(b"document-hash", blob)

