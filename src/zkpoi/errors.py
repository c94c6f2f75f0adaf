"""Exception taxonomy shared across the package.

One rule decides the CLI exit code: a refusal caused by the config exits 2,
and exit 1 is left for I/O and protocol failures. ConfigInvalid is the
config refusal; the runner turns a model's DomainError (or a model
constructor's ValueError) into one. Every other ZkpoiError exits 1.
Validation verdicts on documents and bundles are return values, not
exceptions.
"""

from __future__ import annotations

from enum import Enum


class ZkpoiError(Exception):
    """Base class for all package errors."""


class DecodeError(ZkpoiError):
    """Canonical byte decoding failed; the document grammar is broken."""


# --- identity ---------------------------------------------------------------

class UnknownAuthority(ZkpoiError):
    pass


class MissingIdentifier(ZkpoiError):
    pass


class NoActiveAuthentication(ZkpoiError):
    pass


# --- credential -------------------------------------------------------------

class EmptyPassphrase(ZkpoiError):
    pass


class InvalidDocument(ZkpoiError):
    """Document failed validation; carries the rejecting report."""

    def __init__(self, report):
        super().__init__(f"document rejected: {report.failure_code}")
        self.report = report


# --- attestation ------------------------------------------------------------

class MeasurementMismatch(ZkpoiError):
    """One side of the handshake does not match the expected code identity."""

    def __init__(self, side: str, detail: str):
        super().__init__(f"attestation failed on {side} side: {detail}")
        self.side = side


class WrongSession(ZkpoiError):
    pass


# --- registry ---------------------------------------------------------------

class DuplicateReason(str, Enum):
    """The uniqueness layer that refused an admission."""

    IDENTIFIER = "identifier"
    PSEUDONYM = "pseudonym"
    ATTRIBUTES = "attributes"


class DuplicateIdentity(ZkpoiError):
    def __init__(self, message: str, reason: DuplicateReason):
        super().__init__(message)
        self.reason = reason


class InvalidBundle(ZkpoiError):
    pass


class NoSession(ZkpoiError):
    pass


class UnknownPseudonym(ZkpoiError):
    pass


class ReplayedRegProof(ZkpoiError):
    """A registration-suffix bundle was presented for removal."""


class AlreadyMember(ZkpoiError):
    pass


class NotMember(ZkpoiError):
    pass


# --- models -----------------------------------------------------------------

class DomainError(ZkpoiError):
    """A model cannot take its inputs: a degenerate case (no cooperators, no
    miners, a zero baseline) or a result that overflows. The message names
    the case. Raised from a scenario, it is a config error (exit 2), like a
    constructor's ValueError."""


# --- experiment runner ------------------------------------------------------

class ConfigInvalid(ZkpoiError):
    """Config refused; the message names the field path."""


class IoFailure(ZkpoiError):
    pass
