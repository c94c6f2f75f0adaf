"""Exception taxonomy shared across the package.

ConfigInvalid signals a rejected input (CLI exit code 2); every other
ZkpoiError is a runtime failure (exit code 1). Validation verdicts on
documents and bundles are return values, not exceptions.
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


# --- shard game -------------------------------------------------------------

class ZeroCooperators(ZkpoiError):
    pass


class DegenerateDenominator(ZkpoiError):
    pass


class TooLarge(ZkpoiError):
    pass


class EmptyPopulation(ZkpoiError):
    pass


# --- economics --------------------------------------------------------------

class ZeroMiners(ZkpoiError):
    pass


class Infeasible(ZkpoiError):
    pass


class DegenerateBaseline(ZkpoiError):
    pass


class BothSidesEmpty(ZkpoiError):
    pass


class DegenerateRatio(ZkpoiError):
    pass


class IndistinguishableNetworks(ZkpoiError):
    pass


class DomainError(ZkpoiError):
    pass


class ExponentSingularity(ZkpoiError):
    pass


class ZeroVolume(ZkpoiError):
    pass


# --- experiment runner ------------------------------------------------------

class ConfigInvalid(ZkpoiError):
    """Config rejected before any work ran; message names the field path."""


class IoFailure(ZkpoiError):
    pass
