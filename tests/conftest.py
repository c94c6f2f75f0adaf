"""Fixtures shared by the test modules."""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

import zkpoi


@pytest.fixture
def child_env():
    """Build the environment for a fresh interpreter process.

    The directory this process imported ``zkpoi`` from (the source tree or an
    install) goes first on the child's PYTHONPATH, so the child runs the same
    library under test without relying on an install or on PATH."""
    package_parent = str(Path(zkpoi.__file__).resolve().parent.parent)

    def make(**overrides: str) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_parent, env.get("PYTHONPATH")) if p)
        env.update(overrides)
        return env
    return make


@pytest.fixture
def verify_calls(monkeypatch):
    """The signatures handed to Ed25519 verification from now on, in order.

    Every document, key-binding and secret check goes through
    ``identity.verify_signature``, so counting there counts them all."""
    from zkpoi import identity

    calls: list[bytes] = []

    def counting(public_key, signature, message, _verify=identity.verify_signature):
        calls.append(signature)
        return _verify(public_key, signature, message)
    monkeypatch.setattr(identity, "verify_signature", counting)
    return calls


@pytest.fixture
def sign_calls(monkeypatch):
    """The messages handed to Ed25519 signing from now on, in order."""
    from zkpoi.crypto import SigningKey

    calls: list[bytes] = []

    def counting(self, message, _sign=SigningKey.sign):
        calls.append(message)
        return _sign(self, message)
    monkeypatch.setattr(SigningKey, "sign", counting)
    return calls


@pytest.fixture
def encode_calls(monkeypatch):
    """The structure tags of the ``Encoder``s built from now on, in order.

    Documents, bundles and attribute tuples are encoded in the identity,
    credential and registry modules, so counting their ``Encoder`` counts
    every structure encoded; ``cert:v1``, ``cert-tbs:v1`` and ``chain:v1``
    are certificate encodings."""
    from zkpoi import codec, credential, identity, registry

    tags: list[str] = []

    def counting(tag, _encoder=codec.Encoder):
        tags.append(tag)
        return _encoder(tag)
    for module in (identity, credential, registry):
        monkeypatch.setattr(module, "Encoder", counting)
    return tags


@pytest.fixture
def forge_degraded():
    """Forge a bundle that claims a document's identity on the degraded path
    from the document's public bytes alone: an attacker's own wallet key, no
    key binding, a chosen secret and the pseudonym derived to match. The
    mode it states can be set to anything."""
    from zkpoi.credential import (
        AA_MODE_ABSENT,
        RegistrationBundle,
        TransparentEvidence,
        derive_pseudonym,
    )
    from zkpoi.crypto import SigningKey
    from zkpoi.identity import public_document

    def make(doc, network, aa_mode=AA_MODE_ABSENT):
        public = public_document(doc)
        secret = b"attacker-chosen"
        return RegistrationBundle(
            derive_pseudonym(secret, network, public.unique_id()),
            SigningKey.from_labels(b"attacker").public_bytes, None,
            TransparentEvidence(doc_kind=public.kind, doc_bytes=public.public_bytes(),
                                secret=secret, aa_mode=aa_mode))
    return make


@pytest.fixture
def resigned():
    """Re-sign a document under its issuer with other fields: the document
    an issuer that skipped its own checks (a YYMMDD date, a non-empty
    identifier) would make. A card takes leaf certificate fields and its
    issuing ``CertAuthority``; a passport takes DG1 fields or
    ``dg11_personal_number`` and its ``DscHandle``."""
    from zkpoi.identity import IdentityCard

    def make(doc, signer, **fields):
        if isinstance(doc, IdentityCard):
            leaf = dataclasses.replace(doc.certificate, **fields)
            leaf = dataclasses.replace(leaf, signature=signer.sign(leaf.tbs_bytes()))
            return dataclasses.replace(doc, chain=dataclasses.replace(doc.chain, leaf=leaf))
        dg1_names = {f.name for f in dataclasses.fields(doc.dg1)}
        dg1 = dataclasses.replace(doc.dg1, **{k: fields.pop(k) for k in list(fields)
                                              if k in dg1_names})
        draft = dataclasses.replace(doc, dg1=dg1, **fields)
        draft = dataclasses.replace(draft, sod_dg_hashes=draft.computed_dg_hashes())
        return dataclasses.replace(draft, sod_signature=signer.sign(draft.sod_payload()))
    return make
