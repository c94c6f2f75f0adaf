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
def with_expiry():
    """Re-sign a passport under its signer with another DG1 expiry: the
    document an issuer that skipped ``Dg1.build``'s date check would make."""
    def make(passport, dsc, expiry_date):
        dg1 = dataclasses.replace(passport.dg1, expiry_date=expiry_date)
        draft = dataclasses.replace(passport, dg1=dg1)
        draft = dataclasses.replace(draft, sod_dg_hashes=draft.computed_dg_hashes())
        return dataclasses.replace(draft, sod_signature=dsc.sign(draft.sod_payload()))
    return make
