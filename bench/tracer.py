"""Span tracer for the benchmark's traced runs.

`Tracer.install()` rebinds each public function or method listed in `SPANS`
wherever the library holds it: on its class, or in every loaded `zkpoi`
module that imported the name. Each call then opens a span on a stack; on
return the span's duration, minus the time its child spans covered, is
added to the layer's self time. `uninstall()` puts the originals back, so
untraced rounds run the library exactly as shipped. Nothing under `src/`
changes.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time

# (span name, module, function or Class.method). One span may cover several
# entry points; a span nested in another is charged to the inner one only.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("crypto.verify", "zkpoi.crypto", "verify_signature"),
    ("crypto.sign", "zkpoi.crypto", "SigningKey.sign"),
    ("crypto.pbkdf2", "zkpoi.crypto", "pbkdf2_sha256"),
    ("crypto.aead", "zkpoi.crypto", "seal_bytes"),
    ("crypto.aead", "zkpoi.crypto", "unseal_bytes"),
    ("crypto.hash_parts", "zkpoi.crypto", "hash_parts"),
    ("codec.bundle_decode", "zkpoi.credential", "RegistrationBundle.from_bytes"),
    ("codec.document_decode", "zkpoi.identity", "CertChain.from_bytes"),
    ("codec.document_decode", "zkpoi.identity", "EPassport.from_bytes"),
    ("identity.validate_chain", "zkpoi.identity", "validate_chain"),
    ("identity.validate_epassport", "zkpoi.identity", "validate_epassport"),
    ("identity.issue", "zkpoi.identity", "generate_ca_hierarchy"),
    ("identity.issue", "zkpoi.identity", "issue_identity_cert"),
    ("identity.issue", "zkpoi.identity", "issue_dsc"),
    ("identity.issue", "zkpoi.identity", "issue_epassport"),
    ("credential.build", "zkpoi.credential", "build_registration_bundle"),
    ("credential.verify", "zkpoi.credential", "verify_registration_bundle"),
    ("registry.register", "zkpoi.registry", "Registry.register"),
    ("registry.take_offline", "zkpoi.registry", "Registry.take_offline"),
    ("accumulator.root", "zkpoi.accumulator", "Accumulator.root"),
    ("accumulator.non_membership", "zkpoi.accumulator", "accumulator_non_membership"),
    ("accumulator.verify_non_membership", "zkpoi.accumulator",
     "accumulator_verify_non_membership"),
    ("accumulator.admit", "zkpoi.accumulator", "Accumulator.admit"),
    ("accumulator.remove", "zkpoi.accumulator", "accumulator_remove"),
    ("shardgame.receipt_protocol", "zkpoi.shardgame", "run_receipt_protocol"),
    ("shardgame.coordinated_protocol", "zkpoi.shardgame", "run_coordinated_protocol"),
    ("shardgame.receipt_sign", "zkpoi.shardgame", "sign_receipt"),
    ("shardgame.receipt_verify", "zkpoi.shardgame", "Receipt.verify"),
    ("econ.congestion", "zkpoi.econ.congestion", "solve_congestion_nash"),
    ("econ.congestion", "zkpoi.econ.congestion", "all_nash_allocations"),
    ("econ.congestion", "zkpoi.econ.congestion", "price_of_crypto_anarchy"),
    ("econ.games", "zkpoi.econ.games", "udce_vs_plfc_game"),
    ("econ.games", "zkpoi.econ.games", "idsds"),
    ("econ.games", "zkpoi.econ.games", "is_ess"),
    ("econ.circulation", "zkpoi.econ.circulation", "stationary_dm_output"),
    ("econ.network", "zkpoi.econ.network", "simulate_network_growth"),
    ("runner.scenario", "zkpoi.runner", "SCENARIOS"),
    ("runner.render", "zkpoi.runner", "render_csv"),
    ("runner.render", "zkpoi.runner", "render_json"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPANS))

# Event counts recorded at span boundaries, besides each span's call count.
EVENTS: tuple[str, ...] = (
    "crypto.pbkdf2.iterations",
    "credential.verdict.step3",
    "credential.verdict.step4",
    "credential.verdict.step5",
    "credential.verdict.step6",
    "credential.verdict.step7",
    "registry.reject.DuplicateIdentity",
    "registry.reject.InvalidBundle",
    "registry.reject.ReplayedRegProof",
    "registry.reject.UnknownPseudonym",
    "shardgame.receipt_verify.distinct",
)


class Tracer:
    def __init__(self):
        self.self_ns: collections.Counter = collections.Counter()
        self.calls: collections.Counter = collections.Counter()
        self.events: collections.Counter = collections.Counter()
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._receipts: set[tuple[bytes, str, bytes]] = set()

    # -- notes taken at span exit ---------------------------------------------

    def _note(self, name):
        if name == "crypto.pbkdf2":
            def note(args, kwargs, result, exc):
                self.events["crypto.pbkdf2.iterations"] += args[2]
            return note
        if name == "credential.verify":
            def note(args, kwargs, result, exc):
                if result is not None and result.failed_step is not None:
                    self.events[f"credential.verdict.step{result.failed_step}"] += 1
            return note
        if name in ("registry.register", "registry.take_offline"):
            def note(args, kwargs, result, exc):
                if exc is not None and type(exc).__module__ == "zkpoi.errors":
                    self.events[f"registry.reject.{type(exc).__name__}"] += 1
            return note
        if name == "shardgame.receipt_verify":
            def note(args, kwargs, result, exc):
                receipt = args[0]
                self._receipts.add((receipt.tx_hash, receipt.recipient, receipt.signature))
            return note
        return None

    def _wrap(self, name: str, fn):
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        note = self._note(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as caught:
                exc = caught
                raise
            finally:
                spent = clock() - start
                stack.pop()
                self_ns[name] += spent - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += spent
                if note is not None:
                    note(args, kwargs, result, exc)
        return traced

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr, value, is_item=False):
        old = owner[attr] if is_item else owner.__dict__[attr]
        self._patches.append((owner, attr, old, is_item))
        if is_item:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sys.modules.items()
                   if (n == "zkpoi" or n.startswith("zkpoi.")) and m is not None]
        for name, module_name, qualname in SPANS:
            module = importlib.import_module(module_name)
            if qualname == "SCENARIOS":
                table = module.SCENARIOS
                for key in list(table):
                    self._set(table, key, self._wrap(name, table[key]), is_item=True)
            elif "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                elif isinstance(raw, property):
                    new = property(self._wrap(name, raw.fget))
                else:
                    new = self._wrap(name, raw)
                self._set(cls, attr, new)
            else:
                original = getattr(module, qualname)
                traced = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, old, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    def end_round(self) -> None:
        """Fold the distinct receipts verified in this round into the counts."""
        self.events["shardgame.receipt_verify.distinct"] += len(self._receipts)
        self._receipts.clear()

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.events.clear()
        self._receipts.clear()

    def snapshot(self) -> dict:
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "events": dict(self.events)}
