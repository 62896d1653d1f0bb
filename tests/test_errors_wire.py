"""The repro.errors wire protocol: stable codes, to_dict/error_from_dict.

The contract the CLI and the HTTP front-end share: every exception class
carries a unique, stable ``code``; ``to_dict()`` produces a JSON-safe
document; ``error_from_dict`` rebuilds the matching class (degrading
gracefully on unknown codes, so version skew between peers never crashes
the older side).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    AlgorithmError,
    ConvergenceError,
    GraphError,
    InvalidLambdaError,
    PayloadTooLargeError,
    ProtocolError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    ServeError,
    SimulationError,
    StoreError,
    UnknownResourceError,
    WireFormatError,
    error_from_dict,
)

ALL_ERROR_CLASSES = [
    ReproError, GraphError, ProtocolError, SimulationError, AlgorithmError,
    InvalidLambdaError, ConvergenceError, StoreError, ServeError,
    QueueFullError, QuotaExceededError, UnknownResourceError, WireFormatError,
    PayloadTooLargeError,
]


class TestCodes:
    def test_every_class_has_a_unique_code(self):
        codes = [cls.code for cls in ALL_ERROR_CLASSES]
        assert len(codes) == len(set(codes)), "duplicate wire codes"

    def test_codes_are_stable(self):
        # Pinned literally: a code is a public wire identifier — changing one
        # breaks deployed clients, so a rename must fail a test, not slip by.
        assert {cls: cls.code for cls in ALL_ERROR_CLASSES} == {
            ReproError: "error",
            GraphError: "graph",
            ProtocolError: "protocol",
            SimulationError: "simulation",
            AlgorithmError: "algorithm",
            InvalidLambdaError: "invalid-lambda",
            ConvergenceError: "convergence",
            StoreError: "store",
            ServeError: "serve",
            QueueFullError: "queue-full",
            QuotaExceededError: "quota-exceeded",
            UnknownResourceError: "unknown-resource",
            WireFormatError: "bad-request",
            PayloadTooLargeError: "payload-too-large",
        }


class TestToDict:
    def test_shape_and_json_safety(self):
        doc = GraphError("no node 7").to_dict()
        assert doc == {"code": "graph", "message": "no node 7"}
        assert json.loads(json.dumps(doc)) == doc

    def test_quota_error_carries_retry_after(self):
        doc = QuotaExceededError("slow down", retry_after=1.5).to_dict()
        assert doc == {"code": "quota-exceeded", "message": "slow down",
                       "retry_after": 1.5}


class TestRoundTrip:
    @pytest.mark.parametrize("cls", ALL_ERROR_CLASSES,
                             ids=[c.__name__ for c in ALL_ERROR_CLASSES])
    def test_every_class_round_trips(self, cls):
        original = cls(f"{cls.__name__} happened")
        rebuilt = error_from_dict(json.loads(json.dumps(original.to_dict())))
        assert type(rebuilt) is cls
        assert str(rebuilt) == str(original)

    def test_quota_retry_after_survives_the_wire(self):
        original = QuotaExceededError("wait", retry_after=0.75)
        rebuilt = error_from_dict(original.to_dict())
        assert isinstance(rebuilt, QuotaExceededError)
        assert rebuilt.retry_after == 0.75

    def test_rebuilt_errors_are_raisable_and_catchable_as_repro_errors(self):
        with pytest.raises(ReproError):
            raise error_from_dict({"code": "store", "message": "boom"})

    def test_invalid_lambda_keeps_its_dual_identity(self):
        rebuilt = error_from_dict({"code": "invalid-lambda", "message": "nan"})
        assert isinstance(rebuilt, AlgorithmError)
        assert isinstance(rebuilt, ValueError)


class TestDegradation:
    def test_unknown_code_degrades_to_the_base_class(self):
        # A newer server may grow new codes; an older client must still raise
        # *something* sensible rather than crash on the lookup.
        rebuilt = error_from_dict({"code": "from-the-future",
                                   "message": "novel failure"})
        assert type(rebuilt) is ReproError
        assert str(rebuilt) == "novel failure"

    def test_missing_message_is_tolerated(self):
        assert str(error_from_dict({"code": "graph"})) == ""

    def test_bad_retry_after_is_tolerated(self):
        rebuilt = error_from_dict({"code": "quota-exceeded", "message": "x",
                                   "retry_after": "soon"})
        assert rebuilt.retry_after == 0.0

    @pytest.mark.parametrize("payload", [
        None, "graph", 17, ["graph"], {"message": "no code"},
    ])
    def test_non_error_payloads_are_rejected(self, payload):
        with pytest.raises(WireFormatError):
            error_from_dict(payload)

    def test_downstream_subclasses_resolve_without_registration(self):
        class CustomError(StoreError):
            code = "custom-store-flavour"

        try:
            rebuilt = error_from_dict({"code": "custom-store-flavour",
                                       "message": "mine"})
            assert type(rebuilt) is CustomError
        finally:
            # The live-tree walk would keep seeing this class via
            # StoreError.__subclasses__ otherwise; dropping the only strong
            # reference lets it be collected.
            del CustomError
