"""Tests for the request/policy serialization."""

import json

import pytest

from repro.core.controller import AqRequest
from repro.core.feedback import FeedbackPolicy, drop_policy, ecn_policy
from repro.errors import ConfigurationError


class TestSerialization:
    def test_policy_round_trip(self):
        for policy in (drop_policy(), ecn_policy(12345)):
            clone = FeedbackPolicy.from_dict(policy.to_dict())
            assert clone == policy

    def test_policy_dict_is_json_safe(self):
        payload = json.dumps(ecn_policy(100).to_dict())
        assert FeedbackPolicy.from_dict(json.loads(payload)).ecn_threshold_bytes == 100

    def test_request_round_trip_absolute(self):
        request = AqRequest(
            entity="e", switch="s", position="ingress",
            absolute_rate_bps=5e9, policy=ecn_policy(1000),
            limit_bytes=42_000, record_delays=True,
        )
        clone = AqRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert clone == request

    def test_request_round_trip_weighted(self):
        request = AqRequest(
            entity="e", switch="s", position="egress",
            weight=2.5, share_group="g",
        )
        clone = AqRequest.from_dict(request.to_dict())
        assert clone == request

    def test_invalid_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            AqRequest.from_dict(
                {"entity": "e", "switch": "s", "position": "sideways",
                 "weight": 1.0}
            )
        with pytest.raises(ConfigurationError):
            FeedbackPolicy.from_dict({"kind": "ecn"})  # missing threshold
