"""The wire protocol: framing, request validation, reply shapes."""

import pytest

from repro.errors import ServiceError
from repro.service.protocol import (
    MAX_LINE,
    OPS,
    decode,
    encode,
    error,
    ok,
    parse_request,
)


class TestFraming:
    def test_round_trip(self):
        message = {"op": "submit", "spec": {"kind": "figure", "params": {}}}
        assert decode(encode(message)) == message

    def test_encode_ends_with_newline(self):
        assert encode({"op": "ping"}).endswith(b"\n")

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServiceError, match="malformed"):
            decode(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ServiceError, match="object"):
            decode(b"[1, 2, 3]\n")

    def test_decode_rejects_oversized_line(self):
        with pytest.raises(ServiceError, match="too long"):
            decode(b"x" * (MAX_LINE + 1))


class TestParseRequest:
    def test_all_ops_parse(self):
        for op in OPS:
            request = {"op": op}
            if op in ("watch", "cancel"):
                request["job"] = "job-1"
            if op == "submit":
                request["spec"] = {"kind": "figure"}
            assert parse_request(encode(request))["op"] == op

    def test_unknown_op_rejected(self):
        with pytest.raises(ServiceError, match="unknown op"):
            parse_request(encode({"op": "frobnicate"}))

    def test_watch_needs_job(self):
        with pytest.raises(ServiceError, match="job"):
            parse_request(encode({"op": "watch"}))

    def test_cancel_needs_job_string(self):
        with pytest.raises(ServiceError, match="job"):
            parse_request(encode({"op": "cancel", "job": 3}))

    def test_submit_needs_spec_object(self):
        with pytest.raises(ServiceError, match="spec"):
            parse_request(encode({"op": "submit", "spec": "sweep"}))


class TestReplies:
    def test_ok_shape(self):
        reply = ok(job="job-1")
        assert reply == {"ok": True, "job": "job-1"}

    def test_error_shape(self):
        reply = error("nope")
        assert reply == {"ok": False, "error": "nope"}
