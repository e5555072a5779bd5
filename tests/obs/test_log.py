"""StructLogger: JSON/text rendering, binding, and legacy coercion."""

import io
import json

import pytest

from repro.obs.log import NULL_LOGGER, StructLogger, to_logger


def json_lines(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestJsonFormat:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        logger = StructLogger(stream=stream, component="worker")
        logger.info("done-task", digest="abc123", wall_s=0.5)
        logger.warning("fail", digest="def456")
        records = json_lines(stream)
        assert len(records) == 2
        assert records[0]["level"] == "info"
        assert records[0]["event"] == "done-task"
        assert records[0]["component"] == "worker"
        assert records[0]["digest"] == "abc123"
        assert records[0]["wall_s"] == 0.5
        assert records[1]["level"] == "warning"
        assert "ts" in records[0]

    def test_bound_fields_appear_on_every_record(self):
        stream = io.StringIO()
        logger = StructLogger(stream=stream).bind(worker_id="w0")
        logger.info("a")
        logger.debug("b", digest="x")
        records = json_lines(stream)
        assert all(r["worker_id"] == "w0" for r in records)
        assert records[1]["digest"] == "x"

    def test_bind_does_not_mutate_the_parent(self):
        stream = io.StringIO()
        parent = StructLogger(stream=stream)
        parent.bind(worker_id="w0")
        parent.info("a")
        assert "worker_id" not in json_lines(stream)[0]

    def test_call_site_fields_override_bound_ones(self):
        stream = io.StringIO()
        logger = StructLogger(stream=stream).bind(digest="old")
        logger.info("a", digest="new")
        assert json_lines(stream)[0]["digest"] == "new"


class TestTextFormat:
    def test_single_line_with_level_event_and_fields(self):
        stream = io.StringIO()
        logger = StructLogger(
            stream=stream, component="server", fmt="text"
        )
        logger.info("sweep", enqueued=3)
        line = stream.getvalue().strip()
        assert "info" in line
        assert "server" in line
        assert "sweep" in line
        assert "enqueued=3" in line
        assert "\n" not in line

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            StructLogger(fmt="xml")


class TestDisabledLogger:
    def test_null_logger_is_disabled_and_silent(self):
        assert not NULL_LOGGER.enabled
        NULL_LOGGER.info("ignored", digest="x")  # must not raise

    def test_bind_of_a_disabled_logger_stays_disabled(self):
        assert not NULL_LOGGER.bind(worker_id="w0").enabled


class TestToLogger:
    def test_none_becomes_the_null_logger(self):
        assert to_logger(None) is NULL_LOGGER

    def test_structlogger_passes_through(self):
        original = StructLogger(stream=io.StringIO(), component="cli")
        assert to_logger(original, component="worker") is original

    def test_componentless_structlogger_gains_the_component(self):
        stream = io.StringIO()
        logger = to_logger(StructLogger(stream=stream), component="worker")
        logger.info("a")
        assert json_lines(stream)[0]["component"] == "worker"
