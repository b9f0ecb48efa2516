"""Trace spans: nesting, flame paths, exception safety."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.spans import SPAN_METRIC


class TestNesting:
    def test_paths_join_with_semicolons(self, fresh_obs):
        with obs.span("request"):
            with obs.span("zstd.compress", level=3):
                pass
            with obs.span("rpc.send"):
                with obs.span("zstd.decompress"):
                    pass
        hist = fresh_obs.get(SPAN_METRIC)
        assert {dict(key)["path"] for key in hist.label_keys()} == {
            "request",
            "request;zstd.compress",
            "request;rpc.send",
            "request;rpc.send;zstd.decompress",
        }
        labels = dict(path="request;zstd.compress", error="false")
        assert hist.count(**labels) == 1 and hist.sum(**labels) >= 0.0

    def test_children_attach_to_parent_record(self, fresh_obs):
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
        assert [child.name for child in outer.children] == ["inner"]
        assert outer.path == "outer"
        assert [rec.name for rec in outer.walk()] == ["outer", "inner"]

    def test_durations_nest(self, fresh_obs):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                pass
        assert outer.duration_seconds >= inner.duration_seconds >= 0.0

    def test_current_span_tracks_stack(self, fresh_obs):
        # a span's path is the stack of open spans when it opened
        with obs.span("a"):
            with obs.span("b") as b:
                pass
            with obs.span("c") as c:
                pass
        with obs.span("d") as d:
            pass
        assert (b.path, c.path, d.path) == ("a;b", "a;c", "d")

    def test_attributes_recorded(self, fresh_obs):
        with obs.span("c", codec="zstd") as rec:
            rec.set(level=3)
        assert rec.attributes == {"codec": "zstd", "level": 3}


class TestExceptionSafety:
    def test_exception_propagates_and_stack_unwinds(self, fresh_obs):
        with pytest.raises(RuntimeError, match="boom"):
            with obs.span("will_fail"):
                raise RuntimeError("boom")
        # the stack is clean: a new span is a root, not a child of the dead one
        with obs.span("after") as after:
            assert after.path == "after"

    def test_error_flag_recorded(self, fresh_obs):
        with pytest.raises(ValueError):
            with obs.span("fails") as rec:
                raise ValueError()
        hist = fresh_obs.get(SPAN_METRIC)
        assert hist.count(path="fails", error="true") == 1
        assert hist.count(path="fails", error="false") == 0
        assert rec.error is True

    def test_inner_failure_still_attributes_outer(self, fresh_obs):
        with pytest.raises(KeyError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise KeyError()
        hist = fresh_obs.get(SPAN_METRIC)
        assert hist.count(path="outer;inner", error="true") == 1
        assert hist.count(path="outer", error="true") == 1

    def test_duration_recorded_despite_exception(self, fresh_obs):
        with pytest.raises(RuntimeError):
            with obs.span("fails") as rec:
                raise RuntimeError()
        assert rec.duration_seconds >= 0.0


def test_reset_clears_roots_and_stack(fresh_obs):
    stray = obs.span("stray")
    stray.__enter__()  # left open, as by an abandoned generator
    obs.reset_spans()
    with obs.span("a") as a:
        pass
    assert a.path == "a"  # a root again, not a child of the stray span
