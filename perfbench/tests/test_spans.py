import types

import pytest

import spans


def ticking_clock(step=1.0):
    t = [0.0]

    def clock():
        t[0] += step
        return t[0]
    return clock


def make_module():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    def boom():
        raise RuntimeError("boom")

    mod.inner, mod.outer, mod.boom = inner, outer, boom
    return mod


def test_spans_nest_and_self_time_excludes_children():
    mod = make_module()
    tracer = spans.Tracer(clock=ticking_clock())
    tracer.span(mod, "outer", "m.outer")
    tracer.span(mod, "inner", "m.inner",
                lambda counts, args, kwargs, result: counts.update(seen=1))
    with tracer.root("op"):
        assert mod.outer(1) == 4
    # every clock read advances one tick:
    # op [1, 8], outer [2, 7], inner [3, 4], inner [5, 6]
    assert [s[0] for s in tracer.spans] == ["op", "m.outer", "m.inner",
                                            "m.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert spans.self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]
    (root,) = spans.summarize(tracer.spans)
    assert root["wall"] == 7.0
    assert root["self"] == {"m.outer": 3.0, "m.inner": 2.0}
    assert root["total"] == {"m.outer": 5.0, "m.inner": 2.0}
    assert root["calls"] == {"m.outer": 1, "m.inner": 2}
    assert root["edges"] == {("op", "m.outer"): 1, ("m.outer", "m.inner"): 2}
    assert sum(root["self"].values()) <= root["wall"]
    assert tracer.root_counts == {0: {"seen": 2}}


def test_self_time_subtracts_only_direct_children():
    # a [0, 10] > b [1, 9] > c [2, 4]; d [9.5, 10] is a second child of a
    spans_list = [["a", 0.0, 10.0, -1], ["b", 1.0, 9.0, 0],
                  ["c", 2.0, 4.0, 1], ["d", 9.5, 10.0, 0]]
    assert spans.self_times(spans_list) == [1.5, 6.0, 2.0, 0.5]


def test_summarize_separates_roots():
    spans_list = [["setup", 0.0, 2.0, -1], ["x", 0.5, 1.5, 0],
                  ["op", 3.0, 7.0, -1], ["x", 3.0, 4.0, 2],
                  ["op", 8.0, 9.0, -1]]
    roots = spans.summarize(spans_list)
    assert [(r["name"], r["wall"]) for r in roots] == [
        ("setup", 2.0), ("op", 4.0), ("op", 1.0)]
    assert [r["calls"]["x"] for r in roots] == [1, 1, 0]


def test_span_closes_when_the_call_raises():
    mod = make_module()
    tracer = spans.Tracer(clock=ticking_clock())
    tracer.span(mod, "boom", "m.boom")
    with pytest.raises(RuntimeError):
        with tracer.root("op"):
            mod.boom()
    assert all(s[2] is not None for s in tracer.spans)
    assert tracer._stack == []


def test_count_paused_and_restore():
    mod = make_module()
    inner, outer = mod.inner, mod.outer
    tracer = spans.Tracer(clock=ticking_clock())
    tracer.count(mod, "inner", "inner_calls")
    tracer.span(mod, "outer", "m.outer")
    mod.outer(0)
    with tracer.paused():
        mod.outer(0)
    assert tracer.counts == {"inner_calls": 2}
    assert len(tracer.spans) == 1
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer


def test_one_wrapper_for_a_function_held_by_two_owners():
    a, b = make_module(), types.ModuleType("alias")
    b.inner = a.inner
    tracer = spans.Tracer(clock=ticking_clock())
    tracer.span([a, b], "inner", "m.inner")
    a.inner(0)
    b.inner(0)
    assert [s[0] for s in tracer.spans] == ["m.inner", "m.inner"]
    b.inner = lambda x: x
    with pytest.raises(ValueError):
        tracer.span([a, b], "inner", "again")


def test_root_inside_a_span_is_refused():
    tracer = spans.Tracer(clock=ticking_clock())
    with tracer.root("op"):
        with pytest.raises(RuntimeError):
            with tracer.root("op"):
                pass
