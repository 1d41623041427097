"""The names the per-layer benchmark harness wraps stay bound and in use.

``bench/tracing.py`` measures each layer by replacing module attributes
while an op runs, and it skips an attribute that is missing without a
word.  A refactor that renamed or stopped calling one of them would zero
its metrics (``search.build_calls``, ``checks.run_calls``, ...)
silently; these tests fail instead.
"""

from __future__ import annotations

import inspect
from collections import Counter

from fanolink import catalog, golden, render, search

# (module, attribute) pairs that bench/tracing.py wraps besides search.build_*.
WRAPPED = (
    (search, "run_checks"),
    (search, "is_valid_fano_degree"),
    (catalog, "hodge_h12"),
    (search, "enumerate_family"),
    (search, "brute_force_oracle"),
    (golden, "golden_for_family"),
    (golden, "diff"),
    (render, "render_dispatch"),
)


def _build_functions() -> list[str]:
    return [
        name
        for name in dir(search)
        if name.startswith("build_") and inspect.isfunction(getattr(search, name))
    ]


def test_every_wrapped_name_is_bound():
    assert "build_candidate" in _build_functions()
    for module, name in WRAPPED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_a_default_enumeration_calls_the_derivation_and_check_layers(monkeypatch):
    # One E1-point family reaches the point side's degree test
    # (is_valid_fano_degree), the Hodge lookup of the candidates that reach
    # HODGE, and the kept-row step of its three rows.  The E1 walks decide
    # their kernel checks on each tuple's record (search._decide); a
    # symmetric family runs the check registry on each of its records.
    calls: Counter[str] = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in _build_functions():
        monkeypatch.setattr(search, name, counting("search.build_*", getattr(search, name)))
    for module, name in WRAPPED[:3]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert len(search.enumerate_family("e1e2")) == 3
    assert calls["search.build_*"] == 3
    assert calls["is_valid_fano_degree"] > 0
    assert calls["hodge_h12"] > 0
    assert calls["run_checks"] == 0
    assert len(search.enumerate_family("e2e2")) == 3
    assert calls["run_checks"] == 3
