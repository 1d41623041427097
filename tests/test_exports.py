"""The package root's exports: ``__all__`` and the names ``__init__`` binds agree."""

from __future__ import annotations

import types

import fanolink


def test_star_import_binds_every_exported_name():
    namespace: dict[str, object] = {}
    exec("from fanolink import *", namespace)
    assert set(fanolink.__all__) <= set(namespace)
    assert len(set(fanolink.__all__)) == len(fanolink.__all__)


def test_every_public_binding_is_exported():
    # Submodules become attributes of the package once imported; they are
    # reached as fanolink.<module>, not exported.
    public = {
        name
        for name, value in vars(fanolink).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(fanolink.__all__)
