"""perfbench's tracer wraps huckel's functions where each module binds them
(huckel.cli, huckel.sweep, huckel.bounds, huckel.constructions, ...).  A name
removed from one of those modules makes install() fail here, instead of only
in a traced benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_at_every_binding_site_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer("sites")
    try:
        tracer.install(t)
        patched = list(t._patched)
        assert patched
        for owner, attr, original in patched:
            assert _bound(owner, attr) is not original, attr
    finally:
        t.uninstall()
    for owner, attr, original in patched:
        assert _bound(owner, attr) is original, attr
