"""Every name the bench tracer wraps still exists.

A hook whose attribute is gone makes its per-layer metrics read 0 without
any error, so a refactor that renames or deletes a hooked function must
fail here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

from ncwell.logscale import LogScaled

_spec = importlib.util.spec_from_file_location(
    "tracing", pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_hooked_attribute_resolves():
    missing = [
        f"{mod_name}.{attr}"
        for mod_name, attr, _ in tracing.HOOKS
        if not callable(getattr(importlib.import_module(mod_name), attr, None))
    ]
    assert missing == []


def test_every_counted_logscale_op_resolves():
    assert [name for name in tracing.LOGSCALE_OPS if not callable(vars(LogScaled).get(name))] == []
