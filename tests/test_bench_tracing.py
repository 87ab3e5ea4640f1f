"""The benchmark's traced run wraps trideg functions by module and attribute
name (WRAPPED in bench/tracing.py).  A rename or removal in the library would
break `bench/run.py --trace 1` without any library test noticing, so every
wrapped name is resolved here.  WRAPPED is read from the file's source, not
imported, because the benchmark modules expect bench/ on sys.path."""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _wrapped():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no WRAPPED assignment in %s" % TRACING)


def test_every_wrapped_name_resolves_to_a_callable():
    wrapped = _wrapped()
    assert wrapped
    for module, attr, _span in wrapped:
        obj = getattr(importlib.import_module("trideg." + module), attr, None)
        assert callable(obj), "trideg.%s.%s" % (module, attr)
