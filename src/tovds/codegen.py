"""Functions compiled from generated source text.

The DP5 step loop with its event guards, and the right-hand sides written
as stage text, are compiled from text, each once per process.
Every source is registered with linecache under its file name, so
tracebacks, pdb and cProfile show the generated lines.
"""

from __future__ import annotations

import functools
import linecache
import textwrap


def define(source: str, filename: str, namespace: dict):
    """The one function that source defines, compiled under filename with
    namespace as its globals."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope = {}
    exec(compile(source, filename, "exec"), namespace, scope)
    (fn,) = scope.values()
    return fn


@functools.cache
def closure_factory(filename: str, params: str, body: str, result: str, consts: tuple):
    """make(**values) -> the function (params) -> result that runs body.

    The names in consts are the parameters of make, so each bound value is a
    closure cell of the function; a new set of values costs one call of
    make, not a compile.  body may use no other free name but builtins, and
    no constant the function's own name, compiled.
    """
    if "compiled" in consts:
        raise ValueError(f"{filename}: no constant may be named 'compiled'")
    source = (f"def make({', '.join(consts)}):\n"
              f"    def compiled({params}):\n"
              f"{textwrap.indent(body, ' ' * 8)}"
              f"        return {result}\n"
              f"    return compiled\n")
    return define(source, filename, {})
