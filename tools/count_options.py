"""Count the options of the package's public API: its parameters with a default.

Run from the repository root, naming the source tree to import:

    python3 tools/count_options.py --src src        # the total alone
    python3 tools/count_options.py --src src -v     # each option by name, then the total

Everything `manifold_test` exports is counted: each function, each class's
constructor (a dataclass field with a default is a constructor parameter)
and each public method of its classes, the methods it inherits from the
package's own classes included. A function reached twice counts once. The
exception classes are left out: the program raises them, and no caller
sets them. The last line is `total N`.
"""
from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path


def _own(obj) -> bool:
    return (getattr(obj, "__module__", None) or "").partition(".")[0] == "manifold_test"


def _callables(mt):
    """(name, function) of every function the exports reach, each once."""
    seen: set[int] = set()
    for export in sorted(name for name in dir(mt) if not name.startswith("_")):
        obj = getattr(mt, export)
        if inspect.isclass(obj) and _own(obj) and not issubclass(obj, BaseException):
            mro = [c for c in obj.__mro__ if _own(c)]
            init = next((c.__dict__[k] for c in mro for k in ("__init__", "__new__")
                         if k in c.__dict__), None)
            found = [(f"{export}()", init)] if init is not None else []
            for cls in mro:
                for name, attr in vars(cls).items():
                    if not name.startswith("_"):
                        attr = getattr(attr, "__func__", attr)   # class and static methods
                        if inspect.isfunction(attr):
                            found.append((f"{export}.{name}", attr))
        elif inspect.isfunction(obj) and _own(obj):
            found = [(export, obj)]
        else:
            continue
        for name, fn in found:
            if id(fn) not in seen:
                seen.add(id(fn))
                yield name, fn


def options(mt) -> list[str]:
    """`name(parameter)` of every parameter with a default."""
    return [f"{name}({p.name})" for name, fn in _callables(mt)
            for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the source tree to import manifold_test from")
    parser.add_argument("-v", action="store_true", help="list each option by name")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    mt = importlib.import_module("manifold_test")
    found = options(mt)
    if args.v:
        print("\n".join(found))
    print(f"total {len(found)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
