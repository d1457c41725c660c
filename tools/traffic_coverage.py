"""List the package's functions that the benchmark inputs never run.

Run from the repository root, naming the source tree to import:

    python3 tools/traffic_coverage.py --src src circle-search:1-3 ball-reject:1 criterion-11

The specs are those of tools/dump_certificates.py. For each input, run_test
runs, then verify_output on a case-one verdict, under sys.settrace, which
records the lines executed in TREE/manifold_test; making the inputs is not
traced. A function counts as run when any line of its body ran. Every
function that did not run is printed as `module.py:LINE name (N lines)`,
by module and line, with N its lines from `def` to its end; a function
nested in one that did not run is part of it and is not listed again. The
last line is `total N lines in M functions`.
"""
from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

from dump_certificates import ROOT, runs


def _functions(tree: ast.AST, prefix: str = ""):
    """(name, node) of every function in tree, by position, methods and
    nested functions under dotted names."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def _body_lines(node) -> range:
    """The lines of a function's body after its docstring (empty for a
    function that is only a docstring)."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    return range(body[0].lineno, node.end_lineno + 1) if body else range(0)


def unrun(package: Path, ran: dict[str, set[int]]) -> list[tuple[str, int, str, int]]:
    """(module, line, name, lines) of every function of package's modules
    with no line of its body in ran (file name -> executed lines)."""
    found = []
    for path in sorted(package.glob("*.py")):
        lines = ran.get(str(path), set())
        skip_to = 0   # the end of the last function listed: its nested ones are part of it
        for name, node in _functions(ast.parse(path.read_text(), str(path))):
            body = _body_lines(node)
            if node.lineno <= skip_to or not body or any(line in lines for line in body):
                continue
            found.append((path.name, node.lineno, name, node.end_lineno - node.lineno + 1))
            skip_to = node.end_lineno
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the source tree to import manifold_test from")
    parser.add_argument("specs", nargs="+", help="workload:seeds, or criterion-11")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import manifold_test as mt

    package = src / "manifold_test"
    prefix = str(package) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, _arg):
        name = frame.f_code.co_filename
        if event != "call" or not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    for spec in args.specs:
        for cloud, config in runs(spec):
            sys.settrace(calls)
            try:
                verdict = mt.run_test(cloud, config)
                if verdict.case == "one":
                    mt.verify_output(verdict, cloud)
            finally:
                sys.settrace(None)
    found = unrun(package, ran)
    for module, line, name, size in found:
        print(f"{module}:{line} {name} ({size} lines)")
    print(f"total {sum(f[3] for f in found)} lines in {len(found)} functions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
