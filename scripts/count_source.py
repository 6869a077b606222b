#!/usr/bin/env python3
"""Count the settable values, the code lines and the public names of the package's source.

A settable value is a function parameter (lambdas too; self and cls not)
or a dataclass field that a caller can set (a ``field(init=False)`` is
derived, not set). A code line is a line that is not blank, not a
comment and not part of a docstring (any statement that is a bare
string), so a deleted comment does not count as a smaller program. A
public name is an entry of a module-level ``__all__`` written as a list
or tuple; the package ``__init__`` derives its ``__all__`` from the
submodules' names, so it adds none.

    python scripts/count_source.py                      # src/pgrestore/*.py
    python scripts/count_source.py src/pgrestore/cli.py # one file
"""

import argparse
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "pgrestore"


def count_source(paths=(PACKAGE,)) -> dict:
    """``settable_values``, ``code_lines`` and ``public_names`` summed over ``paths``.

    A directory in ``paths`` stands for its *.py files.
    """
    count = code_lines = public_names = 0
    files = []
    for path in map(pathlib.Path, paths):
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    for path in files:
        text = path.read_text()
        tree = ast.parse(text)
        public_names += sum(
            len(node.value.elts) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
        docstring_lines = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                docstring_lines.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [p for p in (args.vararg, args.kwarg) if p]
                count += sum(p.arg not in ("self", "cls") for p in params)
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                count += sum(isinstance(s, ast.AnnAssign) and "init=False" not in ast.unparse(s)
                             for s in node.body)
        code_lines += sum(
            1 for number, line in enumerate(text.splitlines(), 1)
            if line.strip() and not line.strip().startswith("#")
            and number not in docstring_lines)
    return {"settable_values": count, "code_lines": code_lines, "public_names": public_names}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=[PACKAGE],
                        help="files or directories (default: src/pgrestore)")
    counts = count_source(parser.parse_args().paths)
    print(f"settable values: {counts['settable_values']}")
    print(f"code lines (not blank, comments or docstrings): {counts['code_lines']}")
    print(f"public names: {counts['public_names']}")


if __name__ == "__main__":
    main()
