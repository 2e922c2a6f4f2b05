"""Count the code lines, public names and public methods of each module in src/numsgps/.

A code line holds at least one token that is not a comment; blank lines,
comment-only lines and docstrings (module, class and function) are left
out.  A module's public names are the strings of its literal ``__all__``,
read with ast, so nothing is imported; a module with none prints "-".
The package re-exports every module's names, so the names column totals
to the length of ``numsgps.__all__``.  A module's public methods are the
functions, properties among them, defined in its class bodies under a
name with no leading underscore, also read with ast; each name counts
once per class.  Standard library only.  Run from anywhere:

    python3 tools/sloc.py
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "numsgps"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def public_names(tree: ast.Module) -> int | None:
    """Length of the module's ``__all__`` if it is a literal list, else None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return len(node.value.elts) if isinstance(node.value, ast.List) else None
    return None


def public_methods(tree: ast.Module) -> int:
    """How many public methods and properties the class bodies of ``tree`` define."""
    return sum(len({node.name for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")})
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef))


def main() -> int:
    total = names_total = methods_total = 0
    print(f"{'code':>6}  {'names':>5}  {'methods':>7}  module")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        n, names, methods = code_lines(source), public_names(tree), public_methods(tree)
        total += n
        names_total += names or 0
        methods_total += methods
        print(f"{n:6d}  {'-' if names is None else names:>5}  {methods:7d}  {path.name}")
    print(f"{total:6d}  {names_total:5d}  {methods_total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
