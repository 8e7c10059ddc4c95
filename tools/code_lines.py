"""Count the code lines of Python modules: lines that hold a token other than
a comment, a docstring or whitespace.

    python tools/code_lines.py src/confhydro --exclude _gauss_rules.py

Each argument is a file or a directory (searched for ``*.py``); the script
prints one count per module and the total.  A docstring is a string that
stands alone as the first statement of a module, class or function.  A line
that a multi-line token spans (a string, or a bracket continued over lines)
counts once for each line that holds part of a token.
"""
import argparse
import ast
import io
import pathlib
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _modules(paths, exclude) -> list:
    found = []
    for path in map(pathlib.Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return [p for p in found if p.name not in exclude]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    parser.add_argument("--exclude", nargs="*", default=[], help="file names to leave out")
    args = parser.parse_args(argv)
    total = 0
    for path in _modules(args.paths, set(args.exclude)):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
