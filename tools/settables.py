"""Count the settable values of the ``far`` package and its source lines.

A settable value is one a caller or user can set:

- keyword defaults: every parameter with a default, of every function and
  method in ``src/far``;
- dataclass fields: every annotated field of a ``@dataclass`` class;
- config keys: every key of ``far.config.SCHEMA``;
- CLI options: every optional argument of every ``far`` subcommand (from
  ``far.cli.build_parser``), ``--help`` excluded.

Run from the repository root: ``python tools/settables.py [SRC]``, where
SRC (default ``src``) holds the ``far`` package. Prints one ``name,count``
row per kind, their total, and the line count of ``SRC/far/*.py``. A SRC
with no ``far/*.py``, or from which ``far`` is not the package imported,
is an error that names SRC (exit 1); an unknown option is a usage error
(exit 2), and ``--help`` prints the usage. The script needs only the
standard library and the package it counts.
"""

import argparse
import ast
import pathlib
import sys


def keyword_defaults(tree):
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)))


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None)
        if name == "dataclass":
            return True
    return False


def dataclass_fields(tree):
    return sum(isinstance(stmt, ast.AnnAssign)
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and _is_dataclass(node)
               for stmt in node.body)


def cli_options(parser):
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(cli_options(sub) for sub in action.choices.values())
        elif action.option_strings and not isinstance(
                action, argparse._HelpAction):
            count += 1
    return count


def main():
    ap = argparse.ArgumentParser(
        prog="settables",
        description="Count the settable values of the far package and the "
                    "lines of its source.")
    ap.add_argument("src", nargs="?", default="src", metavar="SRC",
                    help="the directory that holds the far package "
                         "(default: src)")
    src = pathlib.Path(ap.parse_args().src)
    files = sorted((src / "far").glob("*.py"))
    if not files:
        sys.exit(f"settables: no far/*.py under SRC {src}")
    trees = [ast.parse(f.read_text(), str(f)) for f in files]
    sys.path.insert(0, str(src))
    import far
    # a far/ without __init__.py imports as a namespace package (no file)
    if far.__file__ is None or (pathlib.Path(far.__file__).resolve().parent
                                != (src / "far").resolve()):
        origin = far.__file__ or list(far.__path__)
        sys.exit(f"settables: imported far from {origin}, not from SRC {src}")
    from far.cli import build_parser
    from far.config import SCHEMA

    counts = {
        "keyword_defaults": sum(keyword_defaults(t) for t in trees),
        "dataclass_fields": sum(dataclass_fields(t) for t in trees),
        "config_keys": sum(len(keys) for keys in SCHEMA.values()),
        "cli_options": cli_options(build_parser()),
    }
    for name, n in counts.items():
        print(f"{name},{n}")
    print(f"settable_total,{sum(counts.values())}")
    print(f"src_lines,{sum(len(f.read_text().splitlines()) for f in files)}")


if __name__ == "__main__":
    main()
