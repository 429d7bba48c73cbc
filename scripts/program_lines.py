#!/usr/bin/env python3
"""Program lines per crate: the lines of each `crates/<name>/src` tree, and
of the root package's `src` (row `mlir-rl`), that still hold code once
comments, the contents of string and char literals and test code are blanked
out.

Test code is what `pub_census.py` reads as test code: `#[cfg(test)] mod x
{ .. }` blocks and the files that `#[cfg(test)] mod x;` declares. The lexer
is the census's own (`strip_code`, `test_spans`), so both scripts read a
file the same way. A line counts when its first non-blank character is code
outside a test block.

Run: `python3 scripts/program_lines.py [--base BASE] [ROOT]` counts the
checkout at ROOT (default: this script's repository) and prints one `crate
lines` row per crate, then the total. With `--base`, it also counts the
checkout at BASE (a parent commit) and prints `crate  base -> root  delta`
rows instead: a change's net program lines. Always exits 0.
"""

import pathlib
import sys

from pub_census import ROOT, strip_code, test_spans


def count_lines(code, spans):
    """Lines of stripped `code` whose first non-blank character lies
    outside every span."""
    count, offset = 0, 0
    for line in code.split("\n"):
        text = line.lstrip()
        first = offset + len(line) - len(text)
        if text and not any(a <= first < b for a, b in spans):
            count += 1
        offset += len(line) + 1
    return count


def crate_lines(src):
    """Program lines of one crate's `src` tree."""
    stripped = {path: strip_code(path.read_text()) for path in sorted(src.rglob("*.rs"))}
    spans, test_files = {}, set()
    for path, code in stripped.items():
        spans[path], declared = test_spans(path, code)
        test_files.update(declared)
    return sum(
        count_lines(code, spans[path])
        for path, code in stripped.items()
        if path not in test_files
    )


def counts(root):
    """Program lines per crate of the checkout at `root`, in print order."""
    crates = [(src.parent.name, src) for src in sorted((root / "crates").glob("*/src"))]
    crates.append(("mlir-rl", root / "src"))
    return {name: crate_lines(src) for name, src in crates}


def main():
    args = sys.argv[1:]
    base = None
    if args[:1] == ["--base"] and len(args) > 1:
        base = counts(pathlib.Path(args[1]).resolve())
        args = args[2:]
    change = counts(pathlib.Path(args[0]).resolve() if args else ROOT)
    if base is None:
        for name, lines in change.items():
            print(f"{name:<12} {lines:>6}")
        print(f"{'total':<12} {sum(change.values()):>6}")
        return 0
    names = list(base) + [name for name in change if name not in base]
    rows = [(name, base.get(name, 0), change.get(name, 0)) for name in names]
    rows.append(("total", sum(base.values()), sum(change.values())))
    for name, before, after in rows:
        print(f"{name:<12} {before:>6} -> {after:>6}  {after - before:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
