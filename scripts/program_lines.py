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

Run: `python3 scripts/program_lines.py [ROOT]` counts the checkout at ROOT
(default: this script's repository) and prints one `crate  lines` row per
crate, then the total. Run it on a parent checkout and on a change to report
the change's net program lines. Always exits 0.
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


def main():
    root = pathlib.Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT
    crates = [(src.parent.name, src) for src in sorted((root / "crates").glob("*/src"))]
    crates.append(("mlir-rl", root / "src"))
    total = 0
    for name, src in crates:
        lines = crate_lines(src)
        total += lines
        print(f"{name:<12} {lines:>6}")
    print(f"{'total':<12} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
