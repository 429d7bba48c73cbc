#!/usr/bin/env python3
"""Census of `pub` items that nothing, or only their own file's tests, read.

Checks every `pub` fn / struct / enum / const / trait / type / static declared
in the program (non-test) part of `crates/*/src` in two modes:

* `unread`: its name appears in code nowhere but its own definition;
* `test-only`: its name appears in code only inside its own file's
  `#[cfg(test)]` module.

Comments, the contents of string and char literals and `use` / `pub use`
declarations are not code: a path that imports or re-exports a name does not
read it, so a crate-root re-export hides nothing. Every other occurrence
counts as a reader: the item's own file's program code,
every other file (test modules and test files included) under `crates/`,
`src/`, `tests/`, `examples/` and `benchmark/src`. The match is by name, so
an item that shares its name with any other read identifier counts as read.

Run from anywhere: `python3 scripts/pub_census.py`. Runs both modes, prints
one `path:line  mode  kind name` line per item found, and exits 1 when
either mode finds any, 0 otherwise.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
READER_DIRS = ["crates", "src", "tests", "examples", "benchmark/src"]

ITEM = re.compile(
    r"^[ \t]*pub[ \t]+(?:(?:const|unsafe|async|extern[ \t]+\"[^\"]*\")[ \t]+)*"
    r"(fn|struct|enum|const|trait|type|static)[ \t]+(?:mut[ \t]+)?([A-Za-z_]\w*)",
    re.M,
)
IDENT = re.compile(r"[A-Za-z_]\w*")
CHAR = re.compile(r"'(?:\\(?:x[0-9a-fA-F]{2}|u\{[0-9a-fA-F]+\}|.)|[^\\'\n])'")
RAW_STRING = re.compile(r'b?r(#*)"')
USE_DECL = re.compile(r"^[ \t]*(?:pub(?:\([^)]*\))?[ \t]+)?use\b[^;]*;", re.M)
CFG_TEST = re.compile(r"#\[cfg\(test\)\]\s*mod\s+(\w+)\s*(;|\{)")


def strip_code(text):
    """Blank out comments and the contents of string and char literals,
    keeping every offset and newline in place."""
    out = list(text)
    i, n = 0, len(text)

    def blank(start, end):
        for k in range(start, end):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            blank(i, end)
            i = end
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif (m := RAW_STRING.match(text, i)) and (i == 0 or not text[i - 1].isalnum()):
            close = '"' + m.group(1)
            end = text.find(close, m.end())
            end = n if end < 0 else end
            blank(m.end(), end)
            i = end + len(close)
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = j + 1
        elif c == "'" and (m := CHAR.match(text, i)):
            blank(i + 1, m.end() - 1)
            i = m.end()
        else:
            i += 1
    return "".join(out)


def strip_uses(code):
    """Blank out every `use` / `pub use` declaration of stripped code,
    keeping offsets and newlines in place."""
    return USE_DECL.sub(lambda m: re.sub(r"[^\n]", " ", m.group()), code)


def matching_brace(code, open_at):
    depth = 0
    for k in range(open_at, len(code)):
        if code[k] == "{":
            depth += 1
        elif code[k] == "}":
            depth -= 1
            if depth == 0:
                return k + 1
    return len(code)


def test_spans(path, code):
    """Byte ranges of `#[cfg(test)] mod x { .. }` blocks, and the files
    that `#[cfg(test)] mod x;` declares."""
    spans, files = [], []
    for m in CFG_TEST.finditer(code):
        if m.group(2) == "{":
            spans.append((m.start(), matching_brace(code, m.end() - 1)))
        else:
            stem = path.parent if path.name in ("mod.rs", "lib.rs") else path.with_suffix("")
            files.append(stem / f"{m.group(1)}.rs")
    return spans, files


def main():
    sources = {}
    for d in READER_DIRS:
        for path in sorted((ROOT / d).rglob("*.rs")):
            if "target" not in path.relative_to(ROOT).parts:
                sources[path] = strip_uses(strip_code(path.read_text()))

    spans, test_files = {}, set()
    for path, code in sources.items():
        spans[path], declared = test_spans(path, code)
        test_files.update(declared)

    def in_test(path, offset):
        return any(a <= offset < b for a, b in spans[path])

    # name -> (path, offset) of every occurrence of an identifier
    places = {}
    for path, code in sources.items():
        for m in IDENT.finditer(code):
            places.setdefault(m.group(), []).append((path, m.start()))

    found = []
    for path, code in sources.items():
        rel = path.relative_to(ROOT)
        if rel.parts[0] != "crates" or rel.parts[2] != "src" or path in test_files:
            continue
        for m in ITEM.finditer(code):
            kind, name = m.group(1), m.group(2)
            if in_test(path, m.start()):
                continue
            uses = [u for u in places[name] if u != (path, m.start(2))]
            own_tests = [u for u in uses if u[0] == path and in_test(path, u[1])]
            if len(own_tests) == len(uses):
                mode = "test-only" if uses else "unread"
                line = code.count("\n", 0, m.start(2)) + 1
                found.append((mode, f"{rel}:{line}  {mode}  {kind} {name}"))

    for _, item in found:
        print(item)
    for mode, why in [
        ("unread", "read by no file: delete it"),
        ("test-only", "read only by their own file's tests: give each a reader"
         " that asserts on it, or delete it"),
    ]:
        count = sum(1 for m, _ in found if m == mode)
        if count:
            print(f"{count} pub item(s) {why}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
