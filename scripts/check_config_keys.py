#!/usr/bin/env python3
"""Checks that every documented config key is read by the code.

A "Config knobs" line or table in README.md or DESIGN.md names config
keys as backticked `section.key` tokens. Each such key must appear as the
literal first argument of some Config::Get*("...") call in a C++ file
under src/; otherwise the docs describe a knob that no longer exists.

A block starts at a line containing "Config knobs" (or starting with
"Knobs:") and runs to the end of its paragraph or list item; a markdown
table that follows the paragraph after one blank line belongs to it.

Usage: scripts/check_config_keys.py [REPO_ROOT]
Exits 1 and lists the stale keys when any documented key is not read.
"""

import pathlib
import re
import sys

DOCS = ("README.md", "DESIGN.md")
BLOCK_START = re.compile(r"Config knobs|^\s*Knobs:")
KEY_TOKEN = re.compile(r"`([a-z][a-z0-9_]*\.[a-z][a-z0-9_]*)`")
CONFIG_READ = re.compile(r"\.Get(?:String|Int|Double|Bool)\(\s*\"([^\"]+)\"")


def is_item_start(line):
    return re.match(r"\s*([*-]|\d+\.)\s", line) or line.startswith("#")


def knob_blocks(lines):
    """Yields (line number, text) of each "Config knobs" block."""
    i = 0
    while i < len(lines):
        if not BLOCK_START.search(lines[i]):
            i += 1
            continue
        start = i
        block = [lines[i]]
        i += 1
        while i < len(lines) and lines[i].strip() and not is_item_start(
                lines[i]) and not BLOCK_START.search(lines[i]):
            block.append(lines[i])
            i += 1
        if (i + 1 < len(lines) and not lines[i].strip()
                and lines[i + 1].lstrip().startswith("|")):
            i += 1
            while i < len(lines) and lines[i].lstrip().startswith("|"):
                block.append(lines[i])
                i += 1
        yield start + 1, "\n".join(block)


def documented_keys(doc):
    """Returns {key: [line numbers]} named in the doc's knob blocks."""
    keys = {}
    lines = doc.read_text(encoding="utf-8").splitlines()
    for line_no, text in knob_blocks(lines):
        for key in KEY_TOKEN.findall(text):
            keys.setdefault(key, []).append(line_no)
    return keys


def read_keys(src):
    keys = set()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".h", ".cc"):
            keys.update(CONFIG_READ.findall(path.read_text(encoding="utf-8")))
    return keys


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    read = read_keys(root / "src")
    stale = []
    checked = 0
    for name in DOCS:
        for key, line_nos in sorted(documented_keys(root / name).items()):
            checked += 1
            if key not in read:
                stale.append(f"{name}:{line_nos[0]}: `{key}` is documented "
                             "as a config knob but no Config::Get* call "
                             "under src/ reads it")
    for message in stale:
        print(message)
    if stale:
        return 1
    print(f"ok: {checked} documented config keys, all read under src/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
