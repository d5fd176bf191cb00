#!/usr/bin/env python3
"""Fails when a src/ header is reached only from tests/.

Every header under src/ must be #included by some non-test source: another
src/ file, bench/, examples/, tools/ or benchmark/. The umbrella src/realrate.h
and the header's own .cc do not count, since they include every header by
construction. A module only tests reach belongs in tests/, not in the library.

    python3 scripts/check_src_reach.py
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
UMBRELLA = SRC / "realrate.h"
DIRS = ("src", "tests", "bench", "examples", "tools", "benchmark")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def main():
    headers = {p.relative_to(SRC).as_posix(): p for p in SRC.rglob("*.h") if p != UMBRELLA}
    includers = {name: [] for name in headers}
    for top in DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in (".h", ".cc") or path == UMBRELLA:
                continue
            for name in INCLUDE.findall(path.read_text(encoding="utf-8")):
                if name in includers and path != headers[name].with_suffix(".cc"):
                    includers[name].append(path.relative_to(ROOT))

    failures = []
    for name in sorted(headers):
        users = includers[name]
        if not any(u.parts[0] != "tests" for u in users):
            where = ", ".join(u.as_posix() for u in users) or "nothing"
            failures.append(f"src/{name} is included only from: {where}")
    for failure in failures:
        print(f"check_src_reach: {failure}")
    if failures:
        print("check_src_reach: move test-only code into tests/ or delete it")
        return 1
    print(f"check_src_reach: OK ({len(headers)} headers reached from non-test code)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
