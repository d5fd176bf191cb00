#!/usr/bin/env python3
"""Fails on dead relative links in the repository's Markdown files.

Scans every *.md outside build directories for inline links/images
([text](target)), resolves relative targets against the containing file, and
reports targets that do not exist. External schemes (http/https/mailto) and
pure in-page anchors (#...) are ignored; a #fragment on a relative target is
stripped before the existence check.

Usage: scripts/check_links.py [repo_root]
"""
import os
import re
import sys

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_DIRS = {".git", "build"}
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS and not d.startswith("build")]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    dead = []
    checked = 0
    for md in markdown_files(root):
        with open(md, encoding="utf-8") as f:
            text = f.read()
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(md), path))
            checked += 1
            if not os.path.exists(resolved):
                dead.append((os.path.relpath(md, root), target))
    if dead:
        print(f"check_links: {len(dead)} dead relative link(s):")
        for md, target in dead:
            print(f"  {md}: {target}")
        return 1
    print(f"check_links: OK ({checked} relative links resolve)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
