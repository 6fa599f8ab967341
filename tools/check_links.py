#!/usr/bin/env python3
"""Offline markdown link checker for the repo's documentation.

Walks the markdown files given on the command line (files or directories),
extracts inline links and images, and verifies that every *relative* target
exists on disk (including `#fragment` heading anchors within markdown
targets). External http(s)/mailto links are only syntax-checked — CI must
not depend on the network.

A second mode audits the CLI flag documentation:

  tools/check_links.py --flags src/cli/cli.cpp README.md docs/OBSERVABILITY.md

parses the Args accessor calls in cli.cpp (the set of flags the binary
actually understands) and fails when

  * a doc or the usage() text mentions a `--flag` the parser never reads
    (documented-but-not-registered), or
  * a registered flag is missing from the usage() text or from every given
    doc (registered-but-not-documented).

Flags of external tools that legitimately appear in the docs (ctest,
cmake, the bench harness, check_bench.py) are listed in EXTERNAL_FLAGS.

Exit status: 0 when every check passes, 1 otherwise.
Usage: tools/check_links.py README.md DESIGN.md docs/
       tools/check_links.py --flags CLI.cpp DOC.md [DOC.md ...]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)

# Args accessor calls in cli.cpp: .get("roi", ...), .require("out"), ...
FLAG_CALL_RE = re.compile(
    r'\.(?:get|get_int|get_int_list|get_vec4|require|has|choice)\(\s*"([a-z][a-z0-9-]*)"')
# A --flag token anywhere (usage text, doc prose, code blocks, tables).
FLAG_TOKEN_RE = re.compile(r"--([a-z][a-z0-9-]*)")

# Non-h4d flags the docs may mention: build tooling and repo scripts.
EXTERNAL_FLAGS = {
    "build", "test-dir", "output-on-failure",         # cmake / ctest
    "full",                                           # bench harness env alias
    "flags", "merge", "fresh", "regression-factor",   # tools/check_*.py
    "json-file",                                      # google-benchmark
}


def heading_anchor(text: str) -> str:
    """GitHub-style anchor: lowercase, spaces to dashes, drop punctuation.

    Underscores survive (GitHub's slugger keeps them — `fast_log` anchors
    as fast_log); the other markdown formatting characters are stripped.
    """
    text = re.sub(r"[`*~\[\]()]", "", text.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(md_file: Path) -> set[str]:
    text = md_file.read_text(encoding="utf-8", errors="replace")
    text = CODE_FENCE_RE.sub("", text)
    anchors = set()
    for m in HEADING_RE.finditer(text):
        base = heading_anchor(m.group(1))
        n = 1
        a = base
        while a in anchors:  # duplicate headings get -1, -2, ... suffixes
            a = f"{base}-{n}"
            n += 1
        anchors.add(a)
    return anchors


def collect_files(args: list[str]) -> list[Path]:
    files: list[Path] = []
    for a in args:
        p = Path(a)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.md")))
        elif p.suffix == ".md":
            files.append(p)
        else:
            print(f"warning: skipping non-markdown argument {a}", file=sys.stderr)
    return files


def check_flags(argv: list[str]) -> int:
    if len(argv) < 2 or not argv[0].endswith(".cpp"):
        print("error: --flags needs CLI.cpp and at least one DOC.md",
              file=sys.stderr)
        return 2
    cli_path, doc_paths = Path(argv[0]), argv[1:]
    cli_text = cli_path.read_text(encoding="utf-8", errors="replace")
    registered = set(FLAG_CALL_RE.findall(cli_text))
    # Only string literals count as "mentions" — comments describing the
    # parser (e.g. "--key value pairs") are not help text.
    literals = "\n".join(re.findall(r'"((?:[^"\\]|\\.)*)"', cli_text))
    usage_mentions = set(FLAG_TOKEN_RE.findall(literals))

    errors = 0
    for f in sorted(usage_mentions - registered):
        print(f"{cli_path}: usage/help mentions --{f} but no Args accessor "
              f"reads it")
        errors += 1
    for f in sorted(registered - usage_mentions):
        print(f"{cli_path}: flag --{f} is parsed but absent from the usage() "
              f"text")
        errors += 1

    doc_mentions: dict[str, set[str]] = {}
    for dp in doc_paths:
        text = Path(dp).read_text(encoding="utf-8", errors="replace")
        doc_mentions[dp] = set(FLAG_TOKEN_RE.findall(text))
    documented = set().union(*doc_mentions.values())
    for dp, flags in sorted(doc_mentions.items()):
        for f in sorted(flags - registered - EXTERNAL_FLAGS):
            print(f"{dp}: documents --{f}, which cli.cpp does not register")
            errors += 1
    for f in sorted(registered - documented):
        print(f"flag --{f} is registered in {cli_path} but documented in "
              f"none of: {' '.join(doc_paths)}")
        errors += 1

    print(f"check_links --flags: {len(registered)} registered flags, "
          f"{len(documented & registered)} documented, {errors} mismatches")
    return 1 if errors else 0


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "--flags":
        return check_flags(argv[1:])
    files = collect_files(argv)
    if not files:
        print("error: no markdown files found", file=sys.stderr)
        return 2

    errors = 0
    checked = 0
    for md in files:
        text = md.read_text(encoding="utf-8", errors="replace")
        text = CODE_FENCE_RE.sub("", text)
        for m in LINK_RE.finditer(text):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue  # external: syntax-only, no network in CI
            checked += 1
            target, _, fragment = target.partition("#")
            if not target:  # same-file anchor
                dest = md
            else:
                dest = (md.parent / target).resolve()
                if not dest.exists():
                    print(f"{md}: broken link -> {m.group(1)}")
                    errors += 1
                    continue
            if fragment and dest.suffix == ".md" and dest.is_file():
                if fragment not in anchors_of(dest):
                    print(f"{md}: missing anchor -> {m.group(1)}")
                    errors += 1
    print(f"check_links: {checked} relative links in {len(files)} files, "
          f"{errors} broken")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
