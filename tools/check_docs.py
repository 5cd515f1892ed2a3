#!/usr/bin/env python3
"""Documentation gate (CI: docs job).

Three checks, stdlib only:

1. README coverage — every src/<subsystem> that defines a wire or
   on-disk format (any file includes src/wire/xdr.h or mentions
   "on-disk") must carry a README.md describing it.
2. Link integrity — every relative markdown link in ARCHITECTURE.md,
   ROADMAP.md, docs/*.md, and the subsystem READMEs must resolve to a
   real file.
3. Bench coverage — every bench kind passed to bench::Report in
   bench/*.cc must have a "bench `<kind>`" section heading in
   docs/BENCH_SCHEMAS.md, which lists that bench's gates.

Exit non-zero with a per-finding list on any violation.

Usage: check_docs.py [repo_root]
"""

import os
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
REPORT_RE = re.compile(r'\bReport\s+\w+\(\s*"([^"]+)"')
FORMAT_MARKERS = (re.compile(r'#include\s+"src/wire/xdr\.h"'),
                  re.compile(r"on-disk", re.IGNORECASE))


def find_format_bearing_subsystems(repo):
    """src/<dir> entries whose sources serialize wire or on-disk bytes."""
    bearing = set()
    src = os.path.join(repo, "src")
    for subsys in sorted(os.listdir(src)):
        subsys_dir = os.path.join(src, subsys)
        if not os.path.isdir(subsys_dir):
            continue
        for name in os.listdir(subsys_dir):
            if not name.endswith((".h", ".cc")):
                continue
            with open(os.path.join(subsys_dir, name), encoding="utf-8") as f:
                text = f.read()
            if any(marker.search(text) for marker in FORMAT_MARKERS):
                bearing.add(subsys)
                break
    return bearing


def check_readme_coverage(repo, errors):
    for subsys in sorted(find_format_bearing_subsystems(repo)):
        readme = os.path.join(repo, "src", subsys, "README.md")
        if not os.path.isfile(readme):
            errors.append(
                f"src/{subsys}/ defines a wire/on-disk format but has no "
                "README.md documenting it"
            )


def doc_files(repo):
    docs = []
    for name in ("ARCHITECTURE.md", "ROADMAP.md", "README.md"):
        path = os.path.join(repo, name)
        if os.path.isfile(path):
            docs.append(path)
    docs_dir = os.path.join(repo, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                docs.append(os.path.join(docs_dir, name))
    src = os.path.join(repo, "src")
    for subsys in sorted(os.listdir(src)):
        path = os.path.join(src, subsys, "README.md")
        if os.path.isfile(path):
            docs.append(path)
    return docs


def check_links(repo, errors):
    for doc in doc_files(repo):
        rel_doc = os.path.relpath(doc, repo)
        with open(doc, encoding="utf-8") as f:
            text = f.read()
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(doc), target))
            if not os.path.exists(resolved):
                errors.append(f"{rel_doc}: broken link -> {match.group(1)}")


def check_bench_sections(repo, errors):
    doc_path = os.path.join(repo, "docs", "BENCH_SCHEMAS.md")
    if not os.path.isfile(doc_path):
        errors.append("docs/BENCH_SCHEMAS.md is missing")
        return
    with open(doc_path, encoding="utf-8") as f:
        headings = [line for line in f if line.startswith("#")]
    bench_dir = os.path.join(repo, "bench")
    for name in sorted(os.listdir(bench_dir)):
        if not name.endswith(".cc"):
            continue
        with open(os.path.join(bench_dir, name), encoding="utf-8") as f:
            kinds = REPORT_RE.findall(f.read())
        for kind in kinds:
            if not any(f"bench `{kind}`" in h for h in headings):
                errors.append(
                    f"docs/BENCH_SCHEMAS.md has no section for bench "
                    f"{kind!r} (reported by bench/{name})")


def main(argv):
    repo = os.path.abspath(argv[1]) if len(argv) > 1 else os.path.abspath(
        os.path.join(os.path.dirname(__file__), ".."))
    errors = []
    check_readme_coverage(repo, errors)
    check_links(repo, errors)
    check_bench_sections(repo, errors)
    if errors:
        print("check_docs.py: FAIL")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("check_docs.py: ok (readme coverage, links, bench sections)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
