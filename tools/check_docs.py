#!/usr/bin/env python3
"""Documentation gate (CI: docs job).

Five checks, stdlib only:

1. README coverage — every src/<subsystem> that defines a wire or
   on-disk format (any file includes src/wire/xdr.h or mentions
   "on-disk") must carry a README.md describing it.
2. Link integrity — every relative markdown link in ARCHITECTURE.md,
   ROADMAP.md, docs/*.md, and the subsystem READMEs must resolve to a
   real file.
3. Bench coverage — every bench kind passed to bench::Report in
   bench/*.cc must have a "bench `<kind>`" section heading in
   docs/BENCH_SCHEMAS.md, which lists that bench's gates.
4. Metric coverage — every "discfs_*" metric name registered in src/
   must appear in the "## Metric families" list of src/obs/README.md,
   and every name on that list must be registered.
5. ROADMAP citations — every "ROADMAP item N" or "ROADMAP open item N"
   in ARCHITECTURE.md, docs/*.md, the subsystem READMEs and
   .claude/skills/**/*.md must name an item with a "### N." heading in
   ROADMAP.md. CHANGES.md is history, and benchmark/ changes only with
   the benchmark, so neither is checked.

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
METRIC_NAME_RE = re.compile(r'"(discfs_[a-z0-9_]+)"')
LISTED_METRIC_RE = re.compile(r"^(discfs_[a-z0-9_]+)")
CITATION_RE = re.compile(r"\bROADMAP\s+(?:open\s+)?item\s+(\d+)")
ITEM_HEADING_RE = re.compile(r"^### (\d+)\.", re.MULTILINE)


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


def registered_metrics(repo):
    """Every "discfs_*" string literal in src/ sources: the metric names."""
    names = set()
    for root, _, files in os.walk(os.path.join(repo, "src")):
        for name in files:
            if name.endswith((".h", ".cc")):
                with open(os.path.join(root, name), encoding="utf-8") as f:
                    names.update(METRIC_NAME_RE.findall(f.read()))
    return names


def listed_metrics(readme):
    """Names at the start of each line of the list's code block."""
    names = set()
    in_section = in_block = False
    with open(readme, encoding="utf-8") as f:
        for line in f:
            if line.startswith("## "):
                in_section = line.strip() == "## Metric families"
            elif in_section and line.startswith("```"):
                in_block = not in_block
            elif in_section and in_block:
                match = LISTED_METRIC_RE.match(line)
                if match:
                    names.add(match.group(1))
    return names


def check_metric_list(repo, errors):
    readme = os.path.join(repo, "src", "obs", "README.md")
    if not os.path.isfile(readme):
        errors.append("src/obs/README.md is missing")
        return
    registered = registered_metrics(repo)
    listed = listed_metrics(readme)
    for name in sorted(registered - listed):
        errors.append(f"src/obs/README.md does not list metric {name} "
                      "(registered in src/)")
    for name in sorted(listed - registered):
        errors.append(f"src/obs/README.md lists metric {name}, which "
                      "nothing in src/ registers")


def citing_docs(repo):
    """The docs whose ROADMAP citations must name a current item."""
    docs = [doc for doc in doc_files(repo)
            if os.path.basename(doc) != "ROADMAP.md"]
    for root, _, files in os.walk(os.path.join(repo, ".claude", "skills")):
        docs.extend(os.path.join(root, name) for name in sorted(files)
                    if name.endswith(".md"))
    return docs


def check_roadmap_citations(repo, errors):
    roadmap = os.path.join(repo, "ROADMAP.md")
    if not os.path.isfile(roadmap):
        errors.append("ROADMAP.md is missing")
        return
    with open(roadmap, encoding="utf-8") as f:
        items = set(ITEM_HEADING_RE.findall(f.read()))
    for doc in citing_docs(repo):
        rel_doc = os.path.relpath(doc, repo)
        with open(doc, encoding="utf-8") as f:
            text = f.read()
        for match in CITATION_RE.finditer(text):
            if match.group(1) not in items:
                line = text.count("\n", 0, match.start()) + 1
                errors.append(
                    f"{rel_doc}:{line}: cites ROADMAP item "
                    f"{match.group(1)}, but ROADMAP.md has no "
                    f"'### {match.group(1)}.' heading")


def main(argv):
    repo = os.path.abspath(argv[1]) if len(argv) > 1 else os.path.abspath(
        os.path.join(os.path.dirname(__file__), ".."))
    errors = []
    check_readme_coverage(repo, errors)
    check_links(repo, errors)
    check_bench_sections(repo, errors)
    check_metric_list(repo, errors)
    check_roadmap_citations(repo, errors)
    if errors:
        print("check_docs.py: FAIL")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("check_docs.py: ok (readme coverage, links, bench sections, "
          "metric list, roadmap citations)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
