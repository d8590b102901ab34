#!/usr/bin/env python3
"""Doc hygiene: every relative markdown link and referenced repo path in
tracked *.md files must resolve.

Two classes of reference are checked:

1. Markdown links/images `[text](target)` whose target is relative (no
   scheme, not an absolute URL). The target is resolved against the file's
   directory and must exist; `#anchor` suffixes are stripped, pure-anchor
   links are skipped.

2. Backtick-quoted repo paths like `src/session/hub_forwarder.cc` or
   `docs/ARCHITECTURE.md`. Only tokens that are unambiguously meant to be
   repository paths are checked: they must start with a known top-level
   directory (src/, tests/, bench/, docs/, examples/, scripts/, .github/)
   or be a top-level *.md name, and may use `*` globs (e.g.
   `src/video/quality.*` must match at least one file). Like a link, the
   path may be relative to the markdown file's own directory (perfbench's
   README names `src/assembly.cc`, i.e. perfbench/src/assembly.cc); it
   is accepted if it resolves there or at the repo root. Build outputs,
   env-var examples, and placeholder templates (`tests/<module>_test.cc`)
   are ignored.

Exit status is nonzero if any reference is broken, printing one
`file:line: message` per problem. Run from anywhere inside the repo.
"""

import glob
import os
import re
import subprocess
import sys

# Task/driver artifacts, not documentation: may cite files that do not
# exist yet (or no longer exist) by design.
SKIP_FILES = {"ISSUE.md", "CHANGES.md"}

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
CODE_RE = re.compile(r"`([^`\n]+)`")
# Top-level anchors that make a backticked token a checkable repo path.
PATH_ROOTS = ("src/", "tests/", "bench/", "docs/", "examples/", "scripts/",
              ".github/")
PATH_TOKEN_RE = re.compile(r"^[A-Za-z0-9_.*/-]+$")


def repo_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def tracked_markdown(root):
    out = subprocess.run(["git", "ls-files", "*.md"], cwd=root,
                         capture_output=True, text=True, check=True)
    return [line for line in out.stdout.splitlines() if line]


def is_external(target):
    return re.match(r"^[a-z][a-z0-9+.-]*:", target) or target.startswith("//")


def path_exists(resolved):
    """True if `resolved` exists, matches as a `*` glob, or names a module
    without its extension (`src/video/encoder` for the .h/.cc pair)."""
    if "*" in resolved:
        return bool(glob.glob(resolved))
    if os.path.exists(resolved):
        return True
    stem = os.path.basename(resolved)
    return "." not in stem and bool(glob.glob(resolved + ".*"))


def check_file(root, relpath, problems):
    path = os.path.join(root, relpath)
    base = os.path.dirname(path)
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    in_fence = False
    for lineno, line in enumerate(lines, 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            target = m.group(1).split("#", 1)[0]
            if not target or is_external(m.group(1)):
                continue
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                problems.append(f"{relpath}:{lineno}: broken link "
                                f"'{m.group(1)}' -> {resolved}")
        for m in CODE_RE.finditer(line):
            token = m.group(1).strip()
            if not PATH_TOKEN_RE.match(token):
                continue  # flags, templates, expressions — not a path
            if not (token.startswith(PATH_ROOTS) or
                    (token.endswith(".md") and "/" not in token)):
                continue
            if any(path_exists(os.path.join(b, token)) for b in (root, base)):
                continue
            what = "path glob" if "*" in token else "referenced path"
            tail = "matches nothing" if "*" in token else "does not exist"
            problems.append(f"{relpath}:{lineno}: {what} '{token}' {tail}")


def main():
    root = repo_root()
    problems = []
    files = [f for f in tracked_markdown(root)
             if os.path.basename(f) not in SKIP_FILES]
    for relpath in files:
        check_file(root, relpath, problems)
    for p in problems:
        print(p)
    print(f"checked {len(files)} markdown files: "
          f"{'OK' if not problems else f'{len(problems)} broken references'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
