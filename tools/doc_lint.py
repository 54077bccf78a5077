#!/usr/bin/env python3
"""Doc lint: keep README.md and docs/ honest against the source tree.

Checks, over every tracked markdown file:

  1. Knob existence — every `MFTI_*` token documented in markdown must
     appear in the source tree (C++ `util::env_knob` or getenv, CMakeLists
     option, or CI workflow), and vice versa: every `MFTI_*` knob the
     source reads must be documented somewhere in markdown.
  2. CLI flags — every backticked `--flag` in markdown must appear in
     the repo's own sources/scripts (small allowlist for flags of
     external tools like cmake/ctest).
  3. Path references — every backticked repo path (starts with src/,
     docs/, tests/, examples/, bench/, tools/ or .github/) must exist.
  4. Relative links — every `[text](relative/path)` markdown link must
     resolve (anchors stripped; http(s) links skipped).

Exit 0 when clean, 1 with one line per violation otherwise. No
dependencies beyond the standard library; CI runs it as the doc-lint
job.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Flags that belong to external tools and are legitimately documented
# without appearing in this repo's sources.
EXTERNAL_FLAGS = {
    "--output-on-failure",  # ctest
    "--build",              # cmake
    "--dry-run",            # clang-format
    "--Werror",             # clang-format
}

# MFTI_* tokens that are build-system cache variables, consumed by name
# in CMakeLists.txt rather than via getenv.
MD_GLOBS = ["README.md", "docs/*.md"]
SOURCE_GLOBS = [
    "src/**/*.cpp", "src/**/*.hpp", "bench/**/*.cpp", "bench/**/*.hpp",
    "bench/**/*.py", "tests/**/*.cpp", "examples/**/*.cpp",
    "tools/**/*.py", "tools/**/*.cpp", "CMakeLists.txt",
    ".github/workflows/*.yml",
]
PATH_PREFIXES = ("src/", "docs/", "tests/", "examples/", "bench/",
                 "tools/", ".github/")

KNOB_RE = re.compile(r"\bMFTI_[A-Z][A-Z0-9_]+\b")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
FLAG_RE = re.compile(r"^--[A-Za-z][A-Za-z0-9-]*")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^\s*```")


def files(globs):
    out = []
    for pattern in globs:
        out.extend(p for p in sorted(REPO.glob(pattern)) if p.is_file())
    return out


def read(path):
    return path.read_text(encoding="utf-8", errors="replace")


def markdown_lines(path):
    """(lineno, line, in_fence) triples so checks can skip code fences
    when needed (links) or include them (knobs, paths)."""
    in_fence = False
    for lineno, line in enumerate(read(path).splitlines(), 1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        yield lineno, line, in_fence


def main():
    errors = []
    md_files = files(MD_GLOBS)
    src_files = files(SOURCE_GLOBS)
    if not md_files:
        print("doc_lint: no markdown files found", file=sys.stderr)
        return 1
    source_blob = "\n".join(read(p) for p in src_files)
    md_blob = "\n".join(read(p) for p in md_files)

    # Paths that exist only after a build/bench run; documented as
    # workflow artifacts, not repo contents.
    tracked = set(
        subprocess.run(["git", "ls-files"], cwd=REPO, capture_output=True,
                       text=True, check=True).stdout.splitlines())

    # --- 1. knobs: markdown <-> source, both directions ----------------------
    # Forward: anything documented must exist somewhere in the tree.
    # Reverse: only *user-facing* knobs — env vars actually read and CMake
    # options/cache variables — must be documented; internal CMake lists
    # and macros (MFTI_SOURCES, MFTI_AVX2_FN, ...) are implementation.
    documented = set(KNOB_RE.findall(md_blob))
    in_source = set(KNOB_RE.findall(source_blob))
    user_facing = set()
    for pat in (
            r'env_knob\(\s*"(MFTI_[A-Z0-9_]+)"',            # C++ knobs
            r'getenv\(\s*"(MFTI_[A-Z0-9_]+)"',              # C++
            r'environ(?:\.get)?[\(\[]\s*["\'](MFTI_[A-Z0-9_]+)',  # python
            r'option\(\s*(MFTI_[A-Z0-9_]+)',                # CMake option
            r'set\(\s*(MFTI_[A-Z0-9_]+)[^)]*\bCACHE\b',     # CMake cache var
    ):
        user_facing.update(re.findall(pat, source_blob))
    for knob in sorted(documented - in_source):
        errors.append(f"knob `{knob}` is documented but nothing in the "
                      f"source tree defines or reads it")
    for knob in sorted(user_facing - documented):
        errors.append(f"user-facing knob `{knob}` exists in the source "
                      f"tree but no markdown documents it")

    for md in md_files:
        rel = md.relative_to(REPO)
        for lineno, line, in_fence in markdown_lines(md):
            spans = CODE_SPAN_RE.findall(line)
            if in_fence:
                spans.append(line)  # check paths/flags inside fences too

            for span in spans:
                for token in span.split():
                    # --- 2. CLI flags --------------------------------------
                    flag = FLAG_RE.match(token)
                    if flag and flag.group(0) not in EXTERNAL_FLAGS:
                        if flag.group(0) not in source_blob:
                            errors.append(
                                f"{rel}:{lineno}: flag `{flag.group(0)}` "
                                f"not found in the source tree")
                    # --- 3. repo paths -------------------------------------
                    candidate = token.rstrip(".,;:)")
                    if candidate.startswith(PATH_PREFIXES) and \
                            "*" not in candidate and \
                            "<" not in candidate:
                        target = candidate.split("#")[0].rstrip("/")
                        if target and not (REPO / target).exists() and \
                                target not in tracked:
                            errors.append(
                                f"{rel}:{lineno}: path `{candidate}` does "
                                f"not exist in the repo")

            # --- 4. relative links (prose only) ----------------------------
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                plain = target.split("#")[0]
                if not plain:
                    continue  # same-file anchor
                resolved = (md.parent / plain).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{rel}:{lineno}: link target `{target}` does "
                        f"not resolve")

    for err in errors:
        print(f"doc_lint: {err}")
    if errors:
        print(f"doc_lint: {len(errors)} problem(s)")
        return 1
    print(f"doc_lint: OK ({len(md_files)} markdown files, "
          f"{len(documented)} knobs cross-checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
