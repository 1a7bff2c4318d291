#!/usr/bin/env python3
"""flstore_lint — domain-invariant linter for the FLStore reproduction.

Machine-checks the repo conventions that neither the compiler nor
clang-tidy can express:

  wall-clock          src/ and bench/ must not read the wall clock or libc
                      rand (system_clock, steady_clock, time(), rand(), ...)
                      outside src/common/ — results must be pure functions
                      of simulated time, or determinism tests lie.
  no-cout             src/ must not write to std::cout/std::cerr directly;
                      diagnostics go through common/log (level-gated, one
                      line per fprintf, never interleaved).
  bench-json          every bench/fig*.cpp must accept the common CLI
                      (--scale/--json/--trace) by calling bench::parse_args,
                      so CI can harvest BENCH_*.json artifacts uniformly.
  mutex-annotation    src/ outside src/common/ must not declare raw
                      std::mutex / std::shared_mutex members (use the
                      annotated flstore::Mutex shim; a read-mostly
                      structure takes its readers off the lock instead —
                      the recipe is in CONTRIBUTING.md), and every Mutex
                      member must appear in at least one thread-safety
                      annotation (GUARDED_BY / PT_GUARDED_BY / REQUIRES /
                      EXCLUDES / ACQUIRE / RELEASE) in the same file — an
                      unannotated mutex is invisible to -Wthread-safety.
  test-registration   every *_test.cpp must live under tests/ (that is the
                      tree tests/CMakeLists.txt glob-registers with ctest);
                      a test file anywhere else would build nowhere and
                      silently never run.
  baseline-artifact   every bench/baselines/*.json must name an artifact
                      some bench source actually emits (a JsonReport("x")
                      producing BENCH_x.json) — a baseline for a renamed or
                      deleted bench would gate nothing, silently.
  orphan-header       every src/**/*.hpp must be #included by at least one
                      file under src/, bench/ or examples/ other than its
                      own .cpp — a module that only its own tests reach is
                      dead code that still compiles, passes, and documents
                      itself as used.

Suppression syntax (same line or the line above the finding):

    // flstore-lint: allow(<rule>) -- <justification>

orphan-header is a whole-file rule: its allow() may sit anywhere in the
header. The justification is mandatory; an allow() without one is itself a
finding.

Usage: python3 tools/lint/flstore_lint.py [--root REPO_ROOT]
Exit status 0 = clean, 1 = findings (printed as file:line: [rule] message).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SUPPRESS_RE = re.compile(
    r"//\s*flstore-lint:\s*allow\(([a-z-]+)\)\s*(--\s*(.*))?")

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"
    r"|\bstd::time\s*\(|\brand\s*\(\s*\)|\bsrand\s*\(")

COUT_RE = re.compile(r"std::(cout|cerr)\b")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

RAW_MUTEX_RE = re.compile(r"\bstd::(shared_mutex|recursive_mutex|mutex)\b")

MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:flstore::)?Mutex\s+(\w+)\s*;")

ANNOTATION_MACROS = (
    "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES", "ACQUIRE", "RELEASE",
    "TRY_ACQUIRE", "EXCLUDES", "RETURN_CAPABILITY",
)

# The annotation layer itself declares the primitives it annotates.
SHIM_FILES = {"src/common/mutex.hpp", "src/common/thread_annotations.hpp"}


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_line_comment(line: str) -> str:
    """Drop a // comment, ignoring // inside string literals (good enough
    for this codebase: no multi-line raw strings on lint-relevant lines)."""
    out, in_str, i = [], False, 0
    while i < len(line):
        ch = line[i]
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            in_str = not in_str
        if not in_str and ch == "/" and i + 1 < len(line) and line[i + 1] == "/":
            break
        out.append(ch)
        i += 1
    return "".join(out)


def suppressed(lines: list[str], idx: int, rule: str,
               findings: list[Finding], path: str) -> bool:
    """True when line idx (0-based) carries or follows an allow(rule)."""
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = SUPPRESS_RE.search(lines[probe])
        if m and m.group(1) == rule:
            if not (m.group(3) or "").strip():
                findings.append(Finding(
                    path, probe + 1, rule,
                    "allow() without a justification — write "
                    "'// flstore-lint: allow(%s) -- <why>'" % rule))
            return True
    return False


def iter_sources(root: pathlib.Path, *subdirs: str):
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h", ".cc"):
                yield path


def check_wall_clock(root: pathlib.Path, findings: list[Finding]) -> None:
    for path in iter_sources(root, "src", "bench"):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("src/common/"):
            continue  # the one place allowed to define time utilities
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, raw in enumerate(lines):
            code = strip_line_comment(raw)
            if WALL_CLOCK_RE.search(code) and not suppressed(
                    lines, i, "wall-clock", findings, rel):
                findings.append(Finding(
                    rel, i + 1, "wall-clock",
                    "wall-clock/rand outside src/common/ breaks sim-time "
                    "determinism (pass `now` in, or use common/rng.hpp)"))


def check_no_cout(root: pathlib.Path, findings: list[Finding]) -> None:
    for path in iter_sources(root, "src"):
        rel = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, raw in enumerate(lines):
            code = strip_line_comment(raw)
            if COUT_RE.search(code) and not suppressed(
                    lines, i, "no-cout", findings, rel):
                findings.append(Finding(
                    rel, i + 1, "no-cout",
                    "library code must log via common/log.hpp, not "
                    "std::cout/std::cerr"))


def check_bench_json(root: pathlib.Path, findings: list[Finding]) -> None:
    bench = root / "bench"
    if not bench.is_dir():
        return
    sources = sorted(bench.glob("fig*.cpp")) + sorted(bench.glob("bench_*.cpp"))
    for path in sources:
        rel = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        if "parse_args" not in text:
            findings.append(Finding(
                rel, 1, "bench-json",
                "bench must call bench::parse_args(argc, argv) so "
                "--json/--scale work and CI can harvest its artifact"))


def check_mutex_annotation(root: pathlib.Path,
                           findings: list[Finding]) -> None:
    for path in iter_sources(root, "src"):
        rel = path.relative_to(root).as_posix()
        if rel in SHIM_FILES:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        text_code = "\n".join(strip_line_comment(l) for l in lines)
        in_common = rel.startswith("src/common/")
        for i, raw in enumerate(lines):
            code = strip_line_comment(raw)
            if not in_common and RAW_MUTEX_RE.search(code):
                if not suppressed(lines, i, "mutex-annotation", findings, rel):
                    findings.append(Finding(
                        rel, i + 1, "mutex-annotation",
                        "raw std::mutex is invisible to -Wthread-safety; "
                        "use flstore::Mutex (common/mutex.hpp)"))
                continue
            m = MUTEX_MEMBER_RE.match(code)
            if m:
                name = m.group(1)
                covered = any(
                    re.search(r"\b%s\s*\(\s*%s\s*[),]" % (macro,
                                                          re.escape(name)),
                              text_code)
                    for macro in ANNOTATION_MACROS)
                if not covered and not suppressed(
                        lines, i, "mutex-annotation", findings, rel):
                    findings.append(Finding(
                        rel, i + 1, "mutex-annotation",
                        f"Mutex member '{name}' appears in no thread-safety "
                        "annotation — nothing is proven about it; add "
                        "GUARDED_BY/REQUIRES/EXCLUDES or suppress with a "
                        "justification"))


def check_test_registration(root: pathlib.Path,
                            findings: list[Finding]) -> None:
    cmake = root / "tests" / "CMakeLists.txt"
    if not cmake.is_file() or "GLOB_RECURSE" not in cmake.read_text(
            encoding="utf-8"):
        findings.append(Finding(
            "tests/CMakeLists.txt", 1, "test-registration",
            "expected the GLOB_RECURSE *_test.cpp registration that feeds "
            "gtest_discover_tests"))
        return
    for path in sorted(root.rglob("*_test.cpp")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith(("build", ".")):
            continue
        if not rel.startswith("tests/"):
            findings.append(Finding(
                rel, 1, "test-registration",
                "test files must live under tests/ — anywhere else the "
                "ctest glob never sees them and they silently never run"))


def check_baseline_artifact(root: pathlib.Path,
                            findings: list[Finding]) -> None:
    baselines = root / "bench" / "baselines"
    bench = root / "bench"
    if not baselines.is_dir() or not bench.is_dir():
        return
    import json
    # Matches both the declaration form `JsonReport report("x")` and a
    # direct construction `JsonReport("x")`.
    report_re = re.compile(r'JsonReport(?:\s+\w+)?\s*\(\s*"([^"]+)"\s*\)')
    emitted = set()
    for path in sorted(bench.glob("*.cpp")):
        emitted.update(report_re.findall(path.read_text(encoding="utf-8")))
    for path in sorted(baselines.glob("*.json")):
        rel = path.relative_to(root).as_posix()
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            findings.append(Finding(
                rel, 1, "baseline-artifact", f"unparsable JSON: {exc}"))
            continue
        artifact = data.get("artifact", "")
        m = re.fullmatch(r"BENCH_(.+)\.json", artifact)
        if not m:
            findings.append(Finding(
                rel, 1, "baseline-artifact",
                f"artifact '{artifact}' does not match BENCH_<name>.json"))
            continue
        if m.group(1) not in emitted:
            findings.append(Finding(
                rel, 1, "baseline-artifact",
                f"no bench source emits JsonReport(\"{m.group(1)}\") — this "
                "baseline gates an artifact nothing produces"))


def check_orphan_header(root: pathlib.Path, findings: list[Finding]) -> None:
    src = root / "src"
    if not src.is_dir():
        return
    includers: dict[str, set[str]] = {}
    for path in iter_sources(root, "src", "bench", "examples"):
        rel = path.relative_to(root).as_posix()
        for name in INCLUDE_RE.findall(path.read_text(encoding="utf-8")):
            includers.setdefault(name, set()).add(rel)
    for path in sorted(src.rglob("*.hpp")):
        rel = path.relative_to(root).as_posix()
        own_cpp = rel[: -len(".hpp")] + ".cpp"
        name = path.relative_to(src).as_posix()  # the src/-relative include
        if includers.get(name, set()) - {own_cpp}:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        if any(suppressed(lines, i, "orphan-header", findings, rel)
               for i in range(len(lines))):
            continue
        findings.append(Finding(
            rel, 1, "orphan-header",
            "no file under src/, bench/ or examples/ includes this header "
            "(its own .cpp and tests do not count) — delete the dead "
            "module, or suppress with a justification"))


CHECKS = {
    "wall-clock": check_wall_clock,
    "no-cout": check_no_cout,
    "bench-json": check_bench_json,
    "mutex-annotation": check_mutex_annotation,
    "test-registration": check_test_registration,
    "baseline-artifact": check_baseline_artifact,
    "orphan-header": check_orphan_header,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this file)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule in CHECKS:
            print(rule)
        return 0

    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parents[2]

    findings: list[Finding] = []
    for check in CHECKS.values():
        check(root, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"\nflstore_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("flstore_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
