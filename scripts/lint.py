#!/usr/bin/env python3
"""Repo policy lint: rules clang-tidy cannot express.

Run from anywhere; exits non-zero iff a violation is found:

    python3 scripts/lint.py [--root <repo>]

Enforced policy (see DESIGN.md "Correctness tooling & invariant policy"):

  no-exceptions   `throw` / `try` are banned in src/: every fallible
                  operation returns Status/Result (util/status.h), and the
                  build never relies on stack unwinding.
  no-naked-new    `new` / `malloc`-family calls are banned in src/ outside
                  the slab-arena machinery; ownership goes through
                  containers and std::make_unique. A deliberate exception
                  carries `// lint:allow(no-naked-new) <reason>`.
  no-ad-hoc-rng   `rand()` / `std::random_device` are banned everywhere
                  outside util/rng: benchmarks and tests must be
                  reproducible from a seed, and the library's generators
                  are deterministic by contract.
  no-cout         `std::cout` / `std::cerr` are banned in src/ library
                  code — including the serving layer (src/service/); the
                  library reports through Status and leaves I/O to callers
                  (bench/, examples/, tests/ may print).
  no-raw-sockets  raw POSIX socket/epoll/eventfd calls (socket, bind,
                  listen, accept, connect, close, epoll_*, eventfd, ...)
                  are banned everywhere except the src/service/net_io
                  wrapper pair, so fd lifetimes, EINTR handling, and
                  SIGPIPE suppression live in exactly one audited place.
                  A deliberate exception outside the wrappers carries
                  `// lint:allow(no-raw-sockets) <reason>`.
  no-raw-mmap     `mmap` / `munmap` / `madvise` and `<sys/mman.h>` are
                  banned everywhere except src/util/huge_page_allocator.h,
                  so every mapping in the tree is one the allocator made,
                  aligned, advised and unmapped in exactly one place. A
                  deliberate exception carries
                  `// lint:allow(no-raw-mmap) <reason>`.
  no-raw-intrinsics
                  x86 SIMD intrinsics (`_mm*`, `__m128/256/512` vector
                  types, `<immintrin.h>`) are banned everywhere: the tree
                  is portable C++ that one generic binary runs on any
                  x86-64 (or other) CPU, with no runtime dispatch, and
                  vectorization is left to the compiler. A deliberate
                  exception carries
                  `// lint:allow(no-raw-intrinsics) <reason>`.
  no-raw-mutex    raw standard locking primitives (`std::mutex` and
                  friends, `std::lock_guard`/`std::unique_lock`/...,
                  `std::condition_variable[_any]`, and their headers) are
                  banned everywhere except the src/util/mutex.h wrappers,
                  so every lock in the tree carries Clang thread-safety
                  capability annotations (util/thread_annotations.h) and
                  `-Wthread-safety -Werror` sees the whole locking story.
                  A deliberate exception carries
                  `// lint:allow(no-raw-mutex) <reason>`.
  header-guards   every header uses a classic include guard named
                  FLOS_<PATH>_H_ (no #pragma once), matching its path so
                  moved files cannot silently collide.

Suppression: append `// lint:allow(<rule>)` to the offending line with a
reason. Suppressions are themselves counted and printed so they stay rare.
A `lint:allow` naming an unknown rule, or one that no longer suppresses
anything on its line, is itself a violation — suppressions cannot rot.
"""

import argparse
import pathlib
import re
import sys

LIBRARY_DIRS = ("src",)
ALL_DIRS = ("src", "bench", "tests", "examples")
HEADER_DIRS = ("src", "bench", "tests", "examples")

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z0-9-]+)\)")

# Rules as (name, regex, message). Regexes run on comment/string-stripped
# lines, so identifiers inside docs or log text never trip them.
TOKEN_RULES_LIBRARY = [
    (
        "no-exceptions",
        re.compile(r"(^|[^\w])(throw|try)\s*[\s({;]"),
        "exceptions are banned in src/; return Status/Result instead",
    ),
    (
        "no-naked-new",
        re.compile(r"(^|[^\w.:])new\s+[\w:<(]|(^|[^\w])(malloc|calloc|realloc|free)\s*\("),
        "naked allocation in src/; use containers/std::make_unique (or "
        "annotate a deliberate arena/singleton with lint:allow)",
    ),
    (
        "no-cout",
        re.compile(r"std::(cout|cerr)\b"),
        "library code must not print; return Status or take a sink",
    ),
]

TOKEN_RULES_EVERYWHERE = [
    (
        "no-ad-hoc-rng",
        re.compile(r"(^|[^\w])s?rand\s*\(|std::random_device\b"),
        "ad-hoc randomness; use util/rng (seeded, reproducible)",
    ),
]

# Applied everywhere EXCEPT src/service/net_io.{h,cc}, the one audited
# home for raw fd handling. The leading [^\w.:>] keeps method calls
# (conn.close(), ::close() inside the wrappers) and std::-qualified names
# from tripping; the lowercase names match only the POSIX C API.
TOKEN_RULES_SOCKETS = [
    (
        "no-raw-sockets",
        re.compile(
            r"(^|[^\w.:>])(socket|bind|listen|accept4?|connect|setsockopt|"
            r"getsockname|epoll_create1?|epoll_ctl|epoll_wait|eventfd|"
            r"recvfrom|sendto|recv|send|close|shutdown)\s*\("
        ),
        "raw POSIX socket/fd call; go through the service/net_io wrappers "
        "(UniqueFd, ListenTcp, Epoll, WakeFd) or annotate a deliberate "
        "exception with lint:allow(no-raw-sockets)",
    ),
]


# Applied everywhere EXCEPT src/util/huge_page_allocator.h, the one header
# allowed to map memory. Catches the calls, ::-qualified or not, and the
# header include; the lookbehind keeps member functions and other
# namespaces' functions that merely share a name from tripping.
TOKEN_RULES_MMAP = [
    (
        "no-raw-mmap",
        re.compile(
            r"(?<![\w.>:])(::)?(mmap|munmap|madvise)\s*\(|"
            r"#\s*include\s*<sys/mman\.h>"
        ),
        "raw memory mapping; allocate through HugePageAllocator / "
        "HugePageVector (util/huge_page_allocator.h) or annotate a "
        "deliberate exception with lint:allow(no-raw-mmap)",
    ),
]


# Applied everywhere EXCEPT src/util/mutex.h, the one header allowed to
# touch the standard locking primitives (it wraps them with thread-safety
# capability annotations). Catches the types, the RAII lockers, the
# condition variables, and the header includes, so an unannotated lock
# cannot enter the tree — the capability analysis only proves what it can
# see. <shared_mutex> has no wrapper yet; add an annotated one to
# util/mutex.h before reaching for it.
TOKEN_RULES_MUTEX = [
    (
        "no-raw-mutex",
        re.compile(
            r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
            r"recursive_timed_mutex|shared_timed_mutex|lock_guard|"
            r"unique_lock|scoped_lock|shared_lock|condition_variable_any|"
            r"condition_variable)\b|"
            r"#\s*include\s*<(mutex|shared_mutex|condition_variable)>"
        ),
        "raw standard mutex/lock/condvar; use the annotated flos::Mutex / "
        "MutexLock / CondVar wrappers (util/mutex.h) so the Clang "
        "thread-safety analysis sees the lock, or annotate a deliberate "
        "exception with lint:allow(no-raw-mutex)",
    ),
]


# Applied everywhere. Catches the intrinsic calls, the vector types, and
# the header include, so no SIMD island can grow silently.
TOKEN_RULES_INTRINSICS = [
    (
        "no-raw-intrinsics",
        re.compile(
            r"(^|[^\w])_mm\d*_\w+\s*\(|__m(128|256|512)[a-z]*\b|"
            r"#\s*include\s*<(imm|emm|xmm|smm|avx)\w*intrin\.h>"
        ),
        "raw SIMD intrinsic; write portable C++ the compiler can "
        "vectorize, or annotate a deliberate exception with "
        "lint:allow(no-raw-intrinsics)",
    ),
]


# Every rule name a lint:allow may legitimately reference (header-guards
# deliberately absent: structural guard violations have no escape hatch).
KNOWN_RULES = frozenset(
    name
    for rules in (TOKEN_RULES_LIBRARY, TOKEN_RULES_EVERYWHERE,
                  TOKEN_RULES_SOCKETS, TOKEN_RULES_INTRINSICS,
                  TOKEN_RULES_MUTEX, TOKEN_RULES_MMAP)
    for name, _, _ in rules
)


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure so reported line numbers stay correct. Suppression comments
    are honored BEFORE stripping (see lint_file)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def expected_guard(path: pathlib.Path, root: pathlib.Path) -> str:
    rel = path.relative_to(root)
    parts = list(rel.parts)
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    return "FLOS_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_"


def check_header_guard(path, root, text, findings):
    if "#pragma once" in text:
        findings.append((path, text[: text.index("#pragma once")].count("\n") + 1,
                         "header-guards",
                         "#pragma once is banned; use a FLOS_*_H_ guard"))
    guard = expected_guard(path, root)
    ifndef = re.search(r"^#ifndef\s+(\S+)\s*$", text, re.MULTILINE)
    if ifndef is None:
        findings.append((path, 1, "header-guards", f"missing include guard {guard}"))
        return
    line = text[: ifndef.start()].count("\n") + 1
    if ifndef.group(1) != guard:
        findings.append((path, line, "header-guards",
                         f"guard {ifndef.group(1)} should be {guard}"))
        return
    if not re.search(r"^#define\s+" + re.escape(guard) + r"\s*$", text, re.MULTILINE):
        findings.append((path, line, "header-guards",
                         f"#ifndef {guard} without matching #define"))
    if not re.search(r"#endif\s*//\s*" + re.escape(guard), text):
        findings.append((path, len(text.splitlines()), "header-guards",
                         f"closing #endif should carry `// {guard}`"))


def lint_file(path, root, findings, suppressions):
    text = path.read_text(encoding="utf-8")
    raw_lines = text.splitlines()
    allow = {}  # line number -> set of rule names
    for ln, raw in enumerate(raw_lines, 1):
        for m in ALLOW_RE.finditer(raw):
            allow.setdefault(ln, set()).add(m.group(1))

    rel_root = path.relative_to(root).parts[0]
    in_library = rel_root in LIBRARY_DIRS and "util/rng" not in path.as_posix()

    rules = []
    if rel_root in LIBRARY_DIRS:
        rules += TOKEN_RULES_LIBRARY
    if "util/rng" not in path.as_posix():
        rules += TOKEN_RULES_EVERYWHERE
    if "service/net_io" not in path.as_posix():
        rules += TOKEN_RULES_SOCKETS
    rules += TOKEN_RULES_INTRINSICS
    if "util/mutex" not in path.as_posix():
        rules += TOKEN_RULES_MUTEX
    if "util/huge_page_allocator.h" not in path.as_posix():
        rules += TOKEN_RULES_MMAP

    consumed = set()  # (line, rule) pairs whose lint:allow suppressed a hit
    stripped = strip_comments_and_strings(text).splitlines()
    for ln, line in enumerate(stripped, 1):
        for name, rx, msg in rules:
            if not rx.search(line):
                continue
            if name in allow.get(ln, ()):
                consumed.add((ln, name))
                suppressions.append((path, ln, name))
                continue
            findings.append((path, ln, name, msg))

    # A suppression must name a real rule AND actually suppress something;
    # otherwise the tag is noise that would hide a future regression.
    for ln, names in sorted(allow.items()):
        for name in sorted(names):
            if name not in KNOWN_RULES:
                findings.append((path, ln, "lint-allow",
                                 f"unknown rule '{name}' in lint:allow "
                                 f"(known: {', '.join(sorted(KNOWN_RULES))})"))
            elif (ln, name) not in consumed:
                findings.append((path, ln, "lint-allow",
                                 f"stale suppression: lint:allow({name}) "
                                 "matches nothing on this line; delete it"))

    if path.suffix == ".h" and rel_root in HEADER_DIRS:
        check_header_guard(path, root, text, findings)
    return in_library


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    args = parser.parse_args()
    root = pathlib.Path(args.root) if args.root else pathlib.Path(
        __file__).resolve().parent.parent

    files = []
    for top in ALL_DIRS:
        base = root / top
        if base.is_dir():
            files += sorted(p for p in base.rglob("*")
                            if p.suffix in (".h", ".cc", ".cpp") and p.is_file())

    findings, suppressions = [], []
    for path in files:
        lint_file(path, root, findings, suppressions)

    for path, ln, name, msg in findings:
        print(f"{path.relative_to(root)}:{ln}: [{name}] {msg}")
    if suppressions:
        print(f"-- {len(suppressions)} suppression(s) in effect:")
        for path, ln, name in suppressions:
            print(f"   {path.relative_to(root)}:{ln}: lint:allow({name})")
    print(f"lint: {len(files)} files, {len(findings)} violation(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
