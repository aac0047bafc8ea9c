#!/usr/bin/env python3
"""llama-lint: project-specific invariant linter.

The repo's correctness rests on four hand-enforced invariants:

  1. Determinism  - results are byte-identical for any thread count.
  2. Airtime      - all instrument time is charged through the supply clock.
  3. Randomness   - all stochastic draws are seeded via common/rng or pure
                    hashes; nothing reads ambient entropy.
  4. Atomics      - relaxed memory order is reserved for stats counters.

This linter makes those invariants machine-checked with token/AST-light
rules over src/:

  wall-clock       std::chrono clocks / time() / clock() / gettimeofday /
                   clock_gettime outside the PowerSupply instrument model.
                   Wall time anywhere else bypasses the supply clock that
                   every airtime account is built on.
  rng              std::random_device, rand()/srand(), default_random_engine,
                   or an unseeded engine outside common/rng. Ambient entropy
                   breaks bit-for-bit reproducibility.
  unordered-iter   Range-for over an unordered container feeding accumulation
                   (+=, push_back, insert, min/max, ...) in the
                   deploy/track/codebook/channel paths: iteration order is
                   unspecified, so order-sensitive accumulation is
                   nondeterministic across standard libraries and hash seeds.
  relaxed-atomic   memory_order_relaxed outside the blessed stats counters
                   (metasurface/response_cache). Relaxed ordering on anything
                   load-bearing reorders in exactly the ways TSan cannot
                   always see.
  parallel-capture parallel_for with a by-reference lambda capture and no
                   adjacent per-shard ownership comment. Mutable shared
                   capture is how thread-count-dependent results happen; the
                   comment forces each site to state which slots each shard
                   owns (markers: "writes only", "own slot", "owns its",
                   "own result", "own output", "per-shard").
  serve-hot-path-blocking
                   std::mutex / condition_variable / lock adapters (or their
                   pthread equivalents) anywhere in src/serve. The serving
                   runtime's worker hot path is lock-free BY DESIGN: shards
                   exclusively own their devices' state and cross-shard
                   requests are forwarded through the MPMC queues, so a
                   blocking primitive in src/serve means the ownership
                   partition was broken somewhere.
  kernel-purity    per-cell scalar cascade calls (planned_response,
                   jones_transmission, axis_sparams/axis_transmission/
                   axis_reflection, or .response()/.transmission()/
                   .reflection() member calls) inside the kernel dir. The SoA
                   kernel layer exists to evaluate whole bias planes as
                   lanes; falling back to the scalar per-cell API inside
                   src/kernel silently reverts the hot path to O(cells) axis
                   solves and defeats vectorization. The scalar path stays
                   the golden REFERENCE, called from tests and consumers —
                   never from inside a kernel. The same patterns, except
                   .response() (the shared response engine's own API),
                   apply in the deploy dir, whose engine computes every
                   value through the kernels.

Waivers: a site silences exactly one rule with an inline comment carrying a
reason, either trailing the line or on the line directly above it:

    foo();  // llama-lint: allow(wall-clock) bench-only timing probe
    // llama-lint: allow(rng) entropy feeds a diagnostic label, not physics
    bar();

A waiver with an unknown rule name or an empty reason is itself a finding
(bad-waiver), so suppressions cannot rot silently.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

RULES = {
    "wall-clock": "wall-clock time source outside PowerSupply",
    "rng": "ambient/unseeded randomness outside common/rng",
    "unordered-iter": "unordered-container iteration feeding accumulation",
    "relaxed-atomic": "memory_order_relaxed outside blessed stats counters",
    "parallel-capture": ("by-reference parallel_for capture without an "
                         "adjacent per-shard ownership comment"),
    "serve-hot-path-blocking": ("blocking synchronization primitive inside "
                                "the lock-free src/serve worker path"),
    "kernel-purity": ("per-cell scalar cascade call inside the SoA kernel "
                      "layer"),
}

# Files (path substrings, '/'-normalized) where a rule does not apply.
# serve/clock. is the serving runtime's ONE blessed wall-clock site: request
# latency is wall time by definition, and funneling every serve-side read
# through that shim keeps the rest of src/serve accountable to the supply
# clock like everything else.
ALLOWED_PATHS = {
    "wall-clock": ("control/power_supply.", "bench_harness.h",
                   "serve/clock."),
    "rng": ("common/rng.",),
    "relaxed-atomic": ("metasurface/response_cache.",),
}

# unordered-iter only guards the consumer paths named by the invariant;
# elsewhere unordered iteration feeds no cross-thread accumulation.
UNORDERED_SCOPE = ("/deploy/", "/track/", "/codebook/", "/channel/")

WALL_CLOCK_PATTERNS = [
    re.compile(r"std::chrono::steady_clock"),
    re.compile(r"std::chrono::system_clock"),
    re.compile(r"std::chrono::high_resolution_clock"),
    re.compile(r"\bgettimeofday\s*\("),
    re.compile(r"\bclock_gettime\s*\("),
    re.compile(r"(?<![\w.>:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
    re.compile(r"(?<![\w:.>])clock\s*\(\s*\)"),
]

RNG_PATTERNS = [
    re.compile(r"std::random_device"),
    re.compile(r"(?<![\w:.])rand\s*\(\s*\)"),
    re.compile(r"\bsrand\s*\("),
    re.compile(r"std::default_random_engine"),
    # Engine declared with no seed: `std::mt19937 gen;` / `gen{}` / `gen()`.
    re.compile(r"std::(?:mt19937(?:_64)?|minstd_rand0?|ranlux\w+|knuth_b)"
               r"\s+\w+\s*(?:;|\{\s*\}|\(\s*\))"),
]

UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{]*>[&\s]+(\w+)")
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*:\s*&?(\w+(?:\.\w+|->\w+)*)\s*\)")
ACCUMULATION = re.compile(
    r"(\+=|\*=|-=|\|=|&=|\bpush_back\b|\bemplace_back\b|\binsert\b|"
    r"\bemplace\b|\bappend\b|std::min\b|std::max\b|\bmin\(|\bmax\()")

RELAXED = re.compile(r"\bmemory_order_relaxed\b")

# serve-hot-path-blocking guards every file of the serving runtime: the
# ownership partition (device d served only by shard d % n_shards) makes
# blocking primitives unnecessary, so any appearance is a design regression.
SERVE_SCOPE = ("/serve/",)
SERVE_BLOCKING_PATTERNS = [
    re.compile(r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"),
    re.compile(r"std::condition_variable(?:_any)?\b"),
    re.compile(r"std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
    re.compile(r"\bpthread_(?:mutex|cond|rwlock)\w*"),
    re.compile(r"(?:\.|->)\s*(?:try_)?lock\s*\("),
    re.compile(r"(?:\.|->)\s*unlock\s*\("),
]

# kernel-purity guards every file under a /kernel/ directory: kernels must
# consume plan/lane data, never re-enter the scalar per-cell cascade API.
# It also guards /deploy/, whose shared response engine computes every
# value through the kernels; there `.response(` is the engine's own API
# (callers ask it for responses), so only that one pattern is left out.
RESPONSE_CALL = re.compile(r"(?:\.|->)\s*response\s*\(")
KERNEL_SCALAR_PATTERNS = [
    re.compile(r"\bplanned_response\s*\("),
    re.compile(r"\bjones_transmission\s*\("),
    re.compile(r"\baxis_sparams\s*\("),
    re.compile(r"\baxis_transmission\s*\("),
    re.compile(r"\baxis_reflection\s*\("),
    RESPONSE_CALL,
    re.compile(r"(?:\.|->)\s*transmission\s*\("),
    re.compile(r"(?:\.|->)\s*reflection\s*\("),
]
KERNEL_PURITY_SCOPES = (
    ("/kernel/", KERNEL_SCALAR_PATTERNS),
    ("/deploy/", [pat for pat in KERNEL_SCALAR_PATTERNS
                  if pat is not RESPONSE_CALL]),
)

PARALLEL_FOR = re.compile(r"\bparallel_for\s*(?:<[^>]*>)?\s*\(")
BYREF_CAPTURE = re.compile(r"\[\s*&")
OWNERSHIP_MARKERS = ("writes only", "own slot", "owns its", "own result",
                     "own output", "per-shard")
OWNERSHIP_LOOKBACK = 10  # comment lines scanned above a parallel_for site

WAIVER = re.compile(r"//\s*llama-lint:\s*allow\(([^)]*)\)\s*(.*)$")

LINE_COMMENT = re.compile(r"//.*$")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_block_comments(lines: list[str]) -> list[str]:
    """Blanks /* */ comment spans (preserving line structure) so patterns
    never match commented-out code. Line comments are preserved here: the
    waiver and ownership scans read them; code scans strip them per-line."""
    out = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        while i < len(line):
            if not in_block and line.startswith("/*", i):
                in_block = True
                i += 2
            elif in_block and line.startswith("*/", i):
                in_block = False
                i += 2
            elif in_block:
                i += 1
            elif line.startswith("//", i):
                buf.append(line[i:])
                break
            else:
                buf.append(line[i])
                i += 1
        out.append("".join(buf))
    return out


def code_of(line: str) -> str:
    """The non-comment part of a line."""
    return LINE_COMMENT.sub("", line)


def comment_of(line: str) -> str:
    m = re.search(r"//(.*)$", line)
    return m.group(1) if m else ""


def parse_waivers(lines: list[str], findings: list[Finding],
                  path: Path) -> dict[int, str]:
    """Maps 1-based line number -> waived rule. A standalone waiver comment
    covers the next line; a trailing waiver covers its own line."""
    waived: dict[int, str] = {}
    for i, line in enumerate(lines, start=1):
        m = WAIVER.search(line)
        if not m:
            continue
        rule = m.group(1).strip()
        reason = m.group(2).strip()
        if rule not in RULES:
            findings.append(Finding(
                path, i, "bad-waiver",
                f"waiver names unknown rule '{rule}' "
                f"(known: {', '.join(sorted(RULES))})"))
            continue
        if not reason:
            findings.append(Finding(
                path, i, "bad-waiver",
                f"waiver for '{rule}' has no reason"))
            continue
        standalone = code_of(line).strip() == ""
        waived[i + 1 if standalone else i] = rule
    return waived


def path_allows(rule: str, norm_path: str) -> bool:
    return any(frag in norm_path for frag in ALLOWED_PATHS.get(rule, ()))


def scan_file(path: Path, extra_unordered: set[str] | None = None,
              ) -> tuple[list[Finding], set[str]]:
    """Lints one file. Returns (findings, unordered container names declared
    here) so a .cpp scan can fold in its header's member declarations."""
    try:
        raw = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError as err:
        return [Finding(path, 0, "io", str(err))], set()

    findings: list[Finding] = []
    lines = strip_block_comments(raw)
    waived = parse_waivers(lines, findings, path)
    norm = str(path).replace("\\", "/")

    unordered_names: set[str] = set(extra_unordered or ())
    for line in lines:
        code = code_of(line)
        for m in UNORDERED_DECL.finditer(code):
            unordered_names.add(m.group(1))

    def report(lineno: int, rule: str, message: str) -> None:
        if waived.get(lineno) == rule:
            return
        findings.append(Finding(path, lineno, rule, message))

    in_scope_unordered = any(frag in norm for frag in UNORDERED_SCOPE)

    for i, line in enumerate(lines, start=1):
        code = code_of(line)

        if not path_allows("wall-clock", norm):
            for pat in WALL_CLOCK_PATTERNS:
                if pat.search(code):
                    report(i, "wall-clock",
                           "wall-clock source outside PowerSupply/bench "
                           "harness; charge time through the supply clock")
                    break

        if not path_allows("rng", norm):
            for pat in RNG_PATTERNS:
                if pat.search(code):
                    report(i, "rng",
                           "ambient or unseeded randomness; draw through a "
                           "seeded common::Rng or a pure hash")
                    break

        if not path_allows("relaxed-atomic", norm) and RELAXED.search(code):
            report(i, "relaxed-atomic",
                   "memory_order_relaxed outside the blessed stats "
                   "counters; use seq_cst or bless the site with a waiver")

        for frag, patterns in KERNEL_PURITY_SCOPES:
            if frag in norm and any(pat.search(code) for pat in patterns):
                report(i, "kernel-purity",
                       "scalar per-cell cascade call inside the kernel "
                       "layer or the response engine; evaluate through the "
                       "lane kernels (axis_s_lanes / face_admittance_lanes, "
                       "TransmissionKernel / ReflectionKernel) and keep the "
                       "scalar path as the external golden reference")
                break

        if any(frag in norm for frag in SERVE_SCOPE):
            for pat in SERVE_BLOCKING_PATTERNS:
                if pat.search(code):
                    report(i, "serve-hot-path-blocking",
                           "blocking primitive in src/serve; the worker hot "
                           "path is lock-free by the shard-ownership rule "
                           "(forward cross-shard requests, never lock)")
                    break

        if in_scope_unordered and unordered_names:
            m = RANGE_FOR.search(code)
            if m:
                target = m.group(1).split(".")[0].split("->")[0]
                if target in unordered_names and _accumulates_below(lines, i):
                    report(i, "unordered-iter",
                           f"iteration over unordered container '{target}' "
                           "feeds accumulation; iterate a sorted snapshot "
                           "or an index instead")

        if PARALLEL_FOR.search(code):
            lam = _lambda_text(lines, i)
            if BYREF_CAPTURE.search(lam) and not _has_ownership_comment(
                    raw, i):
                report(i, "parallel-capture",
                       "by-reference capture into parallel_for without an "
                       "adjacent per-shard ownership comment (say which "
                       "slots each shard writes)")

    return findings, unordered_names


def _accumulates_below(lines: list[str], lineno: int, window: int = 12) -> bool:
    """True when the loop starting at `lineno` (1-based) accumulates within
    its body (approximated as the next `window` lines)."""
    for j in range(lineno - 1, min(len(lines), lineno - 1 + window)):
        if ACCUMULATION.search(code_of(lines[j])):
            return True
    return False


def _lambda_text(lines: list[str], lineno: int, window: int = 3) -> str:
    """The call site plus a couple of lines, enough to see the capture list
    of a lambda that starts on a continuation line."""
    return " ".join(code_of(l)
                    for l in lines[lineno - 1:lineno - 1 + window])


def _has_ownership_comment(raw: list[str], lineno: int) -> bool:
    lo = max(0, lineno - 1 - OWNERSHIP_LOOKBACK)
    for line in raw[lo:lineno]:
        comment = comment_of(line).lower()
        if any(marker in comment for marker in OWNERSHIP_MARKERS):
            return True
    return False


def collect_files(roots: list[str]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        p = Path(root)
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(sorted(p.rglob("*.h")))
            files.extend(sorted(p.rglob("*.cpp")))
        else:
            print(f"llama-lint: no such path: {root}", file=sys.stderr)
            sys.exit(2)
    return files


def lint_paths(roots: list[str]) -> list[Finding]:
    files = collect_files(roots)
    # Headers first, keyed by (dir, stem): a .cpp inherits its paired
    # header's unordered-container member names.
    header_decls: dict[tuple[str, str], set[str]] = {}
    findings: list[Finding] = []
    for path in [f for f in files if f.suffix == ".h"]:
        fs, names = scan_file(path)
        findings.extend(fs)
        header_decls[(str(path.parent), path.stem)] = names
    for path in [f for f in files if f.suffix == ".cpp"]:
        extra = header_decls.get((str(path.parent), path.stem))
        fs, _ = scan_file(path, extra_unordered=extra)
        findings.extend(fs)
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="llama-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule:18} {desc}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2

    findings = lint_paths(args.paths)
    for f in findings:
        print(f)
    if findings:
        print(f"llama-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
