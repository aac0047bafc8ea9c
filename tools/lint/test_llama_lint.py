#!/usr/bin/env python3
"""Self-test for llama_lint.py against the seeded fixtures.

Checks, per the lint contract:
  - every line marked `expect-lint: <rule>` in fixtures/violations and
    fixtures/waivers is flagged with exactly that rule,
  - no unmarked line is flagged (no false positives inside fixtures),
  - every file under fixtures/clean produces zero findings,
  - a well-formed waiver suppresses exactly one rule at one site
    (fixtures/waivers/waived_ok.cpp -> zero findings),
  - a reason-less waiver is a bad-waiver finding and the waived rule still
    fires (fixtures/waivers/waived_no_reason.cpp, hardcoded expectations),
  - kernel-purity covers the deploy dir without flagging the response
    engine's own `.response(` API
    (fixtures/violations/deploy/scalar_miss_loop.cpp).

Exit status: 0 on success, 1 on any mismatch.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import llama_lint  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"
EXPECT = re.compile(r"expect-lint:\s*([\w-]+)")


def expected_findings(path: Path) -> set[tuple[int, str]]:
    expect: set[tuple[int, str]] = set()
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        for rule in EXPECT.findall(line):
            expect.add((lineno, rule))
    return expect


def actual_findings(path: Path) -> set[tuple[int, str]]:
    return {(f.line, f.rule) for f in llama_lint.lint_paths([str(path)])}


def check_marked(path: Path, failures: list[str]) -> None:
    expect = expected_findings(path)
    actual = actual_findings(path)
    for miss in sorted(expect - actual):
        failures.append(f"{path.name}:{miss[0]}: seeded [{miss[1]}] "
                        "violation was NOT flagged")
    for extra in sorted(actual - expect):
        failures.append(f"{path.name}:{extra[0]}: unexpected [{extra[1]}] "
                        "finding")


def main() -> int:
    failures: list[str] = []

    violation_files = sorted((FIXTURES / "violations").rglob("*.cpp"))
    clean_files = sorted((FIXTURES / "clean").rglob("*.cpp"))
    assert violation_files, "no violation fixtures found"
    assert clean_files, "no clean fixtures found"

    for path in violation_files:
        expect = expected_findings(path)
        if not expect:
            failures.append(f"{path.name}: violation fixture has no "
                            "expect-lint markers")
        check_marked(path, failures)

    for path in clean_files:
        for lineno, rule in sorted(actual_findings(path)):
            failures.append(f"{path.name}:{lineno}: clean fixture flagged "
                            f"[{rule}]")

    # Well-formed waivers silence exactly their rule at their site.
    check_marked(FIXTURES / "waivers" / "waived_ok.cpp", failures)
    # Malformed waivers: unknown rule / cross-rule on one line.
    check_marked(FIXTURES / "waivers" / "waived_bad.cpp", failures)

    # Reason-less waiver: bad-waiver at the waiver line (9), and the
    # wall-clock violation on the next line (10) still fires.
    no_reason = FIXTURES / "waivers" / "waived_no_reason.cpp"
    actual = actual_findings(no_reason)
    expected = {(9, "bad-waiver"), (10, "wall-clock")}
    if actual != expected:
        failures.append(f"{no_reason.name}: expected {sorted(expected)}, "
                        f"got {sorted(actual)}")

    # kernel-purity in the deploy dir: the seeded scalar cascade calls fire
    # (checked above), but `.response(` (the shared response engine's own
    # API) does not.
    deploy_fixture = FIXTURES / "violations" / "deploy" / "scalar_miss_loop.cpp"
    deploy_lines = deploy_fixture.read_text(encoding="utf-8").splitlines()
    response_line = next(n for n, line in enumerate(deploy_lines, start=1)
                         if "engine.response(" in line)
    if any(line == response_line for line, _ in
           actual_findings(deploy_fixture)):
        failures.append(f"{deploy_fixture.name}:{response_line}: the engine's "
                        "own .response( call was flagged in the deploy dir")

    # Every rule must be exercised by at least one seeded violation.
    seeded_rules = set()
    for path in violation_files:
        seeded_rules |= {rule for _, rule in expected_findings(path)}
    for rule in llama_lint.RULES:
        if rule not in seeded_rules:
            failures.append(f"rule [{rule}] has no seeded violation fixture")

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}")
        print(f"llama-lint self-test: {len(failures)} failure(s)")
        return 1
    n_files = len(violation_files) + len(clean_files) + 3
    print(f"llama-lint self-test: OK ({n_files} fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
