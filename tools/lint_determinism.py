#!/usr/bin/env python3
"""Determinism lint for the famsim source tree.

The simulator's core contract is byte-identical output for a given
(seed, config) at any thread count. This lint statically bans the
constructs that historically break that contract, or that would:

  wall-clock            wall-clock reads (system_clock, steady_clock,
                        high_resolution_clock, gettimeofday,
                        clock_gettime, time(NULL)) anywhere in src/.
                        Host time must never feed simulated behavior;
                        the profiler's explicitly-nondeterministic
                        timing block is allowlisted.
  libc-rand             rand()/srand()/drand48()/std::random_device:
                        unseeded or global-state randomness. All
                        randomness goes through the seeded PCG32 in
                        sim/rng.hh.
  unordered-iteration   iteration (range-for / .begin/.cbegin/.rbegin)
                        over a std::unordered_map/unordered_set
                        declared in the same header/source pair.
                        Unordered iteration order is
                        implementation-defined and hash-seed
                        dependent; membership queries (find, count,
                        contains, operator[]) are fine.
  pointer-key           map/set/unordered_map/unordered_set keyed by a
                        pointer type. Pointer order (and unordered
                        pointer hashing) varies with allocation layout
                        / ASLR, so iterating such a container is
                        nondeterministic across runs.
  kernel-seam           an include of psim/parallel_sim.hh, or a call
                        of parallel() (Simulation's bound kernel),
                        anywhere in src/ outside src/psim/,
                        src/sim/simulation.* and src/arch/system.*.
                        Components reach other partitions only through
                        Simulation's send/deliver/atBarrier: psim's
                        byte-identity across thread counts holds only
                        while every cross-partition effect passes
                        through the kernel's merge order, and a
                        component that asks which kernel runs it can
                        route around it.

Allowlist: a finding is suppressed by an annotation on the same line
or the line directly above:

    // lint-allow(<rule>): <justification>

The justification is mandatory; an empty one is itself an error. Every
annotation must name the rule it suppresses.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import re
import sys
from pathlib import Path

RULES = ("wall-clock", "libc-rand", "unordered-iteration", "pointer-key",
         "kernel-seam")

ALLOW_RE = re.compile(r"lint-allow\((?P<rule>[a-z-]+)\)\s*(?::\s*(?P<why>.*?))?\s*(?:\*/)?\s*$")

# Single-line banned patterns, per rule.
LINE_PATTERNS = {
    "wall-clock": [
        re.compile(r"std::chrono::system_clock"),
        re.compile(r"std::chrono::steady_clock"),
        re.compile(r"std::chrono::high_resolution_clock"),
        re.compile(r"\bgettimeofday\s*\("),
        re.compile(r"\bclock_gettime\s*\("),
        re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
    ],
    "libc-rand": [
        re.compile(r"(?<![\w:])s?rand\s*\("),
        re.compile(r"\bdrand48\s*\("),
        re.compile(r"\b[lm]rand48\s*\("),
        re.compile(r"std::random_device"),
        re.compile(r"(?<!std::u)(?<!\w)random_device"),
    ],
}

UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set)\s*<")

# A pointer first template argument of a map/set flavor: the character
# class excludes ',' '<' '>' so only the key position can match.
POINTER_KEY_RE = re.compile(
    r"\b(?:unordered_)?(?:map|set)\s*<\s*(?:const\s+)?[\w:\s]*\*\s*[,>]")

# kernel-seam: the psim kernel header, and a call of the bound kernel.
PSIM_INCLUDE_RE = re.compile(r'#\s*include\s*["<]psim/parallel_sim\.hh[">]')
PARALLEL_CALL_RE = re.compile(r"(?:\.|->)\s*parallel\s*\(\s*\)")
# Files under src/ allowed to see the kernel: psim itself, the seam, and
# System's run, which binds it.
SEAM_OWNERS = ("psim/", "sim/simulation.", "arch/system.")


def strip_comments(lines):
    """Comment-stripped copies of @p lines (block-comment aware).

    String literals are also blanked so quoted text (diagnostic
    messages) cannot trip code patterns.
    """
    stripped = []
    in_block = False
    for line in lines:
        out = []
        i = 0
        in_string = None
        while i < len(line):
            ch = line[i]
            nxt = line[i + 1] if i + 1 < len(line) else ""
            if in_block:
                if ch == "*" and nxt == "/":
                    in_block = False
                    i += 2
                    continue
                i += 1
                continue
            if in_string:
                if ch == "\\":
                    i += 2
                    continue
                if ch == in_string:
                    in_string = None
                i += 1
                continue
            if ch in "\"'":
                in_string = ch
                out.append(ch)
                i += 1
                continue
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            out.append(ch)
            i += 1
        stripped.append("".join(out))
    return stripped


class Findings:
    def __init__(self):
        self.messages = []
        self.used_allows = set()  # (path, line_idx) of consumed allows

    def report(self, path, line_no, rule, detail):
        self.messages.append(f"{path}:{line_no}: [{rule}] {detail}")


def allow_for(raw_lines, line_idx, rule, path, findings):
    """True when line_idx (0-based) carries a valid allow for @p rule."""
    for idx in (line_idx, line_idx - 1):
        if idx < 0:
            continue
        m = ALLOW_RE.search(raw_lines[idx])
        if not m:
            continue
        if m.group("rule") != rule:
            continue
        why = (m.group("why") or "").strip()
        if not why:
            findings.report(path, idx + 1, rule,
                            "lint-allow annotation without a "
                            "justification")
            return True  # suppress the original finding; the empty
            # justification is the reported error instead
        findings.used_allows.add((str(path), idx))
        return True
    return False


def template_end(text, start):
    """Index one past the '>' matching the '<' at @p start."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def collect_unordered_names(code_text):
    """Identifiers declared with a std::unordered_{map,set} type."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code_text):
        lt = code_text.index("<", m.start())
        end = template_end(code_text, lt)
        if end < 0:
            continue
        after = code_text[end:end + 200]
        dm = re.match(r"\s*&?\s*(\w+)\s*[;={(]", after)
        if dm:
            names.add(dm.group(1))
    return names


def line_of(offsets, pos):
    """0-based line index of character offset @p pos."""
    lo, hi = 0, len(offsets) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if offsets[mid] <= pos:
            lo = mid
        else:
            hi = mid - 1
    return lo


def scan_group(paths, findings):
    """Lint one header/source group (shared unordered declarations)."""
    per_file = {}
    group_unordered = set()
    for path in paths:
        raw = path.read_text().splitlines()
        code = strip_comments(raw)
        text = "\n".join(code)
        per_file[path] = (raw, code, text)
        group_unordered |= collect_unordered_names(text)

    for path, (raw, code, text) in per_file.items():
        offsets = [0]
        for line in code:
            offsets.append(offsets[-1] + len(line) + 1)

        for rule, patterns in LINE_PATTERNS.items():
            for idx, line in enumerate(code):
                for pat in patterns:
                    if not pat.search(line):
                        continue
                    if allow_for(raw, idx, rule, path, findings):
                        break
                    findings.report(path, idx + 1, rule,
                                    f"banned pattern "
                                    f"'{pat.search(line).group(0).strip()}'")
                    break

        for m in POINTER_KEY_RE.finditer(text):
            idx = line_of(offsets, m.start())
            if allow_for(raw, idx, "pointer-key", path, findings):
                continue
            findings.report(path, idx + 1, "pointer-key",
                            f"pointer-keyed container "
                            f"'{m.group(0).strip()}'")

        for name in sorted(group_unordered):
            iter_res = [
                re.compile(r"for\s*\([^;()]*?:\s*" + re.escape(name)
                           + r"\b", re.S),
                re.compile(r"\b" + re.escape(name)
                           + r"\s*\.\s*c?r?begin\s*\("),
            ]
            for pat in iter_res:
                for m in pat.finditer(text):
                    idx = line_of(offsets, m.start())
                    if allow_for(raw, idx, "unordered-iteration", path,
                                 findings):
                        continue
                    findings.report(
                        path, idx + 1, "unordered-iteration",
                        f"iteration over unordered container '{name}'")


def check_kernel_seam(path, rel, findings):
    """Report kernel queries in a component (@p rel is src-relative)."""
    if rel.startswith(SEAM_OWNERS):
        return
    raw = path.read_text().splitlines()
    code = strip_comments(raw)
    for idx, line in enumerate(code):
        # An include's path is a string literal, which strip_comments
        # blanks: match the raw line, but only where code remains.
        if line.lstrip().startswith("#") and PSIM_INCLUDE_RE.search(raw[idx]):
            detail = "includes psim/parallel_sim.hh"
        elif PARALLEL_CALL_RE.search(line):
            detail = "asks Simulation::parallel()"
        else:
            continue
        if allow_for(raw, idx, "kernel-seam", path, findings):
            continue
        findings.report(path, idx + 1, "kernel-seam",
                        f"{detail}; reach other partitions through "
                        "Simulation's send/deliver/atBarrier")


def check_unused_allows(paths, findings):
    """Report lint-allow annotations that suppress nothing."""
    for path in paths:
        raw = path.read_text().splitlines()
        for idx, line in enumerate(raw):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            if m.group("rule") not in RULES:
                findings.report(path, idx + 1, "allowlist",
                                f"unknown rule "
                                f"'{m.group('rule')}' in lint-allow")
                continue
            key = (str(path), idx)
            # An allow on line N may cover N or N+1; it was recorded
            # under its own index when consumed.
            if key not in findings.used_allows:
                findings.report(path, idx + 1, "allowlist",
                                "lint-allow annotation matches no "
                                "finding (stale; remove it)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the checkout "
                             "containing this script)")
    args = parser.parse_args()

    src = args.root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        return 2

    files = sorted(p for p in src.rglob("*") if p.suffix in (".hh", ".cc"))
    if not files:
        print(f"error: no sources under {src}", file=sys.stderr)
        return 2

    groups = {}
    for path in files:
        groups.setdefault(path.parent / path.stem, []).append(path)

    findings = Findings()
    for _, paths in sorted(groups.items()):
        scan_group(paths, findings)
    for path in files:
        check_kernel_seam(path, path.relative_to(src).as_posix(), findings)
    check_unused_allows(files, findings)

    for message in findings.messages:
        print(message)
    if findings.messages:
        print(f"\n{len(findings.messages)} determinism finding(s); "
              "fix them or annotate with "
              "'// lint-allow(<rule>): <justification>'",
              file=sys.stderr)
        return 1
    print(f"determinism lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
