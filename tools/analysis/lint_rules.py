"""Rule engine for the MOVD repo lint (tools/lint_movd.py).

The rules and their rationale are documented in lint_movd.py's module
docstring and DESIGN.md section 7; this module holds the implementation so
the checkers are importable — by the lint CLI, by the fixture-driven unit
tests (test_analysis.py), and by any future aggregate driver.
"""


import argparse
import os
import re
import sys

SRC_EXTENSIONS = (".h", ".cc", ".cpp")

# float-eq: ==/!= against a floating-point literal. Integer literals (no
# decimal point / exponent) do not match, so `count != 0` stays legal.
FLOAT_LITERAL = r"[-+]?(?:\d+\.\d*|\.\d+|\d+[eE][-+]?\d+|\d+\.\d*[eE][-+]?\d+)[fL]?"
FLOAT_EQ_RE = re.compile(
    r"(?:[!=]=\s*%s)|(?:%s\s*[!=]=)" % (FLOAT_LITERAL, FLOAT_LITERAL))
FLOAT_EQ_EXEMPT_FILES = (
    "src/geom/predicates.h", "src/geom/predicates.cc",
    "src/geom/expansion.h", "src/geom/expansion.cc",
)
FLOAT_EQ_EXEMPT_CALLS = ("Orient2D(", "InCircle(")

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;=]*>\s+(\w+)\s*[;({=]")
# float-sort: every standard ordering algorithm, partial ones included —
# partial_sort, nth_element and sort_heap order ties just as
# implementation-defined.
SORT_RE = re.compile(
    r"std::(?:ranges::)?(?:sort|stable_sort|partial_sort|partial_sort_copy"
    r"|nth_element|sort_heap)\s*\(")
ABORT_RE = re.compile(r"(?<![\w.])(?:std::)?(?:abort|exit)\s*\(")
TODO_RE = re.compile(r"//.*\b(TODO|FIXME|XXX|HACK)\b")
RAW_CHRONO_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock|Clock)\s*::\s*"
    r"now\s*\(")
# bench-printf: stdout writers. fprintf is only flagged when aimed at
# stdout; snprintf (buffer formatting) never matches.
BENCH_PRINTF_RE = re.compile(
    r"(?<![\w.])(?:std::)?(?:printf\s*\(|puts\s*\(|fprintf\s*\(\s*stdout\b)"
    r"|std::cout\b")

# weighted-direct: construction backends reachable only via the
# BuildWeightedCells dispatch. The dispatch and the backends' own homes are
# exempt (declaration + definition sites).
WEIGHTED_DIRECT_RE = re.compile(
    r"\b(?:ApproximateWeightedVoronoi|AdaptiveWeightedVoronoi)\s*\(")
WEIGHTED_DIRECT_EXEMPT_FILES = (
    "src/voronoi/weighted.h",
    "src/voronoi/weighted.cc",
    "src/voronoi/weighted_adaptive.cc",
)

# entry-check-msg: (file-suffix, function) pairs; the definition must call
# MOVD_CHECK_MSG within its first 15 lines.
ENTRY_POINTS = [
    ("src/core/molq.cc", "Movd BuildBasicMovd"),
    ("src/core/molq.cc", "MolqResult SolveMolq"),
    ("src/core/ssc.cc", "OptimizerResult SolveSsc"),
    ("src/core/optimizer.cc", "OptimizerResult OptimizeMovd"),
    ("src/core/overlap.cc", "Movd OverlapAll"),
    ("src/fermat/fermat_weber.cc", "FermatWeberResult SolveFermatWeber"),
    ("src/core/topk.cc", "MolqResult TopKFromMovd"),
    ("src/fermat/batch.cc", "BatchResult ScanBestK"),
    ("src/fermat/batch.cc", "BatchResult SolveFermatWeberBatch"),
    ("src/voronoi/weighted.cc",
     "std::vector<WeightedCellApprox> ApproximateWeightedVoronoi"),
    ("src/voronoi/weighted.cc",
     "std::vector<WeightedCellApprox> BuildWeightedCells"),
    ("src/voronoi/weighted_adaptive.cc",
     "std::vector<WeightedCellApprox> AdaptiveWeightedVoronoi"),
    ("src/geom/gridcontour.cc", "std::vector<Polygon> ExtractOuterContours"),
    ("src/query/candidates.cc", "StatusCode EnumerateCandidates"),
    ("src/query/skyline.cc", "SkylineResult SkylineFromMovd"),
    ("src/query/diversify.cc", "DiverseTopKResult DiverseTopKFromMovd"),
    ("src/query/constrained.cc",
     "ConstrainedMolqResult ConstrainedFromClippedMovd"),
    ("src/query/constrained.cc",
     "ConstrainedMolqResult ConstrainedMolqFromMovd"),
    ("src/query/whatif.cc", "WhatIfSweepResult WhatIfSweepFromMovd"),
]


class Finding:
    def __init__(self, rule, path, line_no, line, message):
        self.rule = rule
        self.path = path
        self.line_no = line_no
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s\n    %s" % (
            self.path, self.line_no, self.rule, self.message,
            self.line.strip())


def load_allowlist(root):
    entries = []
    path = os.path.join(root, "tools", "lint_allowlist.txt")
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("|")
            if len(parts) != 3:
                print("lint_allowlist.txt: malformed entry: %s" % raw.strip(),
                      file=sys.stderr)
                sys.exit(2)
            entries.append(tuple(p.strip() for p in parts))
    return entries


def allowed(finding, allowlist, used):
    for idx, (rule, path_suffix, substring) in enumerate(allowlist):
        if (finding.rule == rule and finding.path.endswith(path_suffix)
                and substring in finding.line):
            used.add(idx)
            return True
    return False


def strip_comments_and_strings(line, in_block_comment):
    """Returns (code-only text, still-in-block-comment). Keeps columns by
    replacing stripped characters with spaces, so regex positions hold."""
    out = []
    i, n = 0, len(line)
    state = "block" if in_block_comment else "code"
    quote = ""
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "block":
            if c == "*" and nxt == "/":
                out.append("  ")
                i += 2
                state = "code"
                continue
            out.append(" ")
            i += 1
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                out.append(c)
                i += 1
                state = "code"
                continue
            out.append(" ")
            i += 1
        else:
            if c == "/" and nxt == "/":
                out.append(" " * (n - i))
                break
            if c == "/" and nxt == "*":
                out.append("  ")
                i += 2
                state = "block"
                continue
            if c in "\"'":
                out.append(c)
                quote = c
                i += 1
                state = "string"
                continue
            out.append(c)
            i += 1
    return "".join(out), state == "block"


# The analysis fixtures are deliberately-violating snippets (each rule's
# positive test case); linting them would flag every one.
SKIP_DIR_SUFFIXES = (os.path.join("tools", "analysis", "fixtures"),)


def iter_source_files(root, subdirs):
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, _, files in os.walk(base):
            if any(dirpath.endswith(sfx) for sfx in SKIP_DIR_SUFFIXES):
                continue
            for name in sorted(files):
                if name.endswith(SRC_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def lint_file(root, rel_path, findings):
    with open(os.path.join(root, rel_path), encoding="utf-8") as f:
        raw_lines = f.read().splitlines()

    code_lines = []
    in_block = False
    for line in raw_lines:
        code, in_block = strip_comments_and_strings(line, in_block)
        code_lines.append(code)

    in_src = rel_path.startswith("src/")
    in_bench = rel_path.startswith("bench/")

    if in_bench:
        for i, code in enumerate(code_lines, 1):
            if BENCH_PRINTF_RE.search(code):
                findings.append(Finding(
                    "bench-printf", rel_path, i, raw_lines[i - 1],
                    "stdout printing in bench/; report through the harness "
                    "(bench_lib) so tables and BENCH_*.json stay in sync"))

    # weighted-direct runs everywhere the linter looks, not just src/: a
    # test or tool bypassing the dispatch is exactly the drift the rule
    # exists to stop.
    if not any(rel_path.endswith(p) for p in WEIGHTED_DIRECT_EXEMPT_FILES):
        for i, code in enumerate(code_lines, 1):
            if WEIGHTED_DIRECT_RE.search(code):
                findings.append(Finding(
                    "weighted-direct", rel_path, i, raw_lines[i - 1],
                    "direct weighted-Voronoi backend call; route through "
                    "BuildWeightedCells (WeightedOptions dispatch)"))

    # untracked-todo runs on raw lines (markers live in comments).
    for i, line in enumerate(raw_lines, 1):
        m = TODO_RE.search(line)
        if m and "DESIGN.md" not in line:
            findings.append(Finding(
                "untracked-todo", rel_path, i, line,
                "%s marker without a DESIGN.md reference" % m.group(1)))

    if not in_src:
        return

    float_eq_exempt = any(rel_path.endswith(p) for p in FLOAT_EQ_EXEMPT_FILES)
    unordered_names = set()
    for code in code_lines:
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))

    for i, code in enumerate(code_lines, 1):
        raw = raw_lines[i - 1]

        if not float_eq_exempt and FLOAT_EQ_RE.search(code):
            if not any(call in code for call in FLOAT_EQ_EXEMPT_CALLS):
                findings.append(Finding(
                    "float-eq", rel_path, i, raw,
                    "floating-point ==/!= outside the exact-predicate "
                    "kernels"))

        for name in unordered_names:
            if re.search(r"for\s*\([^)]*:\s*%s\s*\)" % re.escape(name), code) \
                    or re.search(r"\b%s\s*\.\s*begin\s*\(" % re.escape(name),
                                 code):
                findings.append(Finding(
                    "unordered-iter", rel_path, i, raw,
                    "iteration over unordered container '%s' "
                    "(hash order is unspecified)" % name))

        if SORT_RE.search(code):
            findings.append(Finding(
                "float-sort", rel_path, i, raw,
                "sort call site must be vetted for deterministic ordering "
                "(allowlist it with a justification once reviewed)"))

        if ABORT_RE.search(code) and not rel_path.endswith("src/util/check.h"):
            findings.append(Finding(
                "naked-abort", rel_path, i, raw,
                "abort()/exit() outside src/util/check.h; use MOVD_CHECK"))

        if RAW_CHRONO_RE.search(code):
            findings.append(Finding(
                "raw-chrono", rel_path, i, raw,
                "raw chrono clock read; time through util/stopwatch.h "
                "(or util/cancel.h for deadlines)"))


def lint_entry_points(root, findings):
    for rel_path, signature in ENTRY_POINTS:
        path = os.path.join(root, rel_path)
        if not os.path.exists(path):
            findings.append(Finding(
                "entry-check-msg", rel_path, 0, "",
                "file with required entry point '%s' not found" % signature))
            continue
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        def_line = None
        for i, line in enumerate(lines):
            if line.startswith(signature):
                def_line = i
                break
        if def_line is None:
            findings.append(Finding(
                "entry-check-msg", rel_path, 0, "",
                "definition of '%s' not found" % signature))
            continue
        window = "\n".join(lines[def_line:def_line + 15])
        if "MOVD_CHECK_MSG(" not in window:
            findings.append(Finding(
                "entry-check-msg", rel_path, def_line + 1, lines[def_line],
                "'%s' must validate arguments with MOVD_CHECK_MSG near the "
                "top of its definition" % signature))



def run_lint(root):
    """Lints the repo rooted at `root`.

    Returns (kept, stale, suppressed): unsuppressed findings, stale
    allowlist entries, and the number of findings the allowlist absorbed.
    """
    findings = []
    for rel_path in iter_source_files(
            root, ["src", "tests", "bench", "tools", "examples"]):
        lint_file(root, rel_path, findings)
    lint_entry_points(root, findings)

    allowlist = load_allowlist(root)
    used = set()
    kept = [f for f in findings if not allowed(f, allowlist, used)]
    stale = [e for i, e in enumerate(allowlist) if i not in used]
    return kept, stale, len(findings) - len(kept)
