#!/usr/bin/env python3
"""Unit tests for the static-analysis rules (DESIGN.md section 12).

Each lint rule is exercised against positive and negative fixture snippets
(fixtures/): the positive fixture must produce exactly the expected rule's
finding, the negative fixture must stay clean. The layering and
self-containment checkers are driven against tiny synthetic repo trees, the
tracked-file guard against throwaway git repos.
Registered in ctest under the `analysis` label, so a rule regression fails
CI like a code regression.

Usage: python3 tools/analysis/test_analysis.py [-v]
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
sys.path.insert(0, HERE)

import check_includes  # noqa: E402
import check_tracked  # noqa: E402
import lint_rules  # noqa: E402


def lint_fixture(fixture, dest_rel):
    """Copies one fixture into a temp repo tree at `dest_rel` and lints it.
    Returns the list of rule names found."""
    with tempfile.TemporaryDirectory(prefix="movd_lint_") as root:
        dest = os.path.join(root, dest_rel)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        shutil.copyfile(os.path.join(FIXTURES, fixture), dest)
        findings = []
        lint_rules.lint_file(root, dest_rel, findings)
        return [f.rule for f in findings]


class LintRuleTest(unittest.TestCase):
    """Positive fixture must trigger exactly its rule; negative must not."""

    CASES = [
        # (rule, positive fixture, negative fixture, dest path)
        ("float-eq", "float_eq_bad.cc", "float_eq_ok.cc",
         "src/core/fixture.cc"),
        ("unordered-iter", "unordered_iter_bad.cc", "unordered_iter_ok.cc",
         "src/core/fixture.cc"),
        ("float-sort", "float_sort_bad.cc", None, "src/core/fixture.cc"),
        ("naked-abort", "naked_abort_bad.cc", "naked_abort_ok.cc",
         "src/core/fixture.cc"),
        ("untracked-todo", "untracked_todo_bad.cc", "untracked_todo_ok.cc",
         "src/core/fixture.cc"),
        ("raw-chrono", "raw_chrono_bad.cc", "raw_chrono_ok.cc",
         "src/core/fixture.cc"),
        ("bench-printf", "bench_printf_bad.cc", "bench_printf_ok.cc",
         "bench/fixture.cc"),
    ]

    def test_positive_fixtures_trigger(self):
        for rule, positive, _, dest in self.CASES:
            with self.subTest(rule=rule):
                self.assertEqual(lint_fixture(positive, dest), [rule])

    def test_negative_fixtures_stay_clean(self):
        for rule, _, negative, dest in self.CASES:
            if negative is None:
                continue
            with self.subTest(rule=rule):
                self.assertEqual(lint_fixture(negative, dest), [])

    def test_partial_orderings_need_vetting(self):
        self.assertEqual(
            lint_fixture("float_sort_partial_bad.cc", "src/core/fixture.cc"),
            ["float-sort"] * 3)

    def test_predicate_kernels_exempt_from_float_eq(self):
        self.assertEqual(
            lint_fixture("float_eq_predicates_ok.cc",
                         "src/geom/predicates.cc"), [])

    def test_rules_only_apply_in_their_directories(self):
        # bench-printf is a bench/ rule; the same code in tools/ is legal.
        self.assertEqual(
            lint_fixture("bench_printf_bad.cc", "tools/fixture.cc"), [])

    def test_comments_and_strings_are_stripped(self):
        with tempfile.TemporaryDirectory(prefix="movd_lint_") as root:
            rel = "src/core/fixture.cc"
            dest = os.path.join(root, rel)
            os.makedirs(os.path.dirname(dest))
            with open(dest, "w", encoding="utf-8") as f:
                f.write('// if (x == 1.0) in a comment is fine\n'
                        'const char* s = "x == 1.0 in a string is fine";\n')
            findings = []
            lint_rules.lint_file(root, rel, findings)
            self.assertEqual([f.rule for f in findings], [])


class AllowlistTest(unittest.TestCase):
    def make_root(self):
        root = tempfile.mkdtemp(prefix="movd_allow_")
        self.addCleanup(shutil.rmtree, root)
        os.makedirs(os.path.join(root, "src", "core"))
        os.makedirs(os.path.join(root, "tools"))
        shutil.copyfile(os.path.join(FIXTURES, "float_eq_bad.cc"),
                        os.path.join(root, "src", "core", "fixture.cc"))
        return root

    def write_allowlist(self, root, lines):
        with open(os.path.join(root, "tools", "lint_allowlist.txt"), "w",
                  encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    def run_lint(self, root):
        # The synthetic tree has none of the real entry-point files; keep
        # only findings from the fixture so entry-check-msg noise does not
        # leak into the assertions.
        kept, stale, _ = lint_rules.run_lint(root)
        kept = [f for f in kept if f.rule != "entry-check-msg"]
        return kept, stale

    def test_matching_entry_suppresses(self):
        root = self.make_root()
        self.write_allowlist(
            root, ["float-eq|src/core/fixture.cc|x == 1.0  # vetted"])
        kept, stale = self.run_lint(root)
        self.assertEqual([f.rule for f in kept], [])
        self.assertEqual(stale, [])

    def test_stale_entry_is_reported(self):
        root = self.make_root()
        self.write_allowlist(
            root,
            ["float-eq|src/core/fixture.cc|x == 1.0  # vetted",
             "float-eq|src/core/vanished.cc|y == 2.0  # covers nothing"])
        kept, stale = self.run_lint(root)
        self.assertEqual(kept, [])
        self.assertEqual(len(stale), 1)
        self.assertEqual(stale[0][1], "src/core/vanished.cc")


class LayeringTest(unittest.TestCase):
    def make_tree(self, files):
        """files: {rel_path: contents} under a temp root."""
        root = tempfile.mkdtemp(prefix="movd_layer_")
        self.addCleanup(shutil.rmtree, root)
        for rel, contents in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
        return root

    def test_config_is_a_dag(self):
        self.assertEqual(check_includes.check_dag_config(), [])

    def test_downward_includes_pass(self):
        root = self.make_tree({
            "src/geom/point.h": "#pragma once\n",
            "src/core/molq.h": '#include "geom/point.h"\n',
        })
        self.assertEqual(check_includes.check_layering(root), [])

    def test_upward_include_fails(self):
        root = self.make_tree({
            "src/geom/bad.h": '#include "serve/query_engine.h"\n',
        })
        violations = check_includes.check_layering(root)
        self.assertEqual(len(violations), 1)
        self.assertIn("may not depend on 'serve'", violations[0])

    def test_sideways_include_fails(self):
        root = self.make_tree({
            "src/storage/bad.h": '#include "serve/metrics.h"\n',
        })
        violations = check_includes.check_layering(root)
        self.assertEqual(len(violations), 1)

    def test_unknown_module_fails(self):
        root = self.make_tree({"src/rogue/new.h": "#pragma once\n"})
        violations = check_includes.check_layering(root)
        self.assertEqual(len(violations), 1)
        self.assertIn("not in the layering DAG", violations[0])

    def test_header_cycle_detected(self):
        root = self.make_tree({
            "src/core/a.h": '#include "core/b.h"\n',
            "src/core/b.h": '#include "core/a.h"\n',
        })
        cycles = check_includes.check_cycles(root)
        self.assertEqual(len(cycles), 1)
        self.assertIn("core/a.h", cycles[0])

    def test_repo_head_is_clean(self):
        repo_root = os.path.dirname(os.path.dirname(HERE))
        self.assertEqual(check_includes.run_checks(repo_root), [])


class ClangTidyDriverTest(unittest.TestCase):
    """Drives tools/run_clang_tidy.sh with a stub clang-tidy binary, so the
    finding normalization, baseline filtering and stale-entry rejection are
    tested even on machines without clang."""

    STUB = """#!/bin/sh
if [ "$1" = "--version" ]; then echo "stub clang-tidy 0.0"; exit 0; fi
echo "%s/src/a.cc:3:5: warning: use after move [bugprone-use-after-move]"
echo "%s/src/a.cc:9:5: warning: vetted thing [performance-for-range-copy]"
exit 0
"""

    def run_driver(self, baseline_lines):
        root = tempfile.mkdtemp(prefix="movd_tidy_")
        self.addCleanup(shutil.rmtree, root)
        os.makedirs(os.path.join(root, "src"))
        os.makedirs(os.path.join(root, "tools"))
        os.makedirs(os.path.join(root, "build"))
        with open(os.path.join(root, "src", "a.cc"), "w") as f:
            f.write("int main() { return 0; }\n")
        with open(os.path.join(root, "build", "compile_commands.json"),
                  "w") as f:
            f.write("[]\n")
        with open(os.path.join(root, "tools", "clang_tidy_baseline.txt"),
                  "w") as f:
            f.write("\n".join(baseline_lines) + "\n")
        stub = os.path.join(root, "clang-tidy-stub")
        with open(stub, "w") as f:
            f.write(self.STUB % (root, root))
        os.chmod(stub, 0o755)
        driver = os.path.join(os.path.dirname(HERE), "run_clang_tidy.sh")
        shutil.copyfile(driver, os.path.join(root, "tools",
                                             "run_clang_tidy.sh"))
        os.chmod(os.path.join(root, "tools", "run_clang_tidy.sh"), 0o755)
        env = dict(os.environ, CLANG_TIDY=stub)
        proc = subprocess.run(
            [os.path.join(root, "tools", "run_clang_tidy.sh"), "build",
             "--require"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        return proc

    def test_unsuppressed_finding_fails(self):
        proc = self.run_driver(["# empty"])
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("bugprone-use-after-move", proc.stdout)

    def test_baseline_suppresses_and_stale_fails(self):
        covered = ["bugprone-use-after-move|src/a.cc|use after move  # t",
                   "performance-for-range-copy|src/a.cc|vetted thing  # t"]
        proc = self.run_driver(covered)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("clean", proc.stdout)

        proc = self.run_driver(
            covered + ["bugprone-use-after-move|src/gone.cc|x  # stale"])
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("stale entry", proc.stdout)


class HeaderSelfContainmentTest(unittest.TestCase):
    """Drives check_headers.py against a synthetic tree (one good header,
    one that needs a type it never includes)."""

    def test_missing_include_fails_standalone_compile(self):
        cxx = shutil.which(os.environ.get("CXX", "c++"))
        if cxx is None:
            self.skipTest("no C++ compiler on PATH")
        root = tempfile.mkdtemp(prefix="movd_hdr_")
        self.addCleanup(shutil.rmtree, root)
        os.makedirs(os.path.join(root, "src", "geom"))
        with open(os.path.join(root, "src", "geom", "good.h"), "w") as f:
            f.write("#pragma once\nstruct P { double x = 0; };\n")
        with open(os.path.join(root, "src", "geom", "bad.h"), "w") as f:
            f.write("#pragma once\ninline double X(const P& p) "
                    "{ return p.x; }\n")  # P never declared here
        script = os.path.join(HERE, "check_headers.py")
        proc = subprocess.run(
            [sys.executable, script, "--root", root, "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("bad.h", proc.stdout)
        self.assertNotIn("good.h is not self-contained", proc.stdout)


class TrackedFilesTest(unittest.TestCase):
    """Drives check_tracked.py against throwaway git repos: a reference to
    a file the index lacks fails, whether git ignores it, never saw it, or
    it is gone; the allowlist absorbs known gaps and rejects stale ones."""

    def make_repo(self, files, tracked, gitignore=None):
        """files: {rel_path: contents}; `tracked` lists the ones to add."""
        if shutil.which("git") is None:
            self.skipTest("no git on PATH")
        root = tempfile.mkdtemp(prefix="movd_tracked_")
        self.addCleanup(shutil.rmtree, root)
        if gitignore is not None:
            files = dict(files, **{".gitignore": gitignore})
            tracked = list(tracked) + [".gitignore"]
        for rel, contents in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
        subprocess.run(["git", "init", "-q", root], check=True)
        subprocess.run(["git", "-C", root, "add", "-f", "--"] + list(tracked),
                       check=True)
        return root

    BASE = {
        "src/CMakeLists.txt": "add_subdirectory(core)\n",
        "src/core/CMakeLists.txt": "add_library(movd_core\n  molq.cc\n)\n",
        "src/core/molq.cc": '#include "core/molq.h"\n#include <vector>\n'
                            '#include "gtest/gtest.h"\n',
        "src/core/molq.h": "#pragma once\n",
    }

    def test_fully_tracked_tree_is_clean(self):
        root = self.make_repo(self.BASE, self.BASE.keys())
        self.assertEqual(check_tracked.run_check(root), ([], []))

    def test_ignored_cmake_source_fails(self):
        # The bug this guard exists for: a bare `core` rule for core dumps
        # also hides every new file under src/core/.
        files = dict(self.BASE, **{"src/core/update.cc": "int x;\n"})
        cmake = "add_library(movd_core\n  molq.cc\n  update.cc\n)\n"
        files["src/core/CMakeLists.txt"] = cmake
        root = self.make_repo(files, self.BASE.keys(), gitignore="core\n")
        kept, _ = check_tracked.run_check(root)
        self.assertEqual(kept, [("src/core/update.cc", "ignored",
                                 "src/core/CMakeLists.txt")])

    def test_anchored_ignore_rule_leaves_src_core_alone(self):
        files = dict(self.BASE, **{"src/core/update.cc": "int x;\n"})
        files["src/core/CMakeLists.txt"] = "add_library(c molq.cc update.cc)\n"
        root = self.make_repo(files, self.BASE.keys(),
                              gitignore="/core\ncore.[0-9]*\n")
        kept, _ = check_tracked.run_check(root)
        self.assertEqual([(p, r) for p, r, _ in kept],
                         [("src/core/update.cc", "untracked")])

    def test_missing_include_and_subdirectory_fail(self):
        files = dict(self.BASE)
        files["src/core/molq.cc"] += '#include "core/update.h"\n'
        files["src/CMakeLists.txt"] += "add_subdirectory(serve)\n"
        root = self.make_repo(files, files.keys())
        kept, _ = check_tracked.run_check(root)
        self.assertEqual([(p, r) for p, r, _ in kept],
                         [("src/core/update.h", "missing"),
                          ("src/serve/CMakeLists.txt", "missing")])

    def test_allowlist_suppresses_and_rejects_stale_entries(self):
        files = dict(self.BASE)
        files["src/core/molq.cc"] += '#include "core/update.h"\n'
        files["tools/tracked_allowlist.txt"] = (
            "src/core/update.h  # lost, to be rebuilt\n"
            "src/core/molq.h  # stale: molq.h is tracked\n")
        root = self.make_repo(files, files.keys())
        kept, stale = check_tracked.run_check(root)
        self.assertEqual(kept, [])
        self.assertEqual(stale, ["src/core/molq.h"])

    def test_repo_head_is_clean(self):
        repo_root = os.path.dirname(os.path.dirname(HERE))
        if not check_tracked.is_work_tree(repo_root):
            self.skipTest("not a git work tree")
        self.assertEqual(check_tracked.run_check(repo_root), ([], []))


if __name__ == "__main__":
    unittest.main()
