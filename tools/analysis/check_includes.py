#!/usr/bin/env python3
"""Include-layering enforcement for src/ (DESIGN.md section 12).

The codebase is layered as a DAG of modules (the subdirectories of src/).
Each module may include its own headers plus the headers of the modules
listed for it in ALLOWED_DEPS — its transitive foundation. Anything else
is an upward or sideways include and fails the check, which is what keeps
"audit validates core's structures" from quietly becoming "audit and core
include each other" again (the cycle PR 7 broke by extracting src/model).

Three checks run:

  layering   Every `#include "mod/..."` in src/<m>/ has mod == m or
             mod in ALLOWED_DEPS[m]. tests/, bench/, tools/ and examples/
             sit above every module and may include anything.
  cycles     The file-level include graph over src/ is acyclic (a module
             DAG can still hide a header cycle inside one module).
  stale      Every module named in ALLOWED_DEPS has a src/<module>/
             directory, so a deleted module cannot leave its layer behind.

The module DAG, bottom to top (see the diagram in DESIGN.md section 12):

  util
   ├─ geom, trace
   │   ├─ viz, fermat, bench_lib
   │   └─ voronoi
   │       └─ model
   │           └─ audit
   │               └─ core   (also uses fermat)
   │                   ├─ data, storage
   │                   ├─ query (also uses fermat)
   │                   └─ serve (also uses query, storage, audit)
   └─ (tests, bench, tools, examples ride on top of everything)

Usage: python3 tools/analysis/check_includes.py [--root=REPO_ROOT]
Exits 1 on any violation, 0 when clean.
"""

import argparse
import os
import re
import sys

SRC_EXTENSIONS = (".h", ".cc", ".cpp")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# Module -> modules it may include (its direct foundation). Keep this list
# tight: every edge here is a dependency reviewers no longer get to
# question, so additions belong in the PR that needs them, with the DAG
# diagram in DESIGN.md section 12 updated to match.
ALLOWED_DEPS = {
    "util": set(),
    "geom": {"util"},
    "trace": {"util"},
    "viz": {"geom", "util"},
    "bench_lib": {"trace", "util"},
    "fermat": {"geom", "trace", "util"},
    "voronoi": {"geom", "trace", "util"},
    "model": {"geom", "util", "voronoi"},
    "audit": {"geom", "model", "util", "voronoi"},
    "core": {"audit", "fermat", "geom", "model", "trace", "util", "voronoi"},
    "query": {"core", "fermat", "geom", "model", "trace", "util"},
    "data": {"core", "geom", "model", "util"},
    "storage": {"core", "geom", "model", "util"},
    "serve": {"audit", "core", "model", "query", "storage", "trace",
              "util"},
}

# Directories whose sources sit above the whole module DAG.
TOP_DIRS = ("tests", "bench", "tools", "examples")


def iter_files(root, subdirs):
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, _, files in os.walk(base):
            for name in sorted(files):
                if name.endswith(SRC_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def includes_of(root, rel_path):
    """Quoted includes of one file, as written (repo-relative for src/)."""
    out = []
    with open(os.path.join(root, rel_path), encoding="utf-8") as f:
        for line in f:
            m = INCLUDE_RE.match(line)
            if m:
                out.append(m.group(1))
    return out


def module_of(include_path):
    """The src/ module an include target lives in, or None for non-module
    includes (system headers come in <> and never reach here; a quoted
    include without a directory is file-local)."""
    if "/" not in include_path:
        return None
    return include_path.split("/", 1)[0]


def check_layering(root):
    """Returns a list of violation strings (empty = clean)."""
    violations = []
    for rel_path in iter_files(root, ["src"]):
        parts = rel_path.split(os.sep)
        module = parts[1]
        if module not in ALLOWED_DEPS:
            violations.append(
                "%s: module '%s' is not in the layering DAG "
                "(tools/analysis/check_includes.py ALLOWED_DEPS); new "
                "modules must declare their layer" % (rel_path, module))
            continue
        allowed = ALLOWED_DEPS[module] | {module}
        for inc in includes_of(root, rel_path):
            target = module_of(inc)
            if target is None or target not in ALLOWED_DEPS:
                continue  # file-local or non-module include
            if target not in allowed:
                violations.append(
                    "%s: includes \"%s\" — module '%s' may not depend on "
                    "'%s' (upward or sideways include; layer DAG in "
                    "DESIGN.md section 12)" % (rel_path, inc, module, target))
    return violations


def check_cycles(root):
    """Returns a list of cycle descriptions in the src/ header graph."""
    graph = {}
    for rel_path in iter_files(root, ["src"]):
        if not rel_path.endswith(".h"):
            continue
        key = rel_path[len("src/"):]
        graph[key] = [inc for inc in includes_of(root, rel_path)
                      if module_of(inc) in ALLOWED_DEPS]

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {k: WHITE for k in graph}
    cycles = []

    def dfs(node, stack):
        color[node] = GRAY
        stack.append(node)
        for nxt in graph.get(node, ()):
            if nxt not in graph:
                continue
            if color[nxt] == GRAY:
                cycle = stack[stack.index(nxt):] + [nxt]
                cycles.append(" -> ".join(cycle))
            elif color[nxt] == WHITE:
                dfs(nxt, stack)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node, [])
    return cycles


def check_dag_config():
    """Sanity-checks ALLOWED_DEPS itself: the declared module graph must be
    acyclic and closed (every named dependency is a declared module)."""
    problems = []
    for mod, deps in sorted(ALLOWED_DEPS.items()):
        for d in sorted(deps):
            if d not in ALLOWED_DEPS:
                problems.append(
                    "ALLOWED_DEPS[%r] names unknown module %r" % (mod, d))
    # Kahn's algorithm over the declared edges.
    indeg = {m: 0 for m in ALLOWED_DEPS}
    for deps in ALLOWED_DEPS.values():
        for d in deps:
            if d in indeg:
                indeg[d] += 1
    queue = sorted(m for m, n in indeg.items() if n == 0)
    seen = 0
    while queue:
        m = queue.pop()
        seen += 1
        for d in sorted(ALLOWED_DEPS[m]):
            if d not in indeg:
                continue
            indeg[d] -= 1
            if indeg[d] == 0:
                queue.append(d)
    if seen != len(ALLOWED_DEPS):
        problems.append("ALLOWED_DEPS contains a cycle — the layering "
                        "config itself must be a DAG")
    return problems


def check_stale_layers(root):
    """Returns one problem per ALLOWED_DEPS module with no src/ directory."""
    return ["ALLOWED_DEPS names module %r, but src/%s/ does not exist; "
            "drop its layer" % (mod, mod)
            for mod in sorted(ALLOWED_DEPS)
            if not os.path.isdir(os.path.join(root, "src", mod))]


def run_checks(root):
    """All include checks. Returns a flat list of violation strings."""
    return (check_dag_config() + check_layering(root) + check_cycles(root)
            + check_stale_layers(root))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: grandparent of this "
                             "script)")
    args = parser.parse_args()
    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))

    violations = run_checks(root)
    for v in violations:
        print(v)
    if violations:
        print("\ncheck_includes: %d violation(s)" % len(violations))
        return 1
    print("check_includes: clean (%d modules in the layering DAG)"
          % len(ALLOWED_DEPS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
