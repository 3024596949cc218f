#!/usr/bin/env python3
"""Dead-surface sweep: list the `pub fn`s of one crate that nothing outside it drives,
or that only tests, benches and examples drive.

Usage (from anywhere inside the repository):

    python3 tools/dead_surface.py <crate dir> <package> [--work DIR]

e.g. `dead_surface.py crates/ann reis-ann`. The sweep never edits the
repository. It copies the tree (without build output or `.git`) into
`<work>/tree`, gives the copy its own target dir `<work>/target`, and then:

1. narrows every `pub fn` under `<crate dir>/src` to `pub(crate) fn`;
2. runs `cargo check --workspace --all-targets` and the same over
   `benchmark/Cargo.toml`, and puts `pub` back on every function another
   crate, test, example, bench or the benchmark calls: an E0624 / E0603
   ("private method/function") error carries a "defined here" span at the
   definition, and an E0364 (a `pub use` re-export of a narrowed function)
   names the function, which is restored by name;
3. repeats step 2 until both checks are clean (a fixed point; a crate whose
   dependents form a deep chain takes a dozen rounds or more);
4. reports two lists from `dead_code` warnings:
   - `cargo check -p <package> --lib`: items nothing outside the crate and
     nothing in the crate's own non-test code uses (at most its unit tests);
   - `cargo check -p <package> --lib --profile test`: items unused even by the
     crate's own unit tests;
5. starts over from a fresh, narrowed copy and reaches a second fixed point
   with the same two checks *without* `--all-targets` — the libraries and
   binaries of the workspace and of `benchmark/` — and reports a third list:
   the functions the first fixed point restored and the second did not,
   i.e. those that only tests (the crate's integration tests included),
   benches or examples call.

The copy's files are stamped with the current time after every reset:
`shutil.copytree` and `tar` keep mtimes, and an unchanged mtime lets cargo
replay a previous (differently narrowed) build and its warnings.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

NARROW = re.compile(r"(^|\s)pub ((?:const )?(?:unsafe )?fn )")
NARROWED = re.compile(r"(^|\s)pub\(crate\) ((?:const )?(?:unsafe )?fn )")
RESTORE_CODES = {"E0603", "E0624"}
REEXPORT_CODE = "E0364"
MAX_ROUNDS = 40


def repo_root():
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        cwd=os.path.dirname(os.path.abspath(__file__)),
        check=True,
        capture_output=True,
        text=True,
    )
    return out.stdout.strip()


def reset_copy(root, tree):
    """Fresh copy of the sources with every file stamped now."""
    if os.path.exists(tree):
        shutil.rmtree(tree)
    ignore_top = {"target", ".git", ".bench_build"}

    def ignore(directory, names):
        rel = os.path.relpath(directory, root)
        if rel == ".":
            return [n for n in names if n in ignore_top]
        if rel == "benchmark":
            return [n for n in names if n in {"target", "results", "work"}]
        return []

    shutil.copytree(root, tree, ignore=ignore, symlinks=True)
    now = time.time()
    for directory, _, files in os.walk(tree):
        for name in files:
            os.utime(os.path.join(directory, name), (now, now))


def narrow(tree, crate_dir):
    """Narrow every `pub fn` of the crate; return {(path, line): name}."""
    sites = {}
    src = os.path.join(tree, crate_dir, "src")
    for directory, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith(".rs"):
                continue
            path = os.path.join(directory, name)
            with open(path) as f:
                lines = f.readlines()
            changed = False
            for i, line in enumerate(lines):
                if NARROW.search(line):
                    lines[i] = NARROW.sub(r"\1pub(crate) \2", line, count=1)
                    m = re.search(r"fn\s+([A-Za-z_][A-Za-z0-9_]*)", line)
                    sites[(os.path.realpath(path), i + 1)] = m.group(1) if m else "?"
                    changed = True
            if changed:
                with open(path, "w") as f:
                    f.writelines(lines)
    return sites


def restore(path, line_no):
    with open(path) as f:
        lines = f.readlines()
    line = lines[line_no - 1]
    new = NARROWED.sub(r"\1pub \2", line, count=1)
    if new == line:
        return False
    lines[line_no - 1] = new
    with open(path, "w") as f:
        f.writelines(lines)
    return True


def cargo_json(tree, target, args, artifacts=False):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    env.pop("RUSTFLAGS", None)
    proc = subprocess.run(
        ["cargo", *args, "--offline", "--message-format=json"],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    messages = []
    for raw in proc.stdout.splitlines():
        try:
            msg = json.loads(raw)
        except json.JSONDecodeError:
            continue
        if msg.get("reason") == "compiler-message" or (
            artifacts and msg.get("reason") == "compiler-artifact"
        ):
            messages.append(msg)
    return proc.returncode, messages, proc.stderr


def all_spans(diag):
    for span in diag.get("spans", []):
        yield diag, span
    for child in diag.get("children", []):
        yield from all_spans(child)


def span_path(tree, manifest, span):
    name = span["file_name"]
    if os.path.isabs(name):
        return os.path.realpath(name)
    # Paths are relative to the workspace root of the manifest being checked.
    base = tree
    if manifest and os.path.realpath(manifest).startswith(
        os.path.realpath(os.path.join(tree, "benchmark"))
    ):
        base = os.path.join(tree, "benchmark")
    return os.path.realpath(os.path.join(base, name))


def sweep_round(tree, target, sites, all_targets):
    """One check of both workspaces — every target, or only libraries and
    binaries; returns (#restored, unresolved errors)."""
    restored = 0
    unresolved = []
    targets = ["--all-targets"] if all_targets else []
    checks = [
        ["check", "--workspace", *targets, "--keep-going"],
        ["check", "--manifest-path", "benchmark/Cargo.toml", *targets, "--keep-going"],
    ]
    for args in checks:
        code, messages, stderr = cargo_json(tree, target, args)
        errors = [
            (m.get("manifest_path", ""), m["message"])
            for m in messages
            if m["message"].get("level") == "error"
        ]
        for manifest, diag in errors:
            err_code = (diag.get("code") or {}).get("code")
            hit = False
            if err_code in RESTORE_CODES:
                for parent, span in all_spans(diag):
                    label = (span.get("label") or "") + " " + parent.get("message", "")
                    if "defined here" not in label:
                        continue
                    path = span_path(tree, manifest, span)
                    for line in range(span["line_start"], span["line_end"] + 1):
                        if (path, line) in sites and restore(path, line):
                            restored += 1
                            hit = True
                            break
                        if (path, line) in sites:
                            hit = True
                            break
            elif err_code == REEXPORT_CODE:
                m = re.search(r"`([A-Za-z_][A-Za-z0-9_]*)`", diag.get("message", ""))
                if m:
                    for (path, line), name in sites.items():
                        if name == m.group(1) and restore(path, line):
                            restored += 1
                            hit = True
                    hit = hit or any(n == m.group(1) for n in sites.values())
            if not hit and diag.get("message", "").startswith("aborting"):
                continue
            if not hit and not diag.get("message", "").startswith("could not compile"):
                unresolved.append(diag.get("rendered") or diag.get("message"))
        if code != 0 and not errors:
            unresolved.append(stderr[-2000:])
    return restored, unresolved


DEAD = re.compile(r"never (used|read|constructed)")


def dead_warnings(tree, target, package, test):
    """The `dead_code` diagnostics of one check of the package's library,
    and whether that check also built the plain (non-test) library."""
    extra = ["--profile", "test"] if test else []
    code, messages, stderr = cargo_json(
        tree, target, ["check", "-p", package, "--lib", *extra], artifacts=True
    )
    if code != 0:
        sys.exit(f"cargo check -p {package} --lib {' '.join(extra)} failed:\n{stderr[-2000:]}")
    warnings = []
    plain_lib_built = False
    for msg in messages:
        if msg.get("reason") == "compiler-artifact":
            if msg["target"]["name"].replace("-", "_") == package.replace("-", "_") and (
                "lib" in msg["target"]["kind"] and not msg["profile"]["test"]
            ):
                plain_lib_built = True
            continue
        diag = msg["message"]
        if (diag.get("code") or {}).get("code") == "dead_code" and DEAD.search(
            diag.get("message", "")
        ):
            warnings.append((msg.get("manifest_path", ""), diag))
    return warnings, plain_lib_built


def dead_items(tree, warnings):
    items = {}
    for manifest, diag in warnings:
        for span in diag.get("spans", []):
            if not span.get("is_primary"):
                continue
            text = span["text"][0] if span.get("text") else None
            name = (
                text["text"][text["highlight_start"] - 1 : text["highlight_end"] - 1]
                if text
                else "?"
            )
            path = os.path.relpath(span_path(tree, manifest, span), os.path.realpath(tree))
            items.setdefault((path, span["line_start"], name), diag["message"])
    return sorted((*key, message) for key, message in items.items())


def sweep_lists(tree, target, package):
    """(unused outside the crate, unused even by the crate's unit tests).

    A dev-dependency can make the unit-test check build the plain library
    too, whose warnings cargo reports alongside; those are subtracted."""
    plain, _ = dead_warnings(tree, target, package, test=False)
    in_tests, plain_lib_built = dead_warnings(tree, target, package, test=True)
    if plain_lib_built:
        left = [d.get("rendered") for _, d in plain]
        kept = []
        for manifest, diag in in_tests:
            if diag.get("rendered") in left:
                left.remove(diag.get("rendered"))
            else:
                kept.append((manifest, diag))
        in_tests = kept
    return dead_items(tree, plain), dead_items(tree, in_tests)


def fixed_point(tree, target, sites, all_targets):
    """Restore `pub` round after round until both checks are clean; return
    the sites that ended up `pub`."""
    for round_no in range(1, MAX_ROUNDS + 1):
        restored, unresolved = sweep_round(tree, target, sites, all_targets)
        print(f"round {round_no}: restored {restored}", file=sys.stderr)
        if unresolved and restored == 0:
            print("errors the sweep cannot resolve:", file=sys.stderr)
            for text in unresolved:
                print(text, file=sys.stderr)
            sys.exit(2)
        if restored == 0:
            break
    else:
        print(f"no fixed point after {MAX_ROUNDS} rounds", file=sys.stderr)
        sys.exit(2)
    public = set()
    for path, line_no in sites:
        with open(path) as f:
            if not NARROWED.search(f.readlines()[line_no - 1]):
                public.add((path, line_no))
    return public


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("crate_dir", help="crate directory, e.g. crates/ann")
    parser.add_argument("package", help="package name, e.g. reis-ann")
    parser.add_argument(
        "--work",
        default=os.path.join(tempfile.gettempdir(), "reis-dead-surface"),
        help="scratch directory for the copy and its target dir",
    )
    args = parser.parse_args()

    root = repo_root()
    tree = os.path.join(args.work, "tree")
    target = os.path.join(args.work, "target")
    os.makedirs(args.work, exist_ok=True)
    crate_dir = args.crate_dir.rstrip("/")
    reset_copy(root, tree)
    sites = narrow(tree, crate_dir)
    print(f"narrowed {len(sites)} pub fns in {args.crate_dir}", file=sys.stderr)
    driven = fixed_point(tree, target, sites, all_targets=True)
    outside, tests = sweep_lists(tree, target, args.package)

    print("second fixed point, libraries and binaries only", file=sys.stderr)
    reset_copy(root, tree)
    narrow(tree, crate_dir)
    only_tests = sorted(
        (os.path.relpath(path, os.path.realpath(tree)), line, sites[(path, line)])
        for path, line in driven - fixed_point(tree, target, sites, all_targets=False)
    )

    print(f"== {args.package}: unused outside the crate ({len(outside)})")
    for path, line, name, message in outside:
        print(f"{path}:{line}\t{name}\t{message}")
    print(f"== {args.package}: unused even by the crate's own tests ({len(tests)})")
    for path, line, name, message in tests:
        print(f"{path}:{line}\t{name}\t{message}")
    print(f"== {args.package}: called only by tests, benches or examples ({len(only_tests)})")
    for path, line, name in only_tests:
        print(f"{path}:{line}\t{name}")


if __name__ == "__main__":
    main()
