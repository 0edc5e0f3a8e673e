#!/usr/bin/env python3
"""Exported-surface check: every value a library interface exports has a
caller outside its own module.

    python3 tools/exported_surface.py

1. Lists the top-level `val`s of every lib/**/*.mli (items of a nested
   `module ... : sig` are not listed).
2. Keeps the values that no .ml outside their module names, in lib/, bin/,
   test/, perfbench/, bench/ and examples/. A file names `M.x` directly,
   through an alias (`module A = M`, then `A.x`), or as a bare `x` once it
   opens `M` (`open M`, `let open M in`, `M.( ... )`, `include M`).
   Comments and string literals do not count.
3. Removes those values from their .mli in a temporary copy of the tree and
   runs `dune build --root` on it.

A value listed in tools/exported_surface.allow (one `Module.value  reason`
per line) stays exported and is not removed. The check fails if it removes
any value, or if the copy does not build, which means the scan missed a
caller. The copy builds with unused values as warnings, and these tell the
two kinds of finding apart: a value whose removal leaves an unused-value
warning is dead (delete it); any other is used only inside its module (take
it out of the .mli).
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

CALLER_DIRS = ["lib", "bin", "test", "perfbench", "bench", "examples"]
ALLOWLIST = os.path.join("tools", "exported_surface.allow")

# a top-level item of an interface starts at column 0 with one of these
ITEM = re.compile(r"^(val|type|module|exception|external|open|include|class)\b")
VAL = re.compile(r"^val\s+(\(\s*[^)\s]+\s*\)|[a-z_][A-Za-z0-9_']*)")


def strip_comments_and_strings(src):
    """The source with every comment, string and char literal blanked out
    (newlines kept, so line numbers still hold)."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth > 0:
            if src.startswith("*)", i):
                depth -= 1
                i += 2
            elif c == '"':
                # a string inside a comment is still lexed as a string
                i = skip_string(src, i + 1)
            else:
                if c == "\n":
                    out.append(c)
                i += 1
            continue
        if c == '"':
            j = skip_string(src, i + 1)
            out.append(" " + "\n" * src.count("\n", i, j))
            i = j
            continue
        m = re.match(r"\{([a-z_]*)\|", src[i:i + 20])
        if m:
            close = "|" + m.group(1) + "}"
            j = src.find(close, i + len(m.group(0)))
            j = n if j < 0 else j + len(close)
            out.append(" " + "\n" * src.count("\n", i, j))
            i = j
            continue
        m = re.match(r"'(\\(\d{3}|x[0-9a-fA-F]{2}|o[0-7]{3}|.)|[^\\'])'", src[i:i + 6])
        if m and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_")):
            out.append(" ")
            i += len(m.group(0))
            continue
        out.append(c)
        i += 1
    return "".join(out)


def skip_string(src, i):
    n = len(src)
    while i < n:
        if src[i] == "\\":
            i += 2
        elif src[i] == '"':
            return i + 1
        else:
            i += 1
    return n


def module_of(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[:1].upper() + base[1:]


def exported_values(root):
    """{module: (mli path, [value names])} for every lib/**/*.mli."""
    found = {}
    for dirpath, _, files in os.walk(os.path.join(root, "lib")):
        for f in sorted(files):
            if f.endswith(".mli"):
                path = os.path.join(dirpath, f)
                with open(path) as fh:
                    text = strip_comments_and_strings(fh.read())
                names = []
                for line in text.split("\n"):
                    m = VAL.match(line)
                    if m:
                        names.append(re.sub(r"\s+", " ", m.group(1)))
                found[module_of(path)] = (path, names)
    return found


def caller_sources(root):
    """[(module, stripped text)] of every .ml under the caller dirs."""
    srcs = []
    for d in CALLER_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(root, d)):
            dirnames[:] = [x for x in dirnames if x != "_build"]
            for f in sorted(files):
                if f.endswith(".ml"):
                    with open(os.path.join(dirpath, f)) as fh:
                        srcs.append((module_of(f), strip_comments_and_strings(fh.read())))
    return srcs


def bare(name):
    """The text a bare use of [name] shows: the operator itself, or the
    identifier as a whole word."""
    if name.startswith("("):
        return re.compile(re.escape(name[1:-1].strip()))
    return re.compile(r"(?<![A-Za-z0-9_'.])" + re.escape(name) + r"(?![A-Za-z0-9_'])")


def names_used(module, names, srcs):
    """The subset of [names] that some file other than [module]'s names."""
    used = set()
    for owner, text in srcs:
        if owner == module or not re.search(r"\b" + module + r"\b", text):
            continue
        aliases = {module} | set(
            re.findall(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*" + module + r"\b", text))
        alt = "|".join(sorted(aliases))
        opened = re.search(
            r"\b(open!?|include)\s+(" + alt + r")\b|\b(" + alt + r")\.\(", text)
        for name in names:
            if name in used:
                continue
            if name.startswith("("):
                qualified = re.compile(
                    r"\b(" + alt + r")\.\(\s*" + re.escape(name[1:-1].strip()) + r"\s*\)")
            else:
                qualified = re.compile(
                    r"\b(" + alt + r")\." + re.escape(name) + r"(?![A-Za-z0-9_'])")
            if qualified.search(text) or (opened and bare(name).search(text)):
                used.add(name)
    return used


def remove_vals(path, names):
    """Delete each listed top-level val of the .mli at [path], with the doc
    comment that follows it."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    keep, i = [], 0
    while i < len(lines):
        m = VAL.match(lines[i])
        if not (m and re.sub(r"\s+", " ", m.group(1)) in names):
            keep.append(lines[i])
            i += 1
            continue
        i += 1
        # the declaration runs on until a blank line or the next item
        while (i < len(lines) and lines[i].strip()
               and not ITEM.match(lines[i]) and not lines[i].startswith("(**")):
            i += 1
        if i < len(lines) and lines[i].startswith("(**"):
            while i < len(lines) and "*)" not in lines[i]:
                i += 1
            i += 1
    with open(path, "w") as fh:
        fh.write("\n".join(keep))


def build_copy(root, removals):
    """Copy the tree without _build and .git, remove the values
    ([(mli path, names)]) and build.  Returns (returncode, output)."""
    tmp = tempfile.mkdtemp(prefix="exported-surface-")
    copy = os.path.join(tmp, "tree")
    try:
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns("_build", ".git"))
        # an unused value is reported, not fatal, so the whole tree builds
        with open(os.path.join(copy, "dune"), "a") as fh:
            fh.write("\n(env (_ (flags (:standard -warn-error -32))))\n")
        for path, names in removals:
            remove_vals(os.path.join(copy, os.path.relpath(path, root)), names)
        proc = subprocess.run(
            ["dune", "build", "--root", copy], stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def unused_values(out):
    """{(module, name)} for each unused-value warning in a build log; an
    operator's name is written without its parentheses."""
    found, module = set(), None
    for line in out.split("\n"):
        m = re.match(r'File "([^"]+)"', line)
        if m:
            module = module_of(m.group(1))
        m = re.search(r"unused value (.+)\.$", line)
        if m and module:
            found.add((module, m.group(1)))
    return found


def read_allowlist(root):
    allowed, bad = {}, []
    path = os.path.join(root, ALLOWLIST)
    if os.path.exists(path):
        with open(path) as fh:
            for no, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(None, 1)
                if len(parts) < 2:
                    bad.append(f"{ALLOWLIST}:{no}: {parts[0]} gives no reason")
                else:
                    allowed[parts[0]] = parts[1]
    return allowed, bad


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    exported = exported_values(root)
    srcs = caller_sources(root)
    allowed, failures = read_allowlist(root)
    flagged, unlisted, removals = [], [], []
    for module, (path, names) in sorted(exported.items()):
        used = names_used(module, names, srcs)
        unused = [n for n in names if n not in used]
        flagged += [f"{module}.{n}" for n in unused]
        out = [(module, n) for n in unused if f"{module}.{n}" not in allowed]
        unlisted += out
        if out:
            removals.append((path, {n for _, n in out}))
    total = sum(len(ns) for _, ns in exported.values())
    print(f"{total} exported values in {len(exported)} interfaces; "
          f"{len(flagged)} with no caller outside their module")
    for key in allowed:
        if key not in flagged:
            failures.append(f"{ALLOWLIST}: {key} has a caller outside its module now; "
                            "drop its line")

    if removals:
        code, out = build_copy(root, removals)
        dead = unused_values(out)
        for module, name in unlisted:
            if (module, name.strip("() ")) in dead:
                verdict = "dead: delete it"
            elif code == 0:
                verdict = "used only inside its module: take it out of the .mli"
            else:
                verdict = "no caller the scan can see"
            failures.append(f"{module}.{name}: {verdict}")
        if code != 0:
            failures.append("the copy without these values does not build, so the "
                            "scan missed a caller:\n" + out)
    for key in allowed:
        if key in flagged:
            print(f"allowed: {key}  ({allowed[key]})")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("exported surface ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
