#!/usr/bin/env python3
"""List the mpleo:: functions the library defines and no program keeps.

Usage:
    unreached_symbols.py --library build/src/libmpleo.a \
                         --allowlist tools/unreached_allowlist.txt PROGRAM...

Build the library and every program (the benches, the examples and
mpleo_bench) unoptimised, with one section per function, and link with
unused sections dropped:

    cmake -B build-audit -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
          -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
          -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

At -O0 nothing is inlined, so a function a program calls survives in that
program's symbol table, and one no program reaches is dropped by the linker.
An optimised build would drop inlined callees too and report them falsely.

A function is reported by its signature. Lambdas and other local entities
count as part of the function that encloses them. Compiler-generated special
members (weak constructors, destructors and assignments) and instantiations
outside mpleo:: (std:: containers of mpleo types) are skipped.

The allowlist names functions that stay without a program caller: an oracle
the tests compare against, or a hook tests read state through. Each line is
"qualified::name: reason" (the name matches all overloads); '#' starts a
comment. A listed name that some program now keeps, or that the library no
longer defines, is reported too, so the list cannot go stale.

Exits 0 when every unreached function is allowlisted and every allowlisted
name is still an unreached library function, 1 otherwise.
"""

import argparse
import subprocess
import sys

OPEN = {"(": ")", "<": ">", "{": "}", "[": "]"}
OPERATOR_CHARS = set("()<>=!+-*/%^&|~[],")
ANONYMOUS = "(anonymous namespace)"


def defined_symbols(path):
    """{mangled name: nm type letter} of the symbols `path` defines."""
    out = subprocess.run(["nm", "--defined-only", "-P", path], check=True,
                         capture_output=True, text=True).stdout
    symbols = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) < 2 or line.endswith(":"):
            continue  # archive member header
        symbols[fields[0]] = fields[1]
    return symbols


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n", check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def skip_operator(text, i):
    """Index just past the operator token starting at text[i:] == 'operator'."""
    j = i + len("operator")
    if text.startswith("()", j):
        return j + 2
    if text.startswith(" ", j):  # conversion operator, new or delete
        return text.index("(", j)
    while j < len(text) and text[j] in OPERATOR_CHARS - {"("}:
        j += 1
    return j


def split_signature(demangled):
    """(owner signature, qualified name) of a demangled function symbol.

    The owner signature ends after the first top-level parameter list (and
    its cv-qualifiers), so a lambda maps to the function that encloses it.
    The qualified name drops the parameters and any leading return type.
    """
    depth = 0
    i = 0
    name_start = 0
    while i < len(demangled):
        if demangled.startswith("operator", i) and (
                i == 0 or demangled[i - 1] in ": "):
            i = skip_operator(demangled, i)
            continue
        if demangled.startswith(ANONYMOUS, i):
            i += len(ANONYMOUS)
            continue
        ch = demangled[i]
        if ch == " " and depth == 0:
            name_start = i + 1  # what came before was a return type
        elif ch == "(" and depth == 0:
            close = i
            inner = 0
            while close < len(demangled):
                if demangled[close] in OPEN:
                    inner += 1
                elif demangled[close] in OPEN.values():
                    inner -= 1
                    if inner == 0:
                        break
                close += 1
            end = close + 1
            for qualifier in (" const", " volatile", " &&", " &"):
                if demangled.startswith(qualifier, end):
                    end += len(qualifier)
            return demangled[:end], demangled[name_start:i]
        elif ch in OPEN:
            depth += 1
        elif ch in OPEN.values():
            depth -= 1
        i += 1
    return demangled, demangled


def strip_template_args(name):
    depth = 0
    out = []
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def is_generated_special_member(qualified, nm_type):
    if nm_type not in "Ww":
        return False  # out-of-line, so the author wrote it
    parts = strip_template_args(qualified).split("::")
    if len(parts) < 2:
        return False
    last, owner = parts[-1], parts[-2]
    return last in (owner, "~" + owner, "operator=")


def read_allowlist(path):
    """The allowlisted qualified names; exits on an entry without a reason."""
    allowed = set()
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, _, reason = line.partition(": ")
            if not reason.strip():
                sys.exit(f"{path}:{number}: '{name}' has no reason")
            allowed.add(name)
    return allowed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--library", required=True, help="the static library archive")
    parser.add_argument("--allowlist", required=True)
    parser.add_argument("programs", nargs="+", help="every program binary")
    args = parser.parse_args()

    library = {name: kind for name, kind in defined_symbols(args.library).items()
               if kind in "TtWw"}
    kept = set()
    for program in args.programs:
        kept.update(defined_symbols(program))
    names = demangle(sorted(set(library) | kept))

    defined = {}  # owner signature -> (qualified name, nm type)
    reached = set()
    for mangled, kind in library.items():
        signature, qualified = split_signature(names[mangled])
        if not qualified.startswith("mpleo::"):
            continue
        if is_generated_special_member(qualified, kind):
            continue
        defined.setdefault(signature, (qualified, kind))
    for mangled in kept:
        reached.add(split_signature(names[mangled])[0])

    allowed = read_allowlist(args.allowlist)
    unreached = {sig: qual for sig, (qual, _) in defined.items() if sig not in reached}
    listed = {qual for qual in unreached.values() if qual in allowed}
    failures = sorted(sig for sig, qual in unreached.items() if qual not in allowed)
    stale = sorted(allowed - listed)

    print(f"{len(args.programs)} programs, {len(defined)} library functions, "
          f"{len(unreached)} unreached, {len(listed)} allowlisted names")
    for signature in failures:
        print(f"unreached: {signature}")
    for name in stale:
        print(f"stale allowlist entry (reached by a program or not defined): {name}")
    return 1 if failures or stale else 0


if __name__ == "__main__":
    sys.exit(main())
