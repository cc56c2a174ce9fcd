#!/usr/bin/env python3
"""Generates the benchmark's three new .rc11 workload programs.

    python3 perfbench/programs/gen_programs.py          # rewrite the files
    python3 perfbench/programs/gen_programs.py --check  # exit 1 if stale

The programs are pure functions of the parameters below; the checked-in
files are this script's output.  store_fan.rc11 is a verbatim copy of
tools/programs/store_fan.rc11, so that edits to the repository's corpus do
not silently change the benchmark's input.
"""

import argparse
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent

# ticket_sym.rc11: rc11-run --symmetry --por.  Identical worker text in
# every thread, so the orbit-canonicalising abstraction key has work to do.
TICKET_SYM = {"threads": 4, "rounds": 2, "work": 1}
# ticket_outline.rc11: rc11-verify --trace.  Long local work inside the
# critical section makes the outline's per-pc annotations many.
TICKET_OUTLINE = {"threads": 3, "rounds": 2, "work": 12}
# seqlock_{abstract,concrete}.rc11: rc11-refine.  Writer k stores
# WRITE_BASE + k to both data variables; each reader takes the lock
# READER_ROUNDS times and reads both.  (A second single-round reader instead
# of the reader's second round gives 40,753 concrete states and 2-3 s runs,
# too few repeats per timed window on a shared host.)
SEQLOCK = {"writers": 2, "readers": 1, "reader_rounds": 2, "write_base": 5}


def ticket_round(i, work):
    """One lock round of worker i: 6 + work instructions."""
    lines = [
        f"  mt{i} <- FAI(nt);",
        f"  do {{ s{i} <-A sn; }} until (mt{i} == s{i});",
        f"  r{i} <- x;",
        f"  w{i} := r{i} + 1;",
    ]
    lines += [f"  w{i} := w{i} + 1;"] * (work - 1)
    lines += [f"  x := w{i};", f"  sn :=R s{i} + 1;"]
    return lines


def ticket_program(threads, rounds, work, header):
    out = header + [
        "var x = 0;",
        "var library nt = 0;",
        "var library sn = 0;",
        "",
    ]
    for i in range(1, threads + 1):
        out.append(f"thread t{i} {{")
        out.append(f"  reg mt{i}; reg s{i}; reg r{i}; reg w{i};")
        for _ in range(rounds):
            out += ticket_round(i, work)
        out += ["}", ""]
    return out


def ticket_outline_block(threads, rounds, work):
    """Pairwise mutual exclusion plus register ranges at every critical pc.

    Per round the compiled code is: FAI, acquiring read, loop branch, read
    of x, `work` assignments, store of x, releasing store of sn.  The
    critical section is the read of x through the releasing store.
    """
    length = 6 + work
    crit = [r * length + p for r in range(rounds) for p in range(3, 6 + work)]
    crit_set = "{" + ", ".join(str(p) for p in crit) + "}"
    sections = threads * rounds
    tickets = "{" + ", ".join(str(v) for v in range(sections)) + "}"
    # Each completed critical section adds `work` to x.
    xs = "{" + ", ".join(str(v * work) for v in range(sections)) + "}"
    mutex = " && ".join(
        f"!(pc(t{i}) in {crit_set} && pc(t{j}) in {crit_set})"
        for i in range(1, threads + 1)
        for j in range(i + 1, threads + 1))
    out = ["outline {", f"  invariant {mutex};"]
    for i in range(1, threads + 1):
        for r in range(rounds):
            base = r * length
            for p in range(3, 6 + work):
                ann = f"mt{i} in {tickets} && s{i} in {tickets}"
                if p > 3:
                    ann += f" && r{i} in {xs}"
                out.append(f"  at t{i} {base + p}: {ann};")
    out += ["}", ""]
    return out


def seqlock_pair(writers, readers, reader_rounds, write_base):
    """The abstract-lock client and the same client over the sequence lock."""
    head = ["var d1 = 0;", "var d2 = 0;"]
    abstract = ["// Generated by gen_programs.py: abstract-lock client.",
                *head, "lock library l;", ""]
    concrete = ["// Generated by gen_programs.py: the same client over the",
                "// sequence lock (library-tagged glb and registers).",
                *head, "var library glb = 0;", ""]
    for k in range(writers):
        v = write_base + k
        regs = f"  reg ok{k};"
        abstract += [f"thread writer{k} {{", regs,
                     f"  ok{k} <- l.acquire();",
                     f"  d1 := {v};", f"  d2 := {v};",
                     "  l.release();", "}", ""]
        concrete += [f"thread writer{k} {{", regs,
                     f"  reg library g{k};", f"  reg library c{k};",
                     "  do {",
                     f"    do {{ g{k} <-A glb; }} until (even(g{k}));",
                     f"    c{k} <- CAS(glb, g{k}, g{k} + 1);",
                     f"  }} until (c{k});",
                     f"  ok{k} := 1;",
                     f"  d1 := {v};", f"  d2 := {v};",
                     f"  glb :=R g{k} + 2;", "}", ""]
    for k in range(readers):
        n = writers + k
        regs = [f"  reg ok{n};", f"  reg a{n};", f"  reg b{n};"]
        abstract += [f"thread reader{k} {{", *regs]
        concrete += [f"thread reader{k} {{", *regs,
                     f"  reg library g{n};", f"  reg library c{n};"]
        for _ in range(reader_rounds):
            abstract += [f"  ok{n} <- l.acquire();",
                         f"  a{n} <- d1;", f"  b{n} <- d2;",
                         "  l.release();"]
            concrete += ["  do {",
                         f"    do {{ g{n} <-A glb; }} until (even(g{n}));",
                         f"    c{n} <- CAS(glb, g{n}, g{n} + 1);",
                         f"  }} until (c{n});",
                         f"  ok{n} := 1;",
                         f"  a{n} <- d1;", f"  b{n} <- d2;",
                         f"  glb :=R g{n} + 2;"]
        abstract += ["}", ""]
        concrete += ["}", ""]
    return abstract, concrete


def render():
    files = {}
    files["ticket_sym.rc11"] = ticket_program(
        **TICKET_SYM,
        header=[f"// Generated by gen_programs.py: ticket-lock workers "
                f"{TICKET_SYM}."])
    files["ticket_outline.rc11"] = ticket_program(
        **TICKET_OUTLINE,
        header=[f"// Generated by gen_programs.py: ticket-lock workers "
                f"{TICKET_OUTLINE}, with an outline."]
    ) + ticket_outline_block(**TICKET_OUTLINE)
    abstract, concrete = seqlock_pair(**SEQLOCK)
    files["seqlock_abstract.rc11"] = abstract
    files["seqlock_concrete.rc11"] = concrete
    return {name: "\n".join(lines).rstrip("\n") + "\n"
            for name, lines in files.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare instead of writing; exit 1 if any differs")
    args = ap.parse_args()
    stale = []
    for name, text in render().items():
        path = HERE / name
        if args.check:
            if not path.exists() or path.read_text() != text:
                stale.append(name)
        else:
            path.write_text(text)
    if stale:
        print("stale: " + ", ".join(stale), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
