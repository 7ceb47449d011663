#!/usr/bin/env python3
"""Checks that every src/ function is reached by a program or listed.

The programs are the five examples and perfbench's end-to-end driver
(hedc_e2e). They are built with src/ in a tree of their own,
<BUILD>/reach (scripts/reachability/CMakeLists.txt), at -O0 -g0 with one
section per function, and linked with --gc-sections: a function that
no program can call is dropped from every binary. At -O0 nothing is
inlined, so a function that is called is never mistaken for a dropped
one. A src/ function is a strong text symbol (nm type T) of a src/
object; header inlines and template instantiations (W) are not counted.

Every function no program reaches must be covered by a line of
scripts/reachability_allowlist.txt, and every line there must still
cover one, so the list can only shrink. A line is

    <full demangled signature> | <reason>
    src/<dir>/ | <reason>

where the second form covers every function of a directory that only
benches and tests link. The reason is one of

    paper figure/ablation, bench-only
    paper API §<section>, no program calls it yet
    test seam
    waits for item <N>

(N is an item of ROADMAP.md). Lines starting with # are comments.

Usage:
  scripts/check_reachability.py [--build-dir BUILD]
      builds <BUILD>/reach incrementally (BUILD defaults to build/),
      writes its defined.txt and reached.txt there and compares them
      with the allowlist.
  scripts/check_reachability.py --compare DIR
      compares DIR/defined.txt and DIR/reached.txt with
      DIR/allowlist.txt, building nothing.

defined.txt has one "src/<file>.cc<TAB><signature>" line per function,
reached.txt one signature per line. Exits 1 and lists every unreached
function that no line covers and every line that covers nothing.
"""

import argparse
import collections
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "scripts" / "reachability_allowlist.txt"
REASONS = (
    re.compile(r"paper figure/ablation, bench-only"),
    re.compile(r"paper API §[0-9.]+, no program calls it yet"),
    re.compile(r"test seam"),
    re.compile(r"waits for item [0-9]+"),
)
# -O0 so that no call is inlined away; -g0 because nothing reads the
# debug info and it doubles the objects.
CMAKE_FLAGS = (
    "-DCMAKE_BUILD_TYPE=Reach",
    "-DCMAKE_CXX_FLAGS_REACH=-O0 -g0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
)


def cmake_names(pattern, *files):
    names = []
    for path in files:
        names += re.findall(pattern, path.read_text(encoding="utf-8"))
    return names


def run(command):
    """Runs a build step; on failure prints its output and exits 2."""
    step = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if step.returncode != 0:
        print(step.stdout)
        print(f"reachability: `{' '.join(command)}` failed")
        sys.exit(2)


def text_symbols(path, types):
    """Returns the demangled names of path's symbols of the given types."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    names = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in types:
            names.append(parts[2])
    return names


def build(build_dir):
    """Builds the reach tree and writes its defined.txt and reached.txt."""
    reach = build_dir / "reach"
    run(["cmake", "-S", str(ROOT / "scripts" / "reachability"),
         "-B", str(reach), *CMAKE_FLAGS])
    programs = ["hedc_e2e"] + cmake_names(r"hedc_example\((\w+)",
                                          ROOT / "examples" / "CMakeLists.txt")
    libraries = cmake_names(r"add_library\((hedc_\w+)",
                            *sorted((ROOT / "src").glob("*/CMakeLists.txt")))
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", str(reach), "-j", jobs, "--target", *programs,
         *libraries])

    # perfbench adds src/ as <reach>/perfbench/hedc: the object of
    # src/<dir>/<file>.cc is hedc/<dir>/CMakeFiles/<lib>.dir/<file>.cc.o.
    objects = reach / "perfbench" / "hedc"
    defined = []
    for obj in sorted(objects.glob("*/CMakeFiles/*.dir/*.cc.o")):
        source = f"src/{obj.parts[-4]}/{obj.name[:-2]}"
        defined += [(source, name) for name in text_symbols(obj, "T")]
    reached = set()
    for program in programs:
        binary = next(p for p in (reach / "perfbench" / program,
                                  reach / "examples" / program) if p.exists())
        reached.update(text_symbols(binary, "TtWw"))

    with open(reach / "defined.txt", "w", encoding="utf-8") as out:
        out.writelines(f"{source}\t{name}\n" for source, name in defined)
    with open(reach / "reached.txt", "w", encoding="utf-8") as out:
        out.writelines(f"{name}\n" for name in sorted(reached))
    return reach


def read_allowlist(path, problems):
    """Returns {entry: (line number, reason)}; entries ending in / are dirs."""
    entries = {}
    for line_no, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        entry, sep, reason = line.rpartition(" | ")
        where = f"{path.name}:{line_no}"
        if not sep or not any(r.fullmatch(reason) for r in REASONS):
            problems.append(f"{where}: malformed line or unknown reason: "
                            f"{line}")
        elif entry in entries:
            problems.append(f"{where}: `{entry}` is listed twice")
        else:
            entries[entry] = (line_no, reason)
    return entries


def compare(directory, allowlist):
    """Returns (problems, summary lines) for one defined/reached pair."""
    defined = {}
    for line in (directory / "defined.txt").read_text(
            encoding="utf-8").splitlines():
        source, name = line.split("\t", 1)
        defined.setdefault(name, source)
    reached = set((directory / "reached.txt").read_text(
        encoding="utf-8").splitlines())
    unreached = {name: source for name, source in defined.items()
                 if name not in reached}

    problems = []
    entries = read_allowlist(allowlist, problems)
    dirs = {e: v for e, v in entries.items() if e.startswith("src/")
            and e.endswith("/")}
    functions = {e: v for e, v in entries.items() if e not in dirs}

    reasons = collections.Counter()
    by_dir = 0
    for name, source in sorted(unreached.items(), key=lambda kv: kv[::-1]):
        covering_dir = next((d for d in dirs if source.startswith(d)), None)
        if name in functions:
            reasons[functions[name][1]] += 1
        elif covering_dir:
            reasons[dirs[covering_dir][1]] += 1
            by_dir += 1
        else:
            problems.append(f"{source}: `{name}` is reached by no program "
                            f"and not listed in {allowlist.name}")
    for name, (line_no, _) in sorted(functions.items(),
                                     key=lambda kv: kv[1][0]):
        where = f"{allowlist.name}:{line_no}"
        if name not in defined:
            problems.append(f"{where}: stale line, `{name}` is no longer "
                            "defined under src/")
        elif name in reached:
            problems.append(f"{where}: stale line, `{name}` is now reached "
                            "by a program")
    for d, (line_no, _) in sorted(dirs.items(), key=lambda kv: kv[1][0]):
        if not any(source.startswith(d) for source in unreached.values()):
            problems.append(f"{allowlist.name}:{line_no}: stale line, no "
                            f"unreached function is defined under {d}")

    summary = [
        f"{len(defined)} functions defined under src/, "
        f"{len(defined) - len(unreached)} reached by a program, "
        f"{len(unreached)} unreached ({by_dir} under directory lines)",
        f"allowlist: {len(functions)} function lines, {len(dirs)} "
        "directory lines"]
    summary += [f"  {count:4d}  {reason}"
                for reason, count in sorted(reasons.items())]
    return problems, summary


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", type=pathlib.Path,
                        default=ROOT / "build")
    parser.add_argument("--compare", type=pathlib.Path,
                        help="compare a fixture directory, build nothing")
    args = parser.parse_args(argv[1:])

    if args.compare:
        problems, summary = compare(args.compare,
                                    args.compare / "allowlist.txt")
    else:
        problems, summary = compare(build(args.build_dir.resolve()),
                                    ALLOWLIST)
    for message in problems:
        print(message)
    print("\n".join(summary))
    if problems:
        print(f"reachability: {len(problems)} problems")
        return 1
    print("ok: every unreached src/ function is listed with a reason")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
