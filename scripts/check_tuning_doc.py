#!/usr/bin/env python3
"""Fails when a configuration field is missing from docs/TUNING.md.

Every data member of the config structs below must be named in backticks
somewhere in docs/TUNING.md, so a new knob cannot land undocumented.

    python3 scripts/check_tuning_doc.py
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "TUNING.md"
STRUCTS = {
    "SystemConfig": "src/exp/system.h",
    "CpuConfig": "src/sim/cpu.h",
    "MachineConfig": "src/sched/machine.h",
    "RbsConfig": "src/sched/rbs.h",
    "ControllerConfig": "src/core/controller.h",
    "ProportionEstimatorConfig": "src/core/proportion_estimator.h",
    "ArrivalConfig": "src/workloads/arrivals.h",
    "WebFarmParams": "src/workloads/web_farm.h",
    "RouterConfig": "src/cluster/router.h",
    "ClusterFarmParams": "src/cluster/cluster_farm.h",
}


def struct_fields(source, name):
    """Data member names of `struct name { ... };` in `source`.

    Nested type declarations (`enum class Kind { ... };`) are not members.
    """
    source = re.sub(r"//[^\n]*", "", source)
    match = re.search(r"\bstruct\s+%s\s*\{" % re.escape(name), source)
    if match is None:
        sys.exit("check_tuning_doc: struct %s not found" % name)
    # Split the body into top-level statements, skipping nested braces.
    fields, depth, statement = [], 0, ""
    for ch in source[match.end():]:
        if depth == 0 and ch == "}":
            break
        depth += {"{": 1, "}": -1}.get(ch, 0)
        if depth == 0 and ch == ";":
            declarator = re.split(r"[={]", statement, maxsplit=1)[0].strip()
            if declarator and "(" not in declarator and not declarator.startswith(
                    ("static", "using", "friend", "enum")):
                fields.append(re.findall(r"\w+", declarator)[-1])
            statement = ""
        else:
            statement += ch
    return fields


def main():
    doc = re.sub(r"```.*?```", "", DOC.read_text(encoding="utf-8"), flags=re.S)
    named = set()
    for span in re.findall(r"`([^`\n]+)`", doc):
        named.update(re.findall(r"\w+", span))
    missing = []
    for struct, header in STRUCTS.items():
        fields = struct_fields((ROOT / header).read_text(encoding="utf-8"), struct)
        if not fields:
            sys.exit("check_tuning_doc: no fields parsed from %s" % struct)
        missing += ["%s::%s (%s)" % (struct, f, header) for f in fields if f not in named]
    if missing:
        print("docs/TUNING.md does not name these config fields in backticks:")
        for entry in missing:
            print("  " + entry)
        return 1
    print("check_tuning_doc: every config field is documented in docs/TUNING.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
