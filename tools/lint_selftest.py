#!/usr/bin/env python3
"""Self-test for tools/lint.py, analyze.py and schema.py on the fixture tree.

Runs the tools with --root tools/lint_fixtures (so the fixture's src/
subtree is dir-gated exactly like the real src/) and asserts:

  - each bad_* fixture produces exactly the expected (rule, count)
    findings in the tool that owns the rule — every rule provably bites;
  - neither tool reports anything in the other tool's bad fixtures — the
    rule sets stay disjoint;
  - each good_* fixture produces zero active findings, AND each good twin
    of an analyzer rule contains at least one *suppressed* finding — the
    allow() forms (// in C++, # in CMake) demonstrably discharge findings
    rather than the rule simply not firing;
  - --json output of both tools parses and carries the shared schema;
  - the suppression-debt gate passes on the fixture tree (all annotations
    reasoned and live) and fails on synthetic trees seeded with a bare
    allow(), a stale allow(), and an unknown rule name;
  - the schema lock gate (schema.py --check) passes on a pristine copy of
    the real src/ tree, fails on a writer/reader type flip with a finding
    naming the field and both source locations, fails on a symmetric but
    unblessed new field (lock drift), and recovers after --bless.

Run directly or via tools/run_checks.sh. Exit 0 on success.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REPO = TOOLS.parent
FIXTURES = TOOLS / "lint_fixtures"

# Expected active findings per bad fixture, per owning tool. Fixture files
# are identified by a path fragment so the CMake fixtures (both named
# CMakeLists.txt) resolve by their directory.
EXPECTED_LINT = {
    "bad_locks.cc": Counter({
        "raw-mutex": 4,        # two includes, one global, one lock_guard line
        "naked-notify": 1,
        "atomic-ordering": 1,
    }),
    "bad_intrinsics.cc": Counter({
        "raw-intrinsics": 3,   # the include, the __m128d decl, the _mm call
    }),
    "bad_unguarded_apply.cc": Counter({
        "unguarded-apply": 2,  # one dotted receiver, one arrow receiver
    }),
    "bad_blocking_socket.cc": Counter({
        "blocking-socket": 4,  # the include, ::socket, ::connect, ::send
    }),
}
EXPECTED_ANALYZE = {
    "bad_nondet_iteration.cc": Counter({"nondet-iteration": 4}),
    "bad_nondet_source.cc": Counter({"nondet-source": 5}),
    "bad_float_contract.cc": Counter({"float-contract": 4}),
    "bad_padding_serialize.cc": Counter({"padding-serialize": 3}),
    "bad_pointer_order.cc": Counter({"pointer-order": 4}),
    "bad_flags_cmake": Counter({"float-contract": 2}),
}
EXPECTED_SCHEMA = {
    "bad_schema.cc": Counter({
        "schema-asymmetry": 2,      # i64 read as u64; bulk doubles read as one
        "schema-unpaired": 1,       # SaveOrphanBinary has no reader
        "raw-schema": 1,            # whole-struct AppendRaw
        "schema-unextractable": 1,  # unknown Encoder member
    }),
}

# Each analyzer good twin must contain >= 1 SUPPRESSED finding of its rule:
# the suppression forms are proven to discharge real findings.
EXPECTED_SUPPRESSED = {
    "good_nondet_iteration.cc": "nondet-iteration",
    "good_nondet_source.cc": "nondet-source",
    "good_float_contract.cc": "float-contract",
    "good_padding_serialize.cc": "padding-serialize",
    "good_pointer_order.cc": "pointer-order",
    "good_flags_cmake": "float-contract",   # the '#'-comment CMake form
}

# Same proof for the lint-owned guardrail rule: the good twin's one direct
# ApplyConfig call must show up as a *suppressed* finding, not a non-match.
EXPECTED_LINT_SUPPRESSED = {
    "good_unguarded_apply.cc": "unguarded-apply",
}

# And for every schema rule: good_schema.cc discharges all four with
# reasoned `schema: allow(...)` annotations.
EXPECTED_SCHEMA_SUPPRESSED = [
    ("good_schema.cc", "schema-asymmetry"),
    ("good_schema.cc", "schema-unpaired"),
    ("good_schema.cc", "raw-schema"),
    ("good_schema.cc", "schema-unextractable"),
]


def run_tool(tool: str, root: Path, *flags: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(TOOLS / tool), "--root", str(root), *flags],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def run_json(tool: str, root: Path, *flags: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(TOOLS / tool), "--root", str(root), "--json",
         *flags],
        capture_output=True, text=True, check=False)
    return proc.returncode, json.loads(proc.stdout)


def classify(findings: list[dict], expected: dict[str, Counter],
             tool: str, failures: list[str]) -> None:
    got: dict[str, Counter] = {name: Counter() for name in expected}
    for f in findings:
        name = next((n for n in expected if n in f["file"]), None)
        if name is not None:
            got[name][f["rule"]] += 1
        elif "good_" in f["file"]:
            failures.append(f"{tool}: good fixture flagged: "
                            f"{f['file']}:{f['line']} [{f['rule']}]")
        else:
            failures.append(f"{tool}: unexpected finding outside its bad "
                            f"fixtures: {f['file']}:{f['line']} [{f['rule']}]")
    for name, want in expected.items():
        if got[name] != want:
            failures.append(f"{tool}: {name}: expected {dict(want)}, "
                            f"got {dict(got[name])}")


def check_fixture_tree(failures: list[str]) -> None:
    lint_code, lint_out = run_json("lint.py", FIXTURES)
    ana_code, ana_out = run_json("analyze.py", FIXTURES)
    sch_code, sch_out = run_json("schema.py", FIXTURES)
    if lint_code == 0:
        failures.append("lint.py exited 0 on a fixture tree with violations")
    if ana_code == 0:
        failures.append("analyze.py exited 0 on a fixture tree with "
                        "violations")
    if sch_code == 0:
        failures.append("schema.py exited 0 on a fixture tree with "
                        "violations")
    for tool, out in (("lint", lint_out), ("analyze", ana_out),
                      ("schema", sch_out)):
        for key in ("tool", "root", "files_scanned", "findings", "counts",
                    "suppressed_count"):
            if key not in out:
                failures.append(f"{tool} --json output missing key `{key}`")
    classify(lint_out["findings"], EXPECTED_LINT, "lint", failures)
    classify(ana_out["findings"], EXPECTED_ANALYZE, "analyze", failures)
    classify(sch_out["findings"], EXPECTED_SCHEMA, "schema", failures)

    # The checkpoint-reachable case specifically: an unordered_map iteration
    # feeding a persist:: sink must be caught and say so.
    _, ana_text = run_tool("analyze.py", FIXTURES)
    if not any("bad_nondet_iteration" in line and "persist" in line
               for line in ana_text.splitlines()):
        failures.append("the checkpoint-reachable unordered iteration "
                        "(persist:: sink) was not reported as such")

    # Suppression forms must discharge real findings in the good twins.
    _, ana_all = run_json("analyze.py", FIXTURES, "--include-suppressed")
    suppressed = [(f["file"], f["rule"]) for f in ana_all["findings"]
                  if f["suppressed"]]
    for name, rule in EXPECTED_SUPPRESSED.items():
        if not any(name in file and r == rule for file, r in suppressed):
            failures.append(f"{name}: expected a suppressed {rule} finding "
                            f"(the allow() must discharge a live finding)")
    _, lint_all = run_json("lint.py", FIXTURES, "--include-suppressed")
    lint_suppressed = [(f["file"], f["rule"]) for f in lint_all["findings"]
                       if f["suppressed"]]
    for name, rule in EXPECTED_LINT_SUPPRESSED.items():
        if not any(name in file and r == rule for file, r in lint_suppressed):
            failures.append(f"{name}: expected a suppressed {rule} finding "
                            f"(the allow() must discharge a live finding)")
    _, sch_all = run_json("schema.py", FIXTURES, "--include-suppressed")
    sch_suppressed = [(f["file"], f["rule"]) for f in sch_all["findings"]
                      if f["suppressed"]]
    for name, rule in EXPECTED_SCHEMA_SUPPRESSED:
        if not any(name in file and r == rule for file, r in sch_suppressed):
            failures.append(f"{name}: expected a suppressed {rule} finding "
                            f"(the allow() must discharge a live finding)")

    # The debt gate passes on the fixture tree: every annotation is
    # reasoned and live.
    code, out = run_tool("lint.py", FIXTURES, "--report-suppressions")
    if code != 0:
        failures.append(f"suppression-debt gate failed on the fixture "
                        f"tree:\n{out}")
    if "suppression-debt:" not in out:
        failures.append("suppression-debt trend line missing from gate "
                        "output")


def check_debt_gate_failures(failures: list[str]) -> None:
    cases = [
        ("bare allow", "without a reason",
         "// lint: allow(raw-mutex)\n"
         "std::mutex mu;\n"),
        ("stale allow", "suppresses nothing",
         "// lint: allow(raw-mutex) — historical; the mutex is long gone.\n"
         "int x = 0;\n"),
        ("unknown rule", "names a rule no tool defines",
         "// lint: allow(no-such-rule) — confidently wrong.\n"
         "int x = 0;\n"),
    ]
    for label, needle, body in cases:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src" / "util"
            src.mkdir(parents=True)
            (src / "case.cc").write_text(body, encoding="utf-8")
            code, out = run_tool("lint.py", Path(tmp),
                                 "--report-suppressions")
            if code == 0:
                failures.append(f"debt gate passed a tree seeded with a "
                                f"{label}")
            elif needle not in out:
                failures.append(f"debt gate failed the {label} tree but "
                                f"without the expected diagnostic "
                                f"({needle!r}):\n{out}")


def check_schema_gate(failures: list[str]) -> None:
    """Proves the lock gate end to end on a scratch copy of the real src/.

    Baseline --check must pass (the committed locks match the tree). A
    writer/reader type flip must fail with a finding naming the field and
    both source locations. A symmetric-but-unblessed new field must fail
    --check as lock drift, and --bless followed by --check must recover.
    """
    guardrail = Path("src") / "safety" / "guardrail.cc"
    write_anchor = "enc.WriteDouble(width_);"
    read_anchor = ("if (!dec.ReadDouble(&width_) || !dec.ReadI64(&streak)) "
                   "return dec.status();")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(REPO / "src", root / "src")
        pristine = (root / guardrail).read_text(encoding="utf-8")
        if write_anchor not in pristine or read_anchor not in pristine:
            failures.append("schema gate selftest: TrustRegion anchors not "
                            "found in guardrail.cc — update the selftest")
            return

        code, out = run_tool("schema.py", root, "--check")
        if code != 0:
            failures.append(f"schema.py --check failed on a pristine copy "
                            f"of src/:\n{out}")
            return

        # 1. Type flip: writer emits u64 where the reader expects f64.
        (root / guardrail).write_text(
            pristine.replace(write_anchor, "enc.WriteU64(width_);"),
            encoding="utf-8")
        code, out = run_tool("schema.py", root, "--check")
        if code == 0:
            failures.append("schema gate passed a writer/reader type flip")
        elif not ("schema-asymmetry" in out and "width_" in out
                  and out.count("guardrail.cc:") >= 2):
            failures.append(f"type-flip finding must name the field and "
                            f"both source locations; got:\n{out}")

        # 2. Symmetric but unblessed new field: both sides agree, so no
        # asymmetry — the lock diff alone must catch the drift.
        (root / guardrail).write_text(
            pristine
            .replace("enc.WriteI64(clean_streak_);",
                     "enc.WriteI64(clean_streak_);\n  enc.WriteU32(epoch_);")
            .replace(read_anchor,
                     "uint32_t epoch = 0;\n  " +
                     read_anchor.replace("ReadI64(&streak))",
                                         "ReadI64(&streak) ||\n"
                                         "      !dec.ReadU32(&epoch))")),
            encoding="utf-8")
        code, out = run_tool("schema.py", root, "--check")
        if code == 0:
            failures.append("schema gate passed an unblessed new field")
        elif "drifted" not in out:
            failures.append(f"unblessed-field failure should be reported "
                            f"as lock drift; got:\n{out}")

        # 3. Bless the intentional change; the gate must recover.
        code, out = run_tool("schema.py", root, "--bless")
        if code != 0:
            failures.append(f"schema.py --bless failed on a clean "
                            f"symmetric change:\n{out}")
        code, out = run_tool("schema.py", root, "--check")
        if code != 0:
            failures.append(f"schema.py --check still failing after "
                            f"--bless:\n{out}")


def main() -> int:
    failures: list[str] = []
    check_fixture_tree(failures)
    check_debt_gate_failures(failures)
    check_schema_gate(failures)

    if failures:
        print("lint self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    total = sum(sum(c.values())
                for c in (*EXPECTED_LINT.values(),
                          *EXPECTED_ANALYZE.values(),
                          *EXPECTED_SCHEMA.values()))
    n_bad = len(EXPECTED_LINT) + len(EXPECTED_ANALYZE) + len(EXPECTED_SCHEMA)
    n_supp = (len(EXPECTED_SUPPRESSED) + len(EXPECTED_LINT_SUPPRESSED) +
              len(EXPECTED_SCHEMA_SUPPRESSED))
    print(f"lint self-test: ok ({total} expected findings fired across "
          f"{n_bad} bad fixtures, {n_supp} suppression forms proven live, "
          f"debt gate verified on pass and 3 failure modes, "
          f"schema lock gate verified on pass, type flip, drift and bless)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
