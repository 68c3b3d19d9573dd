#!/usr/bin/env python3
"""Repo-specific lint for rules the compiler cannot enforce.

Rules
-----
ignored-status   A call to a util::Status / StatusOr-returning function whose
                 result is discarded — either a bare statement call or a
                 `(void)` cast laundering the [[nodiscard]] diagnostic away.
std-function     `std::function` in src/nn or src/util: type-erased calls in
                 kernel/utility hot paths cost an indirect call per invocation;
                 use templates or raw function pointers instead.
raw-new-delete   Raw `new` / `delete` outside the engine page layer
                 (src/engine/page.*) that is not immediately owned by a
                 unique_ptr (make_unique, unique_ptr<T>(new ...), .reset(new)).
mutable-global   Namespace-scope or function-local static mutable state with
                 no concurrency story (not const/constexpr/atomic/mutex/
                 once_flag/thread_local and no ComputeContext ownership).
blocking-socket  Raw socket syscalls (::socket/::connect/::accept/::recv/...)
                 or <sys/socket.h>/<sys/un.h> includes in src/ outside
                 src/server/net — the event-driven TCP front end and its
                 FrameClient peer are the one sanctioned home of socket
                 I/O, so shutdown semantics stay in one audited place.
raw-checkpoint-write
                 `std::ofstream` (or <fstream> includes) in the model/replay
                 state trees (src/nn, src/rl, src/tuner, src/server) outside
                 src/persist — checkpoint bytes must go through
                 persist::AtomicWriteFile / ChunkWriter so every write is
                 checksummed, committed atomically, and torn-write safe.
raw-mutex        `std::mutex` / `std::condition_variable` / std lock guards
                 (or their includes) anywhere outside src/util/mutex.* — all
                 locking goes through util::Mutex / util::MutexLock /
                 util::CondVar so every lock carries thread-safety
                 annotations, a rank, and a name for deadlock reports.
naked-notify     A CondVar notify in a function that never visibly acquires
                 a lock (no MutexLock / Lock() / Wait() above it in the same
                 function body). Notifying without having mutated the
                 predicate's state under the mutex is the classic lost-wakeup
                 recipe; hoisted helpers that notify on behalf of a locked
                 caller annotate why they are safe.
atomic-ordering  An explicit std::memory_order_* argument. Relaxed/acquire/
                 release orderings are easy to get subtly wrong; each use
                 must carry an allow() stating why the weaker order is
                 sufficient (default seq_cst operations are untouched).
raw-intrinsics   An <immintrin.h>-family include or a raw SIMD token
                 (_mm*_* intrinsic, __m128/__m256/__m512 vector type,
                 __mmask*) outside src/nn/simd/. All SIMD lives in the
                 kernel subsystem behind the GemmKernels dispatch table so
                 the rest of the tree compiles portably and the bitwise
                 scalar-equivalence contract stays enforceable in one place.
unguarded-apply  A direct `db.ApplyConfig(...)` / `db->ApplyConfig(...)`
                 call in src/ outside src/safety (the chokepoint) and the
                 backend trees that implement the method (src/env,
                 src/engine). Every config deployment must route through
                 safety::ApplyConfig so the guardrail layer — trust-region
                 clipping, rollback-on-regression — can never be bypassed
                 by a new call site.

The determinism-contract rules (nondet-iteration, nondet-source,
float-contract, padding-serialize, pointer-order) live in the token/scope-
aware sibling tools/analyze.py, and the wire-schema rules (schema-asymmetry,
schema-unpaired, raw-schema, schema-unextractable) in tools/schema.py. The
first two tools share the suppression language below; schema.py uses the
same grammar under its own `schema:` marker. `--report-suppressions` audits
the annotations of all three.

Suppressions
------------
A finding is suppressed by an annotation naming its rule, with a reason:

    foo();  // lint: allow(rule-name) — why this is fine

on the offending line or the line directly above. A whole file opts out of a
rule with `// lint: allow-file(rule-name) — why` anywhere in the file. The
reason text is mandatory: a bare allow() without prose is itself a violation.

Modes
-----
(default)               lint SCAN_DIRS, print findings, exit 1 when dirty
--json                  machine-readable findings (CI turns these into
                        GitHub annotations); --include-suppressed adds the
                        suppressed ones, marked
--report-suppressions   the suppression-debt gate: list every allow()/
                        allow-file() across this tool, tools/analyze.py AND
                        tools/schema.py
                        with its reason, fail on bare suppressions, unknown
                        rule names, and stale suppressions (the annotation
                        no longer suppresses any finding), and print a
                        count trend line CI can surface

Exit status is 0 when clean, 1 when any violation is found, so the script can
gate CI (tools/run_checks.sh runs it before the sanitizer matrix).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analyze  # noqa: E402  (sibling module: shared suppression framework)
import schema  # noqa: E402  (sibling: wire-schema gate, own allow() grammar)
from analyze import (  # noqa: E402
    AnalysisResult, Finding, SuppressionIndex, scan_annotations)

REPO_ROOT = Path(__file__).resolve().parent.parent

LINT_RULES = frozenset({
    "ignored-status", "std-function", "raw-new", "raw-delete",
    "mutable-global", "blocking-socket", "raw-checkpoint-write", "raw-mutex",
    "naked-notify", "atomic-ordering", "raw-intrinsics", "unguarded-apply",
})

# Directories scanned for violations. Tests and benches are held to the same
# Status discipline; the hot-path rules only apply inside src/ subtrees.
SCAN_DIRS = ["src", "tests", "bench", "examples"]
SOURCE_SUFFIXES = {".h", ".cc"}

# Calls that return Status/StatusOr but whose results tests legitimately
# consume through other means are still required to check; there is no
# blanket exemption list — use a per-line annotation instead. Names that are
# ALSO declared with a non-Status return type somewhere (e.g. Lasso::Fit is
# void while GP::Fit returns Status) are dropped: this lint is line-based and
# cannot resolve receiver types, so ambiguous names would be false positives.
STATUS_DECL_RE = re.compile(
    r"(?:util::)?Status(?:Or<[^;=]*>)?\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w+)\s*\("
)
NONSTATUS_DECL_RE = re.compile(
    r"\b(void|bool|int|int64_t|uint64_t|size_t|double|float|auto|"
    r"std::\w[\w:]*(?:<[^;()]*>)?|[A-Z]\w*(?:<[^;()]*>)?)\s*[&*]?\s+"
    r"([A-Za-z_]\w+)\s*\("
)

# Statement-position call: optional receiver chain, then NAME(...);
BARE_CALL_RE = re.compile(
    r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w+)\s*\("
)
VOID_CAST_RE = re.compile(r"\(void\)\s*(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w+)\s*\(")
LAST_CALL_RE = re.compile(r"([A-Za-z_]\w+)\s*\([^()]*\)\s*;\s*$")
# A line whose predecessor ends mid-expression is a continuation; the result
# of a call there is consumed by the enclosing expression.
CONTINUATION_TAIL_RE = re.compile(r"(?:[=+\-*/%<>!&|^?:,(]|\breturn\b|<<|>>)\s*$")

STD_FUNCTION_RE = re.compile(r"\bstd::function\b")
RAW_NEW_RE = re.compile(r"\bnew\s+[A-Za-z_(]")
OWNED_NEW_RE = re.compile(r"(?:unique_ptr<[^;]*\(\s*new\b|\.reset\(\s*new\b|make_unique)")
RAW_DELETE_RE = re.compile(r"\bdelete\b(?!\s*;?\s*$)|\bdelete\[\]")
DELETED_FN_RE = re.compile(r"=\s*delete\s*[;,)]")

SOCKET_CALL_RE = re.compile(
    r"::(?:socket|connect|accept4?|bind|listen|recv(?:from|msg)?|"
    r"send(?:to|msg)?)\s*\("
)
SOCKET_INCLUDE_RE = re.compile(r"#\s*include\s*<sys/(?:socket|un)\.h>")

OFSTREAM_RE = re.compile(r"\bstd::ofstream\b")
FSTREAM_INCLUDE_RE = re.compile(r"#\s*include\s*<fstream>")
# Subtrees whose serialized state is durable tuning state; raw file writes
# there bypass the persist layer's CRC + atomic-rename guarantees.
CHECKPOINT_STATE_DIRS = {"nn", "rl", "tuner", "server"}

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b"
)
MUTEX_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
)
NOTIFY_RE = re.compile(r"\b(?:NotifyOne|NotifyAll|notify_one|notify_all)\s*\(")
# Evidence that the enclosing function participates in the lock protocol:
# a scoped lock, an explicit Lock(), or a CondVar wait (which requires it).
LOCK_EVIDENCE_RE = re.compile(r"\bMutexLock\b|\bLock\s*\(\s*\)|\bWait\s*\(")
MEMORY_ORDER_RE = re.compile(r"\bstd::memory_order_\w+")

INTRINSIC_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|xmmintrin|emmintrin|pmmintrin|"
    r"tmmintrin|smmintrin|nmmintrin|wmmintrin|ammintrin|avxintrin|"
    r"avx2intrin|avx512\w*intrin|fmaintrin)\.h>"
)
INTRINSIC_TOKEN_RE = re.compile(
    r"\b(?:_mm(?:256|512)?_\w+|__m(?:128|256|512)[di]?\b|__mmask(?:8|16|32|64)\b)"
)

# Receiver-qualified ApplyConfig call (`db.ApplyConfig(` / `db->ApplyConfig(`).
# Declarations and overrides have no receiver and never match.
APPLY_CONFIG_RE = re.compile(r"(?:\.|->)\s*ApplyConfig\s*\(")
# Subtrees allowed to touch DbInterface::ApplyConfig directly: the safety
# chokepoint itself, and the backends that implement (and may self-delegate)
# the method.
APPLY_EXEMPT_DIRS = {"safety", "env", "engine"}

STATIC_DECL_RE = re.compile(r"^\s*static\s+(.*)$")
NAMESPACE_GLOBAL_RE = re.compile(r"^[A-Za-z_][\w:<>,&\s\*]*\bg_\w+\s*[{=;]")
SAFE_STATIC_RE = re.compile(
    r"const\b|constexpr\b|std::atomic|std::mutex|std::shared_mutex|"
    r"std::once_flag|std::condition_variable|thread_local\b|assert\s*\("
)


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and the contents of string/char literals so the
    rule regexes never fire on prose or quoted code."""
    out = []
    i, n = 0, len(line)
    in_str = in_chr = False
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == '"':
                in_str = False
            i += 1
            continue
        if in_chr:
            if c == "\\":
                i += 2
                continue
            if c == "'":
                in_chr = False
            i += 1
            continue
        if c == '"':
            in_str = True
            out.append('"')
            i += 1
            continue
        if c == "'":
            in_chr = True
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def collect_status_functions(files: list[Path]) -> set[str]:
    names: set[str] = set()
    ambiguous: set[str] = set()
    for path in files:
        if path.suffix != ".h":
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        for match in STATUS_DECL_RE.finditer(text):
            names.add(match.group(1))
        for match in NONSTATUS_DECL_RE.finditer(text):
            if not match.group(1).startswith("Status"):
                ambiguous.add(match.group(2))
    # Accessors named like the type itself are not producers of new status.
    names.discard("Status")
    names.discard("status")
    names.discard("Ok")
    # Names also declared with non-Status return types are unresolvable on a
    # line-based scan; [[nodiscard]] + -Werror covers those at compile time.
    return names - ambiguous


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.result = AnalysisResult()

    def report(self, path: Path, idx: int, rule: str, message: str) -> None:
        """Records a finding for 0-based line `idx`, resolving suppressions
        so the debt gate can tell live annotations from stale ones."""
        ann = self._supp.lookup(rule, idx + 1)
        self.result.findings.append(Finding(
            path=path, line=idx + 1, rule=rule, message=message,
            suppressed=ann is not None, suppressor=ann))

    def lint_file(self, path: Path, status_fns: set[str]) -> None:
        rel = path.relative_to(self.root)
        text = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = text.splitlines()

        annotations = scan_annotations(path, raw_lines)
        self.result.annotations.extend(annotations)
        self._supp = SuppressionIndex(path, raw_lines, annotations)

        # First pass: strip block comments so rule regexes see code only.
        code_lines: list[str] = []
        in_block_comment = False
        for raw in raw_lines:
            line = raw
            if in_block_comment:
                end = line.find("*/")
                if end < 0:
                    code_lines.append("")
                    continue
                line = line[end + 2:]
                in_block_comment = False
            start = line.find("/*")
            if start >= 0 and "*/" not in line[start:]:
                in_block_comment = True
                line = line[:start]
            code_lines.append(strip_comments_and_strings(line))

        for idx, code in enumerate(code_lines):
            if not code.strip():
                continue
            prev = code_lines[idx - 1] if idx > 0 else ""

            self._check_ignored_status(path, rel, code, prev, idx, status_fns)
            self._check_std_function(path, rel, code, idx)
            self._check_raw_new_delete(path, rel, code, idx)
            self._check_mutable_global(path, rel, code, idx)
            self._check_blocking_socket(path, rel, code, idx)
            self._check_raw_checkpoint_write(path, rel, code, idx)
            self._check_raw_mutex(path, rel, code, idx)
            self._check_naked_notify(path, rel, code, code_lines, idx)
            self._check_atomic_ordering(path, rel, code, idx)
            self._check_raw_intrinsics(path, rel, code, idx)
            self._check_unguarded_apply(path, rel, code, idx)

    def _check_ignored_status(self, path, rel, code, prev, idx,
                              status_fns) -> None:
        void = VOID_CAST_RE.search(code)
        if void:
            last = LAST_CALL_RE.search(code)
            name = last.group(1) if last else void.group(1)
            if name in status_fns:
                self.report(path, idx, "ignored-status",
                            f"(void)-cast discards the Status returned by "
                            f"{name}(); handle it or annotate why not")
            return
        if not BARE_CALL_RE.match(code):
            return
        # If the previous line ends mid-expression this is a continuation, and
        # the enclosing expression consumes the result.
        if CONTINUATION_TAIL_RE.search(prev.rstrip()):
            return
        stripped = code.strip()
        # Only a full-statement call with nothing consuming the result. The
        # final call in a chain decides: `Get(k, out).value();` consumes the
        # StatusOr via value(), which itself checks.
        if not stripped.endswith(";"):
            return
        if re.search(r"=|\breturn\b|CDBTUNE_|EXPECT_|ASSERT_", code):
            return
        last = LAST_CALL_RE.search(code)
        if not last or last.group(1) not in status_fns:
            return
        self.report(path, idx, "ignored-status",
                    f"result of Status-returning {last.group(1)}() "
                    f"is discarded")

    def _check_std_function(self, path, rel, code, idx) -> None:
        top = rel.parts[0] if rel.parts else ""
        sub = rel.parts[1] if len(rel.parts) > 1 else ""
        if top != "src" or sub not in {"nn", "util"}:
            return
        if STD_FUNCTION_RE.search(code):
            self.report(path, idx, "std-function",
                        "std::function in a hot-path tree (src/nn, src/util); "
                        "use a template parameter or function pointer")

    def _check_raw_new_delete(self, path, rel, code, idx) -> None:
        if rel.parts[0] != "src":
            return
        if rel.name in ("page.h", "page.cc") and rel.parts[1] == "engine":
            return  # The page layer is the sanctioned raw-memory boundary.
        if RAW_NEW_RE.search(code) and not OWNED_NEW_RE.search(code):
            self.report(path, idx, "raw-new",
                        "raw new outside the engine page layer; wrap in "
                        "make_unique / unique_ptr immediately")
        if RAW_DELETE_RE.search(code) and not DELETED_FN_RE.search(code):
            self.report(path, idx, "raw-delete",
                        "raw delete outside the engine page layer")

    def _check_blocking_socket(self, path, rel, code, idx) -> None:
        if rel.parts[0] != "src":
            return
        if rel.parts[:3] == ("src", "server", "net"):
            return  # The sanctioned home of raw socket I/O (epoll TCP).
        if SOCKET_CALL_RE.search(code) or SOCKET_INCLUDE_RE.search(code):
            self.report(path, idx, "blocking-socket",
                        "blocking socket call/include outside "
                        "src/server/net; use the net:: front end "
                        "(TcpServer / FrameClient) instead")

    def _check_raw_checkpoint_write(self, path, rel, code, idx) -> None:
        if rel.parts[0] != "src" or len(rel.parts) < 2:
            return
        if rel.parts[1] not in CHECKPOINT_STATE_DIRS:
            return
        if OFSTREAM_RE.search(code) or FSTREAM_INCLUDE_RE.search(code):
            self.report(path, idx, "raw-checkpoint-write",
                        "raw std::ofstream/<fstream> write of model or replay "
                        "state; route it through persist::AtomicWriteFile / "
                        "ChunkWriter (src/persist) so it is checksummed and "
                        "crash-atomic")

    @staticmethod
    def _is_mutex_home(rel: Path) -> bool:
        """src/util/mutex.{h,cc} is the one sanctioned home of the raw
        primitives — everything else goes through its wrappers."""
        return rel.parts[:2] == ("src", "util") and rel.name in (
            "mutex.h", "mutex.cc")

    def _check_raw_mutex(self, path, rel, code, idx) -> None:
        if self._is_mutex_home(rel):
            return
        if RAW_MUTEX_RE.search(code) or MUTEX_INCLUDE_RE.search(code):
            self.report(path, idx, "raw-mutex",
                        "raw std::mutex/condition_variable/lock outside "
                        "src/util/mutex.*; use util::Mutex / util::MutexLock "
                        "/ util::CondVar so the lock is annotated and ranked")

    def _check_naked_notify(self, path, rel, code, code_lines, idx) -> None:
        if rel.parts[0] != "src" or self._is_mutex_home(rel):
            return
        if not NOTIFY_RE.search(code):
            return
        # Walk back through the enclosing function body (clang-format style:
        # every function closes with a column-0 '}', so that brace bounds the
        # scan). Any scoped lock / Lock() / Wait() above the notify means the
        # function participates in the lock protocol and the notify is paired
        # with a guarded mutation.
        j = idx
        while j >= 0:
            line = code_lines[j]
            if j < idx and line.startswith("}"):
                break
            if LOCK_EVIDENCE_RE.search(line):
                return
            j -= 1
        self.report(path, idx, "naked-notify",
                    "notify with no lock acquisition in the enclosing "
                    "function; mutate the predicate state under the "
                    "mutex (or annotate why the caller holds it)")

    def _check_atomic_ordering(self, path, rel, code, idx) -> None:
        match = MEMORY_ORDER_RE.search(code)
        if match:
            self.report(path, idx, "atomic-ordering",
                        f"explicit {match.group(0)} — justify why a "
                        f"non-default memory order is correct here, or drop "
                        f"the argument for seq_cst")

    def _check_raw_intrinsics(self, path, rel, code, idx) -> None:
        if rel.parts[:3] == ("src", "nn", "simd"):
            return  # The sanctioned home of all SIMD intrinsics.
        if INTRINSIC_INCLUDE_RE.search(code) or INTRINSIC_TOKEN_RE.search(code):
            self.report(path, idx, "raw-intrinsics",
                        "raw SIMD intrinsic/include outside src/nn/simd/; "
                        "add a kernel to the GemmKernels dispatch table "
                        "instead so portability and the cross-tier bitwise "
                        "contract stay in one subsystem")

    def _check_unguarded_apply(self, path, rel, code, idx) -> None:
        if rel.parts[0] != "src" or len(rel.parts) < 2:
            return
        if rel.parts[1] in APPLY_EXEMPT_DIRS:
            return
        if APPLY_CONFIG_RE.search(code):
            self.report(path, idx, "unguarded-apply",
                        "direct DbInterface::ApplyConfig call outside "
                        "src/safety; route the deployment through "
                        "safety::ApplyConfig so the guardrail layer cannot "
                        "be bypassed")

    def _check_mutable_global(self, path, rel, code, idx) -> None:
        if rel.parts[0] != "src":
            return
        candidate = None
        static = STATIC_DECL_RE.match(code)
        if static:
            body = static.group(1)
            if SAFE_STATIC_RE.search(code):
                return
            # If the first '(' precedes any '=' or '{', this is a function
            # declaration/definition (e.g. `static Status Ok() { ... }`), not
            # a variable with an initializer.
            paren = body.find("(")
            eq = body.find("=")
            brace = body.find("{")
            if paren >= 0 and (eq < 0 or paren < eq) and (brace < 0 or paren < brace):
                return
            if eq < 0 and brace < 0 and not body.rstrip().endswith(";"):
                return
            candidate = body.strip()
        else:
            glob = NAMESPACE_GLOBAL_RE.match(code)
            if glob and not SAFE_STATIC_RE.search(code):
                candidate = code.strip()
        if candidate:
            self.report(path, idx, "mutable-global",
                        "mutable static/global without a concurrency story "
                        "(const/atomic/mutex/thread_local) — document one "
                        "via annotation or fix the type")


def lint_tree(root: Path,
              paths: list[str] | None = None
              ) -> tuple[AnalysisResult, set[str]]:
    if paths:
        roots = [Path(p).resolve() for p in paths]
    else:
        roots = [root / d for d in SCAN_DIRS]
    files: list[Path] = []
    for scan_root in roots:
        if scan_root.is_file():
            files.append(scan_root)
        elif scan_root.is_dir():
            files.extend(p for p in sorted(scan_root.rglob("*"))
                         if p.suffix in SOURCE_SUFFIXES)

    status_fns = collect_status_functions(
        [p for p in (root / "src").rglob("*.h")])

    linter = Linter(root)
    for path in files:
        linter.lint_file(path, status_fns)
    linter.result.files_scanned = len(files)

    # A bare allow()/allow-file() naming a lint rule is itself a violation
    # (analyze.py owns the same check for its rules).
    for ann in linter.result.annotations:
        if not ann.has_reason and any(r in LINT_RULES for r in ann.rules):
            linter.result.findings.append(Finding(
                path=ann.path, line=ann.line, rule="lint-annotation",
                message=f"{ann.kind}() without a reason"))
    return linter.result, status_fns


def report_suppressions(root: Path) -> int:
    """The suppression-debt gate: every annotation across lint.py,
    analyze.py AND schema.py must carry a reason, name only existing rules,
    and still suppress at least one finding per named rule. Prints the full
    debt ledger plus a trend line, exits non-zero on any debt violation."""
    lint_result, _ = lint_tree(root)
    analyze_result = analyze.analyze_tree(root)
    schema_result = schema.scan_tree(root)

    known_rules = LINT_RULES | analyze.RULES | schema.RULES

    # Live (annotation, rule) pairs: an annotation that actually discharged
    # a finding in one of the tools.
    live: set[tuple[Path, int, str]] = set()
    for result in (lint_result, analyze_result, schema_result):
        for f in result.findings:
            if f.suppressed and f.suppressor is not None:
                live.add((f.suppressor.path, f.suppressor.line, f.rule))

    # The tools scan overlapping files; dedupe annotations by position.
    seen: set[tuple[Path, int]] = set()
    annotations = []
    for result in (lint_result, analyze_result, schema_result):
        for ann in result.annotations:
            key = (ann.path, ann.line)
            if key not in seen:
                seen.add(key)
                annotations.append(ann)
    annotations.sort(key=lambda a: (str(a.path), a.line))

    problems: list[str] = []
    file_level = 0
    rules_suppressed = 0
    for ann in annotations:
        rel = ann.path.relative_to(root) if ann.path.is_relative_to(root) \
            else ann.path
        where = f"{rel}:{ann.line}"
        if ann.kind == "allow-file":
            file_level += 1
        statuses = []
        for rule in ann.rules:
            if rule not in known_rules:
                statuses.append(f"{rule}: UNKNOWN RULE")
                problems.append(f"{where}: allow({rule}) names a rule no "
                                f"tool defines")
                continue
            if (ann.path, ann.line, rule) in live:
                statuses.append(f"{rule}: live")
                rules_suppressed += 1
            else:
                statuses.append(f"{rule}: STALE")
                problems.append(f"{where}: {ann.kind}({rule}) suppresses "
                                f"nothing — the finding moved or was fixed; "
                                f"delete the annotation")
        if not ann.has_reason:
            problems.append(f"{where}: {ann.kind}() without a reason")
        reason = "ok" if ann.has_reason else "MISSING REASON"
        print(f"{where}: [{ann.kind}] {', '.join(statuses)} (reason: {reason})")
        print(f"    {ann.text}")

    files = len({a.path for a in annotations})
    # The trend line: one grep-able record per run so CI can chart debt.
    print(f"\nsuppression-debt: annotations={len(annotations)} "
          f"rules-suppressed={rules_suppressed} file-level={file_level} "
          f"files={files} problems={len(problems)}")
    if problems:
        print("\nsuppression-debt gate FAILED:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: repo)")
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="tree root the dir-gated rules are resolved "
                             "against (tools/lint_selftest.py points this at "
                             "a fixture tree so fixture files under "
                             "<root>/src lint exactly like src/)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON (for CI annotations)")
    parser.add_argument("--include-suppressed", action="store_true",
                        help="with --json, include suppressed findings")
    parser.add_argument("--report-suppressions", action="store_true",
                        help="audit every allow()/allow-file() across lint "
                             "and analyze: reasons, unknown rules, staleness")
    args = parser.parse_args()
    repo_root = args.root.resolve()

    if args.report_suppressions:
        return report_suppressions(repo_root)

    result, status_fns = lint_tree(repo_root, args.paths)
    active = result.active()

    if args.json:
        findings = result.findings if args.include_suppressed else active
        payload = {
            "tool": "lint",
            "root": str(repo_root),
            "files_scanned": result.files_scanned,
            "findings": [{
                "file": analyze.rel_str(f.path, repo_root),
                "line": f.line,
                "rule": f.rule,
                "message": f.message,
                "suppressed": f.suppressed,
            } for f in findings],
            "counts": {},
            "suppressed_count": sum(1 for f in result.findings
                                    if f.suppressed),
        }
        for f in active:
            payload["counts"][f.rule] = payload["counts"].get(f.rule, 0) + 1
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 1 if active else 0

    for f in active:
        print(f"{analyze.rel_str(f.path, repo_root)}:{f.line}: "
              f"[{f.rule}] {f.message}")
    if active:
        print(f"\nlint: {len(active)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint: clean ({result.files_scanned} files, "
          f"{len(status_fns)} Status-returning functions tracked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
