#!/usr/bin/env python3
"""Wire-schema extraction analyzer: prove writer/reader symmetry and gate
checkpoint/protocol drift.

Built on the token/scope-aware lexer from tools/analyze.py. For every
serialization site in src/ this tool statically extracts the ordered field
sequence of each writer/reader pair — `AppendChunks`/`RestoreFromChunks`,
every `SaveBinary`/`LoadBinary`/`RestoreBinary` helper they reach, and the
src/server/net/ frame encoder/decoder — following helper calls one level
deep (deeper levels are themselves extracted pairs) and modeling loops over
aggregates as `repeat{...}` groups and conditional fields as `opt{...}`.

It then
  (a) proves writer/reader *symmetry*: every field written is read with the
      same wire type, in the same order, under the same loop/optional
      structure, and every chunk written under a `writer.Add(name, ...)` is
      decoded by a matching `file.Decode(name, ...)`; and
  (b) emits a canonical machine-readable manifest per format, committed as
      src/persist/SCHEMA.lock (checkpoint container) and
      src/server/net/WIRE.lock (TCP frame header).

Rules
-----
schema-asymmetry     A written field/chunk is read with a different type,
                     order, count structure — or never read at all.
schema-unpaired      A writer (or reader) participant with no counterpart:
                     bytes that nothing can decode, or a decode of a chunk
                     nothing writes.
raw-schema           `AppendRaw` of a payload that is not provably a byte
                     buffer (`x.data(), x.size()` or a string literal):
                     whole-object raw appends hide fields from the schema
                     and serialize padding bytes.
schema-unextractable A serialization site too dynamic for static
                     extraction (unknown method on an Encoder/Decoder,
                     chunk payload that is not a local Encoder, ...).
                     Refactor onto the analyzable idioms or annotate.

Modes
-----
default   print active findings (exit 1 if any)
--check   findings + diff the extracted manifests against the committed
          lock files; unreviewed drift fails (CI gate)
--bless   regenerate the lock files after an intentional, version-bumped
          format change (refuses while findings are active)
--json    machine-readable findings (same schema as lint.py/analyze.py)

Suppressions use the same annotation grammar as lint.py/analyze.py but a
distinct `schema:` prefix so the tools never capture each other's allows:

    writer.Add(name, payload);  // schema: allow(schema-unextractable) — why

`tools/lint.py --report-suppressions` audits these for staleness alongside
the lint/analyze annotations. Exit status 0 when clean, 1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import fnmatch
import json
import re
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analyze  # noqa: E402
from analyze import (  # noqa: E402
    AnalysisResult, Annotation, Finding, SuppressionIndex, Token,
    match_paren, preprocess, rel_str,
)

REPO_ROOT = analyze.REPO_ROOT

RULES = frozenset({
    "schema-asymmetry",
    "schema-unpaired",
    "raw-schema",
    "schema-unextractable",
})

SCHEMA_ALLOW_RE = re.compile(
    r"schema:\s*allow\(([\w\-, ]+)\)(\s*[—–-]\s*\S.*)?")
SCHEMA_ALLOW_FILE_RE = re.compile(
    r"schema:\s*allow-file\(([\w\-, ]+)\)(\s*[—–-]\s*\S.*)?")

SCHEMA_LOCK_REL = Path("src/persist/SCHEMA.lock")
WIRE_LOCK_REL = Path("src/server/net/WIRE.lock")

# persist::Encoder / Decoder wire primitives -> canonical wire type names.
WRITE_TYPES = {
    "WriteU8": "u8", "WriteBool": "bool", "WriteU32": "u32",
    "WriteU64": "u64", "WriteI64": "i64", "WriteDouble": "f64",
    "WriteString": "str", "WriteDoubleVec": "f64vec",
}
READ_TYPES = {
    "ReadU8": "u8", "ReadBool": "bool", "ReadU32": "u32",
    "ReadU64": "u64", "ReadI64": "i64", "ReadDouble": "f64",
    "ReadString": "str", "ReadDoubleVec": "f64vec",
}
# Bulk primitives `WriteDoubles(p, n)` / `ReadDoubles(p, n)`: the same bytes
# as the per-element loop they replace, so they extract as that loop,
# `repeat{f64 p[i]}`, and pair with it.
BULK_WRITE_TYPES = {"WriteDoubles": "f64"}
BULK_READ_TYPES = {"ReadDoubles": "f64"}

# Methods on role objects that move no schema bytes (or whose bytes are the
# container framing, owned by src/persist itself).
IGNORED_MEMBERS = {
    "Release", "bytes", "status", "Finish", "Done", "remaining", "position",
    "ok", "reserve", "Has", "Names", "size", "data", "empty", "error",
}

ROLE_TYPES = {"Encoder": "enc", "Decoder": "dec",
              "ChunkWriter": "writer", "ChunkFile": "file"}
WRITER_ROLES = {"enc", "writer"}
READER_ROLES = {"dec", "file"}

# Identifiers that look like calls but are control flow / operators.
CALL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "static_assert", "decltype", "operator", "new", "delete", "throw", "do",
    "else", "case", "default", "defined", "assert", "alignas", "noexcept",
}

# Writer helper name -> the reader names that pair with it. Beyond these,
# Save->Load / Save->Restore / Append->Restore single substitutions apply.
SPECIAL_PAIRS = {
    "AppendChunks": {"RestoreFromChunks"},
    "AppendCheckpointChunks": {"RestoreCheckpoint"},
}


def scan_schema_annotations(path: Path, raw_lines: list[str]
                            ) -> list[Annotation]:
    """`// schema: allow(rule) — reason` annotations, same grammar as
    lint.py/analyze.py but namespaced so the tools stay independent."""
    out: list[Annotation] = []
    for idx, line in enumerate(raw_lines):
        for regex, kind in ((SCHEMA_ALLOW_RE, "allow"),
                            (SCHEMA_ALLOW_FILE_RE, "allow-file")):
            match = regex.search(line)
            if match and not (kind == "allow"
                              and SCHEMA_ALLOW_FILE_RE.search(line)):
                out.append(Annotation(
                    path=path, line=idx + 1, kind=kind,
                    rules=tuple(r.strip() for r in match.group(1).split(",")
                                if r.strip()),
                    has_reason=bool(match.group(2)),
                    text=line.strip()))
    return out


# ---------------------------------------------------------------------------
# Op model
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One element of an extracted wire schema.

    kind: "field"  — a primitive (type = wire type, name = argument text)
          "sub"    — a helper call that serializes through the role object
                     (type = callee name, name = receiver chain)
          "raw"    — an AppendRaw of a byte buffer
          "repeat" — a loop body (body = ops per iteration)
          "opt"    — a conditionally present group (body = ops)
          "chunk"  — writer.Add(name, payload): type = name pattern,
                     body = the payload Encoder's ops
          "decode" — file.Decode(name, lambda): type = name pattern,
                     body = the lambda's Decoder ops
    """
    kind: str
    line: int
    type: str = ""
    name: str = ""
    body: list["Op"] = dc_field(default_factory=list)


def render_toks(toks: list[Token]) -> str:
    """Compact textual rendering of an expression for messages/manifests:
    strips a leading address-of, unwraps static_cast<T>(x) to x, normalizes
    `->` to `.`, drops whitespace."""
    ts = list(toks)
    while ts and ts[0].kind == "punct" and ts[0].text == "&":
        ts = ts[1:]
    # static_cast< T >( X ) -> X  (repeatedly, outermost first)
    changed = True
    while changed and ts:
        changed = False
        if ts[0].kind == "id" and ts[0].text.endswith("_cast"):
            lt = 1
            if lt < len(ts) and ts[lt].text == "<":
                depth = 0
                j = lt
                while j < len(ts):
                    if ts[j].text == "<":
                        depth += 1
                    elif ts[j].text == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    elif ts[j].text == ">>":
                        depth -= 2
                        if depth <= 0:
                            break
                    j += 1
                if j + 1 < len(ts) and ts[j + 1].text == "(":
                    close = match_paren(ts, j + 1)
                    if close == len(ts) - 1:
                        ts = ts[j + 2:close]
                        changed = True
    out = []
    for t in ts:
        out.append("." if (t.kind == "punct" and t.text == "->") else t.text)
    return "".join(out)


def render_op(op: Op):
    """Canonical JSON-ready rendering (no line numbers: lock files must not
    churn when code moves)."""
    if op.kind == "field":
        return f"{op.type} {op.name}" if op.name else op.type
    if op.kind == "sub":
        return f"sub {op.type}"
    if op.kind == "raw":
        return f"raw {op.name}" if op.name else "raw"
    if op.kind == "repeat":
        return {"repeat": [render_op(o) for o in op.body]}
    if op.kind == "opt":
        return {"opt": [render_op(o) for o in op.body]}
    if op.kind in ("chunk", "decode"):
        return {op.kind: op.type, "ops": [render_op(o) for o in op.body]}
    raise AssertionError(op.kind)


def describe_op(op: Op) -> str:
    r = render_op(op)
    return r if isinstance(r, str) else json.dumps(r, sort_keys=True)


# ---------------------------------------------------------------------------
# Function discovery
# ---------------------------------------------------------------------------


@dataclass
class Func:
    path: Path
    rel: Path
    cls: str
    name: str
    line: int
    params: list[Token]
    body: list[Token]
    # Filled by extraction:
    out_w: list[Op] = dc_field(default_factory=list)
    out_r: list[Op] = dc_field(default_factory=list)
    has_w_param: bool = False
    has_r_param: bool = False

    @property
    def qual(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


def find_functions(tokens: list[Token]) -> list[Func]:
    """Function *definitions* in a token stream: `name(...) ... {body}`.
    Namespace/class braces are transparent; control keywords, declarations
    (`;` after the parens) and macro invocations-as-statements are skipped.
    cls is taken from a `Class::name` qualification when present."""
    out: list[Func] = []
    n = len(tokens)
    i = 0
    while i < n - 1:
        t = tokens[i]
        if t.kind != "id" or t.text in CALL_KEYWORDS or \
                tokens[i + 1].kind != "punct" or tokens[i + 1].text != "(":
            i += 1
            continue
        if i > 0 and tokens[i - 1].kind == "punct" and \
                tokens[i - 1].text == "~":
            i += 1
            continue
        close = match_paren(tokens, i + 1)
        if close < 0:
            i += 1
            continue
        # After the param list: qualifiers, then either `{` (definition,
        # possibly after a ctor-init list introduced by `:`), or something
        # else (declaration / call expression) — skip those.
        j = close + 1
        while j < n and tokens[j].kind == "id" and \
                tokens[j].text in ("const", "noexcept", "override", "final"):
            j += 1
        body_open = -1
        if j < n and tokens[j].kind == "punct" and tokens[j].text == "{":
            body_open = j
        elif j < n and tokens[j].kind == "punct" and tokens[j].text == ":":
            depth = 0
            k = j + 1
            while k < n:
                tk = tokens[k]
                if tk.kind == "punct":
                    if tk.text in ("(", "["):
                        depth += 1
                    elif tk.text in (")", "]"):
                        depth -= 1
                    elif tk.text == "{" and depth == 0:
                        body_open = k
                        break
                    elif tk.text == ";" and depth == 0:
                        break
                k += 1
        if body_open < 0:
            i = close + 1
            continue
        body_close = match_paren(tokens, body_open, "{", "}")
        if body_close < 0:
            i = close + 1
            continue
        cls = ""
        if i >= 2 and tokens[i - 1].kind == "punct" and \
                tokens[i - 1].text == "::" and tokens[i - 2].kind == "id":
            cls = tokens[i - 2].text
        out.append(Func(
            path=Path(), rel=Path(), cls=cls, name=t.text, line=t.line,
            params=tokens[i + 2:close],
            body=tokens[body_open + 1:body_close]))
        i = body_close + 1
    return out


def split_top(toks: list[Token], sep: str) -> list[list[Token]]:
    """Splits at depth-0 occurrences of `sep` (tracking (), [], {})."""
    parts: list[list[Token]] = [[]]
    depth = 0
    for t in toks:
        if t.kind == "punct":
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == sep and depth == 0:
                parts.append([])
                continue
        parts[-1].append(t)
    return parts


def role_params(params: list[Token]) -> dict[str, str]:
    """`persist::Encoder& enc, ...` -> {"enc": "enc", ...}."""
    roles: dict[str, str] = {}
    for group in split_top(params, ","):
        for idx, t in enumerate(group):
            if t.kind == "id" and t.text in ROLE_TYPES:
                j = idx + 1
                while j < len(group) and group[j].kind == "punct" and \
                        group[j].text in ("&", "*", "&&"):
                    j += 1
                if j < len(group) and group[j].kind == "id":
                    roles[group[j].text] = ROLE_TYPES[t.text]
                break
    return roles


def string_literal(tok: Token) -> str | None:
    if tok.kind != "str":
        return None
    text = tok.text
    if text.startswith('R"'):
        m = re.match(r'R"([^(]*)\((.*)\)\1"$', text)
        return m.group(2) if m else ""
    return text[1:-1] if len(text) >= 2 else ""


# ---------------------------------------------------------------------------
# Body extraction
# ---------------------------------------------------------------------------


class Ctx:
    """Extraction context for one function body (and its nested scopes).
    `roles` maps variable name -> role kind; `sinks` maps each role variable
    to the op list its traffic lands in (function-level out_w/out_r for
    params and container roles, a pending buffer for local Encoders that a
    writer.Add() will consume)."""

    def __init__(self, roles: dict[str, str], sinks: dict[str, list[Op]],
                 lambdas: dict[str, tuple[list[str], list[Token]]],
                 strvars: dict[str, str]):
        self.roles = roles
        self.sinks = sinks
        self.lambdas = lambdas
        self.strvars = strvars

    def child_fresh(self) -> "Ctx":
        """Same roles, fresh (empty) sinks — used for loop/branch bodies so
        their ops can be wrapped (repeat/opt) before merging."""
        return Ctx(dict(self.roles), {v: [] for v in self.sinks},
                   self.lambdas, self.strvars)

    def merge_wrapped(self, child: "Ctx", kind: str, line: int) -> None:
        for var, ops in child.sinks.items():
            if not ops:
                continue
            target = self.sinks.get(var)
            if target is None:
                continue  # role declared inside the scope; already drained
            target.append(Op(kind, line, body=ops))

    def merge_flat(self, child: "Ctx") -> None:
        for var, ops in child.sinks.items():
            if not ops:
                continue
            target = self.sinks.get(var)
            if target is not None:
                target.extend(ops)


class Extractor:
    """Extracts ordered wire ops from one file's function bodies."""

    def __init__(self, func: Func, reporter) -> None:
        self.func = func
        self.report = reporter  # fn(line, rule, message)

    def run(self) -> None:
        f = self.func
        roles = role_params(f.params)
        sinks: dict[str, list[Op]] = {}
        for var, role in roles.items():
            if role in WRITER_ROLES:
                sinks[var] = f.out_w
                f.has_w_param = True
            else:
                sinks[var] = f.out_r
                f.has_r_param = True
        ctx = Ctx(roles, sinks, {}, {})
        self.parse_block(f.body, ctx)

    # -- statements ---------------------------------------------------------

    def parse_block(self, toks: list[Token], ctx: Ctx) -> None:
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i]
            if t.kind == "punct" and t.text == ";":
                i += 1
                continue
            if t.kind == "punct" and t.text == "{":
                close = match_paren(toks, i, "{", "}")
                if close < 0:
                    return
                self.parse_block(toks[i + 1:close], ctx)
                i = close + 1
                continue
            if t.kind == "id" and t.text in ("for", "while"):
                i = self.parse_loop(toks, i, ctx)
                continue
            if t.kind == "id" and t.text == "do":
                i = self.parse_do(toks, i, ctx)
                continue
            if t.kind == "id" and t.text == "if":
                i = self.parse_if(toks, i, ctx)
                continue
            # Plain statement: up to the `;` at depth 0 (brace-aware, so a
            # lambda literal inside the statement is consumed whole).
            end = self.stmt_end(toks, i)
            self.parse_stmt(toks[i:end], ctx)
            i = end + 1

    @staticmethod
    def stmt_end(toks: list[Token], start: int) -> int:
        depth = 0
        for j in range(start, len(toks)):
            t = toks[j]
            if t.kind == "punct":
                if t.text in ("(", "[", "{"):
                    depth += 1
                elif t.text in (")", "]", "}"):
                    depth -= 1
                elif t.text == ";" and depth == 0:
                    return j
        return len(toks)

    def parse_stmt(self, stmt: list[Token], ctx: Ctx) -> None:
        if not stmt:
            return
        if stmt[0].kind == "id" and stmt[0].text == "return":
            self.scan_expr(stmt[1:], ctx)
            return
        if self.try_lambda_decl(stmt, ctx):
            return
        self.try_role_decl(stmt, ctx)
        self.try_string_decl(stmt, ctx)
        self.scan_expr(stmt, ctx)

    def try_role_decl(self, stmt: list[Token], ctx: Ctx) -> None:
        """`persist::Encoder enc;` / `Encoder enc(out);` /
        `const persist::ChunkFile& file = ...;` — registers the local role.
        Local Encoders buffer into a pending list (consumed by writer.Add);
        local Decoder/ChunkWriter/ChunkFile traffic lands in the function's
        out lists directly (drivers are filtered out later)."""
        for idx in range(min(len(stmt), 6)):
            t = stmt[idx]
            if t.kind != "id" or t.text not in ROLE_TYPES:
                continue
            if idx > 0 and stmt[idx - 1].kind == "punct" and \
                    stmt[idx - 1].text in (".", "->"):
                return
            j = idx + 1
            while j < len(stmt) and stmt[j].kind == "punct" and \
                    stmt[j].text in ("&", "*", "&&"):
                j += 1
            if j >= len(stmt) or stmt[j].kind != "id":
                return
            nxt = stmt[j + 1] if j + 1 < len(stmt) else None
            if nxt is not None and not (nxt.kind == "punct" and
                                        nxt.text in ("=", "(", "{", ";")):
                return
            var = stmt[j].text
            role = ROLE_TYPES[t.text]
            ctx.roles[var] = role
            if role == "enc":
                ctx.sinks[var] = []  # pending payload buffer
            elif role in ("writer",):
                ctx.sinks[var] = self.func.out_w
            else:
                ctx.sinks[var] = self.func.out_r
            return

    def try_string_decl(self, stmt: list[Token], ctx: Ctx) -> None:
        for idx in range(min(len(stmt), 5)):
            if stmt[idx].kind == "id" and stmt[idx].text == "string":
                j = idx + 1
                while j < len(stmt) and stmt[j].kind == "punct" and \
                        stmt[j].text in ("&", "*"):
                    j += 1
                if j < len(stmt) and stmt[j].kind == "id" and \
                        j + 1 < len(stmt) and \
                        stmt[j + 1].kind == "punct" and \
                        stmt[j + 1].text == "=":
                    ctx.strvars[stmt[j].text] = self.name_pattern(
                        stmt[j + 2:], ctx)
                return

    def try_lambda_decl(self, stmt: list[Token], ctx: Ctx) -> bool:
        """`auto name = [..](params) { body };` — records the lambda for
        call-site inlining; an immediately-invoked lambda is parsed in
        place."""
        if len(stmt) < 5 or stmt[0].kind != "id" or stmt[0].text != "auto":
            return False
        if stmt[1].kind != "id" or stmt[2].kind != "punct" or \
                stmt[2].text != "=" or stmt[3].kind != "punct" or \
                stmt[3].text != "[":
            return False
        cap_close = match_paren(stmt, 3, "[", "]")
        if cap_close < 0:
            return False
        j = cap_close + 1
        param_names: list[str] = []
        if j < len(stmt) and stmt[j].kind == "punct" and stmt[j].text == "(":
            pclose = match_paren(stmt, j)
            if pclose < 0:
                return False
            for group in split_top(stmt[j + 1:pclose], ","):
                ids = [x.text for x in group if x.kind == "id"]
                if ids:
                    param_names.append(ids[-1])
            j = pclose + 1
        depth = 0
        body_open = -1
        while j < len(stmt):
            tk = stmt[j]
            if tk.kind == "punct":
                if tk.text in ("(", "["):
                    depth += 1
                elif tk.text in (")", "]"):
                    depth -= 1
                elif tk.text == "{" and depth == 0:
                    body_open = j
                    break
            j += 1
        if body_open < 0:
            return False
        body_close = match_paren(stmt, body_open, "{", "}")
        if body_close < 0:
            return False
        body = stmt[body_open + 1:body_close]
        ctx.lambdas[stmt[1].text] = (param_names, body)
        nxt = body_close + 1
        if nxt < len(stmt) and stmt[nxt].kind == "punct" and \
                stmt[nxt].text == "(":
            # Immediately invoked (staging-block idiom): inline now.
            self.parse_block(body, ctx)
        return True

    # -- control flow -------------------------------------------------------

    def parse_loop(self, toks: list[Token], i: int, ctx: Ctx) -> int:
        open_p = i + 1
        if open_p >= len(toks) or toks[open_p].text != "(":
            return i + 1
        close_p = match_paren(toks, open_p)
        if close_p < 0:
            return len(toks)
        body_start, body_end, nxt = self.body_span(toks, close_p + 1)
        child = ctx.child_fresh()
        # A read in the loop header (e.g. `while (dec.ReadX(&v))`) belongs
        # to every iteration; scan it into the child first.
        header = toks[open_p + 1:close_p]
        if toks[i].text == "while":
            self.scan_expr(header, child)
        else:
            for part in split_top(header, ";"):
                self.scan_expr(part, child)
        self.parse_block(toks[body_start:body_end], child)
        ctx.merge_wrapped(child, "repeat", toks[i].line)
        return nxt

    def parse_do(self, toks: list[Token], i: int, ctx: Ctx) -> int:
        body_start, body_end, nxt = self.body_span(toks, i + 1)
        child = ctx.child_fresh()
        self.parse_block(toks[body_start:body_end], child)
        ctx.merge_wrapped(child, "repeat", toks[i].line)
        # Skip the trailing `while (...) ;`
        j = nxt
        if j < len(toks) and toks[j].kind == "id" and toks[j].text == "while":
            close = match_paren(toks, j + 1)
            j = close + 1 if close > 0 else j + 1
            if j < len(toks) and toks[j].text == ";":
                j += 1
        return j

    def body_span(self, toks: list[Token], start: int
                  ) -> tuple[int, int, int]:
        """(body_start, body_end, index_after) for a braced or
        single-statement body beginning at `start`."""
        if start < len(toks) and toks[start].kind == "punct" and \
                toks[start].text == "{":
            close = match_paren(toks, start, "{", "}")
            if close < 0:
                return start + 1, len(toks), len(toks)
            return start + 1, close, close + 1
        end = self.stmt_end(toks, start)
        return start, end, min(end + 1, len(toks))

    def parse_if(self, toks: list[Token], i: int, ctx: Ctx) -> int:
        open_p = i + 1
        if open_p >= len(toks) or toks[open_p].text != "(":
            return i + 1
        close_p = match_paren(toks, open_p)
        if close_p < 0:
            return len(toks)
        cond = toks[open_p + 1:close_p]

        # Conjunct analysis: split at top-level && / || and classify each
        # piece. A conjunct is a "gate" when it only tests a Status
        # (`x.ok()` / `!x.ok()`): status-chained sequential decodes are
        # unconditional on the wire.
        conjuncts = self.split_cond(cond)

        cond_ctx = ctx.child_fresh()
        any_plain = False
        for conj in conjuncts:
            probe = ctx.child_fresh()
            self.scan_expr(conj, probe)
            has_ops = any(probe.sinks[v] for v in probe.sinks)
            is_gate = self.is_status_gate(conj)
            if has_ops:
                self.scan_expr(conj, cond_ctx)
            elif not is_gate:
                any_plain = True
        cond_has_ops = any(cond_ctx.sinks[v] for v in cond_ctx.sinks)

        body_start, body_end, nxt = self.body_span(toks, close_p + 1)
        then_ctx = ctx.child_fresh()
        self.parse_block(toks[body_start:body_end], then_ctx)

        else_ctx = None
        if nxt < len(toks) and toks[nxt].kind == "id" and \
                toks[nxt].text == "else":
            else_ctx = ctx.child_fresh()
            ebody_start, ebody_end, enxt = self.body_span(toks, nxt + 1)
            self.parse_block(toks[ebody_start:ebody_end], else_ctx)
            nxt = enxt

        line = toks[i].line
        if cond_has_ops and not any_plain:
            # Every non-gate conjunct reads: the reads are unconditional
            # (the `!dec.ReadX(..) || !dec.ReadY(..)` early-exit idiom).
            ctx.merge_flat(cond_ctx)
            ctx.merge_wrapped(then_ctx, "opt", line)
        elif cond_has_ops:
            # Mixed guard + read (`if (present && !dec.ReadX(..))`): the
            # reads (and any body ops) are optional fields.
            for var in ctx.sinks:
                merged = cond_ctx.sinks.get(var, []) + \
                    then_ctx.sinks.get(var, [])
                if merged:
                    ctx.sinks[var].append(Op("opt", line, body=merged))
        else:
            gate_only = bool(conjuncts) and all(
                self.is_status_gate(c) for c in conjuncts)
            for var in ctx.sinks:
                ops = then_ctx.sinks.get(var, [])
                if not ops:
                    continue
                if gate_only:
                    ctx.sinks[var].extend(ops)
                else:
                    ctx.sinks[var].append(Op("opt", line, body=ops))
        if else_ctx is not None:
            ctx.merge_wrapped(else_ctx, "opt", line)
        return nxt

    @staticmethod
    def split_cond(cond: list[Token]) -> list[list[Token]]:
        parts: list[list[Token]] = [[]]
        depth = 0
        for t in cond:
            if t.kind == "punct":
                if t.text in ("(", "[", "{"):
                    depth += 1
                elif t.text in (")", "]", "}"):
                    depth -= 1
                elif t.text in ("&&", "||") and depth == 0:
                    parts.append([])
                    continue
            parts[-1].append(t)
        return [p for p in parts if p]

    @staticmethod
    def is_status_gate(conj: list[Token]) -> bool:
        for idx in range(len(conj) - 2):
            if conj[idx].kind == "punct" and conj[idx].text in (".", "->") \
                    and conj[idx + 1].kind == "id" \
                    and conj[idx + 1].text == "ok" \
                    and conj[idx + 2].kind == "punct" \
                    and conj[idx + 2].text == "(":
                return True
        return False

    # -- expressions ---------------------------------------------------------

    def scan_expr(self, toks: list[Token], ctx: Ctx) -> None:
        """Emits ops for one expression/statement, in textual order.

        - `enc.WriteX(arg)` / `dec.ReadX(&arg)` -> field
        - `enc.AppendRaw(p, n)` -> raw (+ raw-schema proof)
        - `writer.Add(name, payload)` -> chunk (drains the payload Encoder)
        - `file.Decode(name, [..](Decoder& dec){..})` -> decode
        - `Helper(.., role, ..)` / `obj->Helper(role)` -> sub
        - `localLambda(args)` -> inlined with textual param substitution
        """
        n = len(toks)
        emitted_calls: set[int] = set()
        i = 0
        while i < n:
            t = toks[i]
            prev = toks[i - 1] if i > 0 else None
            prev_is_member = prev is not None and prev.kind == "punct" and \
                prev.text in (".", "->", "::")
            if t.kind == "id" and not prev_is_member and \
                    t.text in ctx.lambdas and i + 1 < n and \
                    toks[i + 1].kind == "punct" and toks[i + 1].text == "(":
                close = match_paren(toks, i + 1)
                if close < 0:
                    return
                params, body = ctx.lambdas[t.text]
                args = split_top(toks[i + 2:close], ",")
                self.parse_block(self.substitute(body, params, args), ctx)
                i = close + 1
                continue
            if t.kind == "id" and not prev_is_member and t.text in ctx.roles:
                var = t.text
                role = ctx.roles[var]
                nxt = toks[i + 1] if i + 1 < n else None
                if nxt is not None and nxt.kind == "punct" and \
                        nxt.text in (".", "->") and i + 3 < n and \
                        toks[i + 2].kind == "id" and \
                        toks[i + 3].kind == "punct" and \
                        toks[i + 3].text == "(":
                    member = toks[i + 2].text
                    close = match_paren(toks, i + 3)
                    if close < 0:
                        return
                    args = toks[i + 4:close]
                    self.handle_member(var, role, member, args, t.line, ctx)
                    i = close + 1
                    continue
                if nxt is not None and nxt.kind == "punct" and \
                        nxt.text in (".", "->"):
                    i += 1
                    continue
                # Role var used as an argument: attribute a sub op to the
                # innermost call expression containing it.
                call = self.innermost_call(toks, i)
                if call is not None and call[0] not in emitted_calls:
                    callee_idx = call[0]
                    emitted_calls.add(callee_idx)
                    recv: list[str] = []
                    k = callee_idx
                    while k >= 2 and toks[k - 1].kind == "punct" and \
                            toks[k - 1].text in (".", "->", "::") and \
                            toks[k - 2].kind == "id":
                        recv.insert(0, toks[k - 2].text)
                        k -= 2
                    ctx.sinks[var].append(Op(
                        "sub", t.line, type=toks[callee_idx].text,
                        name=".".join(recv)))
                i += 1
                continue
            i += 1

    def handle_member(self, var: str, role: str, member: str,
                      args: list[Token], line: int, ctx: Ctx) -> None:
        sink = ctx.sinks[var]
        if role == "enc" and member in WRITE_TYPES:
            sink.append(Op("field", line, type=WRITE_TYPES[member],
                           name=render_toks(args)))
            return
        if role == "dec" and member in READ_TYPES:
            sink.append(Op("field", line, type=READ_TYPES[member],
                           name=render_toks(args)))
            return
        bulk = (BULK_WRITE_TYPES if role == "enc" else
                BULK_READ_TYPES if role == "dec" else {})
        if member in bulk:
            parts = split_top(args, ",")
            if len(parts) != 2:
                self.report(line, "schema-unextractable",
                            f".{member}() with an unexpected arg shape")
                return
            element = Op("field", line, type=bulk[member],
                         name=f"{render_toks(parts[0])}[i]")
            sink.append(Op("repeat", line, body=[element]))
            return
        if role == "enc" and member == "AppendRaw":
            parts = split_top(args, ",")
            if not self.raw_is_bytes(parts):
                self.report(
                    line, "raw-schema",
                    f"AppendRaw of `{render_toks(args)}` is not provably a "
                    f"byte buffer (x.data(), x.size() or a string literal) "
                    f"— whole-object raw appends hide fields from the "
                    f"schema and serialize padding; encode field-wise")
            sink.append(Op("raw", line, name=render_toks(parts[0])
                           if parts else ""))
            return
        if role == "writer" and member == "Add":
            parts = split_top(args, ",")
            if len(parts) != 2:
                self.report(line, "schema-unextractable",
                            "writer.Add() with an unexpected arg shape")
                return
            pattern = self.name_pattern(parts[0], ctx)
            payload_enc = None
            for tok in parts[1]:
                if tok.kind == "id" and ctx.roles.get(tok.text) == "enc":
                    payload_enc = tok.text
                    break
            if payload_enc is None:
                self.report(
                    line, "schema-unextractable",
                    f"chunk `{pattern}` payload is not a local "
                    f"persist::Encoder — the chunk's fields cannot be "
                    f"extracted; build the payload in an Encoder")
                return
            body = list(ctx.sinks[payload_enc])
            ctx.sinks[payload_enc].clear()
            sink.append(Op("chunk", line, type=pattern, body=body))
            return
        if role == "file" and member == "Decode":
            parts = split_top(args, ",")
            if len(parts) < 2:
                self.report(line, "schema-unextractable",
                            "file.Decode() with an unexpected arg shape")
                return
            pattern = self.name_pattern(parts[0], ctx)
            body = self.parse_decode_lambda(parts[1], ctx)
            if body is None:
                self.report(
                    line, "schema-unextractable",
                    f"decode of `{pattern}` is not an inline "
                    f"[..](persist::Decoder& dec) lambda — the chunk's "
                    f"fields cannot be extracted")
                return
            sink.append(Op("decode", line, type=pattern, body=body))
            return
        if member in IGNORED_MEMBERS:
            return
        self.report(
            line, "schema-unextractable",
            f"unknown method `.{member}()` on {role} `{var}` — not a "
            f"recognized wire primitive; extend tools/schema.py or "
            f"refactor onto Write*/Read* helpers")

    def parse_decode_lambda(self, toks: list[Token], ctx: Ctx
                            ) -> list[Op] | None:
        lb = next((idx for idx, t in enumerate(toks)
                   if t.kind == "punct" and t.text == "["), -1)
        if lb < 0:
            return None
        cap_close = match_paren(toks, lb, "[", "]")
        if cap_close < 0 or cap_close + 1 >= len(toks) or \
                toks[cap_close + 1].text != "(":
            return None
        pclose = match_paren(toks, cap_close + 1)
        if pclose < 0:
            return None
        roles = role_params(toks[cap_close + 2:pclose])
        dec_var = next((v for v, r in roles.items() if r == "dec"), None)
        if dec_var is None:
            return None
        depth = 0
        body_open = -1
        for j in range(pclose + 1, len(toks)):
            tk = toks[j]
            if tk.kind == "punct":
                if tk.text in ("(", "["):
                    depth += 1
                elif tk.text in (")", "]"):
                    depth -= 1
                elif tk.text == "{" and depth == 0:
                    body_open = j
                    break
        if body_open < 0:
            return None
        body_close = match_paren(toks, body_open, "{", "}")
        if body_close < 0:
            return None
        ops: list[Op] = []
        child = Ctx(dict(ctx.roles), dict(ctx.sinks), ctx.lambdas,
                    ctx.strvars)
        child.roles[dec_var] = "dec"
        child.sinks[dec_var] = ops
        self.parse_block(toks[body_open + 1:body_close], child)
        return ops

    @staticmethod
    def substitute(body: list[Token], params: list[str],
                   args: list[list[Token]]) -> list[Token]:
        mapping = {p: args[idx] for idx, p in enumerate(params)
                   if idx < len(args)}
        out: list[Token] = []
        for idx, t in enumerate(body):
            prev = body[idx - 1] if idx > 0 else None
            member = prev is not None and prev.kind == "punct" and \
                prev.text in (".", "->", "::")
            if t.kind == "id" and not member and t.text in mapping:
                out.extend(mapping[t.text])
            else:
                out.append(t)
        return out

    @staticmethod
    def innermost_call(toks: list[Token], i: int
                       ) -> tuple[int, int, int] | None:
        """Smallest `callee(...)` interval strictly containing position i;
        returns (callee_idx, open_idx, close_idx)."""
        best = None
        for idx in range(len(toks) - 1):
            t = toks[idx]
            if t.kind != "id" or t.text in CALL_KEYWORDS:
                continue
            if toks[idx + 1].kind != "punct" or toks[idx + 1].text != "(":
                continue
            close = match_paren(toks, idx + 1)
            if close < 0 or not (idx + 1 < i < close):
                continue
            if best is None or (close - idx) < (best[2] - best[0]):
                best = (idx, idx + 1, close)
        return best

    @staticmethod
    def raw_is_bytes(parts: list[list[Token]]) -> bool:
        if not parts:
            return False
        if any(string_literal(t) is not None for t in parts[0]):
            return True
        joined = [t for part in parts for t in part]
        has_data = any(
            joined[k].kind == "id" and joined[k].text == "data" and
            k > 0 and joined[k - 1].kind == "punct" and
            joined[k - 1].text in (".", "->")
            for k in range(len(joined)))
        has_size = any(
            joined[k].kind == "id" and joined[k].text in ("size", "length")
            and k > 0 and joined[k - 1].kind == "punct" and
            joined[k - 1].text in (".", "->")
            for k in range(len(joined)))
        return has_data and has_size

    def name_pattern(self, toks: list[Token], ctx: Ctx) -> str:
        """Chunk-name expression -> glob pattern: literals stay, known
        string locals expand, everything else is `*`."""
        parts = split_top(toks, "+")
        rendered: list[str] = []
        for part in parts:
            lit = next((string_literal(t) for t in part
                        if string_literal(t) is not None), None)
            if lit is not None and all(
                    t.kind != "id" or t.text in ("std",) for t in part):
                rendered.append(lit)
                continue
            ids = [t.text for t in part if t.kind == "id"]
            if len(ids) == 1 and ids[0] in ctx.strvars:
                rendered.append(ctx.strvars[ids[0]])
                continue
            rendered.append("*")
        pattern = "".join(rendered)
        while "**" in pattern:
            pattern = pattern.replace("**", "*")
        return pattern or "*"


# ---------------------------------------------------------------------------
# Tree scan: participants, pairing, symmetry
# ---------------------------------------------------------------------------


@dataclass
class Participant:
    func: Func
    side: str  # "w" | "r"

    @property
    def ops(self) -> list[Op]:
        return self.func.out_w if self.side == "w" else self.func.out_r


def has_schema_ops(ops: list[Op]) -> bool:
    for op in ops:
        if op.kind in ("field", "raw", "chunk", "decode"):
            return True
        if op.kind in ("repeat", "opt") and has_schema_ops(op.body):
            return True
    return False


def reader_candidates(wname: str) -> set[str]:
    cands = set(SPECIAL_PAIRS.get(wname, set()))
    if "Save" in wname:
        cands.add(wname.replace("Save", "Load", 1))
        cands.add(wname.replace("Save", "Restore", 1))
    if "Append" in wname:
        cands.add(wname.replace("Append", "Restore", 1))
    return cands


def sub_pair_ok(wname: str, rname: str) -> bool:
    return rname == wname or rname in reader_candidates(wname)


def strip_collect(ops: list[Op], collected: list[Op]) -> list[Op]:
    """Removes chunk/decode ops (collecting them, flattened) and drops
    emptied repeat/opt wrappers; returns the remaining record-level ops."""
    kept: list[Op] = []
    for op in ops:
        if op.kind in ("chunk", "decode"):
            collected.append(op)
            continue
        if op.kind in ("repeat", "opt"):
            inner = strip_collect(op.body, collected)
            if inner:
                kept.append(Op(op.kind, op.line, body=inner))
            continue
        kept.append(op)
    return kept


def compare_ops(wops: list[Op], rops: list[Op]
                ) -> tuple[str, int, int] | None:
    """Lockstep structural comparison; returns (message, writer_line,
    reader_line) for the first divergence, None when symmetric. Field
    *names* are informational (writer names member variables, reader names
    locals); wire type, order and loop/optional structure must agree."""
    for k in range(max(len(wops), len(rops))):
        if k >= len(wops):
            r = rops[k]
            wline = wops[-1].line if wops else 0
            return (f"reader op `{describe_op(r)}` has no written "
                    f"counterpart (writer ends after {len(wops)} op(s))",
                    wline, r.line)
        if k >= len(rops):
            w = wops[k]
            rline = rops[-1].line if rops else 0
            return (f"field/op `{describe_op(w)}` is written but never "
                    f"read (reader ends after {len(rops)} op(s))",
                    w.line, rline)
        w, r = wops[k], rops[k]
        if w.kind == "field" and r.kind == "field":
            if w.type != r.type:
                return (f"field `{w.name}` is written as {w.type} but read "
                        f"as {r.type} (`{r.name}`)", w.line, r.line)
            continue
        if w.kind == "sub" and r.kind == "sub":
            if not sub_pair_ok(w.type, r.type):
                return (f"writer delegates to `{w.type}` but reader calls "
                        f"`{r.type}`, which does not pair with it",
                        w.line, r.line)
            continue
        if w.kind == "raw" and r.kind == "raw":
            continue
        if w.kind in ("repeat", "opt") and w.kind == r.kind:
            inner = compare_ops(w.body, r.body)
            if inner is not None:
                return inner
            continue
        return (f"writer op `{describe_op(w)}` vs reader op "
                f"`{describe_op(r)}`: structure mismatch "
                f"({w.kind} vs {r.kind})", w.line, r.line)
    return None


class TreeScan:
    def __init__(self, root: Path):
        self.root = root
        self.result = AnalysisResult()
        self.supp: dict[Path, SuppressionIndex] = {}
        self.participants: list[Participant] = []
        self.wire_files: dict[str, tuple[Path, Path, list[Token], str]] = {}
        self.chunk_magic = ""
        self.reported: set[tuple[Path, int, str]] = set()

    def report(self, path: Path, line: int, rule: str, message: str) -> None:
        # The extractor and the whole-file AppendRaw sweep can both see the
        # same call site; keep one finding per (file, line, rule).
        key = (path, line, rule)
        if key in self.reported:
            return
        self.reported.add(key)
        supp = self.supp.get(path)
        ann = supp.lookup(rule, line) if supp else None
        self.result.findings.append(Finding(
            path=path, line=line, rule=rule, message=message,
            suppressed=ann is not None, suppressor=ann))

    def run(self) -> None:
        src = self.root / "src"
        if not src.is_dir():
            return
        for path in sorted(src.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            self.scan_file(path)
        self.pair_and_compare()
        for ann in self.result.annotations:
            if not ann.has_reason and any(r in RULES for r in ann.rules):
                self.result.findings.append(Finding(
                    path=ann.path, line=ann.line, rule="schema-annotation",
                    message=f"schema: {ann.kind}() without a reason"))

    def scan_file(self, path: Path) -> None:
        rel = path.relative_to(self.root)
        text = path.read_text(encoding="utf-8", errors="replace")
        self.result.files_scanned += 1
        raw_lines = text.splitlines()
        annotations = scan_schema_annotations(path, raw_lines)
        self.result.annotations.extend(annotations)
        self.supp[path] = SuppressionIndex(path, raw_lines, annotations)
        if not any(marker in text for marker in
                   ("Encoder", "Decoder", "ChunkWriter", "ChunkFile",
                    "AppendRaw", "PutU32", "GetU32")):
            return
        code_lines, _ = preprocess(text)
        tokens = analyze.lex(code_lines, keep_strings=True)
        is_persist = rel.parts[:2] == ("src", "persist")
        is_net = rel.parts[:3] == ("src", "server", "net")
        if is_persist:
            # The container framing itself lives here (SCHEMA.lock's
            # `container` section documents it); only the raw-schema rule
            # applies to the infrastructure.
            self.scan_raw_calls(path, tokens)
            m = re.search(r'k\w*Magic\s*(?:\[\s*\])?\s*=\s*"([^"]*)"', text)
            if m and not self.chunk_magic:
                self.chunk_magic = m.group(1)
            return
        if is_net:
            self.wire_files[path.name] = (path, rel, tokens, text)
            return
        self.scan_raw_calls(path, tokens)
        for func in find_functions(tokens):
            func.path = path
            func.rel = rel
            if not any(t.kind == "id" and t.text in ROLE_TYPES
                       for t in func.params + func.body):
                continue
            Extractor(func, lambda line, rule, msg, p=path:
                      self.report(p, line, rule, msg)).run()
            # Participation: a role *parameter* makes the function part of
            # the schema even when it only delegates (its subs are ordered
            # wire traffic); a local-role function participates only when
            # it moves real bytes itself — otherwise it is a driver
            # (Save()/Load() wrappers around AppendChunks/RestoreFromChunks)
            # and its delegations are covered by the callee pairs.
            if func.out_w and (func.has_w_param or
                               has_schema_ops(func.out_w)):
                self.participants.append(Participant(func, "w"))
            if func.out_r and (func.has_r_param or
                               has_schema_ops(func.out_r)):
                self.participants.append(Participant(func, "r"))

    def scan_raw_calls(self, path: Path, tokens: list[Token]) -> None:
        n = len(tokens)
        for i, t in enumerate(tokens):
            if t.kind != "id" or t.text != "AppendRaw":
                continue
            prev = tokens[i - 1] if i > 0 else None
            if prev is None or prev.kind != "punct" or \
                    prev.text not in (".", "->"):
                continue  # definition/declaration, not a call
            if i + 1 >= n or tokens[i + 1].kind != "punct" or \
                    tokens[i + 1].text != "(":
                continue
            close = match_paren(tokens, i + 1)
            if close < 0:
                continue
            args = tokens[i + 2:close]
            if not Extractor.raw_is_bytes(split_top(args, ",")):
                self.report(
                    path, t.line, "raw-schema",
                    f"AppendRaw of `{render_toks(args)}` is not provably a "
                    f"byte buffer (x.data(), x.size() or a string literal) "
                    f"— whole-object raw appends hide fields from the "
                    f"schema and serialize padding; encode field-wise")

    # -- pairing ------------------------------------------------------------

    def pair_and_compare(self) -> None:
        groups: dict[tuple[str, str], list[Participant]] = {}
        for p in self.participants:
            groups.setdefault((str(p.func.rel), p.func.cls), []).append(p)

        # Global chunk registry: a reader may decode a chunk that a writer
        # in a *different* pair produced (the server decodes agent/options,
        # which DdpgAgent::AppendChunks wrote under its prefix).
        registry: list[Op] = []
        reg_owner: dict[int, Func] = {}
        for p in self.participants:
            if p.side != "w":
                continue
            chunks: list[Op] = []
            strip_collect(p.ops, chunks)
            for c in chunks:
                registry.append(c)
                reg_owner[id(c)] = p.func

        self.pairs: list[tuple[Participant, Participant]] = []
        for (rel, cls), members in sorted(groups.items()):
            writers = [p for p in members if p.side == "w"]
            readers = [p for p in members if p.side == "r"]
            used: set[int] = set()
            for w in writers:
                cands = reader_candidates(w.func.name)
                match = [r for r in readers if r.func.name in cands
                         and id(r) not in used]
                if not match and len(writers) == 1 and len(readers) == 1:
                    match = readers[:]
                if len(match) != 1:
                    wanted = ", ".join(sorted(cands)) or "a Load/Restore twin"
                    self.report(
                        w.func.path, w.func.line, "schema-unpaired",
                        f"writer `{w.func.qual}` has no reader counterpart "
                        f"(looked for {wanted} in {rel}) — bytes nothing "
                        f"can decode")
                    continue
                used.add(id(match[0]))
                self.pairs.append((w, match[0]))
            for r in readers:
                if id(r) not in used:
                    self.report(
                        r.func.path, r.func.line, "schema-unpaired",
                        f"reader `{r.func.qual}` has no writer counterpart "
                        f"in {rel} — it decodes bytes nothing writes")
        for w, r in self.pairs:
            self.compare_pair(w, r, registry, reg_owner)

    def loc(self, path: Path, line: int) -> str:
        return f"{rel_str(path, self.root)}:{line}"

    def compare_pair(self, w: Participant, r: Participant,
                     registry: list[Op], reg_owner: dict[int, Func]) -> None:
        wchunks: list[Op] = []
        rdecodes: list[Op] = []
        wkept = strip_collect(w.ops, wchunks)
        rkept = strip_collect(r.ops, rdecodes)
        mismatch = compare_ops(wkept, rkept)
        if mismatch is not None:
            msg, wline, rline = mismatch
            self.report(
                w.func.path, wline or w.func.line, "schema-asymmetry",
                f"{w.func.qual} / {r.func.qual}: {msg} "
                f"[written at {self.loc(w.func.path, wline or w.func.line)},"
                f" read at {self.loc(r.func.path, rline or r.func.line)}]")
            return  # one finding per pair: fix and re-run

        matched_r: set[int] = set()
        for c in wchunks:
            d = self.match_chunk(c, rdecodes, matched_r)
            if d is None:
                self.report(
                    w.func.path, c.line, "schema-asymmetry",
                    f"chunk `{c.type}` is written by {w.func.qual} at "
                    f"{self.loc(w.func.path, c.line)} but never decoded by "
                    f"{r.func.qual}")
                continue
            matched_r.add(id(d))
            inner = compare_ops(c.body, d.body)
            if inner is not None:
                msg, wline, rline = inner
                self.report(
                    w.func.path, wline or c.line, "schema-asymmetry",
                    f"chunk `{c.type}`: {msg} [written at "
                    f"{self.loc(w.func.path, wline or c.line)}, read at "
                    f"{self.loc(r.func.path, rline or d.line)}]")
        for d in rdecodes:
            if id(d) in matched_r:
                continue
            # Not written by this pair's writer: search the global
            # registry before declaring the decode unpaired.
            g = self.match_chunk(d, registry, set())
            if g is None:
                self.report(
                    r.func.path, d.line, "schema-unpaired",
                    f"{r.func.qual} decodes chunk `{d.type}` that no "
                    f"writer produces")
                continue
            owner = reg_owner.get(id(g))
            inner = compare_ops(g.body, d.body)
            if inner is not None and owner is not None:
                msg, wline, rline = inner
                self.report(
                    r.func.path, rline or d.line, "schema-asymmetry",
                    f"chunk `{d.type}` (written by {owner.qual}): {msg} "
                    f"[written at {self.loc(owner.path, wline or g.line)}, "
                    f"read at {self.loc(r.func.path, rline or d.line)}]")

    @staticmethod
    def match_chunk(c: Op, pool: list[Op], taken: set[int]) -> Op | None:
        exact = [d for d in pool if id(d) not in taken and d.type == c.type]
        if exact:
            return exact[0]
        globbed = [d for d in pool if id(d) not in taken and
                   (fnmatch.fnmatchcase(d.type, c.type) or
                    fnmatch.fnmatchcase(c.type, d.type))]
        return globbed[0] if len(globbed) >= 1 else None

    # -- manifests ----------------------------------------------------------

    def schema_manifest(self) -> dict | None:
        if not self.pairs:
            return None
        records = {}
        for w, r in sorted(self.pairs,
                           key=lambda p: (str(p[0].func.rel),
                                          p[0].func.qual)):
            key = f"{w.func.rel.as_posix()}::{w.func.qual}"
            records[key] = {
                "writer": w.func.qual,
                "reader": r.func.qual,
                "ops": [render_op(op) for op in w.ops],
            }
        return {
            "format": "cdbtune-checkpoint-v1",
            "container": {
                "magic": self.chunk_magic,
                "frame": "u32 name_len, raw name, u64 payload_len, "
                         "raw payload, u32 crc32(name_len..payload)",
                "commit": "trailing __end__ record carrying the u64 "
                          "chunk count; absent or short means torn write",
            },
            "records": records,
        }


# ---------------------------------------------------------------------------
# Wire (frame header) extractor — src/server/net/
# ---------------------------------------------------------------------------


def extract_wire(scan: TreeScan) -> dict | None:
    entry = scan.wire_files.get("frame.cc")
    header = scan.wire_files.get("frame.h")
    if entry is None:
        return None
    path, rel, tokens, _text = entry
    consts: dict[str, int] = {}
    if header is not None:
        for name in ("kFrameMagic", "kFrameVersion", "kFrameHeaderBytes"):
            m = re.search(name + r"\s*=\s*(0[xX][0-9a-fA-F]+|\d+)",
                          header[3])
            if m:
                consts[name] = int(m.group(1), 0)

    funcs = find_functions(tokens)
    writer = next((f for f in funcs if f.name not in ("PutU32", "GetU32")
                   and any(t.kind == "id" and t.text == "PutU32"
                           for t in f.body)), None)
    reader = next((f for f in funcs if f.name not in ("PutU32", "GetU32")
                   and any(t.kind == "id" and t.text == "GetU32"
                           for t in f.body)), None)
    if writer is None or reader is None:
        scan.report(path, 1, "schema-unextractable",
                    "could not locate the frame encoder (PutU32 caller) "
                    "and decoder (GetU32 caller) in frame.cc")
        return None
    writer.path = reader.path = path

    # Writer: ordered header fields from PutU32 / .push_back on the wire
    # string, then the payload append.
    fields: list[dict] = []
    field_lines: list[int] = []
    offset = 0
    payload_written = False
    toks = writer.body
    i = 0
    while i < len(toks) - 1:
        t = toks[i]
        if t.kind == "id" and t.text == "PutU32" and \
                toks[i + 1].text == "(":
            close = match_paren(toks, i + 1)
            parts = split_top(toks[i + 2:close], ",")
            name = render_toks(parts[1]) if len(parts) > 1 else ""
            fields.append({"offset": offset, "size": 4, "type": "u32",
                           "name": name})
            field_lines.append(t.line)
            offset += 4
            i = close + 1
            continue
        if t.kind == "id" and t.text == "push_back" and i > 0 and \
                toks[i - 1].kind == "punct" and toks[i - 1].text == "." and \
                toks[i + 1].text == "(":
            close = match_paren(toks, i + 1)
            args = toks[i + 2:close]
            name = render_toks(args)
            if any(a.kind == "chr" for a in args):
                name = "reserved"
            fields.append({"offset": offset, "size": 1, "type": "u8",
                           "name": name})
            field_lines.append(t.line)
            offset += 1
            i = close + 1
            continue
        if t.kind == "id" and t.text == "append" and i > 0 and \
                toks[i - 1].kind == "punct" and toks[i - 1].text == ".":
            payload_written = True
        i += 1

    # Reader: (offset, size) coverage from GetU32(base [+ N]) calls and
    # base[N] byte reads; textual order is irrelevant — the header is
    # random-access — so symmetry is judged by offset.
    reads: dict[int, tuple[int, str, int]] = {}  # offset -> (size, type, ln)
    bases: set[str] = set()
    toks = reader.body
    payload_read = False
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text == "GetU32" and i + 1 < len(toks) and \
                toks[i + 1].text == "(":
            close = match_paren(toks, i + 1)
            arg = toks[i + 2:close]
            ids = [a.text for a in arg if a.kind == "id"]
            nums = [a.text for a in arg if a.kind == "num"]
            if ids:
                bases.add(ids[0])
            off = int(nums[0], 0) if nums else 0
            reads.setdefault(off, (4, "u32", t.line))
        if t.kind == "id" and t.text == "assign":
            payload_read = True
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text in bases and i + 3 < len(toks) and \
                toks[i + 1].kind == "punct" and toks[i + 1].text == "[" and \
                toks[i + 2].kind == "num" and \
                toks[i + 3].kind == "punct" and toks[i + 3].text == "]":
            off = int(toks[i + 2].text, 0)
            reads.setdefault(off, (1, "u8", t.line))

    header_bytes = consts.get("kFrameHeaderBytes", offset)
    if offset != header_bytes:
        scan.report(path, writer.line, "schema-asymmetry",
                    f"frame encoder emits a {offset}-byte header but "
                    f"kFrameHeaderBytes is {header_bytes}")
    for idx, f in enumerate(fields):
        got = reads.get(f["offset"])
        if got is None:
            scan.report(
                path, field_lines[idx], "schema-asymmetry",
                f"header field `{f['name']}` ({f['type']} at offset "
                f"{f['offset']}) is written at "
                f"{scan.loc(path, field_lines[idx])} but the decoder never "
                f"reads that offset")
        elif got[0] != f["size"]:
            scan.report(
                path, field_lines[idx], "schema-asymmetry",
                f"header field `{f['name']}` at offset {f['offset']} is "
                f"written as {f['size']} byte(s) at "
                f"{scan.loc(path, field_lines[idx])} but read as {got[0]} "
                f"byte(s) at {scan.loc(path, got[2])}")
    covered = {f["offset"] for f in fields}
    for off, (size, typ, ln) in sorted(reads.items()):
        if off >= header_bytes:
            continue
        if off not in covered:
            scan.report(
                path, ln, "schema-asymmetry",
                f"decoder reads {typ} at header offset {off} "
                f"({scan.loc(path, ln)}) but the encoder writes no field "
                f"there")
    if payload_written != payload_read:
        scan.report(path, writer.line, "schema-asymmetry",
                    "payload handling differs between frame encoder and "
                    "decoder")

    return {
        "format": "cdbtune-frame-v1",
        "magic": f"0x{consts['kFrameMagic']:08X}"
                 if "kFrameMagic" in consts else "",
        "version": consts.get("kFrameVersion", 0),
        "header_bytes": header_bytes,
        "fields": fields,
        "payload": f"`length` bytes immediately after the "
                   f"{header_bytes}-byte header",
        "writer": writer.qual,
        "reader": reader.qual,
    }


# ---------------------------------------------------------------------------
# Public API + CLI
# ---------------------------------------------------------------------------


def extract_tree(root: Path) -> tuple[AnalysisResult, dict | None,
                                      dict | None]:
    scan = TreeScan(root)
    scan.run()
    wire = extract_wire(scan)
    return scan.result, scan.schema_manifest(), wire


def scan_tree(root: Path) -> AnalysisResult:
    """Findings + annotations only — the debt gate's entry point
    (tools/lint.py --report-suppressions)."""
    return extract_tree(root)[0]


def canonical(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def check_locks(root: Path, schema: dict | None, wire: dict | None,
                bless: bool) -> int:
    status = 0
    for manifest, lock_rel in ((schema, SCHEMA_LOCK_REL),
                               (wire, WIRE_LOCK_REL)):
        if manifest is None:
            continue
        lock_path = root / lock_rel
        text = canonical(manifest)
        if bless:
            lock_path.parent.mkdir(parents=True, exist_ok=True)
            lock_path.write_text(text, encoding="utf-8")
            print(f"schema: blessed {lock_rel}")
            continue
        if not lock_path.is_file():
            print(f"schema: {lock_rel} is missing — run "
                  f"`tools/schema.py --bless` to create it",
                  file=sys.stderr)
            status = 1
            continue
        committed = lock_path.read_text(encoding="utf-8")
        if committed != text:
            print(f"schema: {lock_rel} drifted from the extracted schema:",
                  file=sys.stderr)
            diff = difflib.unified_diff(
                committed.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=f"{lock_rel} (committed)",
                tofile=f"{lock_rel} (extracted)")
            sys.stderr.writelines(diff)
            print("schema: if this change is intentional, bump the format "
                  "version (DESIGN.md §14 add-a-field rule) and run "
                  "`tools/schema.py --bless`", file=sys.stderr)
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="tree root to scan (src/ underneath it); the "
                             "selftest points this at fixture trees")
    parser.add_argument("--check", action="store_true",
                        help="also diff extracted manifests against the "
                             "committed SCHEMA.lock / WIRE.lock (CI gate)")
    parser.add_argument("--bless", action="store_true",
                        help="regenerate the lock files (requires a clean "
                             "extraction: no active findings)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON (CI annotations)")
    parser.add_argument("--include-suppressed", action="store_true",
                        help="with --json, include suppressed findings")
    args = parser.parse_args()
    root = args.root.resolve()

    result, schema, wire = extract_tree(root)
    active = result.active()

    if args.json:
        findings = result.findings if args.include_suppressed else active
        payload = {
            "tool": "schema",
            "root": str(root),
            "files_scanned": result.files_scanned,
            "findings": [{
                "file": rel_str(f.path, root),
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
        print(f"{rel_str(f.path, root)}:{f.line}: [{f.rule}] {f.message}")
    if active:
        print(f"\nschema: {len(active)} finding(s)", file=sys.stderr)
        if args.bless:
            print("schema: refusing to --bless while findings are active",
                  file=sys.stderr)
        return 1

    status = 0
    if args.check or args.bless:
        status = check_locks(root, schema, wire, args.bless)
    if status == 0:
        suppressed = sum(1 for f in result.findings if f.suppressed)
        n_records = len(schema["records"]) if schema else 0
        print(f"schema: clean ({result.files_scanned} files, {n_records} "
              f"record pair(s), {suppressed} suppressed finding(s))")
    return status


if __name__ == "__main__":
    sys.exit(main())
