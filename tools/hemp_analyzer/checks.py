"""The three hemp_analyzer checks, over the frontend's IR (model.py).

hot-path-purity
    Whole-program call graph from every `HEMP_HOT`-annotated root; any path
    to a forbidden sink — exact MPP/regulated solvers, iterative numeric
    solvers, heap allocation, mutex/thread synchronization, stdio/iostream,
    `throw` — is a finding, reported with the full witness call chain.

determinism
    `std::rand`/`random_device`/`time`/`*_clock` and unordered-container
    usage anywhere under the analyzed tree; `hemp::Rng` is the only allowed
    randomness source.

unit-boundary
    No raw `double` whose name looks like a physical quantity (`*_v`,
    `*power*`, `*_hz`, ... — see SUFFIX_PATTERNS / SUBSTRING_PATTERNS) may
    cross a module boundary: function parameters and raw-double returns are
    checked in every file (headers *and* .cpp, multi-line signatures
    included); data members and namespace-scope variables are checked in
    headers.  Locals inside function bodies are out of scope.

Call resolution policy:
  1. explicitly qualified calls (`Class::f`, `ns::f`) match by suffix;
  2. receiver-typed calls (`x.f()` with `T x` visible as a parameter, local
     or member declaration) match `T::f`, plus overrides in derived classes
     when `T` is a base (virtual dispatch over-approximation);
  3. unqualified calls inside a class match that class's own method first;
  4. otherwise the simple name must be unique across the index to produce an
     edge — ambiguous unqualified names are treated as external.
Sink matching is by callee *name* and is applied even to unresolved calls,
so `malloc`, `push_back`, or `lock` stay sinks without a definition in view.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

HOT_ANNOTATION = "hemp::hot"

# ---------------------------------------------------------------------------
# Sink classification (hot-path-purity)
# ---------------------------------------------------------------------------

SINKS = {
    "exact-solver": {
        # The counted exact solvers and their instrumentation markers.
        "find_mpp", "count_exact_mpp_solve", "count_exact_regulated_solve",
        # Exact optimizer entry points.
        "holistic", "crossover_irradiance",
    },
    "iterative-solver": {
        "brent_root", "grid_refine_minimize", "golden_section_minimize",
        "bisect", "newton_raphson",
    },
    "alloc": {
        "malloc", "calloc", "realloc", "free", "aligned_alloc",
        "make_shared", "make_unique",
        "push_back", "emplace_back", "emplace", "insert", "resize",
        "reserve", "shrink_to_fit", "assign", "append",
    },
    "mutex": {
        "lock", "unlock", "try_lock", "lock_guard", "unique_lock",
        "scoped_lock", "shared_lock", "condition_variable", "notify_one",
        "notify_all", "wait", "wait_for", "wait_until",
    },
    "io": {
        "printf", "fprintf", "sprintf", "snprintf", "vprintf", "puts",
        "putchar", "fputs", "fwrite", "fopen", "fclose", "getline", "endl",
        "flush",
    },
    "throw": {
        # Macro call sites and the [[noreturn]] helpers behind them.
        "HEMP_REQUIRE", "HEMP_CHECK_RANGE", "throw_model_error",
        "throw_range_error",
    },
}

OP_SINK_KIND = {"new": "alloc", "throw": "throw", "io-token": "io"}

# ---------------------------------------------------------------------------
# Determinism sources (vocabulary lives in model.py, shared with the frontend)
# ---------------------------------------------------------------------------

from model import (NONDET_CALLS, NONDET_TOKENS,  # noqa: E402
                   UNORDERED_TOKENS)


@dataclass
class Finding:
    check: str
    key: str               # stable baseline identity
    file: str
    line: int
    message: str
    witness: list = field(default_factory=list)  # call chain, root first

    def render(self) -> str:
        out = f"{self.file}:{self.line}: [{self.check}] {self.message}"
        if self.witness:
            for hop in self.witness:
                out += f"\n    {hop}"
        return out


def _suppressed(ir, line, check) -> bool:
    marks = ir.suppressions.get(line)
    return bool(marks) and (check in marks or "all" in marks)


# ---------------------------------------------------------------------------
# Index over all files
# ---------------------------------------------------------------------------

class ProgramIndex:
    def __init__(self, file_irs):
        self.file_irs = file_irs
        self.functions = []            # definitions only
        self.by_qual = {}              # qualname -> [FunctionInfo]
        self.by_class = {}             # (class, name) -> [FunctionInfo]
        self.by_name = {}              # simple name -> [FunctionInfo]
        self.classes = {}              # simple name -> [ClassInfo]
        self.derived = {}              # base simple name -> [class simple]
        self.hot_quals = set()         # qualnames annotated on any decl
        self.ir_of = {}                # id(FunctionInfo) -> FileIR
        for ir in file_irs:
            for cls in ir.classes:
                self.classes.setdefault(cls.name, []).append(cls)
                for b in cls.bases:
                    self.derived.setdefault(b, []).append(cls.name)
            for fn in ir.functions:
                if HOT_ANNOTATION in fn.annotations:
                    self.hot_quals.add(fn.qualname)
                if not fn.is_definition:
                    continue
                self.functions.append(fn)
                self.ir_of[id(fn)] = ir
                self.by_qual.setdefault(fn.qualname, []).append(fn)
                self.by_name.setdefault(fn.name, []).append(fn)
                if fn.class_name:
                    self.by_class.setdefault((fn.class_name, fn.name),
                                             []).append(fn)

    def member_type(self, class_name, member):
        for cls in self.classes.get(class_name, []):
            t = cls.member_types.get(member)
            if t:
                return t
        return ""

    def resolve(self, fn, call):
        """Resolve one CallEvent to candidate definitions (possibly [])."""
        # 1. Explicit qualifier: suffix match on the qualified name.  Class
        # qualifiers expand through the hierarchy — a qualified virtual call
        # names the *static* receiver class, and the purity check
        # over-approximates dynamic dispatch on purpose.
        if call.qualifier:
            suffix = call.qualifier.split("::")[-1]
            hits = self._methods_with_overrides(suffix, call.name)
            if hits:
                return hits
            full = call.qualifier + "::" + call.name
            hits = [f for q, fs in self.by_qual.items() if
                    q == full or q.endswith("::" + full) for f in fs]
            if hits:
                return hits
        # 2. Typed receiver.
        if call.receiver:
            rtype = fn.local_types.get(call.receiver) or \
                self.member_type(fn.class_name, call.receiver)
            if rtype:
                return self._methods_with_overrides(rtype, call.name)
            return []  # unknown receiver: external
        # 3. Same-class method.
        if fn.class_name:
            hits = self._methods_with_overrides(fn.class_name, call.name)
            if hits:
                return hits
        # 4. Unique simple name.
        hits = self.by_name.get(call.name, [])
        quals = {f.qualname for f in hits}
        if len(quals) == 1:
            return list(hits)
        return []

    def _methods_with_overrides(self, class_name, method):
        seen = set()
        out = []
        stack = [class_name]
        while stack:
            cname = stack.pop()
            if cname in seen:
                continue
            seen.add(cname)
            out.extend(self.by_class.get((cname, method), []))
            stack.extend(self.derived.get(cname, []))
            # Also walk *up*: a method may be defined on a base.
            for cls in self.classes.get(cname, []):
                stack.extend(cls.bases)
        return out


# ---------------------------------------------------------------------------
# Check 1: hot-path purity
# ---------------------------------------------------------------------------

def _sink_kind_for_call(name) -> str | None:
    for kind, names in SINKS.items():
        if name in names:
            return kind
    return None


def check_hot_path_purity(index: ProgramIndex) -> list[Finding]:
    findings = []
    # Hot roots: definitions whose declaration anywhere carries the
    # annotation (a header HEMP_HOT marks the .cpp definition hot too).
    roots = [fn for fn in index.functions
             if HOT_ANNOTATION in fn.annotations or
             fn.qualname in index.hot_quals]
    # BFS over the call graph from all roots at once; parent pointers give
    # the shortest witness chain per reached function.
    parent = {}
    order = deque()
    for r in roots:
        if id(r) not in parent:
            parent[id(r)] = (None, None, r)
            order.append(r)
    reported = set()
    while order:
        fn = order.popleft()
        ir = index.ir_of[id(fn)]

        def chain_to(fn_):
            hops = []
            cur = id(fn_)
            while cur is not None:
                par, _call, f = parent[cur]
                hops.append(f)
                cur = par
            return list(reversed(hops))

        def witness(fn_, tail):
            hops = [f"{h.qualname} ({h.file}:{h.line})"
                    for h in chain_to(fn_)]
            hops.append(tail)
            return hops

        # Intrinsic op sinks in this function.
        for op in fn.ops:
            kind = OP_SINK_KIND.get(op.kind)
            if kind is None or _suppressed(ir, op.line, "hot-path-purity"):
                continue
            key = f"hot-path-purity|{fn.qualname}|{kind}|{op.detail}"
            if key in reported:
                continue
            reported.add(key)
            findings.append(Finding(
                check="hot-path-purity", key=key, file=fn.file, line=op.line,
                message=(f"`{fn.qualname}` is reachable from a HEMP_HOT root "
                         f"and contains a forbidden {kind} operation "
                         f"(`{op.detail}`)"),
                witness=witness(fn, f"{kind}: `{op.detail}` "
                                    f"({fn.file}:{op.line})")))
        for call in fn.calls:
            if _suppressed(ir, call.line, "hot-path-purity"):
                continue
            kind = _sink_kind_for_call(call.name)
            if kind is not None:
                key = f"hot-path-purity|{fn.qualname}|{kind}|{call.name}"
                if key not in reported:
                    reported.add(key)
                    findings.append(Finding(
                        check="hot-path-purity", key=key, file=fn.file,
                        line=call.line,
                        message=(f"`{fn.qualname}` is reachable from a "
                                 f"HEMP_HOT root and calls forbidden {kind} "
                                 f"sink `{call.name}`"),
                        witness=witness(fn, f"{kind}: call `{call.name}` "
                                            f"({fn.file}:{call.line})")))
                continue  # a sink call is terminal; don't also traverse it
            for target in index.resolve(fn, call):
                if id(target) not in parent:
                    parent[id(target)] = (id(fn), call, target)
                    order.append(target)
    findings.sort(key=lambda f: (f.file, f.line, f.key))
    return findings


# ---------------------------------------------------------------------------
# Check 2: determinism
# ---------------------------------------------------------------------------

def check_determinism(file_irs) -> list[Finding]:
    findings = []
    seen = set()

    def add(ir, where, line, what, detail):
        if _suppressed(ir, line, "determinism"):
            return
        key = f"determinism|{where}|{what}|{detail}"
        if key in seen:
            return
        seen.add(key)
        findings.append(Finding(
            check="determinism", key=key, file=ir.path, line=line,
            message=(f"nondeterminism source `{detail}` ({what}) in "
                     f"`{where}`; hemp::Rng is the only allowed randomness "
                     f"source and unordered-container iteration order is "
                     f"not stable")))

    for ir in file_irs:
        for fn in ir.functions:
            for call in fn.calls:
                if call.name in NONDET_CALLS:
                    add(ir, fn.qualname, call.line, "call", call.name)
            for op in fn.ops:
                if op.kind == "io-token":
                    continue
                if op.detail in NONDET_TOKENS | UNORDERED_TOKENS:
                    add(ir, fn.qualname, op.line, "token", op.detail)
            for name, tname in fn.local_types.items():
                if tname in UNORDERED_TOKENS | NONDET_TOKENS:
                    add(ir, fn.qualname, fn.line, "type", tname)
            for p in fn.params:
                for t in p.type_tokens:
                    base = t.split("::")[-1]
                    if base in UNORDERED_TOKENS | NONDET_TOKENS:
                        add(ir, fn.qualname, p.line, "type", base)
        for cls in ir.classes:
            for m in cls.members:
                for t in m.type_tokens:
                    base = t.split("::")[-1]
                    if base in UNORDERED_TOKENS | NONDET_TOKENS:
                        add(ir, cls.qualname, m.line, "member-type", base)
        for v in ir.variables:
            where = v.name if v.scope == "::" else f"{v.scope}::{v.name}"
            for t in v.type_tokens:
                base = t.split("::")[-1]
                if base in UNORDERED_TOKENS | NONDET_TOKENS:
                    add(ir, where, v.line, "variable-type", base)
    findings.sort(key=lambda f: (f.file, f.line, f.key))
    return findings


# ---------------------------------------------------------------------------
# Check 3: unit boundary
# ---------------------------------------------------------------------------

# Identifier patterns that imply a physical quantity.  Suffix matches catch
# the `v_solar`-style hungarian tails; substring matches catch spelled-out
# dimension names.  Deliberately excluded: `_s`, `_f`, `_a`, `amp` (too many
# false positives: `*_s` durations, `ramp`, `sample`, ...).
SUFFIX_PATTERNS = [
    r"_v", r"_mv", r"_uv",
    r"_w", r"_mw", r"_uw",
    r"_ma", r"_ua",
    r"_j", r"_mj", r"_uj", r"_nj", r"_pj",
    r"_hz", r"_khz", r"_mhz", r"_ghz",
    r"_ohm", r"_ohms",
    r"_volts", r"_watts", r"_joules", r"_amps", r"_farads", r"_coulombs",
    r"_seconds", r"_secs",
]
SUBSTRING_PATTERNS = [
    "volt", "watt", "joule", "coulomb", "farad",
    "power", "energy", "charge", "current",
    "freq", "voltage", "resistance", "capacitance", "inductance",
]

_SUFFIX_RE = re.compile(r"(?:%s)$" % "|".join(SUFFIX_PATTERNS))
_SUBSTRING_RE = re.compile("|".join(SUBSTRING_PATTERNS))

# Declaration specifiers that do not change a declaration's unit type.
_NON_TYPE_TOKENS = ("const", "constexpr", "static", "mutable", "inline",
                    "volatile", "extern", "[", "]", "nodiscard", "&")


def is_suspicious(name: str) -> bool:
    """Does this identifier name a physical quantity?"""
    lowered = name.lower().rstrip("_")
    return bool(_SUFFIX_RE.search(lowered) or _SUBSTRING_RE.search(lowered))


def _is_raw_double(type_tokens) -> bool:
    return [t for t in type_tokens if t not in _NON_TYPE_TOKENS] == ["double"]


def check_unit_boundary(file_irs) -> list[Finding]:
    findings = []
    seen = set()

    def add(ir, kind, owner, name, line):
        if _suppressed(ir, line, "unit-boundary") or not is_suspicious(name):
            return
        key = f"unit-boundary|{owner}|{kind}|{name}"
        if key in seen:
            return
        seen.add(key)
        findings.append(Finding(
            check="unit-boundary", key=key, file=ir.path, line=line,
            message=(f"raw `double {name}` ({kind} of `{owner}`) looks "
                     f"like a physical quantity; use a hemp::Quantity "
                     f"strong type (Volts, Watts, Joules, ...) or "
                     f"suppress with `// hemp-analyzer: "
                     f"allow(unit-boundary) — <reason>`")))

    for ir in file_irs:
        is_header = ir.path.endswith((".hpp", ".h", ".hh"))
        for fn in ir.functions:
            for p in fn.params:
                if p.name and _is_raw_double(p.type_tokens):
                    add(ir, "parameter", fn.qualname, p.name, p.line)
            if _is_raw_double(fn.return_tokens):
                add(ir, "return", fn.qualname, fn.name, fn.line)
        if is_header:
            for cls in ir.classes:
                for m in cls.members:
                    if _is_raw_double(m.type_tokens):
                        add(ir, "member", cls.qualname, m.name, m.line)
            for v in ir.variables:
                if _is_raw_double(v.type_tokens):
                    add(ir, "variable", v.scope, v.name, v.line)
    findings.sort(key=lambda f: (f.file, f.line, f.key))
    return findings
