"""Plain-text input documents: complexes, stage families, maps, systems, queries.

The format is line oriented with named brace blocks:

    complex C0 {
      k = 1 1 1
      h = 2 2
      alpha = [2 0 0; 1 0 1]
      beta  = [0 2 0; 0 1 1]
      unital = true
    }

    family C {
      n0 = 0
      k = 3^n 3^n 3^n
      h = 2*3^n 2*3^n
      alpha = [2 0 0; 1 0 1]
      beta  = [0 2 0; 0 1 1]
      unital = true
    }

    map psi : C -> C {          # on a family: stage n -> n+1
      unital = true
      point 1 <- point 1, interior 1
      block 1 <- path 1, interior 1 * 2
    }

    system k0sys { family = C; bonding = psi; degree = 0; constant_from = 0 }

    query { kind = ktheory; target = C0 }

Size expressions may use a stage parameter n: integers, powers like 3^n or
5^(n-1), products, sums, and the built-in block-size recursion l5(n) with
l5(1) = 9 and l5(m+1) = 2*l5(m) + 3^(m+1) + 2*4^(m-1) + (3 + ... + 3^m)*4^m.

Errors carry the 1-based line number of the offending text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..fgab.intmat import IntMatrix
from ..homind import AtInterior, AtPoint, ComplexFamily, FullPath, IndSystem, MapDescription
from ..nccw import NccwComplex


class InputError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


# -- size expressions ---------------------------------------------------------

@lru_cache(maxsize=None)
def l5_value(m: int) -> int:
    if m < 1:
        raise ValueError("l5 is defined for stages >= 1")
    if m == 1:
        return 9
    prev = l5_value(m - 1)
    n = m - 1
    geom = sum(3 ** i for i in range(1, n + 1))
    return 2 * prev + 3 ** (n + 1) + 2 * 4 ** (n - 1) + geom * 4 ** n


@dataclass(frozen=True)
class ExpLin:
    """Exponent of the form n + offset, or a plain integer."""
    has_n: bool
    offset: int

    def value(self, n: Optional[int]) -> int:
        if not self.has_n:
            return self.offset
        if n is None:
            raise ValueError("expression needs a stage parameter")
        return n + self.offset

    def render(self) -> str:
        if not self.has_n:
            return str(self.offset)
        if self.offset == 0:
            return "n"
        return f"(n{'+' if self.offset > 0 else '-'}{abs(self.offset)})"


@dataclass(frozen=True)
class Const:
    value: int

    def eval(self, n):
        return self.value

    def render(self):
        return str(self.value)


@dataclass(frozen=True)
class Power:
    base: int
    exp: ExpLin

    def eval(self, n):
        e = self.exp.value(n)
        if e < 0:
            raise ValueError(f"negative exponent {e} in size expression")
        return self.base ** e

    def render(self):
        return f"{self.base}^{self.exp.render()}"


@dataclass(frozen=True)
class L5:
    arg: ExpLin

    def eval(self, n):
        return l5_value(self.arg.value(n))

    def render(self):
        inner = self.arg.render()
        return f"l5({inner.strip('()')})"


@dataclass(frozen=True)
class SizeExpr:
    """Sum of signed products of factors."""
    terms: tuple  # ((sign, (factor, ...)), ...)

    def eval(self, n: Optional[int] = None) -> int:
        total = 0
        for sign, factors in self.terms:
            prod = sign
            for f in factors:
                prod *= f.eval(n)
            total += prod
        return total

    def is_constant(self) -> bool:
        def const(f):
            if isinstance(f, Const):
                return True
            if isinstance(f, Power):
                return not f.exp.has_n
            return not f.arg.has_n
        return all(all(const(f) for f in fs) for _, fs in self.terms)

    def render(self) -> str:
        # space-free: size lists are whitespace separated
        out = ""
        for idx, (sign, factors) in enumerate(self.terms):
            body = "*".join(f.render() for f in factors)
            if idx == 0:
                out = body if sign > 0 else f"-{body}"
            else:
                out += ("+" if sign > 0 else "-") + body
        return out


class _ExprParser:
    def __init__(self, tokens, line):
        self.toks = tokens
        self.pos = 0
        self.line = line

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, tok):
        t = self.take()
        if t != tok:
            raise InputError(self.line, f"expected '{tok}', found '{t}'")

    def parse(self) -> SizeExpr:
        expr = self.sum()
        if self.peek() is not None:
            raise InputError(self.line, f"unexpected '{self.peek()}' in size expression")
        return expr

    def sum(self) -> SizeExpr:
        terms = [self.term(1)]
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            terms.append(self.term(sign))
        return SizeExpr(tuple(terms))

    def term(self, sign):
        factors = [self.factor()]
        while self.peek() == "*":
            self.take()
            factors.append(self.factor())
        return (sign, tuple(factors))

    def factor(self):
        t = self.take()
        if t == "l5":
            self.expect("(")
            arg = self.explin()
            self.expect(")")
            return L5(arg)
        if isinstance(t, int):
            if self.peek() == "^":
                self.take()
                return Power(t, self.explin())
            return Const(t)
        raise InputError(self.line, f"unexpected '{t}' in size expression")

    def explin(self) -> ExpLin:
        t = self.take()
        if t == "(":
            inner = self.explin()
            self.expect(")")
            return inner
        if t == "n":
            if self.peek() in ("+", "-"):
                sign = 1 if self.take() == "+" else -1
                off = self.take()
                if not isinstance(off, int):
                    raise InputError(self.line, "exponent offset must be an integer")
                return ExpLin(True, sign * off)
            return ExpLin(True, 0)
        if isinstance(t, int):
            return ExpLin(False, t)
        raise InputError(self.line, f"bad exponent '{t}'")


def _tokenize_expr(text: str, line: int):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(int(text[i:j]))
            i = j
        elif c.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        elif c in "+-*^()":
            toks.append(c)
            i += 1
        else:
            raise InputError(line, f"bad character {c!r} in size expression")
    return toks


def parse_size_expr(text: str, line: int = 0) -> SizeExpr:
    return _ExprParser(_tokenize_expr(text, line), line).parse()


# -- document model -----------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    name: str
    n0: int
    k: tuple  # SizeExpr per point block
    h: tuple
    alpha: IntMatrix
    beta: IntMatrix
    unital: bool

    def complex_at(self, n: int) -> NccwComplex:
        return NccwComplex(tuple(e.eval(n) for e in self.k),
                           tuple(e.eval(n) for e in self.h),
                           self.alpha, self.beta, unital=self.unital)


@dataclass(frozen=True)
class MapSpec:
    name: str
    source: str
    target: str
    f1: tuple  # per target point: tuple of (('point'|'interior'), index) 0-based
    f2: tuple  # per target block: tuple of (('point'|'interior'|'path'), index)
    unital: bool

    def atoms_f1(self):
        return tuple(tuple(AtPoint(i) if kind == "point" else AtInterior(i) for kind, i in ms)
                     for ms in self.f1)

    def atoms_f2(self):
        def mk(kind, i):
            if kind == "point":
                return AtPoint(i)
            if kind == "interior":
                return AtInterior(i)
            return FullPath(i)
        return tuple(tuple(mk(kind, i) for kind, i in ms) for ms in self.f2)


@dataclass(frozen=True)
class SystemSpec:
    name: str
    family: str
    bonding: str
    degree: int
    constant_from: Optional[int]


@dataclass(frozen=True)
class Query:
    kind: str
    params: tuple  # sorted (key, value) pairs

    def get(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class InputDocument:
    complexes: tuple  # (name, NccwComplex) pairs in declaration order
    families: tuple   # (name, FamilySpec)
    maps: tuple       # (name, MapSpec)
    systems: tuple    # (name, SystemSpec)
    queries: tuple    # Query

    def complex_names(self):
        return [n for n, _ in self.complexes]

    def get_complex(self, name: str) -> NccwComplex:
        for n, c in self.complexes:
            if n == name:
                return c
        raise KeyError(f"no complex named {name!r}")

    def get_family(self, name: str) -> FamilySpec:
        for n, f in self.families:
            if n == name:
                return f
        raise KeyError(f"no family named {name!r}")

    def get_map(self, name: str) -> MapSpec:
        for n, m in self.maps:
            if n == name:
                return m
        raise KeyError(f"no map named {name!r}")

    def get_system(self, name: str) -> SystemSpec:
        for n, s in self.systems:
            if n == name:
                return s
        raise KeyError(f"no system named {name!r}")

    def family_object(self, sysname: str) -> ComplexFamily:
        sys_spec = self.get_system(sysname)
        fam = self.get_family(sys_spec.family)
        mp = self.get_map(sys_spec.bonding)
        if mp.source != fam.name or mp.target != fam.name:
            raise ValueError(f"system {sysname!r} needs a self-map of family {fam.name!r}")

        def complex_at(n):
            return fam.complex_at(fam.n0 + n)

        def bonding_at(n):
            return MapDescription(complex_at(n), complex_at(n + 1),
                                  mp.atoms_f1(), mp.atoms_f2(), unital=mp.unital)

        return ComplexFamily(complex_at, bonding_at, label=fam.name)

    def system_object(self, sysname: str) -> IndSystem:
        sys_spec = self.get_system(sysname)
        family = self.family_object(sysname)
        if sys_spec.degree == 0:
            return family.k0_system(eventually_constant_from=sys_spec.constant_from)
        return family.k1_system(eventually_constant_from=sys_spec.constant_from)


# -- parser -------------------------------------------------------------------

_QUERY_KINDS = {"ktheory", "ideal", "classify", "identify", "stages", "divisible",
                "dominates", "coeff", "perforation-witness"}


def _split_statements(text: str):
    """Yield (line_number, statement) with comments stripped.

    Semicolons separate statements only outside matrix brackets; an opening
    brace closes the current statement (kept on it), a closing brace is a
    statement by itself, so one-line blocks work.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        depth = 0
        cur = []

        def flush(extra=""):
            stmt = ("".join(cur) + extra).strip()
            cur.clear()
            return stmt

        out = []
        for ch in line:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth < 0:
                    raise InputError(lineno, "unbalanced ']'")
            if depth == 0 and ch == ";":
                out.append(flush())
            elif depth == 0 and ch == "{":
                out.append(flush("{"))
            elif depth == 0 and ch == "}":
                out.append(flush())
                out.append("}")
            else:
                cur.append(ch)
        if depth != 0:
            raise InputError(lineno, "unbalanced '[' (matrix literals cannot span lines)")
        out.append(flush())
        for stmt in out:
            if stmt:
                yield lineno, stmt


def _parse_matrix(text: str, line: int) -> list:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InputError(line, "matrix literal must be bracketed, like [1 0; 0 1]")
    inner = text[1:-1].strip()
    if not inner:
        return []
    rows = []
    for chunk in inner.split(";"):
        entries = chunk.split()
        if not entries:
            raise InputError(line, "empty matrix row")
        try:
            rows.append([int(x) for x in entries])
        except ValueError:
            raise InputError(line, f"matrix entries must be integers: {chunk.strip()!r}")
    if len({len(r) for r in rows}) > 1:
        raise InputError(line, "matrix rows have unequal lengths")
    return rows


def _parse_bool(text: str, line: int) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise InputError(line, f"expected true or false, found {text!r}")


def _parse_atoms(text: str, line: int, kinds=("point", "interior", "path")):
    atoms = []
    text = text.strip()
    if not text:
        return tuple(atoms)
    for chunk in text.split(","):
        parts = chunk.split()
        if len(parts) not in (2, 4):
            raise InputError(line, f"bad evaluation {chunk.strip()!r}; "
                                   "use 'point J', 'interior I' or 'path I', optionally '* MULT'")
        kind, idx = parts[0], parts[1]
        mult = 1
        if len(parts) == 4:
            if parts[2] != "*":
                raise InputError(line, f"bad multiplicity in {chunk.strip()!r}")
            try:
                mult = int(parts[3])
            except ValueError:
                raise InputError(line, f"multiplicity must be an integer in {chunk.strip()!r}")
            if mult < 0:
                raise InputError(line, "multiplicity must be nonnegative")
        if kind not in kinds:
            raise InputError(line, f"unknown evaluation kind {kind!r}")
        try:
            index = int(idx)
        except ValueError:
            raise InputError(line, f"block index must be an integer in {chunk.strip()!r}")
        if index < 1:
            raise InputError(line, "block indices are 1-based")
        atoms.extend([(kind, index - 1)] * mult)
    return tuple(sorted(atoms))


class _Parser:
    def __init__(self, text: str):
        self.statements = list(_split_statements(text))
        self.pos = 0
        self.complexes = []
        self.families = []
        self.maps = []
        self.systems = []
        self.queries = []

    def peek(self):
        return self.statements[self.pos] if self.pos < len(self.statements) else None

    def take(self):
        st = self.peek()
        if st is None:
            raise InputError(self.statements[-1][0] if self.statements else 1,
                             "unexpected end of document")
        self.pos += 1
        return st

    def run(self) -> InputDocument:
        while self.peek() is not None:
            line, stmt = self.take()
            head = stmt.split()
            if head[0] == "complex":
                self.block_complex(line, stmt)
            elif head[0] == "family":
                self.block_family(line, stmt)
            elif head[0] == "map":
                self.block_map(line, stmt)
            elif head[0] == "system":
                self.block_system(line, stmt)
            elif head[0] == "query":
                self.block_query(line, stmt)
            else:
                raise InputError(line, f"unknown section {head[0]!r}")
        return self.validated()

    def _block_header(self, line, stmt, keyword):
        body = stmt[len(keyword):].strip()
        if not body.endswith("{"):
            raise InputError(line, f"{keyword} header must end with '{{'")
        return body[:-1].strip(), line

    def _block_items(self):
        items = []
        while True:
            line, stmt = self.take()
            if stmt == "}":
                return items
            items.append((line, stmt))

    @staticmethod
    def _kv(items):
        out = {}
        rest = []
        for line, stmt in items:
            if "<-" in stmt:
                rest.append((line, stmt))
                continue
            if "=" not in stmt:
                raise InputError(line, f"expected 'key = value', found {stmt!r}")
            key, val = stmt.split("=", 1)
            key = key.strip()
            if key in out:
                raise InputError(line, f"duplicate key {key!r}")
            out[key] = (line, val.strip())
        return out, rest

    def _sizes(self, kv, key, line, required=True):
        if key not in kv:
            if required:
                raise InputError(line, f"missing '{key} = ...'")
            return ()
        ln, val = kv.pop(key)
        return tuple(parse_size_expr(tok, ln) for tok in val.split())

    def block_complex(self, line, stmt):
        name, _ = self._block_header(line, stmt, "complex")
        if not name.isidentifier():
            raise InputError(line, f"bad complex name {name!r}")
        kv, rest = self._kv(self._block_items())
        if rest:
            raise InputError(rest[0][0], "complexes take only 'key = value' lines")
        k = self._sizes(kv, "k", line)
        h = self._sizes(kv, "h", line, required=False)
        for e in (*k, *h):
            if not e.is_constant():
                raise InputError(line, "a concrete complex cannot use the stage parameter n; "
                                       "declare a family instead")
        alpha_ln, alpha_txt = kv.pop("alpha", (line, None))
        beta_ln, beta_txt = kv.pop("beta", (line, None))
        if alpha_txt is None or beta_txt is None:
            raise InputError(line, "complex needs alpha and beta")
        unital = True
        if "unital" in kv:
            ln, val = kv.pop("unital")
            unital = _parse_bool(val, ln)
        if kv:
            bad = sorted(kv)[0]
            raise InputError(kv[bad][0], f"unknown key {bad!r} in complex block")
        ksz = tuple(e.eval(None) for e in k)
        hsz = tuple(e.eval(None) for e in h)
        alpha = _parse_matrix(alpha_txt, alpha_ln)
        beta = _parse_matrix(beta_txt, beta_ln)
        try:
            cx = NccwComplex(ksz, hsz,
                             IntMatrix.from_rows(alpha, cols=len(ksz)),
                             IntMatrix.from_rows(beta, cols=len(ksz)), unital=unital)
        except ValueError as exc:
            raise InputError(line, str(exc))
        if any(n == name for n, _ in self.complexes):
            raise InputError(line, f"duplicate complex {name!r}")
        self.complexes.append((name, cx))

    def block_family(self, line, stmt):
        name, _ = self._block_header(line, stmt, "family")
        if not name.isidentifier():
            raise InputError(line, f"bad family name {name!r}")
        kv, rest = self._kv(self._block_items())
        if rest:
            raise InputError(rest[0][0], "families take only 'key = value' lines")
        n0 = 0
        if "n0" in kv:
            ln, val = kv.pop("n0")
            try:
                n0 = int(val)
            except ValueError:
                raise InputError(ln, "n0 must be an integer")
        k = self._sizes(kv, "k", line)
        h = self._sizes(kv, "h", line, required=False)
        alpha_ln, alpha_txt = kv.pop("alpha", (line, None))
        beta_ln, beta_txt = kv.pop("beta", (line, None))
        if alpha_txt is None or beta_txt is None:
            raise InputError(line, "family needs alpha and beta")
        unital = True
        if "unital" in kv:
            ln, val = kv.pop("unital")
            unital = _parse_bool(val, ln)
        if kv:
            bad = sorted(kv)[0]
            raise InputError(kv[bad][0], f"unknown key {bad!r} in family block")
        alpha = IntMatrix.from_rows(_parse_matrix(alpha_txt, alpha_ln), cols=len(k))
        beta = IntMatrix.from_rows(_parse_matrix(beta_txt, beta_ln), cols=len(k))
        fam = FamilySpec(name, n0, k, h, alpha, beta, unital)
        try:
            fam.complex_at(n0)
        except ValueError as exc:
            raise InputError(line, f"family invalid at its first stage: {exc}")
        if any(n == name for n, _ in self.families):
            raise InputError(line, f"duplicate family {name!r}")
        self.families.append((name, fam))

    def block_map(self, line, stmt):
        head, _ = self._block_header(line, stmt, "map")
        if ":" not in head or "->" not in head:
            raise InputError(line, "map header looks like: map NAME : SRC -> TGT {")
        name, arrow = head.split(":", 1)
        name = name.strip()
        src, tgt = arrow.split("->", 1)
        src, tgt = src.strip(), tgt.strip()
        kv, assigns = self._kv(self._block_items())
        unital = True
        if "unital" in kv:
            ln, val = kv.pop("unital")
            unital = _parse_bool(val, ln)
        if kv:
            bad = sorted(kv)[0]
            raise InputError(kv[bad][0], f"unknown key {bad!r} in map block")
        f1 = {}
        f2 = {}
        for ln, stmt2 in assigns:
            lhs, rhs = stmt2.split("<-", 1)
            parts = lhs.split()
            if len(parts) != 2 or parts[0] not in ("point", "block"):
                raise InputError(ln, "assignment lines look like: point J <- ... or block I <- ...")
            try:
                idx = int(parts[1]) - 1
            except ValueError:
                raise InputError(ln, "assignment index must be an integer")
            if idx < 0:
                raise InputError(ln, "assignment indices are 1-based")
            slot = f1 if parts[0] == "point" else f2
            if idx in slot:
                raise InputError(ln, f"duplicate assignment for {parts[0]} {idx + 1}")
            kinds = ("point", "interior") if parts[0] == "point" else ("point", "interior", "path")
            slot[idx] = _parse_atoms(rhs, ln, kinds)
        self.maps.append((name, MapSpec(name, src, tgt,
                                        tuple(f1.get(i, ()) for i in range(max(f1) + 1 if f1 else 0)),
                                        tuple(f2.get(i, ()) for i in range(max(f2) + 1 if f2 else 0)),
                                        unital), line))

    def block_system(self, line, stmt):
        name, _ = self._block_header(line, stmt, "system")
        kv, rest = self._kv(self._block_items())
        if rest:
            raise InputError(rest[0][0], "systems take only 'key = value' lines")

        def need(key):
            if key not in kv:
                raise InputError(line, f"system needs '{key} = ...'")
            return kv.pop(key)

        fam_ln, fam = need("family")
        bond_ln, bond = need("bonding")
        deg_ln, deg = need("degree")
        try:
            degree = int(deg)
        except ValueError:
            raise InputError(deg_ln, "degree must be 0 or 1")
        if degree not in (0, 1):
            raise InputError(deg_ln, "degree must be 0 or 1")
        constant_from = None
        if "constant_from" in kv:
            ln, val = kv.pop("constant_from")
            try:
                constant_from = int(val)
            except ValueError:
                raise InputError(ln, "constant_from must be an integer")
        if kv:
            bad = sorted(kv)[0]
            raise InputError(kv[bad][0], f"unknown key {bad!r} in system block")
        if any(n == name for n, _, _ in self.systems):
            raise InputError(line, f"duplicate system {name!r}")
        self.systems.append((name, SystemSpec(name, fam, bond, degree, constant_from), line))

    def block_query(self, line, stmt):
        head, _ = self._block_header(line, stmt, "query")
        if head:
            raise InputError(line, "query blocks are anonymous: query { ... }")
        kv, rest = self._kv(self._block_items())
        if rest:
            raise InputError(rest[0][0], "queries take only 'key = value' lines")
        if "kind" not in kv:
            raise InputError(line, "query needs 'kind = ...'")
        ln, kind = kv.pop("kind")
        if kind not in _QUERY_KINDS:
            raise InputError(ln, f"unknown query kind {kind!r}; valid: {sorted(_QUERY_KINDS)}")
        params = tuple(sorted((k, v) for k, (_, v) in kv.items()))
        self.queries.append((Query(kind, params), line))

    def validated(self) -> InputDocument:
        maps = []
        known_complexes = {n for n, _ in self.complexes}
        known_families = {n for n, _ in self.families}
        for name, spec, line in self.maps:
            if any(n == name for n, _ in maps):
                raise InputError(line, f"duplicate map {name!r}")
            if spec.source in known_complexes and spec.target in known_complexes:
                src = dict(self.complexes)[spec.source]
                tgt = dict(self.complexes)[spec.target]
                f1 = tuple(spec.f1[i] if i < len(spec.f1) else () for i in range(tgt.p))
                f2 = tuple(spec.f2[i] if i < len(spec.f2) else () for i in range(tgt.l))
                spec = MapSpec(name, spec.source, spec.target, f1, f2, spec.unital)
                try:
                    MapDescription(src, tgt, spec.atoms_f1(), spec.atoms_f2(), unital=spec.unital)
                except ValueError as exc:
                    raise InputError(line, f"map {name!r}: {exc}")
            elif spec.source in known_families and spec.target == spec.source:
                fam = dict(self.families)[spec.source]
                p, l = len(fam.k), len(fam.h)
                f1 = tuple(spec.f1[i] if i < len(spec.f1) else () for i in range(p))
                f2 = tuple(spec.f2[i] if i < len(spec.f2) else () for i in range(l))
                spec = MapSpec(name, spec.source, spec.target, f1, f2, spec.unital)
                try:
                    MapDescription(fam.complex_at(fam.n0), fam.complex_at(fam.n0 + 1),
                                   spec.atoms_f1(), spec.atoms_f2(), unital=spec.unital)
                except ValueError as exc:
                    raise InputError(line, f"map {name!r} at stage {fam.n0}: {exc}")
            else:
                raise InputError(line, f"map {name!r} must connect two complexes or a family to itself")
            maps.append((name, spec))
        for name, s, ln in self.systems:
            if s.family not in known_families:
                raise InputError(ln, f"system {name!r} references unknown family {s.family!r}")
            if not any(n == s.bonding for n, _ in maps):
                raise InputError(ln, f"system {name!r} references unknown map {s.bonding!r}")
        names = known_complexes | known_families | {n for n, _, _ in self.systems}
        for q, ln in self.queries:
            target = q.get("target") or q.get("system")
            if target is not None and target not in names:
                raise InputError(ln, f"query targets unknown object {target!r}")
        return InputDocument(tuple(self.complexes), tuple(self.families),
                             tuple(maps), tuple((n, s) for n, s, _ in self.systems),
                             tuple(q for q, _ in self.queries))


def parse(text: str) -> InputDocument:
    """Parse and validate a document; raises InputError with a line number."""
    return _Parser(text).run()


# -- rendering ----------------------------------------------------------------

def _render_matrix(M: IntMatrix) -> str:
    if M.rows == 0:
        return "[]"
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in M.entries) + "]"


def _render_atoms(ms) -> str:
    from collections import Counter

    counts = Counter(ms)
    chunks = []
    for (kind, idx), mult in sorted(counts.items()):
        base = f"{kind} {idx + 1}"
        chunks.append(base if mult == 1 else f"{base} * {mult}")
    return ", ".join(chunks)


def render(doc: InputDocument) -> str:
    """Deterministic text form; render(parse(d)) parses back equal."""
    out = []
    for name, c in doc.complexes:
        out.append(f"complex {name} {{")
        out.append("  k = " + " ".join(str(x) for x in c.k))
        out.append("  h = " + " ".join(str(x) for x in c.h))
        out.append("  alpha = " + _render_matrix(c.alpha))
        out.append("  beta = " + _render_matrix(c.beta))
        out.append(f"  unital = {'true' if c.unital else 'false'}")
        out.append("}")
        out.append("")
    for name, f in doc.families:
        out.append(f"family {name} {{")
        out.append(f"  n0 = {f.n0}")
        out.append("  k = " + " ".join(e.render() for e in f.k))
        out.append("  h = " + " ".join(e.render() for e in f.h))
        out.append("  alpha = " + _render_matrix(f.alpha))
        out.append("  beta = " + _render_matrix(f.beta))
        out.append(f"  unital = {'true' if f.unital else 'false'}")
        out.append("}")
        out.append("")
    for name, m in doc.maps:
        out.append(f"map {name} : {m.source} -> {m.target} {{")
        out.append(f"  unital = {'true' if m.unital else 'false'}")
        for i, ms in enumerate(m.f1):
            if ms:
                out.append(f"  point {i + 1} <- " + _render_atoms(ms))
        for i, ms in enumerate(m.f2):
            if ms:
                out.append(f"  block {i + 1} <- " + _render_atoms(ms))
        out.append("}")
        out.append("")
    for name, s in doc.systems:
        out.append(f"system {name} {{")
        out.append(f"  family = {s.family}")
        out.append(f"  bonding = {s.bonding}")
        out.append(f"  degree = {s.degree}")
        if s.constant_from is not None:
            out.append(f"  constant_from = {s.constant_from}")
        out.append("}")
        out.append("")
    for q in doc.queries:
        out.append("query {")
        out.append(f"  kind = {q.kind}")
        for k, v in q.params:
            out.append(f"  {k} = {v}")
        out.append("}")
        out.append("")
    return "\n".join(out)
