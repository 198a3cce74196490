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

from collections import Counter
from typing import Optional

from ..fgab.intmat import IntMatrix, Value
from ..homind import AtInterior, AtPoint, ComplexFamily, FullPath, IndSystem, MapDescription
from ..nccw import NccwComplex


class InputError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


# -- size expressions ---------------------------------------------------------

def l5_value(m: int) -> int:
    """l5(1) = 9, l5(m+1) = 2 l5(m) + 3^(m+1) + 2*4^(m-1) + (3 + ... + 3^m) 4^m,
    in closed form: the division by 20 is exact."""
    if m < 1:
        raise ValueError("l5 is defined for stages >= 1")
    return (2 ** (m + 1) + 60 * 3 ** m - 10 * 4 ** m + 3 * 12 ** m) // 20


# Expressions and document nodes are Values: the round trip
# parse(render(doc)) == doc compares them.

class ExpLin(Value):
    """Exponent of the form n + offset, or a plain integer."""

    __slots__ = ("has_n", "offset")

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


class Const(Value):
    __slots__ = ("value",)

    def eval(self, n):
        return self.value

    def render(self):
        return str(self.value)


class Power(Value):
    __slots__ = ("base", "exp")

    def eval(self, n):
        e = self.exp.value(n)
        if e < 0:
            raise ValueError(f"negative exponent {e} in size expression")
        return self.base ** e

    def render(self):
        return f"{self.base}^{self.exp.render()}"


class L5(Value):
    __slots__ = ("arg",)

    def eval(self, n):
        return l5_value(self.arg.value(n))

    def render(self):
        inner = self.arg.render()
        return f"l5({inner.strip('()')})"


class SizeExpr(Value):
    """Sum of signed products of factors."""

    __slots__ = ("terms",)  # ((sign, (factor, ...)), ...)

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

    __str__ = render


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
            arg = self.explin(True)
            self.expect(")")
            return L5(arg)
        if isinstance(t, int):
            if self.peek() == "^":
                self.take()
                return Power(t, self.explin())
            return Const(t)
        raise InputError(self.line, f"unexpected '{t}' in size expression")

    def explin(self, offset: bool = False) -> ExpLin:
        # n +- k only inside parentheses: B^n+1 is B^n plus 1
        t = self.take()
        if t == "(":
            inner = self.explin(True)
            self.expect(")")
            return inner
        if t == "n":
            if offset and self.peek() in ("+", "-"):
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

class FamilySpec(Value):
    __slots__ = ("name", "n0",
                 "k",  # SizeExpr per point block
                 "h", "alpha", "beta", "unital")

    def complex_at(self, n: int) -> NccwComplex:
        return NccwComplex(tuple(e.eval(n) for e in self.k),
                           tuple(e.eval(n) for e in self.h),
                           self.alpha, self.beta, unital=self.unital)


class MapSpec(Value):
    __slots__ = ("name", "source", "target",
                 "f1",  # per target point: AtPoint / AtInterior atoms, keyword then index order
                 "f2",  # per target block: AtPoint / AtInterior / FullPath atoms
                 "unital")


class SystemSpec(Value):
    __slots__ = ("name", "family", "bonding", "degree", "constant_from")


class Query(Value):
    __slots__ = ("kind", "params")  # params: sorted (key, value) pairs

    def get(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


def _lookup(pairs, name: str, what: str):
    for n, value in pairs:
        if n == name:
            return value
    raise KeyError(f"no {what} named {name!r}")


class InputDocument(Value):
    __slots__ = ("complexes",  # (name, NccwComplex) pairs in declaration order
                 "families",   # (name, FamilySpec)
                 "maps",       # (name, MapSpec)
                 "systems",    # (name, SystemSpec)
                 "queries")    # Query

    def complex_names(self):
        return [n for n, _ in self.complexes]

    def get_complex(self, name: str) -> NccwComplex:
        return _lookup(self.complexes, name, "complex")

    def get_family(self, name: str) -> FamilySpec:
        return _lookup(self.families, name, "family")

    def get_map(self, name: str) -> MapSpec:
        return _lookup(self.maps, name, "map")

    def get_system(self, name: str) -> SystemSpec:
        return _lookup(self.systems, name, "system")

    def family_object(self, sysname: str) -> ComplexFamily:
        """The system's family, its stage 0 at the family's n0; parsing
        checked that its bonding is a self-map."""
        sys_spec = self.get_system(sysname)
        fam = self.get_family(sys_spec.family)
        mp = self.get_map(sys_spec.bonding)
        return ComplexFamily(lambda n: fam.complex_at(fam.n0 + n),
                             lambda n: (mp.f1, mp.f2, mp.unital), sys_spec.constant_from)

    def system_object(self, sysname: str) -> IndSystem:
        family = self.family_object(sysname)
        if self.get_system(sysname).degree == 0:
            return family.k0_system()
        return family.k1_system()


# -- parser -------------------------------------------------------------------

_QUERY_KINDS = {"ktheory", "ideal", "classify", "identify", "stages", "divisible",
                "dominates", "coeff", "perforation-witness"}
_ATOMS = {"point": AtPoint, "interior": AtInterior, "path": FullPath}
_WORDS = {cls: word for word, cls in _ATOMS.items()}
_PLURALS = {"complex": "complexes", "family": "families", "system": "systems",
            "query": "queries"}


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


def _multiplicities(line: int, text: str, key: str, l: int, p: int) -> IntMatrix:
    """The l x p multiplicity matrix `key` written on `line`; a wrong shape or
    a negative entry is reported at that line, not at the block header."""
    rows = _parse_matrix(text, line)  # rows of equal length
    if len(rows) != l or rows and len(rows[0]) != p:
        raise InputError(line, f"{key} must be {l}x{p}")
    if rows and min(map(min, rows)) < 0:
        raise InputError(line, "multiplicities must be nonnegative")
    return IntMatrix.from_rows(rows, cols=p)


def _parse_atoms(text: str, line: int, kinds) -> tuple:
    """The evaluations of one assignment, in keyword then index order."""
    atoms = []
    if not text.strip():
        return ()
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
    return tuple(_ATOMS[kind](i) for kind, i in sorted(atoms))


def _filled(slot: dict, size: int, word: str, name: str) -> tuple:
    """One assignment per target block; naming a block the target lacks is
    an error at the assignment's line."""
    for i, (line, _) in slot.items():
        if i >= size:
            raise InputError(line, f"map {name!r}: the target has no {word} {i + 1} "
                                   f"(it has {size})")
    return tuple(slot[i][1] if i in slot else () for i in range(size))


# helpers on a block's {key: (line, value)} items; each consumes its key

def _bool(items, key: str) -> bool:
    if key not in items:
        return True
    line, text = items.pop(key)
    if text not in ("true", "false"):
        raise InputError(line, f"expected true or false, found {text!r}")
    return text == "true"


def _int(items, key: str, default, message: str):
    if key not in items:
        return default
    line, text = items.pop(key)
    try:
        return int(text)
    except ValueError:
        raise InputError(line, message)


def _sizes(items, key: str) -> tuple:
    line, text = items.pop(key, (0, ""))
    return line, tuple(parse_size_expr(tok, line) for tok in text.split())


def _no_more(items, kind: str):
    if items:
        bad = min(items)
        raise InputError(items[bad][0], f"unknown key {bad!r} in {kind} block")


class _Parser:
    def __init__(self, text: str):
        self.statements = list(_split_statements(text))
        self.pos = 0
        # kind -> {name: parsed value}, in declaration order
        self.blocks = {"complex": {}, "family": {}, "map": {}, "system": {}}
        self.queries = []

    def take(self):
        if self.pos == len(self.statements):
            raise InputError(self.statements[-1][0] if self.statements else 1,
                             "unexpected end of document")
        self.pos += 1
        return self.statements[self.pos - 1]

    def run(self) -> InputDocument:
        readers = {"complex": self.block_stages, "family": self.block_stages,
                   "map": self.block_map, "system": self.block_system,
                   "query": self.block_query}
        while self.pos < len(self.statements):
            line, stmt = self.take()
            kind = stmt.split()[0]
            if kind not in readers:
                raise InputError(line, f"unknown section {kind!r}")
            readers[kind](line, stmt, kind)
        return self.validated()

    @staticmethod
    def _head(line, stmt, kind):
        head = stmt[len(kind):].strip()
        if not head.endswith("{"):
            raise InputError(line, f"{kind} header must end with '{{'")
        return head[:-1].strip()

    @staticmethod
    def _name(line, name, kind):
        if not name.isidentifier():
            raise InputError(line, f"bad {kind} name {name!r}")
        return name

    def _items(self, kind):
        """The block's 'key = value' items as {key: (line, value)}, and its
        assignment lines, which only maps take."""
        items, assigns = {}, []
        while True:
            line, stmt = self.take()
            if stmt == "}":
                break
            if "<-" in stmt:
                assigns.append((line, stmt))
                continue
            if "=" not in stmt:
                raise InputError(line, f"expected 'key = value', found {stmt!r}")
            key, val = stmt.split("=", 1)
            key = key.strip()
            if key in items:
                raise InputError(line, f"duplicate key {key!r}")
            items[key] = (line, val.strip())
        if assigns and kind != "map":
            raise InputError(assigns[0][0], f"{_PLURALS[kind]} take only 'key = value' lines")
        return items, assigns

    def _add(self, kind, name, value, line):
        if name in self.blocks[kind]:
            raise InputError(line, f"duplicate {kind} {name!r}")
        self.blocks[kind][name] = value

    def block_stages(self, line, stmt, kind):
        """A family, or a complex: a family without n0 whose sizes are constant."""
        name = self._name(line, self._head(line, stmt, kind), kind)
        items, _ = self._items(kind)
        n0 = _int(items, "n0", 0, "n0 must be an integer") if kind == "family" else 0
        if "k" not in items:
            raise InputError(line, "missing 'k = ...'")
        (k_line, k), (h_line, h) = _sizes(items, "k"), _sizes(items, "h")
        if kind == "complex" and not all(e.is_constant() for e in k + h):
            raise InputError(line, "a concrete complex cannot use the stage parameter n; "
                                   "declare a family instead")
        invalid = "family invalid at its first stage: " if kind == "family" else ""
        for size_line, sizes in ((k_line, k), (h_line, h)):
            try:  # a size undefined or not positive at n0 is reported at its own line
                if any(e.eval(n0) <= 0 for e in sizes):
                    raise ValueError("block sizes must be positive")
            except ValueError as exc:
                raise InputError(size_line, invalid + str(exc))
        if "alpha" not in items or "beta" not in items:
            raise InputError(line, f"{kind} needs alpha and beta")
        alpha_item, beta_item = items.pop("alpha"), items.pop("beta")
        unital = _bool(items, "unital")
        _no_more(items, kind)
        alpha = _multiplicities(*alpha_item, "alpha", len(h), len(k))
        beta = _multiplicities(*beta_item, "beta", len(h), len(k))
        spec = FamilySpec(name, n0, k, h, alpha, beta, unital)
        try:
            first = spec.complex_at(n0)
        except ValueError as exc:
            raise InputError(line, invalid + str(exc))
        self._add(kind, name, (spec, first), line)

    def block_map(self, line, stmt, kind):
        head = self._head(line, stmt, kind)
        if ":" not in head or "->" not in head:
            raise InputError(line, "map header looks like: map NAME : SRC -> TGT {")
        name, arrow = head.split(":", 1)
        name = self._name(line, name.strip(), kind)
        src, tgt = (end.strip() for end in arrow.split("->", 1))
        items, assigns = self._items(kind)
        unital = _bool(items, "unital")
        _no_more(items, kind)
        slots = {"point": {}, "block": {}}  # target block index -> (line, atoms)
        for ln, text in assigns:
            lhs, rhs = text.split("<-", 1)
            parts = lhs.split()
            if len(parts) != 2 or parts[0] not in slots:
                raise InputError(ln, "assignment lines look like: point J <- ... or block I <- ...")
            try:
                idx = int(parts[1]) - 1
            except ValueError:
                raise InputError(ln, "assignment index must be an integer")
            if idx < 0:
                raise InputError(ln, "assignment indices are 1-based")
            slot = slots[parts[0]]
            if idx in slot:
                raise InputError(ln, f"duplicate assignment for {parts[0]} {idx + 1}")
            kinds = ("point", "interior") if parts[0] == "point" else _ATOMS
            slot[idx] = (ln, _parse_atoms(rhs, ln, kinds))
        self._add(kind, name, (src, tgt, slots, unital, line), line)

    def block_system(self, line, stmt, kind):
        name = self._name(line, self._head(line, stmt, kind), kind)
        items, _ = self._items(kind)
        for key in ("family", "bonding", "degree"):
            if key not in items:
                raise InputError(line, f"system needs '{key} = ...'")
        deg_ln = items["degree"][0]
        degree = _int(items, "degree", None, "degree must be 0 or 1")
        if degree not in (0, 1):
            raise InputError(deg_ln, "degree must be 0 or 1")
        given = items.get("constant_from")
        constant_from = _int(items, "constant_from", None, "constant_from must be an integer")
        if constant_from is not None and constant_from < 0:
            raise InputError(given[0], "constant_from must be nonnegative: stages count from 0")
        family, bonding = items.pop("family")[1], items.pop("bonding")[1]
        _no_more(items, kind)
        self._add(kind, name, (SystemSpec(name, family, bonding, degree, constant_from), line),
                  line)

    def block_query(self, line, stmt, kind):
        if self._head(line, stmt, kind):
            raise InputError(line, "query blocks are anonymous: query { ... }")
        items, _ = self._items(kind)
        if "kind" not in items:
            raise InputError(line, "query needs 'kind = ...'")
        ln, qkind = items.pop("kind")
        if qkind not in _QUERY_KINDS:
            raise InputError(ln, f"unknown query kind {qkind!r}; valid: {sorted(_QUERY_KINDS)}")
        params = tuple(sorted((k, v) for k, (_, v) in items.items()))
        self.queries.append((Query(qkind, params), line))

    def validated(self) -> InputDocument:
        complexes, families = self.blocks["complex"], self.blocks["family"]
        maps = {}
        for name, (src, tgt, slots, unital, line) in self.blocks["map"].items():
            # two complexes, or a family's stages n0 -> n0 + 1
            if src in complexes and tgt in complexes:
                (_, source), (shape, target) = complexes[src], complexes[tgt]
                where = ""
            elif src in families and tgt == src:
                (shape, source), target = families[src], None
                where = f" at stage {shape.n0}"
            else:
                raise InputError(line, f"map {name!r} must connect two complexes "
                                       "or a family to itself")
            f1 = _filled(slots["point"], len(shape.k), "point", name)
            f2 = _filled(slots["block"], len(shape.h), "block", name)
            try:
                if target is None:
                    target = shape.complex_at(shape.n0 + 1)
                MapDescription(source, target, f1, f2, unital=unital)
            except ValueError as exc:
                raise InputError(line, f"map {name!r}{where}: {exc}")
            maps[name] = MapSpec(name, src, tgt, f1, f2, unital)
        for name, (s, line) in self.blocks["system"].items():
            if s.family not in families:
                raise InputError(line, f"system {name!r} references unknown family {s.family!r}")
            if s.bonding not in maps:
                raise InputError(line, f"system {name!r} references unknown map {s.bonding!r}")
            if maps[s.bonding].source != s.family or maps[s.bonding].target != s.family:
                raise InputError(line, f"system {name!r} needs a self-map of family {s.family!r}")
        names = {*complexes, *families, *self.blocks["system"]}
        for q, line in self.queries:
            target = q.get("target") or q.get("system")
            if target is not None and target not in names:
                raise InputError(line, f"query targets unknown object {target!r}")
        return InputDocument(tuple((n, cx) for n, (_, cx) in complexes.items()),
                             tuple((n, spec) for n, (spec, _) in families.items()),
                             tuple(maps.items()),
                             tuple((n, s) for n, (s, _) in self.blocks["system"].items()),
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
    """Runs of equal atoms as 'kind index * mult', in the stored order."""
    chunks = []
    for atom, mult in Counter(ms).items():
        index = atom.j if isinstance(atom, AtPoint) else atom.i
        base = f"{_WORDS[type(atom)]} {index + 1}"
        chunks.append(base if mult == 1 else f"{base} * {mult}")
    return ", ".join(chunks)


def _stage_lines(k, h, alpha, beta, unital) -> list:
    """The body of a complex or family block; sizes are ints or SizeExprs."""
    return ["k = " + " ".join(map(str, k)), "h = " + " ".join(map(str, h)),
            "alpha = " + _render_matrix(alpha), "beta = " + _render_matrix(beta),
            f"unital = {str(unital).lower()}"]


def render(doc: InputDocument) -> str:
    """Deterministic text form; render(parse(d)) parses back equal."""
    out = []

    def block(head, lines):
        out.append(f"{head} {{")
        out.extend("  " + x for x in lines)
        out.extend(("}", ""))

    for name, c in doc.complexes:
        block(f"complex {name}", _stage_lines(c.k, c.h, c.alpha, c.beta, c.unital))
    for name, f in doc.families:
        block(f"family {name}", [f"n0 = {f.n0}"] + _stage_lines(f.k, f.h, f.alpha, f.beta,
                                                                 f.unital))
    for name, m in doc.maps:
        block(f"map {name} : {m.source} -> {m.target}",
              [f"unital = {str(m.unital).lower()}"]
              + [f"point {i + 1} <- {_render_atoms(ms)}" for i, ms in enumerate(m.f1) if ms]
              + [f"block {i + 1} <- {_render_atoms(ms)}" for i, ms in enumerate(m.f2) if ms])
    for name, s in doc.systems:
        block(f"system {name}", [f"family = {s.family}", f"bonding = {s.bonding}",
                                 f"degree = {s.degree}"]
              + ([] if s.constant_from is None else [f"constant_from = {s.constant_from}"]))
    for q in doc.queries:
        block("query", [f"kind = {q.kind}"] + [f"{k} = {v}" for k, v in q.params])
    return "\n".join(out)
