"""Text grammar for rings, polynomials, maps, derivations and claims.

File extension .krv, UTF-8, '#' line comments.  The polynomial grammar is

    poly   := '-'? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' sint)?
    base   := rational | 'w' | ident | ident '(' args ')' | '(' poly ')'
    rational := int ('/' int)?

with explicit '*' everywhere.  'w' is the reserved literal for the primitive
cube root of unity, so rings may not declare a variable named w (spell the
extra cylinder variable v instead).  Applying a bound map or derivation is
written NAME(poly); the built-in functions are quot(f, g) for exact division,
nf(f, rel) for the quotient normal form, theta(MAP, r) for the generator
invariant, and jacdet(MAP, v1, ...) for Jacobian determinants.

Declarations:

    ring NAME = vars(id, ... ; laurent id, ... ; param id, ...);
    let NAME = poly;
    map NAME : RING { id -> poly; ... }
    map NAME = extend(BASE, relation, unit);
    map NAME = compose(OUTER, INNER);
    map NAME = subst_param(MAP, param, value) [preserving {g1, ...}];
    derivation NAME : RING { id -> poly; ... } [mod {relation}]
    derivation NAME = conjugate(D, FWD, BWD, {g1, ...}, {g1, ...});
    claim "label" KIND(...) [anchor "text"] expect true|false;
    narrative "label" requires("label1", ...);

The argument shapes of each claim kind, constructor and built-in live once, as
data, in CLAIMS, CONSTRUCTORS and BUILTINS; Parser.arguments reads them and
_fmt_arguments prints them.  Each declared name has one Decl record, and
SourceUnit.env maps a name to its Decl (rings: SourceUnit.rings maps a name to
its VarTable).  The first error aborts the unit with a 1-based line/column
diagnostic.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .coeff import OMEGA
from .errors import KrError, ParseError
from .poly import Polynomial, VarTable, render
from .morphism import (QuotientRelation, RingMap, compose, exact_divide,
                       extend_to_quotient_automorphism, jacobian, normal_form,
                       verify_inverse_pair)
from .derivation import (Derivation, conjugate, substitute_parameter,
                         theta_extract)
from .geometry import CONE_TAGS

# Argument shapes, in order.  A trailing '?' marks an optional group that
# follows a comma (absent: None); a trailing '*' a group that repeats, whose
# (key, value) items collect into a dict.  'map', 'derivation' and
# 'derivation|map' read the name of a declared object of that kind.
CLAIMS = {
    "eq": ("expr", "expr"),
    "divides": ("expr", "expr"),
    "member": ("expr", "polys"),
    "nilpotent": ("derivation", "bound", "relation?"),
    "cone_class": ("expr", "point", "tag", "spec*"),
    "smooth_at_all": ("expr",),
    "singular_at": ("expr", "point"),
    "inverse_pair": ("map", "map", "ideals?"),
    "quasi_homogeneous": ("expr", "weights", "integer"),
    "graph_variable": ("expr", "var"),
    "laurent_free": ("derivation|map", "var"),
}

# A constructor's value has the kind of its first argument.
CONSTRUCTORS = {
    "extend": ("map", "poly", "poly"),
    "compose": ("map", "map"),
    "subst_param": ("map", "param", "poly"),
    "conjugate": ("derivation", "map", "map", "polys", "polys"),
}

# Functions an expression may call; 'vars' reads one or more variable names.
BUILTINS = {
    "quot": ("expr", "expr"),
    "nf": ("expr", "expr"),
    "theta": ("map", "expr"),
    "jacdet": ("map", "vars"),
}

# inverse(A, B) mod {...}, {...}; the ideals follow the parenthesis.
INVERSE = ("map", "map")

KEYWORDS = {
    "ring", "vars", "laurent", "param", "let", "map", "derivation", "claim",
    "narrative", "requires", "anchor", "expect", "true", "false", "mod",
    "inverse", "point", "weights", "preserving", "w",
} | CLAIMS.keys() | CONSTRUCTORS.keys() | BUILTINS.keys()


# One alternative per token kind, tried in order.  An identifier must start
# with a character for which str.isalpha() holds, or '_'; no regex class says
# that (\w and [^\W\d] also match '²'), so tokenize checks the first one.
_TOKEN = re.compile(r'(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>#[^\n]*)'
                    r'|"(?P<string>[^"\n]*)"|(?P<unterminated>")|(?P<int>[0-9]+)'
                    r'|(?P<ident>\w+)|(?P<punct>->|[(){},;:^*+\-/=])|(?P<bad>.)')


class Token:
    """kind is ident, int, string, punct or eof; col counts from 1, pos from 0."""

    __slots__ = ("kind", "text", "line", "col", "pos")

    def __init__(self, kind: str, text: str, line: int, col: int, pos: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.pos = pos


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind, pos = m.lastgroup, m.start()
        end = pos if kind == "comment" else m.end()  # eof sits before a final comment
        if kind == "newline":
            line, line_start = line + 1, end
        elif kind == "unterminated":
            raise ParseError("unterminated string", line, pos - line_start + 1, pos)
        elif kind == "bad" or kind == "ident" and not (text[pos].isalpha() or text[pos] == "_"):
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1, pos)
        elif kind not in ("space", "comment"):
            tokens.append(Token(kind, m[kind], line, pos - line_start + 1, pos))
    tokens.append(Token("eof", "", line, end - line_start + 1, len(text)))
    return tokens


# ---------------------------------------------------------------------------
# expression AST (claim arguments stay lazy; everything else folds eagerly)

class Lit:
    __slots__ = ("value",)

    def __init__(self, value: Polynomial):
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Lit is immutable")

    def render(self, prec: int = 0) -> str:
        text = render(self.value)
        needs = (" + " in text or " - " in text or text.startswith("-")) \
            if prec >= 1 else False
        if prec >= 2 and len(self.value.terms) == 1:
            # single term that is itself a product still needs parens under ^
            needs = needs or "*" in text or "^" in text
        return f"({text})" if needs else text


class Apply:
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Node):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, name, value):
        raise AttributeError("Apply is immutable")

    def render(self, prec: int = 0) -> str:
        return f"{self.name}({self.arg.render(0)})"


class Builtin:
    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: tuple):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "args", args)  # one value per shape in BUILTINS[fn]

    def __setattr__(self, name, value):
        raise AttributeError("Builtin is immutable")

    def render(self, prec: int = 0) -> str:
        return self.fn + _fmt_arguments(BUILTINS[self.fn], self.args)


class BinOp:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Node, right: Node):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("BinOp is immutable")

    def render(self, prec: int = 0) -> str:
        own = 1 if self.op in "+-" else 2
        lhs = self.left.render(own)
        rhs = self.right.render(own + (1 if self.op == "-" else 0))
        text = f"{lhs} {self.op} {rhs}" if self.op in "+-" else f"{lhs}{self.op}{rhs}"
        return f"({text})" if prec > own else text


class Negate:
    __slots__ = ("arg",)

    def __init__(self, arg: Node):
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, name, value):
        raise AttributeError("Negate is immutable")

    def render(self, prec: int = 0) -> str:
        text = f"-{self.arg.render(2)}"
        return f"({text})" if prec >= 1 else text


Node = "Lit | Apply | Builtin | BinOp | Negate"


def _combine(op: str, a: Polynomial, b: Polynomial) -> Polynomial:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b


def eval_node(node, env: dict, table: VarTable) -> Polynomial:
    """Evaluate a claim-argument expression against the unit environment."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Negate):
        return -eval_node(node.arg, env, table)
    if isinstance(node, BinOp):
        a = eval_node(node.left, env, table)
        b = eval_node(node.right, env, table)
        return _combine(node.op, a, b)
    if isinstance(node, Apply):
        return env[node.name].value.apply(eval_node(node.arg, env, table))
    if isinstance(node, Builtin):
        if node.fn == "theta":
            name, r = node.args
            return theta_extract(env[name].value, eval_node(r, env, table))
        if node.fn == "jacdet":
            name, names = node.args
            return jacobian(env[name].value, names)[1]
        a, b = (eval_node(arg, env, table) for arg in node.args)
        if node.fn == "nf":
            return normal_form(a, QuotientRelation(b))
        q = exact_divide(a, b)
        if q is None:
            raise KrError("quot(): not exactly divisible")
        return q
    raise KrError(f"cannot evaluate node {node!r}")


def _fold(node):
    """Collapse constant subtrees into Lit; leaves lazy nodes intact."""
    if isinstance(node, Negate) and isinstance(node.arg, Lit):
        return Lit(-node.arg.value)
    if isinstance(node, BinOp) and isinstance(node.left, Lit) and isinstance(node.right, Lit):
        return Lit(_combine(node.op, node.left.value, node.right.value))
    return node


def _construct(fn: str, args: tuple, preserving, env: dict):
    """Elaborate a constructor call (see CONSTRUCTORS); names are looked up in env."""
    if fn == "extend":
        base, relation, unit = args
        return extend_to_quotient_automorphism(env[base].value, QuotientRelation(relation),
                                               unit).map
    if fn == "compose":
        outer, inner = args
        return compose(env[outer].value, env[inner].value)
    if fn == "subst_param":
        base, param, value = args
        return substitute_parameter(env[base].value, param, value, check_ideal=preserving)
    d, fwd, bwd, mod1, mod2 = args
    return conjugate(env[d].value, env[fwd].value, env[bwd].value, mod1, mod2)


# ---------------------------------------------------------------------------
# declarations

class Decl:
    """A declared name.  kind 'ring' holds a VarTable (ring: None), 'poly' a
    Polynomial, 'map' a RingMap and 'derivation' a Derivation, each over the
    ring current at the declaration."""

    __slots__ = ("kind", "name", "ring", "value", "ctor")

    def __init__(self, kind: str, name: str, ring: str | None, value: object,
                 ctor: tuple | None = None):
        self.kind = kind
        self.name = name
        self.ring = ring
        self.value = value
        self.ctor = ctor  # (fn, args, preserving) of a constructor, for fmt


class InverseDecl:
    __slots__ = ("first", "second", "mod_first", "mod_second")

    def __init__(self, first: str, second: str, mod_first: list, mod_second: list):
        self.first = first
        self.second = second
        self.mod_first = mod_first
        self.mod_second = mod_second


class ClaimDecl:
    __slots__ = ("label", "kind", "ring", "args", "expect", "anchor")

    def __init__(self, label: str, kind: str, ring: str, args: tuple, expect: bool,
                 anchor: str | None):
        self.label = label
        self.kind = kind
        self.ring = ring
        self.args = args  # one value per shape in CLAIMS[kind]
        self.expect = expect
        self.anchor = anchor


class NarrativeDecl:
    __slots__ = ("label", "requires")

    def __init__(self, label: str, requires: tuple[str, ...]):
        self.label = label
        self.requires = requires


class SourceUnit:
    __slots__ = ("items", "env", "rings", "claims", "narratives")

    def __init__(self):
        self.items = []
        self.env = {}  # name -> Decl, for all but rings
        self.rings = {}
        self.claims = []
        self.narratives = []


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        self.unit = SourceUnit()
        self.current_ring: str | None = None

    # -- token helpers -------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: Token | None = None, expected=()):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col, tok.pos, expected)

    def kernel(self, tok: Token | None, fn, *args, **kwargs):
        """Call a kernel function; its KrError becomes a ParseError at tok."""
        try:
            return fn(*args, **kwargs)
        except KrError as exc:
            self.error(str(exc), tok)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            return self.next()
        if tok.kind == "ident" and tok.text == text:
            return self.next()
        self.error(f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                   tok, expected=(text,))

    def accept(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind in ("punct", "ident") and tok.text == text:
            self.next()
            return True
        return False

    def ident(self, what="identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.error(f"expected {what}", tok)
        return self.next()

    def string(self) -> Token:
        tok = self.peek()
        if tok.kind != "string":
            self.error("expected a string literal", tok, expected=("string",))
        return self.next()

    def integer(self) -> int:
        neg = self.accept("-")
        tok = self.peek()
        if tok.kind != "int":
            self.error("expected an integer", tok, expected=("integer",))
        self.next()
        val = int(tok.text)
        return -val if neg else val

    # -- name table ----------------------------------------------------------

    def declare(self, name_tok: Token, kind: str, value, ctor=None):
        """Check the name, then record its Decl in env (a ring: in rings) and items."""
        name = name_tok.text
        if name in KEYWORDS:
            self.error(f"{name!r} is a reserved word", name_tok)
        if name in self.unit.env or name in self.unit.rings:
            self.error(f"duplicate name {name!r}", name_tok)
        if self.current_ring is not None and name in self.table()._index:
            self.error(f"{name!r} collides with a ring variable", name_tok)
        if kind == "ring":
            decl = Decl(kind, name, None, value)
            self.unit.rings[name] = value
        else:
            decl = self.unit.env[name] = Decl(kind, name, self.current_ring, value, ctor)
        self.unit.items.append(decl)

    def table(self) -> VarTable:
        if self.current_ring is None:
            self.error("no ring declared yet")
        return self.unit.rings[self.current_ring]

    def lookup(self, tok: Token) -> Decl:
        decl = self.unit.env.get(tok.text)
        if decl is None:
            self.error(f"use of undeclared name {tok.text!r}", tok)
        return decl

    def named(self, kind: str, fn: str) -> Token:
        """Read the name of a declared object of the kind ('a|b': either) fn() needs."""
        what = kind.replace("|", " or ")
        tok = self.ident(f"{what} name")
        got = self.lookup(tok).kind
        if got not in kind.split("|"):
            self.error(f"{fn}() needs a {what}, {tok.text!r} is a {got}", tok)
        return tok

    def variable(self) -> str:
        tok = self.ident("variable name")
        if tok.text not in self.table()._index:
            self.error(f"unknown variable {tok.text!r}", tok)
        return tok.text

    # -- expressions ----------------------------------------------------------

    def parse_expr(self):
        negate = self.accept("-")
        node = self.parse_term()
        if negate:
            node = _fold(Negate(node))
        while True:
            if self.accept("+"):
                node = _fold(BinOp("+", node, self.parse_term()))
            elif self.accept("-"):
                node = _fold(BinOp("-", node, self.parse_term()))
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while self.accept("*"):
            node = _fold(BinOp("*", node, self.parse_factor()))
        return node

    def parse_factor(self):
        tok = self.peek()
        node = self.parse_base()
        if self.accept("^"):
            k = self.integer()
            if isinstance(node, Lit):
                return Lit(self.kernel(tok, pow, node.value, k))
            self.error("can only raise plain polynomials to powers", tok)
        return node

    def parse_base(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            num = int(tok.text)
            if self.accept("/"):
                den_tok = self.peek()
                if den_tok.kind != "int":
                    self.error("expected a denominator", den_tok, expected=("integer",))
                self.next()
                if int(den_tok.text) == 0:
                    self.error("zero denominator", den_tok)
                return Lit(self.table().constant(Fraction(num, int(den_tok.text))))
            return Lit(self.table().constant(num))
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind != "ident":
            self.error("expected a polynomial", tok,
                       expected=("number", "identifier", "("))
        name = tok.text
        self.next()
        if name == "w":
            return Lit(self.table().constant(OMEGA))
        if name in BUILTINS:
            args = self.arguments(name, BUILTINS[name])
            if name == "nf" and isinstance(args[1], Lit):
                self.kernel(tok, QuotientRelation, args[1].value)
            return Builtin(name, args)
        table = self.table()
        if name in table._index:
            return Lit(table.var(name))
        decl = self.lookup(tok)
        if decl.kind == "poly":
            return Lit(self.kernel(tok, decl.value.transport, table))
        if not self.accept("("):
            self.error(f"{name!r} is a {decl.kind}; apply it as {name}(...)", tok)
        arg = self.parse_expr()
        self.expect(")")
        return Apply(name, arg)

    def parse_poly(self, tok: Token | None = None) -> Polynomial:
        """Parse an expression and evaluate it immediately."""
        start = self.peek()
        node = self.parse_expr()
        return self.kernel(tok or start, eval_node, node, self.unit.env, self.table())

    # -- declarations ----------------------------------------------------------

    def parse_unit(self) -> SourceUnit:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                self.error("expected a declaration", tok,
                           expected=("ring", "let", "map", "derivation", "claim"))
            handler = {
                "ring": self.parse_ring,
                "let": self.parse_let,
                "map": self._parse_map_or_derivation,
                "derivation": self._parse_map_or_derivation,
                "inverse": self.parse_inverse,
                "claim": self.parse_claim,
                "narrative": self.parse_narrative,
            }.get(tok.text)
            if handler is None:
                self.error(f"unknown declaration {tok.text!r}", tok,
                           expected=("ring", "let", "map", "derivation", "claim"))
            handler()
        return self.unit

    def _idlist(self) -> list[Token]:
        out = [self.ident("variable name")]
        while self.accept(","):
            out.append(self.ident("variable name"))
        return out

    def parse_ring(self):
        self.expect("ring")
        name = self.ident("ring name")
        self.expect("=")
        table = self.ring_spec()
        self.expect(";")
        self.declare(name, "ring", table)
        self.current_ring = name.text

    def ring_spec(self) -> VarTable:
        """Read 'vars(x, y ; laurent y ; param c)' into a table."""
        self.expect("vars")
        self.expect("(")
        var_toks = self._idlist()
        laurent: list[Token] = []
        params: list[Token] = []
        while self.accept(";"):
            section = self.ident("'laurent' or 'param'")
            if section.text == "laurent":
                laurent.extend(self._idlist())
            elif section.text == "param":
                params.extend(self._idlist())
            else:
                self.error("expected 'laurent' or 'param'", section)
        self.expect(")")
        names = []
        for tok in var_toks:
            if tok.text == "w" or tok.text in KEYWORDS:
                self.error(f"{tok.text!r} is reserved and cannot be a variable", tok)
            if tok.text in names:
                self.error(f"duplicate variable {tok.text!r}", tok)
            names.append(tok.text)
        for flagged in laurent + params:
            if flagged.text not in names:
                self.error(f"flagged variable {flagged.text!r} is not in vars(...)", flagged)
        return VarTable(names, laurent=[t.text for t in laurent],
                        params=[t.text for t in params])

    def parse_let(self):
        self.expect("let")
        name = self.ident("name")
        self.expect("=")
        value = self.parse_poly()
        self.expect(";")
        self.declare(name, "poly", value)

    def _parse_image_block(self) -> dict[str, Polynomial]:
        self.expect("{")
        images: dict[str, Polynomial] = {}
        table = self.table()
        while not self.accept("}"):
            vtok = self.ident("variable name")
            if vtok.text not in table._index:
                self.error(f"unknown variable {vtok.text!r}", vtok)
            if vtok.text in images:
                self.error(f"duplicate image for {vtok.text!r}", vtok)
            if table.is_param(vtok.text):
                self.error(f"{vtok.text!r} is a parameter and cannot be remapped", vtok)
            self.expect("->")
            images[vtok.text] = self.parse_poly(vtok)
            self.expect(";")
        return images

    def _ring_annotation(self):
        """Optional ': RINGNAME' switching the current ring."""
        if self.accept(":"):
            rtok = self.ident("ring name")
            if rtok.text not in self.unit.rings:
                self.error(f"unknown ring {rtok.text!r}", rtok)
            self.current_ring = rtok.text

    def _parse_map_or_derivation(self):
        """KIND NAME = CTOR(...); or KIND NAME [: RING] { images } [mod {rel}] [;]
        for KIND map or derivation; only a derivation takes 'mod'."""
        kind = self.next().text
        name = self.ident(f"{kind} name")
        tok = self.peek()
        if self.accept("="):
            self.parse_constructor(name, kind)
            return
        self._ring_annotation()
        images = self._parse_image_block()
        relation = None
        if kind == "derivation" and self.accept("mod"):
            self.expect("{")
            rel_poly = self.parse_poly()
            self.expect("}")
            relation = self.kernel(tok, QuotientRelation, rel_poly)
        self.accept(";")
        value = (self.kernel(tok, RingMap, self.table(), images) if kind == "map"
                 else self.kernel(tok, Derivation, self.table(), images, relation))
        self.declare(name, kind, value)

    def _polyset(self) -> list[Polynomial]:
        self.expect("{")
        out = [self.parse_poly()]
        while self.accept(","):
            out.append(self.parse_poly())
        self.expect("}")
        return out

    def _ideal_pair(self) -> tuple[list[Polynomial], list[Polynomial]]:
        first = self._polyset()
        self.expect(",")
        return first, self._polyset()

    def parse_constructor(self, name: Token, kind: str):
        """NAME = FN(...); elaborated here, so a kernel error stops the unit."""
        fn = self.ident("constructor")
        shapes = CONSTRUCTORS.get(fn.text, (None,))
        if shapes[0] != kind:
            self.error(f"unknown {kind} constructor {fn.text!r}", fn,
                       expected=[c for c, s in CONSTRUCTORS.items() if s[0] == kind])
        args = self.arguments(fn.text, shapes)
        preserving = None
        if fn.text == "subst_param" and self.accept("preserving"):
            preserving = self._polyset()
        self.expect(";")
        value = self.kernel(fn, _construct, fn.text, args, preserving, self.unit.env)
        self.declare(name, kind, value, ctor=(fn.text, args, preserving))

    def parse_inverse(self):
        """inverse(A, B) mod {gens}, {gens}; checks an inverse pair while parsing.

        compose(A, B) must fix every variable modulo the first ideal and
        compose(B, A) modulo the second; a pair that fails stops the unit with
        a ParseError at the declaration.
        """
        self.expect("inverse")
        start = self.peek()
        first, second = self.arguments("inverse", INVERSE)
        mod1, mod2 = self._ideal_pair() if self.accept("mod") else ([], [])
        self.expect(";")
        env = self.unit.env
        if not self.kernel(start, verify_inverse_pair, env[first].value, env[second].value,
                           mod1, mod2):
            self.error(f"{first!r} and {second!r} are not inverse "
                       f"modulo the declared ideals", start)
        self.unit.items.append(InverseDecl(first, second, mod1, mod2))

    # -- call arguments ----------------------------------------------------------

    def arguments(self, fn: str, shapes: tuple) -> tuple:
        """Read fn's parenthesized arguments, one value per shape."""
        self.expect("(")
        start = self.peek()
        args = []
        for i, shape in enumerate(shapes):
            if shape.endswith("*"):
                items = {}
                while self.accept(","):
                    key, value = self.argument(fn, shape[:-1], start)
                    items[key] = value
                args.append(items)
            elif shape.endswith("?"):
                args.append(self.argument(fn, shape[:-1], start)
                            if self.accept(",") else None)
            else:
                if i:
                    self.expect(",")
                args.append(self.argument(fn, shape, start))
        self.expect(")")
        return tuple(args)

    def argument(self, fn: str, shape: str, start: Token):
        """Read one argument; a kernel error in a relation is reported at start."""
        if shape == "expr":
            return self.parse_expr()
        if shape == "poly":
            return self.parse_poly()
        if shape == "polys":
            return self._polyset()
        if shape == "ideals":
            return self._ideal_pair()
        if shape == "relation":
            return self.kernel(start, QuotientRelation, self.parse_poly())
        if shape == "point":
            tok = self.expect("point")
            self.expect("(")
            coords = [self.parse_poly()]
            while self.accept(","):
                coords.append(self.parse_poly())
            self.expect(")")
            targets = self.table().non_params()
            if len(coords) != len(targets):
                self.error(f"point needs {len(targets)} coordinates, got {len(coords)}", tok)
            return dict(zip(targets, coords))
        if shape == "var":
            return self.variable()
        if shape == "vars":
            names = [self.variable()]
            while self.accept(","):
                names.append(self.variable())
            return tuple(names)
        if shape == "param":
            return self.ident("parameter name").text
        if shape == "integer":
            return self.integer()
        if shape == "bound":
            tok = self.peek()
            bound = self.integer()
            if bound < 1:
                self.error("bound must be positive", tok)
            return bound
        if shape == "tag":
            tok = self.ident("cone tag")
            if tok.text not in CONE_TAGS:
                self.error(f"unknown cone tag {tok.text!r}", tok, expected=CONE_TAGS)
            return tok.text
        if shape == "spec":
            tok = self.ident("parameter name")
            if tok.text not in self.table().params():
                self.error(f"{tok.text!r} is not a parameter", tok)
            self.expect("->")
            value = self.parse_poly(tok)
            if not value.is_constant():
                self.error("specialization values must be constants", tok)
            return tok.text, value.constant_value()
        if shape == "weights":
            self.expect("weights")
            self.expect("(")
            weights = {}
            while True:
                v = self.variable()
                self.expect("->")
                weights[v] = self.integer()
                if not self.accept(","):
                    break
            self.expect(")")
            return weights
        return self.named(shape, fn).text

    # -- claims ----------------------------------------------------------------

    def parse_claim(self):
        self.expect("claim")
        label_tok = self.string()
        label = label_tok.text
        if any(c.label == label for c in self.unit.claims):
            self.error(f"duplicate claim label {label!r}", label_tok)
        kind_tok = self.ident("claim kind")
        kind = kind_tok.text
        if kind not in CLAIMS:
            self.error(f"unknown claim kind {kind!r}", kind_tok, expected=CLAIMS)
        args = self.arguments(kind, CLAIMS[kind])
        anchor = None
        if self.accept("anchor"):
            anchor = self.string().text
        self.expect("expect")
        exp_tok = self.ident("'true' or 'false'")
        if exp_tok.text not in ("true", "false"):
            self.error("expectation must be true or false", exp_tok,
                       expected=("true", "false"))
        self.expect(";")
        decl = ClaimDecl(label, kind, self.current_ring, args,
                         exp_tok.text == "true", anchor)
        self.unit.claims.append(decl)
        self.unit.items.append(decl)

    def parse_narrative(self):
        self.expect("narrative")
        label = self.string().text
        self.expect("requires")
        self.expect("(")
        requires = [self.string()]
        while self.accept(","):
            requires.append(self.string())
        self.expect(")")
        self.expect(";")
        known = {c.label for c in self.unit.claims}
        known.update(n.label for n in self.unit.narratives)
        for req in requires:
            if req.text not in known:
                self.error(f"narrative references unknown claim {req.text!r}", req)
        decl = NarrativeDecl(label, tuple(req.text for req in requires))
        self.unit.narratives.append(decl)
        self.unit.items.append(decl)


def parse_unit(text: str) -> SourceUnit:
    return Parser(text).parse_unit()


def parse_polynomial(text: str, table: VarTable) -> Polynomial:
    """Parse a single polynomial expression over an existing table."""
    parser = Parser(text)
    parser.unit.rings["_R"] = table
    parser.current_ring = "_R"
    value = parser.parse_poly()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.error("trailing input after polynomial", tok)
    return value


def parse_ring_spec(text: str) -> VarTable:
    """Parse 'vars(x, y ; laurent y ; param c)' used by the CLI."""
    parser = Parser(text)
    table = parser.ring_spec()
    if parser.peek().kind != "eof":
        parser.error("trailing input after ring spec")
    return table


# ---------------------------------------------------------------------------
# canonical formatting (the `fmt` subcommand); idempotent by construction

def _fmt_polyset(gens) -> str:
    return "{" + ", ".join(render(g) for g in gens) + "}"


def _fmt_argument(shape: str, arg) -> str:
    if shape == "expr":
        return arg.render()
    if shape == "poly":
        return render(arg)
    if shape == "polys":
        return _fmt_polyset(arg)
    if shape == "ideals":
        return ", ".join(_fmt_polyset(gens) for gens in arg)
    if shape == "relation":
        return render(arg.relation)
    if shape == "point":
        return "point(" + ", ".join(render(v) for v in arg.values()) + ")"
    if shape == "spec":
        return f"{arg[0]} -> {arg[1]}"
    if shape == "weights":
        return "weights(" + ", ".join(f"{v} -> {k}" for v, k in arg.items()) + ")"
    if shape == "vars":
        return ", ".join(arg)
    return str(arg)


def _fmt_arguments(shapes: tuple, args: tuple) -> str:
    """The inverse of Parser.arguments: an absent optional group prints nothing."""
    parts = []
    for shape, arg in zip(shapes, args):
        if shape.endswith("*"):
            parts.extend(_fmt_argument(shape[:-1], item) for item in arg.items())
        elif arg is not None:
            parts.append(_fmt_argument(shape.rstrip("?"), arg))
    return "(" + ", ".join(parts) + ")"


def format_unit(unit: SourceUnit) -> str:
    out = []
    for item in unit.items:
        if isinstance(item, InverseDecl):
            tail = ""
            if item.mod_first or item.mod_second:
                tail = f" mod {_fmt_polyset(item.mod_first)}, {_fmt_polyset(item.mod_second)}"
            args = _fmt_arguments(INVERSE, (item.first, item.second))
            out.append(f"inverse{args}{tail};")
        elif isinstance(item, ClaimDecl):
            anchor = f'\n  anchor "{item.anchor}"' if item.anchor else ""
            out.append(f'claim "{item.label}"\n'
                       f'  {item.kind}{_fmt_arguments(CLAIMS[item.kind], item.args)}{anchor}\n'
                       f'  expect {"true" if item.expect else "false"};')
        elif isinstance(item, NarrativeDecl):
            reqs = ", ".join(f'"{r}"' for r in item.requires)
            out.append(f'narrative "{item.label}" requires({reqs});')
        elif item.kind == "ring":
            t = item.value
            sections = [", ".join(t.names)]
            lau = [v for v, f in zip(t.names, t.laurent) if f]
            if lau:
                sections.append("laurent " + ", ".join(lau))
            if t.params():
                sections.append("param " + ", ".join(t.params()))
            out.append(f"ring {item.name} = vars({' ; '.join(sections)});")
        elif item.kind == "poly":
            out.append(f"let {item.name} = {render(item.value)};")
        elif item.ctor is not None:
            fn, args, preserving = item.ctor
            tail = f" preserving {_fmt_polyset(preserving)}" if preserving is not None else ""
            out.append(f"{item.kind} {item.name} = {fn}"
                       f"{_fmt_arguments(CONSTRUCTORS[fn], args)}{tail};")
        else:
            derivation = item.kind == "derivation"
            body = _fmt_images(item.value.table, item.value.images, identity_is_zero=derivation)
            relation = item.value.relation if derivation else None
            tail = f" mod {{{render(relation.relation)}}}" if relation else ""
            out.append(f"{item.kind} {item.name} : {item.ring} {body}{tail}")
    return "\n".join(out) + "\n"


def _fmt_images(table: VarTable, images: dict, identity_is_zero=False) -> str:
    lines = []
    for v in table.names:
        im = images.get(v)
        if im is None:
            continue
        if not identity_is_zero and im == table.var(v):
            continue
        lines.append(f"  {v} -> {render(im)};")
    if not lines:
        return "{ }"
    return "{\n" + "\n".join(lines) + "\n}"
