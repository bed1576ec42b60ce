"""Text grammar for rings, polynomials, maps, derivations and claims.

File extension .krv, UTF-8, '#' line comments.  The polynomial grammar is

    poly   := '-'? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' sint)?
    base   := rational | 'w' | ident | ident '(' args ')' | '(' poly ')'
    rational := int ('/' int)?

with explicit '*' everywhere; any factor may be raised to a power.  'w' is
the reserved literal for the primitive cube root of unity, so rings may not
declare a variable named w (spell the extra cylinder variable v instead).
Applying a bound map or derivation is written NAME(poly); the built-in
functions are quot(f, g) for exact division, nf(f, rel) for the quotient
normal form, theta(MAP, r) for the generator invariant, and
jacdet(MAP, v1, ...) for Jacobian determinants.

Declarations:

    ring NAME = vars(id, ... ; laurent id, ... ; param id, ...);
    let NAME = poly;
    map NAME : RING { id -> poly; ... }
    map NAME = extend(BASE, relation, unit);
    map NAME = compose(OUTER, INNER);
    map NAME = subst_param(MAP, param, value);
    derivation NAME : RING { id -> poly; ... }
    derivation NAME = conjugate(D, FWD, BWD, {g1, ...}, {g1, ...});
    inverse(MAP, MAP);
    claim "label" KIND(...) [anchor "text"] expect true|false;
    narrative "label" requires("label1", ...);

A derivation is declared on its polynomial ring: nilpotent(D, k, rel) checks
it on the quotient by rel, and nf(D(f), rel) is its image there.

The argument shapes of each claim kind, constructor and built-in live once, as
data, in CLAIMS, CONSTRUCTORS and BUILTINS; Parser.arguments reads them,
_fmt_arguments prints them and claims.operands evaluates them.  Each declared
name has one Decl record, and SourceUnit.env maps a name to its Decl (rings:
SourceUnit.rings maps a name to its Ring, the three name lists it declares).
The parser only parses: it checks names where they are read, stops at the
first syntax or binding error with a 1-based line/column diagnostic, and keeps
every declaration and claim as syntax, which claims.run_unit evaluates in
order.  It builds no table and no polynomial: a number or w is a Lit of its
text as written, and a ring variable or a let read is a Ref of its name.
"""

from __future__ import annotations

import re

from .errors import ParseError, Record
from .geometry import CONE_TAGS

# Argument shapes, in order.  A trailing '?' marks an optional group that
# follows a comma (absent: None); a trailing '*' a group that repeats, whose
# (key, value) items collect into a dict, each key once.  'map', 'derivation'
# and 'derivation|map' read the name of a declared object of that kind.
CLAIMS = {
    "eq": ("expr", "expr"),
    "divides": ("expr", "expr"),
    "member": ("expr", "exprs"),
    "nilpotent": ("derivation", "bound", "expr?"),
    "cone_class": ("expr", "point", "tag", "specialization*"),
    "smooth_at_all": ("expr",),
    "singular_at": ("expr", "point"),
    "inverse_pair": ("map", "map", "ideals?"),
    "quasi_homogeneous": ("expr", "weights", "integer"),
    "graph_variable": ("expr", "var"),
    "laurent_free": ("derivation|map", "var"),
}

# A constructor's value has the kind of its first argument.
CONSTRUCTORS = {
    "extend": ("map", "expr", "expr"),
    "compose": ("map", "map"),
    "subst_param": ("map", "param", "expr"),
    "conjugate": ("derivation", "map", "map", "exprs", "exprs"),
}

# Functions an expression may call; 'vars' reads one or more variable names.
BUILTINS = {
    "quot": ("expr", "expr"),
    "nf": ("expr", "expr"),
    "theta": ("map", "expr"),
    "jacdet": ("map", "vars"),
}

# inverse(A, B); checks an exact inverse pair when the unit is evaluated.  It
# is kept because generated manifests still write it; inverse_pair is the
# claim that makes the same check, modulo ideals too, with its own status.
INVERSE = ("map", "map")

MAX_NESTING = 100  # expression depth; parsing and evaluation recurse once per level

KEYWORDS = {
    "ring", "vars", "laurent", "param", "let", "map", "derivation", "claim",
    "narrative", "requires", "anchor", "expect", "true", "false", "inverse",
    "point", "weights", "w",
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
# expression AST, as written; claims.eval_node evaluates it.  render(prec)
# prints a node with the fewest parentheses that parse back to the same tree;
# prec is where it sits: 0 alone, 1 left of '+' or '-', 2 right of '+' or '-',
# after a leading '-' or left of '*', 3 right of '*', 4 under '^'.

class Lit(Record):
    __slots__ = ("text",)  # a number ("3", "1/2") or "w", as written

    def render(self, prec: int = 0) -> str:
        # 3/2^2 would parse back the same, (3/2)^2, but read as 3/4
        return f"({self.text})" if prec == 4 and "/" in self.text else self.text


class Ref(Record):
    __slots__ = ("name",)  # a ring variable, else a let read into the ring that evaluates it

    def render(self, prec: int = 0) -> str:
        return self.name


class Apply(Record):
    __slots__ = ("name", "arg")

    def render(self, prec: int = 0) -> str:
        return f"{self.name}({self.arg.render(0)})"


class Builtin(Record):
    __slots__ = ("fn", "args")  # args: one piece of syntax per shape in BUILTINS[fn]

    def render(self, prec: int = 0) -> str:
        return self.fn + _fmt_arguments(BUILTINS[self.fn], self.args)


class BinOp(Record):
    __slots__ = ("op", "left", "right")

    def render(self, prec: int = 0) -> str:
        # a long sum or product: render its left spine in a loop, bottom up
        spine = [self]
        while isinstance(spine[-1].left, BinOp):
            spine.append(spine[-1].left)
        text = own = None  # the part rendered so far, and its level
        for node in reversed(spine):
            up = 1 if node.op in "+-" else 2
            lhs = node.left.render(up) if text is None else f"({text})" if up > own else text
            rhs = node.right.render(up + 1)
            text, own = (f"{lhs} {node.op} {rhs}" if up == 1 else f"{lhs}{node.op}{rhs}"), up
        return f"({text})" if prec > own else text


class Negate(Record):
    __slots__ = ("arg",)

    def render(self, prec: int = 0) -> str:
        text = f"-{self.arg.render(2)}"
        return f"({text})" if prec >= 2 else text


class Pow(Record):
    __slots__ = ("base", "k")

    def render(self, prec: int = 0) -> str:
        text = f"{self.base.render(4)}^{self.k}"
        return f"({text})" if prec == 4 else text


# ---------------------------------------------------------------------------
# declarations

class Ring(Record):
    __slots__ = ("names", "laurent", "params")  # tuples of variable names, as declared


class Decl(Record):
    """A declared name, as syntax, over the ring current at it.  body is a
    ring's Ring (ring: None), a let's node, or a map's or derivation's
    image block, ((variable token, node), ...); ctor is a constructor's
    (fn, args), else None.  A kernel error is reported at tok, or at its
    image's token."""

    __slots__ = ("kind", "name", "ring", "body", "ctor", "tok")


class InverseDecl(Record):
    __slots__ = ("first", "second", "ring", "tok")  # a kernel error is reported at tok


class ClaimDecl(Record):
    # args: one piece of syntax per shape in CLAIMS[kind]; anchor: None if absent
    __slots__ = ("label", "kind", "ring", "args", "expect", "anchor")


class NarrativeDecl(Record):
    __slots__ = ("label", "requires")  # requires: a tuple of earlier labels


class SourceUnit:
    __slots__ = ("items", "env", "rings", "claims", "narratives")

    def __init__(self):
        self.items = []
        self.env = {}  # name -> Decl, for all but rings
        self.rings = {}  # name -> Ring
        self.claims = []
        self.narratives = []


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        self.unit = SourceUnit()
        self.current_ring: str | None = None
        self.depth = 0  # expressions open around the one being read

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

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind in ("punct", "ident") and tok.text == text:
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

    def listed(self, read) -> list:
        """One or more values read by read(), separated by commas."""
        out = [read()]
        while self.accept(","):
            out.append(read())
        return out

    def integer(self) -> int:
        neg = self.accept("-")
        tok = self.peek()
        if tok.kind != "int":
            self.error("expected an integer", tok, expected=("integer",))
        self.next()
        val = int(tok.text)
        return -val if neg else val

    # -- name table ----------------------------------------------------------

    def declare(self, name_tok: Token, kind: str, body, tok=None, ctor=None):
        """Check the name, then record its Decl in env (a ring: in rings) and items."""
        name = name_tok.text
        if name in KEYWORDS:
            self.error(f"{name!r} is a reserved word", name_tok)
        if name in self.unit.env or name in self.unit.rings:
            self.error(f"duplicate name {name!r}", name_tok)
        if self.current_ring is not None and name in self.ring().names:
            self.error(f"{name!r} collides with a ring variable", name_tok)
        if kind == "ring":
            decl = Decl(kind, name, None, body, None, None)
            self.unit.rings[name] = body
        else:
            decl = self.unit.env[name] = Decl(kind, name, self.current_ring, body, ctor, tok)
        self.unit.items.append(decl)

    def ring(self) -> Ring:
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
        if tok.text not in self.ring().names:
            self.error(f"unknown variable {tok.text!r}", tok)
        return tok.text

    def fresh(self, seen, what: str) -> str:
        """Read a variable name not in seen; a repeat is an error at its token."""
        tok = self.peek()
        v = self.variable()
        if v in seen:
            self.error(f"duplicate {what} {v!r}", tok)
        return v

    # -- expressions ----------------------------------------------------------

    def parse_expr(self):
        if self.depth == MAX_NESTING:
            self.error(f"expressions nest deeper than {MAX_NESTING}")
        self.depth += 1
        node = Negate(self.parse_term()) if self.accept("-") else self.parse_term()
        while (op := self.peek().text) in ("+", "-") and self.accept(op):
            node = BinOp(op, node, self.parse_term())
        self.depth -= 1
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.accept("*"):
            node = BinOp("*", node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_base()
        if self.accept("^"):
            return Pow(node, self.integer())
        return node

    def parse_base(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            text = tok.text
            if self.accept("/"):
                den_tok = self.peek()
                if den_tok.kind != "int":
                    self.error("expected a denominator", den_tok, expected=("integer",))
                self.next()
                if int(den_tok.text) == 0:
                    self.error("zero denominator", den_tok)
                text += "/" + den_tok.text
            self.ring()  # a number is a constant of the current ring
            return Lit(text)
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
            self.ring()  # w, like a number, needs a ring
            return Lit(name)
        if name in BUILTINS:
            return Builtin(name, self.arguments(name, BUILTINS[name]))
        if name in self.ring().names:
            return Ref(name)
        decl = self.lookup(tok)
        if decl.kind == "poly":
            return Ref(name)
        if not self.accept("("):
            self.error(f"{name!r} is a {decl.kind}; apply it as {name}(...)", tok)
        arg = self.parse_expr()
        self.expect(")")
        return Apply(name, arg)

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
        return self.listed(lambda: self.ident("variable name"))

    def parse_ring(self):
        self.expect("ring")
        name = self.ident("ring name")
        self.expect("=")
        ring = self.ring_spec()
        self.expect(";")
        self.declare(name, "ring", ring)
        self.current_ring = name.text

    def ring_spec(self) -> Ring:
        """Read 'vars(x, y ; laurent y ; param c)'."""
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
            if tok.text in self.unit.env or tok.text in self.unit.rings:
                self.error(f"{tok.text!r} collides with a declared name", tok)
            names.append(tok.text)
        for flagged in laurent + params:
            if flagged.text not in names:
                self.error(f"flagged variable {flagged.text!r} is not in vars(...)", flagged)
        return Ring(tuple(names), tuple(t.text for t in laurent), tuple(t.text for t in params))

    def parse_let(self):
        self.expect("let")
        name = self.ident("name")
        self.expect("=")
        start = self.peek()
        node = self.parse_expr()
        self.expect(";")
        self.declare(name, "poly", node, start)

    def _parse_image_block(self) -> tuple:
        """{ v -> poly; ... } as (variable token, node) pairs, as written."""
        self.expect("{")
        images: dict[str, tuple] = {}
        ring = self.ring()
        while not self.accept("}"):
            vtok = self.peek()
            self.fresh(images, "image for")
            if vtok.text in ring.params:
                self.error(f"{vtok.text!r} is a parameter and cannot be remapped", vtok)
            self.expect("->")
            images[vtok.text] = vtok, self.parse_expr()
            self.expect(";")
        return tuple(images.values())

    def _ring_annotation(self):
        """Optional ': RINGNAME' switching the current ring."""
        if self.accept(":"):
            rtok = self.ident("ring name")
            if rtok.text not in self.unit.rings:
                self.error(f"unknown ring {rtok.text!r}", rtok)
            self.current_ring = rtok.text

    def _parse_map_or_derivation(self):
        """KIND NAME = CTOR(...); or KIND NAME [: RING] { images } [;] for KIND
        map or derivation."""
        kind = self.next().text
        name = self.ident(f"{kind} name")
        tok = self.peek()
        if self.accept("="):
            self.parse_constructor(name, kind)
            return
        self._ring_annotation()
        images = self._parse_image_block()
        self.accept(";")
        self.declare(name, kind, images, tok)

    def parse_constructor(self, name: Token, kind: str):
        """NAME = FN(...); a kernel error is reported at FN."""
        fn = self.ident("constructor")
        shapes = CONSTRUCTORS.get(fn.text, (None,))
        if shapes[0] != kind:
            self.error(f"unknown {kind} constructor {fn.text!r}", fn,
                       expected=[c for c, s in CONSTRUCTORS.items() if s[0] == kind])
        args = self.arguments(fn.text, shapes)
        self.expect(";")
        self.declare(name, kind, None, fn, ctor=(fn.text, args))

    def parse_inverse(self):
        """inverse(A, B): compose(A, B) and compose(B, A) fix every variable."""
        self.expect("inverse")
        start = self.peek()
        first, second = self.arguments("inverse", INVERSE)
        self.expect(";")
        self.unit.items.append(InverseDecl(first, second, self.current_ring, start))

    # -- call arguments ----------------------------------------------------------

    def arguments(self, fn: str, shapes: tuple) -> tuple:
        """Read fn's parenthesized arguments, one piece of syntax per shape."""
        self.expect("(")
        args = []
        for i, shape in enumerate(shapes):
            if shape.endswith("*"):
                items = {}
                while self.accept(","):
                    tok = self.peek()
                    key, value = self.argument(fn, shape[:-1])
                    if key in items:
                        self.error(f"duplicate {shape[:-1]} for {key!r}", tok)
                    items[key] = value
                args.append(items)
            elif shape.endswith("?"):
                args.append(self.argument(fn, shape[:-1]) if self.accept(",") else None)
            else:
                if i:
                    self.expect(",")
                args.append(self.argument(fn, shape))
        self.expect(")")
        return tuple(args)

    def argument(self, fn: str, shape: str):
        """Read one argument as syntax: a node, a name, an integer or a tag."""
        if shape == "expr":
            return self.parse_expr()
        if shape == "exprs":
            self.expect("{")
            exprs = self.listed(self.parse_expr)
            self.expect("}")
            return exprs
        if shape == "ideals":
            first = self.argument(fn, "exprs")
            self.expect(",")
            return first, self.argument(fn, "exprs")
        if shape == "point":
            tok = self.expect("point")
            self.expect("(")
            coords = self.listed(self.parse_expr)  # one per non-parameter variable
            ring = self.ring()
            targets = [v for v in ring.names if v not in ring.params]
            if len(coords) != len(targets):
                self.error(f"point needs {len(targets)} coordinates, got {len(coords)}", tok)
            self.expect(")")
            return dict(zip(targets, coords))
        if shape == "var":
            return self.variable()
        if shape == "vars":
            names = []
            self.listed(lambda: names.append(self.fresh(names, "variable")))
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
        if shape == "specialization":
            tok = self.ident("parameter name")
            if tok.text not in self.ring().params:
                self.error(f"{tok.text!r} is not a parameter", tok)
            self.expect("->")
            return tok.text, self.parse_expr()
        if shape == "weights":
            self.expect("weights")
            self.expect("(")
            weights = {}

            def weight():
                v = self.fresh(weights, "weight for")
                self.expect("->")
                weights[v] = self.integer()

            self.listed(weight)
            self.expect(")")
            return weights
        return self.named(shape, fn).text

    # -- claims ----------------------------------------------------------------

    def labels(self) -> set[str]:
        return {item.label for item in self.unit.claims + self.unit.narratives}

    def label(self) -> str:
        """Read the label of a new claim or narrative; the two share one namespace."""
        tok = self.string()
        if tok.text in self.labels():
            self.error(f"duplicate label {tok.text!r}", tok)
        return tok.text

    def parse_claim(self):
        self.expect("claim")
        label = self.label()
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
        label = self.label()
        self.expect("requires")
        self.expect("(")
        requires = self.listed(self.string)
        self.expect(")")
        self.expect(";")
        for req in requires:
            if req.text not in self.labels():
                self.error(f"narrative references unknown claim {req.text!r}", req)
        decl = NarrativeDecl(label, tuple(req.text for req in requires))
        self.unit.narratives.append(decl)
        self.unit.items.append(decl)


def parse_unit(text: str) -> SourceUnit:
    return Parser(text).parse_unit()


# ---------------------------------------------------------------------------
# canonical formatting (the `fmt` subcommand); idempotent by construction

def _fmt_argument(shape: str, arg) -> str:
    if shape == "expr":
        return arg.render()
    if shape == "exprs":
        return "{" + ", ".join(node.render() for node in arg) + "}"
    if shape == "ideals":
        return ", ".join(_fmt_argument("exprs", nodes) for nodes in arg)
    if shape == "point":
        return "point(" + ", ".join(node.render() for node in arg.values()) + ")"
    if shape == "specialization":
        return f"{arg[0]} -> {arg[1].render()}"
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
            out.append(f"inverse{_fmt_arguments(INVERSE, (item.first, item.second))};")
        elif isinstance(item, ClaimDecl):
            anchor = f'\n  anchor "{item.anchor}"' if item.anchor is not None else ""
            out.append(f'claim "{item.label}"\n'
                       f'  {item.kind}{_fmt_arguments(CLAIMS[item.kind], item.args)}{anchor}\n'
                       f'  expect {"true" if item.expect else "false"};')
        elif isinstance(item, NarrativeDecl):
            reqs = ", ".join(f'"{r}"' for r in item.requires)
            out.append(f'narrative "{item.label}" requires({reqs});')
        elif item.kind == "ring":
            ring = item.body
            sections = [", ".join(ring.names)]
            if ring.laurent:
                sections.append("laurent " + ", ".join(ring.laurent))
            if ring.params:
                sections.append("param " + ", ".join(ring.params))
            out.append(f"ring {item.name} = vars({' ; '.join(sections)});")
        elif item.kind == "poly":
            out.append(f"let {item.name} = {item.body.render()};")
        elif item.ctor is not None:
            fn, args = item.ctor
            out.append(f"{item.kind} {item.name} = {fn}{_fmt_arguments(CONSTRUCTORS[fn], args)};")
        else:
            lines = [f"  {tok.text} -> {node.render()};" for tok, node in item.body]
            body = "{\n" + "\n".join(lines) + "\n}" if lines else "{ }"
            out.append(f"{item.kind} {item.name} : {item.ring} {body}")
    return "\n".join(out) + "\n"
