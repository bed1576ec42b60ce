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
tokenize gives (kind, text, offset) tuples, which the parser reads by index; a
record keeps the offset it is reported at, and errors.error_at counts a line
and column from it only for a diagnostic.  An integer literal has at most
MAX_DIGITS digits.
"""

from __future__ import annotations

import re

from .errors import Record, error_at
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
MAX_DIGITS = 640  # integer literal length; PYTHONINTMAXSTRDIGITS may make int() fail above it

KEYWORDS = {
    "ring", "vars", "laurent", "param", "let", "map", "derivation", "claim",
    "narrative", "requires", "anchor", "expect", "true", "false", "inverse",
    "point", "weights", "w",
} | CLAIMS.keys() | CONSTRUCTORS.keys() | BUILTINS.keys()


# One match per token: the spaces, newlines and whole-line comments before
# it, then one alternative per kind.  Some alternative always matches, so the
# skip never backtracks; eof is at the end, or at the '#' of a final comment.
# An identifier starts with an isalpha() character or '_', which no regex class
# says (\w and [^\W\d] match '²'): tokenize checks a word not starting in ASCII.
_TOKEN = re.compile(r'[ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*)*(?:(?P<ident>[A-Za-z_]\w*)'
                    r'|(?P<punct>->|[(){},;:^*+\-/=])|(?P<long>[0-9]{%d})|(?P<int>[0-9]+)'
                    r'|(?P<word>[^\W\d]\w*)|"(?P<string>[^"\n]*)"|(?P<unterminated>")'
                    r'|(?P<eof>(?:#[^\n]*)?\Z)|(?P<bad>.))' % (MAX_DIGITS + 1))
_PLAIN = frozenset(("ident", "punct", "int"))
_LEXICAL = {"long": f"integer longer than {MAX_DIGITS} digits",
            "unterminated": "unterminated string"}


def tokenize(text: str) -> list[tuple]:
    """(kind, text, offset) per token, the last ('eof', '', offset); kind is
    ident, int, string, punct or eof, and a string is its text between the
    quotes, at the offset of the opening one."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, pos = m[kind], m.start(kind)
        if kind not in _PLAIN:
            if kind == "eof":
                tokens.append((kind, "", pos))
                return tokens
            if kind == "string":
                pos -= 1
            elif kind == "word" and value[0].isalpha():
                kind = "ident"
            else:  # bad, or a word that starts with a character such as '²'
                raise error_at(text, pos, _LEXICAL.get(kind, f"unexpected character {text[pos]!r}"))
        tokens.append((kind, value, pos))


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


# The parser builds its expression nodes through these, one per slot count:
# each fills the slots through their setters, as poly._polynomial does,
# without the count check of Record.__init__.
_new = object.__new__


def _node1(cls, a):
    node = _new(cls)
    cls._setters[0](node, a)
    return node


def _node2(cls, a, b):
    node = _new(cls)
    set_a, set_b = cls._setters
    set_a(node, a)
    set_b(node, b)
    return node


def _node3(cls, a, b, c):
    node = _new(cls)
    set_a, set_b, set_c = cls._setters
    set_a(node, a)
    set_b(node, b)
    set_c(node, c)
    return node


# ---------------------------------------------------------------------------
# declarations

class Ring(Record):
    __slots__ = ("names", "laurent", "params")  # tuples of variable names, as declared


class Decl(Record):
    """A declared name, as syntax, over the ring current at it.  body is a
    ring's Ring (ring: None), a let's node, or a map's or derivation's
    image block, ((variable, offset, node), ...); ctor is a constructor's
    (fn, args), else None.  A kernel error is reported at offset pos of the
    text (a ring: None), or at its image's offset."""

    __slots__ = ("kind", "name", "ring", "body", "ctor", "pos")


class InverseDecl(Record):
    __slots__ = ("first", "second", "ring", "pos")  # a kernel error is reported at offset pos


class ClaimDecl(Record):
    # args: one piece of syntax per shape in CLAIMS[kind]; anchor: None if absent
    __slots__ = ("label", "kind", "ring", "args", "expect", "anchor")


class NarrativeDecl(Record):
    __slots__ = ("label", "requires")  # requires: a tuple of earlier labels


class SourceUnit:
    __slots__ = ("text", "items", "env", "rings", "claims", "narratives")

    def __init__(self, text: str):
        self.text = text  # the source, which each record's offset points into
        self.items = []
        self.env = {}  # name -> Decl, for all but rings
        self.rings = {}  # name -> Ring
        self.claims = []
        self.narratives = []


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        self.unit = SourceUnit(text)
        self.current_ring: str | None = None
        self.depth = 0  # expressions open around the one being read
        self.labels: set[str] = set()  # of the claims and narratives read: one namespace

    # -- token helpers -------------------------------------------------------

    def next(self) -> tuple:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: tuple | None = None, expected=()):
        raise error_at(self.unit.text, (tok or self.tokens[self.i])[2], message, expected)

    def expect(self, text: str) -> tuple:
        tok = self.tokens[self.i]
        if self.accept(text):
            return tok
        self.error(f"found {tok[1]!r}" if tok[0] != "eof" else "unexpected end of input",
                   tok, expected=(text,))

    def accept(self, text: str) -> bool:
        tok = self.tokens[self.i]
        if tok[1] == text and tok[0] != "string":  # a string may hold any text
            self.i += 1
            return True
        return False

    def take(self, what: str, kind="ident", expected=()) -> tuple:
        """The next token, which must be of kind: else 'expected what' at it."""
        tok = self.next()
        if tok[0] != kind:
            self.error(f"expected {what}", tok, expected)
        return tok

    def string(self) -> tuple:
        return self.take("a string literal", "string", ("string",))

    def listed(self, read) -> list:
        """One or more values read by read(), separated by commas."""
        out = [read()]
        while self.accept(","):
            out.append(read())
        return out

    def integer(self) -> int:
        neg = self.accept("-")
        digits = self.take("an integer", "int", ("integer",))[1]
        return -int(digits) if neg else int(digits)

    # -- name table ----------------------------------------------------------

    def declare(self, name_tok: tuple, kind: str, body, pos=None, ctor=None):
        """Check the name, then record its Decl in env (a ring: in rings) and items."""
        name = name_tok[1]
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
            decl = self.unit.env[name] = Decl(kind, name, self.current_ring, body, ctor, pos)
        self.unit.items.append(decl)

    def ring(self) -> Ring:
        if self.current_ring is None:
            self.error("no ring declared yet")
        return self.unit.rings[self.current_ring]

    def lookup(self, tok: tuple) -> Decl:
        decl = self.unit.env.get(tok[1])
        if decl is None:
            self.error(f"use of undeclared name {tok[1]!r}", tok)
        return decl

    def named(self, kind: str, fn: str) -> str:
        """Read the name of a declared object of the kind ('a|b': either) fn() needs."""
        what = kind.replace("|", " or ")
        tok = self.take(f"{what} name")
        got = self.lookup(tok).kind
        if got not in kind.split("|"):
            self.error(f"{fn}() needs a {what}, {tok[1]!r} is a {got}", tok)
        return tok[1]

    def variable(self) -> str:
        tok = self.take("variable name")
        if tok[1] not in self.ring().names:
            self.error(f"unknown variable {tok[1]!r}", tok)
        return tok[1]

    def fresh(self, seen, what: str) -> str:
        """Read a variable name not in seen; a repeat is an error at its token."""
        tok = self.tokens[self.i]
        v = self.variable()
        if v in seen:
            self.error(f"duplicate {what} {v!r}", tok)
        return v

    # -- expressions ----------------------------------------------------------

    def parse_expr(self):
        if self.depth == MAX_NESTING:
            self.error(f"expressions nest deeper than {MAX_NESTING}")
        self.depth += 1
        node = _node1(Negate, self.parse_term()) if self.accept("-") else self.parse_term()
        while (op := self.tokens[self.i][1]) in ("+", "-") and self.accept(op):
            node = _node3(BinOp, op, node, self.parse_term())
        self.depth -= 1
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.accept("*"):
            node = _node3(BinOp, "*", node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_base()
        return _node2(Pow, node, self.integer()) if self.accept("^") else node

    def parse_base(self):
        kind, text, _ = tok = self.next()
        if kind == "int":
            if self.accept("/"):
                den = self.take("a denominator", "int", ("integer",))
                if int(den[1]) == 0:
                    self.error("zero denominator", den)
                text += "/" + den[1]
            self.ring()  # a number is a constant of the current ring
            return _node1(Lit, text)
        if kind == "punct" and text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind != "ident":
            self.error("expected a polynomial", tok, expected=("number", "identifier", "("))
        if text == "w":
            self.ring()  # w, like a number, needs a ring
            return _node1(Lit, text)
        if text in BUILTINS:
            return _node2(Builtin, text, self.arguments(text, BUILTINS[text]))
        if text in self.ring().names:
            return _node1(Ref, text)
        decl = self.lookup(tok)
        if decl.kind == "poly":
            return _node1(Ref, text)
        if not self.accept("("):
            self.error(f"{text!r} is a {decl.kind}; apply it as {text}(...)", tok)
        arg = self.parse_expr()
        self.expect(")")
        return _node2(Apply, text, arg)

    # -- declarations ----------------------------------------------------------

    def parse_unit(self) -> SourceUnit:
        while (tok := self.next())[0] != "eof":
            read = self.DECLARATIONS.get(tok[1]) if tok[0] == "ident" else None
            if read is None:
                self.error(f"unknown declaration {tok[1]!r}" if tok[0] == "ident" else
                           "expected a declaration", tok,
                           expected=("ring", "let", "map", "derivation", "claim"))
            read(self)  # the rest of the declaration, after its first word
        return self.unit

    def _idlist(self) -> list[tuple]:
        return self.listed(lambda: self.take("variable name"))

    def _parse_ring(self):
        name = self.take("ring name")
        self.expect("=")
        self.expect("vars")
        self.expect("(")
        var_toks = self._idlist()
        laurent: list[tuple] = []
        params: list[tuple] = []
        while self.accept(";"):
            section = self.take("'laurent' or 'param'")
            if section[1] == "laurent":
                laurent.extend(self._idlist())
            elif section[1] == "param":
                params.extend(self._idlist())
            else:
                self.error("expected 'laurent' or 'param'", section)
        self.expect(")")
        names = []
        for tok in var_toks:
            if tok[1] == "w" or tok[1] in KEYWORDS:
                self.error(f"{tok[1]!r} is reserved and cannot be a variable", tok)
            if tok[1] in names:
                self.error(f"duplicate variable {tok[1]!r}", tok)
            if tok[1] in self.unit.env or tok[1] in self.unit.rings:
                self.error(f"{tok[1]!r} collides with a declared name", tok)
            names.append(tok[1])
        for flagged in laurent + params:
            if flagged[1] not in names:
                self.error(f"flagged variable {flagged[1]!r} is not in vars(...)", flagged)
        self.expect(";")
        self.declare(name, "ring", Ring(tuple(names), tuple(t[1] for t in laurent),
                                        tuple(t[1] for t in params)))
        self.current_ring = name[1]

    def _parse_let(self):
        name = self.take("name")
        self.expect("=")
        pos = self.tokens[self.i][2]
        node = self.parse_expr()
        self.expect(";")
        self.declare(name, "poly", node, pos)

    def _parse_map_or_derivation(self):
        """KIND NAME = FN(...); or KIND NAME [: RING] { v -> poly; ... } [;] for
        KIND map or derivation.  A kernel error is reported at FN, else at the
        block or at an image's variable."""
        kind = self.tokens[self.i - 1][1]  # 'map' or 'derivation', read by parse_unit
        name = self.take(f"{kind} name")
        if self.accept("="):
            fn = self.take("constructor")
            shapes = CONSTRUCTORS.get(fn[1], (None,))
            if shapes[0] != kind:
                self.error(f"unknown {kind} constructor {fn[1]!r}", fn,
                           expected=[c for c, s in CONSTRUCTORS.items() if s[0] == kind])
            args = self.arguments(fn[1], shapes)
            self.expect(";")
            self.declare(name, kind, None, fn[2], ctor=(fn[1], args))
            return
        pos = self.tokens[self.i][2]
        if self.accept(":"):  # the ring switches to RING
            rtok = self.take("ring name")
            if rtok[1] not in self.unit.rings:
                self.error(f"unknown ring {rtok[1]!r}", rtok)
            self.current_ring = rtok[1]
        self.expect("{")
        images: dict[str, tuple] = {}  # variable -> (variable, its offset, node), as written
        ring = self.ring()
        while not self.accept("}"):
            vtok = self.tokens[self.i]
            self.fresh(images, "image for")
            if vtok[1] in ring.params:
                self.error(f"{vtok[1]!r} is a parameter and cannot be remapped", vtok)
            self.expect("->")
            images[vtok[1]] = vtok[1], vtok[2], self.parse_expr()
            self.expect(";")
        self.accept(";")
        self.declare(name, kind, tuple(images.values()), pos)

    def _parse_inverse(self):
        """inverse(A, B): compose(A, B) and compose(B, A) fix every variable."""
        pos = self.tokens[self.i][2]
        first, second = self.arguments("inverse", INVERSE)
        self.expect(";")
        self.unit.items.append(InverseDecl(first, second, self.current_ring, pos))

    # -- call arguments ----------------------------------------------------------

    def arguments(self, fn: str, shapes: tuple) -> tuple:
        """Read fn's parenthesized arguments, one piece of syntax per shape."""
        self.expect("(")
        args = []
        for i, shape in enumerate(shapes):
            if shape.endswith("*"):
                items = {}
                while self.accept(","):
                    tok = self.tokens[self.i]
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
            return self.take("parameter name")[1]
        if shape == "integer":
            return self.integer()
        if shape == "bound":
            tok = self.tokens[self.i]
            bound = self.integer()
            if bound < 1:
                self.error("bound must be positive", tok)
            return bound
        if shape == "tag":
            tok = self.take("cone tag")
            if tok[1] not in CONE_TAGS:
                self.error(f"unknown cone tag {tok[1]!r}", tok, expected=CONE_TAGS)
            return tok[1]
        if shape == "specialization":
            tok = self.take("parameter name")
            if tok[1] not in self.ring().params:
                self.error(f"{tok[1]!r} is not a parameter", tok)
            self.expect("->")
            return tok[1], self.parse_expr()
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
        return self.named(shape, fn)

    # -- claims ----------------------------------------------------------------

    def label(self) -> str:
        """Read the label of a new claim or narrative; the two share one namespace."""
        tok = self.string()
        if tok[1] in self.labels:
            self.error(f"duplicate label {tok[1]!r}", tok)
        return tok[1]

    def _parse_claim(self):
        label = self.label()
        kind_tok = self.take("claim kind")
        kind = kind_tok[1]
        if kind not in CLAIMS:
            self.error(f"unknown claim kind {kind!r}", kind_tok, expected=CLAIMS)
        args = self.arguments(kind, CLAIMS[kind])
        anchor = self.string()[1] if self.accept("anchor") else None
        self.expect("expect")
        exp_tok = self.take("'true' or 'false'")
        if exp_tok[1] not in ("true", "false"):
            self.error("expectation must be true or false", exp_tok,
                       expected=("true", "false"))
        self.expect(";")
        decl = ClaimDecl(label, kind, self.current_ring, args,
                         exp_tok[1] == "true", anchor)
        self.unit.claims.append(decl)
        self.unit.items.append(decl)
        self.labels.add(label)

    def _parse_narrative(self):
        label = self.label()
        self.expect("requires")
        self.expect("(")
        requires = self.listed(self.string)
        self.expect(")")
        self.expect(";")
        for req in requires:
            if req[1] not in self.labels:
                self.error(f"narrative references unknown claim {req[1]!r}", req)
        decl = NarrativeDecl(label, tuple(req[1] for req in requires))
        self.unit.narratives.append(decl)
        self.unit.items.append(decl)
        self.labels.add(label)

    # the word that starts each declaration, and the method that reads it
    DECLARATIONS = {"ring": _parse_ring, "let": _parse_let, "map": _parse_map_or_derivation,
                    "derivation": _parse_map_or_derivation, "inverse": _parse_inverse,
                    "claim": _parse_claim, "narrative": _parse_narrative}


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
            lines = [f"  {v} -> {node.render()};" for v, _, node in item.body]
            body = "{\n" + "\n".join(lines) + "\n}" if lines else "{ }"
            out.append(f"{item.kind} {item.name} : {item.ring} {body}")
    return "\n".join(out) + "\n"
