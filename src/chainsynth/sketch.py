"""Parser and elaborator for the guarded-command sketch language.

A sketch declares holes (finite option lists, optionally named and costed),
propositional constraints over option names, and a single module of bounded
integer variables plus probabilistic guarded commands.  Hole references are
written ``@name@`` and may appear wherever an integer expression is expected.
Elaboration explores the union of the state spaces of all realisations and
produces a :class:`~chainsynth.family.Family`.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections import namedtuple
from dataclasses import dataclass

from . import constraints as cn
from .family import Family, Fixed, Hole, HoleRef

DEFAULT_MAX_STATES = 10 ** 6

KEYWORDS = {"hole", "either", "is", "cost", "constraint",
            "module", "endmodule", "init"}

# One match per token: whitespace and comments are skipped inside the match.
# Every position matches, since `bad` takes any character no token starts
# with, so the skip never backtracks into a comment.
_TOKEN_RE = re.compile(r"""
    [ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
    (?: (?P<op>->|=>|\.\.|<=|>=|!=|[{}\[\],;:'&|!+\-*=<>()])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>\d+\.\d+|\d+)
      | (?P<holeref>@[A-Za-z_][A-Za-z0-9_]*@)
      | (?P<eof>\Z)
      | (?P<bad>.))
""", re.VERBOSE)


class SketchError(ValueError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "%d:%d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


def _refuses_deep(what):
    """Decorate a function whose recursion follows its input's nesting, so
    that input nested past the recursion limit raises a SketchError."""
    def decorate(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except RecursionError:
                raise SketchError("%s nests too deeply" % what) from None
        return guarded
    return decorate


# kind is "number" | "ident" | "holeref" | "op" | "eof"; pos is the offset of
# the token's first character in the text
Token = namedtuple("Token", "kind text pos")


def _where(text, pos):
    """The 1-based line and column of offset `pos` in `text`."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _lex(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok, pos = m.group(kind), m.start(kind)
        if kind == "holeref":
            tok = tok[1:-1]
        elif kind == "bad":
            raise SketchError("unexpected character %r" % tok,
                              *_where(text, pos))
        tokens.append(Token(kind, tok, pos))
        if kind == "eof":
            return tokens


# ---------------------------------------------------------------------------
# expressions
#
# Each node evaluates itself under a valuation (variable -> value) and a
# binding (hole name -> its chosen option's expression), and reports the
# leaves it reads: its `Var` and `HoleE` nodes.

CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True, slots=True)
class Num:
    value: object  # an int when the literal is integral, else a float
    text: str

    def eval(self, valuation, binding):
        return self.value

    def reads(self):
        return frozenset()

    def to_text(self):
        return self.text


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def eval(self, valuation, binding):
        return valuation[self.name]

    def reads(self):
        return frozenset((self,))

    def to_text(self):
        return self.name


@dataclass(frozen=True, slots=True)
class HoleE:
    name: str

    def eval(self, valuation, binding):
        return binding[self.name].eval(valuation, binding)

    def reads(self):
        return frozenset((self,))

    def to_text(self):
        return "@%s@" % self.name


@dataclass(frozen=True, slots=True)
class Bin:
    op: str
    lhs: object
    rhs: object

    def eval(self, valuation, binding):
        # `&`, `|` and `=>` skip the right operand when the left decides:
        # evaluation has no side effects, so only the work changes
        lhs, op = self.lhs.eval(valuation, binding), self.op
        if op == "&":
            return bool(lhs) and bool(self.rhs.eval(valuation, binding))
        if op == "|":
            return bool(lhs) or bool(self.rhs.eval(valuation, binding))
        if op == "=>":
            return not lhs or bool(self.rhs.eval(valuation, binding))
        return _OPS[op](lhs, self.rhs.eval(valuation, binding))

    def reads(self):
        return self.lhs.reads() | self.rhs.reads()

    def to_text(self):
        return "(%s %s %s)" % (self.lhs.to_text(), self.op, self.rhs.to_text())


@dataclass(frozen=True, slots=True)
class Un:
    op: str
    arg: object

    def eval(self, valuation, binding):
        x = self.arg.eval(valuation, binding)
        return (not x) if self.op == "!" else -x

    def reads(self):
        return self.arg.reads()

    def to_text(self):
        return "%s(%s)" % (self.op, self.arg.to_text())


# ---------------------------------------------------------------------------
# program AST


@dataclass(frozen=True)
class OptionDecl:
    label: str  # explicit name, or the option expression's source text
    expr: object
    cost: int
    named: bool


@dataclass(frozen=True)
class HoleDecl:
    name: str
    options: tuple  # tuple[OptionDecl, ...]
    line: int = 0


@dataclass(frozen=True)
class VarDecl:
    name: str
    lo: int
    hi: int
    init: int
    line: int = 0


@dataclass(frozen=True)
class Command:
    guard: object
    branches: tuple  # tuple[(prob_expr, update), ...]; update = tuple[(var, expr), ...]
    line: int = 0


@dataclass(frozen=True)
class SketchProgram:
    holes: tuple
    constraints: tuple  # boolean Exprs over option names
    module_name: str
    variables: tuple  # tuple[VarDecl, ...]
    commands: tuple


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _lex(text)
        self.seek(0)

    def seek(self, pos):
        self.pos = pos
        self.tok = self.tokens[pos]  # the current token

    def peek(self, ahead) -> Token:
        """The token `ahead` places after the current one."""
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def line(self, tok) -> int:
        return _where(self.text, tok.pos)[0]

    def next(self) -> Token:
        tok = self.tok
        if tok.kind != "eof":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def expect(self, text) -> Token:
        tok = self.next()
        if tok.text != text:
            self.error("expected %r, got %r" % (text, tok.text or "<eof>"), tok)
        return tok

    def accept(self, text) -> bool:
        if self.tok.text == text:
            self.next()
            return True
        return False

    def error(self, msg, tok=None):
        raise SketchError(msg, *_where(self.text, (tok or self.tok).pos))

    # expressions; precedence: => | & ! cmp additive multiplicative unary
    def expr(self):
        lhs = self.or_expr()
        if self.accept("=>"):
            return Bin("=>", lhs, self.expr())
        return lhs

    def or_expr(self):
        lhs = self.and_expr()
        while self.accept("|"):
            lhs = Bin("|", lhs, self.and_expr())
        return lhs

    def and_expr(self):
        lhs = self.not_expr()
        while self.accept("&"):
            lhs = Bin("&", lhs, self.not_expr())
        return lhs

    def not_expr(self):
        if self.accept("!"):
            return Un("!", self.not_expr())
        return self.cmp_expr()

    # only "op" tokens have these texts, so their kind is not checked
    def cmp_expr(self):
        lhs = self.arith()
        if self.tok.text in CMP_OPS:
            op = self.next().text
            return Bin(op, lhs, self.arith())
        return lhs

    def arith(self, in_update=False):
        lhs = self.term()
        last_plus = None
        while self.tok.text in ("+", "-"):
            if in_update and self.tok.text == "+":
                last_plus = (self.pos, lhs)
            op = self.next().text
            lhs = Bin(op, lhs, self.term())
        if last_plus and self.tok.text == ":":
            # in an update the last `+` before a `:` starts the next branch:
            # `s'=s+1 + 0.5: s'=0`
            pos, lhs = last_plus
            self.seek(pos)
        return lhs

    def term(self):
        lhs = self.unary()
        while self.accept("*"):
            lhs = Bin("*", lhs, self.unary())
        return lhs

    def unary(self):
        if self.accept("-"):
            return Un("-", self.unary())
        return self.atom()

    def atom(self):
        tok = self.tok
        if tok.kind == "number":
            self.next()
            value = float(tok.text)
            return Num(int(value) if value.is_integer() else value, tok.text)
        if tok.kind == "holeref":
            self.next()
            return HoleE(tok.text)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            return Var(tok.text)
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        self.error("expected expression, got %r" % (tok.text or "<eof>"))

    # program structure
    def program(self) -> SketchProgram:
        holes = []
        seen_names = set()
        while self.tok.text == "hole":
            holes.append(self.hole_decl(seen_names))
        constraints = []
        while self.tok.text == "constraint":
            self.next()
            constraints.append(self.expr())
        self.expect("module")
        name_tok = self.next()
        if name_tok.kind != "ident":
            self.error("expected module name", name_tok)
        variables = []
        while self.tok.kind == "ident" and self.peek(1).text == ":":
            variables.append(self.var_decl(variables))
        commands = []
        while self.tok.text != "endmodule":
            if self.tok.kind == "eof":
                self.error("missing endmodule")
            commands.append(self.command())
        self.expect("endmodule")
        if self.tok.kind != "eof":
            self.error("trailing input after endmodule")
        return SketchProgram(tuple(holes), tuple(constraints), name_tok.text,
                             tuple(variables), tuple(commands))

    def hole_decl(self, seen_names) -> HoleDecl:
        start = self.expect("hole")
        tok = self.next()
        if tok.kind not in ("ident", "holeref"):
            self.error("expected hole name", tok)
        name = tok.text
        if name in seen_names:
            self.error("duplicate hole name %r" % name, tok)
        seen_names.add(name)
        self.expect("either")
        self.expect("{")
        options = []
        while True:
            options.append(self.option_decl())
            if not self.accept(","):
                break
        self.expect("}")
        labels = [o.label for o in options]
        if len(set(labels)) != len(labels):
            self.error("hole %s has duplicate option labels" % name, start)
        return HoleDecl(name, tuple(options), self.line(start))

    def option_decl(self) -> OptionDecl:
        named = self.tok.kind == "ident" and self.tok.text not in KEYWORDS \
            and self.peek(1).text == "is"
        if named:
            label = self.next().text
            self.expect("is")
        expr = self.arith()
        cost = 0
        if self.accept("cost"):
            cost_expr = self.arith()
            cost = None if cost_expr.reads() else cost_expr.eval({}, {})
            if not isinstance(cost, int) or cost < 0:
                self.error("option cost must be a natural number")
        if not named:
            # the expression's text, less the one pair of brackets
            # `Bin.to_text` puts round the whole
            label = expr.to_text()[1:-1] if isinstance(expr, Bin) \
                else expr.to_text()
        return OptionDecl(label, expr, cost, named)

    def var_decl(self, declared) -> VarDecl:
        name_tok = self.next()
        if any(v.name == name_tok.text for v in declared):
            self.error("variable %s declared twice" % name_tok.text, name_tok)
        self.expect(":")
        self.expect("[")
        lo = self._int()
        self.expect("..")
        hi = self._int()
        self.expect("]")
        self.expect("init")
        init = self._int()
        self.expect(";")
        if hi < lo:
            self.error("variable %s has empty bounds" % name_tok.text, name_tok)
        if not (lo <= init <= hi):
            self.error("initial value of %s outside bounds" % name_tok.text,
                       name_tok)
        return VarDecl(name_tok.text, lo, hi, init, self.line(name_tok))

    def _int(self) -> int:
        neg = self.accept("-")
        tok = self.next()
        if tok.kind != "number" or "." in tok.text:
            self.error("expected integer, got %r" % tok.text, tok)
        return -int(tok.text) if neg else int(tok.text)

    def command(self) -> Command:
        start = self.tok
        guard = self.expr()
        self.expect("->")
        branches = [self.branch()]
        while self.accept("+"):
            branches.append(self.branch())
        self.expect(";")
        return Command(guard, tuple(branches), self.line(start))

    def branch(self):
        prob = self.arith()
        self.expect(":")
        update = [self.assignment(())]
        while self.tok.text == "&" and self.peek(1).kind == "ident" \
                and self.peek(2).text == "'":
            self.next()
            update.append(self.assignment(update))
        return (prob, tuple(update))

    def assignment(self, written):
        tok = self.next()
        if tok.kind != "ident":
            self.error("expected variable in update", tok)
        if any(var == tok.text for var, _ in written):
            self.error("update writes %s twice" % tok.text, tok)
        self.expect("'")
        self.expect("=")
        rhs = self.arith(in_update=True)
        return (tok.text, rhs)


@_refuses_deep("sketch")
def parse(text: str) -> SketchProgram:
    """Parse sketch text into an AST; raises SketchError with line/column."""
    return _Parser(text).program()


def pretty_print(prog: SketchProgram) -> str:
    lines = []
    for h in prog.holes:
        opts = []
        for o in h.options:
            s = "%s is %s" % (o.label, o.expr.to_text()) if o.named \
                else o.expr.to_text()
            if o.cost:
                s += " cost %d" % o.cost
            opts.append(s)
        lines.append("hole %s either { %s }" % (h.name, ", ".join(opts)))
    for c in prog.constraints:
        lines.append("constraint %s" % c.to_text())
    lines.append("module %s" % prog.module_name)
    for v in prog.variables:
        lines.append("%s : [%d..%d] init %d;" % (v.name, v.lo, v.hi, v.init))
    for cmd in prog.commands:
        branches = " + ".join(
            "%s: %s" % (p.to_text(),
                        " & ".join("%s'=%s" % (var, e.to_text())
                                   for var, e in upd))
            for p, upd in cmd.branches)
        lines.append("%s -> %s;" % (cmd.guard.to_text(), branches))
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# elaboration


def _operands(expr, op):
    """The operands of `expr`'s top-level `op` chain."""
    if isinstance(expr, Bin) and expr.op == op:
        return _operands(expr.lhs, op) + _operands(expr.rhs, op)
    return (expr,)


def _stray(expr, known):
    """The first leaf, in text order, that `expr` reads outside `known`."""
    return min((x.to_text() for x in expr.reads() - known), default=None)


def _reduce_table(names, table):
    """Drop the holes whose options never change the successor.  Whether the
    table depends on a hole does not change as others are dropped, so one
    pass finds them all."""
    keep = []
    for i in range(len(names)):
        rest = {}
        if any(rest.setdefault(key[:i] + key[i + 1:], t) != t
               for key, t in table.items()):
            keep.append(i)
    return (tuple(names[i] for i in keep),
            {tuple(key[i] for i in keep): t for key, t in table.items()})


# A command prepared for elaboration.  `guard_holes` are the holes its guard
# reads, `pre` the guard's hole-free conjuncts when it reads any; per branch,
# `updates` holds (variable position, expression) pairs and `update_holes`
# the holes they read.  Hole names are kept in declaration order.
_Rule = namedtuple("_Rule", "line guard guard_holes pre probs updates "
                            "update_holes")
# the options under which a rule with no guard holes is enabled
_UNDER_ANY_OPTIONS = frozenset({()})


@_refuses_deep("sketch expression")
def elaborate(prog: SketchProgram, max_states: int = DEFAULT_MAX_STATES) -> Family:
    """Build the family of MCs described by a sketch.

    The state space is the union over all realisations of the valuations
    reachable from the initial valuation.  Exactly one command must be
    enabled per state and per combination of options of the guard holes of
    the commands enabled there; commands that compete under different hole
    options must agree on their branch probabilities so the family's
    per-state distribution is well defined.  A guard is evaluated only under
    the options of the holes it reads, and only in states where its
    hole-free conjuncts hold.
    """
    holes = {h.name: h for h in prog.holes}
    order = {name: i for i, name in enumerate(holes)}
    # option names must be unique program-wide when present
    seen_labels = {}
    for h in prog.holes:
        for o in h.options:
            if o.named:
                if o.label in seen_labels:
                    raise SketchError("option name %r declared twice" % o.label)
                seen_labels[o.label] = (h.name, o.label)
    if not prog.variables:
        raise SketchError("module declares no variables")
    var_names = tuple(v.name for v in prog.variables)
    position = {n: i for i, n in enumerate(var_names)}
    known = {Var(n) for n in var_names}
    for h in prog.holes:
        for o in h.options:
            if x := _stray(o.expr, known):
                raise SketchError("hole %s option reads %s, which is not a "
                                  "variable" % (h.name, x), h.line, 0)
    known |= {HoleE(n) for n in holes}

    def in_order(names):
        return tuple(sorted(set(names), key=order.get))

    def holes_read(exprs):
        return in_order(x.name for e in exprs for x in e.reads()
                        if isinstance(x, HoleE))

    @functools.cache
    def bindings(names):
        """(option labels, hole -> option expression) for each combination
        of the options of `names`, in product order."""
        return [(tuple(o.label for o in combo),
                 {n: o.expr for n, o in zip(names, combo)})
                for combo in itertools.product(
                    *(holes[n].options for n in names))]

    rules = []
    for cmd in prog.commands:
        for e in (cmd.guard, *(e for _, upd in cmd.branches for _, e in upd)):
            if x := _stray(e, known):
                raise SketchError("unknown %s %s" % (
                    "hole" if x[0] == "@" else "identifier", x), cmd.line, 0)
        probs = []
        for p_expr, upd in cmd.branches:
            if p_expr.reads():
                raise SketchError("probability expression must be constant",
                                  cmd.line, 0)
            probs.append(float(p_expr.eval({}, {})))
            if not 0.0 < probs[-1] <= 1.0:
                raise SketchError("branch probability %r outside (0, 1]"
                                  % probs[-1], cmd.line, 0)
            for var, _ in upd:
                if var not in position:
                    raise SketchError("update writes unknown variable %r" % var,
                                      cmd.line, 0)
        if abs(sum(probs) - 1.0) > 1e-9:
            raise SketchError("branch probabilities sum to %r" % sum(probs),
                              cmd.line, 0)
        guard_holes = holes_read([cmd.guard])
        rules.append(_Rule(
            cmd.line, cmd.guard, guard_holes,
            tuple(c for c in _operands(cmd.guard, "&") if not holes_read([c]))
            if guard_holes else (),
            tuple(probs),
            tuple(tuple((position[var], e) for var, e in upd)
                  for _, upd in cmd.branches),
            tuple(holes_read([e for _, e in upd]) for _, upd in cmd.branches)))

    unbound = {}  # the binding of a hole-free expression
    init_valuation = tuple(v.init for v in prog.variables)
    index = {init_valuation: 0}
    valuations = [init_valuation]
    rows = []
    for vals in valuations:  # grows as successors are discovered
        v = dict(zip(var_names, vals))
        # per enabled rule, the options of its guard holes that enable it
        fires = {}
        for i, r in enumerate(rules):
            if not r.guard_holes:
                if r.guard.eval(v, unbound):
                    fires[i] = _UNDER_ANY_OPTIONS
            elif all(c.eval(v, unbound) for c in r.pre):
                on = {key for key, b in bindings(r.guard_holes)
                      if r.guard.eval(v, b)}
                if on:
                    fires[i] = on
        names = in_order(h for i in fires for h in rules[i].guard_holes)
        chosen = {}  # options of `names` -> the rule that fires under them
        for key, _ in bindings(names):
            a = dict(zip(names, key))
            hits = [i for i, on in fires.items()
                    if tuple(a[h] for h in rules[i].guard_holes) in on]
            if len(hits) > 1:
                raise SketchError(
                    "commands on lines %s overlap in state %s"
                    % (", ".join(str(rules[i].line) for i in hits),
                       _valname(var_names, vals)))
            if not hits:
                raise SketchError("no command enabled in state %s"
                                  % _valname(var_names, vals))
            chosen[key] = hits[0]

        base, *others = fires  # not empty: the check above raised
        for other in others:
            if len(rules[other].probs) != len(rules[base].probs) or any(
                    abs(a - b) > 1e-12
                    for a, b in zip(rules[other].probs, rules[base].probs)):
                raise SketchError(
                    "commands on lines %d and %d compete under hole options in "
                    "state %s but differ in branch probabilities"
                    % (rules[base].line, rules[other].line,
                       _valname(var_names, vals)))

        def apply_update(r, bi, binding):
            new = list(vals)
            for pos, e in r.updates[bi]:
                val, var = e.eval(v, binding), prog.variables[pos]
                if not isinstance(val, int) or isinstance(val, bool):
                    raise SketchError("update of %s is not an integer"
                                      % var.name, r.line, 0)
                if not (var.lo <= val <= var.hi):
                    raise SketchError(
                        "update leaves bounds of %s (value %d) in state %s"
                        % (var.name, val, _valname(var_names, vals)), r.line, 0)
                new[pos] = val
            succ_vals = tuple(new)
            if succ_vals not in index:
                if len(index) >= max_states:
                    raise SketchError("state space exceeds %d valuations"
                                      % max_states)
                index[succ_vals] = len(valuations)
                valuations.append(succ_vals)
            return index[succ_vals]

        # branch-major, product-order enumeration numbers the states
        deciding = names if others else ()  # the guard holes that pick a rule
        row = []
        for bi, p in enumerate(rules[base].probs):
            relevant = in_order(deciding + tuple(
                h for i in fires for h in rules[i].update_holes[bi]))
            at = [relevant.index(h) for h in deciding]
            table = {}
            for key, b in bindings(relevant):
                i = chosen[tuple(key[j] for j in at)] if others else base
                table[key] = apply_update(rules[i], bi, b)
            kept, table = _reduce_table(relevant, table)
            row.append((p, HoleRef(kept, table) if kept
                        else Fixed(next(iter(table.values())))))
        rows.append(tuple(row))

    fam_holes = tuple(Hole(h.name,
                           tuple(o.label for o in h.options),
                           tuple(o.cost for o in h.options))
                      for h in prog.holes)
    fam_constraints = tuple(_resolve_constraint(c, seen_labels)
                            for c in prog.constraints)
    return Family(
        n_states=len(valuations),
        init=0,
        holes=fam_holes,
        transitions=tuple(rows),
        constraints=fam_constraints,
        variables=var_names,
        valuations=tuple(valuations),
    )


def _valname(var_names, vals):
    return "(" + ",".join("%s=%d" % (n, x)
                          for n, x in zip(var_names, vals)) + ")"


def _resolve_constraint(expr, option_names, depth=1):
    """Turn a formula over option names into one over (hole = option) atoms,
    nested at most as deep as a JSON constraint may be."""
    if depth > cn.MAX_NESTING:
        raise SketchError("constraint nests too deeply")
    if isinstance(expr, Var):
        if expr.name not in option_names:
            raise SketchError("constraint references unknown option %r"
                              % expr.name)
        hole, label = option_names[expr.name]
        return cn.Atom(hole, label)
    if isinstance(expr, Un) and expr.op == "!":
        return cn.Not(_resolve_constraint(expr.arg, option_names, depth + 1))
    if isinstance(expr, Bin) and expr.op in ("&", "|"):
        # a chain of one operator is one node: its length adds no nesting
        return (cn.And if expr.op == "&" else cn.Or)(tuple(
            _resolve_constraint(e, option_names, depth + 1)
            for e in _operands(expr, expr.op)))
    if isinstance(expr, Bin) and expr.op == "=>":
        return cn.Implies(*(_resolve_constraint(e, option_names, depth + 1)
                            for e in (expr.lhs, expr.rhs)))
    raise SketchError("constraints must be propositional over option names")


@_refuses_deep("goal expression")
def goal_states(fam: Family, expr_text: str) -> frozenset:
    """Evaluate a boolean expression over the family's variables per state."""
    parser = _Parser(expr_text)
    expr = parser.expr()
    if parser.tok.kind != "eof":
        parser.error("trailing input after goal expression")
    if fam.variables is None:
        variables = ("s",)
        valuations = tuple((s,) for s in range(fam.n_states))
    else:
        variables = fam.variables
        valuations = fam.valuations
    if x := _stray(expr, {Var(n) for n in variables}):
        raise SketchError("goal expression reads %s, which is not a variable"
                          % x)
    return frozenset(s for s, vals in enumerate(valuations)
                     if expr.eval(dict(zip(variables, vals)), {}))
