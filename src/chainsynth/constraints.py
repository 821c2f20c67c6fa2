"""Propositional constraints over (hole = option) atoms.

Formulas restrict which hole assignments count as realisations.  The textual
form is an s-expression, e.g. ``(=> (or (= k2 2) (= k2 3)) (not (= k3 2)))``.
"""

from __future__ import annotations

from dataclasses import dataclass


# the deepest a constraint may nest (an atom alone is 1): far below the
# recursion limit, so that `atoms` and `eval` can always follow it
MAX_NESTING = 200


class ConstraintError(ValueError):
    pass


@dataclass(frozen=True)
class Atom:
    hole: str
    option: str

    def eval(self, assignment):
        return assignment[self.hole] == self.option

    def atoms(self):
        return {self}

    def to_sexpr(self):
        return "(= %s %s)" % (self.hole, self.option)


@dataclass(frozen=True)
class Not:
    arg: object

    def eval(self, assignment):
        return not self.arg.eval(assignment)

    def atoms(self):
        return self.arg.atoms()

    def to_sexpr(self):
        return "(not %s)" % self.arg.to_sexpr()


@dataclass(frozen=True)
class And:
    args: tuple

    def eval(self, assignment):
        return all(a.eval(assignment) for a in self.args)

    def atoms(self):
        return set().union(*(a.atoms() for a in self.args))

    def to_sexpr(self):
        return "(and %s)" % " ".join(a.to_sexpr() for a in self.args)


@dataclass(frozen=True)
class Or:
    args: tuple

    def eval(self, assignment):
        return any(a.eval(assignment) for a in self.args)

    def atoms(self):
        return set().union(*(a.atoms() for a in self.args))

    def to_sexpr(self):
        return "(or %s)" % " ".join(a.to_sexpr() for a in self.args)


@dataclass(frozen=True)
class Implies:
    lhs: object
    rhs: object

    def eval(self, assignment):
        return (not self.lhs.eval(assignment)) or self.rhs.eval(assignment)

    def atoms(self):
        return self.lhs.atoms() | self.rhs.atoms()

    def to_sexpr(self):
        return "(=> %s %s)" % (self.lhs.to_sexpr(), self.rhs.to_sexpr())


def _tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _take(tokens, pos, n):
    """The `n` tokens at `pos`; input that ends before them is an error."""
    if pos + n > len(tokens):
        raise ConstraintError("unexpected end of constraint")
    return tokens[pos:pos + n]


def _parse(tokens, pos, depth=1):
    if depth > MAX_NESTING:
        raise ConstraintError("constraint nests too deeply")
    tok, head = _take(tokens, pos, 2)
    if tok != "(":
        raise ConstraintError("expected '(' in constraint, got %r" % tok)
    pos += 2
    if head == "=":
        hole, option = _take(tokens, pos, 2)
        pos += 2
        node = Atom(hole, option)
    elif head == "not":
        arg, pos = _parse(tokens, pos, depth + 1)
        node = Not(arg)
    elif head == "=>":
        lhs, pos = _parse(tokens, pos, depth + 1)
        rhs, pos = _parse(tokens, pos, depth + 1)
        node = Implies(lhs, rhs)
    elif head in ("and", "or"):
        args = []
        while pos < len(tokens) and tokens[pos] == "(":
            arg, pos = _parse(tokens, pos, depth + 1)
            args.append(arg)
        node = And(tuple(args)) if head == "and" else Or(tuple(args))
    else:
        raise ConstraintError("unknown constraint operator %r" % head)
    if pos >= len(tokens) or tokens[pos] != ")":
        raise ConstraintError("expected ')' in constraint")
    return node, pos + 1


def parse_sexpr(text: str):
    tokens = _tokenize(text)
    node, pos = _parse(tokens, 0)
    if pos != len(tokens):
        raise ConstraintError("trailing tokens in constraint: %r" % tokens[pos:])
    return node
