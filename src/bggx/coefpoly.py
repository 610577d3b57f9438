"""Small exact polynomial ring in named symbols, used for coefficients.

Just enough arithmetic for series work where exponents like h and q stay
symbolic: addition, multiplication, scalar division, substitution. All
coefficients are Fractions; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


class CoefPoly:
    """Polynomial over Q in a fixed ordered tuple of symbols.

    terms maps exponent tuples (aligned with self.vars) to non-zero
    Fractions. The zero polynomial has no terms.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms=None):
        self.vars = tuple(vars)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise ValueError("exponent tuple does not match symbol count")
            c = _as_fraction(c)
            if c:
                clean[exps] = clean.get(exps, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c}

    # ------------------------------------------------------------ builders

    @classmethod
    def constant(cls, value, vars):
        return cls(vars, {(0,) * len(vars): _as_fraction(value)})

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        exps = tuple(1 if v == name else 0 for v in vars)
        if sum(exps) != 1:
            raise ValueError(f"unknown symbol {name!r} for {vars}")
        return cls(vars, {exps: Fraction(1)})

    # ---------------------------------------------------------- predicates

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    # ---------------------------------------------------------- arithmetic

    def _coerce(self, other):
        if isinstance(other, CoefPoly):
            if other.vars != self.vars:
                raise ValueError("symbol mismatch")
            return other
        return CoefPoly.constant(other, self.vars)

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = CoefPoly.__new__(CoefPoly)
        res.vars = self.vars
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = CoefPoly.__new__(CoefPoly)
        res.vars = self.vars
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = CoefPoly.__new__(CoefPoly)
        res.vars = self.vars
        res.terms = out
        return res

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _as_fraction(scalar)
        if not c:
            raise ZeroDivisionError("division of polynomial by zero")
        return self.scale(Fraction(1) / c)

    def scale(self, c):
        c = _as_fraction(c)
        res = CoefPoly.__new__(CoefPoly)
        res.vars = self.vars
        res.terms = {e: v * c for e, v in self.terms.items()} if c else {}
        return res

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = CoefPoly.constant(1, self.vars)
        for _ in range(n):
            out = out * self
        return out

    # -------------------------------------------------------- substitution

    def evaluate(self, **assignments) -> Fraction:
        """Full evaluation; every symbol must receive a rational value."""
        missing = [v for v in self.vars if v not in assignments]
        if missing:
            raise ValueError(f"missing values for {missing}")
        vals = [_as_fraction(assignments[v]) for v in self.vars]
        total = Fraction(0)
        for exps, c in self.terms.items():
            t = c
            for val, e in zip(vals, exps):
                t *= val**e
            total += t
        return total

    # ------------------------------------------------------------- output

    def __eq__(self, other):
        if isinstance(other, CoefPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def sorted_terms(self):
        # total degree descending, then reverse-lex on exponents
        return sorted(
            self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0]))
        )

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exps)
                if e
            )
            if not mono:
                body = str(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c}*{mono}"
            pieces.append(body)
        out = pieces[0]
        for p in pieces[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"CoefPoly({self})"


def hq_poly() -> tuple[CoefPoly, CoefPoly]:
    """The pair of symbols (h, q) used for the symbolic Chern-class work."""
    vars = ("h", "q")
    return CoefPoly.variable("h", vars), CoefPoly.variable("q", vars)
