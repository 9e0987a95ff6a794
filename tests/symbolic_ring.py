"""Z[V][E]: polynomials in the energy E whose coefficients are integer
polynomials in the coupling V, for identities checked with symbolic V.

The trace recursion `kohmoto.spectra._trace_triples` runs over any ring
holding E and V that takes integer constants, so the tests pass it
`E` and `V` from here to check the trace-map invariant for every V at once.
"""


def _strip(c: list) -> list:
    while len(c) > 1 and not c[-1]:
        c.pop()
    return c


class VP:
    """Integer polynomial in the coupling variable V."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = _strip([int(x) for x in c] or [0])

    def _coerce(self, other):
        if isinstance(other, VP):
            return other
        if isinstance(other, int):
            return VP([other])
        return NotImplemented

    def is_zero(self):
        return self.c == [0]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = [0] * max(len(self.c), len(other.c))
        for i, x in enumerate(self.c):
            out[i] += x
        for i, x in enumerate(other.c):
            out[i] += x
        return VP(out)

    __radd__ = __add__

    def __neg__(self):
        return VP([-x for x in self.c])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return VP(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(tuple(self.c))

    def __repr__(self):
        return f"VP({self.c})"


VP_ZERO = VP([0])
VP_ONE = VP([1])
VP_V = VP([0, 1])


class BP:
    """Polynomial in E whose coefficients are integer polynomials in V."""

    __slots__ = ("c",)

    def __init__(self, c):
        c = [x if isinstance(x, VP) else VP([x]) for x in c] or [VP_ZERO]
        while len(c) > 1 and c[-1].is_zero():
            c.pop()
        self.c = c

    def _coerce(self, other):
        if isinstance(other, BP):
            return other
        if isinstance(other, (int, VP)):
            return BP([other])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = [VP_ZERO] * max(len(self.c), len(other.c))
        for i, x in enumerate(self.c):
            out[i] = out[i] + x
        for i, x in enumerate(other.c):
            out[i] = out[i] + x
        return BP(out)

    __radd__ = __add__

    def __neg__(self):
        return BP([-x for x in self.c])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        out = [VP_ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x.is_zero():
                for j, y in enumerate(b):
                    if not y.is_zero():
                        out[i + j] = out[i + j] + x * y
        return BP(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(tuple(self.c))

    def is_zero(self):
        return len(self.c) == 1 and self.c[0].is_zero()

    def __repr__(self):
        return f"BP({self.c})"


# the energy and the coupling as elements of Z[V][E]
E = BP([VP_ZERO, VP_ONE])
V = BP([VP_V])
