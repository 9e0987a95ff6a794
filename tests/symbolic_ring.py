"""Z[V][E]: polynomials in the energy E whose coefficients are integer
polynomials in the coupling V, for identities checked with symbolic V.

The trace recursion `kohmoto.spectra._trace_triples` runs over any ring
holding E and V that takes integer constants, so the tests pass it
`E` and `V` from here to check the trace-map invariant for every V at once.

An element is a dense two-index integer array: c[i][j] is the coefficient
of E^i V^j.  A product packs both factors into one integer each (Kronecker
substitution: slot i * stride + j of a fixed byte width holds c[i][j]), so
the whole convolution is one big-integer multiplication.
"""


def _normalize(rows: list) -> list:
    """Rows of one width, without trailing zero rows or columns."""
    width = max(len(row) for row in rows)
    rows = [row + [0] * (width - len(row)) for row in rows]
    while len(rows) > 1 and not any(rows[-1]):
        rows.pop()
    while width > 1 and not any(row[width - 1] for row in rows):
        width -= 1
    return [row[:width] for row in rows]


def _pack(rows: list, stride: int, nbytes: int) -> int:
    """sum c[i][j] 2^(8 nbytes (i stride + j)), from the non-negative and
    the negative coefficients packed apart."""
    parts = []
    for sign in (1, -1):
        chunks = []
        for row in rows:
            for x in row:
                x *= sign
                chunks.append(x.to_bytes(nbytes, "little") if x > 0 else bytes(nbytes))
            chunks.append(bytes(nbytes * (stride - len(row))))
        parts.append(int.from_bytes(b"".join(chunks), "little"))
    return parts[0] - parts[1]


def _unpack(n: int, slots: int, nbytes: int) -> list:
    """The signed slot values of n, each of absolute value below
    2^(8 nbytes - 1): adding that half to every slot makes them all
    non-negative bytes."""
    half = 1 << (8 * nbytes - 1)
    offset = int.from_bytes(half.to_bytes(nbytes, "little") * slots, "little")
    raw = (n + offset).to_bytes(slots * nbytes, "little")
    return [
        int.from_bytes(raw[k : k + nbytes], "little") - half
        for k in range(0, slots * nbytes, nbytes)
    ]


class BP:
    """Polynomial in E whose coefficients are integer polynomials in V,
    as the dense array c[i][j] of the coefficients of E^i V^j."""

    __slots__ = ("c",)

    def __init__(self, rows):
        self.c = _normalize([[int(x) for x in row] or [0] for row in rows] or [[0]])

    def _coerce(self, other):
        if isinstance(other, BP):
            return other
        if isinstance(other, int):
            return BP([[other]])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        width = max(len(a[0]), len(b[0]))
        out = [[0] * width for _ in range(max(len(a), len(b)))]
        for rows in (a, b):
            for out_row, row in zip(out, rows):
                for j, x in enumerate(row):
                    out_row[j] += x
        return BP(out)

    __radd__ = __add__

    def __neg__(self):
        return BP([[-x for x in row] for row in self.c])

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
        rows = len(a) + len(b) - 1
        stride = len(a[0]) + len(b[0]) - 1  # no carry from one E power to the next
        terms = min(len(a) * len(a[0]), len(b) * len(b[0]))
        bits = (
            max(abs(x) for row in a for x in row).bit_length()
            + max(abs(y) for row in b for y in row).bit_length()
            + terms.bit_length()
        )
        nbytes = bits // 8 + 1  # at least one bit to spare for the sign
        n = _pack(a, stride, nbytes) * _pack(b, stride, nbytes)
        flat = _unpack(n, rows * stride, nbytes)
        return BP([flat[i * stride : (i + 1) * stride] for i in range(rows)])

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(tuple(map(tuple, self.c)))

    def is_zero(self):
        return self.c == [[0]]

    def __repr__(self):
        return f"BP({self.c})"


# the energy and the coupling as elements of Z[V][E]
E = BP([[0], [1]])
V = BP([[0, 1]])
