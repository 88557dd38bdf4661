"""Graphs carried as +1/-1 Seidel matrices, with switching and localization.

Vertices are 0..n-1.  The matrix E of a graph has +1 on the diagonal and
E[i][j] = -1 exactly when i ~ j.  Switching by a sign vector nu replaces
E[i][j] with nu[i]*nu[j]*E[i][j]; graphs related this way form a switching
class.  Localizing at a vertex j picks the unique member of the class in
which j is isolated, which makes switching equivalence decidable by a single
comparison of localized graphs.

The product of the three pair signs over a vertex triple is invariant under
switching (each nu entry appears squared), so the triple-sign table is a
cheap fingerprint of the switching class.
"""

from __future__ import annotations

from itertools import combinations, zip_longest

# '0' -> +1 and '1' -> -1 as signed bytes: a row's bit string, lowest bit
# first, becomes its row of E in one translate
_SIGNS = bytes.maketrans(b"01", b"\x01\xff")


class SeidelGraph:
    """Immutable simple graph; adjacency stored as one bitmask per vertex."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise ValueError("need at least one vertex")
        adj = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def _from_adj(cls, n, adj):
        g = object.__new__(cls)
        g.n = n
        g.adj = tuple(adj)
        return g

    def adjacent(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def neighbors(self, i: int) -> frozenset:
        return frozenset(_bits(self.adj[i]))

    def edges(self) -> list:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if (self.adj[i] >> j) & 1]

    def edge_count(self) -> int:
        return sum(self.adj[i].bit_count() for i in range(self.n)) // 2

    def seidel_entry(self, i: int, j: int) -> int:
        """Entry E[i][j]: +1 on the diagonal, -1 on edges, +1 on non-edges."""
        if i == j:
            return 1
        return -1 if self.adjacent(i, j) else 1

    def seidel_matrix(self) -> list:
        """E as a list of integer rows, each read off its adjacency bits (the
        diagonal bit is clear, so it reads +1)."""
        width = f"0{self.n}b"
        return [memoryview(format(row, width)[::-1].encode().translate(_SIGNS))
                .cast("b").tolist() for row in self.adj]

    def __eq__(self, other):
        return (isinstance(other, SeidelGraph)
                and self.n == other.n and self.adj == other.adj)

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"SeidelGraph({self.n}, {self.edges()})"


def _bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def check_switching_vector(nu, n: int) -> tuple:
    """Validate a switching vector: length n, entries in {-1, +1}."""
    nu = tuple(nu)
    if len(nu) != n:
        raise ValueError(f"switching vector has length {len(nu)}, graph has {n} vertices")
    if any(v not in (-1, 1) for v in nu):
        raise ValueError("switching vector entries must be -1 or +1")
    return nu


def _switch(g: SeidelGraph, minus: int) -> SeidelGraph:
    """Switch g by the sign vector that is -1 exactly on the bits of minus:
    row i flips the vertices of the other sign, which never include i."""
    plus = ((1 << g.n) - 1) ^ minus
    return SeidelGraph._from_adj(g.n, [row ^ (plus if (minus >> i) & 1 else minus)
                                       for i, row in enumerate(g.adj)])


def apply_switching(g: SeidelGraph, nu) -> SeidelGraph:
    """Switch g by nu: the pair (i,j) flips adjacency iff nu[i]*nu[j] = -1."""
    nu = check_switching_vector(nu, g.n)
    return _switch(g, sum(1 << i for i, v in enumerate(nu) if v < 0))


def localization_vector(g: SeidelGraph, j: int) -> tuple:
    """The switching vector that isolates j: -1 exactly on the neighbors of j."""
    if not (0 <= j < g.n):
        raise ValueError(f"vertex {j} out of range for n={g.n}")
    return tuple(-1 if (g.adj[j] >> k) & 1 else 1 for k in range(g.n))


def localize(g: SeidelGraph, j: int) -> SeidelGraph:
    """The unique graph in the switching class of g in which j is isolated:
    g switched by -1 on the neighbors of j."""
    if not (0 <= j < g.n):
        raise ValueError(f"vertex {j} out of range for n={g.n}")
    return _switch(g, g.adj[j])


def conjugate(g: SeidelGraph, sigma) -> SeidelGraph:
    """Relabel g by the permutation sigma (image form: vertex i -> sigma[i])."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(g.n)):
        raise ValueError("sigma is not a permutation of the vertex set")
    image = [1 << s for s in sigma]
    adj = [0] * g.n
    for i, row in enumerate(g.adj):
        new = 0
        while row:
            b = row & -row
            new |= image[b.bit_length() - 1]
            row ^= b
        adj[sigma[i]] = new
    return SeidelGraph._from_adj(g.n, adj)


def is_switching_equivalent(g1: SeidelGraph, g2: SeidelGraph):
    """Witness nu with apply_switching(g1, nu) == g2, or None.

    Two graphs are switching equivalent iff their localizations at any one
    common vertex coincide, so a single comparison at vertex 0 decides it.
    """
    if g1.n != g2.n:
        raise ValueError(f"vertex counts differ: {g1.n} != {g2.n}")
    nu1 = localization_vector(g1, 0)
    nu2 = localization_vector(g2, 0)
    if apply_switching(g1, nu1) != apply_switching(g2, nu2):
        return None
    nu = tuple(a * b for a, b in zip(nu1, nu2))
    if apply_switching(g1, nu) != g2:
        raise RuntimeError("switching witness does not map g1 to g2")
    return nu


def triple_sign(g: SeidelGraph) -> dict:
    """Map each 3-subset (i,j,k), i<j<k, to E[i][j]*E[j][k]*E[i][k].

    The value is -1 iff the triple spans an odd number of edges.  Switching
    leaves every value unchanged.
    """
    if g.n < 3:
        raise ValueError("triple signs need at least 3 vertices")
    out = {}
    for i, j, k in combinations(range(g.n), 3):
        m = (((g.adj[i] >> j) & 1) + ((g.adj[j] >> k) & 1)
             + ((g.adj[i] >> k) & 1))
        out[(i, j, k)] = -1 if m & 1 else 1
    return out


def neighborhood(g: SeidelGraph, x: int, d) -> frozenset:
    """Vertices at graph distance exactly d from x; d="2+" means >= 2.

    Unreachable vertices count as distance infinity, so they appear in the
    "2+" selector and in none of the exact ones.
    """
    if not (0 <= x < g.n):
        raise ValueError(f"vertex {x} out of range for n={g.n}")
    if d != "2+" and d not in (0, 1, 2):
        raise ValueError(f"distance selector must be 0, 1, 2 or '2+', got {d!r}")
    if d == 0:
        return frozenset((x,))
    if d == 1:
        return g.neighbors(x)
    beyond = ((1 << g.n) - 1) & ~g.adj[x] & ~(1 << x)
    if d == 2:
        reach = 0
        for u in _bits(g.adj[x]):
            reach |= g.adj[u]
        beyond &= reach
    return frozenset(_bits(beyond))


def complement(g: SeidelGraph) -> SeidelGraph:
    """Graph on the same vertices whose edges are the non-edges of g."""
    full = (1 << g.n) - 1
    adj = [(~g.adj[i] & full) & ~(1 << i) for i in range(g.n)]
    return SeidelGraph._from_adj(g.n, adj)


# ---------------------------------------------------------------------------
# graph6 and JSON serialization

# str.translate table: each graph6 body character to its six bits
_G6_BITS = {63 + v: format(v, "06b") for v in range(64)}


def to_graph6(g: SeidelGraph) -> str:
    """Encode in graph6 (no header): N(n) then the upper triangle by columns."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise ValueError("graph6 encoding limited to n <= 258047 here")
    # column j is bits 0..j-1 of row j, lowest first
    bits = "".join(format(row & ((1 << j) - 1), f"0{j}b")[::-1]
                   for j, row in enumerate(g.adj) if j)
    bits += "0" * (-len(bits) % 6)
    return "".join(chr(c) for c in head) + "".join(
        chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))


def from_graph6(text) -> SeidelGraph:
    """Decode a graph6 string or bytes (optional '>>graph6<<' prefix tolerated)."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 input")
    if min(s) < "?" or max(s) > "~":
        raise ValueError("invalid graph6 character")
    if s[0] == "~":
        if len(s) < 4:
            raise ValueError("truncated graph6 size")
        n = (ord(s[1]) - 63 << 12) | (ord(s[2]) - 63 << 6) | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n < 1:
        raise ValueError("graph6 with zero vertices not supported")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ValueError("graph6 body has the wrong length")
    bits = body.translate(_G6_BITS)
    # column j holds the pairs (i, j), i < j, from bit j(j-1)/2 on: read
    # lowest i first, it is the part of row j below the diagonal
    cols = [bits[j * (j - 1) // 2:j * (j + 1) // 2] for j in range(1, n)]
    adj = [0] + [int(col[::-1], 2) for col in cols]
    # row i of the transpose holds the pairs (i, j), j = 1..n-1, padded with
    # "0" where j <= i: the part of row i above the diagonal
    for i, pairs in enumerate(zip_longest(*cols, fillvalue="0")):
        adj[i] |= int("".join(pairs)[::-1], 2) << 1
    return SeidelGraph._from_adj(n, adj)


def graph_to_json(g: SeidelGraph) -> dict:
    """JSON form: {"n": n, "edges": [[i, j], ...]} with i<j, sorted."""
    return {"n": g.n, "edges": [[i, j] for i, j in g.edges()]}


def graph_from_json(d: dict) -> SeidelGraph:
    return SeidelGraph(int(d["n"]), [tuple(e) for e in d["edges"]])
