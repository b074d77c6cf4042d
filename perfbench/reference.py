"""Reference job: the host's current speed on gqt-like work, without gqt.

On a shared 2-core Xeon VM the CPU speed was seen to drift by up to ~1.6x
over seconds to minutes as other tenants load the cores, and jobs' wall
times drift with it.
run.py times this fixed program in a fresh interpreter next to the jobs
and reports job time as a multiple of it.  It is exact finite-field
arithmetic in plain tuples and dicts, like gqt's own hot loops: the points
of the Hermitian surface over GF(9) and their collinear pairs, built three
times.  It must never change, or results before and after stop comparing.
"""

import itertools

P = Q = 3
ELEMENTS = [(a, b) for b in range(P) for a in range(P)]
ZERO, ONE = (0, 0), (1, 0)


def _mul(x, y):
    (a, b), (c, d) = x, y  # modulus t^2 + 1
    return ((a * c - b * d) % P, (a * d + b * c) % P)


def _add(x, y):
    return ((x[0] + y[0]) % P, (x[1] + y[1]) % P)


def surface() -> tuple:
    table = {(x, y): _mul(x, y) for x in ELEMENTS for y in ELEMENTS}
    conj = {}
    for x in ELEMENTS:
        r = ONE
        for _ in range(Q):
            r = table[(r, x)]
        conj[x] = r

    def form(u, v):
        acc = ZERO
        for a, b in zip(u, v):
            acc = _add(acc, table[(conj[a], b)])
        return acc

    points = []
    for lead in range(4):
        for tail in itertools.product(ELEMENTS, repeat=3 - lead):
            v = (ZERO,) * lead + (ONE,) + tail
            if form(v, v) == ZERO:
                points.append(v)
    pairs = sum(1 for i in range(len(points)) for j in range(i + 1, len(points))
                if form(points[i], points[j]) == ZERO)
    return len(points), pairs


if __name__ == "__main__":
    for _ in range(3):
        if surface() != (280, 5040):
            raise SystemExit("reference computation is wrong")
