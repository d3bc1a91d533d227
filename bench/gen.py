"""Seeded inputs for the three benchmark workloads.

Nothing here imports diffeokit: every input is written as expression text
and every known answer follows from how the input was built, so the
answers do not depend on the code under test.  The same seed gives the
same bytes.
"""

import json
import random
from fractions import Fraction

SUITE_BUDGET = 4
MEMBERSHIP_BUDGET = 6
# sizes of one pass: at least 1,000 membership queries, so that p99 has ten
# queries beyond it; calculus sized to run about as long as membership.
# The Euclidean spaces answer from the carrier alone, so the spaces whose
# plots need a search get most of the plot queries.
PLOTS_PER_SPACE = {
    "r1": 50, "r2": 50, "product-line-line": 50,
    "cross": 250, "quotient-sign": 250, "product-cross-line": 250,
}
# seeded base points for the sign probes (cross also probes its origin);
# cross cones are the slowest queries, so they get enough points for the
# tail of the latency distribution to cover many of them
CONE_POINTS = {"r1": 6, "r2": 6, "cross": 24}
CONNECTIONS_PER_SETUP = 16
DD_FORMS = 24
FRAME_SETS = 12
MAURER_CARTAN_SETS = 12

# Built-in spaces and what a plot of each looks like, by construction, one
# entry per factor: "p" is any polynomial (a Euclidean factor), "axis" puts
# a polynomial on one axis of cross and 0 on the other, "sign" is a
# polynomial or its negative (the sign quotient of the line).
SPACES = {
    "r1": ("p",),
    "r2": ("p", "p"),
    "cross": ("axis",),
    "quotient-sign": ("sign",),
    "product-line-line": ("p", "p"),
    "product-cross-line": ("axis", "p"),
}
# spaces whose carrier has equations, so a map can leave it
CARRIER_SPACES = ("cross", "product-cross-line")


def poly_text(rng: random.Random, arity: int, degree: int) -> str:
    """A random polynomial with integer coefficients in [-3, 3]."""
    terms = []
    for total in range(degree, -1, -1):
        for mono in _monomials(arity, total):
            c = rng.randint(-3, 3)
            if c:
                factors = [f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(mono) if k]
                body = "*".join(factors)
                if not body:
                    terms.append(str(c))
                elif c == 1:
                    terms.append(body)
                elif c == -1:
                    terms.append(f"-{body}")
                else:
                    terms.append(f"{c}*{body}")
    if not terms:
        return "0"
    text = terms[0]
    for t in terms[1:]:
        text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return text


def _monomials(arity: int, total: int):
    if arity == 1:
        yield (total,)
        return
    for k in range(total, -1, -1):
        for rest in _monomials(arity - 1, total - k):
            yield (k,) + rest


def _rational(rng: random.Random, lo: int, hi: int, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _nonzero_rational(rng: random.Random) -> Fraction:
    while True:
        q = _rational(rng, -6, 6)
        if q:
            return q


def _box(rng: random.Random, arity: int) -> list:
    box = []
    for _ in range(arity):
        lo = _rational(rng, -8, 4)
        hi = lo + Fraction(rng.randint(1, 8), rng.randint(1, 4))
        box.append([str(lo), str(hi)])
    return [box]


def _det(rows) -> Fraction:
    if len(rows) == 1:
        return rows[0][0]
    (a, b), (c, d) = rows
    return a * d - b * c


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def suite_group(seed: int) -> dict:
    """One scale-and-translate group on the built-in line-bundle.

    Scale (x0^2 + c)*x1 with c in {1, 2, 3} and translation x0 + t with
    t in {+-1, +-2, +-3}: the scale fixes the base and is fibrewise
    linear, the translation moves the base, so the kernel of the base
    action is exactly the linear part and the exact sequence holds.
    """
    rng = random.Random(f"suite:{seed}")
    c = rng.choice((1, 2, 3))
    t = rng.choice((-3, -2, -1, 1, 2, 3))
    shift = f"x0 + {t}" if t > 0 else f"x0 - {-t}"
    back = f"x0 - {t}" if t > 0 else f"x0 + {-t}"
    name = f"bench-scale{c}-shift{t}"
    return {
        "name": name,
        "bundle": "line-bundle",
        "generators": [
            {"phi": ["x0", f"(x0^2 + {c})*x1"], "phi_inverse": ["x0", f"x1 / (x0^2 + {c})"]},
            {"phi": [shift, "x1"], "varphi": [shift],
             "phi_inverse": [back, "x1"], "varphi_inverse": [back]},
        ],
        "one_parameter_families": [["x1 + x0"]],
    }


def suite_inputs(seed: int) -> dict:
    group = suite_group(seed)
    return {
        "workload": "suite",
        "seed": seed,
        "budget": SUITE_BUDGET,
        "fixture": {"group": group},
        "generated_check": f"exact-sequence:line-bundle:{group['name']}",
    }


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _plot_map(rng: random.Random, space: str, arity: int) -> list[str]:
    """A plot of `space` by construction: a generator, factor or quotient
    projection composed with random polynomials."""
    out = []
    for part in SPACES[space]:
        p = poly_text(rng, arity, rng.randint(1, 3))
        if part == "p":
            out.append(p)
        elif part == "axis":
            out.extend([p, "0"] if rng.random() < 0.5 else ["0", p])
        else:  # the sign quotient identifies p with -p
            out.append(p if rng.random() < 0.5 else f"-({p})")
    return out


def _leaving_map(rng: random.Random, space: str, arity: int, u0: Fraction) -> list[str]:
    """A map through a point (a, b, ...) with a*b != 0 at x0 = u0, so it
    leaves the carrier x0*x1 = 0 there."""
    a, b = _nonzero_rational(rng), _nonzero_rational(rng)
    s = f"(x0 - {u0})" if u0 >= 0 else f"(x0 + {-u0})"
    out = [
        f"{a} + {s}*({poly_text(rng, arity, rng.randint(0, 2))})",
        f"{b} + {s}*({poly_text(rng, arity, rng.randint(0, 2))})",
    ]
    if space == "product-cross-line":
        out.append(poly_text(rng, arity, rng.randint(1, 3)))
    return out


def _cone_expect(space: str, x: tuple, v: tuple) -> str:
    if space != "cross":
        return "in"
    if x == (0, 0):
        return "in" if v[0] * v[1] == 0 else "out"
    if x[1] == 0:
        return "in" if v[1] == 0 else "out"
    return "in" if v[0] == 0 else "out"


def _sign_probes(dim: int) -> list[tuple]:
    out = [()]
    for _ in range(dim):
        out = [p + (c,) for p in out for c in (-1, 0, 1)]
    return [p for p in out if any(p)]


def membership_inputs(seed: int) -> dict:
    rng = random.Random(f"membership:{seed}")
    queries = []
    for space in SPACES:
        for k in range(PLOTS_PER_SPACE[space]):
            arity = 1 + (k % 2)
            kind = ("compose", "restrict", "leave")[k % 3]
            if kind == "leave" and space not in CARRIER_SPACES:
                kind = "compose"
            domain = {"dim": arity}
            if kind == "restrict" or (kind == "leave" and rng.random() < 0.5):
                domain["boxes"] = _box(rng, arity)
            if kind == "leave":
                if "boxes" in domain:
                    # the point where the map leaves lies inside the box
                    lo, hi = domain["boxes"][0][0]
                    u0 = (Fraction(lo) + Fraction(hi)) / 2
                else:
                    u0 = _rational(rng, -4, 4)
                texts = _leaving_map(rng, space, arity, u0)
                expect = "no"
            else:
                texts = _plot_map(rng, space, arity)
                expect = "yes"
            queries.append({
                "id": f"{space}:{len(queries)}", "kind": "plot", "space": space,
                "domain": domain, "map": texts, "expect": expect,
            })
    points = {
        "r1": [(_rational(rng, -6, 6),) for _ in range(CONE_POINTS["r1"])],
        "r2": [(_rational(rng, -6, 6), _rational(rng, -6, 6)) for _ in range(CONE_POINTS["r2"])],
        "cross": [(0, 0)],
    }
    for _ in range(CONE_POINTS["cross"]):
        a = _nonzero_rational(rng)
        points["cross"].append((a, 0) if rng.random() < 0.5 else (0, a))
    for space, xs in points.items():
        for x in xs:
            for v in _sign_probes(len(x)):
                queries.append({
                    "id": f"cone:{space}:{len(queries)}", "kind": "cone", "space": space,
                    "point": [str(Fraction(c)) for c in x], "vector": list(v),
                    "expect": _cone_expect(space, tuple(Fraction(c) for c in x), v),
                })
    return {"workload": "membership", "seed": seed, "budget": MEMBERSHIP_BUDGET, "queries": queries}


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

# connection setups and their fiber dimension.  The coarse plots are the
# identity of the line (line, plane) or the two axis generators (cross); the
# one overlap's fine plot is the first coarse plot after x0 -> x0^3.
CONNECTION_SETUPS = {"line": 1, "plane": 2, "cross": 2}


def _transported(entry: str) -> str:
    """The coefficient of the same connection along a plot composed with
    x0 -> x0^3: the chain rule gives 3*x0^2 * A(x0^3)."""
    return f"3*x0^2*({entry.replace('x0', '(x0^3)')})"


def _connection(rng: random.Random, setup: str) -> dict:
    k = CONNECTION_SETUPS[setup]
    coarse_count = 2 if setup == "cross" else 1
    coarse = [
        [[poly_text(rng, 1, 2) for _ in range(k)] for _ in range(k)]
        for _ in range(coarse_count)
    ]
    fine = [[_transported(e) for e in row] for row in coarse[0]]
    return {"coarse": coarse, "fine": fine}


def _invertible(rng: random.Random, k: int, draw) -> list:
    while True:
        rows = [[draw() for _ in range(k)] for _ in range(k)]
        if _det(rows) != 0:
            return rows


def calculus_inputs(seed: int) -> dict:
    rng = random.Random(f"calculus:{seed}")
    checks = []

    def add(kind: str, expect: str, **body) -> None:
        checks.append({"id": f"{kind}:{len(checks)}", "kind": kind, "expect": expect, **body})

    for setup in CONNECTION_SETUPS:
        for _ in range(CONNECTIONS_PER_SETUP):
            add("affine", "yes", setup=setup,
                first=_connection(rng, setup), second=_connection(rng, setup))
    for n in range(DD_FORMS):
        if n % 2 == 0:
            add("dd", "zero", degree=0, coefficients=[poly_text(rng, 2, 3)])
        else:
            add("dd", "zero", degree=1, coefficients=[poly_text(rng, 2, 3), poly_text(rng, 2, 3)])
    for bundle, point, k in (("line-bundle", ["2"], 1), ("plane-bundle", ["0"], 2)):
        for _ in range(FRAME_SETS):
            pairs = [
                [_invertible(rng, k, lambda: rng.randint(-4, 4)) for _ in range(2)]
                for _ in range(10)
            ]
            add("frames", "yes", bundle=bundle, point=point, pairs=pairs)
    for _ in range(MAURER_CARTAN_SETS):
        samples = [
            [[str(q) for q in row] for row in _invertible(
                rng, 2, lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)))]
            for _ in range(5)
        ]
        add("maurer-cartan", "yes", model="frame-plane", samples=samples)
        add("raw-differential", "no", model="frame-plane", samples=samples)
    group = suite_group(seed)
    group["name"] = "bench-calculus-group"
    for name in ("scale-translate", "axis-swap", group["name"]):
        for index in range(4):
            add("invert", "yes", group=name, morphism=index)
    return {
        "workload": "calculus",
        "seed": seed,
        "fixture": {"group": group},
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

WORKLOADS = {
    "suite": suite_inputs,
    "membership": membership_inputs,
    "calculus": calculus_inputs,
}


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def write_inputs(workload: str, seed: int, directory) -> tuple:
    """Write inputs.json (and fixture.json, when the workload loads a
    fixture file) into `directory`; return their paths."""
    doc = WORKLOADS[workload](seed)
    directory.mkdir(parents=True, exist_ok=True)
    fixture = None
    if "fixture" in doc:
        fixture = directory / "fixture.json"
        fixture.write_text(dumps(doc["fixture"]), encoding="utf-8")
    inputs = directory / "inputs.json"
    inputs.write_text(dumps(doc), encoding="utf-8")
    return inputs, fixture
