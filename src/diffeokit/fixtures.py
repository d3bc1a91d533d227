"""Named built-in examples and JSON fixture files for the check driver."""

import json
import os
from fractions import Fraction
from pathlib import Path

from .autgroups import FinGenGroup, bundle_group
from .bundles import BundleMorphism, InvariantViolation, PseudoBundle, build_bundle
from .calculus import (
    ConnectionOneForm,
    CovariantDerivative,
    OverlapPair,
    PlotForm,
    covariant_derivative,
    flat_connection,
    maurer_cartan,
    plot_form,
)
from .domains import Box, Domain, Interval, format_point
from .expr import Expr, ExprError, ExprVec, Record
from .linalg import invert_rational
from .spaces import (
    AlgebraicCarrier,
    Carrier,
    DiffSpace,
    EuclideanCarrier,
    Plot,
    RelationPair,
    SmoothMap,
    euclidean_space,
    generated_space,
    identity_map,
    product_space,
    quotient_space,
    smooth_map,
)

Point = tuple[Fraction, ...]

FIXTURE_PATH_VAR = "DIFFEO_FIXTURE_PATH"


class FixtureError(Exception):
    """A fixture file or name cannot be used; the message is the diagnostic."""


# ---------------------------------------------------------------------------
# fixture records
# ---------------------------------------------------------------------------


class FormFixture(Record):
    form: PlotForm
    overlaps: tuple[OverlapPair, ...] = ()


class ConnectionFixture(Record):
    nabla: CovariantDerivative
    overlaps: tuple[OverlapPair, ...] = ()


class AffineFixture(Record):
    """Two connections on one plot family with their shared overlaps."""

    first: CovariantDerivative
    second: CovariantDerivative
    overlaps: tuple[OverlapPair, ...] = ()


class FrameModel(Record):
    """Frame families of a trivial bundle plus change-of-frame samples.

    Each plot lands in (base, f, h) coordinates with h the exact inverse
    of f; theta is the candidate connection form to test against right
    translation by the samples.
    """

    base_dim: int
    dim_f: int
    plots: tuple[Plot, ...]
    samples: tuple[tuple[tuple[Fraction, ...], ...], ...]
    theta: ConnectionOneForm


class FlowFixture(Record):
    """One-parameter automorphism families through the identity."""

    space: DiffSpace
    families: tuple[ExprVec, ...]
    points: tuple[Point, ...]


class FixtureRegistry(Record, frozen=False):
    """Named fixtures, one namespace per kind.

    cone_points and frame_points record the base points the full suite
    probes on each space or bundle; they are advisory, not fixtures.
    """

    spaces: dict[str, DiffSpace] = {}
    maps: dict[str, SmoothMap] = {}
    bundles: dict[str, PseudoBundle] = {}
    groups: dict[str, FinGenGroup] = {}
    flows: dict[str, FlowFixture] = {}
    forms: dict[str, FormFixture] = {}
    connections: dict[str, ConnectionFixture] = {}
    affine: dict[str, AffineFixture] = {}
    frame_models: dict[str, FrameModel] = {}
    cone_points: dict[str, tuple[Point, ...]] = {}
    frame_points: dict[str, tuple[Point, ...]] = {}

    def space(self, name: str) -> DiffSpace:
        return self._get(self.spaces, name, "space")

    def map(self, name: str) -> SmoothMap:
        return self._get(self.maps, name, "map")

    def bundle(self, name: str) -> PseudoBundle:
        return self._get(self.bundles, name, "bundle")

    def group(self, name: str) -> FinGenGroup:
        return self._get(self.groups, name, "group")

    def form(self, name: str) -> FormFixture:
        return self._get(self.forms, name, "form")

    def connection(self, name: str) -> ConnectionFixture:
        return self._get(self.connections, name, "connection")

    def affine_pair(self, name: str) -> AffineFixture:
        return self._get(self.affine, name, "affine")

    def frame_model(self, name: str) -> FrameModel:
        return self._get(self.frame_models, name, "frame model")

    @staticmethod
    def _get(table, name, kind):
        if name not in table:
            known = ", ".join(sorted(table)) or "none"
            raise FixtureError(f"unknown {kind} fixture {name!r} (available: {known})")
        return table[name]

    def _add(self, table, name, value, kind, rival=None):
        """`rival` is the (table, kind) of another kind that the command
        line addresses by the same names, so a name may not be in both."""
        if name in table:
            raise FixtureError(f"duplicate {kind} fixture {name!r}")
        if rival is not None and name in rival[0]:
            raise FixtureError(
                f"{kind} fixture {name!r} clashes with the {rival[1]} fixture {name!r}: "
                "forms-validate addresses both kinds by one name"
            )
        table[name] = value


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------


def _full_plot(dim: int, texts) -> Plot:
    return Plot(Domain.full(dim), ExprVec.parse(texts, dim))


def _cross_space() -> DiffSpace:
    carrier = AlgebraicCarrier(2, (Expr.parse("x0*x1", 2),))
    gens = (_full_plot(1, ["x0", "0"]), _full_plot(1, ["0", "x0"]))
    return generated_space("cross", carrier, gens)


def _line_bundle() -> PseudoBundle:
    total = euclidean_space(2, "line-E")
    base = euclidean_space(1, "line-X")
    return build_bundle(
        "line-bundle",
        total,
        base,
        add=["x0", "x1 + x3"],
        scale=["x1", "x0*x2"],
        zero=["x0", "0"],
    )


def _plane_bundle() -> PseudoBundle:
    total = euclidean_space(3, "plane-E")
    base = euclidean_space(1, "plane-X")
    return build_bundle(
        "plane-bundle",
        total,
        base,
        add=["x0", "x1 + x4", "x2 + x5"],
        scale=["x1", "x0*x2", "x0*x3"],
        zero=["x0", "0", "0"],
    )


def _cross_bundle(base: DiffSpace) -> PseudoBundle:
    eqs = tuple(ExprVec.parse(["x0*x1", "x1*x2", "x0*x3"], 4).components)
    gens = (
        _full_plot(2, ["x0", "0", "x1", "0"]),
        _full_plot(2, ["0", "x0", "0", "x1"]),
        _full_plot(2, ["0", "0", "x0", "x1"]),
    )
    total = generated_space("cross-E", AlgebraicCarrier(4, eqs), gens)
    return build_bundle(
        "cross-bundle",
        total,
        base,
        add=["x0", "x1", "x2 + x6", "x3 + x7"],
        scale=["x1", "x2", "x0*x3", "x0*x4"],
        zero=["x0", "x1", "0", "0"],
    )


def _scale_translate_group(b: PseudoBundle) -> FinGenGroup:
    sigma = BundleMorphism(
        smooth_map(b.total, b.total, ["x0", "(x0^2 + 1)*x1"]),
        identity_map(b.base),
    )
    sigma_inv = BundleMorphism(
        smooth_map(b.total, b.total, ["x0", "x1 / (x0^2 + 1)"]),
        identity_map(b.base),
    )
    tau = BundleMorphism(
        smooth_map(b.total, b.total, ["x0 + 1", "x1"]),
        smooth_map(b.base, b.base, ["x0 + 1"]),
    )
    tau_inv = BundleMorphism(
        smooth_map(b.total, b.total, ["x0 - 1", "x1"]),
        smooth_map(b.base, b.base, ["x0 - 1"]),
    )
    return bundle_group(
        "scale-translate",
        b,
        [(sigma, sigma_inv), (tau, tau_inv)],
        families=[ExprVec.parse(["x1 + x0"], 2)],
    )


def _axis_swap_group(b: PseudoBundle) -> FinGenGroup:
    swap = BundleMorphism(
        smooth_map(b.total, b.total, ["x1", "x0", "x3", "x2"]),
        smooth_map(b.base, b.base, ["x1", "x0"]),
    )
    double = BundleMorphism(
        smooth_map(b.total, b.total, ["x0", "x1", "2*x2", "2*x3"]),
        identity_map(b.base),
    )
    halve = BundleMorphism(
        smooth_map(b.total, b.total, ["x0", "x1", "x2 / 2", "x3 / 2"]),
        identity_map(b.base),
    )
    return bundle_group("axis-swap", b, [(swap, swap), (double, halve)])


def default_samples(k: int):
    """Deterministic invertible change-of-frame matrices."""
    if k == 1:
        return (
            ((Fraction(2),),),
            ((Fraction(1, 3),),),
            ((Fraction(-1),),),
        )
    shear = tuple(
        tuple(Fraction(1 if i == j or (i == 0 and j == 1) else 0) for j in range(k))
        for i in range(k)
    )
    stretch = tuple(
        tuple(Fraction(2 if i == j == 0 else (1 if i == j else 0)) for j in range(k))
        for i in range(k)
    )
    swap = tuple(
        tuple(
            Fraction(
                1
                if (i, j) in ((0, 1), (1, 0)) or (i == j and i > 1)
                else 0
            )
            for j in range(k)
        )
        for i in range(k)
    )
    return (shear, stretch, swap)


def builtin_registry() -> FixtureRegistry:
    reg = FixtureRegistry()

    r1 = euclidean_space(1, "r1")
    r2 = euclidean_space(2, "r2")
    cross = _cross_space()
    sign_rel = RelationPair(
        "", ExprVec.identity(1), "", ExprVec.parse(["-x0"], 1), Domain.full(1)
    )
    quotient_sign, sign_proj = quotient_space("quotient-sign", r1, [sign_rel])
    prod_ll = product_space("product-line-line", r1, r1)
    prod_cl = product_space("product-cross-line", cross, r1)

    reg.spaces = {
        "r1": r1,
        "r2": r2,
        "cross": cross,
        "quotient-sign": quotient_sign,
        "product-line-line": prod_ll,
        "product-cross-line": prod_cl,
    }
    reg.maps = {
        "line-projection": smooth_map(r2, r1, ["x0"], name="line-projection"),
        "sign-projection": sign_proj,
        "cross-projection": smooth_map(cross, r1, ["x0"], name="cross-projection"),
        "axis-inclusion": smooth_map(r1, cross, ["x0", "0"], name="axis-inclusion"),
        "product-line-line-left": smooth_map(prod_ll, r1, ["x0"]),
        "product-line-line-right": smooth_map(prod_ll, r1, ["x1"]),
        "product-cross-line-left": smooth_map(prod_cl, cross, ["x0", "x1"]),
        "product-cross-line-right": smooth_map(prod_cl, r1, ["x2"]),
    }

    line = _line_bundle()
    plane = _plane_bundle()
    crossb = _cross_bundle(cross)
    reg.bundles = {
        "line-bundle": line,
        "plane-bundle": plane,
        "cross-bundle": crossb,
    }
    reg.groups = {
        "scale-translate": _scale_translate_group(line),
        "axis-swap": _axis_swap_group(crossb),
    }

    reg.flows = {
        "linear-flow": FlowFixture(
            r2,
            (
                ExprVec.parse(["x1 + x0*x2", "x2"], 3),
                ExprVec.parse(["x1", "x2 + x0*x1"], 3),
            ),
            (
                (Fraction(1), Fraction(2)),
                (Fraction(-1), Fraction(3)),
                (Fraction(2), Fraction(-1)),
            ),
        )
    }

    line_plot = _full_plot(1, ["x0"])
    cubic_plot = _full_plot(1, ["x0^3"])
    cubic_overlap = OverlapPair(cubic_plot, line_plot, ExprVec.parse(["x0^3"], 1))
    plane_plot = Plot(Domain.full(2), ExprVec.identity(2))

    reg.forms = {
        "line-density": FormFixture(
            plot_form(1, 1, [(line_plot, {0: "x0^2"}), (cubic_plot, {0: "3*x0^8"})]),
            (cubic_overlap,),
        ),
        "plane-area": FormFixture(plot_form(2, 1, [(plane_plot, {(0, 1): "1"})])),
        "cross-axes": FormFixture(
            plot_form(1, 1, [(g, {0: "x0"}) for g in cross.generators])
        ),
    }

    reg.connections = {
        "line-connection": ConnectionFixture(
            covariant_derivative(
                1, [(line_plot, [[["x0"]]]), (cubic_plot, [[["3*x0^5"]]])]
            ),
            (cubic_overlap,),
        ),
        "line-flat": ConnectionFixture(
            flat_connection(1, [line_plot, cubic_plot]), (cubic_overlap,)
        ),
        "plane-connection": ConnectionFixture(
            covariant_derivative(2, [(line_plot, [[["0", "x0"], ["0", "0"]]])])
        ),
        "plane-flat": ConnectionFixture(flat_connection(2, [line_plot])),
        "cross-flat": ConnectionFixture(flat_connection(2, cross.generators)),
    }
    reg.affine = {
        "line-affine": AffineFixture(
            reg.connections["line-connection"].nabla,
            reg.connections["line-flat"].nabla,
            (cubic_overlap,),
        ),
        "plane-affine": AffineFixture(
            reg.connections["plane-connection"].nabla,
            reg.connections["plane-flat"].nabla,
        ),
    }

    scalar_frame = _full_plot(2, ["x0", "1 + x1^2", "1/(1 + x1^2)"])
    matrix_frame = _full_plot(
        2, ["x0", "1", "x1", "0", "1", "1", "-x1", "0", "1"]
    )
    reg.frame_models = {
        "frame-line": FrameModel(
            1, 1, (scalar_frame,), default_samples(1), maurer_cartan(1, 1)
        ),
        "frame-plane": FrameModel(
            1, 2, (matrix_frame,), default_samples(2), maurer_cartan(1, 2)
        ),
    }

    reg.cone_points = {
        "r1": ((Fraction(0),),),
        "r2": ((Fraction(0), Fraction(0)),),
        "cross": ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
        "quotient-sign": ((Fraction(0),),),
    }
    reg.frame_points = {
        "line-bundle": ((Fraction(2),),),
        "plane-bundle": ((Fraction(0),),),
        "cross-bundle": ((Fraction(0), Fraction(0)),),
    }
    return reg


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------


def load_registry(paths=()) -> FixtureRegistry:
    """Built-ins plus fixture files.

    Directories on the DIFFEO_FIXTURE_PATH environment variable are
    scanned for *.json first (sorted per directory), then the explicit
    paths, so explicit files may not collide with environment ones.
    """
    reg = builtin_registry()
    files: list[Path] = []
    for entry in os.environ.get(FIXTURE_PATH_VAR, "").split(os.pathsep):
        if not entry:
            continue
        root = Path(entry)
        if not root.is_dir():
            raise FixtureError(f"{FIXTURE_PATH_VAR} entry {entry!r} is not a directory")
        files.extend(sorted(root.glob("*.json")))
    files.extend(Path(p) for p in paths)
    for path in files:
        load_file(reg, path)
    return reg


def load_file(reg: FixtureRegistry, path) -> None:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise FixtureError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise FixtureError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise FixtureError(f"{path}: top level must be a JSON object")
    try:
        _load_document(reg, doc)
    except FixtureError as err:
        raise FixtureError(f"{path}: {err}") from err
    except (ExprError, InvariantViolation, ValueError) as err:
        raise FixtureError(f"{path}: {err}") from err


def _load_document(reg: FixtureRegistry, doc: dict) -> None:
    carriers: dict[str, Carrier] = {}

    def load_carrier(reg, block):
        name = _name_of(block, "carrier")
        carriers[name] = _parse_carrier(block, carriers)

    # (plural, singular, loader), in load order: later kinds name earlier ones
    kinds = (
        ("carriers", "carrier", load_carrier),
        ("spaces", "space", lambda reg, block: _load_space(reg, block, carriers)),
        ("maps", "map", _load_map),
        ("bundles", "bundle", _load_bundle),
        ("groups", "group", _load_group),
        ("forms", "form", _load_form),
        ("connections", "connection", _load_connection),
        ("affine", "affine", _load_affine),
        ("frame_models", "frame_model", _load_frame_model),
    )
    for plural, singular, load in kinds:
        for block in _blocks(doc, plural, singular):
            load(reg, block)
    known = {key for plural, singular, _ in kinds for key in (plural, singular)}
    for key in doc:
        if key not in known:
            raise FixtureError(f"unknown top-level block {key!r}")


def _blocks(doc: dict, plural: str, singular: str) -> list[dict]:
    out = []
    if singular in doc and singular != plural:
        out.append(doc[singular])
    listed = doc.get(plural, [])
    if isinstance(listed, dict):
        out.append(listed)
    elif isinstance(listed, list):
        out.extend(listed)
    else:
        raise FixtureError(f"block {plural!r} must be an object or a list")
    for block in out:
        if not isinstance(block, dict):
            raise FixtureError(f"every {singular!r} entry must be a JSON object")
    return out


def _name_of(block: dict, kind: str) -> str:
    name = block.get("name")
    if not isinstance(name, str) or not name:
        raise FixtureError(f"{kind} entry is missing a 'name' string")
    return name


def _fraction(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise FixtureError(f"{where}: expected an integer or 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError as err:
            raise FixtureError(f"{where}: bad rational {value!r}: {err}") from err
        except ZeroDivisionError as err:
            raise FixtureError(f"{where}: bad rational {value!r}: zero denominator") from err
    raise FixtureError(f"{where}: expected an integer or 'p/q' string, got {value!r}")


def _integer(value, where: str, what: str, least: int = 0) -> int:
    """A JSON integer of at least `least`.  JSON true and false are refused,
    though Python counts them as the integers 1 and 0."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise FixtureError(f"{where}: bad {what} {value!r}")
    return value


def _list(value, where: str, what: str) -> list:
    if not isinstance(value, list):
        raise FixtureError(f"{where}: {what} must be a list")
    return value


def _flag(block: dict, key: str, where: str) -> bool:
    value = block.get(key, True)
    if not isinstance(value, bool):
        raise FixtureError(f"{where}: {key!r} must be true or false")
    return value


def _texts(value, where: str) -> list[str]:
    if not isinstance(value, list) or not value:
        raise FixtureError(f"{where}: expected a nonempty list of expression strings")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (str, int)):
            raise FixtureError(f"{where}: expected expression strings, got {item!r}")
        out.append(str(item))
    return out


def _expr_vec(value, arity: int, where: str) -> ExprVec:
    try:
        return ExprVec.parse(_texts(value, where), arity)
    except ExprError as err:
        raise FixtureError(f"{where}: {err}") from err


def _parse_domain(value, where: str) -> Domain:
    if isinstance(value, int):  # true and false too, which `_integer` refuses
        return Domain.full(_integer(value, where, "domain dimension"))
    if not isinstance(value, dict) or "dim" not in value:
        raise FixtureError(f"{where}: domain must be an integer or {{'dim', 'boxes'}}")
    dim = _integer(value["dim"], where, "domain dimension")
    raw_boxes = value.get("boxes")
    if raw_boxes is None:
        return Domain.full(dim)
    boxes = []
    for raw in _list(raw_boxes, where, "'boxes'"):
        if not isinstance(raw, list) or len(raw) != dim:
            raise FixtureError(f"{where}: each box needs {dim} [lo, hi] pairs")
        intervals = []
        for pair in raw:
            if not isinstance(pair, list) or len(pair) != 2:
                raise FixtureError(f"{where}: interval must be a [lo, hi] pair")
            lo = None if pair[0] is None else _fraction(pair[0], where)
            hi = None if pair[1] is None else _fraction(pair[1], where)
            try:
                intervals.append(Interval(lo, hi))
            except ValueError as err:
                raise FixtureError(f"{where}: {err}") from err
        boxes.append(Box(tuple(intervals)))
    if not boxes:
        raise FixtureError(f"{where}: empty box list")
    return Domain(dim, boxes)


def _parse_carrier(value, carriers: dict[str, Carrier]) -> Carrier:
    where = "carrier"
    if isinstance(value, str):
        if value not in carriers:
            raise FixtureError(f"unknown carrier {value!r}")
        return carriers[value]
    if isinstance(value, int):  # true and false too, which `_integer` refuses
        return EuclideanCarrier(_integer(value, where, "dimension"))
    if not isinstance(value, dict) or "dim" not in value:
        raise FixtureError(f"{where}: expected a dimension, a name, or {{'dim', 'equations'}}")
    dim = _integer(value["dim"], where, "dimension")
    eq_texts = value.get("equations", [])
    if not eq_texts:
        return EuclideanCarrier(dim)
    eqs = tuple(_expr_vec(eq_texts, dim, where).components)
    return AlgebraicCarrier(dim, eqs)


def _parse_plot(block, ambient: int, where: str) -> Plot:
    if not isinstance(block, dict) or "domain" not in block or "map" not in block:
        raise FixtureError(f"{where}: generator needs 'domain' and 'map'")
    domain = _parse_domain(block["domain"], where)
    vec = _expr_vec(block["map"], domain.dim, where)
    if ambient and len(vec.components) != ambient:
        raise FixtureError(
            f"{where}: map has {len(vec.components)} components, carrier needs {ambient}"
        )
    return Plot(domain, vec)


def _points(block: dict, key: str, space: DiffSpace, where: str) -> tuple[Point, ...]:
    """The rational points listed under key, each a point of the space."""
    points = []
    for raw in _list(block.get(key, []), where, repr(key)):
        x = tuple(_fraction(c, where) for c in _list(raw, where, f"each of {key!r}"))
        if not space.carrier.contains_point(x):  # the dimension, then the equations
            raise FixtureError(f"{where}: {key!r} lists {format_point(x)}, which is not a point "
                               f"of {space.name!r} (dimension {space.carrier.ambient_dim('')})")
        points.append(x)
    return tuple(points)


def _load_space(reg: FixtureRegistry, block: dict, carriers) -> None:
    name = _name_of(block, "space")
    provenance = block.get("provenance", "generated")
    if provenance != "generated":
        raise FixtureError(f"space {name!r}: unsupported provenance {provenance!r}")
    carrier = _parse_carrier(block.get("carrier"), carriers)
    ambient = carrier.ambient_dim("")
    where = f"space {name!r}"
    gens = tuple(
        _parse_plot(g, ambient, where)
        for g in _list(block.get("generators", []), where, "'generators'")
    )
    complete = _flag(block, "complete", where)
    try:
        space = generated_space(name, carrier, gens, complete=complete)
    except (ExprError, ValueError) as err:
        raise FixtureError(f"space {name!r}: {err}") from err
    reg._add(reg.spaces, name, space, "space")
    reg.cone_points[name] = _points(block, "cone_points", space, where)


def _load_map(reg: FixtureRegistry, block: dict) -> None:
    name = _name_of(block, "map")
    source = reg.space(str(block.get("source")))
    target = reg.space(str(block.get("target")))
    vec = _expr_vec(block.get("map"), source.carrier.ambient_dim(""), f"map {name!r}")
    try:
        built = smooth_map(source, target, vec, name=name)
    except ExprError as err:  # the message names the map
        raise FixtureError(str(err)) from err
    reg._add(reg.maps, name, built, "map")


def _load_bundle(reg: FixtureRegistry, block: dict) -> None:
    name = _name_of(block, "bundle")
    total = reg.space(str(block.get("total")))
    base = reg.space(str(block.get("base")))
    where = f"bundle {name!r}"
    projection = block.get("projection")
    if projection is not None:
        projection = _texts(projection, where)
    try:
        bundle = build_bundle(
            name,
            total,
            base,
            add=_texts(block.get("add"), where),
            scale=_texts(block.get("scale"), where),
            zero=_texts(block.get("zero"), where),
            projection=projection,
            pairs_complete=_flag(block, "pairs_complete", where),
        )
    except InvariantViolation as err:
        raise FixtureError(f"{where}: {err.check}: {err.witness}") from err
    except (ExprError, ValueError) as err:
        raise FixtureError(f"{where}: {err}") from err
    reg._add(reg.bundles, name, bundle, "bundle")
    reg.frame_points[name] = _points(block, "frame_points", base, where)


def _morphism(bundle: PseudoBundle, phi_texts, varphi_texts, where: str) -> BundleMorphism:
    total_dim = bundle.ambient_dim
    base_dim = bundle.base_dim
    phi = _expr_vec(phi_texts, total_dim, where)
    if varphi_texts is None:
        varphi = ExprVec.identity(base_dim)
    else:
        varphi = _expr_vec(varphi_texts, base_dim, where)
    return BundleMorphism(
        smooth_map(bundle.total, bundle.total, phi),
        smooth_map(bundle.base, bundle.base, varphi),
    )


def _load_group(reg: FixtureRegistry, block: dict) -> None:
    name = _name_of(block, "group")
    bundle = reg.bundle(str(block.get("bundle")))
    where = f"group {name!r}"
    pairs = []
    for k, gen in enumerate(_list(block.get("generators", []), where, "'generators'")):
        if not isinstance(gen, dict) or "phi" not in gen or "phi_inverse" not in gen:
            raise FixtureError(f"{where}: generator {k} needs 'phi' and 'phi_inverse'")
        forward = _morphism(bundle, gen["phi"], gen.get("varphi"), where)
        backward = _morphism(
            bundle, gen["phi_inverse"], gen.get("varphi_inverse"), where
        )
        pairs.append((forward, backward))
    families = [
        _expr_vec(f, bundle.base_dim + 1, where)
        for f in _list(
            block.get("one_parameter_families", []), where, "'one_parameter_families'"
        )
    ]
    try:
        group = bundle_group(name, bundle, pairs, families=families)
    except (ValueError, ExprError) as err:
        raise FixtureError(f"{where}: {err}") from err
    reg._add(reg.groups, name, group, "group")


def _coefficient_key(raw, where: str):
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            return tuple(int(part) for part in raw.split(","))
        except ValueError as err:
            raise FixtureError(f"{where}: bad coefficient key {raw!r}") from err
    raise FixtureError(f"{where}: bad coefficient key {raw!r}")


def _plot_family(reg: FixtureRegistry, block: dict, where: str) -> tuple[Plot, ...]:
    space = reg.space(str(block.get("space")))
    plots = space.generators
    if not plots:
        raise FixtureError(f"{where}: space has no generators to attach data to")
    return plots


def _parse_overlaps(block: dict, plots, where: str) -> tuple[OverlapPair, ...]:
    out = []
    for k, raw in enumerate(_list(block.get("overlaps", []), where, "'overlaps'")):
        spot = f"{where}, overlap {k}"
        if not isinstance(raw, dict) or "fine" not in raw or "coarse" not in raw:
            raise FixtureError(f"{spot}: needs 'fine', 'coarse', 'factor'")
        indices = (raw["fine"], raw["coarse"])
        if any(
            isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(plots)
            for i in indices
        ):
            raise FixtureError(f"{spot}: generator index out of range")
        fine, coarse = (plots[i] for i in indices)
        factor = _expr_vec(raw.get("factor"), fine.domain.dim, spot)
        if len(factor.components) != coarse.domain.dim:
            raise FixtureError(f"{spot}: factor must have {coarse.domain.dim} components")
        out.append(OverlapPair(fine, coarse, factor))
    return tuple(out)


def _load_form(reg: FixtureRegistry, block: dict) -> None:
    name = _name_of(block, "form")
    where = f"form {name!r}"
    plots = _plot_family(reg, block, where)
    degree = _integer(block.get("degree"), where, "degree")
    value_dim = _integer(block.get("value_dim", 1), where, "value_dim", least=1)
    per_gen = block.get("per_generator_coefficients")
    if not isinstance(per_gen, list) or len(per_gen) != len(plots):
        raise FixtureError(
            f"{where}: per_generator_coefficients needs one entry per generator"
        )
    assignments = []
    for plot, table in zip(plots, per_gen):
        if not isinstance(table, dict):
            raise FixtureError(f"{where}: coefficients must be an object per generator")
        parsed = {}
        raw_keys = {}
        for raw_key, raw_value in table.items():
            key = _coefficient_key(raw_key, where)
            if key in raw_keys:
                raise FixtureError(
                    f"{where}: coefficient keys {raw_keys[key]!r} and {raw_key!r} "
                    f"name the same coefficient"
                )
            raw_keys[key] = raw_key
            if isinstance(raw_value, list):
                parsed[key] = _texts(raw_value, where)
            else:
                parsed[key] = str(raw_value)
        assignments.append((plot, parsed))
    try:
        form = plot_form(degree, value_dim, assignments)
    except (ValueError, ExprError) as err:
        raise FixtureError(f"{where}: {err}") from err
    overlaps = _parse_overlaps(block, plots, where)
    reg._add(
        reg.forms, name, FormFixture(form, overlaps), "form",
        rival=(reg.frame_models, "frame model"),
    )


def _load_connection(reg: FixtureRegistry, block: dict) -> None:
    name = _name_of(block, "connection")
    where = f"connection {name!r}"
    plots = _plot_family(reg, block, where)
    k = _integer(block.get("fiber_dim", 1), where, "fiber_dim", least=1)
    per_gen = block.get("per_generator_A")
    if not isinstance(per_gen, list) or len(per_gen) != len(plots):
        raise FixtureError(f"{where}: per_generator_A needs one entry per generator")
    assignments = []
    for plot, mats in zip(plots, per_gen):
        if not isinstance(mats, list) or len(mats) != plot.domain.dim:
            raise FixtureError(
                f"{where}: expected {plot.domain.dim} direction matrices per generator"
            )
        assignments.append((plot, [
            [_texts(row, where) for row in _list(mat, where, "each direction matrix")]
            for mat in mats
        ]))
    try:
        nabla = covariant_derivative(k, assignments)
    except (ValueError, ExprError) as err:
        raise FixtureError(f"{where}: {err}") from err
    overlaps = _parse_overlaps(block, plots, where)
    reg._add(reg.connections, name, ConnectionFixture(nabla, overlaps), "connection")


def _load_affine(reg: FixtureRegistry, block: dict) -> None:
    name = _name_of(block, "affine")
    first = reg.connection(str(block.get("first")))
    second = reg.connection(str(block.get("second")))
    overlaps = first.overlaps or second.overlaps
    reg._add(
        reg.affine, name, AffineFixture(first.nabla, second.nabla, overlaps), "affine"
    )


def _load_frame_model(reg: FixtureRegistry, block: dict) -> None:
    name = _name_of(block, "frame_model")
    where = f"frame_model {name!r}"
    k = _integer(block.get("dim_F"), where, "dim_F", least=1)
    raw_frames = block.get("frames")
    if not isinstance(raw_frames, list) or not raw_frames:
        raise FixtureError(f"{where}: needs a nonempty 'frames' list")
    plots = tuple(_parse_plot(f, 0, where) for f in raw_frames)
    base_dim = len(plots[0].map.components) - 2 * k * k
    if base_dim < 1:
        raise FixtureError(f"{where}: frames must carry (base, f, h) blocks for dim_F={k}")
    for p in plots:
        if len(p.map.components) != base_dim + 2 * k * k:
            raise FixtureError(f"{where}: frames disagree on the base dimension")
    samples = []
    for raw in _list(block.get("samples", []), where, "'samples'"):
        if not isinstance(raw, list) or len(raw) != k or any(
            not isinstance(row, list) or len(row) != k for row in raw
        ):
            raise FixtureError(f"{where}: samples must be {k}x{k} matrices")
        mat = tuple(tuple(_fraction(v, where) for v in row) for row in raw)
        if invert_rational(mat) is None:
            raise FixtureError(f"{where}: sample matrix {raw!r} is singular")
        samples.append(mat)
    model = FrameModel(
        base_dim,
        k,
        plots,
        tuple(samples) or default_samples(k),
        maurer_cartan(base_dim, k),
    )
    reg._add(reg.frame_models, name, model, "frame model", rival=(reg.forms, "form"))
