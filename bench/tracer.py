"""Spans around calls into diffeokit's layers, recorded from outside.

The tracer wraps public functions and methods of the package in place:
a function is rebound in every diffeokit module that imported it by name,
a method is replaced on its class.  Each call records one span (layer,
start, end, parent, tag) in flat arrays; `summarise` turns the spans into
per-layer calls, self time and ratios.  Nothing in the package changes on
disk.
"""

import functools
import sys
import time
from array import array

# layer name, module, class (or None), attributes wrapped under that name,
# tag kind, metrics reported.  "calls" counts spans, "self_s" is span time
# minus the time covered by child spans.  A subtraction enters __sub__ and
# then __add__, so it counts twice under expr.Expr.add.
LAYERS = [
    ("expr.Expr.compose", "expr", "Expr", ("compose",), None, ("calls", "self_s")),
    ("expr.Expr.mul", "expr", "Expr", ("__mul__", "__rmul__"), None, ("calls", "self_s")),
    ("expr.Expr.add", "expr", "Expr", ("__add__", "__radd__", "__sub__", "__rsub__"), None,
     ("calls", "self_s")),
    ("expr.Expr.div", "expr", "Expr", ("__truediv__", "__rtruediv__"), None, ("calls", "self_s")),
    ("expr.Expr.pow", "expr", "Expr", ("__pow__",), None, ("calls", "self_s")),
    ("expr.Expr.eval", "expr", "Expr", ("eval",), None, ("calls", "self_s")),
    ("expr.Expr.new", "expr", "Expr", ("__init__",), None, ("calls", "self_s")),
    ("domains.Domain.sample_points", "domains", "Domain", ("sample_points",), "len",
     ("calls", "self_s", "points")),
    ("domains.Domain.covers", "domains", "Domain", ("covers",), None, ("calls", "self_s")),
    ("domains.image_within", "domains", None, ("image_within",), None, ("calls", "self_s")),
    ("linalg.solve_affine", "linalg", None, ("solve_affine",), None, ("calls", "self_s")),
    ("linalg.solve_rational", "linalg", None, ("solve_rational",), None, ("calls", "self_s")),
    ("linalg.invert_rational", "linalg", None, ("invert_rational",), None, ("calls", "self_s")),
    ("linalg.Matrix.try_inverse", "linalg", "Matrix", ("try_inverse",), None, ("calls", "self_s")),
    ("linalg.Matrix.mul", "linalg", "Matrix", ("__mul__",), None, ("calls", "self_s")),
    ("spaces.is_plot", "spaces", None, ("is_plot",), "verdict",
     ("calls", "self_s", "unknown_ratio", "by_kind")),
    ("spaces.verify_certificate", "spaces", None, ("verify_certificate",), None,
     ("calls", "self_s")),
    ("spaces.is_smooth", "spaces", None, ("is_smooth",), None, ("calls", "self_s")),
    ("spaces.is_subduction", "spaces", None, ("is_subduction",), None, ("calls", "self_s")),
    ("spaces.vanishes_on_carrier", "spaces", None, ("vanishes_on_carrier",), None,
     ("calls", "self_s")),
    ("tangent.cone_membership", "tangent", None, ("cone_membership",), "cone",
     ("calls", "self_s", "unknown_ratio")),
    ("bundles.difference_witness", "bundles", None, ("difference_witness",), "difference",
     ("calls", "self_s", "uncertified_ratio")),
    ("bundles.validate_bundle", "bundles", None, ("validate_bundle",), None, ("calls", "self_s")),
    ("bundles.check_morphism", "bundles", None, ("check_morphism",), None, ("calls", "self_s")),
    ("bundles.invert_isomorphism", "bundles", None, ("invert_isomorphism",), None,
     ("calls", "self_s")),
    ("bundles.build_bundle", "bundles", None, ("build_bundle",), None, ("self_s",)),
    ("autgroups.enumerate_elements", "autgroups", None, ("enumerate_elements",), "len",
     ("calls", "self_s", "elements")),
    ("autgroups.exact_sequence_check", "autgroups", None, ("exact_sequence_check",), None,
     ("calls", "self_s")),
    ("autgroups.frame_bundle_check", "autgroups", None, ("frame_bundle_check",), None,
     ("calls", "self_s")),
    ("autgroups.random_frame", "autgroups", None, ("random_frame",), None, ("calls", "self_s")),
    ("autgroups.bundle_group", "autgroups", None, ("bundle_group",), None, ("self_s",)),
    ("calculus.validate_covariant", "calculus", None, ("validate_covariant",), None,
     ("calls", "self_s")),
    ("calculus.covariant_apply", "calculus", None, ("covariant_apply",), None,
     ("calls", "self_s")),
    ("calculus.validate_form", "calculus", None, ("validate_form",), None, ("calls", "self_s")),
    ("calculus.form_d", "calculus", None, ("form_d",), None, ("calls", "self_s")),
    ("calculus.affine_structure", "calculus", None, ("affine_structure",), None,
     ("calls", "self_s")),
    ("calculus.check_connection_form", "calculus", None, ("check_connection_form",), None,
     ("calls", "self_s")),
    ("fixtures.load_registry", "fixtures", None, ("load_registry",), None, ("self_s",)),
    ("fixtures.load_file", "fixtures", None, ("load_file",), None, ("self_s",)),
    ("cli.render_json", "cli", None, ("render_json",), None, ("self_s",)),
]

# is_plot spans are split by what they return
PLOT_KINDS = ("constant", "generator", "factored", "glue", "rule", "carrier", "no", "unknown")
TAG_ERROR = -1

UNITS = {
    "calls": "count", "self_s": "s", "points": "count", "elements": "count",
    "unknown_ratio": "ratio", "uncertified_ratio": "ratio",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name, _, _, _, _, metrics in LAYERS:
        for metric in metrics:
            if metric == "by_kind":
                out.extend((f"{name}.self_s.{kind}", "s") for kind in PLOT_KINDS)
            else:
                out.append((f"{name}.{metric}", UNITS[metric]))
    return out


def _tag_verdict(result) -> int:
    if result.status == "yes":
        kind = getattr(result.certificate, "kind", "")
        return PLOT_KINDS.index(kind) if kind in PLOT_KINDS else PLOT_KINDS.index("rule")
    return PLOT_KINDS.index(result.status)


def _tag_cone(result) -> int:
    return int(result.status == "unknown")


def _tag_difference(result) -> int:
    return int(result is not None and "not certified" in result)


TAGGERS = {
    None: None, "len": len, "verdict": _tag_verdict,
    "cone": _tag_cone, "difference": _tag_difference,
}


class Tracer:
    """Span recorder; spans live in flat arrays until `summarise`."""

    def __init__(self):
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.tag = array("q")
        self._stack = []

    def wrap(self, layer_id: int, fn, tagger):
        layer, start, end, parent, tag, stack = (
            self.layer, self.start, self.end, self.parent, self.tag, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            tag.append(0)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                tag[idx] = TAG_ERROR
                raise
            end[idx] = clock()
            stack.pop()
            if tagger is not None:
                tag[idx] = tagger(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer; rebind each function wherever it was imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "diffeokit" or n.startswith("diffeokit.")]
        for layer_id, (name, mod, cls, attrs, tag_kind, _) in enumerate(LAYERS):
            module = sys.modules[f"diffeokit.{mod}"]
            tagger = TAGGERS[tag_kind]
            if cls is not None:
                owner = getattr(module, cls)
                for attr in attrs:
                    setattr(owner, attr, self.wrap(layer_id, owner.__dict__[attr], tagger))
                continue
            (attr,) = attrs
            original = getattr(module, attr)
            traced = self.wrap(layer_id, original, tagger)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def dump(self, path) -> None:
        """Write the spans: a header line, then the five arrays raw in machine
        byte order (int32 layer, float64 start and end, int64 parent and tag)."""
        names = ",".join(name for name, *_ in LAYERS)
        with open(path, "wb") as fh:
            fh.write(f"spans {len(self.layer)} layers {names}\n".encode())
            for arr in (self.layer, self.start, self.end, self.parent, self.tag):
                arr.tofile(fh)

    def summarise(self) -> dict:
        """Per-layer metrics computed from the recorded spans."""
        n = len(self.layer)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        count = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        tagged = [0] * len(LAYERS)
        by_kind = [0.0] * len(PLOT_KINDS)
        plot_layer = next(i for i, entry in enumerate(LAYERS) if entry[4] == "verdict")
        unknown = PLOT_KINDS.index("unknown")
        for i in range(n):
            lid = self.layer[i]
            own = self.end[i] - self.start[i] - child[i]
            count[lid] += 1
            self_s[lid] += own
            t = self.tag[i]
            if lid == plot_layer:
                if t >= 0:
                    by_kind[t] += own
                tagged[lid] += t == unknown
            elif t > 0:
                tagged[lid] += t
        out = {}
        for lid, (name, _, _, _, tag_kind, metrics) in enumerate(LAYERS):
            calls = count[lid]
            for metric in metrics:
                if metric == "calls":
                    out[f"{name}.calls"] = calls
                elif metric == "self_s":
                    out[f"{name}.self_s"] = self_s[lid]
                elif metric in ("points", "elements"):
                    out[f"{name}.{metric}"] = tagged[lid]
                elif metric == "by_kind":
                    for k, kind in enumerate(PLOT_KINDS):
                        out[f"{name}.self_s.{kind}"] = by_kind[k]
                else:  # a ratio of tagged spans to calls
                    out[f"{name}.{metric}"] = tagged[lid] / calls if calls else 0.0
        return out
