"""Answers known without running the code under test.

`SUITE` is the expected verdict of every check of `diffeokit all` on the
built-in fixtures, written by hand; each group names the test or README
statement that backs it, or the argument where no test states it.
`unknown` never contradicts an answer, so it is never an error.  It is
still not free: `UNKNOWN_TODAY` names the only check that the current code
leaves unknown, and any other unknown is a lost verdict, which a run counts
as failed.  Otherwise cutting a search short would read as a pure speed-up.
"""

SUITE = {
    # tests/test_acceptance.py::test_01: every _axioms_checks entry is yes
    # on every built-in space
    "axioms:cross:covering": "yes",
    "axioms:cross:locality": "yes",
    "axioms:cross:precompose": "yes",
    "axioms:product-cross-line:covering": "yes",
    "axioms:product-cross-line:locality": "yes",
    "axioms:product-cross-line:precompose": "yes",
    "axioms:product-line-line:covering": "yes",
    "axioms:product-line-line:locality": "yes",
    "axioms:product-line-line:precompose": "yes",
    "axioms:quotient-sign:covering": "yes",
    "axioms:quotient-sign:locality": "yes",
    "axioms:quotient-sign:precompose": "yes",
    "axioms:r1:covering": "yes",
    "axioms:r1:locality": "yes",
    "axioms:r1:precompose": "yes",
    "axioms:r2:covering": "yes",
    "axioms:r2:locality": "yes",
    "axioms:r2:precompose": "yes",
    # tests/test_fixtures.py::test_maps_are_smooth: every built-in map is smooth
    "smooth:axis-inclusion": "yes",
    "smooth:cross-projection": "yes",
    "smooth:line-projection": "yes",
    "smooth:product-cross-line-left": "yes",
    "smooth:product-cross-line-right": "yes",
    "smooth:product-line-line-left": "yes",
    "smooth:product-line-line-right": "yes",
    "smooth:sign-projection": "yes",
    # the inclusion of the line as the x-axis misses (0, 1) of cross, so it
    # is not onto and not a subduction; tests/test_cli.py reports unknown,
    # tests/test_spaces.py::test_non_surjective_inclusion_is_not_certified
    "subduction:axis-inclusion": "no",
    # every plot p of the line lifts to the axis plot (p, 0) of cross
    "subduction:cross-projection": "yes",
    # tests/test_spaces.py::TestSubduction::test_linear_projection
    "subduction:line-projection": "yes",
    # tests/test_fixtures.py::test_product_projections_are_subductions
    "subduction:product-cross-line-left": "yes",
    "subduction:product-cross-line-right": "yes",
    "subduction:product-line-line-left": "yes",
    "subduction:product-line-line-right": "yes",
    # tests/test_spaces.py::TestSubduction::test_quotient_projection
    "subduction:sign-projection": "yes",
    # README "cross": the cone at the origin holds the axis directions but
    # not the diagonals; tests/test_acceptance.py::test_03
    "tangent-cone:cross:0,0:-1,0": "in",
    "tangent-cone:cross:0,0:0,-1": "in",
    "tangent-cone:cross:0,0:0,1": "in",
    "tangent-cone:cross:0,0:1,-1": "out",
    "tangent-cone:cross:0,0:1,0": "in",
    "tangent-cone:cross:0,0:1,1": "out",
    # tests/test_acceptance.py::test_03: at (1, 0) only horizontal vectors
    "tangent-cone:cross:1,0:-1,0": "in",
    "tangent-cone:cross:1,0:0,-1": "out",
    "tangent-cone:cross:1,0:0,1": "out",
    "tangent-cone:cross:1,0:1,-1": "out",
    "tangent-cone:cross:1,0:1,0": "in",
    "tangent-cone:cross:1,0:1,1": "out",
    # the paths t -> +-t in the line descend to the sign quotient
    "tangent-cone:quotient-sign:0:-1": "in",
    "tangent-cone:quotient-sign:0:1": "in",
    # Euclidean spaces: the straight path x + t*v is a plot;
    # tests/test_tangent.py::test_full_cone_on_the_plane
    "tangent-cone:r1:0:-1": "in",
    "tangent-cone:r1:0:1": "in",
    "tangent-cone:r2:0,0:-1,0": "in",
    "tangent-cone:r2:0,0:0,-1": "in",
    "tangent-cone:r2:0,0:0,1": "in",
    "tangent-cone:r2:0,0:1,-1": "in",
    "tangent-cone:r2:0,0:1,0": "in",
    "tangent-cone:r2:0,0:1,1": "in",
    # tests/test_bundles.py::test_line_bundle_builds and
    # test_cross_bundle_fiber_dimension_jumps; plane-bundle is the product
    # of the line with R^2 under coordinatewise operations
    "bundle-validate:cross-bundle": "yes",
    "bundle-validate:line-bundle": "yes",
    "bundle-validate:plane-bundle": "yes",
    # tests/test_acceptance.py::test_09 (line, plane) and
    # tests/test_autgroups.py::test_random_matrix_frames_pass; invertible
    # frames over one point always act freely and transitively
    "frame-check:cross-bundle": "yes",
    "frame-check:line-bundle": "yes",
    "frame-check:plane-bundle": "yes",
    # tests/test_acceptance.py::test_06
    "exact-sequence:cross-bundle:axis-swap": "yes",
    "exact-sequence:line-bundle:scale-translate": "yes",
    # tests/test_fixtures.py::test_every_form_fixture_validates and
    # test_every_frame_model_is_equivariant
    "forms-validate:cross-axes": "yes",
    "forms-validate:frame-line": "yes",
    "forms-validate:frame-plane": "yes",
    "forms-validate:line-density": "yes",
    "forms-validate:plane-area": "yes",
    # tests/test_fixtures.py::test_every_connection_fixture_validates
    "connection-validate:cross-flat": "yes",
    "connection-validate:line-connection": "yes",
    "connection-validate:line-flat": "yes",
    "connection-validate:plane-connection": "yes",
    "connection-validate:plane-flat": "yes",
    # tests/test_fixtures.py::test_every_affine_fixture_round_trips
    "affine-check:line-affine": "yes",
    "affine-check:plane-affine": "yes",
}


def suite_expected(generated_check: str) -> dict:
    """The built-in table plus the generated group's exact sequence, which
    holds by construction (see gen.suite_group)."""
    return {**SUITE, generated_check: "yes"}


# tests/test_cli.py::test_unknown_is_reported_without_failing expects this
# unknown; every membership and calculus query is decided by today's code
UNKNOWN_TODAY = frozenset({"subduction:axis-inclusion"})


def is_error(expected: str, got: str) -> bool:
    """A verdict contradicts the known answer; unknown never does."""
    return got != expected and got != "unknown"


def is_lost(check_id: str, got: str) -> bool:
    """An unknown where the current code gives a yes/no answer."""
    return got == "unknown" and check_id not in UNKNOWN_TODAY
