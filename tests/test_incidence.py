from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import line_key, max_collinear_lines
from test_set_properties import SETTINGS

from ffdist.encodings import WeightedPointSet
from ffdist.energy import dyadic_levels
from ffdist.errors import GuardExceeded, InvariantViolation
from ffdist.field import PrimeModulus
from ffdist.incidence import (
    INSTANCE_PLANE_LIMIT,
    IncidenceInstance,
    PlaneSet,
    build_proof_instance,
    count_incidences,
    format_instance,
    max_collinear,
    max_collinear_vertical,
    parse_instance,
    rudnev_diagnostic,
    verify_proof_instance,
)
from ffdist.rng import SplitMix64
from ffdist.sets import random_subset
from ffdist.spectra import diff_square_spectrum, fold

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


def random_points(rng, modulus, n):
    return WeightedPointSet(
        modulus, 3, Counter(tuple(rng.randbelow(modulus.p) for _ in range(3)) for _ in range(n))
    )


def random_planes(rng, modulus, n):
    planes = []
    while len(planes) < n:
        normal = tuple(rng.randbelow(modulus.p) for _ in range(3))
        if normal == (0, 0, 0):
            continue
        planes.append(normal + (rng.randbelow(modulus.p),))
    return PlaneSet(modulus, Counter(planes))


def test_count_incidences_trivial():
    origin = WeightedPointSet(P5, 3, {(0, 0, 0): 1})
    assert count_incidences(origin, PlaneSet(P5, {(0, 0, 1, 0): 1})) == 1
    assert count_incidences(origin, PlaneSet(P5, {(0, 0, 1, 1): 1})) == 0
    with pytest.raises(ValueError):
        PlaneSet(P5, {(0, 0, 0, 1): 1})


def test_planeset_is_a_multiset():
    # canonicalised mod p, repeats merged after reduction
    planes = PlaneSet(P5, {(0, 0, 1, 0): 2, (5, -5, 6, 10): 3, (1, 1, 1, 1): 1})
    assert planes.entries == {(0, 0, 1, 0): 5, (1, 1, 1, 1): 1}
    assert len(planes) == 2 and planes.total == 6
    with pytest.raises(ValueError, match="zero normal"):
        PlaneSet(P5, {(5, 0, -5, 1): 1})
    for mult in (0, -1):
        with pytest.raises(ValueError, match="multiplicity"):
            PlaneSet(P5, {(0, 0, 1, 0): mult})


def test_multiplicity_weighting():
    pts = WeightedPointSet(P5, 3, {(0, 0, 0): 3, (1, 1, 0): 2})
    planes = PlaneSet(P5, Counter([(0, 0, 1, 0), (0, 0, 1, 0)]))  # Z=0 twice
    assert count_incidences(pts, planes, "direct") == 10
    assert count_incidences(pts, planes, "grouped") == 10


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_strategy_agreement_random(p):
    modulus = PrimeModulus(p)
    rng = SplitMix64(p * 3)
    for _ in range(50):
        pts = random_points(rng, modulus, 20)
        planes = random_planes(rng, modulus, 20)
        assert count_incidences(pts, planes, "direct") == count_incidences(
            pts, planes, "grouped"
        )


def test_strategies_exact_past_int64():
    # coordinates and coefficients near p - 1 put every product near 2^62,
    # and multiplicities above 2^63 must still be summed exactly
    p = 2147483629
    modulus = PrimeModulus(p)
    entries = {(p - 1 - i, p - 2 - 3 * i, p - 1 - 5 * i): 2**64 + 7**i for i in range(6)}
    pts = WeightedPointSet(modulus, 3, entries)
    normals = [(p - 1, p - 2, p - 3), (p - 1, 1, p - 1), (p - 5, p - 7, 2)]
    plane_list = []
    for a, b, c in normals:
        for x, y, z in list(entries)[::2]:  # through every other point
            plane_list.append((a, b, c, (a * x + b * y + c * z) % p))
        plane_list.append((a, b, c, p - 1))
    literal = sum(
        mult
        for (x, y, z), mult in entries.items()
        for a, b, c, e in plane_list
        if (a * x + b * y + c * z) % p == e
    )
    planes = PlaneSet(modulus, Counter(plane_list))
    assert literal >= 3 * 3 * 2**64
    assert count_incidences(pts, planes, "direct") == literal
    assert count_incidences(pts, planes, "grouped") == literal


def test_max_collinear_examples(monkeypatch):
    import ffdist.incidence

    axis = WeightedPointSet(P7, 3, Counter((t, 0, 0) for t in (1, 3, 5)))
    assert max_collinear(axis) == 3
    single = WeightedPointSet(P7, 3, {(2, 2, 2): 1})
    assert max_collinear(single) == 1
    two = WeightedPointSet(P7, 3, {(0, 0, 0): 1, (1, 2, 3): 1})
    assert max_collinear(two) == 2
    monkeypatch.setattr(ffdist.incidence, "COLLINEAR_GUARD", 2)
    with pytest.raises(GuardExceeded):
        max_collinear(axis)
    assert max_collinear(axis, force=True) == 3


def test_max_collinear_raw_list():
    pts = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 0)]
    assert max_collinear(WeightedPointSet(P5, 3, Counter(pts))) == 3


COLLINEAR_PRIMES = (3, 5, 7, 101, 2147483629)


@st.composite
def planted_line_sets(draw):
    """Random points of F_p^3 plus 3-9 points planted on one line."""
    p = draw(st.sampled_from(COLLINEAR_PRIMES))
    coord = st.integers(min_value=0, max_value=p - 1)
    point = st.tuples(coord, coord, coord)
    base = draw(point)
    direction = draw(point.filter(lambda v: v != (0, 0, 0)))
    ts = draw(st.lists(coord, min_size=min(3, p), max_size=min(9, p), unique=True))
    line = [tuple((b + t * v) % p for b, v in zip(base, direction)) for t in ts]
    return PrimeModulus(p), draw(st.lists(point, max_size=30)) + line


def _unreduced(draw, modulus, pts):
    """The points as a raw list: repeats, and coordinates shifted by
    multiples of p, negative ones included."""
    p = modulus.p
    shift = st.integers(min_value=-2, max_value=2)
    raw = [tuple(c + draw(shift) * p for c in pt) for pt in pts]
    return raw + draw(st.lists(st.sampled_from(raw), max_size=5)) if raw else raw


@SETTINGS
@given(planted_line_sets(), st.data())
def test_max_collinear_matches_line_oracle(case, data):
    modulus, pts = case
    expected = max_collinear_lines(pts, modulus)
    weighted = WeightedPointSet(modulus, 3, {pt: data.draw(st.integers(1, 3)) for pt in pts})
    assert max_collinear(weighted) == expected
    assert max_collinear(WeightedPointSet(modulus, 3, Counter(_unreduced(data.draw, modulus, pts)))) == expected


@pytest.mark.parametrize("p", COLLINEAR_PRIMES)
def test_max_collinear_small_and_vertical(p):
    modulus = PrimeModulus(p)
    for pts in ([], [(1, 2, 0)], [(1, 2, 0), (p - 1, 0, 2)], [(1, 2, 0)] * 3):
        expected = max_collinear_lines(pts, modulus)
        assert expected == len(set(pts))
        assert max_collinear(WeightedPointSet(modulus, 3, Counter(pts))) == expected
    # one vertical line: every direction has its pivot in the Z coordinate
    column = [(2, p - 1, z) for z in range(0, p, max(1, p // 9))]
    assert max_collinear(WeightedPointSet(modulus, 3, Counter(column))) == len(column)
    assert max_collinear_lines(column, modulus) == len(column)
    assert max_collinear(WeightedPointSet(modulus, 3, Counter(column + [(0, 0, 0), (1, 1, 1)]))) == len(column)


def test_line_key_canonical():
    k1 = line_key((0, 0, 0), (2, 4, 0), P5)
    k2 = line_key((1, 2, 0), (4, 3, 0), P5)  # same line, other points
    assert k1 == k2
    base, direction = k1
    assert direction[0] == 1  # first nonzero coordinate scaled to 1


def test_rudnev_diagnostic_and_swap():
    rng = SplitMix64(6)
    pts = random_points(rng, P7, 10)
    planes = random_planes(rng, P7, 15)
    inst = IncidenceInstance(points=pts, planes=planes, k=max_collinear(pts))
    report = rudnev_diagnostic(inst)
    assert report.ratio >= 0 and report.incidences >= 0
    assert not report.swapped_roles

    big_pts = random_points(rng, P7, 30)
    small_planes = random_planes(rng, P7, 5)
    inst2 = IncidenceInstance(points=big_pts, planes=small_planes, k=max_collinear(big_pts))
    report2 = rudnev_diagnostic(inst2)
    assert report2.swapped_roles and "swapped" in report2.note


def test_rudnev_diagnostic_empty_instance_has_no_ratio():
    inst = IncidenceInstance(points=WeightedPointSet(P5, 3, {}), planes=PlaneSet(P5, {}), k=0)
    report = rudnev_diagnostic(inst)
    assert report.incidences == 0 and report.ratio is None


def _one_instance(A, i0, j0):
    return build_proof_instance(A, 2, [(i0, j0)])[1][(i0, j0)]


def test_rudnev_diagnostic_checks_the_carried_sum():
    A = random_subset(P7, 3, seed=1)
    exps = list(dyadic_levels(fold(diff_square_spectrum(A), 1)))
    inst = _one_instance(A, exps[0], exps[0])
    assert rudnev_diagnostic(inst).incidences == inst.expected_incidences
    inst.expected_incidences += 1
    with pytest.raises(InvariantViolation, match="carried pair sum"):
        rudnev_diagnostic(inst)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_proof_instance_identity_grid(p):
    modulus = PrimeModulus(p)
    rng = SplitMix64(p * 11)
    for size in (2, 3, 4):
        A = random_subset(modulus, size, seed=rng.next_u64())
        levels = dyadic_levels(fold(diff_square_spectrum(A), 1))
        exps = list(levels)
        built_levels, instances = build_proof_instance(A, 2)
        assert built_levels == levels
        assert list(instances) == [(i0, j0) for i0 in exps for j0 in exps]
        for (i0, j0), inst in instances.items():
            incidences = verify_proof_instance(inst)
            assert incidences == inst.expected_incidences
            # sizes counted with multiplicity
            assert inst.points.total == len(A) ** 2 * len(levels[i0])
            assert inst.planes.total == len(A) ** 2 * len(levels[j0])
            # a level's points, k and planes are built once and shared
            assert inst.points is instances[(i0, exps[0])].points
            assert inst.k == instances[(i0, exps[0])].k
            assert inst.planes is instances[(exps[0], j0)].planes


def test_proof_instance_structure():
    A = random_subset(P7, 3, seed=1)
    levels = dyadic_levels(fold(diff_square_spectrum(A), 1))
    i0 = list(levels)[0]
    inst = _one_instance(A, i0, i0)

    # projection onto the first two coordinates is exactly -2A x A
    proj = {(x, y) for (x, y, _z) in inst.points.entries}
    expected = {(-2 * a % 7, e) for a in A for e in A}
    assert proj == expected

    # vertical lines carry at most |level| points; the plane normals have
    # Z-coefficient 1, so no plane contains a vertical line
    assert max_collinear_vertical(inst.points) <= len(levels[i0])
    assert all(c == 1 for (_a, _b, c, _e) in inst.planes.entries)

    # non-vertical lines carry at most |A| points
    assert _max_collinear_nonvertical(inst.points) <= len(A)

    assert inst.k <= max(len(A), len(levels[i0]))


def _max_collinear_nonvertical(points: WeightedPointSet) -> int:
    return max_collinear_lines(points.entries, points.modulus, keep=lambda line: line[1] != (0, 0, 1))


def test_proof_instance_rejects_missing_level():
    A = random_subset(P5, 2, seed=0)
    with pytest.raises(ValueError, match=r"no dyadic level 99; the levels are \["):
        build_proof_instance(A, 2, [(99, 99)])
    with pytest.raises(ValueError, match="needs d >= 2, got 1"):
        build_proof_instance(A, 1, [(0, 0)])


def test_instance_dump_roundtrip():
    A = random_subset(P5, 2, seed=3)
    levels = dyadic_levels(diff_square_spectrum(A))
    i0 = list(levels)[0]
    inst = _one_instance(A, i0, i0)
    text = format_instance(inst)
    points, planes = parse_instance(text)
    assert points == inst.points
    assert planes.entries == inst.planes.entries
    assert count_incidences(points, planes) == inst.expected_incidences


def test_instance_dump_parse_errors():
    from ffdist.errors import ParseError

    with pytest.raises(ParseError):
        parse_instance("p=5\nPOINTS\n1,2,x,1\nPLANES\n0,0,1,0,1\n")
    with pytest.raises(ParseError):
        parse_instance("POINTS\n1,2,3,1\n")
    with pytest.raises(ParseError):
        parse_instance("p=5\n1,2,3,1\n")
    with pytest.raises(ParseError, match="plane multiplicity"):
        parse_instance("p=5\nPOINTS\n1,2,3,1\nPLANES\n0,0,1,0,1\n1,0,0,1,-3\n")
    with pytest.raises(ParseError, match="plane multiplicity"):
        parse_instance("p=5\nPOINTS\n1,2,3,1\nPLANES\n0,0,1,0,0\n")
    # a point row is checked before its repeats are merged
    with pytest.raises(ParseError, match="point multiplicity"):
        parse_instance("p=5\nPOINTS\n0,0,0,3\n0,0,0,-2\nPLANES\n0,0,1,0,1\n")
    with pytest.raises(ParseError, match="point multiplicity"):
        parse_instance("p=5\nPOINTS\n0,0,0,0\nPLANES\n0,0,1,0,1\n")


def test_instance_dump_plane_limit(monkeypatch):
    import ffdist.incidence

    # a 10^12 multiplicity fails on its own row
    huge = "p=5\nPOINTS\n0,0,0,1\nPLANES\n1,0,0,0,1000000000000\n"
    with pytest.raises(GuardExceeded, match="hard limit"):
        parse_instance(huge)
    # the limit is on the running total over rows, and inclusive
    monkeypatch.setattr(ffdist.incidence, "INSTANCE_PLANE_LIMIT", 3)
    _, planes = parse_instance("p=5\nPOINTS\n0,0,0,1\nPLANES\n1,0,0,0,2\n0,1,0,0,1\n")
    assert planes.total == 3
    with pytest.raises(GuardExceeded, match="over 3 planes"):
        parse_instance("p=5\nPOINTS\n0,0,0,1\nPLANES\n1,0,0,0,2\n0,1,0,0,2\n")


def test_instance_dump_one_plane_at_the_limit():
    # one distinct plane, Z = 1, repeated INSTANCE_PLANE_LIMIT times
    text = "p=5\nPOINTS\n0,0,1,3\n2,4,1,2\n1,1,0,7\nPLANES\n0,0,1,1,1000000\n"
    points, planes = parse_instance(text)
    assert len(planes) == 1 and planes.total == 10**6 == INSTANCE_PLANE_LIMIT
    assert count_incidences(points, planes, "direct") == 10**6 * 5
    assert count_incidences(points, planes, "grouped") == 10**6 * 5


def test_direct_tally_guard():
    # hits[i] <= planes.total, so the direct int64 tally is exact below 2^63
    pts = WeightedPointSet(P5, 3, {(0, 0, 1): 2, (1, 1, 0): 1})
    below = PlaneSet(P5, {(0, 0, 1, 1): 2**63 - 1})
    assert count_incidences(pts, below, "direct") == count_incidences(pts, below, "grouped") == 2**64 - 2
    at = PlaneSet(P5, {(0, 0, 1, 1): 2**63})
    with pytest.raises(GuardExceeded, match="int64"):
        count_incidences(pts, at, "direct")
    assert count_incidences(pts, at, "grouped") == 2**64


@st.composite
def repeated_instances(draw):
    """Points and planes of F_p^3 as raw lists with repeats and
    unreduced coordinates, so both multisets merge entries."""
    p = draw(st.sampled_from((3, 5, 7, 101)))
    coord = st.integers(min_value=-2 * p, max_value=3 * p)
    points = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=12))
    normal = st.tuples(coord, coord, coord).filter(lambda v: any(c % p for c in v))
    planes = draw(st.lists(st.tuples(normal, coord).map(lambda ne: ne[0] + (ne[1],)), min_size=1, max_size=8))
    points += draw(st.lists(st.sampled_from(points), max_size=6))
    planes += draw(st.lists(st.sampled_from(planes), max_size=6))
    modulus = PrimeModulus(p)
    pts = WeightedPointSet(modulus, 3, Counter(points))
    return IncidenceInstance(points=pts, planes=PlaneSet(modulus, Counter(planes)), k=0)


@SETTINGS
@given(repeated_instances())
def test_instance_dump_roundtrip_property(inst):
    points, planes = parse_instance(format_instance(inst))
    assert points.entries == inst.points.entries
    assert planes.entries == inst.planes.entries
    expected = count_incidences(inst.points, inst.planes, "grouped")
    assert count_incidences(points, planes, "direct") == expected
    assert count_incidences(points, planes, "grouped") == expected


def test_strategy_disagreement_impossible_but_guarded():
    # rudnev_diagnostic runs both strategies; equal by construction
    rng = SplitMix64(8)
    pts = random_points(rng, P5, 8)
    planes = random_planes(rng, P5, 8)
    inst = IncidenceInstance(points=pts, planes=planes, k=max_collinear(pts))
    rudnev_diagnostic(inst)  # must not raise InvariantViolation
