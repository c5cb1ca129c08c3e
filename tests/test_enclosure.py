"""polys.Enclosure against exact evaluation: at points of 1,000 to 5,000
bits, the box of a point, of its image and of an image of its image holds
the exact point or its negation, its residues are that same point's mod m,
bounds encloses a form's value and size brackets max(|x|, |y|).  Each
coordinate keeps its top bits at an exponent of its own; the two share one
exactly while the gap between their sizes is at most large_bits -
small_bits.  An image keeps the bits its root box was made at, and no box
is made of a point under ENCLOSE_BITS bits."""

import math
import random

import pytest

from orbitint import polys
from orbitint.heights import BOX_PER_PREC, LeafAtoms
from orbitint.integrality import TOP_BITS
from orbitint.orbits import Orbit, WorkLimits, settle
from orbitint.polys import BOX_BITS, Enclosure, _trim, eval_homogeneous
from orbitint.proj1 import ProjPoint, normalize
from orbitint.ratmap import MapSystem, eval_point, parse_map
from orbitint.verify import random_system
from orbitint.words import Word

# Box sizes: the census's, a system-height leaf's at 128 bits, a deferred atom's.
SIZES = [(TOP_BITS, BOX_BITS), (512, 512), (BOX_BITS, BOX_BITS)]
MODULI = [2 ** 64, 3 ** 40, 5 ** 30, 7, 1000003, 2 ** 61 - 1]
COORDINATE = ((0, 1), (1,), 1)   # the forms X and Y, for values of the point itself


@pytest.fixture
def lifted(monkeypatch):
    """polys.ENCLOSE_BITS at 0, so that points of 1,000 bits are enclosed."""
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)


def point_of(rng, bits):
    """A coprime point whose larger coordinate has exactly `bits` bits;
    x is negative half the time."""
    while True:
        x = rng.getrandbits(bits) | (1 << (bits - 1))
        y = rng.getrandbits(rng.randrange(bits // 2, bits + 1)) | 1
        if math.gcd(x, y) == 1:
            return ProjPoint(rng.choice((1, -1)) * x, y)


def in_box(box, x, y):
    (x_lo, x_hi, ex), (y_lo, y_hi, ey) = box.xs, box.ys
    return x_lo << ex <= x <= x_hi << ex and y_lo << ey <= y <= y_hi << ey


def assert_encloses(box, p):
    """p or -p is in the box and has the box's residues; size brackets it."""
    signs = [sign for sign in (1, -1) if in_box(box, sign * p.x, sign * p.y)
             and all(box.values(*COORDINATE, m) == (sign * p.x % m, sign * p.y % m)
                     for m in MODULI)]
    assert signs, p
    lo, hi, e = box.size()
    assert lo << e <= max(abs(p.x), abs(p.y)) <= hi << e


def assert_bounds(box, p, cs, d):
    lo, hi, e = box.bounds(cs, d)
    value = eval_homogeneous(cs, (), d, p.x, p.y)[0]
    assert lo << e <= value <= hi << e


def kept(box):
    """The bits each coordinate of the box keeps, read at its longer end."""
    return [max(-lo, hi).bit_length() for lo, hi, _ in (box.xs, box.ys)]


def assert_images(box, phi, p):
    """The image of the box under phi encloses phi(p), and its images under
    phi enclose phi(phi(p)); returns the image."""
    child = box.image(phi)
    q = eval_point(phi, p)
    assert_encloses(child, q)
    u, v = eval_homogeneous(phi.f, phi.g, phi.degree, p.x, p.y)
    for m in MODULI:
        assert box.values(phi.f, phi.g, phi.degree, m) == (u % m, v % m)
        assert box.values((), phi.g, phi.degree, m) == (0, v % m)
    grandchild = child.image(phi)
    assert_encloses(grandchild, eval_point(phi, q))
    return child


@pytest.mark.parametrize("box_sizes", SIZES)
@pytest.mark.parametrize("sizes", SIZES)
def test_random_systems_at_large_points(lifted, box_sizes, sizes):
    """A box at box_sizes encloses the point and bounds its forms, and the
    images of its box at sizes, which keep that trim, enclose its images."""
    rng = random.Random(f"enclosure:{box_sizes}:{sizes}")
    negative = 0
    for _ in range(24):
        system = random_system(rng, k_max=2, max_degree=3)
        p = point_of(rng, rng.randrange(1000, 5001))
        negative += p.x < 0
        box = Enclosure.of(p.x, p.y, box_sizes)
        assert_encloses(box, p)
        for phi in system.maps:
            assert_bounds(box, p, phi.f, phi.degree)
            assert_bounds(box, p, phi.g, phi.degree)
            assert_images(Enclosure.of(p.x, p.y, sizes), phi, p)
    assert negative >= 6


@pytest.mark.parametrize("text, r", [("(z^2-1)/(z^2+1)", 4), ("(z^2+1)/(z^2+z)", 2)])
def test_a_common_factor_above_1(lifted, text, r):
    """At an odd/odd point, F and G share c = 2, a proper factor of R = 4
    or all of R = 2."""
    phi = parse_map(text)
    assert phi.resultant == r
    rng = random.Random(3)
    for bits in (1000, 3000, 5000):
        p = point_of(rng, bits)
        while p.x % 2 == 0:
            p = point_of(rng, bits)
        u, v = eval_homogeneous(phi.f, phi.g, 2, p.x, p.y)
        assert math.gcd(phi.resultant, u % phi.resultant, v % phi.resultant) == 2
        for sizes in SIZES:
            assert_images(Enclosure.of(p.x, p.y, sizes), phi, p)


def test_resultant_1():
    phi = parse_map("z^2+1")
    assert phi.resultant == 1
    p = point_of(random.Random(5), 2000)
    for sizes in SIZES:
        assert_images(Enclosure.of(p.x, p.y, sizes), phi, p)


def test_a_power_of_2_coordinate_has_width_0():
    p = ProjPoint(-(1 << 3000), 3 ** 1000)
    box = Enclosure.of(p.x, p.y, (TOP_BITS, BOX_BITS))
    assert box.xs[2] == box.ys[2] > 0 and box.xs[0] == box.xs[1] and box.ys[0] < box.ys[1]
    assert_encloses(box, p)
    for sizes in SIZES:
        assert_images(Enclosure.of(p.x, p.y, sizes), parse_map("(z^3-z)/(2*z^2+1)"), p)


def test_the_image_rounds_outward(lifted):
    """[4 : 6] in a box of (2, 3) bits is exact at exponent 1, so F = -20
    and G = 52 are exact at exponent 2; c = 4 puts F/c = -5 and G/c = 13
    between the grid points of that exponent, and the image's box, which
    keeps them at its (2, 3) bits, must round out to them."""
    p, phi = ProjPoint(4, 6), parse_map("(z^2-1)/(z^2+1)")
    box = Enclosure.of(p.x, p.y, (2, 3))
    assert (box.xs, box.ys) == ((2, 2, 1), (3, 3, 1))
    assert box.bounds(phi.f, 2) == (-5, -5, 2)
    child = assert_images(box, phi, p)
    assert (child.xs, child.ys) == ((-2, -1, 2), (3, 4, 2))


def test_a_small_point_is_its_own_box(monkeypatch):
    """Under ENCLOSE_BITS a point has no box; with the gate lifted a small
    point's box is the point itself."""
    assert Enclosure.of(-7, 5, (TOP_BITS, BOX_BITS)) is None
    assert Enclosure.of(1 << 1023, 1, (TOP_BITS, BOX_BITS)) is not None
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    box = Enclosure.of(-7, 5, (TOP_BITS, BOX_BITS))
    assert (box.xs, box.ys) == ((-7, -7, 0), (5, 5, 0))
    assert box.size() == (7, 7, 0)


def test_g_straddling_0():
    """Near x/y = sqrt 2, x^2 - 2y^2 is +-1 while the bounds on it of a box
    that keeps fewer bits than the point has contain 0: the image's
    y-interval straddles 0, and size still holds."""
    phi = parse_map("(z^2+z+1)/(z^2-2)")
    x, y = 3, 2
    while x.bit_length() <= 1500:
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
    p = ProjPoint(x, y)
    for sizes in ((TOP_BITS, BOX_BITS), (512, 512)):
        box = Enclosure.of(p.x, p.y, sizes)
        lo, hi, _ = box.bounds(phi.g, 2)
        assert lo < 0 < hi
        child = assert_images(box, phi, p)
        assert child.ys[0] < 0 < child.ys[1]


def test_form_bounds_are_the_corner_bounds_in_every_quadrant():
    """A box off both axes bounds each monomial by |X|^i |Y|^j with its
    sign; the bounds are those that the four corner products of each
    monomial's power bounds give, in every quadrant and across the axes."""
    rng = random.Random(29)
    for _ in range(3000):
        d = rng.randint(0, 5)
        cs = [rng.choice((0, 1, -1, rng.randint(-40, 40))) for _ in range(rng.randint(0, d + 1))]
        xs, ys = (tuple(sorted(rng.randint(-(1 << 40), 1 << 40) for _ in range(2)))
                  for _ in range(2))
        box = Enclosure((*xs, 0), (*ys, 0), None, None)
        lo = hi = 0
        for i, c in enumerate(cs):
            xb = [t ** i for t in range(xs[0], xs[1] + 1, max(1, xs[1] - xs[0]))]
            yb = [t ** (d - i) for t in range(ys[0], ys[1] + 1, max(1, ys[1] - ys[0]))]
            if xs[0] < 0 < xs[1] and i % 2 == 0 and i:
                xb.append(0)
            if ys[0] < 0 < ys[1] and (d - i) % 2 == 0 and d - i:
                yb.append(0)
            ends = [c * u * v for u in xb for v in yb]
            lo, hi = lo + min(ends), hi + max(ends)
        assert box.bounds(cs, d) == (lo, hi, 0)


def shared_trim(shift, xs, ys, small_bits, large_bits):
    """The box of one shared exponent: the larger coordinate keeps at most
    large_bits and the smaller at most small_bits, both at one shift."""
    (x_lo, x_hi), (y_lo, y_hi) = xs, ys
    low, high = sorted((max(x_lo.bit_length(), x_hi.bit_length()),
                        max(y_lo.bit_length(), y_hi.bit_length())))
    drop = max(0, low - small_bits, high - large_bits)
    return ((x_lo >> drop, -(-x_hi >> drop), shift + drop),
            (y_lo >> drop, -(-y_hi >> drop), shift + drop))


@pytest.mark.parametrize("sizes", SIZES + [(2, 2), (64, 70)])
def test_one_exponent_up_to_the_gap(sizes):
    """While the larger coordinate is at most large_bits - small_bits bits
    longer, the trim is the box of one shared exponent; past that gap the
    smaller coordinate keeps small_bits of its own, at an exponent no higher
    than the larger's, which keeps large_bits (an end rounded outward may carry into
    one bit more)."""
    small_bits, large_bits = sizes
    rng = random.Random(f"trim:{sizes}")
    past = 0
    for _ in range(400):
        shift = rng.randrange(0, 50)
        ranges = []
        for _ in range(2):
            bits = rng.randrange(1, 7000)
            lo = rng.choice((1, -1)) * rng.getrandbits(bits)
            ranges.append(tuple(sorted((lo, lo + rng.randrange(0, 3)))))
        trimmed = _trim(*((lo, hi, shift) for lo, hi in ranges), small_bits, large_bits)
        bits = [max(lo.bit_length(), hi.bit_length()) for lo, hi in ranges]
        for (lo, hi), (t_lo, t_hi, e) in zip(ranges, trimmed):
            assert t_lo << e <= lo << shift and hi << shift <= t_hi << e
        if abs(bits[0] - bits[1]) <= large_bits - small_bits:
            assert trimmed == shared_trim(shift, *ranges, small_bits, large_bits)
            continue
        past += 1
        small, large = sorted(range(2), key=bits.__getitem__)
        assert trimmed[small][2] <= trimmed[large][2]
        if bits[small] > small_bits:
            kept = max(abs(t) for t in trimmed[small][:2]).bit_length()
            assert kept - small_bits in (0, 1)
        if bits[large] > large_bits:
            kept = max(abs(t) for t in trimmed[large][:2]).bit_length()
            assert kept - large_bits in (0, 1)
    assert past >= 40


def test_a_gap_of_2048_bits_keeps_the_top_bits_of_both():
    """x of 5,073 bits and y of 1,966: the smaller keeps TOP_BITS bits at
    its own exponent where one shared exponent kept none, so bounds on the
    form XY exclude 0 and are the product's to TOP_BITS bits.  The census's
    image chain three levels down keeps the root's trim: the gap grows, and
    at every level the smaller coordinate keeps TOP_BITS and the larger
    BOX_BITS (an end rounded outward may carry into one bit more)."""
    p = ProjPoint(3 ** 3200 + 2, 7 ** 700)
    box = Enclosure.of(p.x, p.y, (TOP_BITS, BOX_BITS))
    assert box.xs[1].bit_length() == BOX_BITS and box.ys[1].bit_length() == TOP_BITS
    assert box.ys[2] < box.xs[2]
    assert_encloses(box, p)
    lo, hi, e = box.bounds((0, 1), 2)
    assert 0 < lo << e <= p.x * p.y <= hi << e and hi - lo <= hi >> (TOP_BITS - 2)
    phi = parse_map("(z^3+1)/z")
    for sizes in SIZES:
        assert_images(Enclosure.of(p.x, p.y, sizes), phi, p)
    for level in range(1, 4):
        box, p = box.image(phi), eval_point(phi, p)
        assert_encloses(box, p)
        assert p.x.bit_length() - p.y.bit_length() >= 2048, level
        large, small = kept(box)
        assert (large - BOX_BITS, small - TOP_BITS) in ((0, 0), (0, 1), (1, 0), (1, 1)), level


def test_an_image_chain_keeps_its_root_trim():
    """A word walk's steps are images of a box at (BOX_BITS, BOX_BITS), and
    each keeps BOX_BITS of its larger coordinate; a system-height settle's
    boxes, down to the leaves, keep BOX_PER_PREC * prec of theirs."""
    system = MapSystem([parse_map("(z^2+3)/(z-1)")])
    orbit = Orbit(system, Word.periodic((1,)), normalize(5 ** 500 + 2, 3 ** 400))
    exact = Orbit(system, Word.periodic((1,)), orbit[0])
    steps = 0
    for n in range(1, 6):
        box = orbit.step(n)
        if isinstance(box, Enclosure):
            assert_encloses(box, exact[n])
            assert max(kept(box)) - BOX_BITS in (0, 1), n
            steps += 1
    assert steps >= 3 and len(orbit.points) < 6

    class Recorded:
        """LeafAtoms, recording the image of each box it reads a node from."""

        def __init__(self, prec):
            self.verdict, self.boxes = LeafAtoms(prec), []
            self.bits = self.verdict.bits

        def __call__(self, parent, phi, leaf):
            self.boxes.append(parent.image(phi))
            return self.verdict(parent, phi, leaf)

    node = normalize(3 ** 2000 + 2, 7 ** 600)
    for prec in (53, 128):
        verdict = Recorded(prec)
        assert verdict.bits == (BOX_PER_PREC * prec,) * 2
        assert settle(system, node, 3, WorkLimits(), verdict)
        assert len(verdict.boxes) == 3
        for box in verdict.boxes:
            assert max(kept(box)) - BOX_PER_PREC * prec in (0, 1), prec


def test_bounds_and_size_on_two_exponents():
    """Random boxes whose coordinates have exponents of their own: bounds
    and size enclose a form and max(|x|, |y|) at random points of the box."""
    rng = random.Random(31)
    for _ in range(500):
        ranges = []
        for _ in range(2):
            lo = rng.randint(-(1 << 70), 1 << 70)
            ranges.append((lo, lo + rng.randrange(0, 1 << 40), rng.randrange(0, 3000)))
        box = Enclosure(*ranges, None, None)
        x, y = ((rng.randint(lo, hi) << e) for lo, hi, e in ranges)
        d = rng.randint(0, 5)
        cs = [rng.choice((0, 1, -1, rng.randint(-40, 40))) for _ in range(d + 1)]
        lo, hi, e = box.bounds(cs, d)
        assert lo << e <= eval_homogeneous(cs, (), d, x, y)[0] <= hi << e
        lo, hi, e = box.size()
        assert lo << e <= max(abs(x), abs(y)) <= hi << e
