"""The benchmark's three closed-loop workloads.

Each workload sets up the fields and planes it uses (timed as set-up), then
generates from the seed a pool of request blocks with the oracle's own
arithmetic, before any timing.  The library sees only those inputs.  Every
block holds the same mix of request kinds, so the pool has the same
composition whatever the seed; the seed changes the ovals, base triples,
collineations, conics, limits and element samples.  The timed phase runs
the whole pool several times and takes each request's median, so the
mixes below are sized to place the median and the tail (the 11th largest)
of the pool inside one cluster of like requests each, and to keep one pass
over the pool short enough for several passes in a run.

`execute` makes the library calls of one request and returns its answer;
`check` verifies the answer with `oracle`, which shares no code with the
library.  Library functions are looked up through the package at call time,
so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

import oracle as own


class CountingRandom(random.Random):
    """random.Random that counts the draws a caller takes from it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


class Workload:
    name = ""
    pool_blocks = 1      # distinct blocks of inputs, cycled through
    trace_blocks = 1     # blocks in the traced phase
    MIX = TINY_MIX = ()  # request kinds and their counts per block

    def __init__(self, gp, tiny: bool = False):
        self.gp = gp
        self.tiny = tiny
        self.mix = self.TINY_MIX if tiny else self.MIX
        self.specs: dict[int, object] = {}
        self.fields: dict[int, own.Field] = {}
        self.draws = 0
        self.pairs = 0

    def _make_field(self, q: int):
        p, k = own.prime_power(q)
        self.specs[q] = spec = self.gp.make_field(p, k)
        return spec

    def _warm_plane(self, q: int) -> None:
        spec = self._make_field(q)
        spec.op_tables()
        self.gp.plane(spec)

    def _own_field(self, q: int) -> own.Field:
        """The oracle's GF(q); its modulus must be the one the library chose."""
        F = self.fields.get(q)
        if F is None:
            F = own.Field(*own.prime_power(q))
            if tuple(self.specs[q].modulus) != F.modulus:
                raise RuntimeError(f"GF({q}): library modulus {self.specs[q].modulus} "
                                   f"is not the lex-least irreducible {F.modulus}")
            self.fields[q] = F
        return F

    def _element(self, q: int, code: int):
        return self.specs[q].from_int(code)

    def _point(self, q: int, codes):
        return self.gp.ProjPoint(tuple(self._element(q, c) for c in codes))

    def codes(self, point, p: int) -> tuple:
        return tuple(own.code_of(x, p) for x in point.coords)

    def setup(self) -> None:
        raise NotImplementedError

    def blocks(self, seed: int) -> list[list[tuple]]:
        """The seeded pool of request blocks; each request is (kind, payload)."""
        rng = random.Random(seed)
        return [self.block(rng) for _ in range(1 if self.tiny else self.pool_blocks)]

    def block(self, rng) -> list[tuple]:
        raise NotImplementedError

    def label(self, request) -> str:
        kind, payload = request
        return f"{kind} q={payload['q']}"

    def execute(self, request):
        kind, payload = request
        return getattr(self, "do_" + kind)(payload)

    def check(self, request, answer) -> bool:
        kind, payload = request
        return getattr(self, "check_" + kind)(payload, answer)

    # shared by certify and large_field

    def _oval_request(self, q: int, pts: list, rng) -> dict:
        base = rng.sample(range(len(pts)), 3)
        return {
            "q": q,
            "codes": pts,
            "points": tuple(self._point(q, v) for v in pts),
            "base": tuple(self._point(q, pts[i]) for i in base),
        }

    def _check_certificate(self, payload, text, conic) -> bool:
        F = self.fields[payload["q"]]
        cert = json.loads(text)
        got = tuple(cert["conic"])
        if got != tuple(cert["oracle_conic"]) or not any(got):
            return False
        if got != tuple(own.code_of(x, F.p) for x in conic.coeffs):
            return False
        if sorted(cert["oval"]) != sorted(own.point_text(v) for v in payload["codes"]):
            return False
        k1, k2, k3 = cert["slopes"]
        if F.mul(F.mul(k1, k2), k3) != F.minus_one:
            return False
        return not any(own.evaluate_conic(F, got, v) for v in payload["codes"])


class Certify(Workload):
    """Oval in, certified conic out: the per-oval body of `segre verify`."""

    name = "certify"
    pool_blocks = 6      # 96 requests, about 0.4 s a pass
    trace_blocks = 12
    # q -> requests per block; as many requests are cheaper than q=7 as
    # dearer, so the median sits inside the q=7 cluster, and the 24 requests
    # at q=9 and q=13 (8 ms each) hold the tail
    MIX = {3: 3, 5: 3, 7: 4, 9: 2, 11: 2, 13: 2}
    TINY_MIX = {3: 1, 5: 1}

    def setup(self) -> None:
        for q in self.mix:
            self._warm_plane(q)

    def block(self, rng) -> list[tuple]:
        out = []
        for q, n in self.mix.items():
            F = self._own_field(q)
            for _ in range(n):
                m = own.random_invertible(F, rng)
                pts = [own.canonical(F, own.mat_vec(F, m, v))
                       for v in own.standard_conic_points(F)]
                rng.shuffle(pts)
                out.append(("oval", self._oval_request(q, pts, rng)))
        rng.shuffle(out)
        return out

    def do_oval(self, payload):
        gp = self.gp
        arc = gp.Arc(payload["points"])
        frame = gp.tangent_frame(arc, payload["base"])
        gp.lemma_of_tangents(frame)
        conic, cert = gp.reconstruct_conic(arc, payload["base"])
        return cert.to_json(), conic

    def check_oval(self, payload, answer) -> bool:
        return self._check_certificate(payload, *answer)


def expected_arc_count(q: int, size: int):
    """Closed forms for the complete searches, or None when not known here."""
    if q % 2 and size == q + 1:
        return q ** 5 - q ** 2  # every oval is a conic (Segre)
    if q % 2 and size == q + 2:
        return 0
    if (q, size) == (4, 6):
        return 168
    return None


class Search(Workload):
    """Bitmask depth-first arc search over the cached plane."""

    name = "search"
    trace_blocks = 1
    # (q, size, limit range or None for a complete search, requests per block).
    # One block of 46 is the pool, about 3.7 s a pass, 2.5 s of it the two
    # q=7 searches.  The 14 oval searches at q=5 (43 ms) hold the tail: four
    # requests are dearer.  The 20 empty size-7 searches at q=5 (15 ms) hold
    # the median: six requests are cheaper and twenty dearer.  The limit
    # ranges are narrow because a limited search's time grows steeply with
    # its limit (2.7 times from 8 to 12 at q=13), and the seed should change
    # the inputs, not the amount of work.
    MIX = (
        (7, 8, None, 1),
        (7, 9, None, 1),
        (13, 14, (8, 10), 2),
        (5, 6, None, 14),
        (11, 12, (6, 8), 2),
        (9, 10, (40, 60), 2),
        (8, 10, (40, 60), 2),
        (5, 7, None, 20),
        (4, 6, None, 2),
    )
    TINY_MIX = ((5, 6, None, 1), (5, 7, None, 1), (4, 6, None, 1), (4, 6, (5, 10), 1))

    def __init__(self, gp, tiny: bool = False):
        super().__init__(gp, tiny)
        self.secant_masks = {}
        self._codes: dict[int, tuple] = {}

    def codes(self, point, p: int) -> tuple:
        """Cached by object, since results hold the plane's own points; the
        cache keeps each object alive so its id is never reused."""
        hit = self._codes.get(id(point))
        if hit is None or hit[0] is not point:
            hit = self._codes[id(point)] = (point, super().codes(point, p))
        return hit[1]

    def setup(self) -> None:
        for q in sorted({kind[0] for kind in self.mix}):
            self._warm_plane(q)

    def _secant_masks(self, q: int):
        """Own point index, and per point pair the mask of the other points on
        their line, from the oracle's determinant (complete searches only)."""
        hit = self.secant_masks.get(q)
        if hit is None:
            F = self._own_field(q)
            pts = own.plane_points(F)
            index = {v: i for i, v in enumerate(pts)}
            masks = {}
            for i, j in combinations(range(len(pts)), 2):
                m = 0
                for k, v in enumerate(pts):
                    if k != i and k != j and not own.det3(F, pts[i], pts[j], v):
                        m |= 1 << k
                masks[i, j] = m
            hit = self.secant_masks[q] = (index, masks)
        return hit

    def block(self, rng) -> list[tuple]:
        out = []
        for q, size, limits, n in self.mix:
            self._own_field(q)
            if limits is None:
                expected = expected_arc_count(q, size)
                self._secant_masks(q)
            for _ in range(n):
                limit = None if limits is None else rng.randint(*limits)
                out.append(("search", {"q": q, "size": size, "limit": limit,
                                       "expected": limit if limits else expected}))
        rng.shuffle(out)
        return out

    def label(self, request) -> str:
        payload = request[1]
        bound = "complete" if payload["limit"] is None else "limited"
        return f"search q={payload['q']} size={payload['size']} {bound}"

    def do_search(self, payload):
        q = payload["q"]
        return self.gp.search_maximal_arcs(self.specs[q], payload["size"], payload["limit"],
                                           max_order=q)

    def check_search(self, payload, arcs) -> bool:
        q, size = payload["q"], payload["size"]
        F = self.fields[q]
        if len(arcs) != payload["expected"]:
            return False
        seen = set()
        complete = payload["limit"] is None
        if complete:
            index, masks = self.secant_masks[q]
        for arc in arcs:
            pts = [self.codes(p, F.p) for p in arc.points]
            if len(set(pts)) != size:
                return False
            if complete:
                idx = sorted(index[v] for v in pts)
                mask = 0
                for i in idx:
                    mask |= 1 << i
                if any(masks[i, j] & mask for i, j in combinations(idx, 2)):
                    return False
                key = mask
            else:
                if any(not own.det3(F, a, b, c) for a, b, c in combinations(pts, 3)):
                    return False
                key = frozenset(pts)
            seen.add(key)
        return len(seen) == len(arcs)


class LargeField(Workload):
    """The gf, pg2 and conic layers over large extension fields and big planes."""

    name = "large_field"
    trace_blocks = 1
    PLANES = (121, 128)          # GF(11^2) and GF(2^7): 14 763 and 16 513 points
    FIELDS = (16384, 16381)      # GF(2^14) and the prime 16381
    TINY_PLANES = (5, 4)
    TINY_FIELDS = (4, 5)
    INVERSES_PER_REQUEST = 64
    TRANSFORM_IMAGES = 8
    # (kind, plane or field slot, requests per block).  One block of 50 is
    # the pool, about 1.4 s a pass.  Sixteen requests are cheaper and twenty
    # dearer than the 14 Desargues pairs at q=128 (6 ms), which hold the
    # median; the 12 varieties (35 ms) hold the tail, below the two
    # reconstructions at q=121 and the two GF(2^14) Wilson products.
    MIX = (
        ("inverses", 1, 4),
        ("transform", 0, 4), ("transform", 1, 4),
        ("desargues", 0, 4), ("desargues", 1, 14),
        ("wilson", 1, 2),
        ("inverses", 0, 2),
        ("variety", 0, 6), ("variety", 1, 6),
        ("reconstruct", 0, 2),
        ("wilson", 0, 2),
    )
    TINY_MIX = tuple((kind, slot, 1) for kind, slot, _ in MIX)

    def __init__(self, gp, tiny: bool = False):
        super().__init__(gp, tiny)
        self.planes = self.TINY_PLANES if tiny else self.PLANES
        self.field_only = self.TINY_FIELDS if tiny else self.FIELDS
        self.standard_ovals = {}

    def setup(self) -> None:
        for q in self.planes:
            self._warm_plane(q)
        for q in self.field_only:
            self._make_field(q).elements()

    def block(self, rng) -> list[tuple]:
        out = []
        for kind, slot, n in self.mix:
            q = (self.field_only if kind in ("wilson", "inverses") else self.planes)[slot]
            F = self._own_field(q)
            for _ in range(n):
                out.append((kind, getattr(self, "make_" + kind)(q, F, rng)))
        rng.shuffle(out)
        return out

    # desargues: a sampled perspective pair and its axis

    def make_desargues(self, q, F, rng):
        return {"q": q, "seed": rng.getrandbits(64)}

    def do_desargues(self, payload):
        rng = CountingRandom(payload["seed"])
        tri1, tri2 = self.gp.sample_perspective_triangles(self.specs[payload["q"]], rng)
        result = self.gp.desargues_axis(tri1, tri2)
        self.draws += rng.draws
        self.pairs += 1
        return tri1, tri2, result

    def check_desargues(self, payload, answer) -> bool:
        tri1, tri2, result = answer
        F = self.fields[payload["q"]]
        t1 = [self.codes(x, F.p) for x in tri1]
        t2 = [self.codes(x, F.p) for x in tri2]
        center = self.codes(result.center, F.p)
        if any(own.det3(F, a, b, center) for a, b in zip(t1, t2)):
            return False
        meets = [self.codes(m, F.p) for m in result.meets]
        for (i, j), m in zip(((0, 1), (0, 2), (1, 2)), meets):
            if own.det3(F, t1[i], t1[j], m) or own.det3(F, t2[i], t2[j], m):
                return False
        axis = tuple(own.code_of(x, F.p) for x in result.axis.coeffs)
        if any(own.dot(F, axis, m) for m in meets):
            return False
        return not own.det3(F, *meets)

    # variety: the points and non-degeneracy verdict of a random conic

    def make_variety(self, q, F, rng):
        while True:
            coeffs = tuple(rng.randrange(q) for _ in range(6))
            if any(coeffs):
                break
        conic = self.gp.Conic(tuple(self._element(q, x) for x in coeffs))
        own_coeffs = tuple(own.code_of(x, F.p) for x in conic.coeffs)
        return {"q": q, "conic": conic, "coeffs": own_coeffs}

    def do_variety(self, payload):
        conic = payload["conic"]
        return self.gp.variety_of(conic), self.gp.is_nondegenerate(conic).verdict

    def check_variety(self, payload, answer) -> bool:
        points, verdict = answer
        F, c = self.fields[payload["q"]], payload["coeffs"]
        got = [self.codes(x, F.p) for x in points]
        if len(set(got)) != len(got) or any(own.evaluate_conic(F, c, v) for v in got):
            return False
        if own.half_discriminant(F, c):
            # nonsingular: q+1 points, and the library must say non-degenerate
            return verdict is True and len(got) == F.q + 1
        expected = [v for v in own.plane_points(F) if not own.evaluate_conic(F, c, v)]
        if sorted(got) != sorted(expected):
            return False
        # a singular conic passes only as the lone point of two conjugate
        # lines in characteristic 2, where the gradient test does not apply
        return verdict is (F.p == 2 and len(got) == 1)

    # transform: push the standard conic through a seeded collineation

    def make_transform(self, q, F, rng):
        m = own.random_invertible(F, rng)
        gp = self.gp
        matrix = gp.Mat.from_rows([[self._element(q, x) for x in row] for row in m])
        conic_pts = own.standard_conic_points(F)
        sample = rng.sample(range(len(conic_pts)), min(self.TRANSFORM_IMAGES, len(conic_pts)))
        return {
            "q": q,
            "matrix": matrix,
            "conic": gp.Conic(tuple(self._element(q, x) for x in own.standard_conic(F))),
            "points": [self._point(q, conic_pts[i]) for i in sample],
            "expected_images": [own.canonical(F, own.mat_vec(F, m, conic_pts[i])) for i in sample],
            "all_images": [own.canonical(F, own.mat_vec(F, m, v)) for v in conic_pts],
        }

    def do_transform(self, payload):
        # a fresh Collineation per request: it caches its inverse
        t = self.gp.Collineation(payload["matrix"])
        image = self.gp.transform_conic(t, payload["conic"])
        return image, [t.apply(p) for p in payload["points"]]

    def check_transform(self, payload, answer) -> bool:
        image, points = answer
        F = self.fields[payload["q"]]
        if [self.codes(p, F.p) for p in points] != payload["expected_images"]:
            return False
        c = tuple(own.code_of(x, F.p) for x in image.coeffs)
        return any(c) and not any(own.evaluate_conic(F, c, v) for v in payload["all_images"])

    # reconstruct: conic recovery on the standard conic of the odd plane

    def make_reconstruct(self, q, F, rng):
        pts = own.standard_conic_points(F)
        request = self._oval_request(q, pts, rng)
        arc = self.standard_ovals.get(q)
        if arc is None:
            # q+1 points of y^2 = xz; validating them here would cost
            # C(q+1, 3) collinearity tests, so the arc is built trusted
            arc = self.standard_ovals[q] = self.gp.Arc(request["points"], _trusted=True)
        request["arc"] = arc
        return request

    def do_reconstruct(self, payload):
        conic, cert = self.gp.reconstruct_conic(payload["arc"], payload["base"])
        return cert.to_json(), conic

    def check_reconstruct(self, payload, answer) -> bool:
        return self._check_certificate(payload, *answer)

    # field-only requests

    def make_wilson(self, q, F, rng):
        return {"q": q}

    def do_wilson(self, payload):
        return self.gp.gf.product_nonzero(self.specs[payload["q"]])

    def check_wilson(self, payload, answer) -> bool:
        F = self.fields[payload["q"]]
        return own.code_of(answer, F.p) == F.minus_one

    def make_inverses(self, q, F, rng):
        codes = [1 + rng.randrange(q - 1) for _ in range(self.INVERSES_PER_REQUEST)]
        return {"q": q, "codes": codes, "elements": [self._element(q, x) for x in codes]}

    def do_inverses(self, payload):
        return [e.inv() for e in payload["elements"]]

    def check_inverses(self, payload, answer) -> bool:
        F = self.fields[payload["q"]]
        return len(answer) == len(payload["codes"]) and all(
            F.mul(a, own.code_of(b, F.p)) == 1 for a, b in zip(payload["codes"], answer))


WORKLOADS = {w.name: w for w in (Certify, Search, LargeField)}
