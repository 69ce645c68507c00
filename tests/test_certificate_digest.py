"""The certify chain's outputs, pinned byte for byte.

A refactor of the chain Arc -> tangent_frame -> lemma_of_tangents ->
reconstruct_conic must leave every certificate and every lemma centre as
it was.  These tests run the chain on a fixed seeded set of ovals and
compare a SHA-256 of what it returns with a digest recorded from the same
body, and check that the chain multiplies no matrices.
"""

import hashlib
import random

import pytest

from galoisplane.arcs import Arc
from galoisplane.gf import make_field
from galoisplane.linalg import Mat, det3
from galoisplane.pg2 import Collineation, canonicalize
from galoisplane.segre import lemma_of_tangents, reconstruct_conic, tangent_frame

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (11, 2)]
IDS = ["q3", "q5", "q7", "q9", "q11", "q13", "q121"]

DIGESTS = {
    3: "6e0fd9ea9a288dedb26d3514eec0a6d7fd8172e3650d950c7bd0ff17283c4485",
    5: "4fdf70eb469d58810a508b09ce03662d21fca3e5c815a632df13050e7d15d785",
    7: "3d6a6855ad504cc4dbd56594d9d951f3e4cb3a94e4753b8269b5ac0b2040c056",
    9: "d0f9aca947b220326b50329ad728a00fc27198b76833af04873c6a6eeaf918f0",
    11: "e9c98c4e5388f89a1d81b75bbaa0ec4e1862cd93f1f542d120e4ad1de221f728",
    13: "ba97f8a01240364e37d7eb1e7294cc65aacfd84e0808af72f724d310a8ec4c59",
    121: "30f74f055451a53836f5ac5c08058336fbf16827c56f309e385ce8a335ce4489",
}


def _ovals(spec, count=12):
    """Seeded PGL(3, q) images of the standard conic x^2 = yz, each with its
    points shuffled and a random base triple."""
    rng = random.Random(spec.q)
    elems = spec.elements()
    std = [canonicalize((spec.one(), x, x * x)) for x in elems]
    std.append(canonicalize((spec.zero(), spec.zero(), spec.one())))
    for _ in range(count):
        while True:
            m = Mat(spec, 3, 3, tuple(rng.choice(elems) for _ in range(9)))
            if not det3(m).is_zero():
                break
        pts = [Collineation(m).apply(v) for v in std]
        rng.shuffle(pts)
        yield Arc(pts), tuple(rng.sample(pts, 3))


def _chain_digest(spec) -> str:
    """SHA-256 over each oval's certificate JSON and the codes of its lemma's
    three centres."""
    h = hashlib.sha256()
    for arc, base in _ovals(spec):
        lemma = lemma_of_tangents(tangent_frame(arc, base))
        _, cert = reconstruct_conic(arc, base)
        h.update(cert.to_json().encode())
        for point in (lemma.center_frame, lemma.center, lemma.reciprocal_center):
            h.update(repr(point.codes).encode())
    return h.hexdigest()


@pytest.mark.parametrize("p, k", FIELDS, ids=IDS)
def test_certificates_and_centres_are_byte_identical(p, k):
    spec = make_field(p, k)
    assert _chain_digest(spec) == DIGESTS[spec.q]


@pytest.mark.parametrize("p, k", FIELDS, ids=IDS)
def test_certify_chain_makes_no_matrix_product(monkeypatch, p, k):
    """The frame is normalised by a row rescale and the conic pulled back as
    a sum of line pairs, so the chain multiplies no two matrices."""
    spec = make_field(p, k)
    calls = []
    real = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda a, b: calls.append(1) or real(a, b))
    _chain_digest(spec)
    assert calls == [], spec.q
    Mat.identity(spec) @ Mat.identity(spec)
    assert len(calls) == 1  # the counter is live
