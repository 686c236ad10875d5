"""End-to-end gate: every release-blocking property, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Known honest failure: the discrepancy trend cases with
every coordinate constrained (m=1) measure a real ~sqrt(t) growth caused by
the closed facets of the standard integer lattice (each facet contributes
half its volume to count-minus-volume systematically), so they fail the
2x decade-mean threshold by design of the quantity itself; see the
module-level comments on the test.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from apfree.behrend import construct_behrend
from apfree.cli import main as cli_main
from apfree.codec import decode_all, encode_all
from apfree.elkin import construct_elkin, enumerate_witnesses
from apfree.lattice import discrepancy_scan, _unravel
from apfree.numeric import (
    ConstructionParams,
    behrend_bound,
    elkin_bound,
    eta,
    exact_moments,
)
from apfree.verify import exact_nu, exact_nu_bb, midpoint_free

from test_verify import _code

BEHREND_GRID = [
    (k, y) for k in (2, 3, 4) for y in range(2, 9) if y**k <= 10**7
]


def criterion(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name} failed: {detail}"


def test_oracle_agreement_to_40():
    started = time.monotonic()
    for n in range(1, 41):
        value, witness = exact_nu(n)
        value_bb = exact_nu_bb(n)
        assert value == value_bb, f"oracles disagree at n={n}: {value} vs {value_bb}"
        report = midpoint_free(witness)
        assert report.ok, f"witness for n={n} has triple {report.witness}"
        assert witness.size == value
    elapsed = time.monotonic() - started
    criterion("oracle-agreement n=1..40", elapsed < 60, f"{elapsed:.1f}s")


def test_behrend_soundness_sweep():
    started = time.monotonic()
    for k, y in BEHREND_GRID:
        params = ConstructionParams(n=(2 * y) ** k, k=k, y=y)
        art = construct_behrend(params)
        report = midpoint_free(art.set)
        assert report.ok, f"(k={k}, y={y}) has triple {report.witness}"
        sigma = exact_moments(k, y).sigma_Z
        floor = (1 - 1 / params.a**2) * y**k / (2 * params.a * sigma + 1) - 1
        assert art.set.size >= floor, (
            f"(k={k}, y={y}) size {art.set.size} below pigeonhole floor {floor:.2f}"
        )
    elapsed = time.monotonic() - started
    criterion(
        "behrend-soundness 21 grid points", elapsed < 120, f"{elapsed:.1f}s"
    )


def _has_certificate_brute(coords, k: int, g: int) -> bool:
    # independent of both the witness enumerator and the vectorized filter
    root = math.isqrt(g)
    for delta in itertools.product(range(-root, root + 1), repeat=k):
        norm = sum(d * d for d in delta)
        if 0 < norm <= g and 0 <= sum(c * d for c, d in zip(coords, delta)) <= g:
            return True
    return False


def test_elkin_filter_soundness():
    outcomes = []
    survivors_seen = 0
    for (k, y), g in itertools.product(BEHREND_GRID, (1, 2)):
        art = construct_elkin(ConstructionParams(n=(2 * y) ** k, k=k, y=y, g=g))
        outcomes.append(((k, y, g), "empty" if art.is_empty else "ok"))
        survivors = decode_all(art.set.elements, k, y)
        for v in survivors.tolist():
            assert not _has_certificate_brute(v, k, g), (
                f"survivor {v} at (k={k}, y={y}, g={g}) has a certificate"
            )
        survivors_seen += len(survivors)
        report = midpoint_free(art.set)
        assert report.ok, f"(k={k}, y={y}, g={g}) triple {report.witness}"
        assert len(survivors) + art.removed == art.annulus_points
    empties = sum(1 for _, o in outcomes if o == "empty")
    assert len(outcomes) == len(BEHREND_GRID) * 2
    assert survivors_seen > 0, "grid produced no survivors to re-verify"
    criterion(
        "elkin-filter-soundness 42 grid points",
        True,
        f"{empties} empty outcomes recorded, {survivors_seen} survivors re-verified",
    )


def _codec_grid() -> list[tuple[int, int]]:
    pairs = []
    for y in range(2, 11):
        k = 1
        while y ** (k + 1) <= 10**6:
            k += 1
        pairs.extend((kk, y) for kk in range(1, k + 1))
    pairs += [(2, 31), (1, 1000), (3, 99)]
    return pairs


def test_codec_round_trip_and_transport():
    rng = random.Random(11)
    for k, y in _codec_grid():
        total = y**k
        coords = _unravel(np.arange(total), k, y)
        codes = encode_all(coords, y, k)
        # sorted, no two codes are equal
        assert np.diff(np.sort(codes)).all(), f"encode not injective on (k={k}, y={y})"
        assert np.array_equal(decode_all(codes, k, y), coords), (
            f"bulk round trip failed on (k={k}, y={y})"
        )
        # the bulk path agrees with the reference code
        for _ in range(min(50, total)):
            v = tuple(rng.randrange(y) for _ in range(k))
            assert encode_all(np.asarray([v]), y, k) == [_code(v, y)]
        if total <= 20000:
            assert codes == [_code(v, y) for v in coords.tolist()]

    # midpoint transport, exhaustive on the small cubes
    for k, y in [(2, 3), (3, 2), (2, 4)]:
        cube = list(itertools.product(range(y), repeat=k))
        codes = dict(zip(cube, encode_all(cube, y, k)))
        code_set = set(codes.values())
        for u, w in itertools.product(cube, repeat=2):
            s = codes[u] + codes[w]
            if s % 2 == 0 and s // 2 in code_set:
                mid = decode_all([s // 2], k, y)[0]
                assert all(2 * c == a + b for c, a, b in zip(mid, u, w))

    # and on random triples for larger cubes, each cube's at once: a midpoint
    # is checked iff it is a cube code, k base-2y digits each below y
    checked = 0
    for k, y in [(6, 7), (10, 4), (5, 13), (8, 5)]:
        ends = np.array([[rng.randrange(y) for _ in range(2 * k)] for _ in range(25000)])
        u, w = ends[:, :k], ends[:, k:]
        s = np.array(encode_all(u, y, k)) + np.array(encode_all(w, y, k))
        even = s % 2 == 0
        mids = s[even] // 2
        rem, is_code = mids, mids < (2 * y) ** k
        for _ in range(k):
            rem, digit = np.divmod(rem, 2 * y)
            is_code &= digit < y
        mid = decode_all(mids[is_code], k, y)
        assert np.array_equal(2 * mid, (u + w)[even][is_code])
        checked += len(mid)
    criterion(
        "codec-round-trip-and-transport",
        checked > 0,
        f"{len(_codec_grid())} cubes, {checked} random transported midpoints",
    )


def test_witness_count_bound():
    for k in range(2, 25):
        for g in (1, 2, 3):
            count = len(enumerate_witnesses(k, g))
            bound = 2 * 2 ** (eta(g / k) * k)
            assert count <= bound, f"D(k={k}, g={g}) = {count} exceeds {bound:.1f}"
    criterion("witness-count-bound k=2..24 g=1..3", True)


def _moment_grid() -> list[tuple[int, int]]:
    pairs = []
    for y in range(2, 21):
        k = 1
        while k * y**k <= 10**6:
            pairs.append((k, y))
            k += 1
    return pairs


def test_moment_exactness():
    for k, y in _moment_grid():
        total = y**k
        sum_sq = 0
        sum_quad = 0
        for start in range(0, total, 1 << 18):
            coords = _unravel(np.arange(start, min(start + (1 << 18), total)), k, y)
            norms = np.einsum("ij,ij->i", coords, coords)
            sum_sq += int(norms.sum())
            sum_quad += int((norms * norms).sum())
        m = exact_moments(k, y)
        assert m.mu_Z == Fraction(sum_sq, total), f"mean mismatch at (k={k}, y={y})"
        assert m.var_Z == Fraction(sum_quad, total) - Fraction(sum_sq, total) ** 2, (
            f"variance mismatch at (k={k}, y={y})"
        )
    # one-dimensional spot checks at large y, exact integer arithmetic
    for y in (10**4, 10**5):
        sum_sq = sum(j * j for j in range(y))
        sum_quad = sum(j**4 for j in range(y))
        m = exact_moments(1, y)
        assert m.mu_Z == Fraction(sum_sq, y)
        assert m.var_Z == Fraction(sum_quad, y) - Fraction(sum_sq, y) ** 2
    criterion("moment-exactness", True, f"{len(_moment_grid())} grid pairs, exact")


DISCREPANCY_GRID = sorted(
    {round(100 * 10 ** (j / 25)) for j in range(51)}
)


@pytest.mark.parametrize("k", (3, 4, 5))
@pytest.mark.parametrize("constrained", ("none", "all"))
def test_discrepancy_trend(k, constrained):
    # With m = k+1 (no half-space constraints) the normalized gap has no
    # growth trend.  With m = 1 every coordinate facet lies in a lattice
    # hyperplane and adds half its volume to A - V systematically, which
    # grows like sqrt(t) against the k-2 dimensional normalizer; the stated
    # threshold is kept and the three m=1 cases fail honestly.
    m = 1 if constrained == "all" else k + 1
    started = time.monotonic()
    records = discrepancy_scan(k, DISCREPANCY_GRID, m)
    elapsed = time.monotonic() - started
    ratios = {r.t: r.ratio for r in records}
    bottom = [ratios[t] for t in DISCREPANCY_GRID if t <= 1000]
    top = [ratios[t] for t in DISCREPANCY_GRID if t >= 1000]
    mean_bottom = sum(bottom) / len(bottom)
    mean_top = sum(top) / len(top)
    ok = mean_top <= 2 * mean_bottom and elapsed < 300
    criterion(
        f"discrepancy-trend k={k} m={m}",
        ok,
        f"decade means {mean_bottom:.3f} -> {mean_top:.3f}, {elapsed:.1f}s",
    )


def test_bound_formula_identity():
    for n in (2**10, 2**20, 2**40):
        ratio = elkin_bound(n) / behrend_bound(n)
        expected = math.sqrt(math.log2(n))
        assert abs(ratio - expected) <= 1e-12 * expected, (
            f"ratio at n=2^{int(math.log2(n))} is {ratio!r}, want {expected!r}"
        )
    criterion("bound-identity 12 significant digits", True)


def test_cli_determinism_across_threads(tmp_path):
    blobs = {"behrend": [], "elkin": []}
    for threads in (1, 4, 8):
        for method, extra in (("behrend", []), ("elkin", ["--g", "1"])):
            out = tmp_path / f"{method}-{threads}.json"
            code = cli_main([
                "construct", "--method", method, "--k", "3", "--y", "8",
                *extra, "--threads", str(threads), "--out", str(out),
                "--reproducible",
            ])
            assert code == 0
            blobs[method].append(out.read_bytes())
    for method, outputs in blobs.items():
        assert outputs[0] == outputs[1] == outputs[2], f"{method} output varies"
    # repeated identical invocations are byte-identical too
    again = tmp_path / "again.json"
    cli_main(["construct", "--method", "behrend", "--k", "3", "--y", "8",
              "--out", str(again), "--reproducible"])
    assert again.read_bytes() == blobs["behrend"][0]
    doc = json.loads(blobs["elkin"][0])
    assert doc["schema"] == "apfree-set/1"
    criterion("cli-determinism threads 1/4/8", True)
