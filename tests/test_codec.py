import io
import itertools
import json
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apfree
from apfree import codec
from apfree.codec import (
    _JSON_CHUNK,
    APFreeSet,
    decode_all,
    encode_all,
    read_set,
)
from apfree.errors import CoordOutOfRange, DigitOutOfRange, SetFormatError
from apfree.numeric import ConstructionParams

from test_verify import _code


def _read_doc(doc) -> APFreeSet:
    """The set read_set makes of the file holding doc."""
    return read_set(io.StringIO(json.dumps(doc)))


@st.composite
def cube_and_vector(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    y = draw(st.integers(min_value=2, max_value=40))
    coords = tuple(
        draw(st.integers(min_value=0, max_value=y - 1)) for _ in range(k)
    )
    return k, y, coords


@st.composite
def spelled_sets(draw):
    """Increasing integers in [1, n], each spelled as an int, a float, a numpy
    int, or True for 1, in a tuple or a list."""
    n = draw(st.integers(min_value=1, max_value=2**70))
    values = sorted(draw(st.sets(st.integers(min_value=1, max_value=n), max_size=6)))
    spellings = [lambda e: e, float, lambda e: np.int64(e) if e < 2**63 else e,
                 lambda e: True if e == 1 else e]
    elements = [draw(st.sampled_from(spellings))(e) for e in values]
    return n, draw(st.sampled_from([tuple, list]))(elements)


def test_every_export_is_defined():
    # a stale name would surface only at a user's `from apfree import *`
    assert [name for name in apfree.__all__ if not hasattr(apfree, name)] == []


class TestEncode:
    def test_examples(self):
        assert encode_all([(0, 1)], 3, 2) == [6]
        assert encode_all([(0, 0, 0, 0)], 5, 4) == [0]
        assert encode_all([(1, 0, 0), (0, 0, 1)], 2, 3) == [1, 16]

    def test_accepts_array_rows(self):
        assert encode_all(np.array([[2, 1]], dtype=np.int64), 3, 2) == [8]
        assert encode_all(np.array([[0, 0, 1]], dtype=np.int64), 2**40, 3) == [2**82]

    def test_rejects_out_of_range(self):
        with pytest.raises(CoordOutOfRange):
            encode_all([(3,)], 3, 1)
        with pytest.raises(CoordOutOfRange):
            encode_all([(-1, 0)], 3, 2)


class TestDecode:
    def test_examples(self):
        assert decode_all([6], 2, 3).tolist() == [[0, 1]]
        assert decode_all([0], 3, 4).tolist() == [[0, 0, 0]]
        # 7 in base 6 is (1, 1): both digits below y = 3
        assert decode_all([7], 2, 3).tolist() == [[1, 1]]

    def test_leaves_an_array_argument_as_it_was(self):
        codes = np.array([6, 7], dtype=np.int64)
        assert decode_all(codes, 2, 3).tolist() == [[0, 1], [1, 1]]
        assert codes.tolist() == [6, 7]

    def test_small_codes_of_a_radix_past_int64(self):
        # the radix 2^71 is no int64: the codes are divided as Python ints
        for codes in ([5, 2**69], np.array([5, 7])):
            assert decode_all(codes, 2, 2**70).tolist()[0] == [5, 0]

    def test_rejects_large_digit(self):
        with pytest.raises(DigitOutOfRange):
            decode_all([3], 2, 3)

    def test_rejects_too_many_digits(self):
        with pytest.raises(DigitOutOfRange):
            decode_all([6**2], 2, 3)

    def test_rejects_negative(self):
        with pytest.raises(DigitOutOfRange):
            decode_all([-1], 2, 3)

    @given(cube_and_vector())
    @settings(max_examples=200)
    def test_round_trip(self, kyv):
        k, y, coords = kyv
        codes = encode_all([coords], y, k)
        assert codes == [_code(coords, y)]
        assert tuple(decode_all(codes, k, y)[0].tolist()) == coords

    def test_exhaustive_small_cubes(self):
        for k, y in [(2, 3), (3, 2), (2, 4), (4, 3)]:
            cube = list(itertools.product(range(y), repeat=k))
            codes = encode_all(cube, y, k)
            assert codes == [_code(v, y) for v in cube]
            assert [tuple(row) for row in decode_all(codes, k, y).tolist()] == cube

    def test_bulk_matches_scalar(self):
        rng = random.Random(7)
        for k, y in [(3, 5), (12, 9), (40, 3)]:
            vs = [
                tuple(rng.randrange(y) for _ in range(k)) for _ in range(200)
            ]
            codes = encode_all(vs, y, k)
            assert codes == [_code(v, y) for v in vs]
            assert [tuple(row) for row in decode_all(codes, k, y).tolist()] == vs

    @pytest.mark.parametrize("k,y", [(30, 2), (31, 2), (20, 6), (27, 4), (9, 3)])
    def test_array_matches_scalar_on_both_sides_of_2_62(self, k, y):
        # (2y)^k: 2^60 and 6^9 take the int64 path; 2^62, 12^20 and 8^27 do not.
        rng = np.random.default_rng(k * y)
        coords = rng.integers(0, y, size=(50, k))
        coords[0] = y - 1
        codes = encode_all(coords, y, k)
        assert codes == [_code(row, y) for row in coords]
        assert codes == encode_all([tuple(row) for row in coords.tolist()], y, k)
        assert all(type(c) is int for c in codes)
        assert np.array_equal(decode_all(codes, k, y), coords)
        assert encode_all(np.empty((0, k), dtype=np.int64), y, k) == []
        assert decode_all([], k, y).shape == (0, k)

    @pytest.mark.parametrize("k,y", [(9, 3), (27, 4), (6, 256), (7, 256), (30, 2),
                                     (31, 2)])
    def test_digit_dtype_does_not_change_the_codes(self, k, y):
        # 6^9, 512^6 and 4^30 take the int64 path; 8^27, 512^7 and 4^31 do not.
        rng = np.random.default_rng(k * y)
        coords = rng.integers(0, y, size=(50, k))
        coords[0] = y - 1
        expected = [_code(row, y) for row in coords]
        # int64 += uint64 alone would run in float64; past 2^62, Python ints
        python_ints = (2 * y) ** k >= 2**62
        for dtype in (np.uint8, np.uint16, np.int64, np.uint64):
            codes = codec._codes(coords.astype(dtype), y, k)
            assert codes.tolist() == expected, dtype
            assert codes.dtype == (object if python_ints else np.int64)
            assert python_ints == all(type(c) is int for c in codes)

    @pytest.mark.parametrize("k,y", [(9, 3), (27, 4)])
    def test_bulk_decode_rejects_non_codes(self, k, y):
        # 6^9 takes the int64 path, 8^27 the Python-int one; a float is
        # refused, not truncated to a code (6.5 to 6, (0.5, 1.9) to (0, 1)),
        # and a bool is not read as 1
        top = (2 * y) ** k
        largest = _code((y - 1,) * k, y)
        for bad in (-1, y, top, top + 1, 6.5, float(y - 1)):
            for codes in ([0, bad], [largest, bad]):
                with pytest.raises(DigitOutOfRange):
                    decode_all(codes, k, y)
        for coords in ([(y,) + (0,) * (k - 1)], [(0.5,) + (1.9,) * (k - 1)],
                       np.full((1, k), 1.0), [(True,) + (1,) * (k - 1)]):
            with pytest.raises(CoordOutOfRange):
                encode_all(coords, y, k)


class TestMidpointTransport:
    def test_exhaustive_triples(self):
        for k, y in [(2, 3), (3, 2), (2, 4)]:
            cube = list(itertools.product(range(y), repeat=k))
            codes = dict(zip(cube, encode_all(cube, y, k)))
            code_set = set(codes.values())
            for u, w in itertools.product(cube, repeat=2):
                s = codes[u] + codes[w]
                if s % 2:
                    continue
                mid_code = s // 2
                if mid_code in code_set:
                    mid = decode_all([mid_code], k, y)[0]
                    assert all(
                        2 * c == a + b for c, a, b in zip(mid, u, w)
                    )

    def test_random_triples_on_larger_cubes(self):
        rng = random.Random(2024)
        for k, y in [(6, 7), (9, 4), (5, 12)]:
            for _ in range(3000):
                u = tuple(rng.randrange(y) for _ in range(k))
                w = tuple(rng.randrange(y) for _ in range(k))
                s = sum(encode_all([u, w], y, k))
                if s % 2:
                    continue
                try:
                    mid = decode_all([s // 2], k, y)[0]
                except DigitOutOfRange:
                    continue
                assert all(2 * c == a + b for c, a, b in zip(mid, u, w))


@st.composite
def membership_probes(draw):
    """n (a held int64 or object array), a set's codes, and a probe: a code or
    a near miss spelled as an int, float, bool, string, numpy int or 1-element
    list or tuple, or None, any int, any float or a short string."""
    n = draw(st.sampled_from([1000, 2**70]))
    codes = sorted(draw(st.sets(st.integers(min_value=1, max_value=n), max_size=6)))
    near = draw(st.sampled_from(codes or [1])) + draw(st.integers(-1, 1))
    spellings = [lambda v: v, float, bool, str, lambda v: [v], lambda v: (v,),
                 lambda v: np.int64(v) if -2**63 <= v < 2**63 else v,
                 lambda v: np.uint8(v) if 0 <= v < 2**8 else v]
    probe = draw(st.one_of(
        st.sampled_from(spellings).map(lambda spell: spell(near)), st.none(),
        st.integers(), st.floats(), st.booleans(), st.text(max_size=3)))
    return n, codes, probe


class TestAPFreeSet:
    def test_validation(self):
        APFreeSet(n=10, elements=(1, 2, 10), method="exact")
        with pytest.raises(ValueError):
            APFreeSet(n=10, elements=(2, 1), method="exact")
        with pytest.raises(ValueError):
            APFreeSet(n=10, elements=(0, 1), method="exact")
        with pytest.raises(ValueError):
            APFreeSet(n=10, elements=(1, 11), method="exact")
        with pytest.raises(ValueError):
            APFreeSet(n=10, elements=(1, 1), method="exact")
        with pytest.raises(ValueError):
            APFreeSet(n=10, elements=(1,), method="magic")
        with pytest.raises(ValueError, match="n must be >= 1"):
            APFreeSet(n=0, elements=(), method="exact")

    @pytest.mark.parametrize("at", [_JSON_CHUNK - 1, _JSON_CHUNK, _JSON_CHUNK + 1,
                                    2 * _JSON_CHUNK])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_order_is_checked_across_window_ends(self, at, dtype):
        codes = np.arange(1, 2 * _JSON_CHUNK + 2).astype(dtype)
        codes[at] = codes[at - 1]
        with pytest.raises(ValueError, match="strictly increasing"):
            APFreeSet(n=len(codes), elements=codes, method="external")
        codes[at] += 1
        APFreeSet(n=len(codes), elements=codes, method="external")

    def test_order_check_builds_no_mask_of_the_set(self):
        # as many codes as the 2^32 Behrend set: an order mask of one byte a
        # code would peak at 160 kB above them
        codes = np.arange(1, 160_218, dtype=np.int64) * 26_000
        tracemalloc.start()
        try:
            APFreeSet(n=2**32, elements=codes, method="external")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("elements", [(1.5, 2.0, 3), (1.0, 2), (True, 2),
                                          np.array([1.0, 2.0]), np.array([True])])
    def test_non_integer_elements_are_refused(self, elements):
        # a set file could not hold them: they would be written as "1.5", "True"
        with pytest.raises(ValueError, match="integers"):
            APFreeSet(n=10, elements=elements, method="external")

    def test_elements_behave_as_the_equal_tuple(self):
        s = APFreeSet(n=10, elements=[1, 2, 4, 5], method="exact")
        t = APFreeSet(n=10, elements=(1, 2, 4, 5), method="exact")
        assert s == t and hash(s) == hash(t)
        assert s.elements == (1, 2, 4, 5) and hash(s.elements) == hash((1, 2, 4, 5))
        assert (s.elements != (1, 2, 4)) is True and (s.elements != t.elements) is False
        assert repr(s.elements) == "(1, 2, 4, 5)" and list(s.elements) == [1, 2, 4, 5]
        assert s.elements[1:3] == (2, 4) and type(s.elements[-1]) is int
        assert [e in s.elements for e in (0, 3, 5, 6, 2**70)] == [False, False, True,
                                                                  False, False]
        assert not np.asarray(s.elements).flags.writeable

    @given(membership_probes())
    @settings(max_examples=300, deadline=None)
    def test_membership_answers_as_the_equal_tuple(self, case):
        n, codes, probe = case
        elements = APFreeSet(n=n, elements=codes, method="external").elements
        assert (probe in elements) == (probe in tuple(elements))

    @pytest.mark.parametrize("n", [10.5, 10.0, True, "10", None, np.float64(10)],
                             ids=["float", "whole-float", "bool", "str", "None", "numpy"])
    def test_non_integer_bound_is_refused(self, n):
        # a set file could not hold it: it would be written as "10.5", "True"
        with pytest.raises(ValueError, match="n must be an integer"):
            APFreeSet(n=n, elements=(1,), method="external")

    def test_numpy_bound_is_held_as_int(self):
        s = APFreeSet(n=np.int64(10), elements=(1, 2), method="external")
        buf = io.StringIO()
        s.write_json(buf, reproducible=True)
        assert type(s.n) is int and read_set(io.StringIO(buf.getvalue())) == s

    def test_an_array_is_held_without_a_copy(self):
        codes = np.array([3, 7, 9], dtype=np.int64)
        s = APFreeSet(n=10, elements=codes, method="external")
        assert np.asarray(s.elements) is codes and not codes.flags.writeable
        assert decode_all(s.elements, 1, 10).ravel().tolist() == [3, 7, 9]

    @given(case=spelled_sets(), method=st.sampled_from(["behrend", "elkin", "exact",
                                                        "external"]))
    @settings(max_examples=150, deadline=None)
    def test_every_accepted_set_round_trips(self, case, method):
        n, elements = case
        try:
            s = APFreeSet(n=n, elements=elements, method=method)
        except ValueError:
            return
        buf = io.StringIO()
        s.write_json(buf, reproducible=True)
        loaded = read_set(io.StringIO(buf.getvalue()))
        assert loaded == s and hash(loaded) == hash(s)

    def test_json_round_trip(self):
        params = ConstructionParams(n=36, k=2, y=3)
        s = APFreeSet(n=36, elements=(1, 6), method="behrend", params_echo=params)
        buf = io.StringIO()
        s.write_json(buf, reproducible=True)
        text = buf.getvalue()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["schema"] == "apfree-set/1"
        assert doc["n"] == "36"
        assert doc["elements"] == ["1", "6"]
        assert doc["params"]["n_effective"] == "36"
        assert "created" not in doc
        loaded = read_set(io.StringIO(text))
        assert loaded.elements == (1, 6) and loaded.n == 36

    def test_read_keeps_the_recorded_parameters(self):
        for params in (ConstructionParams(n=36, k=2, y=3),
                       ConstructionParams(n=10**4, k=3, y=4, a=2.5, epsilon=0.3, g=2)):
            s = APFreeSet(n=params.n, elements=(1, 6), method="elkin",
                          params_echo=params)
            buf = io.StringIO()
            s.write_json(buf, reproducible=True)
            assert read_set(io.StringIO(buf.getvalue())) == s

    @pytest.mark.parametrize("k, y", [(0, 0), (3, 9), ("x", 2), (None, 2), (3, 1.5),
                                      (10**9, 2), (10**9, 0)])
    def test_read_ignores_missing_or_invalid_parameters(self, k, y):
        # (3, 9) and 10**9 coordinates would need n >= (2y)^k
        doc = {"schema": "apfree-set/1", "n": "300", "elements": ["1"], "k": k, "y": y}
        start = time.perf_counter()
        assert _read_doc(doc).params_echo is None
        assert time.perf_counter() - start < 1.0

    def test_read_ignores_a_non_integer_width(self):
        doc = {"schema": "apfree-set/1", "n": "4096", "elements": ["1"], "k": 3, "y": 8,
               "params": {"g": 1}}
        assert _read_doc(doc).params_echo == ConstructionParams(4096, 3, 8, g=1)
        doc["params"]["g"] = 1.5
        assert _read_doc(doc).params_echo is None

    def test_timestamp_only_when_not_reproducible(self):
        s = APFreeSet(n=10, elements=(1, 2), method="exact")
        for reproducible in (False, True):
            buf = io.StringIO()
            s.write_json(buf, reproducible=reproducible)
            assert ("created" in json.loads(buf.getvalue())) is not reproducible

    def test_large_elements_survive_transport(self):
        big = 2**200
        s = APFreeSet(n=big + 1, elements=(1, big), method="external")
        buf = io.StringIO()
        s.write_json(buf, reproducible=True)
        assert read_set(io.StringIO(buf.getvalue())).elements == (1, big)

    @given(
        size=st.sampled_from([0, 1, _JSON_CHUNK - 1, _JSON_CHUNK, _JSON_CHUNK + 1]),
        first=st.integers(min_value=1, max_value=2**70),
        step=st.integers(min_value=1, max_value=2**70),
        method=st.sampled_from(["behrend", "elkin", "exact", "external"]),
        with_params=st.booleans(),
        reproducible=st.booleans(),
    )
    @example(size=_JSON_CHUNK + 1, first=2**64 - 5, step=3, method="behrend",
             with_params=True, reproducible=False)  # codes on both sides of 2^64
    @settings(max_examples=40, deadline=None)
    def test_streamed_json_equals_json_dump(self, size, first, step, method,
                                            with_params, reproducible):
        elements = tuple(range(first, first + size * step, step))
        n = first + size * step + 36  # params need n >= (2y)^k = 36
        params = ConstructionParams(n=n, k=2, y=3, a=2.5, g=2) if with_params else None
        s = APFreeSet(n=n, elements=elements, method=method, params_echo=params)
        frozen = time.gmtime(1234567890)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec.time, "gmtime", lambda *args: frozen)
            buf = io.StringIO()
            s.write_json(buf, reproducible=reproducible)
            doc = s._json_doc(reproducible, [str(e) for e in elements])
            expected = json.dumps(doc, indent=2) + "\n"
        assert buf.getvalue() == expected

    def test_json_write_does_not_hold_every_element_string(self, tmp_path):
        # 160,000 ten-digit codes, about the 2^32 Behrend set: json.dump of the
        # whole document peaks at 10.7 MB here, the streamed writer at 0.4 MB.
        n = 2**32
        s = APFreeSet(n=n, elements=tuple(range(n - 160_000 * 26_000, n, 26_000)),
                      method="external")
        with open(tmp_path / "set.json", "w", encoding="utf-8", newline="") as fh:
            tracemalloc.start()
            try:
                s.write_json(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2_000_000

    def test_csv_export(self):
        s = APFreeSet(n=36, elements=(1, 6), method="behrend")
        buf = io.StringIO()
        s.write_csv(buf)
        assert buf.getvalue() == "index,element\r\n0,1\r\n1,6\r\n"

    def test_read_rejects_wrong_schema(self):
        with pytest.raises(SetFormatError):
            _read_doc({"schema": "other/9", "n": "5", "elements": []})
        with pytest.raises(SetFormatError):
            read_set(io.StringIO("not json"))
        with pytest.raises(SetFormatError):
            _read_doc({"schema": "apfree-set/1", "n": "5", "elements": ["2", "1"]})

    @pytest.mark.parametrize("field, value", [
        ("elements", [1.5, 2.9, 4]),
        ("elements", "1249"),
        ("elements", [True, 2]),
        ("elements", ["+3"]),
        ("elements", [" 3"]),
        ("elements", ["\u0663"]),  # a non-ASCII digit
        ("n", 10.0),
        ("n", True),
    ])
    def test_read_rejects_non_integer_fields(self, field, value):
        doc = {"schema": "apfree-set/1", "n": "10", "elements": ["1"]}
        doc[field] = value
        with pytest.raises(SetFormatError):
            _read_doc(doc)

    def test_read_accepts_json_integers(self):
        doc = {"schema": "apfree-set/1", "n": 10, "elements": [1, "2", 4]}
        assert _read_doc(doc).elements == (1, 2, 4)

    def test_density(self):
        s = APFreeSet(n=36, elements=(1, 6), method="behrend")
        assert s.density == pytest.approx(2 / 36)
