"""The shared exact decimal module: _decimal.fixed3 against CPython's "%.3f",
number by number, MapDocument.to_svg against the one-% writer it replaced,
and the module's lazy loading.

The suite turns warnings into errors, so each case also shows that no input,
in the kernel's domain or outside it, raises a RuntimeWarning.
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flatdisk import _decimal, geo_render as gr
from flatdisk.projection import ProjectionMode, forward_arrays

FIXTURE = Path(__file__).parent / "data" / "fixture_coastline.geojson"


def fmt(v):
    """One number as fixed3 spells it: "%.3f", with "-0.000" written "0.000"."""
    s = "%.3f" % v
    return "0.000" if s == "-0.000" else s


def assert_spelled_as_percent(values):
    x = np.asarray(values, dtype=float)
    sep = np.full(len(x), ord(" "), np.uint8)
    sep[::3] = ord(",")
    text, ends = _decimal.fixed3(x, sep)
    want = [fmt(v) + chr(s) for v, s in zip(x.tolist(), sep.tolist())]
    got = [text[i:j] for i, j in zip([0] + ends[:-1].tolist(), ends.tolist())]
    wrong = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]
    assert text == "".join(want)


class TestFixed3:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(18)
        anywhere = rng.integers(0, 2**64, 100_000, dtype=np.uint64)  # signs, nan, inf, subnormals
        # 2**-13 to 2**26: |x| < 1e6 and a few binades past each end of it
        exponent = rng.integers(1023 - 13, 1023 + 26, 200_000).astype(np.uint64)
        mantissa = rng.integers(0, 2**52, 200_000, dtype=np.uint64)
        sign = rng.integers(0, 2, 200_000, dtype=np.uint64) << np.uint64(63)
        near = sign | (exponent << np.uint64(52)) | mantissa
        assert_spelled_as_percent(np.concatenate((anywhere, near)).view(np.float64))

    def test_page_like_values(self):
        rng = np.random.default_rng(19)
        x = rng.normal(0, 1, 200_000) * 10.0 ** rng.integers(-4, 7, 200_000)
        assert_spelled_as_percent(np.concatenate([x, np.round(x, 3), np.round(x, 4)]))

    def test_exact_ties_round_half_to_even(self):
        # x * 1000 is a half-integer exactly where x is an odd multiple of 1/16;
        # the first and last 20,000 below 1e6, and every 1,001st
        top = 16 * 10**6
        ties = np.concatenate([np.arange(1, 40_000, 2), np.arange(top - 39_999, top, 2),
                               np.arange(1, top, 2_002)]) / 16
        assert "%.3f" % 0.0625 == "0.062" and "%.3f" % 0.1875 == "0.188"
        assert_spelled_as_percent(np.concatenate([ties, -ties]))
        near = np.concatenate([np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
        assert_spelled_as_percent(np.concatenate([near, -near]))

    def test_decimal_ties_round_by_the_exact_product(self):
        # the double nearest (2k + 1) / 2000 is no tie, but x * 1000 often rounds
        # to the half-integer k + 0.5; then lo decides: 0.0025 * 1000 rounds to 2.5,
        # and rint(2.5) is 2, but the double 0.0025 lies above 0.0025
        top = 2 * 10**9
        odd = np.concatenate([np.arange(1, 40_000, 2), np.arange(top - 39_999, top, 2),
                              np.arange(1, top, 200_002)])
        x = odd / 2000
        assert "%.3f" % 0.0025 == "0.003" and 0.0025 * 1000.0 == 2.5
        hi = x * 1000.0
        assert np.count_nonzero(hi == np.floor(hi) + 0.5) > len(x) // 4
        assert_spelled_as_percent(np.concatenate([x, -x]))

    def test_rounding_to_zero(self):
        edge = np.array([0.0005, 0.0015, 0.0025, 0.0625, 1e-300, 5e-324, 2.0**-1022])
        edge = np.concatenate([edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)])
        assert_spelled_as_percent(np.concatenate([edge, -edge]))
        assert _decimal.fixed3(np.array([-0.0004, -0.0]), np.zeros(2, np.uint8))[0] == (
            "0.000\x000.000\x00")

    def test_values_outside_the_domain(self):
        tens = 10.0 ** np.arange(3, 20)
        tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
        assert_spelled_as_percent(np.concatenate([
            tens, -tens, [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e300, -1e308,
                          999999.9995, 999999.9994999999, -999999.9996, 1e6 - 2**-33,
                          -9999999.9996, -99999999.9996]]))

    def test_fallback_spellings_and_offsets(self):
        x = np.array([1.5, np.nan, -2.25, 1e6, 0.0, -np.inf, 3.0])
        text, ends = _decimal.fixed3(x, np.full(len(x), ord(";"), np.uint8))
        assert text == "1.500;nan;-2.250;1000000.000;0.000;-inf;3.000;"
        assert ends.tolist() == [6, 10, 17, 29, 35, 40, 46]

    def test_empty(self):
        text, ends = _decimal.fixed3(np.empty(0), np.empty(0, np.uint8))
        assert text == "" and len(ends) == 0

    def test_both_writers_read_the_one_digit_table(self, monkeypatch):
        # a digit table of the letters "a" to "j" ("." is "_" in point3) shows in both writers
        tables = tuple(t + np.uint32(0x31313131) for t in _decimal.digit_groups())
        monkeypatch.setattr(_decimal, "digit_groups", lambda: tables)
        letters = str.maketrans("0123456789", "abcdefghij")
        x = np.array([0.001234, 0.1, 1.5, 123456.789, 1e16])
        assert b"".join(_decimal.row_blocks(x.reshape(-1, 1))).decode("ascii") == "".join(
            "%.17g\n" % v for v in x.tolist()).translate(letters)
        assert _decimal.fixed3(x[:4], np.full(4, ord(" "), np.uint8))[0] == "".join(
            "%.3f " % v for v in x[:4].tolist()).translate(letters).replace(".", "_")


def assert_g12_as_percent(values):
    """g12_rows on values, two a row with a "north\\n" or "south\\n" tail, against %."""
    x = np.asarray(values, dtype=float)
    rows = x[:len(x) // 2 * 2].reshape(-1, 2)
    sides = np.array([b"north\n", b"south\n"]).view(np.uint8).reshape(2, -1)
    which = np.arange(len(rows)) % 3 == 0
    got = _decimal.g12_rows(rows, np.where(which[:, None], *sides)).decode("ascii")
    want = ["%.12g,%.12g,%s\n" % (a, b, "north" if w else "south")
            for (a, b), w in zip(rows.tolist(), which.tolist())]
    wrong = [(r, g, w) for r, g, w in zip(rows.tolist(), got.splitlines(True), want) if g != w]
    assert not wrong, wrong[:5]
    assert got == "".join(want)


class TestG12:
    """_decimal.g12_rows against CPython's "%.12g", byte for byte, on 10**6 numbers."""

    def test_magnitudes_and_signs(self):
        rng = np.random.default_rng(23)
        x = 10.0 ** rng.uniform(-12.0, 13.0, 400_000)
        assert_g12_as_percent(np.where(rng.random(len(x)) < 0.5, -x, x))

    def test_twelve_digit_ties(self):
        # (k + 0.5) / 10**j: halfway between two 12-digit spellings in decimal; the
        # doubles are exact ties only from 1e11 up, elsewhere lo picks the side
        rng = np.random.default_rng(24)
        j = rng.integers(0, 16, 300_000)
        k = rng.integers(10**11, 10**12, 300_000).astype(float)
        ties = (k + 0.5) / 10.0 ** j
        assert np.count_nonzero(ties == np.floor(ties) + 0.5) > 10_000
        assert "%.12g" % 100000000000.5 == "100000000000" and "%.12g" % 0.15 == "0.15"
        assert_g12_as_percent(np.concatenate([ties, -ties]))

    def test_edges(self):
        # powers of ten and their neighbours, the carry to 10**12, the ends of the
        # kernel's exponents, and what % spells: 0, -0.0, nan, inf, subnormals
        tens = 10.0 ** np.arange(-14, 16)
        tens = np.concatenate([tens, 9.999999999995 * tens, 9.9999999999949 * tens])
        edges = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                                [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                                 2.0**-1022, 1e-310, 1.0000000000000002, 1.74532925199e-10]])
        assert_g12_as_percent(np.concatenate([edges, -edges]))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(25)
        assert_g12_as_percent(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(float))

    def test_empty(self):
        assert _decimal.g12_rows(np.empty((0, 2)), np.empty((0, 6), np.uint8)) == b""

    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    def test_cells_across_a_block_cut(self, n):
        # zeros, poles (0,0) and % spellings in every block, at its ends and on both
        # sides of the cut after row 1024, with both tails
        special = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (np.inf, np.nan),
                   (1e-5, 1e12), (-1e12, -1e-5), (-np.inf, 0.25)]
        rows = np.random.default_rng(n).uniform(-4.0, 4.0, (n, 2))
        rows[::5] = np.resize(special, (len(rows[::5]), 2))
        ends = [i for i in (1022, 1023, 1024) if i < n] + [n - 1]
        rows[ends] = special[:len(ends)]
        assert_g12_as_percent(rows.ravel())


@pytest.mark.parametrize("n", [12, 17])
def test_one_kernel_spells_both_precisions(n):
    # the same values at both precisions: both signs, 0 and -0.0, the kernel's ends
    # e = -4 and n - 1 and their outer neighbours e = -5 and n, the carries to one
    # digit more, powers of ten and their neighbours, and exact ties at 12 and 17 digits
    rng = np.random.default_rng(27)
    tens = 10.0 ** np.arange(-7, 20)
    tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                           9.99999999999995 * tens, 9.9999999999999995 * tens, 1.5 * tens])
    ties = np.concatenate([
        (rng.integers(10**11, 10**12, 2_000) + 0.5) / 10.0 ** rng.integers(0, 16, 2_000),
        rng.integers(2**50, 2**51, 2_000) + 0.25, rng.integers(2**50, 2**51, 2_000) + 0.75])
    x = np.concatenate([tens, ties, 10.0 ** rng.uniform(-6.0, 19.0, 20_000),
                        [0.0, np.nan, np.inf, 1e-4, 1.2345678901234567e-4, 9.9999999999999e-5,
                         99999999999.95, 9.9999999999999995e-07, 1e-5, 1.23e-5,
                         99999999999.949997, 1.2345678901234567e16, 1.2345678901234567e17]])
    x = np.concatenate([x, -x])
    rows = x.reshape(-1, 2)
    tail = np.full((len(rows), 2), ord("|"), np.uint8)
    want = ["%.*g;%.*g\n" % (n, a, n, b) for a, b in rows.tolist()]
    got = _decimal._g_block(rows, n, b";\n", tail).decode("ascii").split("||")
    assert len(got) == len(want) + 1 and got[-1] == ""
    wrong = [(r, g, w) for r, g, w in zip(rows.tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]
    assert _decimal._g_block(rows, n, b" \n") == "".join(want).replace(";", " ").encode()


def test_kernel_spells_by_percent_where_log10_is_low(monkeypatch):
    # a log10 one ulp low puts e one too low at and just above each power of ten, so
    # hi + lo reaches 10**n; those numbers go to %
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
    tens = 10.0 ** np.arange(-4, 17)
    x = np.concatenate([tens, np.nextafter(tens, np.inf), 1.000000000005 * tens])
    for n in (12, 17):
        got = _decimal._g_block(np.concatenate([x, -x]).reshape(-1, 1), n, b"\n")
        assert got.decode("ascii") == "".join("%.*g\n" % (n, v) for v in [*x, *-x])


def test_g12_temporaries_are_bounded():
    rng = np.random.default_rng(28)
    r, phi, north = forward_arrays(rng.uniform(-90, 90, 2000), rng.uniform(-180, 180, 2000),
                                   ProjectionMode.STRESS_MINIMAL)
    rows = np.column_stack((r, phi))
    tails = np.array([b"south\n", b"north\n"]).view(np.uint8).reshape(2, -1).take(
        north.view(np.uint8), axis=0)
    _decimal.g12_rows(rows, tails)  # builds the tables
    tracemalloc.start()
    try:
        text = _decimal.g12_rows(rows, tails)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 0.33 MB measured, and 0.41 MB for the separate "%.12g" writer the shared kernel
    # replaced: one 1,024-row block's cells, masks and text at a time
    assert peak - 2 * len(text) < 410_000


class TestReadRows:
    """_decimal.read_rows against float(), bit for bit, on CSV and profile rows."""

    @pytest.mark.parametrize("spell", [repr, "%.15g".__mod__, "%.16g".__mod__,
                                       "%.17g".__mod__, "%.20g".__mod__],
                             ids=["repr", "15", "16", "17", "20"])
    @pytest.mark.parametrize("sep", [",", " "])
    def test_matches_float(self, spell, sep):
        rng = np.random.default_rng(26)
        x = rng.uniform(0.0, 1.0, 100_000) * 10.0 ** rng.integers(-3, 4, 100_000)
        x = np.where(rng.random(len(x)) < 0.5, -x, x)
        tokens = [spell(v) for v in x.tolist()]
        assert any(len(t.lstrip("-").replace(".", "").lstrip("0")) >= 15 for t in tokens)
        body = "".join(f"{a}{sep}{b}\n" for a, b in zip(tokens[::2], tokens[1::2]))
        got = _decimal.read_rows(body, 0, sep, 2**16)
        want = np.array([float(t) for t in tokens])
        assert np.array_equal(got.T.ravel().view(np.int64), want.view(np.int64))

    def test_clinger_path_needs_no_float(self, monkeypatch):
        # up to 15 digits, d < 2**53 and k <= 22: one division, float() never called
        x = np.random.default_rng(27).uniform(-1e4, 1e4, 20_000)
        body = "".join("%.15g,%.11g\n" % tuple(ab) for ab in x.reshape(-1, 2).tolist())
        def parse(token):
            raise AssertionError(token)
        monkeypatch.setattr(_decimal, "float", parse, raising=False)
        got = _decimal.read_rows(body, 0, ",", 2**16)
        want = np.array([float(t) for t in body.replace("\n", ",").split(",")[:-1]])
        assert np.array_equal(got.T.ravel().view(np.int64), want.view(np.int64))


def sixteen_digit_tokens(seed, n):
    """(near, fives, ties): tokens of 16 digits d in [2**53, 10**16) and either sign.
    near and fives spell doubles x rounded to 16 digits, 0 to 15 of them after the
    point; near are those within 4 units of the 17th digit of x, fives 5 units from
    it.  ties are the odd integers d, halfway between two doubles."""
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 16, n)
    x = rng.uniform(2.0**53 + 4.0, 9.99e15, n) / 10.0**k
    near, fives = [], []
    for v, k, neg in zip(x.tolist(), k.tolist(), (rng.random(n) < 0.5).tolist()):
        d = ("%.15e" % v).partition("e")[0].replace(".", "")
        token = "-" * neg + d[:16 - k] + "." * (k > 0) + d[16 - k:]
        seventeenth = ("%.16e" % v)[17]  # "9.0071992547409935e+15"[17]: the digit after d
        (fives if seventeenth == "5" else near).append(token)
    ties = rng.integers(2**52, 5 * 10**15, n // 10) * 2 + 1
    ties = ["-" * (i % 2) + str(d) for i, d in enumerate(ties.tolist())]
    return near, fives, ["9007199254740993", "-9999999999999997"] + ties


def read_with_float_spied(tokens):
    """read_rows on tokens, two a row, and the tokens it passed to float()."""
    seen = []
    body = "".join(f"{a},{b}\n" for a, b in zip(tokens[::2], tokens[1::2]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_decimal, "float", lambda t: seen.append(t.decode()) or float(t),
                      raising=False)
        got = _decimal.read_rows(body, 0, ",", 2**16)
    want = np.array([float(t) for t in tokens])
    assert np.array_equal(got.T.ravel().view(np.int64), want.view(np.int64))
    return seen


def moved_one_ulp(direction, corrected=_decimal.corrected):
    """corrected with each candidate q moved one ulp toward direction(q) and given its
    true remainder, so that the certificate of read_decimals sees a wrong quotient."""
    def wrong(d, x, k):
        q = corrected(d, x, k)[0]
        q = np.nextafter(q, direction(q))
        return q, _decimal.remainder(d, q, k)
    return wrong


class TestSixteenDigits:
    """Tokens past Clinger's path: a quotient that passes the remainder test is kept."""

    def test_only_ties_reach_float(self):
        near, fives, ties = sixteen_digit_tokens(28, 20_000)
        assert len(near) > 10_000 and len(fives) > 500
        tokens = near + fives + ties
        np.random.default_rng(29).shuffle(tokens)
        ties = set(ties)
        assert read_with_float_spied(tokens) == [t for t in tokens if t in ties]

    @pytest.mark.parametrize("off", [0.0, np.inf, -np.inf], ids=["exact", "up", "down"])
    @pytest.mark.parametrize("digits", [17, 18, 19, 20])
    def test_powers_of_two_and_their_midpoints(self, digits, off, monkeypatch):
        # the gap below 2**m is half the one above: a q of 2**m, also one ulp off
        # the nearest double, is tested against the gap on the token's side
        powers = 2.0 ** np.arange(-20, 60)
        x = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
        x = np.concatenate([x, (powers + np.nextafter(powers, 0.0)) / 2,
                            (powers + np.nextafter(powers, np.inf)) / 2])
        tokens = [f"%.{digits}g" % v for v in x.tolist()]
        if off:
            monkeypatch.setattr(_decimal, "corrected", moved_one_ulp(lambda q: off))
        read_with_float_spied(tokens + [f"-{t}" for t in tokens])

    def test_quotients_one_ulp_off_are_never_kept(self, monkeypatch):
        # every token leaves Clinger's path, so every candidate is off and goes to float()
        near, fives, ties = sixteen_digit_tokens(30, 4_000)
        monkeypatch.setattr(_decimal, "corrected",
                            moved_one_ulp(lambda q: np.resize([np.inf, 0.0], len(q))))
        tokens = near + fives + ties
        assert read_with_float_spied(tokens) == tokens


# --- the SVG writer it replaced, kept verbatim as the oracle ----------------

def oracle_to_svg(self) -> str:
    """The page as SVG text, every number with 3 decimals and no "-0.000".

    The whole page is one template with a `%.3f` slot for every number
    (width and height, circles, polyline points, text x/y), filled by one
    `%` from _coordinates.  Literal text (the header, styles and text
    strings) enters the template through `lit`, which escapes its `%`;
    `xml` also escapes a text string's `&`, `<` and `>`.  Styles are
    attribute fragments and go in as given.
    The header is an XML comment, so its text never holds "--".
    """
    opts = " ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
    comment = re.sub("-(?=-)", "- ", f"{gr.TOOL_VERSION} | {opts}")
    head = [self.width, self.height] * 3
    for cx, cy, r, _ in self.circles:
        head += cx, cy, r
    lit = lambda text: text.replace("%", "%%")
    xml = lambda text: lit(text.replace("&", "&amp;").replace("<", "&lt;")
                           .replace(">", "&gt;"))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- {lit(comment)} -->",
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%.3f" height="%.3f" viewBox="0 0 %.3f %.3f">',
        '<rect width="%.3f" height="%.3f" fill="white"/>',
    ]
    lines += [f'<circle cx="%.3f" cy="%.3f" r="%.3f" {lit(style)}/>'
              for *_, style in self.circles]
    lines += [f'<{"polygon" if closed else "polyline"} points="'
              f'{("%.3f,%.3f " * len(pts))[:-1]}" {lit(style)}/>'
              for pts, style, closed in self.polylines]
    lines += [f'<text x="%.3f" y="%.3f" {lit(style)}>{xml(text)}</text>'
              for *_, text, style in self.texts]
    lines.append("</svg>\n")
    template = "\n".join(lines)
    tail = [v for x, y, _, _ in self.texts for v in (x, y)]
    return template % _coordinates(head, [pts for pts, _, _ in self.polylines], tail)


def _coordinates(head: list, arrays: list, tail: list) -> tuple:
    """The numbers of head, of the (n, 2) arrays and of tail, in page order.

    `.3f` rounds correctly, so exactly the values with |v| < 0.0005 (the
    double nearest 0.0005 lies above it) print as "0.000" or "-0.000";
    writing 0.0 for them gives "0.000" and leaves every other number as it is.
    """
    v = np.concatenate([head, np.concatenate(arrays).ravel() if arrays else [], tail])
    v[np.abs(v) < 0.0005] = 0.0
    return tuple(v.tolist())


def odd_page():
    """Empty polylines, a polygon, % in styles and texts, &<> in texts, and
    numbers at every edge of fixed3: ties, ±0.0005, -0.0, nan, ±inf, 1e6 and up."""
    rng = np.random.default_rng(20)
    values = [0.0, -0.0, 0.0625, -0.0625, 0.0005, -0.0005, math.nextafter(0.0005, 0.0),
              -math.nextafter(0.0005, 0.0), 999999.9995, -1e6, 1e300, math.nan,
              math.inf, -math.inf, 5e-324, 12040.0, -10000.0005]
    pts = np.array(values + rng.normal(0, 1e3, 41).tolist()).reshape(-1, 2)
    return gr.MapDocument(
        width=12040.0, height=-0.0004, metadata={"source": "a--b 50% %s", "size": 6000},
        circles=[(v, -v, 1.0, 'stroke-dasharray="50%"') for v in values],
        polylines=[(np.empty((0, 2)), "a", False), (pts, 'd="%s %%"', False),
                   (pts[:1], gr._COAST_STYLE, True), (np.empty((0, 2)), "", False),
                   (pts[::-1], "p", True)],
        texts=[(v, 2.0, "<5% & %s> -0.000", "s%") for v in values])


def map_page(mode, size, graticule):
    lines = gr.load_geojson(FIXTURE)
    return gr.render_map(lines, mode, graticule, size, source="fixture--%s.geojson")


PAGES = {
    "odd": odd_page,
    "blank": lambda: gr.MapDocument(width=10.0, height=10.0),
    "no lines": lambda: gr.render_map([], ProjectionMode.GGV, 15, 400),
    **{f"{mode.value} {size} {graticule}": lambda m=mode, s=size, g=graticule: map_page(m, s, g)
       for mode in ProjectionMode for size, graticule in ((100, 30), (400, 15), (6000, 90))},
    **{f"profile {size}": lambda size=size: gr.render_profile_plot(size)
       for size in (100, 400, 6000)},
}


class TestToSvg:
    @pytest.mark.parametrize("name", PAGES)
    def test_matches_the_one_percent_writer(self, name):
        doc = PAGES[name]()
        got = doc.to_svg()
        assert isinstance(got, str)
        assert got == oracle_to_svg(doc)

    def test_random_pages(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = rng.integers(0, 6, 3)
            scale = 10.0 ** rng.integers(-4, 8)
            page = lambda *shape: np.round(rng.normal(0, scale, shape), rng.integers(2, 6))
            doc = gr.MapDocument(
                width=float(page(1)[0]), height=float(page(1)[0]),
                circles=[(*page(3).tolist(), "c") for _ in range(k[0])],
                polylines=[(page(rng.integers(0, 50), 2), "p", bool(rng.integers(2)))
                           for _ in range(k[1])],
                texts=[(*page(2).tolist(), "t", "s") for _ in range(k[2])])
            assert doc.to_svg() == oracle_to_svg(doc)


def test_decimal_is_loaded_and_built_on_first_use(tmp_path):
    src = Path(gr.__file__).resolve().parents[1]
    # the digit table is built by both writers, a "%g" keep table by the profile writer only
    code = ("import sys, flatdisk.cli; print('flatdisk._decimal' in sys.modules); "
            "import flatdisk.variational; print('flatdisk._decimal' in sys.modules); "
            "from flatdisk import _decimal, geo_render, variational; "
            "built = lambda: print(_decimal.digit_groups.cache_info().currsize, "
            "_decimal.g_keep.cache_info().currsize); built(); "
            "geo_render.MapDocument(width=1.0, height=2.0).to_svg(); built(); "
            "variational.save_profile("
            "variational.RadialProfile([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]), sys.argv[1]); "
            "built()")
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path / "p.txt")], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.split() == ["False", "False", "0", "0", "1", "0", "1", "1"]
