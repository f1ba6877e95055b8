import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwbpf.design import simulate
from mwbpf.rfsim import FrequencySweep, SParamResult, sweep_pcl
from mwbpf.touchstone import (
    csv_text,
    read_touchstone,
    touchstone_text,
    write_csv,
    write_touchstone,
)


@pytest.fixture
def identity_result():
    return SParamResult(
        frequencies=(1.0,),
        s=[[[0.0, 1.0], [1.0, 0.0]]],
        z0=50.0,
    )


@pytest.fixture
def sweep_result(fr4_design):
    return sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(2.0, 3.0, 101))


class TestTouchstoneWriter:
    def test_identity_fixture_line(self, identity_result):
        text = touchstone_text(identity_result)
        lines = [l for l in text.splitlines() if not l.startswith(("!", "#"))]
        assert lines == ["1.000000000 0 0 1.000000000 0 1.000000000 0 0 0"]

    def test_header_reflects_reference_impedance(self, identity_result):
        assert "# GHz S RI R 50" in touchstone_text(identity_result)

    def test_comments_prefixed(self, identity_result):
        text = touchstone_text(identity_result, comments=("hello", "world"))
        assert text.splitlines()[0] == "! hello"
        assert text.splitlines()[1] == "! world"

    def test_byte_stability(self, sweep_result, tmp_path):
        a = tmp_path / "a.s2p"
        b = tmp_path / "b.s2p"
        write_touchstone(sweep_result, a, comments=("run",))
        write_touchstone(sweep_result, b, comments=("run",))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_result_rejected(self):
        empty = SParamResult(frequencies=(), s=np.empty((0, 2, 2)), z0=50.0)
        with pytest.raises(ValueError):
            touchstone_text(empty)


class TestTouchstoneRoundTrip:
    def test_round_trip_error_bound(self, sweep_result, tmp_path):
        path = tmp_path / "rt.s2p"
        write_touchstone(sweep_result, path)
        back = read_touchstone(path)
        assert back.z0 == sweep_result.z0
        assert np.abs(sweep_result.frequencies - back.frequencies).max() <= 1e-9
        assert np.abs(sweep_result.s - back.s).max() <= 1e-9

    def test_parses_magnitude_angle_format(self, tmp_path):
        path = tmp_path / "ma.s2p"
        path.write_text(
            "! comment\n# MHz S MA R 75\n"
            "2500 0.5 90 0.8 0 0.8 0 0.5 -90\n",
            encoding="ascii",
        )
        r = read_touchstone(path)
        assert r.z0 == 75.0
        assert r.frequencies[0] == pytest.approx(2.5)
        assert r.s[0, 0, 0] == pytest.approx(0.5j)
        assert r.s[0, 1, 1] == pytest.approx(-0.5j)

    def test_parses_db_format(self, tmp_path):
        path = tmp_path / "db.s2p"
        path.write_text("# GHz S DB R 50\n2.5 -6.0205999 0 0 0 0 0 -6.0205999 0\n",
                        encoding="ascii")
        r = read_touchstone(path)
        assert abs(r.s[0, 0, 0]) == pytest.approx(0.5, rel=1e-6)

    def test_rejects_non_s_files(self, tmp_path):
        path = tmp_path / "z.s2p"
        path.write_text("# GHz Z RI R 50\n1 0 0 0 0 0 0 0 0\n", encoding="ascii")
        with pytest.raises(ValueError):
            read_touchstone(path)


class TestCsv:
    def test_header_columns(self, identity_result):
        assert csv_text(identity_result).splitlines()[0] == (
            "f_GHz,S11_dB,S11_deg,S21_dB,S21_deg"
        )

    def test_values_match_result(self, sweep_result, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(sweep_result, path)
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == len(sweep_result.frequencies)
        i = 50
        f, s11_db, s11_deg, s21_db, s21_deg = (float(t) for t in rows[i].split(","))
        s = sweep_result.s[i]
        assert f == pytest.approx(sweep_result.frequencies[i], abs=1e-9)
        assert s21_db == pytest.approx(20 * math.log10(abs(s[1, 0])), abs=1e-5)
        assert s11_db == pytest.approx(20 * math.log10(abs(s[0, 0])), abs=1e-5)

    def test_byte_stability(self, sweep_result):
        assert csv_text(sweep_result) == csv_text(sweep_result)

    def test_phase_that_underflows(self):
        # cmath.phase raises OverflowError here; the phase is -2.6e-327 rad
        s11 = 1907.3486328125 - 5e-324j
        result = SParamResult((1.0,), [[[s11, 0.5], [0.5, 0.0]]], 50.0)
        row = csv_text(result).splitlines()[1].split(",")
        assert row[2] == "-0.000000"


# --- the vectorized emitters against the per-field ones ----------------------

def _oracle_fmt(x):
    if x == 0.0:
        return "0"
    return f"{x:.9f}"


def oracle_touchstone_text(result, comments=()):
    """The per-field Touchstone emitter, one f-string per field: the reference
    the vectorized ``touchstone_text`` must match byte for byte."""
    lines = [f"! {c}" for c in comments]
    lines.append(f"# GHz S RI R {result.z0:g}")
    lines.append("! f_GHz Re(S11) Im(S11) Re(S21) Im(S21) Re(S12) Im(S12) Re(S22) Im(S22)")
    ri = result.s.reshape(-1, 4).take([0, 2, 1, 3], axis=1).view(float)
    for f, row in zip(result.frequencies.tolist(), ri.tolist()):
        lines.append(" ".join(map(_oracle_fmt, [f, *row])))
    return "\n".join(lines) + "\n"


def oracle_csv_text(result):
    """The per-field CSV emitter (``math``/``cmath`` per value): the reference
    the vectorized ``csv_text`` must match byte for byte."""
    lines = ["f_GHz,S11_dB,S11_deg,S21_dB,S21_deg"]
    for f, (s11, s21) in zip(result.frequencies.tolist(), result.s[:, :, 0].tolist()):
        s11_db = 20.0 * math.log10(abs(s11)) if s11 != 0 else -300.0
        s21_db = 20.0 * math.log10(abs(s21)) if s21 != 0 else -300.0
        lines.append(",".join((
            _oracle_fmt(f),
            f"{s11_db:.6f}",
            f"{math.degrees(cmath.phase(s11)):.6f}",
            f"{s21_db:.6f}",
            f"{math.degrees(cmath.phase(s21)):.6f}",
        )))
    return "\n".join(lines) + "\n"


class TestEmittersMatchPerFieldOracle:
    # 0.5-6 GHz on the ideal designs holds rows near 2 f0 where |S11| is 1.0
    # to the double while numpy's complex abs gives 0.9999999999999999: the
    # CSV S11 dB must stay "0.000000" there, not "-0.000000"
    @pytest.mark.parametrize("span", [(1.7, 3.3), (2.0, 3.0), (0.5, 6.0)])
    @pytest.mark.parametrize("board", ["FR4", "RO3003"])
    @pytest.mark.parametrize("mode, lossy", [("ideal", False), ("physical", True), ("ml", True)])
    def test_sweep(self, mode, lossy, board, span, registry, fr4_design, ro3003_design):
        doc = {"FR4": fr4_design, "RO3003": ro3003_design}[board]
        result = simulate(doc, registry.get(board), mode, FrequencySweep(*span, 1001), lossy=lossy)
        comments = ("run", f"{board} {mode}")
        assert touchstone_text(result, comments) == oracle_touchstone_text(result, comments)
        assert csv_text(result) == oracle_csv_text(result)

    def test_csv_fields_next_to_a_tie(self):
        # dB and degree fields a last bit from a 6-decimal tie, where on x86-64
        # (numpy 2.4, AVX-512) np.log10 / np.arctan2 land on the other side of
        # it than math.log10 / cmath.phase: with no tie window the first
        # row's S11 dB and S21 degrees, and the S11 dB of the others, flip
        s11 = [0.5459220131887212 + 0.3151882212710507j, 0.13665030541907072 + 0.07889509061854508j,
               0.021403786322738743 + 0.012357481795110448j, 0.3427445886075249 + 0.19788368049584198j]
        s21 = [0.21858299519301158 + 0.4496904204143688j, 0.49877715004237827 + 0.03494788399320978j,
               0.4987683509284758 + 0.03507323925856847j, 0.49507165293835464 + 0.0700289829776595j]
        s = np.zeros((4, 2, 2), complex)
        s[:, 0, 0], s[:, 1, 0] = s11, s21
        result = SParamResult((1.0, 2.0, 3.0, 4.0), s, 50.0)
        assert csv_text(result) == oracle_csv_text(result)


TIE = 1953125 / 1024  # 1907.3486328125: halfway between two 9-decimal values
# values the vectorized path must hand to the per-field code or get right
# at its edges: zeros and tiny negatives, 9-decimal ties and their
# neighbours, the 999 integer-part limit, 2^49 / 1e9 and beyond, non-finite
SPECIAL = (
    0.0, -0.0, -5e-324, -1e-300, -1e-12, -4.99999999e-10, 5e-10, -5e-10,
    1 / 1024, -3 / 2048, 0.5e-6, -0.5e-6,
    TIE, np.nextafter(TIE, 0), np.nextafter(TIE, 2e3), -TIE,
    998.9999999996, 999.0, 999.9999999996, 2.0**49 / 1e9, 1e6, 1e300,
    math.inf, -math.inf, math.nan,
)
MAGNITUDE = st.floats(-12, 3).map(lambda e: 10.0**e)
REGULAR = st.builds(lambda m, neg: -m if neg else m, MAGNITUDE, st.booleans())
# k / 1024 has ten decimals, so an odd k is a 9-decimal tie
TIES = st.builds(
    lambda k, step: float(np.nextafter(k / 1024, math.copysign(math.inf, step)) if step else k / 1024),
    st.integers(-10**6, 10**6), st.sampled_from([-1, 0, 1]),
)
VALUE = st.one_of(REGULAR, TIES, st.sampled_from(SPECIAL))
# half the rows plain, for the vectorized path; the rest mixed, with S = 0
ROW = st.one_of(
    st.lists(st.builds(complex, REGULAR, REGULAR), min_size=4, max_size=4),
    st.lists(st.one_of(st.builds(complex, VALUE, VALUE), st.just(0j)), min_size=4, max_size=4),
)


@st.composite
def results(draw):
    freqs = draw(st.lists(st.one_of(REGULAR, VALUE.filter(lambda f: not math.isnan(f))),
                          min_size=1, max_size=12))
    freqs = sorted(set(freqs))
    s = draw(st.lists(ROW, min_size=len(freqs), max_size=len(freqs)))
    return SParamResult(freqs, np.array(s, complex).reshape(-1, 2, 2), 50.0)


class TestEmitterProperties:
    @settings(max_examples=200, deadline=None)
    @given(results())
    def test_random_rows_match_oracle(self, result):
        assert touchstone_text(result) == oracle_touchstone_text(result)
        text = csv_text(result)  # never raises
        try:
            expected = oracle_csv_text(result)
        except OverflowError:  # cmath.phase raises where atan2 underflows: no text to match
            return
        assert text == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_within_rounding(self, tmp_path_factory, data):
        # finite entries on a frequency grid that 9 decimals keep increasing
        entry = st.builds(complex, st.one_of(REGULAR, TIES), st.one_of(REGULAR, TIES))
        steps = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=12))
        freqs = np.cumsum(steps) * 1e-6
        s = data.draw(st.lists(entry, min_size=4 * len(freqs), max_size=4 * len(freqs)))
        result = SParamResult(freqs, np.array(s, complex).reshape(-1, 2, 2), 50.0)
        path = tmp_path_factory.getbasetemp() / "round_trip.s2p"
        path.write_text(touchstone_text(result), encoding="ascii")
        back = read_touchstone(path)
        # half a unit of the 9th decimal, plus the parse and product rounding
        for a, b in ((result.frequencies, back.frequencies), (result.s.real, back.s.real),
                     (result.s.imag, back.s.imag)):
            assert (np.abs(a - b) <= 0.5e-9 + 4 * np.spacing(np.abs(a))).all()
