import math

import numpy as np
import pytest

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
