import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fsiegel.errors import ParameterError
from fsiegel.field import FieldParams, epsilon_f, tau_f

from oracles import norm_table_by_scan, parse_scalar, pinv, smallest_nonresidue, sqrt_table_by_scan


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_eps_is_smallest_nonresidue(q):
    assert FieldParams(q).eps == smallest_nonresidue(q)


def test_make_fields_examples():
    assert FieldParams(3).eps == 2
    assert FieldParams(5).eps == 2


@pytest.mark.parametrize("q", [2, 1, 9, 15, 0, -3])
def test_make_fields_rejects_bad_q(q):
    with pytest.raises(ParameterError):
        FieldParams(q)


def test_conj_norm_trace_q3():
    fp = FieldParams(3)
    s = fp.s
    assert s.conj() == -s
    assert s.norm() == fp.one  # s^4 = (s^2)^2 = 4 = 1
    for x in fp.f_elements():
        assert x.conj() == x
        assert x.norm() == x * x


@pytest.mark.parametrize("q", [3, 5, 7])
def test_conj_is_frobenius(q):
    fp = FieldParams(q)
    for x in fp.elements():
        assert x.conj() == x**q


def test_sqrt_examples():
    fp = FieldParams(3)
    assert fp.sqrt(fp.one) in (fp.one, -fp.one)
    assert fp.sqrt(fp.e(-2)) == fp.one  # -2 = 1 mod 3
    assert fp.sqrt(fp.e(2)) in (fp.s, -fp.s)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_every_base_element_has_sqrt(q):
    fp = FieldParams(q)
    for a in fp.f_elements():
        t = fp.sqrt(a)
        assert t is not None and t * t == a


def test_sqrt_round_trip_everywhere():
    fp = FieldParams(7)
    squares = {(x * x) for x in fp.elements()}
    for x in fp.elements():
        t = fp.sqrt(x)
        if x in squares:
            assert t is not None and t * t == x
        else:
            assert t is None


def test_solve_norm_examples():
    fp = FieldParams(3)
    assert fp.solve_norm(1) == fp.one
    assert fp.solve_norm(2) == fp.one + fp.s
    fp5 = FieldParams(5)
    assert fp5.solve_norm(3).norm() == fp5.e(3)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_norm_fibers_have_size_q_plus_one(q):
    fp = FieldParams(q)
    for a in range(1, q):
        target = fp.e(a)
        assert fp.solve_norm(a).norm() == target
        fiber = [x for x in fp.units() if x.norm() == target]
        assert len(fiber) == q + 1


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 23, 29, 31])
def test_roots_and_norm_preimages_are_the_first_in_scan_order(q):
    """Both residues of q mod 4, so both Cayley branches: the log-table root and the early-exit
    norm scan return what the full dict scans return, for every x in E and every a in F*."""
    fp = FieldParams(q)
    roots, preimages = sqrt_table_by_scan(fp), norm_table_by_scan(fp)
    elems = list(fp.elements())
    assert [fp.sqrt(x) for x in elems] == [roots.get((x.re, x.im)) for x in elems]
    assert [fp.solve_norm(a) for a in range(1, q)] == [preimages[a] for a in range(1, q)]


def test_solve_norm_rejects_zero():
    fp = FieldParams(3)
    with pytest.raises(ParameterError):
        fp.solve_norm(0)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_hilbert90_round_trip_all_norm_one(q):
    """Hilbert 90 in E's arithmetic: d / conj(d) over the units d is exactly the norm-one circle."""
    fp = FieldParams(q)
    circle = {u for u in fp.units() if u.norm() == fp.one}
    assert len(circle) == q + 1
    assert {d / d.conj() for d in fp.units()} == circle


def test_epsilon_tau_examples():
    assert epsilon_f(5) == 1
    assert epsilon_f(3) == -1 and tau_f(3) == 1
    assert epsilon_f(7) == -1 and tau_f(7) == -1


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_epsilon_tau_against_scan(q):
    squares = {(a * a) % q for a in range(1, q)}
    assert epsilon_f(q) == (1 if (q - 1) % q in squares else -1)
    assert tau_f(q) == (1 if (q - 2) % q in squares else -1)


# -- algebraic properties ----------------------------------------------------

_coords = st.integers(min_value=0, max_value=6)


def _elem(fp, re, im):
    return fp.e(re, im)


@given(_coords, _coords, _coords, _coords)
def test_conj_and_norm_multiplicative(a, b, c, d):
    fp = FieldParams(7)
    x, y = _elem(fp, a, b), _elem(fp, c, d)
    assert (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x
    assert (x * y).norm() == x.norm() * y.norm()


@given(_coords, _coords)
def test_rational_iff_conj_fixed(a, b):
    fp = FieldParams(7)
    x = _elem(fp, a, b)
    assert (x.conj() == x) == x.is_rational
    assert x.norm().is_rational


@given(_coords, _coords)
def test_inverse_law(a, b):
    fp = FieldParams(7)
    x = _elem(fp, a, b)
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == fp.one


@pytest.mark.parametrize("q", [3, 5, 7, 23])
def test_inverse_matches_the_pair_oracle_on_every_unit(q):
    fp = FieldParams(q)
    for x in fp.units():
        inv = x.inverse()
        assert (inv.re, inv.im) == pinv(q, fp.eps, (x.re, x.im))
    with pytest.raises(ZeroDivisionError):
        fp.zero.inverse()


def test_norm_surjective_on_units():
    fp = FieldParams(7)
    norms = {x.norm().re for x in fp.units()}
    assert norms == set(range(1, 7))


def test_scalar_text_round_trip():
    fp = FieldParams(5)
    for x in fp.elements():
        assert parse_scalar(fp, x.encode()) == x
    assert fp.e(1, 2).encode() == "1+2*s"
    assert fp.e(4).encode() == "4"


# -- the code tables of the stacked elimination -------------------------------

@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 23])
def test_code_tables_match_scalar_arithmetic_on_every_pair(q):
    fp = FieldParams(q)
    t = fp.code_tables()
    big = q * q - 1
    elems = list(fp.elements())

    def code(x):
        return x.re * t.radix + x.im

    codes = np.array([code(x) for x in elems])
    logs = t.log[codes]
    assert (t.exp[logs[:, None] + logs[None, :]] == [[code(x * y) for y in elems] for x in elems]).all()
    assert (t.sub[codes[:, None] + t.off - codes[None, :]] == [[code(x - y) for y in elems] for x in elems]).all()
    assert t.inv[codes].tolist() == [code(x.inverse()) if not x.is_zero else 0 for x in elems]
    assert t.neg_one == code(-fp.one)
    assert t.exp[logs + t.log[t.neg_one]].tolist() == [code(-x) for x in elems]
    # exp lists each unit once, then again, then zeros; the log of 0 is 2N
    assert sorted(t.exp[:big].tolist()) == sorted(code(x) for x in fp.units())
    assert (t.exp[big : 2 * big] == t.exp[:big]).all() and not t.exp[2 * big :].any()
    assert len(t.exp) == 4 * big + 1 and t.log[0] == 2 * big
    assert t.exp[1] == code(fp.primitive())
    assert all(a.dtype == np.int32 for a in (t.log, t.exp, t.sub, t.inv))


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_building_the_code_tables_peaks_below_twice_their_size():
    """At q = 1031 the tables take 48.6 MB; their build may raise a fresh process's peak by less than twice that."""
    child = (
        "from fsiegel.field import FieldParams\n"
        "def peak():\n"
        "    return next(int(line.split()[1]) * 1024 for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "fp = FieldParams(1031)\n"
        "before = peak()\n"
        "tables = fp.code_tables()\n"
        "print(peak() - before, sum(a.nbytes for a in (tables.log, tables.exp, tables.sub, tables.inv)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rise, size = map(int, proc.stdout.split())
    assert rise < 2 * size, (rise, size)
