import numpy as np
import pytest
from hypothesis import given, strategies as st

from fsiegel.errors import ParameterError
from fsiegel.field import epsilon_f, hilbert90, make_fields, tau_f

from oracles import pinv, smallest_nonresidue


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_eps_is_smallest_nonresidue(q):
    assert make_fields(q).eps == smallest_nonresidue(q)


def test_make_fields_examples():
    assert make_fields(3).eps == 2
    assert make_fields(5).eps == 2


@pytest.mark.parametrize("q", [2, 1, 9, 15, 0, -3])
def test_make_fields_rejects_bad_q(q):
    with pytest.raises(ParameterError):
        make_fields(q)


def test_conj_norm_trace_q3():
    fp = make_fields(3)
    s = fp.s
    assert s.conj() == -s
    assert s.norm() == fp.one  # s^4 = (s^2)^2 = 4 = 1
    for x in fp.f_elements():
        assert x.conj() == x
        assert x.norm() == x * x
        assert x.trace() == 2 * x


@pytest.mark.parametrize("q", [3, 5, 7])
def test_conj_is_frobenius(q):
    fp = make_fields(q)
    for x in fp.elements():
        assert x.conj() == x**q


def test_sqrt_examples():
    fp = make_fields(3)
    assert fp.sqrt(fp.one) in (fp.one, -fp.one)
    assert fp.sqrt(fp.e(-2)) == fp.one  # -2 = 1 mod 3
    assert fp.sqrt(fp.e(2)) in (fp.s, -fp.s)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_every_base_element_has_sqrt(q):
    fp = make_fields(q)
    for a in fp.f_elements():
        t = fp.sqrt(a)
        assert t is not None and t * t == a


def test_sqrt_round_trip_everywhere():
    fp = make_fields(7)
    squares = {(x * x) for x in fp.elements()}
    for x in fp.elements():
        t = fp.sqrt(x)
        if x in squares:
            assert t is not None and t * t == x
        else:
            assert t is None


def test_solve_norm_examples():
    fp = make_fields(3)
    assert fp.solve_norm(1) == fp.one
    assert fp.solve_norm(2) == fp.one + fp.s
    fp5 = make_fields(5)
    assert fp5.solve_norm(3).norm() == fp5.e(3)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_norm_fibers_have_size_q_plus_one(q):
    fp = make_fields(q)
    for a in range(1, q):
        target = fp.e(a)
        assert fp.solve_norm(a).norm() == target
        fiber = [x for x in fp.units() if x.norm() == target]
        assert len(fiber) == q + 1


def test_solve_norm_rejects_zero():
    fp = make_fields(3)
    with pytest.raises(ParameterError):
        fp.solve_norm(0)


def test_hilbert90_examples():
    fp = make_fields(3)
    assert hilbert90(fp.one) == fp.one
    assert hilbert90(-fp.one) == fp.s
    assert hilbert90(fp.s) == fp.one + fp.s  # (1+s)/(1-s) = s


def test_hilbert90_rejects_bad_norm():
    fp5 = make_fields(5)
    assert fp5.e(2).norm() != fp5.one
    with pytest.raises(ParameterError):
        hilbert90(fp5.e(2))


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_hilbert90_round_trip_all_norm_one(q):
    fp = make_fields(q)
    circle = [u for u in fp.units() if u.norm() == fp.one]
    assert len(circle) == q + 1
    for u in circle:
        d = hilbert90(u)
        assert not d.is_zero
        assert d / d.conj() == u


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
    fp = make_fields(7)
    x, y = _elem(fp, a, b), _elem(fp, c, d)
    assert (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x
    assert (x * y).norm() == x.norm() * y.norm()


@given(_coords, _coords)
def test_rational_iff_conj_fixed(a, b):
    fp = make_fields(7)
    x = _elem(fp, a, b)
    assert (x.conj() == x) == x.is_rational
    assert x.trace().is_rational and x.norm().is_rational


@given(_coords, _coords)
def test_inverse_law(a, b):
    fp = make_fields(7)
    x = _elem(fp, a, b)
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == fp.one


@pytest.mark.parametrize("q", [3, 5, 7, 23])
def test_inverse_matches_the_pair_oracle_on_every_unit(q):
    fp = make_fields(q)
    for x in fp.units():
        inv = x.inverse()
        assert (inv.re, inv.im) == pinv(q, fp.eps, (x.re, x.im))
    with pytest.raises(ZeroDivisionError):
        fp.zero.inverse()


def test_norm_surjective_on_units():
    fp = make_fields(7)
    norms = {x.norm().re for x in fp.units()}
    assert norms == set(range(1, 7))


def test_scalar_text_round_trip():
    fp = make_fields(5)
    for x in fp.elements():
        assert fp.parse_scalar(x.encode()) == x
    assert fp.e(1, 2).encode() == "1+2*s"
    assert fp.e(4).encode() == "4"


# -- the code tables of the stacked elimination -------------------------------

@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 23])
def test_code_tables_match_scalar_arithmetic_on_every_pair(q):
    fp = make_fields(q)
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
