"""Wright's generalized Bessel function phi(rho, beta; z) = sum z^n/(n! Gamma(beta - rho n)),
its moments, the real combinations W_j, and their large-argument expansions.

Three evaluation routes for the real parts:

* direct series summation -- the imaginary part of phi on the relevant ray
  grows like exp(c w^{k+1}) while the real part stays O(1), so direct summation
  needs guard bits proportional to w^{k+1}. The factors 1/Gamma(beta - rho n),
  rho = p/q, come from one chain per residue of n mod q: 1/Gamma(x - p) =
  (x-1)...(x-p)/Gamma(x) for p > 0 and 1/Gamma(x + |p|) =
  1/(x (x+1)...(x+|p|-1) Gamma(x)) for p <= 0, an exact rational factor per step
  (_chain_factor); `reciprocal_gamma` runs only where a chain starts or restarts
  after an exact zero (a pole). `wright_phi`/`wright_phi_moment` sum in mpc,
  and per term for a rho whose numerator or denominator exceeds 64, where chains
  would cost more. `W_j_num`'s series route sums on the ray, where
  z^{k+1} = (-1)^k w^{k+1} is an exact rational: each residue chain of the whole
  term is a fixed phase times a real chain with an exact integer step ratio, run
  over Python integers in fixed point (_Wj_series_core), no chain restarting: its
  starts are never zero and its r = 0 chain is 0 from n = k+1 on; the mpc loop is
  its independent reference;

* an analytically reflected integral (used by `W_j_num` for large w): with
  S_j(W) = sum_{m>=1} m^j Gamma(rho m) W^m / m! one has, for z > 0,

      Re phi_j(rho, 1; z e^{i pi rho}) = [j = 0] + Im S_j(z e^{2 pi i rho}) / (2 pi),

  and S_j(W) = int_0^{e^{i psi} inf} B_j(W u^rho) e^{W u^rho} e^{-u} du / u
  (B_j = Bell polynomial, B_0-case uses expm1), where the ray angle psi is
  chosen so the integrand decays without large intermediate values. The huge
  purely-imaginary component of phi cancels in the reflection, so quadrature
  at ordinary precision suffices for any w. With rho = k/(k+1) the substitution
  u = e^{i psi} v^{k+1} turns the integral into

      (k+1) int_0^inf F(c v^k) exp(-e^{i psi} v^{k+1}) dv / v,   c = W e^{i psi rho},

  F(x) = expm1(x) or B_j(x) e^x: no complex power per node, and an integrand
  analytic at v = 0 (it vanishes there like v^{k-1}). On the ray
  |F(x) e^{-u}| <= M_j e^{-m v^{k+1}}, with m = min(cos psi, -cos(2 pi rho + rho psi))
  the decay rate of the ray and M_j = sup_y B_j(y) e^{-m y} (M_0 = 2), so the
  integral is cut at the V where the tail bound M_j e^{-m V^{k+1}}/(m V^{k+1})
  falls below 2^-(working bits + 32);

* the large-w expansion [j = 0](k+1)/k + sum_l (-l(k+1)/k)^j b_k(l) w^{-l(k+1)/k}
  (`Wj_expansion` at a fixed L; `W_j_num`'s asymptotic route sums it to the
  working precision, which its smallest term, about exp(-peak), allows where the
  series' cancellation is deep). Series and quadrature pin each other below
  `W_j_num`'s first switch, expansion and quadrature above it.

rho and beta are read by hires.exact (an int, str or Fraction as it is, a float or
an mpf at its exact binary value, never rounded to a nearby simple fraction), so that
the poles of Gamma(beta - rho n) (terms skipped exactly) are detected symbolically,
never by floating comparison. The sizes of w and |z| and the checks w, z > 0 read
them the same way; the sums take them through hires.frac_to_mpf.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import to_fixed

from .errors import InvalidRho, NonConvergent, TermCapExceeded, check_at_least, check_k
from .hires import LN2, EvalConfig, _sum_until, check_positive, evaluate, exact, frac_to_mpf


@dataclass(frozen=True)
class WrightParams:
    """Parameters (rho, beta) of phi; rho < 1 is the convergent regime used here."""

    rho: Fraction
    beta: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "rho", exact(self.rho))
        object.__setattr__(self, "beta", exact(self.beta))
        if not self.rho < 1:
            raise NonConvergent(f"wright series needs rho < 1, got rho={self.rho}")


def _sinpi_frac(x: Fraction):
    """sin(pi x) for exact rational x, evaluated on the exactly reduced
    fractional part, so arguments near an integer lose no accuracy."""
    flo = x.numerator // x.denominator
    sv = mp.sinpi(frac_to_mpf(x - flo))
    return sv if flo % 2 == 0 else -sv


def reciprocal_gamma(x: Fraction):
    """1/Gamma(x) for exact rational x: exact zero at non-positive integers,
    reflection through Gamma(1-x) sin(pi x)/pi for x < 1/2."""
    x = exact(x)
    if x.denominator == 1 and x <= 0:
        return mp.mpf(0)
    if x >= Fraction(1, 2):
        return mp.rgamma(frac_to_mpf(x))
    return mp.gamma(frac_to_mpf(1 - x)) * _sinpi_frac(x) / mp.pi


_CHAIN_MAX = 64


def _chain_factor(xd: int, d: int, p: int) -> tuple[int, int]:
    """(num, den) with num/den = Gamma(x)/Gamma(x - p) for x = xd/d: the exact
    factor (x-1)...(x-p) = prod (xd - i d)/d^p for p > 0, and
    1/(x (x+1)...(x+|p|-1)) = d^|p|/prod (xd + i d) for p <= 0."""
    if p > 0:
        return math.prod(range(xd - d, xd - p * d - 1, -d)), d ** p
    return d ** -p, math.prod(range(xd, xd - p * d, d))


def _rgamma_stream(rho: Fraction, beta: Fraction):
    """Yield 1/Gamma(beta - rho n) for n = 0, 1, 2, ... at the ambient precision.

    With rho = p/q, terms n and n + q lie on one chain, their arguments x and
    x - p linked by the exact factor (x-1)...(x-p) (p > 0) or
    1/(x (x+1)...(x+|p|-1)) (p <= 0), taken as integers over the common
    denominator d of the arguments. A chain calls reciprocal_gamma where it
    starts and where its value is exactly zero (a pole).

    A step multiplies |p| integers and there are q chains, so chains run only
    for |p|, q <= _CHAIN_MAX; any other rho (a float read at its exact binary
    value has q = 2^55, say) takes reciprocal_gamma per term."""
    p, q = rho.numerator, rho.denominator
    if abs(p) > _CHAIN_MAX or q > _CHAIN_MAX:
        for n in itertools.count():
            yield reciprocal_gamma(beta - rho * n)
    d = math.lcm(q, beta.denominator)
    beta_d, rho_d = int(beta * d), int(rho * d)
    chains = [None] * q
    for n in itertools.count():
        r = n % q
        val = chains[r]
        if val is None or val == 0:
            val = reciprocal_gamma(Fraction(beta_d - rho_d * n, d))
        else:
            # the chain's previous argument, times d
            num, den = _chain_factor(beta_d - rho_d * (n - q), d, p)
            val = val * num / den
        chains[r] = val
        yield val


def _log(x: Fraction) -> float:
    """Natural log of x > 0 from its numerator and denominator, past the float range."""
    return math.log(x.numerator) - math.log(x.denominator)


def _phi_log_peak(rho: Fraction, zabs) -> float:
    """Natural log of the largest term of the phi series, about
    (1-rho) |rho|^{rho/(1-rho)} |z|^{1/(1-rho)}: math.inf where log|z| of the exact
    |z| puts it past the float range, the float power below that."""
    r = float(rho)
    f = exact(zabs)
    if f and _log(f) > 700 * (1 - r):
        return math.inf
    return (1 - r) * (abs(r) ** (r / (1 - r))) * float(f) ** (1.0 / (1 - r))


def _phi_cancel_bits(rho: Fraction, zabs) -> int:
    """Guard bits for direct summation: the max term is about exp(peak)
    (_phi_log_peak) times the real part; at most 2^62, beyond any precision.
    |z| is compared with 1 exactly, so any |z| past the float range is accepted.

    For rho <= 0, phi is an entire function of order 1/(1+|rho|) that grows like
    exp(peak) along one direction and can be as small as exp(-peak) along
    another (e^z/Gamma(beta) at rho = 0), so the guard covers twice the peak."""
    if exact(zabs) <= 1:
        return 16
    peak = _phi_log_peak(rho, zabs)
    if rho <= 0:
        peak *= 2
    return int(min(peak * 1.4427, 2.0 ** 62)) + 16


def _phi_term_cap(rho: Fraction, zabs, cfg: EvalConfig) -> int:
    """The most terms a phi series at |z| = zabs may take at the ambient precision;
    its terms peak near n = (|rho|^rho |z|)^{1/(1-rho)} = _phi_log_peak/(1-rho)."""
    n_peak = _phi_log_peak(rho, zabs) / (1 - float(rho))
    return int(min(cfg.max_terms, 4 * n_peak + 0.8 * mp.mp.prec / (1 - float(rho)) + 256))


def _phi_series_core(params: WrightParams, z, j: int, cfg: EvalConfig):
    """Direct summation of phi_j at ambient precision, until 10 terms in a row past
    n = 8 fall below an absolute cut: on the oscillatory rays both the largest term
    and the accumulated sum peak exponentially above the O(1) real part, so any
    magnitude-relative cut would abandon the tail too early."""
    rho, beta = params.rho, params.beta
    zc = frac_to_mpf(z)
    zabs = abs(zc)
    n_cap = _phi_term_cap(rho, zabs, cfg)
    cut = cfg.threshold
    if rho <= 0:
        # the sum may be as small as exp(-peak): cut the tail relative to that
        cut = cut * mp.exp(-_phi_log_peak(rho, zabs))
    zero = mp.mpc(0) if isinstance(zc, mp.mpc) else mp.mpf(0)

    def terms():
        power = mp.mpf(1)
        for n, rg in zip(range(n_cap + 1), _rgamma_stream(rho, beta)):
            if n:
                power = power * zc / n
            if rg:
                t = (n ** j) * power * rg if j else power * rg
                yield n, t, abs(t)
            else:
                # skipped pole term beta - rho n = -N: bound its neighbors' size
                # through the reflection |1/Gamma(beta - rho n)| <= N!/pi; the bound
                # only feeds the stop rule, so N! needs no more than 53 bits
                with mp.workprec(53):
                    fac = mp.factorial(int(rho * n - beta))
                yield n, zero, abs(power) * fac / mp.pi

    tot, _ = _sum_until(terms(), 10, lambda n, size, _largest, _total: n > 8 and size < cut,
                        f"wright series needed more than {n_cap} terms")
    return tot


def wright_phi(params: WrightParams, z, cfg: EvalConfig):
    """phi(rho, beta; z) by direct series summation with symbolic pole skipping.

    The tail is cut at an absolute 2^-(p+32), so the precision contract holds on
    the scale max(1, |phi|): a phi far below 1 may have no correct digit."""
    return wright_phi_moment(0, params, z, cfg)


def wright_phi_moment(j: int, params: WrightParams, z, cfg: EvalConfig):
    """phi_j(rho, beta; z) = sum_m m^j z^m/(m! Gamma(beta - rho m)); phi_0 = phi.
    Past 2^22 guard bits, NonConvergent (evaluate); W_j_num gives the ray's real part."""
    check_at_least(j, 0, "moment order")
    guard = _phi_cancel_bits(params.rho, abs(frac_to_mpf(z))) + 64
    return evaluate(cfg, guard, _phi_series_core, params, z, j, cfg)


# ---------------------------------------------------------------------------
# coefficients and expansions
# ---------------------------------------------------------------------------

def b_k_coeff(k: int, j: int, cfg: EvalConfig):
    """b_k(j) = (k+1)/(k pi j!) (-1)^{j+1} sin(pi j(k-1)/k) Gamma(j(k+1)/k);
    exactly zero when k | j (the sine argument is an integer multiple of pi)."""
    check_k(k)
    check_at_least(j, 1, "j")
    if j % k == 0:
        return mp.mpf(0)

    def core():
        sv = _sinpi_frac(Fraction(j * (k - 1), k))
        sgn = -1 if j % 2 == 0 else 1
        return mp.mpf(k + 1) / (k * mp.pi * mp.factorial(j)) * sgn * sv \
            * mp.gamma(frac_to_mpf(Fraction(j * (k + 1), k)))
    return evaluate(cfg, 32, core)


def re_phi_expansion(rho, z, L: int, cfg: EvalConfig):
    """Truncated large-z expansion of Re phi(rho, 1; z e^{i pi rho}) for z > 0:

        1/(2 rho) + (1/(2 pi rho)) sum_{l=1}^{L-1} ((-1)^{l+1}/l!)
                    Gamma(l/rho) z^{-l/rho} sin(pi l (2 rho - 1)/rho),

    remainder O(z^{-L/rho}) (reported by order, not added to the value)."""
    rho = exact(rho)
    if not (Fraction(1, 2) <= rho < 1):
        raise InvalidRho(f"expansion valid for 1/2 <= rho < 1, got {rho}")
    check_at_least(L, 1, "L")
    check_positive(z, "z")

    def core():
        zv = frac_to_mpf(z)
        tot = 1 / (2 * frac_to_mpf(rho))
        for ell in range(1, L):
            sarg = Fraction(ell) * (2 * rho - 1) / rho
            if sarg.denominator == 1:
                continue
            sv = _sinpi_frac(sarg)
            sgn = -1 if ell % 2 == 0 else 1
            term = sgn / mp.factorial(ell) * mp.gamma(frac_to_mpf(Fraction(ell) / rho)) \
                * mp.power(zv, -frac_to_mpf(Fraction(ell) / rho)) * sv
            tot += term / (2 * mp.pi * frac_to_mpf(rho))
        return tot
    return evaluate(cfg, 32, core)


def _expansion_terms(k: int, j: int, w):
    """[j = 0] (k+1)/k, then (-e)^j b_k(l) w^{-e}, e = l(k+1)/k, for l = 1, 2, ...:
    the terms of the large-w expansion of W_j, b_k(l) rounded to the ambient precision."""
    yield mp.mpf(k + 1) / k if j == 0 else mp.mpf(0)
    wv = frac_to_mpf(w)
    for ell in itertools.count(1):
        b = b_k_coeff(k, ell, EvalConfig(mp.mp.prec))
        e = frac_to_mpf(Fraction(ell * (k + 1), k))
        yield mp.power(-e, j) * b * mp.power(wv, -e) if b else b


def Wj_expansion(k: int, j: int, L: int, w, cfg: EvalConfig):
    """[j = 0] (k+1)/k + sum_{l=1}^{L-1} (-l(k+1)/k)^j b_k(l) w^{-l(k+1)/k}, the
    j-th moment expansion; remainder O(w^{-L(k+1)/k})."""
    check_k(k)
    check_at_least(j, 0, "j")
    check_at_least(L, 1, "L")
    return evaluate(cfg, 32, lambda: sum(itertools.islice(_expansion_terms(k, j, w), L)))


# ---------------------------------------------------------------------------
# W_j: stable evaluation
# ---------------------------------------------------------------------------

def _bell_poly(j: int) -> list[int]:
    """Coefficients of the Bell polynomial B_j ((x d/dx)^j e^x = B_j(x) e^x)."""
    b = [0, 1]
    for _ in range(j - 1):
        # B_{j+1} = x * (B_j + B_j')
        nb = [0] * (len(b) + 1)
        for d, c in enumerate(b):
            if c:
                nb[d + 1] += c
                if d >= 1:
                    nb[d] += d * c
        b = nb
    return b


def _ray_angle(rho: float) -> tuple[float, float]:
    """Grid-search psi in (-pi/2, pi/2) maximizing the ray's decay rate
    m = min(cos psi, -cos(2 pi rho + rho psi)); returns (psi, m)."""
    best = (-2.0, 0.0)
    for i in range(-59, 60):
        psi = math.pi * i / 120.0
        m = min(math.cos(psi), -math.cos(2 * math.pi * rho + rho * psi))
        if m > best[0]:
            best = (m, psi)
    if best[0] <= 0.05:
        raise NonConvergent(f"no usable integration ray for rho={rho}")
    return best[1], best[0]


def _quad_cut(k: int, bell, m: float) -> float:
    """V with M_j e^{-m S}/(m S) <= 2^-(working bits + 32), S = V^{k+1}:
    the tail of the v-integral beyond V, where |F(x) e^{-u}| <= M_j e^{-m v^{k+1}}
    and M_j = sup_y B_j(y) e^{-m y} <= sum_d b_d (d/(e m))^d (M_0 = 2)."""
    if bell is None:
        big_m = 2.0
    else:
        big_m = sum(c * (d / (math.e * m)) ** d for d, c in enumerate(bell) if c)
    m_s = (mp.mp.prec + 32) * LN2 + math.log(max(big_m, 1.0))
    return (m_s / m) ** (1.0 / (k + 1))


@lru_cache(maxsize=64)
def _ray_constants(k: int, prec: int):
    """(1/Gamma(1 - kn/(k+1)) for n = 0..k, cos(pi kr/(k+1)) for r = 0..k) at the
    working precision prec, which callers pass as mp.mp.prec: the chain starts and
    the phases of _Wj_series_core, which depend on k alone."""
    q = k + 1
    return (tuple(reciprocal_gamma(Fraction(q - k * n, q)) for n in range(q)),
            tuple(mp.cospi(frac_to_mpf(Fraction(k * r, q))) for r in range(q)))


def _Wj_series_core(k: int, j: int, w, cfg: EvalConfig):
    """W_j(w) = 2 Re sum_n n^j a_n, a_n = z^n/(n! Gamma(1 - k n/q)), z = w e^{-i pi k/q},
    q = k+1, summed over Python integers in fixed point at scale 2^-W, W the ambient
    precision (p + bits + 64, bits = _phi_cancel_bits).

    z^q = (-1)^k w^q is an exact rational (w read exactly), so
    a_n = a_{n-q} (-1)^k w^q (x-1)...(x-k)/(n (n-1)...(n-q+1)), x = 1 - k(n-q)/q,
    with the Gamma factor from _chain_factor. The terms with n = r mod q are the fixed
    phase e^{-i pi k r/q} times a real chain c_n, held as an integer C_n ~ 2^W c_n, so
    W_j = 2 sum_r cos(pi k r/q) sum_n n^j c_n, converted once at the end. A step is
    one C num // den, truncated toward zero. The chains start once, at n <= k, from
    1/Gamma(1 - kn/q) (from _ray_constants, with the phases) w^n/n! through to_fixed,
    none at zero (1 - kn/q is an integer only at n = 0); only the r = 0 chain meets a
    zero factor, at its first step (x = 1), and it is exactly 0 from n = q on.

    Each truncation loses less than one unit of 2^-W, and a chain takes at most n
    steps to reach c_n. An error made earlier is carried on by the exact ratios of
    the later steps, which grow a chain to its peak and then shrink it, so C_n is off
    by less than n max(1, |c_n/c_start|) units, c_start the chain's first term. The
    largest term is at most about 2^bits (_phi_cancel_bits), so the N terms summed are
    off by less than N^{j+2} 2^{bits - W}/|c_start| = N^{j+2} 2^-(p+64)/|c_start|:
    inside the 64 guard bits while N^{j+2}/|c_start| < 2^64, which holds for the few
    thousand terms the auto route sums (N = 6000 at j = 3, say).

    The stop rule is _phi_series_core's: 10 terms in a row past n = 8 below 2^-(p+32),
    that is below 2^{W-p-32} units; the zero terms of the r = 0 chain count as small.
    It stays inline, not in hires._sum_until: fed through a generator and a predicate,
    each series op of the benchmark's wright-sweep took 18-26% longer (about 1.1 to
    1.35 ms at 192 bits, 2-core Xeon, mpmath 1.3.0 on its Python backend), and those
    ops set its op_p50_s, whose bound is 25%."""
    q, p, wp = k + 1, cfg.precision_bits, mp.mp.prec
    wf = exact(w)
    n_cap = _phi_term_cap(Fraction(k, q), wf, cfg)
    wq_num, wq_den = (-1) ** k * wf.numerator ** q, wf.denominator ** q
    cut, sums, small = 1 << (wp - p - 32), [0] * q, 0
    starts, phases = _ray_constants(k, wp)
    chains = [to_fixed((rg * frac_to_mpf(wf ** n / math.factorial(n)))._mpf_, wp)
              for n, rg in enumerate(starts)]
    for n in range(n_cap + 1):
        r = n % q
        c = chains[r]
        if n >= q:
            num, den = _chain_factor(q - k * (n - q), q, k)
            t, den = c * (num * wq_num), den * wq_den * math.perm(n, q)
            c = chains[r] = t // den if t >= 0 else -(-t // den)
        t = n ** j * c
        sums[r] += t
        if n > 8 and abs(t) < cut:
            small += 1
            if small >= 10:
                tot = sum(phase * s for phase, s in zip(phases, sums))
                return mp.ldexp(tot, 1 - wp)
        else:
            small = 0
    raise TermCapExceeded(f"wright series needed more than {n_cap} terms")


def _Wj_quad_core(k: int, j: int, w, cfg: EvalConfig):
    rho_f = Fraction(k, k + 1)
    psi, m = _ray_angle(float(rho_f))
    psi = mp.mpf(psi)
    eip = mp.expj(psi)
    c = frac_to_mpf(w) * mp.expj((2 * mp.pi + psi) * frac_to_mpf(rho_f))
    bell = _bell_poly(j) if j >= 1 else None

    def integrand(v):
        if v <= 0:
            return mp.mpc(0)
        vk = v ** k
        x = c * vk
        if j == 0:
            return (k + 1) * mp.expm1(x) * mp.exp(-eip * (vk * v)) / v
        acc = mp.mpc(0)
        xp = mp.mpc(1)
        for d in range(1, len(bell)):
            xp *= x
            if bell[d]:
                acc += bell[d] * xp
        return (k + 1) * acc * mp.exp(x - eip * (vk * v)) / v

    cut = mp.mpf(_quad_cut(k, bell, m))
    pts = [mp.mpf(0), cut / 4, cut / 2, cut]
    val, err = mp.quad(integrand, pts, error=True, maxdegree=10)
    target = mp.mpf(2) ** (-(cfg.precision_bits + 8))
    if err > target * max(1, abs(val)):
        val, err = mp.quad(integrand, pts, error=True, maxdegree=13)
        if err > target * max(1, abs(val)) * 256:
            raise NonConvergent(f"W_j quadrature failed to converge (err={err})")
    base = mp.mpf(2) if j == 0 else mp.mpf(0)
    return base + mp.im(val) / mp.pi


def _Wj_asymptotic_core(k: int, j: int, w, cfg: EvalConfig):
    """The large-w expansion summed to its first term below 2^-(working bits)
    max(1, |sum|). Its terms shrink up to about l* = (k w/(k+1))^{k+1}, where the
    smallest is about exp(-l*/k) = exp(-peak) (Dingle's rule; l* = k peak, peak from
    _phi_log_peak), and the exponentially small part it leaves out is of that
    size too. Far before l* the terms still fall geometrically, so the remainder
    is about the first omitted term, below the stop. Past l* first, TermCapExceeded."""
    eps = mp.ldexp(1, -mp.mp.prec)
    n_cap = int(min(k * _phi_log_peak(Fraction(k, k + 1), w), cfg.max_terms))
    terms = ((ell, t, abs(t)) for ell, t in
             enumerate(itertools.islice(_expansion_terms(k, j, w), n_cap + 2)))
    tot, _ = _sum_until(
        terms, 1, lambda _l, size, _largest, total: size and size < eps * max(1, abs(total)),
        f"W_j expansion stopped shrinking above 2^-{mp.mp.prec}")
    return tot


def W_j_num(k: int, j: int, w, cfg: EvalConfig, route: str = "auto"):
    """W_j(w) = 2 Re phi_j(k/(k+1), 1; e^{-i pi k/(k+1)} w) for w > 0.

    Route "series" sums the phi_j series in fixed point with bits = _phi_cancel_bits
    guard bits for its cancellation; "quadrature" uses the reflected integral (no
    cancellation, any w); "asymptotic" sums the large-w expansion, whose smallest
    term is about 2^-bits. "auto" takes the series while bits + p <= 2600, else the
    expansion when bits >= 2(p + 64) + 16 (so it stops far before its smallest
    term), else quadrature. Three independent pairs check each other: the series
    against 2 Re wright_phi_moment's mpc loop (the same bits), series and quadrature
    below the first switch, expansion and quadrature above it. w is read exactly,
    so a str, Fraction or int past the float range is accepted as an mpf is.
    """
    check_k(k)
    check_at_least(j, 0, "j")
    check_positive(w, "w")
    bits = _phi_cancel_bits(Fraction(k, k + 1), w)
    p = cfg.precision_bits
    if route == "auto":
        route = "series" if bits + p <= 2600 else \
            "asymptotic" if bits >= 2 * (p + 64) + 16 else "quadrature"
    cores = {"series": (_Wj_series_core, bits + 64), "quadrature": (_Wj_quad_core, 64),
             "asymptotic": (_Wj_asymptotic_core, 64)}
    if route not in cores:
        raise ValueError(f"unknown route {route!r}")
    core, guard = cores[route]
    return evaluate(cfg, guard, core, k, j, w, cfg)
