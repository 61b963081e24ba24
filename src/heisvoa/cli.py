"""Batch verification harness.

Loads a scenario config (JSON with exact rationals as strings), runs the
selected verifier suites, writes a structured text report, and exits with
a deterministic status:

    0  every non-designed-failure check passed
    1  at least one check failed (or a designed failure unexpectedly passed)
    2  malformed configuration, or an unwritable --report or --profile path
       (a directory, or a path under a missing one, is refused before any
       suite runs)
    3  window starvation: some case had no comparable coefficients

The report body is byte-identical for identical config and seed; wall
clock data lives only in '#' header lines.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import workspace
from .fock import (
    State,
    apply_mode,
    basis_monomials,
    label,
    monomial,
    verify_heisenberg_brackets,
    verify_virasoro_brackets,
    virasoro_mode,
    zero_label,
)
from .form import verify_gram_slices, verify_invariance
from .intertwiner import (
    CocycleSystem,
    verify_creativity,
    verify_e_conjugation,
    verify_shift_conj_lminus,
    verify_shift_conj_lplus,
    verify_shift_conj_vertex,
    verify_translation,
    verify_y_conj_minus,
    verify_y_conj_plus,
    verify_ypm_commutation,
    verify_yy_conj,
)
from .jacobi import (
    verify_associativity,
    verify_commutator,
    verify_generalized_jacobi,
    verify_locality,
    verify_normal_order,
    verify_skew_symmetry,
)
from .lattice import (
    integral_lattice,
    verify_dlm_jacobi,
    verify_li_equivalence,
    verify_shifted_virasoro,
    verify_twist_grading,
    verify_twisted_jacobi,
)
from .report import VerificationReport
from .scalars import GaussRat, as_gauss, as_scalar, gr

SUITES = ("heisenberg", "virasoro", "intertwiner-props", "jacobi", "skew",
          "form", "lattice-twist", "dlm", "locality")
# the suites whose cases run at min(window, cap), whatever their window
RADIUS_CAPS = {"dlm": 2, "form": 2, "locality": 2}
# the suites that run at radius 3 and take no cutoff
FIXED_RADIUS = {"heisenberg", "virasoro"}


class ConfigError(ValueError):
    pass


_KINDS = {int: "an integer", bool: "a boolean", tuple: "a list", dict: "an object"}


class Scenario:
    """A verify run's settings: one attribute per config field."""

    # every config field and its default; README's "Config format" table
    # documents exactly these
    FIELDS = {
        "rank": 1,
        "cutoff": 6,
        "window": 3,
        "windows": {},
        "n_branch": 1,
        "seed": 0,
        "suites": SUITES[:-1],
        "max_weight": 4,
        "pairs": 5,
        "numerator_bound": 3,
        "denominator_bound": 3,
        "labels": (),
        "heads": ((), ((1, -1),), ((1, -2),), ((1, -1), (1, -1))),
        "jacobi_instances": (("1/2", "1/3", "-1/4"), ("1/2*i", "1/2", "0"),
                             ("0", "0", "0")),
        "cocycle_f": None,
        "cocycle_g": None,
        "gram": ((1,),),
        "embedding": None,
        "twists": ("1/2", "1/3"),
        "negative_controls": True,
    }
    __slots__ = tuple(FIELDS)

    def __init__(self, **values):
        unknown = values.keys() - self.FIELDS.keys()
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, default in self.FIELDS.items():
            setattr(self, name, values.get(name, default))
        if "windows" not in values:
            self.windows = {}  # a dict of its own, not the table's

    def radius(self, suite: str) -> int:
        r = int(self.windows.get(suite, self.window))
        return min(r, RADIUS_CAPS.get(suite, r))

    def cocycle(self, corruption=None) -> CocycleSystem:
        r = self.rank
        if self.cocycle_f is not None:
            f = tuple(tuple(gr(v) for v in row) for row in self.cocycle_f)
        else:
            f = tuple(tuple(gr("1/2") if i > j else gr(0) for j in range(r))
                      for i in range(r))
        if self.cocycle_g is not None:
            g = tuple(tuple(gr(v) for v in row) for row in self.cocycle_g)
        else:
            g = tuple((gr(0),) * r for _ in range(r))
        return CocycleSystem(r, f, g,
                             corruption if corruption is not None else gr(0))

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        try:
            return cls._checked(data)
        except TypeError as exc:
            # a value of the wrong JSON type, e.g. a boolean or a float
            # where an exact rational belongs
            raise ConfigError(f"malformed config value: {exc}") from exc

    @classmethod
    def _checked(cls, data: dict) -> "Scenario":
        scn = cls(**{k: _freeze(v) for k, v in data.items()})
        # a field with a default takes its default's type; JSON lists
        # arrive as tuples
        for name, default in cls.FIELDS.items():
            if default is not None and type(getattr(scn, name)) is not type(default):
                raise ConfigError(f"{name} must be {_KINDS[type(default)]}")
        if scn.rank < 1:
            raise ConfigError("rank must be positive")
        if scn.n_branch % 2 == 0:
            raise ConfigError("branch parameter N must be odd")
        if not scn.suites:
            raise ConfigError("suites must name at least one suite")
        bad = [s for s in scn.suites if s not in SUITES]
        if bad:
            raise ConfigError(f"unknown suites: {bad}")
        if scn.pairs < 1:
            raise ConfigError("pairs must be at least 1")
        if scn.max_weight < 0 or scn.numerator_bound < 0 \
                or scn.denominator_bound < 1:
            raise ConfigError("max_weight and numerator_bound must be at least "
                              "0, denominator_bound at least 1")
        if any(k not in SUITES or type(v) is not int
               for k, v in scn.windows.items()):
            raise ConfigError("windows must map suite names to integers")
        if min([scn.window, *scn.windows.values()]) < 0:
            raise ConfigError("window radii must be nonnegative")
        if scn.cutoff < max((scn.radius(s) for s in scn.suites
                             if s not in FIXED_RADIUS), default=0):
            raise ConfigError("cutoff must be at least every window radius")
        for head in scn.heads:
            for part in head:
                if len(part) != 2 or any(type(v) is not int for v in part) \
                        or part[1] >= 0 or not 1 <= part[0] <= scn.rank:
                    raise ConfigError(f"malformed head part {part}")
        if not scn.gram or any(
                not isinstance(row, tuple) or any(type(v) is not int for v in row)
                for row in scn.gram):
            raise ConfigError("gram must be a nonempty matrix of integers")
        selected = set(scn.suites)
        if not scn.jacobi_instances and selected & {"jacobi", "skew"}:
            raise ConfigError("jacobi and skew need jacobi_instances")
        if not scn.heads and selected & {"jacobi", "skew"}:
            raise ConfigError("jacobi and skew need heads")
        if not scn.twists and selected & {"lattice-twist", "dlm"}:
            raise ConfigError("lattice-twist and dlm need twists")
        if any(not isinstance(inst, tuple) or len(inst) != 3
               for inst in scn.jacobi_instances):
            raise ConfigError("a jacobi instance is a list of three labels")
        try:
            scn.cocycle()
            lat = integral_lattice(scn.gram, scn.embedding)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad cocycle or lattice: {exc}") from exc
        lists = [("labels", scn.labels, scn.rank), ("twists", scn.twists, lat.rank)]
        lists += [(f"jacobi_instances[{i}]", inst, scn.rank)
                  for i, inst in enumerate(scn.jacobi_instances)]
        for name, entries, rank in lists:
            for i, entry in enumerate(entries):
                _coords(entry, rank, f"{name}[{i}]")
        return scn


def _coords(entry, rank: int, where: str = "label") -> list[GaussRat]:
    """A config label entry as its `rank` coordinates: a string or an
    integer is a value on the first axis, a list the whole tuple."""
    if not isinstance(entry, (list, tuple)):
        entry = (entry,) + ("0",) * (rank - 1)
    elif len(entry) != rank:
        raise ConfigError(f"{where}: {len(entry)} coordinates for rank {rank}")
    try:
        return [as_gauss(v) for v in entry]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    return x


def _read_config(path: str) -> tuple[str, dict]:
    """The text of a config file and the JSON object it holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return text, data


def load_scenario(path: str) -> Scenario:
    return Scenario.from_dict(_read_config(path)[1])


def sample_labels(scn: Scenario, rng: random.Random, count: int):
    """Gaussian-rational label tuples from the configured bounded ranges."""
    r = scn.rank
    out = [label(_coords(row, r)) for row in scn.labels]
    nb, db = scn.numerator_bound, scn.denominator_bound
    while len(out) < count:
        out.append(label([GaussRat(Fraction(rng.randint(-nb, nb), rng.randint(1, db)),
                                   Fraction(rng.randint(-nb, nb), rng.randint(1, db)))
                          for _ in range(r)]))
    return out[:count]


def head_state(parts, lab) -> State:
    """Heads come in the text-format convention (color, -level)."""
    return State.of(monomial(lab, tuple((int(i), int(-k)) for i, k in parts)))


Case = tuple[str, VerificationReport]


def suite_heisenberg(scn: Scenario) -> list[Case]:
    return [("brackets", verify_heisenberg_brackets(scn.rank, scn.max_weight,
                                                    radius=3))]


def suite_virasoro(scn: Scenario) -> list[Case]:
    rng = random.Random(f"{scn.seed}:virasoro")
    rank = scn.rank
    labs = [zero_label(rank)] + sample_labels(scn, rng, 2)
    states = (((li_, bi), State.of(bm)) for li_, lab in enumerate(labs)
              for bi, bm in enumerate(basis_monomials(rank, min(scn.max_weight, 3), lab)))
    rep = VerificationReport("virasoro_brackets",
                             f"weight<={scn.max_weight}, |m|,|n|<=3")
    return [("brackets", verify_virasoro_brackets(virasoro_mode, rank, states,
                                                  radius=3, report=rep))]


def suite_intertwiner_props(scn: Scenario) -> list[Case]:
    rng = random.Random(f"{scn.seed}:intertwiner-props")
    rank = scn.rank
    cs = scn.cocycle()
    r, cut = scn.radius("intertwiner-props"), scn.cutoff
    cases: list[Case] = []
    u = State.of(monomial(zero_label(rank), ((1, 1), (1, 1))))
    pool = sample_labels(scn, rng, 3 * scn.pairs)
    for idx in range(scn.pairs):
        alpha, beta, gamma = pool[3 * idx:3 * idx + 3]
        s = State.vacuum(rank, gamma)
        tag = f"pair{idx:03d}"
        cases.append((f"{tag}/ypm_commutation",
                      verify_ypm_commutation(alpha, beta, s, radius=r, cutoff=cut)))
        cases.append((f"{tag}/y_conj_minus", verify_y_conj_minus(
            alpha, u, s, radius=r, z2_radius=min(r, 2), cutoff=cut)))
        cases.append((f"{tag}/y_conj_plus",
                      verify_y_conj_plus(alpha, u, s, radius=r, cutoff=cut)))
        cases.append((f"{tag}/yy_conj", verify_yy_conj(
            alpha, u, s, radius=r, z1_radius=min(r, 2), cutoff=cut)))
        cases.append((f"{tag}/shift_conj_lminus",
                      verify_shift_conj_lminus(alpha, s, radius=r, cutoff=cut)))
        cases.append((f"{tag}/shift_conj_lplus",
                      verify_shift_conj_lplus(alpha, State.of(
                          monomial(gamma, ((1, 1),))))))
        cases.append((f"{tag}/shift_conj_vertex",
                      verify_shift_conj_vertex(alpha, u, s, radius=r, cutoff=cut)))
        head = head_state(((1, -1),), alpha)
        cases.append((f"{tag}/e_conjugation", verify_e_conjugation(
            head, beta, s, cs, radius=r, cutoff=cut,
            report=VerificationReport("e_conjugation", window_used=f"[lo,{r}]"))))
        cases.append((f"{tag}/translation",
                      verify_translation(head, s, cs, radius=r, cutoff=cut)))
        cases.append((f"{tag}/creativity", verify_creativity(head, cs, cutoff=cut)))
    return cases


def suite_jacobi(scn: Scenario) -> list[Case]:
    rank = scn.rank
    cs = scn.cocycle()
    r = scn.radius("jacobi")
    cases: list[Case] = []
    instances = [[label(_coords(v, rank)) for v in inst]
                 for inst in scn.jacobi_instances]
    for inst, (alpha, beta, gamma) in enumerate(instances):
        s = State.vacuum(rank, gamma)
        for hi_, hx in enumerate(scn.heads):
            for hj, hy in enumerate(scn.heads):
                x = head_state(hx, alpha)
                y = head_state(hy, beta)
                rep = verify_generalized_jacobi(x, y, s, cs, scn.n_branch,
                                                radius=r, cutoff=scn.cutoff)
                cases.append((f"inst{inst}/heads{hi_}{hj}", rep))
    u = State.of(monomial(zero_label(rank), ((1, 1),)))
    alpha, beta, _ = instances[0]
    w = State.vacuum(rank, alpha)
    s0 = State.vacuum(rank, beta)
    r2, cut = min(r, 2), scn.cutoff
    cases += [
        ("commutator", verify_commutator(u, w, 1, s0, cs, radius=r2, cutoff=cut)),
        ("normal_order", verify_normal_order(u, w, s0, cs, radius=r2, cutoff=cut)),
        ("locality", verify_locality(u, w, s0, cs, 1, radius=r2, cutoff=cut)),
        ("associativity",
         verify_associativity(u, w, s0, cs, 1, radius=r2, cutoff=cut))]
    if scn.negative_controls:
        # on labels a, b and target b the corruption moves the first
        # ordering against the other two terms by zeta^(2|b|^2(|a|^2 - a.b)),
        # a unit that is 1 at a = b, a = 0, b = 0 or an isotropic b; fixed
        # labels keep it off 1 whatever the Jacobi instances are
        bad = scn.cocycle(corruption=gr(1))
        a, b = (label(_coords(v, rank)) for v in ("1/2", "1/3"))
        xb, yb = State.vacuum(rank, a), State.vacuum(rank, b)
        rep = verify_generalized_jacobi(xb, yb, yb, bad, scn.n_branch, radius=1,
                                        cutoff=scn.cutoff)
        rep.expected_failure = True
        cases.append(("negative/corrupt_cocycle", rep))
    return cases


def suite_locality(scn: Scenario) -> list[Case]:
    rank = scn.rank
    cs = scn.cocycle()
    r, cut = scn.radius("locality"), scn.cutoff
    alpha = label(_coords("1/2", rank))
    beta = label(_coords("1/3", rank))
    u = State.of(monomial(zero_label(rank), ((1, 1),)))
    w = State.vacuum(rank, alpha)
    s = State.vacuum(rank, beta)
    cases = [("adequate_m", verify_locality(u, w, s, cs, 1, radius=r, cutoff=cut))]
    if scn.negative_controls:
        rep = verify_locality(u, w, s, cs, 0, radius=r, cutoff=cut)
        rep.expected_failure = True
        cases.append(("negative/undersized_m", rep))
    return cases


def suite_skew(scn: Scenario) -> list[Case]:
    rng = random.Random(f"{scn.seed}:skew")
    rank = scn.rank
    cs = scn.cocycle()
    r = scn.radius("skew")
    cases: list[Case] = []
    pairs = [(label(_coords(a, rank)), label(_coords(b, rank)))
             for a, b, _ in scn.jacobi_instances]
    pool = sample_labels(scn, rng, 2 * scn.pairs)
    while len(pairs) < scn.pairs:
        k = len(pairs)
        pairs.append((pool[2 * k], pool[2 * k + 1]))
    for idx, (alpha, beta) in enumerate(pairs[:scn.pairs]):
        for hx in scn.heads[:2]:
            x = head_state(hx, alpha)
            y = State.vacuum(rank, beta)
            verdicts = []
            for n_branch in (1, 3):
                rep = verify_skew_symmetry(x, y, cs, n_branch, radius=r,
                                           cutoff=scn.cutoff)
                verdicts.append(rep.verdict)
                cases.append((f"pair{idx:03d}/N{n_branch}", rep))
            agree = VerificationReport(f"skew_branch_agreement_{idx}",
                                       "N in {1,3}")
            agree.record((gr(idx),), as_scalar(int(verdicts[0])),
                         as_scalar(int(verdicts[1])),
                         note="verdict must not depend on the branch")
            cases.append((f"pair{idx:03d}/branch_agreement", agree))
    return cases


def suite_form(scn: Scenario) -> list[Case]:
    rng = random.Random(f"{scn.seed}:form")
    rank = scn.rank
    cs = scn.cocycle()
    cases: list[Case] = [("gram", verify_gram_slices(("0", "1/2", "1/3*i"), 3, cs))]
    n = max(1, scn.pairs // 2)
    pool = sample_labels(scn, rng, 2 * n)
    for idx in range(n):
        alpha, beta = pool[2 * idx:2 * idx + 2]
        x = State.vacuum(rank, alpha)
        y = State.vacuum(rank, beta)
        t = apply_mode(1, -1, State.vacuum(rank, -(alpha + beta)))
        cases.append((f"invariance{idx:03d}",
                      verify_invariance(x, y, t, cs, scn.n_branch,
                                        radius=scn.radius("form"),
                                        cutoff=scn.cutoff)))
    return cases


def suite_lattice_twist(scn: Scenario) -> list[Case]:
    lat = integral_lattice(scn.gram, scn.embedding)
    cases: list[Case] = []
    r = scn.radius("lattice-twist")
    x = State.vacuum(lat.heis_rank, lat.label_of(_coords(1, lat.rank)))
    for tstr in scn.twists:
        alpha = lat.label_of(_coords(tstr, lat.rank))
        # a coordinate list is tagged by its entries, as in the config
        text = ",".join(map(str, tstr)) if isinstance(tstr, tuple) else tstr
        tag = f"alpha={text}"
        s = State.vacuum(lat.heis_rank, alpha)
        cases.append((f"{tag}/twisted_jacobi", verify_twisted_jacobi(
            lat, alpha, x, x, s, radius=r, cutoff=scn.cutoff)))
        cases.append((f"{tag}/li_equivalence", verify_li_equivalence(
            lat, alpha, x, State.vacuum(lat.heis_rank), radius=2,
            cutoff=scn.cutoff)))
        cases.append((f"{tag}/grading", verify_twist_grading(lat, alpha, 3)))
        weight = min(scn.max_weight, 4)
        rep = VerificationReport(f"shifted_virasoro[{text}]",
                                 f"weight<={weight}, |m|,|n|<=3")
        cases.append((f"{tag}/shifted_virasoro",
                      verify_shifted_virasoro(lat, alpha, weight, rep)))
    return cases


def suite_dlm(scn: Scenario) -> list[Case]:
    lat = integral_lattice(scn.gram, scn.embedding)
    r, cut = scn.radius("dlm"), scn.cutoff
    e1 = lat.label_of(_coords(1, lat.rank))
    a1 = lat.label_of(_coords(scn.twists[0], lat.rank))
    a2 = lat.label_of(_coords(scn.twists[-1], lat.rank))
    x = State.vacuum(lat.heis_rank, a1 + e1)
    y = State.vacuum(lat.heis_rank, a2 + e1)
    s = State.vacuum(lat.heis_rank)
    cases: list[Case] = []
    for variant in ("delta", "hat"):
        rep = verify_dlm_jacobi(lat, a1, a2, zero_label(lat.heis_rank), x, y,
                                s, variant, scn.n_branch, radius=r, cutoff=cut)
        cases.append((f"{variant}", rep))
    return cases


SUITE_RUNNERS = {
    "heisenberg": suite_heisenberg,
    "virasoro": suite_virasoro,
    "intertwiner-props": suite_intertwiner_props,
    "jacobi": suite_jacobi,
    "skew": suite_skew,
    "form": suite_form,
    "lattice-twist": suite_lattice_twist,
    "dlm": suite_dlm,
    "locality": suite_locality,
}


def run_suites(scn: Scenario) -> dict[str, list[Case]]:
    """Run the selected suites in name order.

    Each case skips the coefficients its cutoff cannot afford on its own,
    so a suite never fails as a whole for the cutoff.  The run starts on
    a fresh workspace, so its memo tables hold only its own work.
    """
    workspace.fresh()
    return {name: SUITE_RUNNERS[name](scn) for name in sorted(set(scn.suites))}


# FIPS 180-4, section 4.2.2: the first 32 bits of the fractional parts of
# the cube roots of the first 64 primes, and (5.3.3) of the square roots
# of the first 8
_SHA256_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2)
_SHA256_H0 = (0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19)


def _sha256(data: bytes) -> str:
    """The SHA-256 digest of ``data`` as 64 hex digits (FIPS 180-4).

    It is computed in-tree because the standard library's digest loads
    OpenSSL's libcrypto, which costs a run several MB of memory for the
    one digest of its config."""
    mask = 0xFFFFFFFF

    def rotr(x: int, n: int) -> int:
        return (x >> n | x << (32 - n)) & mask

    # pad with one 1 bit, zeros to 56 bytes mod 64, the bit length in 8 bytes
    msg = data + b"\x80" + bytes((55 - len(data)) % 64) \
        + (8 * len(data)).to_bytes(8, "big")
    h = _SHA256_H0
    for start in range(0, len(msg), 64):
        w = [int.from_bytes(msg[i:i + 4], "big") for i in range(start, start + 64, 4)]
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            s0 = rotr(x, 7) ^ rotr(x, 18) ^ x >> 3
            s1 = rotr(y, 17) ^ rotr(y, 19) ^ y >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & mask)
        a, b, c, d, e, f, g, hh = h
        for k, wt in zip(_SHA256_K, w):
            t1 = hh + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) \
                + (e & f ^ ~e & g) + k + wt
            t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + (a & b ^ a & c ^ b & c)
            a, b, c, d, e, f, g, hh = (t1 + t2) & mask, a, b, c, \
                (d + t1) & mask, e, f, g
        h = tuple((p + q) & mask for p, q in zip(h, (a, b, c, d, e, f, g, hh)))
    return "".join(f"{v:08x}" for v in h)


def _utc_now() -> str:
    """The current UTC time in ISO 8601 with microseconds and offset,
    e.g. 2026-01-02T03:04:05.000006+00:00."""
    sec, us = divmod(time.time_ns() // 1000, 1_000_000)
    return f"{time.strftime('%Y-%m-%dT%H:%M:%S', time.gmtime(sec))}.{us:06d}+00:00"


def render_report(scn: Scenario, results: dict[str, list[Case]],
                  config_text: str) -> tuple[str, int]:
    """The report text and the exit status."""
    digest = _sha256(config_text.encode())[:16]
    header = [
        "# heisvoa verification report",
        f"# generated: {_utc_now()}",
    ]
    body = [
        f"config-digest: {digest}",
        f"rank: {scn.rank}  cutoff: {scn.cutoff}  window: {scn.window}  "
        f"branch-N: {scn.n_branch}  seed: {scn.seed}",
        f"suites: {', '.join(sorted(set(scn.suites)))}",
        "",
    ]
    totals = {"checked": 0, "skipped": 0}
    outcomes: list[str] = []
    for suite in sorted(results):
        for idx, (case_name, rep) in enumerate(results[suite]):
            body.append(f"suite {suite} case {idx:03d} {case_name}")
            body.extend("  " + ln for ln in rep.to_lines())
            totals["checked"] += len(rep.checked)
            totals["skipped"] += len(rep.skipped)
            outcomes.append(rep.outcome)
            body.append("")
    n_fail = sum(o in ("FAIL", "XPASS") for o in outcomes)
    starved = outcomes.count("STARVED")
    n_xfail = sum(o == "XFAIL" for o in outcomes)
    body.append(f"summary: cases={len(outcomes)} checked={totals['checked']} "
                f"failing-cases={n_fail} designed-failures={n_xfail} "
                f"starved={starved} skipped-coefficients={totals['skipped']}")
    if n_fail:
        status = 1
    elif starved:
        status = 3
    else:
        status = 0
    body.append(f"verdict: {'PASS' if status == 0 else 'FAIL'}")
    return "\n".join(header + body) + "\n", status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="heisvoa",
                                     description="exact identity verification "
                                                 "for free-boson intertwiners")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run verification suites from a config")
    v.add_argument("config")
    v.add_argument("--suite", action="append", default=None,
                   help="suite name, repeatable (default: config selection)")
    v.add_argument("--window", type=int, default=None)
    v.add_argument("--cutoff", type=int, default=None)
    v.add_argument("--branch-N", type=int, dest="n_branch", default=None)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--report", default=None, help="report file (default stdout)")
    v.add_argument("--profile", default=None, metavar="PATH",
                   help="write a cProfile dump of the run to PATH")
    args = parser.parse_args(argv)

    try:
        config_text, data = _read_config(args.config)
        for key in ("suite", "window", "cutoff", "n_branch", "seed"):
            val = getattr(args, key)
            if val is not None:
                data["suites" if key == "suite" else key] = val
        scn = Scenario.from_dict(data)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    for path in filter(None, (args.profile, args.report)):
        if os.path.isdir(path):
            problem = "Is a directory"
        elif not os.path.isdir(os.path.dirname(path) or "."):
            problem = "no such directory"
        else:
            continue
        print(f"cannot write {path}: {problem}", file=sys.stderr)
        return 2
    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    text, status = render_report(scn, run_suites(scn), config_text)
    path = None
    try:
        if profiler is not None:
            profiler.disable()
            path = args.profile
            profiler.dump_stats(path)
        if args.report:
            path = args.report
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    if not args.report:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
