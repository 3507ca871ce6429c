"""Simulation configuration: parameter records, validation, and the flat
key-value config file format.

Defaults reproduce the standard experimental setup: a 100x100 m field with
the base station at (150, 50), 100 nodes, and the usual radio/trust
constants.  Unknown keys in a config file are rejected (typo protection).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce
from operator import add, attrgetter

from . import __version__

TIERS = (1, 2, 3)  # generic / advanced / super


class ConfigError(ValueError):
    """Invalid configuration; `field` names the offending key."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class RadioParams:
    e_elec: float = 50e-9      # J/bit, transceiver electronics
    eps_fs: float = 10e-12     # J/bit/m^2, free-space amplifier
    eps_amp: float = 0.0013e-12  # J/bit/m^4, multipath amplifier
    e_da: float = 5e-9         # J/bit, aggregation at the receiver
    e_h: float = 5e-9          # J/bit, overhearing a packet
    e_m: float = 10e-9         # J/s, keeping the radio listening
    d_m_s: float = 10.0        # s, maximum overhearing duration

    @property
    def d_0(self) -> float:
        """Crossover distance between the free-space and multipath regimes."""
        return math.sqrt(self.eps_fs / self.eps_amp)


@dataclass(frozen=True)
class ChannelParams:
    alpha_0: float = 3.0  # rate of the bad state
    alpha_1: float = 7.0  # rate of the good state

    @property
    def p_bad(self) -> float:
        return self.alpha_0 / (self.alpha_0 + self.alpha_1)


@dataclass(frozen=True)
class ChannelEffects:
    p_cd: float = 0.2  # retransmission captured as a delay event
    p_no: float = 0.2  # forwarded packet not overheard under a bad channel


@dataclass(frozen=True)
class AttackParams:
    p_sf: float = 0.1  # base dropping probability
    p_df: float = 0.1  # base delaying probability


@dataclass(frozen=True)
class ElectionParams:
    p0_init: float = 0.07
    p_ct: float = 0.08
    p_t: float = 0.10
    p_mt: float = 0.12
    p_dt: float = 0.14
    eta: float = 0.4
    n_lch: int = 10  # head-history length


@dataclass(frozen=True)
class JoinParams:
    n_nch: int = 2  # nearest-head candidate count


@dataclass(frozen=True)
class OutlierParams:
    t_nbr: float = 0.01       # neighbor radius in trust units
    core_fraction: float = 0.8
    th_d: float = 0.05        # convergence tolerance between rounds
    n_s: int = 60             # consecutive stable rounds required


TRUST_LABELS = (
    "complete_distrust",
    "intense_distrust",
    "distrust",
    "medium_distrust",
    "medium_trust",
    "trust",
    "complete_trust",
)
ANTECEDENT_LABELS = ("low", "medium", "high")


@dataclass(frozen=True)
class PiecewiseLinearMF:
    """Membership function given as sorted (x, grade) breakpoints.

    Outside the breakpoint span the function continues the edge grade,
    which is 0 unless the set has a shoulder plateau at the domain edge.
    """

    points: tuple

    def __call__(self, x: float) -> float:
        pts = self.points
        if x <= pts[0][0]:
            return pts[0][1]
        if x >= pts[-1][0]:
            return pts[-1][1]
        for (x0, g0), (x1, g1) in zip(pts, pts[1:]):
            if x < x1:
                return g0 + (g1 - g0) * (x - x0) / (x1 - x0)
            if x == x1:
                return g1  # interpolating would round g0 + (g1 - g0) * 1.0
        return pts[-1][1]


# peaks at k/6 with half-width 1/6, clipped to [0,1]; the end sets become
# shoulders
_TRIANGLES = [(max(0.0, c - 1.0 / 6.0), c, min(1.0, c + 1.0 / 6.0))
              for c in (k / 6.0 for k in range(len(TRUST_LABELS)))]


@dataclass(frozen=True)
class FLCConfig:
    """Membership-function coordinates for the trust inference controller,
    one field a file key: `flc_<name>` sets field `<name>`.  Antecedent MFs
    are (x, grade) breakpoints, the same for DFD and DFR by default."""

    dfd_low_umf: tuple = ((0.0, 1.0), (0.2, 1.0), (0.5, 0.0))
    dfd_low_lmf: tuple = ((0.0, 1.0), (0.1, 1.0), (0.4, 0.0))
    dfd_medium_umf: tuple = ((0.2, 0.0), (0.5, 1.0), (0.8, 0.0))
    dfd_medium_lmf: tuple = ((0.3, 0.0), (0.5, 1.0), (0.7, 0.0))
    dfd_high_umf: tuple = ((0.5, 0.0), (0.8, 1.0), (1.0, 1.0))
    dfd_high_lmf: tuple = ((0.6, 0.0), (0.9, 1.0), (1.0, 1.0))
    dfr_low_umf: tuple = ((0.0, 1.0), (0.2, 1.0), (0.5, 0.0))
    dfr_low_lmf: tuple = ((0.0, 1.0), (0.1, 1.0), (0.4, 0.0))
    dfr_medium_umf: tuple = ((0.2, 0.0), (0.5, 1.0), (0.8, 0.0))
    dfr_medium_lmf: tuple = ((0.3, 0.0), (0.5, 1.0), (0.7, 0.0))
    dfr_high_umf: tuple = ((0.5, 0.0), (0.8, 1.0), (1.0, 1.0))
    dfr_high_lmf: tuple = ((0.6, 0.0), (0.9, 1.0), (1.0, 1.0))
    trust_complete_distrust: tuple = _TRIANGLES[0]
    trust_intense_distrust: tuple = _TRIANGLES[1]
    trust_distrust: tuple = _TRIANGLES[2]
    trust_medium_distrust: tuple = _TRIANGLES[3]
    trust_medium_trust: tuple = _TRIANGLES[4]
    trust_trust: tuple = _TRIANGLES[5]
    trust_complete_trust: tuple = _TRIANGLES[6]
    dfr_bypass: float = 0.2  # below this forwarding rate, trust is hard 0

    def validate(self) -> None:
        _check_rows(self, _FLC_CHECKED)
        for var, start in (("dfd", 0.0), ("dfr", self.dfr_bypass)):
            umfs = {}  # label -> UMF, for the coverage check
            for label in ANTECEDENT_LABELS:
                umf, lmf = (PiecewiseLinearMF(getattr(self, f"{var}_{label}_{kind}"))
                            for kind in ("umf", "lmf"))
                # both are linear between neighbouring points of this set, so
                # LMF <= UMF on [0,1] holds exactly when it holds on the set
                checkpoints = {0.0, 1.0, *(x for x, _ in umf.points + lmf.points
                                           if 0.0 < x < 1.0)}
                for x in sorted(checkpoints):
                    if lmf(x) > umf(x):
                        raise ConfigError(f"flc_{var}_{label}_lmf",
                                          f"lower membership exceeds upper at x={x!r}")
                umfs[label] = umf
            # some rule must fire wherever the engine infers: dfd in [0,1] and
            # dfr in [dfr_bypass,1].  The UMFs are linear between their
            # breakpoints, so checking those and both ends is exact; a
            # breakpoint listed with a grade above 0 is covered by its own set.
            covered = {x for umf in umfs.values() for x, g in umf.points if g > 0.0}
            for x in sorted({start, 1.0, *(x for umf in umfs.values() for x, _ in umf.points
                                           if start < x < 1.0)} - covered):
                if not any(umf(x) > 0.0 for umf in umfs.values()):
                    near = min(umfs, key=lambda k: min(abs(bx - x) for bx, _ in umfs[k].points))
                    raise ConfigError(f"flc_{var}_{near}_umf",
                                      f"no upper membership is above 0 at x={x!r}")


@dataclass(frozen=True)
class SimConfig:
    field_width_m: float = 100.0
    field_height_m: float = 100.0
    bs_x: float = 150.0
    bs_y: float = 50.0
    node_count: int = 100
    malicious_fraction: float = 0.3
    tier_mix: tuple = (0.3, 0.4, 0.3)
    data_packet_bits: int = 3000
    control_packet_bits: int = 300
    initial_energy_j: float = 1.5
    radio: RadioParams = field(default_factory=RadioParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    effects: ChannelEffects = field(default_factory=ChannelEffects)
    attack: AttackParams = field(default_factory=AttackParams)
    election: ElectionParams = field(default_factory=ElectionParams)
    join: JoinParams = field(default_factory=JoinParams)
    outlier: OutlierParams = field(default_factory=OutlierParams)
    trust_flc: FLCConfig = field(default_factory=FLCConfig)
    rounds: int = 1500
    cycle_len_rounds: int = 50
    seed: int = 1
    force_channel: str | None = None  # "good" / "bad" testing override

    def validate(self, *, flc: bool = True) -> None:
        """Check that each sub-record is its dataclass, then every key
        against its `KEY_TABLE` row, then the rules that tie keys together.
        `flc=False` leaves the controller's keys to `FuzzyTrustEngine`,
        which checks a controller unless it is the one the last engine was
        built from."""
        for name, record, key in _RECORDS:
            if type(value := getattr(self, name)) is not record:
                raise ConfigError(key, f"{name} must be a {record.__name__}, got {_shown(value)}")
        _check_rows(self, _SIM_CHECKED)
        if 3 * self.attack.p_sf + 3 * self.attack.p_df > 1.0 + 1e-12:
            raise ConfigError("p_sf", "tier-3 action probabilities exceed 1: "
                                      "need 3*p_sf + 3*p_df <= 1")
        e = self.election
        if not e.p_ct < e.p_t < e.p_mt < e.p_dt:
            raise ConfigError("p_ct", "need p_ct < p_t < p_mt < p_dt")
        # a rotation window is ceil(1/p_ch), and p_ch is p0_init or at least
        # (1 - eta) * p_ct (`protocol.election_probability`)
        for key, p_ch in (("p_0", e.p0_init), ("p_ct", (1.0 - e.eta) * e.p_ct)):
            if not (p_ch > 0.0 and 1.0 / p_ch <= _MAX):
                raise ConfigError(key, f"1/p_ch must be finite, got p_ch = {p_ch!r}")
        # no link is longer than the field diagonal or than the way from the
        # farthest field corner to the base station
        w, h = self.field_width_m, self.field_height_m
        bx, by = self.bs_x, self.bs_y
        dx, dy = max(abs(bx), abs(bx - w)), max(abs(by), abs(by - h))
        for key, link, d in (
                ("field_width_m" if w >= h else "field_height_m", "the field diagonal",
                 self.field_diagonal_m),
                ("bs_x" if dx >= dy else "bs_y",
                 "the way from the farthest field corner to the base station",
                 math.hypot(dx, dy))):
            # `phy.tx_energy` costs a link at or beyond d_0 with d ** 4, which
            # raises OverflowError above about 1.16e77 and is infinite at d = inf
            try:
                costable = d < self.radio.d_0 or math.isfinite(d ** 4)
            except OverflowError:
                costable = False
            if not costable:
                raise ConfigError(key, f"{link} is {d!r} m, too long for the radio "
                                       "model: its multipath term d ** 4 overflows")
        if flc:
            self.trust_flc.validate()

    @property
    def field_diagonal_m(self) -> float:
        return math.hypot(self.field_width_m, self.field_height_m)

    @property
    def retransmit_interval_s(self) -> float:
        # fixed at half the maximum overhearing duration
        return 0.5 * self.radio.d_m_s


# ---------------------------------------------------------------------------
# flat key-value config files
# ---------------------------------------------------------------------------

def read_key_values(text: str):
    """Yield (key, value) from `key = value` lines: `#` starts a comment,
    blank lines are skipped and keys are lower-cased.  A key given twice is
    refused, since one of its lines would be ignored."""
    seen = {}  # key -> the line it is on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in seen:
            raise ConfigError(key, f"given on lines {seen[key]} and {lineno}; "
                                   "a key may appear only once")
        seen[key] = lineno
        yield key, value.strip()


def _parse_tuple3(s: str) -> tuple:
    return tuple(float(p) for p in s.split(","))


def _parse_breakpoints(s: str) -> tuple:
    pts = []
    for item in s.split(","):
        x, _, g = item.partition(":")
        pts.append((float(x), float(g)))
    return tuple(pts)


def _parse_channel_force(s: str):
    s = s.lower()
    return None if s in ("", "none") else s


# value kinds: (parser, renderer)
_FLOAT = (float, repr)
_INT = (int, repr)
_TUPLE3 = (_parse_tuple3, lambda t: ",".join(repr(v) for v in t))
_BREAKPOINTS = (_parse_breakpoints, lambda pts: ",".join(f"{x!r}:{g!r}" for x, g in pts))
_CHANNEL = (_parse_channel_force, lambda v: v or "none")


# row checks: (predicate, message).  A config holds only what its file can:
# a number is an int or a float in the float range, which each predicate
# tests first, one type test a value, so NaN, an infinity, a bool (whose
# manifest line would read True or False), a Fraction, a Decimal, a string
# and an int too large for a float all fail before any comparison.
_NUMBER = (int, float)
_MAX = sys.float_info.max
_POSITIVE = (lambda v: type(v) in _NUMBER and 0.0 < v <= _MAX,
             "must be finite and strictly positive")
_FINITE = (lambda v: type(v) in _NUMBER and -_MAX <= v <= _MAX, "must be finite")
_UNIT = (lambda v: type(v) in _NUMBER and 0.0 <= v <= 1.0, "must lie in [0,1]")
_OPEN_UNIT = (lambda v: type(v) in _NUMBER and 0.0 < v < 1.0, "must lie in (0,1)")
# every _INT row checks the type, since a Python-built config can hold a
# float (or a bool) where a file can only hold an integer.  An integer, too,
# lies in the float range: a manifest could not write one of 4300 digits.
_INTEGER = (lambda v: type(v) is int and -_MAX <= v <= _MAX,
            "must be an integer in the float range")
_COUNT = (lambda v: type(v) is int and 1 <= v <= _MAX,
          "must be an integer >= 1 in the float range")
# the ratios are added left to right, as `sum` does before Python 3.12 (from
# 3.12 it compensates float rounding), so a mix is valid on every version or
# on none
_RATIOS = (lambda t: type(t) is tuple and len(t) == 3
           and all(type(r) in _NUMBER and 0.0 <= r <= 1.0 for r in t)
           and abs(reduce(add, t, 0) - 1.0) <= 1e-9,
           "must be three ratios in [0,1] summing to 1 within 1e-9")
_POINTS = (lambda pts: type(pts) is tuple and len(pts) > 0
           and all(type(p) is tuple and len(p) == 2 and _FINITE[0](p[0]) and _UNIT[0](p[1])
                   for p in pts)
           and all(p[0] < q[0] for p, q in zip(pts, pts[1:])),
           "must be (x, grade) pairs, x finite and strictly increasing, grades in [0,1]")
_TRIANGLE = (lambda t: type(t) is tuple and len(t) == 3 and all(map(_FINITE[0], t))
             and t[0] <= t[1] <= t[2],
             "must be three finite numbers a <= c <= b")
_CHANNELS = (lambda v: v in (None, "good", "bad"), "must be 'good', 'bad', or unset")


def _shown(value) -> str:
    """`repr(value)`, or a stand-in for an int too long to write as text."""
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too long to write"


def _check_rows(obj, rows: list) -> None:
    """Refuse `obj` at the first row (key, reader, check) its value fails."""
    for key, read, (test, message) in rows:
        if not test(value := read(obj)):
            raise ConfigError(key, f"{message}, got {_shown(value)}")


def _keys(prefix: str, kind: tuple, check, *names: str) -> list:
    # keys named like their field
    return [(name, prefix + name, kind, check) for name in names]


# file key -> (path into SimConfig, parser, renderer, check), in manifest
# order.  A path is attribute names.  `SimConfig.validate` applies each
# row's check.
KEY_TABLE = {
    key: (tuple(path.split(".")), *kind, check)
    for key, path, kind, check in [
        *_keys("", _FLOAT, _POSITIVE, "field_width_m", "field_height_m"),
        *_keys("", _FLOAT, _FINITE, "bs_x", "bs_y"),
        ("node_count", "node_count", _INT, _COUNT),
        ("malicious_fraction", "malicious_fraction", _FLOAT, _UNIT),
        ("tier_mix", "tier_mix", _TUPLE3, _RATIOS),
        *_keys("", _INT, _COUNT, "data_packet_bits", "control_packet_bits"),
        ("e_0", "initial_energy_j", _FLOAT, _POSITIVE),
        *_keys("", _INT, _COUNT, "rounds", "cycle_len_rounds"),
        ("seed", "seed", _INT, _INTEGER),
        ("force_channel", "force_channel", _CHANNEL, _CHANNELS),
        *_keys("radio.", _FLOAT, _POSITIVE, "e_elec", "eps_fs", "eps_amp", "e_da", "e_h",
               "e_m", "d_m_s"),
        *_keys("channel.", _FLOAT, _POSITIVE, "alpha_0", "alpha_1"),
        *_keys("effects.", _FLOAT, _UNIT, "p_cd", "p_no"),
        *_keys("attack.", _FLOAT, _UNIT, "p_sf", "p_df"),
        ("p_0", "election.p0_init", _FLOAT, _OPEN_UNIT),
        *_keys("election.", _FLOAT, _OPEN_UNIT, "p_ct", "p_t", "p_mt", "p_dt"),
        # eta = 1 would zero the election probability of a member at its
        # cluster's energy minimum
        ("eta", "election.eta", _FLOAT,
         (lambda v: type(v) in _NUMBER and 0.0 <= v < 1.0, "must lie in [0,1)")),
        ("n_lch", "election.n_lch", _INT, _COUNT),
        ("n_nch", "join.n_nch", _INT, _COUNT),
        ("t_nbr", "outlier.t_nbr", _FLOAT, _POSITIVE),
        ("core_fraction", "outlier.core_fraction", _FLOAT, _OPEN_UNIT),
        ("th_d", "outlier.th_d", _FLOAT, _POSITIVE),
        ("n_s", "outlier.n_s", _INT, _COUNT),
        ("dfr_bypass", "trust_flc.dfr_bypass", _FLOAT, _UNIT),
        *[(f"flc_{var}_{label}_{kind}", f"trust_flc.{var}_{label}_{kind}",
           _BREAKPOINTS, _POINTS)
          for var in ("dfd", "dfr") for label in ANTECEDENT_LABELS for kind in ("umf", "lmf")],
        *[(f"flc_trust_{label}", f"trust_flc.trust_{label}", _TUPLE3, _TRIANGLE)
          for label in TRUST_LABELS],
    ]
}


# (key, reader, check) for each KEY_TABLE row, its path compiled once into
# an attrgetter: the controller's rows read from the controller, the others
# from the SimConfig
_SIM_CHECKED = [(key, attrgetter(".".join(path)), check)
                for key, (path, _, _, check) in KEY_TABLE.items() if path[0] != "trust_flc"]
_FLC_CHECKED = [(key, attrgetter(path[1]), check)
                for key, (path, _, _, check) in KEY_TABLE.items() if path[0] == "trust_flc"]
# (field, dataclass, first file key inside it) for each SimConfig sub-record
_RECORDS = [
    (f.name, f.default_factory, next(k for k, row in KEY_TABLE.items() if row[0][0] == f.name))
    for f in fields(SimConfig) if is_dataclass(f.default_factory)
]


def _set_path(obj, path: tuple, value):
    """Copy of `obj` with the value at `path` replaced."""
    step = path[0]
    if len(path) > 1:
        value = _set_path(getattr(obj, step), path[1:], value)
    return replace(obj, **{step: value})


def parse_config_text(text: str, base: SimConfig | None = None) -> SimConfig:
    """Parse `key = value` lines into a SimConfig; unknown keys are errors.

    A run manifest's `code_version` line is accepted when it names this
    version of the simulator, so a manifest replays its run."""
    cfg = base if base is not None else SimConfig()
    for key, value in read_key_values(text):
        if key == "code_version":
            if value != __version__:
                raise ConfigError(key, f"written by scfto {value}, this is {__version__}")
            continue
        if key not in KEY_TABLE:
            raise ConfigError(key, "unknown configuration key")
        path, parse, _, _ = KEY_TABLE[key]
        try:
            cfg = _set_path(cfg, path, parse(value))
        except ValueError as exc:
            raise ConfigError(key, f"bad value {value!r} ({exc})") from exc
    cfg.validate()
    return cfg


def read_config_file(path: str) -> str:
    """The text of a config or scenario file; text that is not UTF-8 is a
    ConfigError naming the file, not a crash."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(path, f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                                f"({exc.reason})") from exc


def load_config(path: str, base: SimConfig | None = None) -> SimConfig:
    return parse_config_text(read_config_file(path), base=base)


def dump_config(cfg: SimConfig) -> str:
    """Render every key as parseable `key = value` lines (manifest echo)."""
    return "".join(f"{key} = {render(reduce(getattr, path, cfg))}\n"
                   for key, (path, _, render, _) in KEY_TABLE.items())
