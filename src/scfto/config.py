"""Simulation configuration: parameter records, validation, and the flat
key-value config file format.

Defaults reproduce the standard experimental setup: a 100x100 m field with
the base station at (150, 50), 100 nodes, and the usual radio/trust
constants.  Unknown keys in a config file are rejected (typo protection).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

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

    def validate(self) -> None:
        for name in ("e_elec", "eps_fs", "eps_amp", "e_da", "e_h", "e_m", "d_m_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(name, "must be strictly positive")


@dataclass(frozen=True)
class ChannelParams:
    alpha_0: float = 3.0  # rate of the bad state
    alpha_1: float = 7.0  # rate of the good state

    @property
    def p_bad(self) -> float:
        return self.alpha_0 / (self.alpha_0 + self.alpha_1)

    @property
    def p_good(self) -> float:
        return self.alpha_1 / (self.alpha_0 + self.alpha_1)

    def validate(self) -> None:
        if self.alpha_0 <= 0:
            raise ConfigError("alpha_0", "must be strictly positive")
        if self.alpha_1 <= 0:
            raise ConfigError("alpha_1", "must be strictly positive")


@dataclass(frozen=True)
class ChannelEffects:
    p_cd: float = 0.2  # retransmission captured as a delay event
    p_no: float = 0.2  # forwarded packet not overheard under a bad channel

    def validate(self) -> None:
        for name in ("p_cd", "p_no"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(name, "must be a probability in [0,1]")


@dataclass(frozen=True)
class AttackParams:
    p_sf: float = 0.1  # base dropping probability
    p_df: float = 0.1  # base delaying probability

    def validate(self) -> None:
        for name in ("p_sf", "p_df"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(name, "must be a probability in [0,1]")
        if 3 * self.p_sf + 3 * self.p_df > 1.0 + 1e-12:
            raise ConfigError("p_sf", "tier-3 action probabilities exceed 1: "
                                      "need 3*p_sf + 3*p_df <= 1")


@dataclass(frozen=True)
class ElectionParams:
    p0_init: float = 0.07
    p_ct: float = 0.08
    p_t: float = 0.10
    p_mt: float = 0.12
    p_dt: float = 0.14
    eta: float = 0.4
    n_lch: int = 10  # head-history length

    def validate(self) -> None:
        for name in ("p0_init", "p_ct", "p_t", "p_mt", "p_dt"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(name, "must lie in (0,1)")
        if not (self.p_ct < self.p_t < self.p_mt < self.p_dt):
            raise ConfigError("p_ct", "need p_ct < p_t < p_mt < p_dt")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError("eta", "must lie in [0,1]")
        if self.n_lch < 1:
            raise ConfigError("n_lch", "must be >= 1")


@dataclass(frozen=True)
class JoinParams:
    n_nch: int = 2  # nearest-head candidate count

    def validate(self) -> None:
        if self.n_nch < 1:
            raise ConfigError("n_nch", "must be >= 1")


@dataclass(frozen=True)
class OutlierParams:
    t_nbr: float = 0.01       # neighbor radius in trust units
    core_fraction: float = 0.8
    th_d: float = 0.05        # convergence tolerance between rounds
    n_s: int = 60             # consecutive stable rounds required

    def validate(self) -> None:
        if self.t_nbr <= 0:
            raise ConfigError("t_nbr", "must be strictly positive")
        if not 0.0 < self.core_fraction < 1.0:
            raise ConfigError("core_fraction", "must lie in (0,1)")
        if self.th_d <= 0:
            raise ConfigError("th_d", "must be strictly positive")
        if self.n_s < 1:
            raise ConfigError("n_s", "must be >= 1")


TRUST_LABELS = (
    "complete_distrust",
    "intense_distrust",
    "distrust",
    "medium_distrust",
    "medium_trust",
    "trust",
    "complete_trust",
)

# breakpoints as (x, grade) pairs; antecedents are shared by DFD and DFR
_DEFAULT_ANTECEDENTS = {
    "low": {
        "umf": ((0.0, 1.0), (0.2, 1.0), (0.5, 0.0)),
        "lmf": ((0.0, 1.0), (0.1, 1.0), (0.4, 0.0)),
    },
    "medium": {
        "umf": ((0.2, 0.0), (0.5, 1.0), (0.8, 0.0)),
        "lmf": ((0.3, 0.0), (0.5, 1.0), (0.7, 0.0)),
    },
    "high": {
        "umf": ((0.5, 0.0), (0.8, 1.0), (1.0, 1.0)),
        "lmf": ((0.6, 0.0), (0.9, 1.0), (1.0, 1.0)),
    },
}


def _default_trust_triangles() -> dict:
    # peaks at k/6 with half-width 1/6, clipped to [0,1]; the end sets
    # become shoulders
    sets = {}
    for k, label in enumerate(TRUST_LABELS):
        c = k / 6.0
        a = max(0.0, c - 1.0 / 6.0)
        b = min(1.0, c + 1.0 / 6.0)
        sets[label] = (a, c, b)
    return sets


@dataclass(frozen=True)
class FLCConfig:
    """Membership-function coordinates for the trust inference controller."""

    dfd_sets: dict = field(default_factory=lambda: dict(_DEFAULT_ANTECEDENTS))
    dfr_sets: dict = field(default_factory=lambda: dict(_DEFAULT_ANTECEDENTS))
    trust_sets: dict = field(default_factory=_default_trust_triangles)
    dfr_bypass: float = 0.2  # below this forwarding rate, trust is hard 0

    def validate(self) -> None:
        for var, sets in (("dfd", self.dfd_sets), ("dfr", self.dfr_sets)):
            for label in ("low", "medium", "high"):
                if label not in sets:
                    raise ConfigError(f"flc_{var}_{label}", "missing antecedent set")
                for kind in ("umf", "lmf"):
                    pts = sets[label][kind]
                    xs = [x for x, _ in pts]
                    if xs != sorted(xs) or len(set(xs)) != len(xs):
                        raise ConfigError(f"flc_{var}_{label}_{kind}",
                                          "breakpoint x values must be strictly increasing")
                    if any(not 0.0 <= g <= 1.0 for _, g in pts):
                        raise ConfigError(f"flc_{var}_{label}_{kind}",
                                          "grades must lie in [0,1]")
        for label in TRUST_LABELS:
            if label not in self.trust_sets:
                raise ConfigError(f"flc_trust_{label}", "missing trust set")
            a, c, b = self.trust_sets[label]
            if not a <= c <= b:
                raise ConfigError(f"flc_trust_{label}", "need a <= c <= b")
        if not 0.0 <= self.dfr_bypass <= 1.0:
            raise ConfigError("dfr_bypass", "must lie in [0,1]")


@dataclass(frozen=True)
class SimConfig:
    field_width_m: float = 100.0
    field_height_m: float = 100.0
    bs_position: tuple = (150.0, 50.0)
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

    def validate(self) -> None:
        if self.field_width_m <= 0:
            raise ConfigError("field_width_m", "must be strictly positive")
        if self.field_height_m <= 0:
            raise ConfigError("field_height_m", "must be strictly positive")
        if self.node_count < 1:
            raise ConfigError("node_count", "must be >= 1")
        if not 0.0 <= self.malicious_fraction <= 1.0:
            raise ConfigError("malicious_fraction", "must lie in [0,1]")
        if len(self.tier_mix) != 3 or any(r < 0 for r in self.tier_mix):
            raise ConfigError("tier_mix", "must be three nonnegative ratios")
        if abs(sum(self.tier_mix) - 1.0) > 1e-9:
            raise ConfigError("tier_mix", "ratios must sum to 1 within 1e-9")
        if self.data_packet_bits <= 0:
            raise ConfigError("data_packet_bits", "must be strictly positive")
        if self.control_packet_bits <= 0:
            raise ConfigError("control_packet_bits", "must be strictly positive")
        if self.initial_energy_j <= 0:
            raise ConfigError("initial_energy_j", "must be strictly positive")
        if self.rounds < 1:
            raise ConfigError("rounds", "must be >= 1")
        if self.cycle_len_rounds < 1:
            raise ConfigError("cycle_len_rounds", "must be >= 1")
        if self.force_channel not in (None, "good", "bad"):
            raise ConfigError("force_channel", "must be 'good', 'bad', or unset")
        self.radio.validate()
        self.channel.validate()
        self.effects.validate()
        self.attack.validate()
        self.election.validate()
        self.join.validate()
        self.outlier.validate()
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
    blank lines are skipped and keys are lower-cased."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        yield key.strip().lower(), value.strip()


def _parse_tuple3(s: str) -> tuple:
    parts = [float(p) for p in s.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated values")
    return tuple(parts)


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


def _keys(prefix: str, kind: tuple, *names: str) -> list:
    # keys named like their field
    return [(name, prefix + name, kind) for name in names]


# file key -> (path into SimConfig, parser, renderer), in manifest order.  A
# path step is an attribute name, a dict key or a tuple index.
KEY_TABLE = {
    key: (tuple(int(s) if s.isdigit() else s for s in path.split(".")), *kind)
    for key, path, kind in [
        *_keys("", _FLOAT, "field_width_m", "field_height_m"),
        ("bs_x", "bs_position.0", _FLOAT),
        ("bs_y", "bs_position.1", _FLOAT),
        ("node_count", "node_count", _INT),
        ("malicious_fraction", "malicious_fraction", _FLOAT),
        ("tier_mix", "tier_mix", _TUPLE3),
        *_keys("", _INT, "data_packet_bits", "control_packet_bits"),
        ("e_0", "initial_energy_j", _FLOAT),
        *_keys("", _INT, "rounds", "cycle_len_rounds", "seed"),
        ("force_channel", "force_channel", _CHANNEL),
        *_keys("radio.", _FLOAT, "e_elec", "eps_fs", "eps_amp", "e_da", "e_h", "e_m",
               "d_m_s"),
        *_keys("channel.", _FLOAT, "alpha_0", "alpha_1"),
        *_keys("effects.", _FLOAT, "p_cd", "p_no"),
        *_keys("attack.", _FLOAT, "p_sf", "p_df"),
        ("p_0", "election.p0_init", _FLOAT),
        *_keys("election.", _FLOAT, "p_ct", "p_t", "p_mt", "p_dt", "eta"),
        ("n_lch", "election.n_lch", _INT),
        ("n_nch", "join.n_nch", _INT),
        *_keys("outlier.", _FLOAT, "t_nbr", "core_fraction", "th_d"),
        ("n_s", "outlier.n_s", _INT),
        ("dfr_bypass", "trust_flc.dfr_bypass", _FLOAT),
        *[(f"flc_{var}_{label}_{kind}", f"trust_flc.{var}_sets.{label}.{kind}",
           _BREAKPOINTS)
          for var in ("dfd", "dfr") for label in ("low", "medium", "high")
          for kind in ("umf", "lmf")],
        *[(f"flc_trust_{label}", f"trust_flc.trust_sets.{label}", _TUPLE3)
          for label in TRUST_LABELS],
    ]
}


def _get(obj, step):
    return obj[step] if isinstance(obj, (dict, tuple)) else getattr(obj, step)


def _set_path(obj, path: tuple, value):
    """Copy of `obj` with the value at `path` replaced."""
    step = path[0]
    if len(path) > 1:
        value = _set_path(_get(obj, step), path[1:], value)
    if isinstance(obj, dict):
        return {**obj, step: value}
    if isinstance(obj, tuple):
        return obj[:step] + (value,) + obj[step + 1:]
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
        path, parse, _ = KEY_TABLE[key]
        try:
            cfg = _set_path(cfg, path, parse(value))
        except ValueError as exc:
            raise ConfigError(key, f"bad value {value!r} ({exc})") from exc
    cfg.validate()
    return cfg


def load_config(path: str, base: SimConfig | None = None) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)


def dump_config(cfg: SimConfig) -> str:
    """Render every key as parseable `key = value` lines (manifest echo)."""
    return "".join(f"{key} = {render(reduce(_get, path, cfg))}\n"
                   for key, (path, _, render) in KEY_TABLE.items())
