"""Simulation configuration: parameter records, validation, and the flat
key-value config file format.

Defaults reproduce the standard experimental setup: a 100x100 m field with
the base station at (150, 50), 100 nodes, and the usual radio/trust
constants.  Unknown keys in a config file are rejected (typo protection).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    s = s.strip().lower()
    if s in ("", "none"):
        return None
    return s


# key -> (path into SimConfig, parser).  Paths are dotted attribute names;
# special keys are handled in load_config.
_SCALAR_KEYS = {
    "field_width_m": ("field_width_m", float),
    "field_height_m": ("field_height_m", float),
    "node_count": ("node_count", int),
    "malicious_fraction": ("malicious_fraction", float),
    "data_packet_bits": ("data_packet_bits", int),
    "control_packet_bits": ("control_packet_bits", int),
    "e_0": ("initial_energy_j", float),
    "rounds": ("rounds", int),
    "cycle_len_rounds": ("cycle_len_rounds", int),
    "seed": ("seed", int),
    "force_channel": ("force_channel", _parse_channel_force),
    "e_elec": ("radio.e_elec", float),
    "eps_fs": ("radio.eps_fs", float),
    "eps_amp": ("radio.eps_amp", float),
    "e_da": ("radio.e_da", float),
    "e_h": ("radio.e_h", float),
    "e_m": ("radio.e_m", float),
    "d_m_s": ("radio.d_m_s", float),
    "alpha_0": ("channel.alpha_0", float),
    "alpha_1": ("channel.alpha_1", float),
    "p_cd": ("effects.p_cd", float),
    "p_no": ("effects.p_no", float),
    "p_sf": ("attack.p_sf", float),
    "p_df": ("attack.p_df", float),
    "p_0": ("election.p0_init", float),
    "p_ct": ("election.p_ct", float),
    "p_t": ("election.p_t", float),
    "p_mt": ("election.p_mt", float),
    "p_dt": ("election.p_dt", float),
    "eta": ("election.eta", float),
    "n_lch": ("election.n_lch", int),
    "n_nch": ("join.n_nch", int),
    "t_nbr": ("outlier.t_nbr", float),
    "core_fraction": ("outlier.core_fraction", float),
    "th_d": ("outlier.th_d", float),
    "n_s": ("outlier.n_s", int),
    "dfr_bypass": ("trust_flc.dfr_bypass", float),
}


def parse_config_text(text: str, base: SimConfig | None = None) -> SimConfig:
    """Parse `key = value` lines into a SimConfig; unknown keys are errors."""
    cfg = base if base is not None else SimConfig()
    # accumulate per-record overrides, then rebuild the frozen dataclasses
    top: dict = {}
    sub: dict = {name: {} for name in
                 ("radio", "channel", "effects", "attack", "election",
                  "join", "outlier", "trust_flc")}
    flc_antecedents = {"dfd": {}, "dfr": {}}
    flc_trust: dict = {}
    bs = list(cfg.bs_position)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key in _SCALAR_KEYS:
                path, parser = _SCALAR_KEYS[key]
                parsed = parser(value)
                if "." in path:
                    record, fname = path.split(".")
                    sub[record][fname] = parsed
                else:
                    top[path] = parsed
            elif key == "tier_mix":
                top["tier_mix"] = _parse_tuple3(value)
            elif key == "bs_x":
                bs[0] = float(value)
            elif key == "bs_y":
                bs[1] = float(value)
            elif key.startswith("flc_"):
                _parse_flc_key(key, value, flc_antecedents, flc_trust)
            else:
                raise ConfigError(key, "unknown configuration key")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(key, f"bad value {value!r} ({exc})") from exc

    records = {}
    for name, overrides in sub.items():
        if name == "trust_flc":
            continue
        if overrides:
            records[name] = replace(getattr(cfg, name), **overrides)
    flc = cfg.trust_flc
    if flc_antecedents["dfd"] or flc_antecedents["dfr"] or flc_trust or sub["trust_flc"]:
        dfd = _merge_antecedents(flc.dfd_sets, flc_antecedents["dfd"])
        dfr = _merge_antecedents(flc.dfr_sets, flc_antecedents["dfr"])
        trust = dict(flc.trust_sets)
        trust.update(flc_trust)
        records["trust_flc"] = FLCConfig(
            dfd_sets=dfd, dfr_sets=dfr, trust_sets=trust,
            dfr_bypass=sub["trust_flc"].get("dfr_bypass", flc.dfr_bypass))
    new = replace(cfg, bs_position=tuple(bs), **top, **records)
    new.validate()
    return new


def _parse_flc_key(key: str, value: str, antecedents: dict, trust: dict) -> None:
    # flc_dfd_low_umf = 0:1, 0.2:1, 0.5:0   or   flc_trust_medium_trust = a,c,b
    parts = key.split("_")
    if parts[1] in ("dfd", "dfr"):
        if len(parts) != 4 or parts[2] not in ("low", "medium", "high") \
                or parts[3] not in ("umf", "lmf"):
            raise ConfigError(key, "unknown configuration key")
        antecedents[parts[1]].setdefault(parts[2], {})[parts[3]] = _parse_breakpoints(value)
    elif parts[1] == "trust":
        label = "_".join(parts[2:])
        if label not in TRUST_LABELS:
            raise ConfigError(key, f"unknown trust label {label!r}")
        a, c, b = _parse_tuple3(value)
        trust[label] = (a, c, b)
    else:
        raise ConfigError(key, "unknown configuration key")


def _merge_antecedents(base: dict, overrides: dict) -> dict:
    merged = {}
    for label in ("low", "medium", "high"):
        entry = dict(base[label])
        entry.update(overrides.get(label, {}))
        merged[label] = entry
    return merged


def load_config(path: str, base: SimConfig | None = None) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)


def dump_config(cfg: SimConfig) -> str:
    """Render a config as parseable `key = value` lines (manifest echo)."""
    lines = [
        f"field_width_m = {cfg.field_width_m!r}",
        f"field_height_m = {cfg.field_height_m!r}",
        f"bs_x = {cfg.bs_position[0]!r}",
        f"bs_y = {cfg.bs_position[1]!r}",
        f"node_count = {cfg.node_count}",
        f"malicious_fraction = {cfg.malicious_fraction!r}",
        "tier_mix = " + ",".join(repr(r) for r in cfg.tier_mix),
        f"data_packet_bits = {cfg.data_packet_bits}",
        f"control_packet_bits = {cfg.control_packet_bits}",
        f"e_0 = {cfg.initial_energy_j!r}",
        f"rounds = {cfg.rounds}",
        f"cycle_len_rounds = {cfg.cycle_len_rounds}",
        f"seed = {cfg.seed}",
        f"force_channel = {cfg.force_channel or 'none'}",
    ]
    for key, (path, _) in _SCALAR_KEYS.items():
        if "." not in path:
            continue
        record, fname = path.split(".")
        lines.append(f"{key} = {getattr(getattr(cfg, record), fname)!r}")
    for var, sets in (("dfd", cfg.trust_flc.dfd_sets), ("dfr", cfg.trust_flc.dfr_sets)):
        for label in ("low", "medium", "high"):
            for kind in ("umf", "lmf"):
                pts = sets[label][kind]
                rendered = ",".join(f"{x!r}:{g!r}" for x, g in pts)
                lines.append(f"flc_{var}_{label}_{kind} = {rendered}")
    for label in TRUST_LABELS:
        a, c, b = cfg.trust_flc.trust_sets[label]
        lines.append(f"flc_trust_{label} = {a!r},{c!r},{b!r}")
    return "\n".join(lines) + "\n"
