"""Configuration records, validation, and the flat key-value file format."""
import math
import re
import sys
from dataclasses import FrozenInstanceError, replace
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import assume, given, settings, strategies as st

from scfto.config import (
    ANTECEDENT_LABELS,
    KEY_TABLE,
    TRUST_LABELS,
    AttackParams,
    ChannelEffects,
    ChannelParams,
    ConfigError,
    ElectionParams,
    FLCConfig,
    JoinParams,
    OutlierParams,
    PiecewiseLinearMF,
    RadioParams,
    SimConfig,
    _FLC_CHECKED,
    _SIM_CHECKED,
    _set_path,
    dump_config,
    parse_config_text,
)
from scfto.network import apportion_tiers, init_network
from scfto.protocol import run_round


def test_defaults_validate():
    SimConfig().validate()


def test_crossover_distance_from_default_radio():
    assert RadioParams().d_0 == pytest.approx(87.706, abs=1e-3)


def test_channel_stationary_probabilities():
    ch = ChannelParams(alpha_0=3.0, alpha_1=7.0)
    assert ch.p_bad == pytest.approx(0.3)


def test_field_diagonal():
    cfg = SimConfig(field_width_m=30.0, field_height_m=40.0)
    assert cfg.field_diagonal_m == pytest.approx(50.0)


def test_retransmit_interval_is_half_listen_window():
    cfg = SimConfig()
    assert cfg.retransmit_interval_s == pytest.approx(0.5 * cfg.radio.d_m_s)


def test_attack_tier3_probability_budget():
    with pytest.raises(ConfigError):
        SimConfig(attack=AttackParams(p_sf=0.2, p_df=0.2)).validate()
    SimConfig(attack=AttackParams(p_sf=0.1, p_df=0.1)).validate()


def test_election_bracket_ordering_enforced():
    with pytest.raises(ConfigError):
        SimConfig(election=ElectionParams(p_ct=0.12, p_t=0.10)).validate()


def test_tier_mix_must_sum_to_one():
    with pytest.raises(ConfigError):
        SimConfig(tier_mix=(0.5, 0.4, 0.2)).validate()
    # added left to right these miss 1 by just over 1e-9; `sum` on Python
    # 3.12 and later compensates the rounding and passed them
    with pytest.raises(ConfigError):
        SimConfig(tier_mix=(0.44778769732074586, 0.4866261285215309,
                            0.06558617315772321)).validate()


@pytest.mark.parametrize("total,mix,expected", [
    (10, (0.3, 0.4, 0.3), (3, 4, 3)),
    (30, (0.3, 0.4, 0.3), (9, 12, 9)),
    (3, (0.3, 0.4, 0.3), (1, 1, 1)),
    (0, (0.3, 0.4, 0.3), (0, 0, 0)),
    (7, (1.0, 0.0, 0.0), (7, 0, 0)),
])
def test_tier_apportionment(total, mix, expected):
    assert apportion_tiers(total, mix) == expected


def test_tier_apportionment_conserves_total():
    for total in range(0, 50):
        assert sum(apportion_tiers(total, (0.3, 0.4, 0.3))) == total


def test_parse_scalar_keys():
    cfg = parse_config_text("""
        # comment line
        node_count = 42
        malicious_fraction = 0.2
        p_sf = 0.05
        alpha_0 = 2.5
        e_0 = 2.0
        seed = 99
    """)
    assert cfg.node_count == 42
    assert cfg.malicious_fraction == 0.2
    assert cfg.attack.p_sf == 0.05
    assert cfg.channel.alpha_0 == 2.5
    assert cfg.initial_energy_j == 2.0
    assert cfg.seed == 99


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("node_cuont = 42\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("node_count = banana\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError) as err:
        parse_config_text("# header\nnode_count = 9\n\njust some words\n")
    assert err.value.field == "line 4"


def test_parse_membership_override():
    cfg = parse_config_text(
        "flc_dfr_low_umf = 0:1, 0.25:1, 0.6:0\n"
        "flc_trust_medium_trust = 0.4,0.6,0.8\n")
    assert cfg.trust_flc.dfr_low_umf == ((0.0, 1.0), (0.25, 1.0), (0.6, 0.0))
    assert cfg.trust_flc.trust_medium_trust == (0.4, 0.6, 0.8)
    # untouched sets keep their defaults
    assert cfg.trust_flc.dfd_low_umf == ((0.0, 1.0), (0.2, 1.0), (0.5, 0.0))


def test_lower_membership_above_upper_is_a_config_error():
    # equal functions are a valid (degenerate) footprint
    FLCConfig(dfr_medium_lmf=FLCConfig().dfr_medium_umf).validate()
    # a spike that falls between the points of a 0.001 grid
    spike = ((0.0004, 0.0), (0.0005, 0.5), (0.0006, 0.0))
    with pytest.raises(ConfigError) as err:
        FLCConfig(dfr_medium_lmf=spike).validate()
    assert err.value.field == "flc_dfr_medium_lmf"
    with pytest.raises(ConfigError) as err:
        parse_config_text("flc_dfd_low_umf = 0.5:0.0\n")
    assert err.value.field == "flc_dfd_low_lmf"


def test_membership_at_a_breakpoint_is_its_grade():
    # interpolating to the end of a segment gives 0.07 + (0.01 - 0.07) * 1.0,
    # which is 0.010000000000000009, not the listed 0.01
    points = ((0.0, 0.07), (0.63, 0.01), (1.0, 0.84))
    assert PiecewiseLinearMF(points)(0.63) == 0.01
    assert [PiecewiseLinearMF(points)(x) for x, _ in points] == [0.07, 0.01, 0.84]
    # every listed lower grade lies at or below the upper one, so the
    # footprint is valid; interpolated to the end of its first segment,
    # this upper MF would read 0.009999999999999995 at 0.63
    upper = ((0.0, 0.1), (0.63, 0.01), (1.0, 0.84))
    FLCConfig(dfr_medium_umf=upper, dfr_medium_lmf=points).validate()


def test_dump_config_round_trips():
    cfg = parse_config_text("node_count = 17\np_df = 0.08\nbs_x = 120.0\n")
    again = parse_config_text(dump_config(cfg))
    assert again == cfg


def unit(**kw):
    return st.floats(min_value=0.0, max_value=1.0, **kw)


def positive():
    return st.floats(min_value=0.0, max_value=1e3, exclude_min=True)


def counts():
    return st.integers(min_value=1, max_value=10_000)


def increasing(n, elements):
    return st.lists(elements, min_size=n, max_size=n, unique=True).map(sorted)


@st.composite
def sim_configs(draw):
    mix_a = draw(unit())
    mix_b = draw(st.floats(min_value=0.0, max_value=1.0 - mix_a))
    p_sf = draw(st.floats(min_value=0.0, max_value=1 / 3))
    open_unit = unit(exclude_min=True, exclude_max=True)
    p_0 = draw(open_unit)
    p_ct, p_t, p_mt, p_dt = draw(increasing(4, open_unit))
    eta = draw(unit(exclude_max=True))
    # only rates whose rotation window 1/p_ch is finite run
    assume(1.0 / p_0 <= sys.float_info.max)
    assume((1.0 - eta) * p_ct > 0.0 and 1.0 / ((1.0 - eta) * p_ct) <= sys.float_info.max)

    def breakpoints(grades):
        xs = draw(increasing(draw(st.integers(1, 4)), unit()))
        return tuple((x, draw(grades)) for x in xs)

    def antecedents(var):
        # a scaled-down copy of the upper MF lies at or below it at every
        # breakpoint, which is where validation compares the two; one UMF
        # with every grade above 0 covers [0,1], as validation requires
        fields = {}
        covering = draw(st.sampled_from(ANTECEDENT_LABELS))
        for label in ANTECEDENT_LABELS:
            umf = breakpoints(unit(exclude_min=label == covering))
            scale = draw(unit())
            fields[f"{var}_{label}_umf"] = umf
            fields[f"{var}_{label}_lmf"] = tuple((x, g * scale) for x, g in umf)
        return fields

    return SimConfig(
        field_width_m=draw(positive()), field_height_m=draw(positive()),
        bs_x=draw(st.floats(-1e3, 1e3)), bs_y=draw(st.floats(-1e3, 1e3)),
        node_count=draw(counts()), malicious_fraction=draw(unit()),
        tier_mix=(mix_a, mix_b, 1.0 - mix_a - mix_b),
        data_packet_bits=draw(counts()), control_packet_bits=draw(counts()),
        initial_energy_j=draw(positive()),
        radio=RadioParams(*(draw(positive()) for _ in range(7))),
        channel=ChannelParams(draw(positive()), draw(positive())),
        effects=ChannelEffects(draw(unit()), draw(unit())),
        attack=AttackParams(p_sf, draw(st.floats(min_value=0.0, max_value=1 / 3 - p_sf))),
        election=ElectionParams(p_0, p_ct, p_t, p_mt, p_dt, eta, draw(counts())),
        join=JoinParams(draw(counts())),
        outlier=OutlierParams(draw(positive()), draw(open_unit), draw(positive()),
                              draw(counts())),
        trust_flc=FLCConfig(
            **antecedents("dfd"), **antecedents("dfr"),
            **{f"trust_{label}": tuple(draw(st.lists(unit(), min_size=3, max_size=3).map(sorted)))
               for label in TRUST_LABELS},
            dfr_bypass=draw(unit())),
        rounds=draw(counts()), cycle_len_rounds=draw(counts()),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        force_channel=draw(st.sampled_from([None, "good", "bad"])))


@settings(max_examples=200, deadline=None)
@given(sim_configs())
def test_dump_parse_round_trip_every_key(cfg):
    cfg.validate()
    text = dump_config(cfg)
    keys = [line.split(" = ", 1)[0] for line in text.splitlines()]
    assert keys == list(KEY_TABLE)  # every key once, in table order
    assert parse_config_text(text) == cfg


@settings(max_examples=200, deadline=None)
@given(sim_configs(), st.integers(1, 25), st.integers(1, 30))
def test_every_config_validate_accepts_runs(source, node_count, rounds):
    cfg = replace(source, node_count=node_count, rounds=rounds)
    cfg.validate()
    state = init_network(cfg)
    for r in range(rounds):
        run_round(state, r)


def test_round_trip_strategy_moves_every_key():
    # each table key renders differently from the default in some example
    default = dict(line.split(" = ", 1) for line in dump_config(SimConfig()).splitlines())
    moved = set()

    @settings(max_examples=50, deadline=None)
    @given(sim_configs())
    def collect(cfg):
        for line in dump_config(cfg).splitlines():
            key, value = line.split(" = ", 1)
            if value != default[key]:
                moved.add(key)

    collect()
    assert moved == set(KEY_TABLE)


def test_base_station_position_keys():
    cfg = parse_config_text("bs_x = 10\nbs_y = 20\n")
    assert (cfg.bs_x, cfg.bs_y) == (10.0, 20.0)


@pytest.mark.parametrize("line,key", [
    ("bs_x = 1e200", "bs_x"),
    ("bs_y = -1.2e77", "bs_y"),
    ("field_width_m = 1e300", "field_width_m"),
    ("field_height_m = 1e300", "field_height_m"),
    ("field_width_m = 1.7e308\nfield_height_m = 1.7e308", "field_width_m"),  # inf diagonal
])
def test_a_link_too_long_to_cost_is_refused_by_its_key(line, key):
    # `phy.tx_energy`'s multipath term d ** 4 raised OverflowError mid-run
    with pytest.raises(ConfigError, match=r"d \*\* 4 overflows") as err:
        parse_config_text(line)
    assert err.value.field == key


def test_the_longest_costable_link_runs():
    # 1.1e77 ** 4 is finite, so the round costs it instead of raising
    cfg = parse_config_text("bs_x = 1.1e77\nnode_count = 10\nrounds = 5\n")
    state = init_network(cfg)
    for r in range(cfg.rounds):
        run_round(state, r)


def test_validation_catches_nonpositive_energy():
    with pytest.raises(ConfigError) as err:
        SimConfig(initial_energy_j=0.0).validate()
    assert err.value.field == "e_0"


DEFAULT_VALUES = dict(line.split(" = ", 1) for line in dump_config(SimConfig()).splitlines())


@pytest.mark.parametrize("key", list(KEY_TABLE))
def test_every_key_refuses_non_finite_values(key):
    # put each bad token in place of each number of the key's default value:
    # every element of a tuple and both coordinates of every breakpoint
    parts = re.split(r"([,:])", DEFAULT_VALUES[key])
    for i in range(0, len(parts), 2):
        for bad in ("nan", "inf", "-inf"):
            value = "".join(parts[:i] + [bad] + parts[i + 1:])
            with pytest.raises(ConfigError) as err:
                parse_config_text(f"{key} = {value}\n")
            assert err.value.field == key, value


@pytest.mark.parametrize("cfg,key", [
    (SimConfig(initial_energy_j=math.nan), "e_0"),
    (SimConfig(initial_energy_j=math.inf), "e_0"),
    (SimConfig(bs_x=math.nan), "bs_x"),
    (SimConfig(bs_y=-math.inf), "bs_y"),
    (SimConfig(field_width_m=math.inf), "field_width_m"),
    (SimConfig(tier_mix=(math.nan, 0.5, 0.5)), "tier_mix"),
    (SimConfig(outlier=OutlierParams(t_nbr=math.nan)), "t_nbr"),
    (SimConfig(election=ElectionParams(p0_init=2.0)), "p_0"),
    # eta = 1 zeroes the election probability of a member at its cluster's
    # energy minimum, and the rotation window divides by it
    (SimConfig(election=ElectionParams(eta=1.0)), "eta"),
    # integer keys refuse a float
    *[(_set_path(SimConfig(), path, 2.5), key)
      for key, (path, parse, _, _) in KEY_TABLE.items() if parse is int],
    # the base station's coordinates are one number each: a pair where a
    # coordinate goes, and a coordinate so far out that the uplink's
    # d ** 4 overflows
    (SimConfig(bs_x=(150.0, 50.0)), "bs_x"),
    (SimConfig(bs_x=-1e100), "bs_x"),
    # a string where a number goes: every float key, a ratio, a breakpoint
    # coordinate and a triangle corner
    *[(_set_path(SimConfig(), path, DEFAULT_VALUES[key]), key)
      for key, (path, parse, _, _) in KEY_TABLE.items() if parse is float],
    (SimConfig(tier_mix=("a", 0.5, 0.5)), "tier_mix"),
    (_set_path(SimConfig(), KEY_TABLE["flc_dfd_low_umf"][0],
               (("0", 1.0), (0.2, 1.0), (0.5, 0.0))), "flc_dfd_low_umf"),
    (_set_path(SimConfig(), KEY_TABLE["flc_dfr_high_lmf"][0],
               ((0.6, 0.0), (0.9, "1"), (1.0, 1.0))), "flc_dfr_high_lmf"),
    (_set_path(SimConfig(), KEY_TABLE["flc_trust_trust"][0], (0.6, "0.8", 1.0)),
     "flc_trust_trust"),
    # and a triangle with four corners
    (_set_path(SimConfig(), KEY_TABLE["flc_trust_trust"][0], (0.6, 0.8, 1.0, 1.0)),
     "flc_trust_trust"),
    # a bool where a number goes: it compares as 0 or 1, so a range check
    # alone passes it, but a manifest renders it as True or False, which no
    # parser reads back
    (SimConfig(rounds=True), "rounds"),
    (SimConfig(seed=False), "seed"),
    (SimConfig(malicious_fraction=False), "malicious_fraction"),
    (SimConfig(tier_mix=(True, False, False)), "tier_mix"),
    (SimConfig(bs_x=False), "bs_x"),  # False equals 0.0, a valid coordinate
    (SimConfig(trust_flc=FLCConfig(dfr_bypass=False)), "dfr_bypass"),
    (_set_path(SimConfig(), KEY_TABLE["flc_trust_complete_trust"][0],
               (*FLCConfig().trust_complete_trust[:2], True)), "flc_trust_complete_trust"),
    (_set_path(SimConfig(), KEY_TABLE["flc_dfd_low_umf"][0],
               ((False, 1.0), (0.2, 1.0), (0.5, 0.0))), "flc_dfd_low_umf"),
    (_set_path(SimConfig(), KEY_TABLE["flc_dfr_high_lmf"][0],
               ((0.6, 0.0), (0.9, 1.0), (1.0, True))), "flc_dfr_high_lmf"),
    *[(_set_path(SimConfig(), path, True), key)
      for key, (path, parse, _, _) in KEY_TABLE.items()
      if parse in (float, int) and key not in ("rounds", "seed")],
    # a config holds only what its file can.  These ran, though no file
    # could hold them ...
    (SimConfig(malicious_fraction=Fraction(1, 5)), "malicious_fraction"),
    (SimConfig(bs_x=Fraction(150)), "bs_x"),
    (SimConfig(trust_flc=FLCConfig(dfr_bypass=Fraction(1, 5))), "dfr_bypass"),
    (SimConfig(tier_mix=[0.3, 0.4, 0.3]), "tier_mix"),
    (_set_path(SimConfig(), KEY_TABLE["flc_dfd_high_umf"][0],
               [(0.5, 0.0), (0.8, 1.0), (1.0, 1.0)]), "flc_dfd_high_umf"),
    (SimConfig(trust_flc=FLCConfig(trust_complete_distrust=[0.0, 0.0, 1 / 6])),
     "flc_trust_complete_distrust"),
    # ... and these crashed: a Decimal, an int too large for a float, and a
    # controller value of the wrong shape
    (SimConfig(malicious_fraction=Decimal("0.2")), "malicious_fraction"),
    (SimConfig(field_width_m=Decimal(100)), "field_width_m"),
    (SimConfig(field_width_m=10**400), "field_width_m"),
    (SimConfig(bs_x=10**400), "bs_x"),
    (SimConfig(trust_flc=FLCConfig(dfd_low_lmf=())), "flc_dfd_low_lmf"),
    (_set_path(SimConfig(), KEY_TABLE["flc_dfr_medium_umf"][0],
               ((0.2, 0.0, 0.0), (0.5, 1.0), (0.8, 0.0))), "flc_dfr_medium_umf"),
    (SimConfig(trust_flc=FLCConfig(dfd_low_umf=None)), "flc_dfd_low_umf"),
    (SimConfig(trust_flc=FLCConfig(dfr_low_umf=((0.0, 1.0), (Fraction(1, 5), 1.0), (0.5, 0.0)))),
     "flc_dfr_low_umf"),
    # an integer no manifest can write: it ran, and then stopped the manifest
    # at its second line
    (SimConfig(node_count=3, rounds=2, seed=10**5000), "seed"),
    (SimConfig(rounds=10**400), "rounds"),
    # a sub-record that is not its dataclass, named by its first file key:
    # a missing radio crashed, and a missing controller ran as the default
    (SimConfig(radio=None), "e_elec"),
    (SimConfig(trust_flc=None), "dfr_bypass"),
    (SimConfig(join={"n_nch": 2}), "n_nch"),
    # a rate whose rotation window 1/p_ch is not finite: once a node had
    # led, the window overflowed (p_0) or divided by zero (p_ct, since
    # (1 - eta) * p_ct rounds to 0)
    (SimConfig(election=ElectionParams(p0_init=5e-324)), "p_0"),
    (SimConfig(election=ElectionParams(p_ct=5e-324, eta=0.5)), "p_ct"),
    # a triangle missing its third corner
    (SimConfig(trust_flc=FLCConfig(trust_distrust=(1 / 6, 1 / 3))), "flc_trust_distrust"),
])
def test_python_built_configs_are_checked_by_file_key(cfg, key):
    assert_refused(cfg, key)


def assert_refused(cfg, key):
    # both where a config is checked and where a run starts
    for check in (cfg.validate, lambda: init_network(cfg)):
        with pytest.raises(ConfigError) as err:
            check()
        assert err.value.field == key


_FOREIGN = [True, False, Fraction(1, 5), Decimal("0.5"), "0.5", [0.5], None, 10**400, math.nan]


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(list(KEY_TABLE)), value=st.sampled_from(_FOREIGN))
def test_a_value_no_file_can_hold_is_refused_by_its_key(key, value):
    path, _, _, _ = KEY_TABLE[key]
    # a file can hold an unset channel
    assume(not (key == "force_channel" and value is None))
    assert_refused(_set_path(SimConfig(), path, value), key)


@settings(max_examples=50, deadline=None)
@given(source=sim_configs())
def test_each_compiled_reader_reads_its_keys_path(source):
    # on the default config and on one built key by key from valid values,
    # every checked key's reader returns the object its path walk reaches
    built = SimConfig()
    for key, (path, _, _, _) in KEY_TABLE.items():
        built = _set_path(built, path, attrgetter(".".join(path))(source))
    assert sorted(key for key, _, _ in _SIM_CHECKED + _FLC_CHECKED) == sorted(KEY_TABLE)
    for cfg in (SimConfig(), built):
        for rows, root in ((_SIM_CHECKED, cfg), (_FLC_CHECKED, cfg.trust_flc)):
            for key, read, _ in rows:
                assert read(root) is attrgetter(".".join(KEY_TABLE[key][0]))(cfg), key


def test_controller_refuses_non_finite_breakpoints_and_triangles():
    with pytest.raises(ConfigError) as err:
        FLCConfig(dfd_low_umf=((0.0, 1.0), (math.nan, 1.0), (0.5, 0.0))).validate()
    assert err.value.field == "flc_dfd_low_umf"
    with pytest.raises(ConfigError) as err:
        FLCConfig(trust_trust=(0.6, 0.8, math.inf)).validate()
    assert err.value.field == "flc_trust_trust"


def test_editing_one_default_controller_leaves_the_others_alone():
    default = FLCConfig().dfd_low_umf
    edited = FLCConfig()
    with pytest.raises(FrozenInstanceError):
        edited.dfd_low_umf = ((0.0, 1.0), (0.3, 1.0), (0.6, 0.0))
    assert edited.dfd_low_umf == default
    edited = replace(edited, dfd_low_umf=((0.0, 1.0), (0.3, 1.0), (0.6, 0.0)))
    assert edited.dfr_low_umf == default
    fresh = FLCConfig()
    assert fresh.dfd_low_umf == fresh.dfr_low_umf == default


def flc_with(var: str, **umfs) -> FLCConfig:
    """The default controller with some `var` UMFs replaced, each LMF set
    equal to its UMF."""
    return FLCConfig(**{f"{var}_{label}_{kind}": umf
                        for label, umf in umfs.items() for kind in ("umf", "lmf")})


def test_every_inferred_point_needs_an_upper_grade_above_zero():
    # low and medium meet at 0.3 with both grades 0: no rule fires there
    gap = dict(low=((0.0, 1.0), (0.2, 1.0), (0.3, 0.0)),
               medium=((0.3, 0.0), (0.4, 1.0), (0.5, 0.0)),
               high=((0.9, 0.0), (1.0, 1.0)))
    for var in ("dfd", "dfr"):
        with pytest.raises(ConfigError, match=r"x=0\.3$") as err:
            flc_with(var, **gap).validate()
        assert err.value.field == f"flc_{var}_low_umf"
    # a gap from 0.5 to 0.6 between the medium and the high set
    with pytest.raises(ConfigError, match=r"x=0\.5$"):
        flc_with("dfd", medium=((0.2, 0.0), (0.4, 1.0), (0.5, 0.0)),
                 high=((0.6, 0.0), (0.8, 1.0), (1.0, 1.0))).validate()
    # ... and at the ends of the range, where a set's edge grade continues
    with pytest.raises(ConfigError, match=r"x=1\.0$") as err:
        flc_with("dfd", high=((0.5, 0.0), (0.8, 1.0), (1.0, 0.0))).validate()
    assert err.value.field == "flc_dfd_high_umf"
    # dfr only needs cover from the bypass rate up, where inference starts
    no_low = dict(low=((0.0, 0.0), (0.25, 0.0)), medium=((0.1, 0.0), (0.25, 1.0), (0.8, 0.0)))
    flc_with("dfr", **no_low).validate()
    with pytest.raises(ConfigError, match=r"x=0\.0$") as err:
        flc_with("dfd", **no_low).validate()
    assert err.value.field == "flc_dfd_low_umf"
    with pytest.raises(ConfigError, match=r"x=0\.1$"):
        replace(flc_with("dfr", **no_low), dfr_bypass=0.1).validate()
