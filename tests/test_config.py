"""Configuration records, validation, and the flat key-value file format."""
import pytest
from hypothesis import given, settings, strategies as st

from scfto.config import (
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
    RadioParams,
    SimConfig,
    dump_config,
    parse_config_text,
)
from scfto.network import apportion_tiers


def test_defaults_validate():
    SimConfig().validate()


def test_crossover_distance_from_default_radio():
    assert RadioParams().d_0 == pytest.approx(87.706, abs=1e-3)


def test_channel_stationary_probabilities():
    ch = ChannelParams(alpha_0=3.0, alpha_1=7.0)
    assert ch.p_bad == pytest.approx(0.3)
    assert ch.p_good == pytest.approx(0.7)


def test_field_diagonal():
    cfg = SimConfig(field_width_m=30.0, field_height_m=40.0)
    assert cfg.field_diagonal_m == pytest.approx(50.0)


def test_retransmit_interval_is_half_listen_window():
    cfg = SimConfig()
    assert cfg.retransmit_interval_s == pytest.approx(0.5 * cfg.radio.d_m_s)


def test_attack_tier3_probability_budget():
    with pytest.raises(ConfigError):
        AttackParams(p_sf=0.2, p_df=0.2).validate()
    AttackParams(p_sf=0.1, p_df=0.1).validate()


def test_election_bracket_ordering_enforced():
    with pytest.raises(ConfigError):
        ElectionParams(p_ct=0.12, p_t=0.10).validate()


def test_tier_mix_must_sum_to_one():
    with pytest.raises(ConfigError):
        SimConfig(tier_mix=(0.5, 0.4, 0.2)).validate()


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
    assert cfg.trust_flc.dfr_sets["low"]["umf"] == ((0.0, 1.0), (0.25, 1.0), (0.6, 0.0))
    assert cfg.trust_flc.trust_sets["medium_trust"] == (0.4, 0.6, 0.8)
    # untouched sets keep their defaults
    assert cfg.trust_flc.dfd_sets["low"]["umf"] == ((0.0, 1.0), (0.2, 1.0), (0.5, 0.0))


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
    p_ct, p_t, p_mt, p_dt = draw(increasing(4, open_unit))

    def breakpoints():
        xs = draw(increasing(draw(st.integers(1, 4)), unit()))
        return tuple((x, draw(unit())) for x in xs)

    def antecedents():
        return {label: {"umf": breakpoints(), "lmf": breakpoints()}
                for label in ("low", "medium", "high")}

    return SimConfig(
        field_width_m=draw(positive()), field_height_m=draw(positive()),
        bs_position=(draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))),
        node_count=draw(counts()), malicious_fraction=draw(unit()),
        tier_mix=(mix_a, mix_b, 1.0 - mix_a - mix_b),
        data_packet_bits=draw(counts()), control_packet_bits=draw(counts()),
        initial_energy_j=draw(positive()),
        radio=RadioParams(*(draw(positive()) for _ in range(7))),
        channel=ChannelParams(draw(positive()), draw(positive())),
        effects=ChannelEffects(draw(unit()), draw(unit())),
        attack=AttackParams(p_sf, draw(st.floats(min_value=0.0, max_value=1 / 3 - p_sf))),
        election=ElectionParams(draw(open_unit), p_ct, p_t, p_mt, p_dt, draw(unit()),
                                draw(counts())),
        join=JoinParams(draw(counts())),
        outlier=OutlierParams(draw(positive()), draw(open_unit), draw(positive()),
                              draw(counts())),
        trust_flc=FLCConfig(
            dfd_sets=antecedents(), dfr_sets=antecedents(),
            trust_sets={label: tuple(draw(st.lists(unit(), min_size=3, max_size=3).map(sorted)))
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
    assert cfg.bs_position == (10.0, 20.0)


def test_validation_catches_nonpositive_energy():
    with pytest.raises(ConfigError):
        SimConfig(initial_energy_j=0.0).validate()
