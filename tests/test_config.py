"""Config schema: strict validation, unknown-key rejection, round trips."""

import copy
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnlslab.config import (ConfigError, GaugeCheckBlock, GnAuditBlock, GridBlock,
                            OutputsBlock, RunConfig, ScanPair, ThresholdScanBlock,
                            config_to_dict, load_config, parse_config)
from dnlslab.grid import TorusGrid
from dnlslab.initial_data import DataSpec

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED = sorted(os.path.join(CONFIG_DIR, name) for name in os.listdir(CONFIG_DIR))
# full canonical documents: every known key is present in every block
FULL_DOCS = [config_to_dict(RunConfig())] + [config_to_dict(load_config(p))
                                             for p in SHIPPED]
# derandomized so that tier-1 stays deterministic
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-300, 300) | st.floats()
    | st.sampled_from(["csv", "frames", "dnls2", "etdrk4", "multimode", "bump", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["L", "delta", "N", "dt", "kind", "q"]), inner,
                      max_size=3),
    max_leaves=6)


def near(v):
    """The value v itself, a value of the same JSON kind, or any JSON value."""
    if isinstance(v, bool):
        same = st.booleans()
    elif isinstance(v, int):
        same = st.integers(-2, 300)
    elif isinstance(v, float) or v is None:
        same = st.floats(1e-6, 10.0) | st.floats()
    elif isinstance(v, str):
        same = st.sampled_from(["csv", "json", "frames", "plot", "dnls2", "etdrk4",
                                "none", "multimode", "bump", "plane_wave"])
    elif isinstance(v, list):
        same = st.lists(near(v[0]) if v else st.integers(-50, 50), max_size=4)
    else:
        same = st.fixed_dictionaries({}, optional={k: near(x) for k, x in v.items()})
    return st.just(v) | same | json_values


def test_empty_document_gives_defaults():
    cfg = parse_config({})
    assert cfg == RunConfig()


def test_round_trip_idempotent():
    doc = {
        "grid": {"L": 1.0, "N": 64},
        "sim": {"dt": 1e-3, "T": 0.5, "record_stride": 10, "equation": "dnls2",
                "beta": 0.5},
        "data": {"kind": "multimode", "modes": [1, -2], "amplitudes": [1.0, 0.3],
                 "target_mass": 2.0, "seed": 3},
        "delta": 0.3,
        "outputs": {"dir": "results", "formats": ["csv", "json", "frames"]},
        "threshold_scan": {"mass_fractions": [0.5],
                           "pairs": [{"L": 1.0, "delta": 0.5, "dt": 1e-4, "N": 64}]},
    }
    cfg = parse_config(doc)
    again = parse_config(config_to_dict(cfg))
    assert again == cfg
    assert config_to_dict(again) == config_to_dict(cfg)


def test_pair_without_dt_and_N_round_trips():
    cfg = parse_config({"threshold_scan": {"pairs": [{"L": 1.0, "delta": 0.5}]}})
    assert cfg.threshold_scan.pairs[0].dt is None
    assert cfg.threshold_scan.pairs[0].N is None
    assert parse_config(config_to_dict(cfg)) == cfg


@PROPERTY
@given(doc=st.sampled_from(FULL_DOCS).flatmap(near))
def test_any_document_is_rejected_or_round_trips(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    echo = config_to_dict(cfg)
    json.dumps(echo, allow_nan=False)  # strict JSON
    assert parse_config(echo) == cfg


@PROPERTY
@given(data=st.data())
def test_one_unknown_key_anywhere_is_rejected(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(FULL_DOCS)))
    blocks = [doc] + [v for v in doc.values() if isinstance(v, dict)]
    target = data.draw(st.sampled_from(blocks + doc["threshold_scan"]["pairs"]))
    key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in target))
    target[key] = data.draw(json_values)
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(doc)


@pytest.mark.parametrize("doc", [
    {"grdi": {}},
    {"grid": {"L": 1.0, "M": 64}},
    {"sim": {"dt": 1e-3, "Tmax": 1.0}},
    {"data": {"kind": "plane_wave", "extra": 1}},
    {"outputs": {"dir": "x", "format": []}},
    {"gn_audit": {"fields": 10}},
    {"threshold_scan": {"pairs": [{"L": 1.0, "delta": 0.1, "steps": 5}]}},
    {"sim": {"dt": 1e-3, "seed": 0}},
    # options that are constants now: the 2/3 rule, and the zero field as id 0
    {"sim": {"dealias": "two_thirds"}},
    {"gn_audit": {"include_zero_field": True}},
])
def test_unknown_keys_rejected(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


OUT_OF_RANGE = [
    (GridBlock, {"N": 15}),
    (GridBlock, {"L": -1.0}),
    (ScanPair, {"L": 1.0, "delta": 0.1, "N": 33}),
    (ScanPair, {"L": 1.0, "delta": 0.0}),
    (ScanPair, {"L": 1.0, "delta": 0.1, "dt": -1e-4}),
    (GnAuditBlock, {"max_mode": 0}),
    (GnAuditBlock, {"L_values": (1.0, math.nan)}),
    (GnAuditBlock, {"L_values": (), "N": 33}),
    # an empty list would make the command audit or scan nothing
    (GnAuditBlock, {"L_values": ()}),
    (GnAuditBlock, {"delta_values": ()}),
    (ThresholdScanBlock, {"mass_fractions": ()}),
    (ThresholdScanBlock, {"pairs": ()}),
    (GaugeCheckBlock, {"tolerance": 0.0}),
    (ThresholdScanBlock, {"mass_fractions": (-0.1,)}),
    (OutputsBlock, {"formats": ("pdf",)}),
    (RunConfig, {"delta": 0.0}),
    (DataSpec, {"seed": -1}),
]


def case_id(cls, kw):
    """Block and keys; a lone empty list is marked, so its id is its own."""
    empty = "-empty" if list(kw.values()) == [()] else ""
    return f"{cls.__name__}-{'-'.join(kw)}{empty}"


@pytest.mark.parametrize("cls, kw", OUT_OF_RANGE,
                         ids=[case_id(c, kw) for c, kw in OUT_OF_RANGE])
def test_blocks_built_in_code_check_their_ranges(cls, kw):
    with pytest.raises(ValueError):
        cls(**kw)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(L=st.floats() | st.sampled_from([5e-324, 2.2e-313, 1e-300, 1e308, -0.0]),
       N=st.integers(-4, 300))
def test_grid_block_and_torus_grid_share_one_rule(L, N):
    def rejects(make):
        try:
            make()
        except ValueError:
            return True
        return False

    assert rejects(lambda: TorusGrid(L, N)) == rejects(lambda: GridBlock(L=L, N=N))


@pytest.mark.parametrize("doc", [
    {"sim": {"dt": 2.0, "T": 1.0}},
    {"grid": {"L": -1.0}},
    {"grid": {"N": 15}},
    {"delta": 0.0},
    {"sim": {"dt": "fast"}},
    {"grid": {"N": 64.0}},
    {"data": {"kind": "plane_wave", "target_mass": -1.0}},
    {"outputs": {"formats": ["csv", "pdf"]}},
    {"outputs": {"dir": ""}},
    {"threshold_scan": {"mass_fractions": [0.5, -0.1]}},
    {"gn_audit": {"corrupt_constant": 0.0}},
    [],
    {"grid": {"L": math.nan}},
    {"gn_audit": {"L_values": [math.nan]}},
    {"delta": math.inf},
    {"gn_audit": {"N": 33}},
    {"threshold_scan": {"pairs": [{"L": 1.0, "delta": 0.1, "dt": -1e-4}]}},
    {"threshold_scan": {"pairs": [{"L": 1.0, "delta": 0.1, "N": 33}]}},
    {"data": {"kind": "multimode"}},
    {"data": {"kind": "multimode", "modes": [1, 2], "amplitudes": [1.0]}},
    {"data": {"kind": "bump", "width": 0.0}},
    {"data": {"seed": -1}},
    {"gn_audit": {"seed": -1}},
    {"gn_audit": {"max_mode": -3}},
    {"gn_audit": {"max_mode": 0}},
])
def test_invalid_values_rejected(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"grid": {"L": 2 * math.pi, "N": 64}}))
    cfg = load_config(str(path))
    assert cfg.grid.N == 64


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
