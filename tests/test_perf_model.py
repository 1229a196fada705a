import pytest

from lic_hw_kit import (
    DomainError,
    DpuConfig,
    LayerTraffic,
    ParameterError,
    PrecisionPolicy,
    WorkloadProfile,
    bandwidth_load,
    estimate_fps,
    peak_ops_per_cycle,
    traffic_of_model,
)
from lic_hw_kit.perf_model import MAX_CORES
from conftest import make_encoder


def test_peak_ops_identities():
    per_core, total = peak_ops_per_cycle(DpuConfig())
    assert per_core == 8 * 16 * 16 * 2 == 4096
    assert total == 3 * 4096 == 12288


def test_peak_ops_scale_with_parallelism():
    cfg = DpuConfig(pixel_parallel=4, input_channel_parallel=8,
                    output_channel_parallel=8, cores=2)
    per_core, total = peak_ops_per_cycle(cfg)
    assert per_core == 4 * 8 * 8 * 2
    assert total == 2 * per_core


def test_config_validation():
    with pytest.raises(ParameterError):
        DpuConfig(cores=0)
    with pytest.raises(ParameterError):
        DpuConfig(eta=0.0)
    with pytest.raises(ParameterError):
        DpuConfig(eta=1.5)
    with pytest.raises(ParameterError):
        DpuConfig(freq_hz=-1.0)


@pytest.mark.parametrize("cores", [MAX_CORES + 1, 10 ** 7, 1e300])
def test_config_rejects_more_cores_than_the_bound(cores):
    with pytest.raises(ParameterError, match=f"at most {MAX_CORES}"):
        DpuConfig(cores=cores)


@pytest.mark.parametrize("settings", [
    {"pixel_parallel": 10 ** 400}, {"input_channel_parallel": 10 ** 400},
    {"output_channel_parallel": 10 ** 400}, {"pixel_parallel": 10 ** 300},
    {"freq_hz": 1e308},
], ids=["pixel-10**400", "input-10**400", "output-10**400", "pixel-10**300",
        "freq-1e308"])
def test_config_rejects_a_rate_past_float64(settings):
    with pytest.raises(ParameterError, match="pixel_parallel .* must be a finite float"):
        DpuConfig(**settings)


def test_config_accepts_a_huge_finite_rate():
    cfg = DpuConfig(pixel_parallel=10 ** 290)
    assert cfg.pixel_parallel == 10 ** 290


def test_config_accepts_the_core_bound():
    assert MAX_CORES == 1024
    assert DpuConfig(cores=MAX_CORES).cores == MAX_CORES


def test_fps_closed_form():
    cfg = DpuConfig()  # 12288 ops/cycle, 300 MHz, eta 0.8, scale 1.0
    wl = WorkloadProfile.from_gop({"total": 100.0})
    est = estimate_fps(cfg, wl)
    expect_ops_per_s = 12288 * 300e6 * 0.8
    assert est.fps == pytest.approx(expect_ops_per_s / 100e9, rel=1e-12)
    assert est.t_frame_s == pytest.approx(1.0 / est.fps, rel=1e-12)
    assert est.t_compute_s == est.t_frame_s


def test_fps_workload_scale_is_linear():
    wl = WorkloadProfile.from_gop({"total": 200.0})
    full = estimate_fps(DpuConfig(workload_scale=1.0), wl).fps
    scaled = estimate_fps(DpuConfig(workload_scale=0.5), wl).fps
    assert scaled == pytest.approx(2.0 * full, rel=1e-12)


def test_published_operating_points():
    gops = (528.2, 220.23, 153.0)
    fast = [estimate_fps(DpuConfig(workload_scale=0.3),
                         WorkloadProfile.from_gop({"total": g})).fps
            for g in gops]
    for got, ref in zip(fast, (18.6, 44.6, 64.1)):
        assert abs(got - ref) <= 0.5
    slow = [estimate_fps(DpuConfig(),
                         WorkloadProfile.from_gop({"total": g})).fps
            for g in gops]
    for got, ref in zip(slow, (5.58, 13.39, 19.27)):
        assert abs(got - ref) <= 0.05


def test_zero_workload_rejected():
    with pytest.raises(DomainError):
        estimate_fps(DpuConfig(), WorkloadProfile(per_role={}))
    with pytest.raises(DomainError):
        estimate_fps(DpuConfig(), WorkloadProfile.from_gop({"total": 0.0}))


@pytest.mark.parametrize("gop", [5e-324, 1e-310])
def test_compute_time_underflow_rejected(gop):
    # positive ops whose modelled time is 0.0 s or subnormal: 1 / t would
    # divide by zero or overflow to inf fps
    with pytest.raises(DomainError, match="underflows"):
        estimate_fps(DpuConfig(), WorkloadProfile.from_gop({"tiny": gop}))


# ---------------------------------------------------------------------------
# Bandwidth
# ---------------------------------------------------------------------------


def test_bandwidth_single_layer_by_hand():
    t = LayerTraffic(h=8, w=8, n_in=3, n_out=16, kernel=5, bits=8)
    bits, nbytes = bandwidth_load([t])
    expect = (8 * 8 * 3 + 8 * 8 * 16 + 3 * 16 * 25) * 8
    assert bits == expect
    assert nbytes == pytest.approx(expect / 8.0)


def test_bandwidth_sums_layers():
    t1 = LayerTraffic(h=4, w=4, n_in=2, n_out=4, kernel=3, bits=8)
    t2 = LayerTraffic(h=2, w=2, n_in=4, n_out=8, kernel=3, bits=16)
    both_bits, _ = bandwidth_load([t1, t2])
    a, _ = bandwidth_load([t1])
    b, _ = bandwidth_load([t2])
    assert both_bits == a + b


def test_traffic_of_model_respects_bit_widths(rng):
    model = make_encoder(rng)
    wide = traffic_of_model(model, (16, 16), PrecisionPolicy(default_bits=16))
    narrow = traffic_of_model(model, (16, 16), PrecisionPolicy(default_bits=8))
    wb, _ = bandwidth_load(wide)
    nb, _ = bandwidth_load(narrow)
    assert wb == 2 * nb


def test_traffic_of_model_rejects_an_override_naming_no_layer(rng):
    # the check ptq makes, so a byte count and a quantization never
    # disagree about which layers a policy narrows
    model = make_encoder(rng)  # layers 0..4
    with pytest.raises(ParameterError, match=r"overrides name layers \[5, 9\]"):
        traffic_of_model(model, (16, 16), PrecisionPolicy(overrides={5: 4, 9: 4}))
