"""Golden pins for the report files of the BLAS-free CLI subcommands.

`prune`, `estimate`, `simulate`, `tile` and `kd-loss` each run on
seeded inputs, once at their defaults and once with every optional
config key set, and the SHA-256 of every file they write is pinned.
None of these runs a conv or GDN forward pass, so the digests depend
only on the toolkit's arithmetic and report format, not on BLAS. A
change to a default, a report field or a number shows up here as a
changed digest.
"""

import hashlib
import json

import numpy as np
import pytest

from lic_hw_kit import Tensor, save_model, save_tensor
from lic_hw_kit.cli import main, write_ppm
from conftest import make_encoder

DPU = {
    "pixel_parallel": 4,
    "input_channel_parallel": 8,
    "output_channel_parallel": 32,
    "cores": 2,
    "freq_hz": 250e6,
    "eta": 0.7,
    "mem_bandwidth_bytes_per_s": 12.8e9,
    "workload_scale": 0.3,
}

WORKLOADS = [
    {"name": "teacher", "gop": 528.2},
    {"name": "student160", "gop": {"main_encoder": 100.0, "main_decoder": 53.0}},
]

STAGES = [
    {"name": "main_encoder", "compute_ops": 2e8, "intermediate_bytes": 1e6},
    {"name": "hyper_encoder", "compute_ops": 1.5e8, "intermediate_bytes": 2.5e5},
    {"name": "entropy", "compute_ops": 1e8, "intermediate_bytes": 0.0},
]

# a latent loss that decays towards a plateau, written out to 6 decimals
KD_STEPS = [{"l_latent": round(2.0 * 0.8 ** i + 0.5, 6), "l_perceptual": 0.3,
             "rate": 1.0, "distortion": 0.01} for i in range(60)]


def _inputs(tmp_path):
    """Seeded model, image and tensor files; returns their paths."""
    rng = np.random.default_rng(777)
    paths = {}
    for role in ("main_encoder", "hyper_encoder"):
        paths[role] = tmp_path / f"{role}.bin"
        paths[role].write_bytes(save_model(
            make_encoder(rng, mid=20, out=12, role=role)))
    paths["ppm"] = tmp_path / "img.ppm"
    paths["ppm"].write_bytes(write_ppm(Tensor(
        rng.integers(0, 256, (1, 3, 5, 7)).astype(np.float32))))
    paths["tns"] = tmp_path / "img.tns"
    paths["tns"].write_bytes(save_tensor(Tensor(
        rng.uniform(-1.0, 1.0, (1, 2, 6, 4)).astype(np.float32))))
    return {k: str(v) for k, v in paths.items()}


CASES = {
    "prune-defaults": ("prune", lambda p: {"model": p["main_encoder"]}),
    "prune-hyperprior-defaults": ("prune", lambda p: {"model": p["hyper_encoder"]}),
    "prune-all-keys": ("prune", lambda p: {
        "model": p["hyper_encoder"], "fraction_per_iteration": 0.2,
        "iterations": 2, "prune_hyperprior": True, "input_hw": [16, 12]}),
    "estimate-defaults": ("estimate", lambda p: {"workloads": WORKLOADS}),
    "estimate-all-keys": ("estimate", lambda p: {"workloads": WORKLOADS,
                                                 "dpu": DPU}),
    "simulate-scenario-defaults": ("simulate", lambda p: {
        "scenario": "student160_encoder"}),
    "simulate-scenario-all-keys": ("simulate", lambda p: {
        "scenario": "student160_encoder", "dpu": DPU, "patches_per_frame": 50,
        "mode": "sequential", "launch_overhead_s": 1e-3, "trace": False}),
    "simulate-stages-defaults": ("simulate", lambda p: {
        "stages": [{"name": s["name"], "compute_ops": s["compute_ops"]}
                   for s in STAGES],
        "patch_count": 6}),
    "simulate-stages-all-keys": ("simulate", lambda p: {
        "dpu": DPU, "stages": STAGES, "patch_count": 8, "patches_per_frame": 4,
        "mode": "both", "launch_overhead_s": 2e-4, "trace": True}),
    "tile-ppm-defaults": ("tile", lambda p: {"image": p["ppm"]}),
    "tile-ppm-all-keys": ("tile", lambda p: {"image": p["ppm"], "target_h": 11,
                                             "target_w": 16}),
    "tile-tensor-all-keys": ("tile", lambda p: {"image": p["tns"],
                                                "target_h": 13, "target_w": 9}),
    "kd-loss-defaults": ("kd-loss", lambda p: {"lambda": 50.0,
                                               "steps": KD_STEPS}),
    "kd-loss-all-keys": ("kd-loss", lambda p: {
        "lambda": 25.0, "steps": KD_STEPS,
        "weights_early": {"alpha": 0.9, "beta": 0.2, "gamma": 0.4},
        "weights_late": {"alpha": 0.2, "beta": 0.8, "gamma": 0.6},
        "plateau_window": 8, "plateau_threshold": 2e-3,
        "max_phase_steps": 40}),
}

GOLDEN = {
    "estimate-all-keys": {
        "estimate_report.csv":
            "9c28669f9af197ee0e697fa290bc4b07d2af2a78bd8947cd45750bba34953511",
        "estimate_report.json":
            "3d92414efe08a85a9060f91ca400b021b81bd8a5e6fd9f1cb63c789da553a2eb",
    },
    "estimate-defaults": {
        "estimate_report.csv":
            "0a2351e65100f9584696d17ca59253c4d32b82146bdd9fe9f7bc13a308c1983a",
        "estimate_report.json":
            "85fddec1731be63b0cc32357a05c36a83e5288bbf2793e2500c6cf5bc0c3c4b8",
    },
    "kd-loss-all-keys": {
        "kd_report.csv":
            "e98b46af4e1bf042d6884a020b581fb18ebe1da9cfe80223ce29d7c27154ddce",
        "kd_report.json":
            "2866797eff56c9168d06507d89c97cad74b533ad911ea9a9f48c1baae720277a",
    },
    "kd-loss-defaults": {
        "kd_report.csv":
            "d53344db5a09e4708164362bb46d8fa2c1140685cbcc20a18b50dd7a4db22b63",
        "kd_report.json":
            "f1424db846cd1a64f72f18dfa5d81ba5dd6ddf7ea8dbc6973bbd87fc28e93eec",
    },
    "prune-all-keys": {
        "prune_report.csv":
            "cafee06d287eb6057d832907f4930fca97da52dc13a0f20cbf052815ea6b969e",
        "prune_report.json":
            "33fee8baf84d83b7c03fe6396f3b7a89cfd893aeb9de54f4dfd6b9e43041965c",
        "pruned_model.bin":
            "ae1f13e38e4f24eaa8a078f0948f400ee19c219a0b2f3848ced2314439ad4b21",
    },
    "prune-defaults": {
        "prune_report.csv":
            "cb35789b753a9f73dc3fef5e6c015671d48ffe704120015bc7f6ba30bb241287",
        "prune_report.json":
            "f7096fc1010fabbf077f734753bbdcf996801d0923005fdf3f49263274f104dc",
        "pruned_model.bin":
            "d44d7e9ce5ed0fd2e1866c06a125a437d094f2b6c6265555bb4457aaf0b7024b",
    },
    "prune-hyperprior-defaults": {
        "prune_report.csv":
            "b3f35f54cd73d9b70d6ab9c09732ebaab2dc7bf5877bffb521dc28fd7bba0bcc",
        "prune_report.json":
            "dad933a0cd00b89c95d7c21d53acf6a10fdc7cf59b5e3426d2f352e4aed16672",
        "pruned_model.bin":
            "b4343c2542f08f071a0b0b46a8b617d18dc238ecef3cebb7d747be6877d088c3",
    },
    "simulate-scenario-all-keys": {
        "sim_report.csv":
            "4ff33f333a969787c9e32e5ed08bdaf034217c328985561558c24f85dc58b41c",
        "sim_report.json":
            "9f6c725f7253d56ec0daa69536ea328cd8919aaf5905ceba85dbc59fc38f9a92",
    },
    "simulate-scenario-defaults": {
        "sim_report.csv":
            "ae0d0e048df8962701ba38313dcf22a69119bc05e4a10a8193e32c5f94cf81d4",
        "sim_report.json":
            "7a23ad715f5505307d0a0becb3804ab293e0a6bcb5dedcb02525574a8057cf0e",
    },
    "simulate-stages-all-keys": {
        "sim_report.csv":
            "b213dcea0951486a87c1c1e87e5f43e3df47916c358eaa704e3825a72fb68e51",
        "sim_report.json":
            "a9addbf9136b0360999c46837882a64cf8823347e31b36be4d10dac6bc0c7f87",
        "sim_trace_pipelined.csv":
            "801b2972535de7931b8728d7725f2ef02427382a41b1e1f8631b6d493441d65b",
        "sim_trace_sequential.csv":
            "b4a3cf45275ec355a772304ed6d4c0dbeaea08cd37800f1c3d9e00cbdb3a4ff0",
    },
    "simulate-stages-defaults": {
        "sim_report.csv":
            "e0f95603185b3dce09a5a2bad10091577ca40d921c17cf7d258e5da6866a417f",
        "sim_report.json":
            "ad881e9b5bdeee5c6950542b074019e412b2227071368a2bd23a7583dc0fce79",
    },
    "tile-ppm-all-keys": {
        "tiled.ppm":
            "d6b63f9720f387acccce17c7f5c5949fb86285eaf352274fba9136921f5c1c11",
    },
    "tile-ppm-defaults": {
        "tiled.ppm":
            "64aa75b8a112dda50fe1a8ef3f105439d1a0564b66be353a996f48cdc872ad0f",
    },
    "tile-tensor-all-keys": {
        "tiled.bin":
            "c2f1c9dfd385b587235247fa6867f56af306142ea572c5d22c7d969f5751f2fb",
    },
}


def run_case(tmp_path, name):
    """Run one case; returns {file name: SHA-256} of everything written."""
    command, config = CASES[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config(_inputs(tmp_path))))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_bytes_are_pinned(tmp_path, name):
    assert run_case(tmp_path, name) == GOLDEN[name]
