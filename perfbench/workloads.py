"""The three benchmark workloads.

Each workload builds every input and weight from its seed, hands the
toolkit only the generated tensors and models, and runs one unit of
work per call to unit(). Each puts one optimisable layer under heavy
load and leaves the others idle, so a kernel change shows on one
workload and should be flat on the other two:

codec-ptq   conv/deconv and float GDN (reference forward, calibration,
            PTQ, fake-quant, container round trips); no fixed point,
            no patching.
gdn-fixed   integer shifts, rounding, the int64 MAC and the sqrt LUT on
            128-channel maps (MAC-bound) and a long 8-channel corpus
            (elementwise-bound); no conv.
frame-plan  patch extraction (gather) and reassembly (scatter-add) on
            720p and 1080p frames, pruning, the fps model and the
            simulator's Python loops; no conv, no fixed point.

unit() returns its outputs; check() inspects them afterwards, outside
the timed region, with checks that do not rely on the code being timed.
With small=True a workload is a probe: the same code paths on inputs a
few hundred times smaller, used by traced runs of the other workloads.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import lic_hw_kit as k
from oracle import (
    conv_ops,
    conv_oracle,
    deconv_ops,
    deconv_oracle,
    within_float64_accumulation,
)

ENVELOPE_32 = 1e-3  # acceptance criterion 3: 32-bit GDN error bound
SPEEDUP_WINDOW = (2.0, 3.0)  # acceptance criterion 7: pipelined/sequential fps
WIDTHS = (8, 16, 32)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _max_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64))))


def _spread(rng, lo, hi, c):
    """c values evenly covering [lo, hi], in seeded order: every seed
    gets the same extremes, so errors set by the extremes repeat."""
    return rng.permutation(lo + (hi - lo) * (np.arange(c) + 0.5) / c)


def synthetic_image(rng, channels, h, w):
    """Smooth seeded image in [0, 1]: a few sinusoids plus mild noise.

    Every channel has the same set of frequencies and amplitudes, in
    seeded pairings, orientations and phases, so its energy repeats
    across seeds."""
    yy, xx = np.mgrid[0:h, 0:w] / float(max(h, w))
    img = np.empty((1, channels, h, w), dtype=np.float64)
    for c in range(channels):
        acc = np.zeros((h, w))
        for f, a in zip(_spread(rng, 1.0, 12.0, 4), _spread(rng, 0.2, 1.0, 4)):
            th = rng.uniform(0.0, np.pi / 2)
            acc += a * np.sin(2 * np.pi * f * (np.cos(th) * yy + np.sin(th) * xx)
                              + rng.uniform(0, 2 * np.pi))
        img[0, c] = acc
    img -= img.min()
    img /= img.max()
    img = 0.9 * img + 0.1 * rng.uniform(0.0, 1.0, img.shape)
    return img.astype(np.float32)


def _conv_layer(rng, kind, cin, cout):
    fan_in = cin * 25
    # one fixed set of He-normal values per shape, arranged by the seed:
    # every seed gets the same weight distribution, so errors repeat
    values = np.random.default_rng(0).normal(0.0, np.sqrt(2.0 / fan_in), cout * cin * 25)
    return k.LayerSpec(
        kind=kind, in_channels=cin, out_channels=cout, kernel=5, stride=2,
        padding=2,
        weights=rng.permutation(values).reshape(cout, cin, 5, 5),
        bias=rng.normal(0.0, 0.01, cout),
    )


def _gdn_layer(rng, kind, c):
    # diagonal-heavy gamma, as trained GDN layers are: the pool then
    # tracks each channel's own energy and spans several octaves
    off = np.random.default_rng(0).uniform(0.0, 0.1 / c, c * c)
    gamma = rng.permutation(off).reshape(c, c) + np.diag(_spread(rng, 0.05, 1.0, c))
    return k.LayerSpec(kind=kind, in_channels=c, out_channels=c,
                       gdn_params=k.GdnParams(beta=_spread(rng, 1.0, 2.0, c), gamma=gamma))


def paper_encoder(rng, n, m):
    """5x5/2 convs 3 -> n -> n -> n -> m with GDN between (Balle et al. 2018)."""
    chans = (3, n, n, n, m)
    layers = []
    for i in range(4):
        layers.append(_conv_layer(rng, "conv", chans[i], chans[i + 1]))
        if i < 3:
            layers.append(_gdn_layer(rng, "gdn", chans[i + 1]))
    return k.ModelSpec(name="paper_encoder", layers=layers, role="main_encoder")


def paper_decoder(rng, n, m):
    """5x5/2 deconvs m -> n -> n -> n -> 3 with iGDN between."""
    chans = (m, n, n, n, 3)
    layers = []
    for i in range(4):
        layers.append(_conv_layer(rng, "deconv", chans[i], chans[i + 1]))
        if i < 3:
            layers.append(_gdn_layer(rng, "igdn", chans[i + 1]))
    return k.ModelSpec(name="paper_decoder", layers=layers, role="main_decoder")


def _tensor_arrays(model):
    out = []
    for layer in model.layers:
        if layer.kind in ("conv", "deconv"):
            out += [layer.weights, layer.bias]
        elif layer.kind in ("gdn", "igdn"):
            out += [layer.gdn_params.beta, layer.gdn_params.gamma]
    return out


def _seconds(stats, name):
    return stats.get(name, (0.0, 0))[0]


class Workload:
    name = ""

    def unit(self, tr):
        raise NotImplementedError

    def check(self, out):
        """(checks {name: bool}, max_abs_err, digests {name: hex}, counts)."""
        raise NotImplementedError

    def run_checks(self):
        """Checks made once per run: {name: bool}."""
        return {}

    def trace_extras(self, tr):
        """Traced-run calls made after a unit, outside its timing."""

    def layer_metrics(self, stats, setup_stats, counts):
        """Per-layer metrics owned by this workload.

        stats: {span name: (self seconds per unit, calls per unit)};
        setup_stats likewise for the set-up spans; counts from check().
        """
        raise NotImplementedError


class CodecPtq(Workload):
    """One seeded 128x128 patch of a 720p frame through the float codec,
    calibration, PTQ, dequantization, fake-quant and the containers.

    The paper's patches are 256x256; at that size a unit takes 20-40 s
    and its working set leaves the cache, so a run holds one unit and
    its time follows the host's memory traffic. At 128x128 a run holds
    several units of the same layer shapes."""

    name = "codec-ptq"

    def __init__(self, seed, tr, small=False):
        n, m, patch, fh, fw = (8, 12, 32, 64, 96) if small else (128, 192, 128, 720, 1280)
        rng = np.random.default_rng([seed, 1])
        self.enc = paper_encoder(rng, n, m)
        self.dec = paper_decoder(rng, n, m)
        frame = synthetic_image(rng, 3, fh, fw)
        r0 = int(rng.integers(0, fh - patch + 1))
        c0 = int(rng.integers(0, fw - patch + 1))
        self.x = k.Tensor(frame[:, :, r0:r0 + patch, c0:c0 + patch])
        self.policy = k.PrecisionPolicy()
        self.seed = seed
        # loop-count and flops_of operation counts for one unit's walk
        self.gop = {"conv": 0, "deconv": 0}
        self.flops_of_gop = {"conv": 0, "deconv": 0}
        h = w = patch
        for model in (self.enc, self.dec):
            per_layer = k.flops_of(model, (h, w)).per_layer
            for layer, fo in zip(model.layers, per_layer):
                if layer.kind == "conv":
                    self.gop["conv"] += conv_ops(layer, h, w) / 1e9
                    self.flops_of_gop["conv"] += fo / 1e9
                elif layer.kind == "deconv":
                    self.gop["deconv"] += deconv_ops(layer, h, w) / 1e9
                    self.flops_of_gop["deconv"] += fo / 1e9
                h, w = k.layer_output_dims(layer, h, w)
        # warm numpy's einsum and pad paths on a tiny input
        k.model_forward(self.dec, k.model_forward(self.enc, k.Tensor(np.zeros((1, 3, 16, 16)))))

    def _walk(self, tr, model, x):
        """model_forward one layer at a time, so each kernel call is a span."""
        calls = {
            "conv": ("model.conv2d_forward", k.conv2d_forward),
            "deconv": ("model.deconv2d_forward", k.deconv2d_forward),
        }
        cur = x
        for layer in model.layers:
            if layer.kind in calls:
                name, fn = calls[layer.kind]
                cur = tr.call(name, fn, cur, layer)
            elif layer.kind == "gdn":
                cur = tr.call("gdn.gdn_float", k.gdn_float, cur, layer.gdn_params)
            else:
                cur = tr.call("gdn.igdn_float", k.igdn_float, cur, layer.gdn_params)
        return cur

    def unit(self, tr):
        enc, dec, x, pol = self.enc, self.dec, self.x, self.policy
        if tr.enabled:
            y = self._walk(tr, enc, x)
            recon = self._walk(tr, dec, y)
        else:
            y = k.model_forward(enc, x)
            recon = k.model_forward(dec, y)
        se = tr.call("quantizer.calibrate", k.calibrate, enc, [x])
        sd = tr.call("quantizer.calibrate", k.calibrate, dec, [y])
        qe = tr.call("quantizer.ptq", k.ptq, enc, se, pol)
        qd = tr.call("quantizer.ptq", k.ptq, dec, sd, pol)
        de = tr.call("quantizer.dequantize_model", k.dequantize_model, qe)
        dd = tr.call("quantizer.dequantize_model", k.dequantize_model, qd)
        fy = tr.call("quantizer.fake_quant_forward", k.fake_quant_forward, enc, se, pol, x)
        frecon = tr.call("quantizer.fake_quant_forward", k.fake_quant_forward,
                         dec, sd, pol, fy)
        blobs = {}
        loaded = {}
        for tag, model, qm in (("enc", enc, qe), ("dec", dec, qd)):
            b = tr.call("model_io.save_model", k.save_model, model)
            loaded[tag] = tr.call("model_io.load_model", k.load_model, b)
            qb = tr.call("model_io.save_quantized_model", k.save_quantized_model, qm)
            loaded["q" + tag] = tr.call("model_io.load_quantized_model",
                                        k.load_quantized_model, qb)
            blobs[tag], blobs["q" + tag] = b, qb
        return dict(y=y, recon=recon, fy=fy, frecon=frecon, qe=qe, qd=qd, de=de,
                    dd=dd, blobs=blobs, loaded=loaded)

    def trace_extras(self, tr):
        # one whole-stack call, to compare with the sum of the walked layers
        tr.call("model.model_forward", k.model_forward, self.enc, self.x)

    def check(self, out):
        checks = {}
        for tag, model in (("enc", self.enc), ("dec", self.dec)):
            got = _tensor_arrays(out["loaded"][tag])
            checks[f"model_io.roundtrip.{tag}"] = all(
                np.array_equal(a, b) for a, b in zip(got, _tensor_arrays(model)))
            qm, back = out["q" + tag[0]], out["loaded"]["q" + tag]
            checks[f"model_io.quant_roundtrip.{tag}"] = (
                qm.payloads.keys() == back.payloads.keys()
                and all(np.array_equal(qm.payloads[key], back.payloads[key])
                        for key in qm.payloads))
        # the latent's error is the end-to-end figure: over its 192 channels
        # the maximum moves less across seeds than the 3-channel
        # reconstruction's
        err = _max_err(out["fy"].data, out["y"].data)
        digests = {
            "latent": _sha(out["y"].data),
            "reconstruction": _sha(out["recon"].data),
            "fake_quant_latent": _sha(out["fy"].data),
            "fake_quant_reconstruction": _sha(out["frecon"].data),
            "quantized_payloads": _sha(out["blobs"]["qenc"], out["blobs"]["qdec"]),
            "model_containers": _sha(out["blobs"]["enc"], out["blobs"]["dec"]),
            "dequantized_models": _sha(*_tensor_arrays(out["de"]),
                                       *_tensor_arrays(out["dd"])),
        }
        counts = {
            "saturated": sum(out["qe"].saturation.values())
            + sum(out["qd"].saturation.values()),
            "bytes": sum(len(b) for b in out["blobs"].values()),
            "recon_err": _max_err(out["frecon"].data, out["recon"].data),
        }
        return checks, err, digests, counts

    def run_checks(self):
        """Conv and deconv against the float64 per-tap oracle, on small
        seeded inputs at every layer shape of the codec."""
        rng = np.random.default_rng([self.seed, 2])
        checks = {}
        for model, fn, oracle, hw in ((self.enc, k.conv2d_forward, conv_oracle, 12),
                                      (self.dec, k.deconv2d_forward, deconv_oracle, 5)):
            for li, layer in enumerate(model.layers):
                if layer.kind not in ("conv", "deconv"):
                    continue
                x = rng.normal(0.0, 1.0, (2, layer.in_channels, hw, hw)).astype(np.float32)
                got = fn(k.Tensor(x), layer).data
                want = oracle(x, layer.weights, layer.bias, layer.stride, layer.padding)
                checks[f"oracle.{model.name}.{li}"] = within_float64_accumulation(got, want)
        return checks

    def layer_metrics(self, stats, setup_stats, counts):
        out = {}
        for kind, name in (("conv", "model.conv2d_forward"), ("deconv", "model.deconv2d_forward")):
            s, calls = stats.get(name, (0.0, 0))
            out[f"{name}.s"] = s
            out[f"{name}.calls"] = calls
            out[f"{name}.gop"] = self.gop[kind]
            out[f"{name}.flops_of_gop"] = self.flops_of_gop[kind]
            out[f"{name}.gflop_per_s"] = self.gop[kind] / s if s > 0 else 0.0
        for name in ("gdn.gdn_float", "gdn.igdn_float", "model.model_forward",
                     "quantizer.calibrate", "quantizer.ptq", "quantizer.dequantize_model",
                     "quantizer.fake_quant_forward", "model_io.save_model",
                     "model_io.load_model", "model_io.save_quantized_model",
                     "model_io.load_quantized_model"):
            out[f"{name}.s"] = _seconds(stats, name)
        out["quantizer.ptq.saturated"] = counts["saturated"]
        out["quantizer.fake_quant_forward.recon_err"] = counts["recon_err"]
        out["model_io.bytes"] = counts["bytes"]
        return out


class GdnFixed(Workload):
    """Fixed-point GDN/iGDN at 8/16/32 bits on 128-channel maps at the
    encoder's three GDN extents for a 128x128 patch, error reports on a
    long 8-channel corpus, and direct calls into the fixed-point units."""

    name = "gdn-fixed"

    def __init__(self, seed, tr, small=False):
        c, extents, samples = (8, (16, 8, 4), 1000) if small else (128, (64, 32, 16), 12_500)
        rng = np.random.default_rng([seed, 3])
        # heavy-tailed, clipped to the |x| <= 8 the stock formats are sized for
        self.maps = [k.Tensor(np.clip(rng.laplace(0.0, 1.0, (1, c, e, e)), -8.0, 8.0))
                     for e in extents]
        self.params = _gdn_layer(rng, "gdn", c).gdn_params
        self.formats = {b: k.GdnStageFormats.default(b) for b in WIDTHS}
        # the gdn-bench corpus shape: 8 channels, 1 x N, uniform on [-8, 8]
        cc = 8
        self.corpus_params = k.GdnParams(beta=rng.uniform(1.0, 2.0, cc),
                                         gamma=rng.uniform(0.0, 1.0, (cc, cc)) * (0.1 / cc))
        self.corpus = k.Tensor(rng.uniform(-8.0, 8.0, (1, cc, 1, samples)))
        # direct-call operands: the largest map's size and exponent spread
        a = self.maps[0].data.astype(np.float64).ravel()
        self.shift_v = k.round_half_away(a * 2.0 ** 20)
        self.shift_n = np.frexp(np.abs(a) + 2.0 ** -20)[1].astype(np.int64) + 8
        self.fixed_in = a
        self.lut_in = 1.0 + 3.0 * np.minimum(np.abs(a) / 8.0, 0.999)
        self.recip_in = 1.0 + a * a
        self.fmt16 = self.formats[16].input
        self.fmt32 = k.FixedPointFormat(32, 24)
        self.lut = tr.call("fixed_point.build_sqrt_lut", k.build_sqrt_lut,
                           (1.0, 4.0), 64, self.fmt32)
        self.elements = sum(x.size for x in self.maps)
        # warm the LUT and reciprocal seed caches for every width
        tiny = k.Tensor(self.maps[-1].data[:, :, :2, :2])
        for b in WIDTHS:
            k.igdn_fixed(k.gdn_fixed(tiny, self.params, self.formats[b]),
                         self.params, self.formats[b])

    def unit(self, tr):
        p = self.params
        maps = []
        for x in self.maps:
            res = {"gdn.float": tr.call("gdn.gdn_float", k.gdn_float, x, p),
                   "igdn.float": tr.call("gdn.igdn_float", k.igdn_float, x, p)}
            for b in WIDTHS:
                res[f"gdn.{b}"] = tr.call(f"gdn.gdn_fixed.{b}", k.gdn_fixed_with_stats,
                                          x, p, self.formats[b])
                res[f"igdn.{b}"] = tr.call(f"gdn.igdn_fixed.{b}", k.igdn_fixed_with_stats,
                                           x, p, self.formats[b])
            maps.append(res)
        reports = {b: tr.call("gdn.gdn_error_report", k.gdn_error_report,
                              self.corpus_params, self.formats[b], self.corpus)
                   for b in WIDTHS}
        direct = {
            "shift_round": tr.call("fixed_point.shift_round", k.fixed_point.shift_round,
                                   self.shift_v, self.shift_n),
            "to_fixed": tr.call("fixed_point.to_fixed", k.to_fixed, self.fixed_in, self.fmt16),
            "sqrt_lut_eval": tr.call("fixed_point.sqrt_lut_eval", self.lut.eval, self.lut_in),
            "reciprocal_fixed": tr.call("fixed_point.reciprocal_fixed", k.reciprocal_fixed,
                                        self.recip_in, self.fmt32),
        }
        return dict(maps=maps, reports=reports, direct=direct)

    def check(self, out):
        checks = {}
        err = {(op, b): 0.0 for op in ("gdn", "igdn") for b in WIDTHS}
        saturated = dict.fromkeys(WIDTHS, 0)
        digests = {}
        for i, res in enumerate(out["maps"]):
            for op in ("gdn", "igdn"):
                ref = res[f"{op}.float"].data
                digests[f"map{i}.{op}.float"] = _sha(ref)
                for b in WIDTHS:
                    y, stats = res[f"{op}.{b}"]
                    err[op, b] = max(err[op, b], _max_err(y.data, ref))
                    saturated[b] += stats.total_saturated
                    digests[f"map{i}.{op}.{b}"] = _sha(
                        y.data, json.dumps(stats.saturation, sort_keys=True).encode())
        for op in ("gdn", "igdn"):
            checks[f"{op}.error_ordered_32_16_8"] = (
                err[op, 32] <= err[op, 16] <= err[op, 8])
        checks["gdn.envelope_32"] = err["gdn", 32] <= ENVELOPE_32
        reps = out["reports"]
        checks["error_report.ordered_32_16_8"] = (
            reps[32].max_abs_error <= reps[16].max_abs_error <= reps[8].max_abs_error)
        checks["error_report.envelope_32"] = reps[32].max_abs_error <= ENVELOPE_32
        for b in WIDTHS:
            digests[f"error_report.{b}"] = _sha(
                json.dumps(reps[b].rows(), sort_keys=True).encode())

        d = out["direct"]
        r, v, n = d["shift_round"], self.shift_v, self.shift_n
        right = n > 0
        checks["shift_round.within_half_step"] = bool(
            np.array_equal(r[~right], v[~right] << -n[~right])
            and np.all(np.abs((r[right] << n[right]) - v[right])
                       <= np.int64(1) << (n[right] - 1)))
        q, nsat = d["to_fixed"]
        f = self.fmt16
        inside = np.abs(self.fixed_in) < f.max_value
        checks["to_fixed.within_half_step"] = bool(
            np.all(np.abs(q[inside] * f.ulp - self.fixed_in[inside]) <= f.ulp / 2)
            and q.min() >= f.qmin and q.max() <= f.qmax)
        checks["sqrt_lut.within_table_error"] = bool(np.all(
            np.abs(d["sqrt_lut_eval"] - np.sqrt(self.lut_in))
            <= self.lut.max_abs_error + self.lut.fmt.ulp))
        checks["reciprocal.relative_error"] = bool(np.all(
            np.abs(d["reciprocal_fixed"] * self.recip_in - 1.0) <= 1e-4))
        for name in ("shift_round", "sqrt_lut_eval", "reciprocal_fixed"):
            digests[f"direct.{name}"] = _sha(d[name])
        digests["direct.to_fixed"] = _sha(q, np.int64(nsat))
        counts = {"err": err, "saturated": saturated}
        return checks, max(err["gdn", 16], err["igdn", 16]), digests, counts

    def layer_metrics(self, stats, setup_stats, counts):
        out = {}
        fixed_s = 0.0
        for op in ("gdn", "igdn"):
            for b in WIDTHS:
                s = _seconds(stats, f"gdn.{op}_fixed.{b}")
                out[f"gdn.{op}_fixed.s.{b}"] = s
                fixed_s += s
        out["gdn.fixed.melem_per_s"] = (2 * len(WIDTHS) * self.elements / fixed_s / 1e6
                                        if fixed_s > 0 else 0.0)
        out["gdn.gdn_error_report.s"] = _seconds(stats, "gdn.gdn_error_report")
        for b in WIDTHS:
            out[f"gdn.err.{b}"] = max(counts["err"]["gdn", b], counts["err"]["igdn", b])
            out[f"gdn.saturated.{b}"] = counts["saturated"][b]
        for name in ("shift_round", "to_fixed", "sqrt_lut_eval", "reciprocal_fixed"):
            out[f"fixed_point.{name}.s"] = _seconds(stats, f"fixed_point.{name}")
        out["fixed_point.build_sqrt_lut.s"] = _seconds(setup_stats, "fixed_point.build_sqrt_lut")
        return out


class FramePlan(Workload):
    """A seeded clip of 720p frames plus 1080p frames, each tiled from a
    smaller source, patched at 256/56 and reassembled; then pruning, the
    fps and traffic model, and both simulator schedules."""

    name = "frame-plan"

    def __init__(self, seed, tr, small=False):
        if small:
            sizes = [(72, 128)] * 3 + [(108, 192)]
            self.patch, self.stride, src_hw, n, m = 32, 8, (20, 40), 10, 12
            self.model_hw = (72, 128)
        else:
            sizes = [(720, 1280)] * 3 + [(1080, 1920)]
            self.patch, self.stride, src_hw, n, m = 256, 56, (180, 480), 128, 192
            self.model_hw = (720, 1280)
        rng = np.random.default_rng([seed, 4])
        self.sizes = sizes
        self.sources = [
            k.Tensor(synthetic_image(rng, 3, *rng.integers(src_hw[0], src_hw[1], 2)))
            for _ in sizes
        ]
        self.encoder = paper_encoder(rng, n, m)
        self.schedule = k.PruneSchedule(fraction_per_iteration=0.1, iterations=3)
        self.stages, self.scenario_patches, self.cfg = k.student160_encoder_scenario()

    def _simulate(self, tr, patches, per_frame):
        out = {}
        for mode in ("sequential", "pipelined"):
            out[mode] = tr.call("pipeline_sim.simulate", k.simulate, self.stages, patches,
                                self.cfg, mode, patches_per_frame=per_frame,
                                collect_trace=True)
        return out

    def unit(self, tr):
        frames = []
        stream = {}
        patch_bytes = 0
        for src, (h, w) in zip(self.sources, self.sizes):
            f = tr.call("patching.tile_to_resolution", k.tile_to_resolution, src, h, w)
            # frames reach the device as 8-bit pixels
            f8 = k.Tensor(np.round(f.data * 255.0) / 255.0)
            patches, grid = tr.call("patching.extract_patches", k.extract_patches,
                                    f8, self.patch, self.stride)
            back = tr.call("patching.reassemble", k.reassemble, patches, grid)
            patch_bytes += patches.data.nbytes
            frames.append((f, f8, back))
            count, n = stream.get((h, w), (grid.count, 0))
            stream[(h, w)] = (count, n + 1)
            del patches
        pruned, report = tr.call("pruning.iterative_prune", k.iterative_prune,
                                 self.encoder, self.schedule, input_hw=self.model_hw)
        flops = tr.call("perf_model.flops_of", k.flops_of, pruned, self.model_hw)
        rows = tr.call("perf_model.traffic_of_model", k.traffic_of_model, pruned,
                       self.model_hw)
        _, bytes_per_frame = tr.call("perf_model.bandwidth_load", k.bandwidth_load, rows)
        fps = tr.call("perf_model.estimate_fps", k.estimate_fps, k.DpuConfig(),
                      k.WorkloadProfile({pruned.role: float(flops.total)}))
        sims = {f"{h}x{w}": self._simulate(tr, count * n, count)
                for (h, w), (count, n) in stream.items()}
        sims["student160_encoder"] = self._simulate(tr, self.scenario_patches, None)
        return dict(frames=frames, patches=sum(c * n for c, n in stream.values()),
                    patch_bytes=patch_bytes, report=report, pruned=pruned, fps=fps,
                    bytes_per_frame=bytes_per_frame, sims=sims)

    def check(self, out):
        checks = {}
        err = 0.0
        recon = []
        for i, (f, f8, back) in enumerate(out["frames"]):
            checks[f"reassemble.bit_exact.{i}"] = np.array_equal(back.data, f8.data)
            err = max(err, _max_err(back.data, f.data))
            recon.append(back.data)
        events = 0
        sim_json = {}
        for key, modes in out["sims"].items():
            busy = [sum(r.busy_per_core) for r, _ in modes.values()]
            checks[f"simulate.busy_conserved.{key}"] = abs(busy[0] - busy[1]) <= 1e-9 * busy[0]
            events += sum(len(trace) for _, trace in modes.values())
            sim_json[key] = {mode: r.to_json_dict() for mode, (r, _) in modes.items()}
        stock = {mode: r for mode, (r, _) in out["sims"]["student160_encoder"].items()}
        speedup = stock["pipelined"].fps / stock["sequential"].fps
        checks["simulate.speedup_window"] = SPEEDUP_WINDOW[0] <= speedup <= SPEEDUP_WINDOW[1]
        rep = out["report"]
        digests = {
            "reassembled_frames": _sha(*recon),
            "sim_results": _sha(json.dumps(sim_json, sort_keys=True).encode()),
            "prune_report": _sha(json.dumps(rep.to_json_dict(), sort_keys=True).encode()),
            "pruned_model": _sha(*_tensor_arrays(out["pruned"])),
        }
        counts = {
            "patches": out["patches"],
            "patch_bytes": out["patch_bytes"],
            "events": events,
            "filters_removed": sum(rep.filters_before.values()) - sum(rep.filters_after.values()),
            "est_fps": out["fps"].fps,
            "bytes_per_frame": out["bytes_per_frame"],
            "sequential_fps": stock["sequential"].fps,
            "pipelined_fps": stock["pipelined"].fps,
            "speedup": speedup,
            "pipelined_bytes_moved": stock["pipelined"].bytes_moved,
        }
        return checks, err, digests, counts

    def layer_metrics(self, stats, setup_stats, counts):
        out = {f"patching.{n}.s": _seconds(stats, f"patching.{n}")
               for n in ("tile_to_resolution", "extract_patches", "reassemble")}
        out["patching.patches"] = counts["patches"]
        moved_s = out["patching.extract_patches.s"] + out["patching.reassemble.s"]
        # computed traffic: extract reads and writes each patch, reassemble reads it
        out["patching.gb_per_s"] = 3 * counts["patch_bytes"] / moved_s / 1e9 if moved_s > 0 else 0.0
        out["pruning.iterative_prune.s"] = _seconds(stats, "pruning.iterative_prune")
        out["pruning.filters_removed"] = counts["filters_removed"]
        out["perf_model.s"] = sum(_seconds(stats, f"perf_model.{n}") for n in (
            "flops_of", "traffic_of_model", "bandwidth_load", "estimate_fps"))
        sim_s = _seconds(stats, "pipeline_sim.simulate")
        out["pipeline_sim.simulate.s"] = sim_s
        out["pipeline_sim.events"] = counts["events"]
        out["pipeline_sim.us_per_event"] = sim_s / counts["events"] * 1e6
        out["perf_model.est_fps"] = counts["est_fps"]
        out["perf_model.bytes_per_frame"] = counts["bytes_per_frame"]
        out["pipeline_sim.sequential.fps"] = counts["sequential_fps"]
        out["pipeline_sim.pipelined.fps"] = counts["pipelined_fps"]
        out["pipeline_sim.speedup"] = counts["speedup"]
        out["pipeline_sim.pipelined.bytes_moved"] = counts["pipelined_bytes_moved"]
        return out


WORKLOADS = {w.name: w for w in (CodecPtq, GdnFixed, FramePlan)}
