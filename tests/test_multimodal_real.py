"""Real multimodal decoding (stdlib+numpy codecs): PPM/BMP roundtrips,
WAV roundtrip, nearest-neighbour resize, and the actor-pool pipeline over
genuinely-decoded media."""

import numpy as np
import pytest
import ray.data

from xpshacl_ray.stages.multimodal import (
    MediaDecoder,
    audio_features,
    decode_bmp,
    decode_features,
    decode_ppm,
    decode_wav,
    encode_bmp,
    encode_ppm,
    encode_wav,
    image_features,
    make_real_media_table,
    resize_nearest,
)


def test_ppm_roundtrip():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
    assert np.array_equal(decode_ppm(encode_ppm(img)), img)
    # comments + whitespace variants parse too
    hdr = b"P6\n# a comment\n17  13\n255\n" + img.tobytes()
    assert np.array_equal(decode_ppm(hdr), img)
    # P5 decodes now (whole netpbm family); non-netpbm still raises
    assert decode_ppm(b"P5\n1 1\n255\n\x00").shape == (1, 1, 3)
    with pytest.raises(ValueError):
        decode_ppm(b"BM not a pnm")


def test_bmp_roundtrip_with_row_padding():
    rng = np.random.default_rng(2)
    # width 13 -> 39-byte rows -> 1 pad byte/row: exercises stride logic
    img = rng.integers(0, 256, size=(7, 13, 3), dtype=np.uint8)
    assert np.array_equal(decode_bmp(encode_bmp(img)), img)
    with pytest.raises(ValueError):
        decode_bmp(b"XX nonsense")


def test_wav_roundtrip():
    rate = 8000
    t = np.arange(1600) / rate
    x = 0.25 * np.sin(2 * np.pi * 440 * t)
    got, got_rate = decode_wav(encode_wav(x, rate))
    assert got_rate == rate
    assert len(got) == len(x)
    assert np.abs(got - x).max() < 1e-3  # 16-bit quantization error only


def test_resize_nearest():
    img = np.zeros((4, 4, 3), dtype=np.uint8)
    img[:2, :2] = 255  # top-left quadrant white
    up = resize_nearest(img, 8, 8)
    assert up.shape == (8, 8, 3)
    assert (up[:4, :4] == 255).all() and (up[4:, 4:] == 0).all()
    down = resize_nearest(img, 2, 2)
    assert down[0, 0, 0] == 255 and down[1, 1, 0] == 0


def test_features_are_real_signals():
    white = np.full((4, 4, 3), 255, dtype=np.uint8)
    black = np.zeros((4, 4, 3), dtype=np.uint8)
    fw, fb = image_features(white), image_features(black)
    assert fw[7] == pytest.approx(1.0) and fb[7] == pytest.approx(0.0)  # luma
    loud, _ = decode_wav(encode_wav(0.9 * np.ones(800), 8000))
    quiet, _ = decode_wav(encode_wav(0.01 * np.ones(800), 8000))
    assert audio_features(loud, 8000)[1] > audio_features(quiet, 8000)[1]


def test_real_media_pipeline_end_to_end():
    t = make_real_media_table(12)
    ds = ray.data.from_arrow(t)
    out = decode_features(ds, real=True, batch_size=4).to_pandas()
    assert len(out) == 12
    feats = np.stack([np.asarray(f) for f in out["features"]])
    assert np.isfinite(feats).all()
    # deterministic across runs
    again = decode_features(ray.data.from_arrow(t), real=True).to_pandas()
    a = np.stack([np.asarray(f) for f in
                  out.sort_values("media_id")["features"]])
    b = np.stack([np.asarray(f) for f in
                  again.sort_values("media_id")["features"]])
    assert np.array_equal(a, b)
    # audio rows have duration > 0; image rows have aspect > 0
    mimes = out.sort_values("media_id")["mime"].tolist()
    for m, f in zip(mimes, a):
        if m.startswith("audio"):
            assert f[0] > 0  # duration
        else:
            assert f[6] > 0  # aspect


def test_png_roundtrip_and_filters():
    from xpshacl_ray.stages.multimodal import decode_png, encode_png

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(11, 7, 3), dtype=np.uint8)
    assert np.array_equal(decode_png(encode_png(img)), img)
    # RGBA encodes as color type 6; alpha drops on decode
    rgba = rng.integers(0, 256, size=(5, 9, 4), dtype=np.uint8)
    assert np.array_equal(decode_png(encode_png(rgba)), rgba[:, :, :3])
    with pytest.raises(ValueError):
        decode_png(b"not a png")


def test_png_all_scanline_filters_decode():
    import struct
    import zlib

    from xpshacl_ray.stages.multimodal import (
        _PNG_SIG,
        _png_chunk,
        decode_png,
    )

    rng = np.random.default_rng(4)
    h, w, ch = 4, 5, 3
    img = rng.integers(0, 256, size=(h, w, ch), dtype=np.uint8)
    stride = w * ch
    rows, prev = [], np.zeros(stride, dtype=np.uint8)
    for y, f in enumerate([1, 2, 3, 4]):  # Sub, Up, Average, Paeth
        line = img[y].reshape(-1)
        enc = np.zeros(stride, dtype=np.uint8)
        for i in range(stride):
            a = int(line[i - ch]) if i >= ch else 0
            b = int(prev[i])
            c = int(prev[i - ch]) if i >= ch else 0
            if f == 1:
                pred = a
            elif f == 2:
                pred = b
            elif f == 3:
                pred = (a + b) >> 1
            else:
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc_) else (
                    b if pb <= pc_ else c)
            enc[i] = (int(line[i]) - pred) & 0xFF
        rows.append(bytes([f]) + enc.tobytes())
        prev = line
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    payload = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
               + _png_chunk(b"IDAT", zlib.compress(b"".join(rows)))
               + _png_chunk(b"IEND", b""))
    assert np.array_equal(decode_png(payload), img)


def test_compressed_codecs_still_explicit_stub():
    # PNG/JPEG/GIF now decode natively; audio/video compression remains
    # the honest stub (no torchaudio/decord in this environment)
    with pytest.raises(NotImplementedError, match="MP3"):
        MediaDecoder()._decode_one("audio/mpeg", b"\xff\xfb...")


def test_resize_inside_pipeline():
    t = make_real_media_table(6)
    out = decode_features(ray.data.from_arrow(t), real=True,
                          resize_to=(16, 16)).to_pandas()
    feats = np.stack([np.asarray(f) for f in
                      out.sort_values("media_id")["features"]])
    mimes = out.sort_values("media_id")["mime"].tolist()
    for m, f in zip(mimes, feats):
        if m.startswith("image"):
            assert f[6] == pytest.approx(1.0)  # resized square → aspect 1


def test_gif_roundtrip_multiframe_and_sampling():
    from xpshacl_ray.stages.multimodal import (
        decode_gif,
        encode_gif,
        sample_frames,
    )

    rng = np.random.default_rng(5)
    pal = rng.integers(0, 256, size=(16, 3), dtype=np.uint8)
    frames = rng.integers(0, 16, size=(5, 9, 7), dtype=np.uint8)
    out = decode_gif(encode_gif(frames, pal))
    assert out.shape == (5, 9, 7, 3)
    assert np.array_equal(out, pal[frames])  # exact LZW roundtrip
    s = sample_frames(out, 3)
    assert s.shape[0] == 3
    assert np.array_equal(s[0], out[0]) and np.array_equal(s[-1], out[-1])
    with pytest.raises(ValueError):
        decode_gif(b"not a gif")
    # single-frame GIF works too
    one = decode_gif(encode_gif(frames[:1], pal))
    assert one.shape == (1, 9, 7, 3)


def _smooth_image(h, w, seed=0):
    """Gradient + mild noise — representative photographic content
    (pure random noise is the known pathological JPEG input)."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.stack(
        [40 + yy * 150 / max(1, h - 1), 60 + xx * 120 / max(1, w - 1),
         90 + (yy + xx) * 60 / max(1, h + w - 2)], -1)
    return np.clip(img + rng.normal(0, 3, img.shape), 0, 255).astype(
        np.uint8)


def test_jpeg_roundtrip_quality_and_subsampling():
    from xpshacl_ray.stages.jpeg import decode_jpeg, encode_jpeg

    img = _smooth_image(33, 49, seed=7)

    def psnr(a, b):
        mse = ((a.astype(float) - b.astype(float)) ** 2).mean()
        return 10 * np.log10(255.0 ** 2 / mse)

    prev = 0.0
    for q in (50, 75, 90, 95):
        out = decode_jpeg(encode_jpeg(img, quality=q))
        assert out.shape == img.shape
        p = psnr(out, img)
        assert p > 35  # smooth content decodes faithfully
        assert p >= prev  # quality knob is monotone
        prev = p
    # 4:2:0 chroma subsampling: lossier but still high-fidelity
    out420 = decode_jpeg(encode_jpeg(img, quality=90, subsampling="420"))
    assert out420.shape == img.shape
    assert psnr(out420, img) > 33
    # flat blocks survive exactly (DC-only path)
    flat = np.full((16, 24, 3), 117, np.uint8)
    assert np.array_equal(decode_jpeg(encode_jpeg(flat)), flat)
    with pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg")


def test_jpeg_restart_markers_and_odd_sizes():
    from xpshacl_ray.stages.jpeg import decode_jpeg, encode_jpeg

    img = _smooth_image(37, 53, seed=8)
    with_rst = encode_jpeg(img, quality=90, subsampling="420",
                           restart_interval=2)
    without = encode_jpeg(img, quality=90, subsampling="420")
    assert b"\xff\xd0" in with_rst or b"\xff\xd1" in with_rst
    # restart markers change the byte stream but not the decoded pixels
    assert np.array_equal(decode_jpeg(with_rst), decode_jpeg(without))
    rng = np.random.default_rng(9)
    for shape in [(8, 8), (9, 13), (1, 1), (7, 3), (16, 17)]:
        im = rng.integers(0, 256, (*shape, 3), np.uint8)
        for sub in ("444", "420"):
            assert decode_jpeg(encode_jpeg(im, subsampling=sub)).shape \
                == im.shape


def test_jpeg_grayscale_and_unsupported_modes():
    import struct

    from xpshacl_ray.stages.jpeg import (
        _BitWriter,
        _DC_L,
        _AC_L,
        _QL,
        _ZZ,
        _encode_block,
        _encode_codes,
        _fdct_quant,
        _seg,
        decode_jpeg,
        encode_jpeg,
    )

    # hand-build a 1-component (grayscale) baseline JPEG and decode it
    h = w = 8
    plane = np.linspace(30, 220, h * w).reshape(h, w)
    zz = _fdct_quant((plane - 128.0).reshape(1, 8, 8),
                     _QL.astype(np.int32))[0]
    bw = _BitWriter()
    _encode_block(bw, zz, 0, _encode_codes(*_DC_L), _encode_codes(*_AC_L))
    bw.flush()
    out = bytearray(b"\xff\xd8")
    out += _seg(0xDB, bytes([0x00]) + bytes(_QL[_ZZ].tolist()))
    out += _seg(0xC0, struct.pack(">BHHB", 8, h, w, 1) + bytes([1, 0x11, 0]))
    out += _seg(0xC4, bytes([0x00]) + bytes(_DC_L[0]) + bytes(_DC_L[1]))
    out += _seg(0xC4, bytes([0x10]) + bytes(_AC_L[0]) + bytes(_AC_L[1]))
    out += _seg(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))
    out += bw.out + b"\xff\xd9"
    img = decode_jpeg(bytes(out))
    assert img.shape == (h, w, 3)
    assert np.array_equal(img[..., 0], img[..., 1])  # replicated gray
    assert abs(float(img[..., 0].mean()) - plane.mean()) < 3

    # lossless-sequential SOF raises the honest NotImplementedError
    # (progressive SOF2 now decodes — tests/test_jpeg_progressive.py)
    lossless = bytes(out).replace(b"\xff\xc0", b"\xff\xc3")
    with pytest.raises(NotImplementedError, match="unsupported"):
        decode_jpeg(lossless)
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((4, 4), np.uint8))  # not (h, w, 3)


def test_jpeg_features_through_media_decoder():
    from xpshacl_ray.stages.jpeg import encode_jpeg

    img = _smooth_image(20, 30, seed=10)
    f = MediaDecoder()._decode_one("image/jpeg", encode_jpeg(img))
    assert f.shape == (MediaDecoder.FEATURE_DIM,)
    # features computed from genuinely-decoded pixels: close to the
    # source image's features, not exact (lossy codec)
    assert np.abs(f - image_features(img)).max() < 0.02
    assert f[6] == pytest.approx(30 / 20)  # aspect survives exactly


def test_gif_features_through_media_decoder():
    from xpshacl_ray.stages.multimodal import (
        MediaDecoder,
        encode_gif,
    )

    rng = np.random.default_rng(6)
    pal = rng.integers(0, 256, size=(8, 3), dtype=np.uint8)
    frames = rng.integers(0, 8, size=(4, 10, 12), dtype=np.uint8)
    f = MediaDecoder()._decode_one("image/gif", encode_gif(frames, pal))
    assert f.shape == (MediaDecoder.FEATURE_DIM,)
    assert np.isfinite(f).all() and f[6] > 0  # aspect from real frames


# ---------------------------------------------------------------------------
# MP4 (ISO BMFF) container + MJPEG video decode
# ---------------------------------------------------------------------------


def test_mp4_parse_roundtrip_and_sample_tables():
    from xpshacl_ray.stages import mp4
    from xpshacl_ray.stages.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.default_rng(11)
    frames = rng.integers(0, 256, size=(8, 14, 10, 3), dtype=np.uint8)
    enc = [encode_jpeg(frames[i], quality=90) for i in range(8)]
    payload = mp4.build_mp4(enc, 10, 14, samples_per_chunk=3)

    info = mp4.parse_mp4(payload)
    assert info["brand"] == "isom"
    assert info["duration_s"] == pytest.approx(8 * 40 / 1000)
    (t,) = info["tracks"]
    assert (t["handler"], t["codec"]) == ("vide", "jpeg")
    assert (t["width"], t["height"], t["n_samples"]) == (10, 14, 8)
    # stsc/stco resolution: 3 chunks of 3/3/2 samples, ranges contiguous
    ranges = mp4.sample_ranges(t)
    assert [s for _, s in ranges] == [len(e) for e in enc]
    samples = mp4.extract_samples(payload, t)
    assert samples == enc
    # every extracted sample byte-identical → decodes like the original
    for i, s in enumerate(samples):
        assert np.array_equal(decode_jpeg(s), decode_jpeg(enc[i]))


def test_mp4_malformed_and_missing_boxes_raise():
    from xpshacl_ray.stages import mp4

    with pytest.raises(ValueError, match="ftyp"):
        mp4.parse_mp4(b"\x00" * 16)
    # ftyp but no moov
    ftyp = (12).to_bytes(4, "big") + b"ftypisom"
    with pytest.raises(ValueError, match="moov"):
        mp4.parse_mp4(ftyp)
    # truncated box (size past end)
    bad = ftyp + (64).to_bytes(4, "big") + b"moov"
    with pytest.raises(ValueError, match="malformed"):
        mp4.parse_mp4(bad)


def test_mp4_frame_sampling_decodes_only_selected():
    from xpshacl_ray.stages.jpeg import decode_jpeg, encode_jpeg
    from xpshacl_ray.stages.multimodal import (
        decode_mp4_frames,
        encode_mjpeg_mp4,
    )

    rng = np.random.default_rng(12)
    frames = rng.integers(0, 256, size=(9, 12, 12, 3), dtype=np.uint8)
    payload = encode_mjpeg_mp4(frames, quality=90)
    out = decode_mp4_frames(payload, 3)
    assert out.shape == (3, 12, 12, 3)
    # evenly spaced selection: first, middle, last sample
    want = [decode_jpeg(encode_jpeg(frames[i], quality=90)) for i in (0, 4, 8)]
    for got, exp in zip(out, want):
        assert np.array_equal(got, exp)
    # k > n_samples degrades to all samples, deduplicated
    assert decode_mp4_frames(payload, 100).shape[0] == 9


def test_mp4_inter_frame_codec_raises_named_plugin_point():
    from xpshacl_ray.stages import mp4
    from xpshacl_ray.stages.multimodal import MediaDecoder, decode_mp4_frames

    payload = mp4.build_mp4([b"notjpeg" * 4], 4, 4, codec=b"avc1")
    with pytest.raises(NotImplementedError, match="avc1"):
        decode_mp4_frames(payload)
    with pytest.raises(NotImplementedError, match="avc1"):
        MediaDecoder()._decode_one("video/mp4", payload)


def test_mp4_features_through_media_decoder_and_pipeline():
    from xpshacl_ray.stages.multimodal import (
        MediaDecoder,
        encode_mjpeg_mp4,
        image_features,
    )

    img = _smooth_image(16, 16, seed=3)
    frames = np.stack([img] * 4)  # constant track → features ≈ one frame
    f = MediaDecoder()._decode_one("video/mp4", encode_mjpeg_mp4(frames))
    assert f.shape == (MediaDecoder.FEATURE_DIM,)
    assert np.abs(f - image_features(img)).max() < 0.02
    assert f[6] == pytest.approx(1.0)

    # through the actor-pool pipeline, mixed with the other real codecs
    t = make_real_media_table(24)
    assert t["mime"].to_pylist().count("video/mp4") == 2
    out = decode_features(ray.data.from_arrow(t), real=True,
                          batch_size=4).to_pandas()
    assert len(out) == 24
    vids = out[out["mime"] == "video/mp4"]
    feats = np.stack([np.asarray(v) for v in vids["features"]])
    assert np.isfinite(feats).all() and (feats[:, 6] > 0).all()


def test_video_probe_pipeline_with_error_in_band():
    from xpshacl_ray.stages.multimodal import make_video_table, probe_videos

    t = make_video_table(10)
    out = (probe_videos(ray.data.from_arrow(t), k=3, batch_size=2)
           .to_pandas().sort_values("video_id").reset_index(drop=True))
    assert len(out) == 10
    # container metadata parsed for EVERY row, including the AVC ones
    assert out["codec"].isin(["jpeg", "avc1"]).all()
    assert (out["n_frames"] >= 3).all() and (out["duration_ms"] > 0).all()
    bad = out[out["codec"] == "avc1"]
    good = out[out["codec"] == "jpeg"]
    assert len(bad) == 2  # rows 4 and 9
    # decode errors travel in-band: ok=false + null features, no raise
    assert (~bad["ok"]).all() and bad["f0"].isna().all()
    assert good["ok"].all() and np.isfinite(good[[f"f{j}" for j in
                                                  range(8)]]).all().all()


def test_mp4_co64_and_largesize_boxes():
    import struct

    from xpshacl_ray.stages import mp4
    from xpshacl_ray.stages.jpeg import encode_jpeg

    rng = np.random.default_rng(13)
    frames = rng.integers(0, 256, size=(4, 10, 10, 3), dtype=np.uint8)
    enc = [encode_jpeg(frames[i], quality=90) for i in range(4)]
    payload = bytearray(mp4.build_mp4(enc, 10, 10, samples_per_chunk=2))

    # rewrite stco → co64 (64-bit chunk offsets), preserving offsets:
    # byte layout shifts, so rebuild by swapping the box in place and
    # adjusting offsets by the growth
    def find_box(data, name):
        pos = data.find(name)
        assert pos > 4
        start = pos - 4
        (size,) = struct.unpack_from(">I", data, start)
        return start, size

    start, size = find_box(payload, b"stco")
    n = struct.unpack_from(">I", payload, start + 12)[0]
    offsets = struct.unpack_from(f">{n}I", payload, start + 16)
    grow = 4 * n  # each offset doubles in width
    co64 = (struct.pack(">I", 16 + 8 * n) + b"co64" + b"\x00" * 4
            + struct.pack(">I", n)
            + struct.pack(f">{n}Q", *(o + grow for o in offsets)))
    new = bytes(payload[:start]) + co64 + bytes(payload[start + size:])
    # fix every enclosing container box size (moov/trak/mdia/minf/stbl)
    new = bytearray(new)
    for name in (b"moov", b"trak", b"mdia", b"minf", b"stbl"):
        s2, sz2 = find_box(new, name)
        struct.pack_into(">I", new, s2, sz2 + grow)
    info = mp4.parse_mp4(bytes(new))
    (t,) = info["tracks"]
    samples = mp4.extract_samples(bytes(new), t)
    assert samples == enc  # byte-identical through the 64-bit offsets

    # largesize (size==1 + 64-bit length) box header parses too
    body = bytes(payload[find_box(payload, b"mdat")[0] + 8:])
    large = (struct.pack(">I", 1) + b"mdat"
             + struct.pack(">Q", 16 + len(body)) + body)
    boxes = list(mp4._boxes(large, 0, len(large)))
    assert boxes[0][0] == b"mdat" and boxes[0][2] == len(large)


# ---------------------------------------------------------------------------
# full-spec PNG (every color type / depth / Adam7), GIF interlace +
# local tables + partial canvas, BMP 8/32-bit + top-down
# ---------------------------------------------------------------------------


def test_png_all_color_types_and_depths():
    from xpshacl_ray.stages.multimodal import (
        decode_png,
        encode_png,
        encode_png_gray,
        encode_png_interlaced,
        encode_png_palette,
    )

    rng = np.random.default_rng(21)
    img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
    # 16-bit truecolor scales to the high byte
    im16 = rng.integers(0, 65536, size=(7, 11, 3), dtype=np.uint16)
    assert np.array_equal(decode_png(encode_png(im16)),
                          (im16 >> 8).astype(np.uint8))
    # grayscale at every legal depth, plain and interlaced
    for d in (1, 2, 4, 8, 16):
        g = rng.integers(0, 1 << d, size=(10, 13), dtype=np.uint32)
        if d == 16:
            want = (g >> 8).astype(np.uint8)
        elif d < 8:
            want = (g * 255 // ((1 << d) - 1)).astype(np.uint8)
        else:
            want = g.astype(np.uint8)
        want = np.repeat(want[:, :, None], 3, axis=2)
        assert np.array_equal(decode_png(encode_png_gray(g, depth=d)), want)
        assert np.array_equal(
            decode_png(encode_png_gray(g, depth=d, interlace=True)), want)
    # palette at every legal depth
    for d in (1, 2, 4, 8):
        pal = rng.integers(0, 256, size=(1 << d, 3), dtype=np.uint8)
        idx = rng.integers(0, 1 << d, size=(11, 6), dtype=np.uint32)
        assert np.array_equal(
            decode_png(encode_png_palette(idx, pal, depth=d)), pal[idx])
        assert np.array_equal(
            decode_png(encode_png_palette(idx, pal, depth=d,
                                          interlace=True)), pal[idx])
    # Adam7 RGB incl. canvases smaller than one pass grid
    assert np.array_equal(decode_png(encode_png_interlaced(img)), img)
    for shape in [(1, 1), (2, 3), (5, 1)]:
        t = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png_interlaced(t)), t)


def test_gif_interlace_local_tables_and_partial_canvas():
    import struct

    from xpshacl_ray.stages.multimodal import (
        _lzw_encode,
        decode_gif,
        encode_gif,
    )

    rng = np.random.default_rng(31)
    pal = rng.integers(0, 256, size=(16, 3), dtype=np.uint8)
    fr = rng.integers(0, 16, size=(4, 9, 7), dtype=np.uint8)
    assert np.array_equal(decode_gif(encode_gif(fr, pal, interlace=True)),
                          pal[fr])
    locs = [rng.integers(0, 256, size=(16, 3), dtype=np.uint8)
            for _ in range(4)]
    want = np.stack([locs[i][fr[i]] for i in range(4)])
    assert np.array_equal(
        decode_gif(encode_gif(fr, pal, local_palettes=locs)), want)
    assert np.array_equal(
        decode_gif(encode_gif(fr, pal, interlace=True,
                              local_palettes=locs)), want)
    # mixed global/local per frame
    mixed = [None, locs[1], None, locs[3]]
    want_m = np.stack([pal[fr[0]], locs[1][fr[1]], pal[fr[2]],
                       locs[3][fr[3]]])
    assert np.array_equal(
        decode_gif(encode_gif(fr, pal, local_palettes=mixed)), want_m)

    # hand-built partial-canvas frame: full first frame, then a 3x2
    # rectangle at (2, 1) — composites onto the previous canvas
    base = encode_gif(fr[:1], pal)
    rect = rng.integers(0, 16, size=(2, 3), dtype=np.uint8)
    extra = bytearray(b"\x2c" + struct.pack("<HHHHB", 2, 1, 3, 2, 0))
    extra.append(4)
    lzw = _lzw_encode(rect.reshape(-1), 4)
    extra.append(len(lzw))
    extra += lzw
    extra.append(0)
    payload = base[:-1] + bytes(extra) + b"\x3b"
    dec = decode_gif(payload)
    assert dec.shape == (2, 9, 7, 3)
    want2 = pal[fr[0]].copy()
    want2[1:3, 2:5] = pal[rect]
    assert np.array_equal(dec[0], pal[fr[0]])
    assert np.array_equal(dec[1], want2)


def test_bmp_8bit_32bit_and_topdown():
    from xpshacl_ray.stages.multimodal import (
        decode_bmp,
        encode_bmp8,
        encode_bmp32,
    )

    rng = np.random.default_rng(41)
    img = rng.integers(0, 256, size=(7, 13, 3), dtype=np.uint8)
    assert np.array_equal(decode_bmp(encode_bmp32(img)), img)
    pal = rng.integers(0, 256, size=(40, 3), dtype=np.uint8)
    idx = rng.integers(0, 40, size=(9, 6), dtype=np.uint8)
    assert np.array_equal(decode_bmp(encode_bmp8(idx, pal)), pal[idx])
    assert np.array_equal(decode_bmp(encode_bmp8(idx, pal, top_down=True)),
                          pal[idx])


def test_netpbm_whole_family():
    from xpshacl_ray.stages.multimodal import decode_ppm

    rng = np.random.default_rng(61)
    # P5 graymap, 8- and 16-bit (16-bit is big-endian per the spec)
    g = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    dec = decode_ppm(b"P5\n7 5\n255\n" + g.tobytes())
    assert np.array_equal(dec, np.repeat(g[:, :, None], 3, 2))
    g16 = rng.integers(0, 65536, size=(4, 6), dtype=np.uint16)
    want = (g16.astype(np.uint32) * 255 // 65535).astype(np.uint8)
    dec16 = decode_ppm(b"P5\n6 4\n65535\n" + g16.astype(">u2").tobytes())
    assert np.array_equal(dec16, np.repeat(want[:, :, None], 3, 2))
    # P4 packed bitmap: 1 = black, rows byte-padded
    bits = rng.integers(0, 2, size=(6, 11), dtype=np.uint8)
    stride = (11 + 7) // 8
    packed = np.packbits(np.pad(bits, ((0, 0), (0, stride * 8 - 11))),
                         axis=1)
    dec4 = decode_ppm(b"P4\n11 6\n" + packed.tobytes())
    assert np.array_equal(
        dec4, np.repeat(((1 - bits) * 255).astype(np.uint8)[:, :, None],
                        3, 2))
    # ASCII forms: P1 with unseparated digits, P2 scaled maxval, P3 RGB
    b2 = np.array([[0, 1, 1, 0, 1], [1, 0, 0, 1, 0]], np.uint8)
    dec1 = decode_ppm(b"P1\n# bm\n5 2\n01101\n10010\n")
    assert np.array_equal(
        dec1, np.repeat(((1 - b2) * 255).astype(np.uint8)[:, :, None],
                        3, 2))
    gv = rng.integers(0, 100, size=(3, 4), dtype=np.uint8)
    p2 = b"P2\n4 3\n99\n" + " ".join(map(str, gv.reshape(-1))).encode()
    w2 = (gv.astype(np.uint32) * 255 // 99).astype(np.uint8)
    assert np.array_equal(decode_ppm(p2), np.repeat(w2[:, :, None], 3, 2))
    cv = rng.integers(0, 256, size=(2, 3, 3), dtype=np.uint8)
    p3 = b"P3\n3 2\n255\n" + " ".join(map(str, cv.reshape(-1))).encode()
    assert np.array_equal(decode_ppm(p3), cv)
    # comments inside the ASCII raster run to end of line, digits and all
    p1c = b"P1\n5 2\n011 # row 0 1111\n01\n#1111\n10010\n"
    assert np.array_equal(decode_ppm(p1c), dec1)
    g = [str(v).encode() for v in gv.reshape(-1)]
    p2c = (b"P2\n4 3\n99\n" + b" ".join(g[:5]) + b" # 7 x\n"
           + b" ".join(g[5:]))
    assert np.array_equal(decode_ppm(p2c), np.repeat(w2[:, :, None], 3, 2))
    with pytest.raises(ValueError, match="netpbm"):
        decode_ppm(b"P7\nnope")


def test_image_phash_invariance_and_separation():
    from xpshacl_ray.stages.multimodal import (
        PHashStage,
        encode_jpeg,
        encode_png,
        image_phash,
        make_phash_fixture,
    )

    img = _smooth_image(40, 50, seed=9)
    base = image_phash(img)
    # lossless containers hash IDENTICALLY; JPEG re-encode stays close
    from xpshacl_ray.stages.multimodal import decode_jpeg, decode_png
    assert image_phash(decode_png(encode_png(img))) == base
    d = bin((base ^ image_phash(decode_jpeg(encode_jpeg(img, quality=90))))
            & ((1 << 64) - 1)).count("1")
    # pure gradients put many AC coefficients AT the median (fragile
    # bits), so the re-encode bound is loose — but still far under any
    # unrelated image's distance
    other = image_phash(255 - _smooth_image(50, 40, seed=77)[:, ::-1])
    d_other = bin((base ^ other) & ((1 << 64) - 1)).count("1")
    assert d <= 12 < 16 < d_other

    # stage skips audio, hashes gif/video via first frame
    t = make_real_media_table(22)
    out = PHashStage()(t).to_pandas()
    assert not out["mime"].str.startswith("audio").any()
    assert "video/mp4" in set(out["mime"])
    assert out["phash64"].notna().all()

    fx = make_phash_fixture(6)
    hashed = PHashStage()(fx).to_pandas().sort_values("media_id")
    h = hashed["phash64"].to_numpy().astype(np.int64).view(np.uint64)
    for i in range(6):  # each PNG/JPEG re-encode pair is near
        assert bin(int(h[2 * i] ^ h[2 * i + 1])).count("1") <= 8


def test_hash64_near_dups_banding_exactness():
    from xpshacl_ray.functions.dedup import hash64_near_dups
    import pyarrow as pa

    # hand-placed hashes: (1,2) differ by 5 bits SPREAD over 5 bands —
    # found only because 8-band pigeonhole still leaves 3 clean bands;
    # (3,4) differ by 9 bits → beyond max_hamming, never emitted
    a = 0x1111_2222_3333_4444
    b = a ^ 0b10101 ^ (1 << 20) ^ (1 << 40)  # 5 flips in bands 0,2,5
    c = 0x7777_0000_7777_0000
    d = c ^ ((1 << 9) - 1)  # 9 flips
    t = pa.table({"media_id": pa.array([1, 2, 3, 4], pa.int64()),
                  "phash64": pa.array(
                      np.array([a, b, c, d], dtype=np.uint64)
                      .view(np.int64), pa.int64())})
    pairs = hash64_near_dups(ray.data.from_arrow(t), hash_col="phash64",
                             id_col="media_id", max_hamming=7,
                             n_bands=8).to_pandas()
    assert len(pairs) == 1
    assert (pairs.iloc[0]["id_a"], pairs.iloc[0]["id_b"]) == (1, 2)
    # guarantee check: asking beyond the pigeonhole bound raises
    with pytest.raises(ValueError, match="guarantees"):
        hash64_near_dups(ray.data.from_arrow(t), hash_col="phash64",
                         max_hamming=8, n_bands=8)


def test_on_error_null_streams_past_corruption():
    from xpshacl_ray.stages.multimodal import (
        decode_features,
        make_corrupt_media_table,
    )

    t = make_corrupt_media_table(11)
    # raise policy: the task dies on the first corrupt payload
    with pytest.raises(Exception):
        MediaDecoder()(t)
    with pytest.raises(ValueError, match="on_error"):
        MediaDecoder(on_error="skip")
    # null policy: corrupt rows → null features, the rest decode
    out = (decode_features(ray.data.from_arrow(t), real=True,
                           batch_size=4, on_error="null")
           .to_pandas().sort_values("media_id").reset_index(drop=True))
    assert len(out) == 11
    assert sorted(out[out["features"].isna()]["media_id"]) == [0, 3, 6]
    good = np.stack([np.asarray(f)
                     for f in out[out["features"].notna()]["features"]])
    assert np.isfinite(good).all()


def test_on_error_null_covers_corrupt_png_idat_and_mp4_stsc():
    import struct
    import zlib

    import pyarrow as pa

    from xpshacl_ray.stages.multimodal import (
        _png_chunk,
        encode_mjpeg_mp4,
        encode_png,
    )

    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    png = encode_png(img)
    # garble the zlib stream inside IDAT but keep the chunk CRC valid,
    # so the decoder reaches zlib.decompress
    at = png.index(b"IDAT") - 4
    (n,) = struct.unpack(">I", png[at:at + 4])
    body = bytearray(png[at + 8:at + 8 + n])
    body[2:] = bytes(b ^ 0xFF for b in body[2:])
    bad_png = png[:at] + _png_chunk(b"IDAT", bytes(body)) + png[at + 12 + n:]
    # stsc whose first entry starts at chunk 2: no entry covers chunk 1
    mp4 = encode_mjpeg_mp4(rng.integers(0, 256, size=(3, 16, 16, 3),
                                        dtype=np.uint8))
    at = mp4.index(b"stsc") + 12  # type, version/flags, entry count
    bad_mp4 = mp4[:at] + struct.pack(">I", 2) + mp4[at + 4:]

    with pytest.raises(zlib.error):
        MediaDecoder()._decode_one("image/png", bad_png)
    with pytest.raises(ValueError, match="stsc"):
        MediaDecoder()._decode_one("video/mp4", bad_mp4)
    t = pa.table({"media_id": pa.array([0, 1, 2], pa.int64()),
                  "mime": ["image/png", "video/mp4", "image/png"],
                  "payload": pa.array([bad_png, bad_mp4, png], pa.binary())})
    out = MediaDecoder(on_error="null")(t)
    assert out["features"].is_null().to_pylist() == [True, True, False]


def test_qoi_roundtrip_all_op_kinds():
    from xpshacl_ray.stages.qoi import decode_qoi, encode_qoi

    rng = np.random.default_rng(71)
    # noise (literals/cache), gradient (diff/luma), flat (runs)
    noise = rng.integers(0, 256, size=(17, 23, 3), dtype=np.uint8)
    yy, xx = np.mgrid[0:20, 0:30]
    grad = np.stack([yy * 3 % 256, xx * 2 % 256, (yy + xx) % 256],
                    -1).astype(np.uint8)
    flat = np.full((10, 500, 3), 42, np.uint8)  # 62-run chaining
    for img in (noise, grad, flat):
        enc = encode_qoi(img)
        assert np.array_equal(decode_qoi(enc), img)
    assert len(encode_qoi(flat)) < flat.size // 20  # runs compress
    assert len(encode_qoi(grad)) < grad.size  # diffs/luma compress
    with pytest.raises(ValueError, match="QOI"):
        decode_qoi(b"nope")
    # 4-channel literal decodes, alpha dropped
    import struct
    p = (b"qoif" + struct.pack(">II", 1, 1) + bytes([4, 0])
         + bytes([0xFF, 9, 8, 7, 6]) + b"\x00" * 7 + b"\x01")
    assert decode_qoi(p).tolist() == [[[9, 8, 7]]]
    # through MediaDecoder
    f = MediaDecoder()._decode_one("image/qoi", encode_qoi(grad))
    assert np.abs(f - image_features(grad)).max() < 1e-12  # lossless


def test_tga_all_variants():
    import struct

    from xpshacl_ray.stages import tga

    rng = np.random.default_rng(81)
    img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
    for rle in (False, True):
        for td in (True, False):
            enc = tga.encode_tga(img, rle=rle, top_down=td)
            assert np.array_equal(tga.decode_tga(enc), img)
    flat = np.full((20, 300, 3), 9, np.uint8)
    assert len(tga.encode_tga(flat, rle=True)) < flat.size // 10
    g = rng.integers(0, 256, size=(9, 11), dtype=np.uint8)
    pal = rng.integers(0, 256, size=(50, 3), dtype=np.uint8)
    idx = rng.integers(0, 50, size=(8, 9), dtype=np.uint8)
    for rle in (False, True):
        assert np.array_equal(tga.decode_tga(tga.encode_tga_gray(g, rle=rle)),
                              np.repeat(g[:, :, None], 3, 2))
        assert np.array_equal(
            tga.decode_tga(tga.encode_tga_palette(idx, pal, rle=rle)),
            pal[idx])
    # 16-bit ARGB1555 and 32-bit BGRA hand-built frames
    px = struct.pack("<HHH", 31 << 10, 31 << 5, 31)
    head = struct.pack("<BBBHHBHHHHBB", 0, 0, 2, 0, 0, 0, 0, 0, 3, 1,
                       16, 0x20)
    assert tga.decode_tga(head + px).tolist() == \
        [[[255, 0, 0], [0, 255, 0], [0, 0, 255]]]
    with pytest.raises(NotImplementedError, match="image type"):
        tga.decode_tga(struct.pack("<BBBHHBHHHHBB", 0, 0, 7, 0, 0, 0,
                                   0, 0, 1, 1, 24, 0) + b"\x00" * 3)
    # through MediaDecoder (lossless)
    f = MediaDecoder()._decode_one("image/x-tga", tga.encode_tga(img))
    assert np.abs(f - image_features(img)).max() < 1e-12


def test_dhash_ahash_invariance():
    from xpshacl_ray.stages.multimodal import (
        decode_jpeg,
        decode_png,
        encode_jpeg,
        encode_png,
        image_ahash,
        image_dhash,
        make_phash_fixture,
    )

    t = make_phash_fixture(6)
    dec = {"image/png": decode_png, "image/jpeg": decode_jpeg}
    for fn in (image_dhash, image_ahash):
        hs = np.array([fn(dec[m](p)) for m, p in
                       zip(t["mime"].to_pylist(),
                           t["payload"].to_pylist())],
                      dtype=np.int64).view(np.uint64)
        pair = [bin(int(hs[2 * i] ^ hs[2 * i + 1])).count("1")
                for i in range(6)]
        cross = [bin(int(hs[2 * i] ^ hs[2 * j])).count("1")
                 for i in range(6) for j in range(i + 1, 6)]
        assert max(pair) <= 3 < 10 <= min(cross), fn.__name__
    # dHash is brightness-shift invariant by construction
    img = _smooth_image(30, 40, seed=4)
    brighter = np.clip(img.astype(np.int64) + 30, 0, 255).astype(np.uint8)
    from xpshacl_ray.stages.multimodal import image_dhash as dh
    assert bin((dh(img) ^ dh(brighter)) & ((1 << 64) - 1)).count("1") <= 4


def test_video_fingerprint_remux_and_reencode_invariance():
    from xpshacl_ray.functions.dedup import hash64_near_dups
    from xpshacl_ray.stages.multimodal import (
        VideoFingerprint,
        make_video_dup_fixture,
        video_fingerprint,
    )

    t = make_video_dup_fixture(4)
    payloads = t["payload"].to_pylist()
    # re-encode + re-mux copies collapse to (near-)identical prints
    for i in range(4):
        d = bin((video_fingerprint(payloads[2 * i])
                 ^ video_fingerprint(payloads[2 * i + 1]))
                & ((1 << 64) - 1)).count("1")
        assert d <= 7, i
    hashed = ray.data.from_arrow(t).map_batches(
        VideoFingerprint, batch_format="pyarrow", concurrency=2)
    pairs = hash64_near_dups(hashed, hash_col="vfp64",
                             id_col="media_id", max_hamming=7,
                             n_bands=8).to_pandas()
    got = sorted(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    assert got == [(0, 1), (2, 3), (4, 5), (6, 7)]
    # undecodable codec → null fingerprint in-band
    from xpshacl_ray.stages import mp4
    import pyarrow as pa
    bad = pa.table({"media_id": pa.array([0], pa.int64()),
                    "payload": pa.array(
                        [mp4.build_mp4([b"x" * 8], 4, 4, codec=b"avc1")],
                        pa.binary())})
    out = VideoFingerprint()(bad).to_pandas()
    assert out["vfp64"].isna().all()


def test_png_text_chunks_parse_add_strip():
    import struct

    from xpshacl_ray.stages.multimodal import (
        _PNG_SIG,
        _png_chunk,
        decode_png,
        encode_png,
        png_add_text,
        png_strip_text,
        png_text_chunks,
    )

    rng = np.random.default_rng(63)
    img = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    base = encode_png(img)
    tagged = png_add_text(base, {"Software": "xr", "Author": "synth",
                                 "prompt": "a test gradient"})
    assert png_text_chunks(tagged) == {"Software": "xr",
                                       "Author": "synth",
                                       "prompt": "a test gradient"}
    assert np.array_equal(decode_png(tagged), img)  # pixels untouched
    stripped = png_strip_text(tagged)
    assert png_text_chunks(stripped) == {}
    assert np.array_equal(decode_png(stripped), img)
    # iTXt (uncompressed, language-tagged UTF-8)
    itxt = _png_chunk(b"iTXt", b"Comment\x00\x00\x00en\x00Kommentar"
                      b"\x00h\xc3\xa9llo")
    cut = 8 + 12 + 13  # after IHDR
    t2 = tagged[:cut] + itxt + tagged[cut:]
    assert png_text_chunks(t2)["Comment"] == "héllo"
    with pytest.raises(ValueError):
        png_text_chunks(b"not png")
