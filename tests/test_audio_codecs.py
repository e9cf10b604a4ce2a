"""Compressed-WAV codecs (stages/audio.py): G.711 µ-law/A-law, IMA
ADPCM, 24-bit/float PCM — RIFF walk, bit-parity vs the stdlib
``audioop`` reference, roundtrip fidelity, and the MediaDecoder
fallback wiring."""

import numpy as np
import pytest

from xpshacl_ray.stages import audio


def _tone(n=6000, rate=8000, f=440.0, amp=0.6, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    return amp * np.sin(2 * np.pi * f * t) + 0.05 * rng.standard_normal(n)


def test_g711_bit_parity_with_audioop_full_domain():
    audioop = pytest.importorskip("audioop")
    codes = bytes(range(256))
    assert np.array_equal(audio.ulaw_decode(codes),
                          np.frombuffer(audioop.ulaw2lin(codes, 2), "<i2"))
    assert np.array_equal(audio.alaw_decode(codes),
                          np.frombuffer(audioop.alaw2lin(codes, 2), "<i2"))
    pcm = np.arange(-32768, 32768, dtype=np.int16)
    assert audio.ulaw_encode(pcm) == audioop.lin2ulaw(pcm.tobytes(), 2)
    assert audio.alaw_encode(pcm) == audioop.lin2alaw(pcm.tobytes(), 2)


def test_g711_wav_roundtrip_within_quantization():
    x = np.clip(_tone(), -1, 1)
    for enc in (audio.encode_wav_ulaw, audio.encode_wav_alaw):
        y, rate = audio.decode_wav_any(enc(x))
        assert rate == 8000 and len(y) == len(x)
        # G.711: 8-bit log companding ≈ 12-bit linear near zero
        assert np.abs(y - x).max() < 0.04
        assert np.corrcoef(y, x)[0, 1] > 0.999


def test_ima_adpcm_roundtrip_and_block_structure():
    x = np.clip(_tone(), -1, 1)
    pcm = np.clip(x * 32767, -32768, 32767).astype(np.int16)
    data, spb = audio.ima_adpcm_encode(pcm, block_align=256)
    assert spb == (256 - 4) * 2 + 1
    assert len(data) % 256 == 0
    dec = audio.ima_adpcm_decode(data, 256, len(pcm))
    assert len(dec) == len(pcm)
    # block header predictor IS the first sample of each block
    assert dec[0] == pcm[0] and dec[spb] == pcm[spb]
    err = np.abs(dec.astype(np.int64) - pcm.astype(np.int64))
    # ~4-bit residual coding of a noisy tone: bounded tracking error
    assert err.max() < 6000 and np.sqrt((err.astype(float) ** 2).mean()) < 1200

    y, rate = audio.decode_wav_any(audio.encode_wav_ima(x))
    assert rate == 8000 and len(y) == len(x)  # fact chunk trims padding
    assert np.abs(y - x).max() < 0.2
    assert np.corrcoef(y, x)[0, 1] > 0.99


def test_pcm24_and_float32_wav_near_exact():
    x = np.clip(_tone(n=777), -1, 1)
    y24, _ = audio.decode_wav_any(audio.encode_wav_pcm24(x))
    assert np.abs(y24 - x).max() < 2.0 / (1 << 23)
    yf, _ = audio.decode_wav_any(audio.encode_wav_float32(x))
    assert np.abs(yf - x).max() < 1e-6


def test_riff_walk_rejects_malformed():
    with pytest.raises(ValueError, match="RIFF"):
        audio.decode_wav_any(b"\x00" * 16)
    # valid RIFF header, truncated chunk body
    bad = b"RIFF" + (100).to_bytes(4, "little") + b"WAVE" \
        + b"fmt " + (64).to_bytes(4, "little") + b"\x00" * 4
    with pytest.raises(ValueError, match="truncated"):
        audio.decode_wav_any(bad)
    # fmt present, data missing
    import struct
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    nodata = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    with pytest.raises(ValueError, match="fmt/data"):
        audio.decode_wav_any(nodata)


def test_unknown_format_tag_raises_named():
    import struct
    fmt = struct.pack("<HHIIHH", 0x55, 1, 8000, 1000, 1, 0)  # MP3-in-WAV
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 4) + b"\x00" * 4)
    payload = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    with pytest.raises(NotImplementedError, match="0x0055"):
        audio.decode_wav_any(payload)


def test_media_decoder_falls_back_for_compressed_wav():
    from xpshacl_ray.stages.multimodal import MediaDecoder, audio_features

    x = np.clip(_tone(n=2000), -1, 1)
    base = audio_features(x, 8000)
    for enc in (audio.encode_wav_ulaw, audio.encode_wav_alaw,
                audio.encode_wav_ima, audio.encode_wav_pcm24,
                audio.encode_wav_float32):
        f = MediaDecoder()._decode_one("audio/wav", enc(x))
        assert f.shape == (MediaDecoder.FEATURE_DIM,)
        # features from genuinely-decoded samples track the source
        assert np.abs(f - base).max() < 0.05, enc.__name__


def test_stereo_and_multichannel_mean():
    import struct
    # 2-channel float32: decode averages channels
    left = np.linspace(-0.5, 0.5, 100)
    right = -left
    inter = np.empty(200, np.float64)
    inter[0::2], inter[1::2] = left, right
    fmt = struct.pack("<HHIIHH", 3, 2, 8000, 64000, 8, 32)
    data = inter.astype("<f4").tobytes()
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    payload = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    y, rate = audio.decode_wav_any(payload)
    assert len(y) == 100 and np.abs(y).max() < 1e-6  # L+R cancel


# ---------------------------------------------------------------------------
# property-based fuzz (hypothesis)
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=400))
def test_g711_self_consistency_fuzz(vals):
    """encode→decode→encode is a fixed point (companding idempotence),
    and the first decode is within one segment step of the source."""
    pcm = np.array(vals, dtype=np.int16)
    for enc, dec in [(audio.ulaw_encode, audio.ulaw_decode),
                     (audio.alaw_encode, audio.alaw_decode)]:
        code = enc(pcm)
        lin = dec(code)
        assert enc(lin) == code  # idempotent after first quantization
        assert np.abs(lin.astype(np.int64)
                      - pcm.astype(np.int64)).max() <= 2048


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-32768, 32767), min_size=2, max_size=900),
       st.sampled_from([32, 64, 256]))
def test_ima_adpcm_bounded_error_fuzz(vals, block_align):
    pcm = np.array(vals, dtype=np.int16)
    data, spb = audio.ima_adpcm_encode(pcm, block_align)
    dec = audio.ima_adpcm_decode(data, block_align, len(pcm))
    assert len(dec) == len(pcm)
    # block-leading samples are stored verbatim in the header
    assert dec[0] == pcm[0]
    # worst-case per-step tracking error is bounded by ~2 max steps
    assert np.abs(dec.astype(np.int64)
                  - pcm.astype(np.int64)).max() <= 2 * 32767


def test_mel_filterbank_and_spectral_features():
    from xpshacl_ray.stages.audio import mel_filterbank, spectral_features

    fb = mel_filterbank(256, 8, 8000)
    assert fb.shape == (8, 129)
    assert (fb >= 0).all() and fb.sum(axis=1).min() > 0  # no empty filter
    t = np.arange(8000) / 8000
    low = spectral_features(0.5 * np.sin(2 * np.pi * 440 * t), 8000)
    hi = spectral_features(0.5 * np.sin(2 * np.pi * 3500 * t), 8000)
    assert low.shape == (8,) and np.isfinite(low).all()
    # tone frequency ordering survives the mel pooling
    assert low.argmax() < hi.argmax()
    # deterministic; short clips pad instead of crashing
    assert np.array_equal(
        low, spectral_features(0.5 * np.sin(2 * np.pi * 440 * t), 8000))
    assert spectral_features(np.ones(50), 8000).shape == (8,)


def test_audio_spectral_stage_mixed_media():
    from xpshacl_ray.stages.multimodal import (
        AudioSpectral,
        make_real_media_table,
    )

    t = make_real_media_table(28)
    out = AudioSpectral()(t).to_pandas()
    # only the audio rows survive (2 full cycles of the 14-kind fixture)
    assert set(out["mime"]) == {"audio/wav", "audio/flac",
                                "audio/basic", "audio/aiff"}
    assert len(out) == 12
    feats = out[[f"m{j}" for j in range(8)]].to_numpy()
    assert np.isfinite(feats).all()
    # empty batch (no audio) yields the zero-row schema
    imgs = t.filter(np.array([m.startswith("image")
                              for m in t["mime"].to_pylist()]))
    empty = AudioSpectral()(imgs)
    assert len(empty) == 0 and "m7" in empty.column_names


def test_audio_stages_skip_undecodable_audio_mimes():
    import pyarrow as pa

    from xpshacl_ray.stages.multimodal import (
        AudioFingerprint,
        AudioSpectral,
        encode_wav,
    )

    wav = encode_wav(np.clip(_tone(8000), -1, 1), 8000)
    t = pa.table({"media_id": pa.array([0, 1], pa.int64()),
                  "mime": ["audio/mpeg", "audio/wav"],
                  "payload": pa.array([b"ID3\x04mp3-bytes", wav],
                                      pa.binary())})
    # an audio mime with no in-repo decoder is skipped like a non-audio
    # row, not a KeyError that kills the task
    assert AudioSpectral()(t)["media_id"].to_pylist() == [1]
    assert AudioFingerprint()(t)["media_id"].to_pylist() == [1]


def test_audio_fingerprint_robustness_and_pairs():
    from xpshacl_ray.functions.dedup import hash64_near_dups
    from xpshacl_ray.stages.audio import audio_fingerprint
    from xpshacl_ray.stages.multimodal import (
        AudioFingerprint,
        make_audio_dup_fixture,
    )
    import ray.data

    # level-invariance is exact (log differences cancel gain)
    x = np.clip(_tone(8000), -1, 1)
    assert audio_fingerprint(x, 8000) == audio_fingerprint(0.5 * x, 8000)
    # trims only nudge the envelope
    d = bin((audio_fingerprint(x, 8000)
             ^ audio_fingerprint(x[400:], 8000)) & ((1 << 64) - 1)
            ).count("1")
    assert d <= 7

    t = make_audio_dup_fixture(5)
    hashed = ray.data.from_arrow(t).map_batches(
        AudioFingerprint, batch_format="pyarrow", concurrency=2)
    pairs = hash64_near_dups(hashed, hash_col="afp64",
                             id_col="media_id", max_hamming=7,
                             n_bands=8).to_pandas()
    got = sorted(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    # exactly the five planted re-encode pairs, nothing else
    assert got == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]


def test_au_and_aiff_containers():
    from xpshacl_ray.stages.audio import (
        _f80_decode,
        _f80_encode,
        decode_aiff,
        decode_au,
        encode_aiff,
        encode_au,
    )
    from xpshacl_ray.stages.multimodal import MediaDecoder

    x = np.clip(_tone(3000), -1, 1)
    y, r = decode_au(encode_au(x, 8000))
    assert r == 8000 and np.abs(y - x).max() < 1e-3
    # AU µ-law reuses the bit-exact G.711 path
    yu, _ = decode_au(encode_au(x, 8000, encoding=1))
    assert np.abs(yu - x).max() < 0.04
    y3, r3 = decode_aiff(encode_aiff(x, 44100))
    assert r3 == 44100 and np.abs(y3 - x).max() < 1e-3
    y8, _ = decode_aiff(encode_aiff(x, 8000, bits=8))
    assert np.abs(y8 - x).max() < 0.02
    # 80-bit extended-float sample rates roundtrip exactly
    for rate in (8000, 11025, 22050, 44100, 48000, 96000):
        assert int(round(_f80_decode(_f80_encode(float(rate))))) == rate
    with pytest.raises(ValueError, match="AU"):
        decode_au(b"RIFF nope")
    with pytest.raises(ValueError, match="AIFF"):
        decode_aiff(b".snd nope")
    # through MediaDecoder by mime
    for mime, payload in [("audio/basic", encode_au(x, 8000)),
                          ("audio/aiff", encode_aiff(x, 8000))]:
        f = MediaDecoder()._decode_one(mime, payload)
        assert f.shape == (MediaDecoder.FEATURE_DIM,)
