"""Compressed-WAV audio codecs in pure numpy: G.711 µ-law / A-law and
IMA (DVI4) ADPCM, plus the PCM widths the stdlib ``wave`` module won't
hand back (24-bit int, 32-bit float).

The stdlib ``wave`` module only accepts WAVE_FORMAT_PCM, so this module
walks the RIFF chunk list itself (``fmt ``/``fact``/``data``) and
dispatches on the format tag:

====== ===================== ============================================
tag    format                decode
====== ===================== ============================================
0x0001 PCM 8/16/24/32-bit    numpy frombuffer (+ 24-bit byte assembly)
0x0003 IEEE float32/64       numpy frombuffer
0x0006 G.711 A-law           256-entry LUT (ITU-T G.711 expand)
0x0007 G.711 µ-law           256-entry LUT (ITU-T G.711 expand)
0x0011 IMA/DVI ADPCM         block-wise nibble predictor (IMA spec)
====== ===================== ============================================

Encoders for every tag exist so each decode path is roundtrip-tested
without fixtures from external tools (matching the repo-wide codec
contract: the reference treats media as opaque bytes — this surface is
the engine's addition).  Unknown format tags raise the honest
``NotImplementedError`` naming the tag.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# RIFF chunk walk
# ---------------------------------------------------------------------------


def _riff_chunks(payload: bytes) -> Dict[bytes, bytes]:
    """RIFF/WAVE bytes → {chunk_id: body} for the top-level chunks
    (first occurrence wins; word-aligned per the RIFF spec)."""
    if len(payload) < 12 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    chunks: Dict[bytes, bytes] = {}
    pos = 12
    end = min(len(payload), 8 + struct.unpack_from("<I", payload, 4)[0])
    while pos + 8 <= end:
        cid = payload[pos:pos + 4]
        size = struct.unpack_from("<I", payload, pos + 4)[0]
        body = payload[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"truncated RIFF chunk {cid!r}")
        chunks.setdefault(cid, body)
        pos += 8 + size + (size & 1)  # odd sizes pad to word boundary
    return chunks


# ---------------------------------------------------------------------------
# G.711 (ITU-T) µ-law / A-law — LUT decode, segment-search encode
# ---------------------------------------------------------------------------


def _ulaw_table() -> np.ndarray:
    u = np.arange(256, dtype=np.int64) ^ 0xFF  # stored complemented
    sign = u & 0x80
    exp = (u >> 4) & 0x07
    mant = u & 0x0F
    mag = (((mant << 3) + 0x84) << exp) - 0x84
    return np.where(sign, -mag, mag).astype(np.int16)


def _alaw_table() -> np.ndarray:
    a = np.arange(256, dtype=np.int64) ^ 0x55  # even bits inverted
    sign = a & 0x80
    exp = (a >> 4) & 0x07
    mant = a & 0x0F
    mag = np.where(exp == 0, (mant << 4) + 8,
                   ((mant << 4) + 0x108) << (exp - 1))
    return np.where(sign, mag, -mag).astype(np.int16)  # MSB set = positive


_ULAW = _ulaw_table()
_ALAW = _alaw_table()


def ulaw_decode(data: bytes) -> np.ndarray:
    """µ-law bytes → int16 linear samples (G.711 expand)."""
    return _ULAW[np.frombuffer(data, np.uint8)]


def alaw_decode(data: bytes) -> np.ndarray:
    """A-law bytes → int16 linear samples (G.711 expand)."""
    return _ALAW[np.frombuffer(data, np.uint8)]


_ULAW_SEG = np.array([0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF,
                      0x1FFF], dtype=np.int64)
_ALAW_SEG = np.array([0x1F, 0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF,
                      0xFFF], dtype=np.int64)


def ulaw_encode(pcm: np.ndarray) -> bytes:
    """int16 linear → µ-law bytes — the classic 14-bit segment-search
    compress (Sun g711.c / ITU G.711), vectorized; bit-exact vs the
    stdlib ``audioop.lin2ulaw`` over the full int16 domain."""
    x = pcm.astype(np.int64) >> 2  # to 14 bits
    mask = np.where(x < 0, 0x7F, 0xFF)
    mag = np.minimum(np.abs(x), 8159) + 33
    seg = np.searchsorted(_ULAW_SEG, mag)  # first seg_end >= mag
    uval = np.where(seg >= 8, 0x7F,
                    (seg << 4) | ((mag >> np.minimum(seg + 1, 9)) & 0x0F))
    return (uval ^ mask).astype(np.uint8).tobytes()


def alaw_encode(pcm: np.ndarray) -> bytes:
    """int16 linear → A-law bytes — 13-bit segment-search compress
    (Sun g711.c / ITU G.711), vectorized; bit-exact vs the stdlib
    ``audioop.lin2alaw`` over the full int16 domain."""
    x = pcm.astype(np.int64) >> 3  # to 13 bits
    mask = np.where(x >= 0, 0xD5, 0x55)
    mag = np.where(x >= 0, x, -x - 1)
    seg = np.searchsorted(_ALAW_SEG, mag)
    aval = np.where(seg >= 8, 0x7F,
                    (seg << 4) | np.where(seg < 2, (mag >> 1) & 0x0F,
                                          (mag >> seg) & 0x0F))
    return (aval ^ mask).astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------
# IMA (DVI4) ADPCM — block predictor
# ---------------------------------------------------------------------------

_IMA_STEPS = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767], dtype=np.int64)

_IMA_INDEX_ADJ = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int64)


def _ima_decode_nibbles(nibbles: np.ndarray, predictor: int,
                        index: int) -> np.ndarray:
    """Sequential IMA step over a nibble array (per-block, mono)."""
    out = np.empty(len(nibbles), dtype=np.int16)
    pred, idx = predictor, index
    steps, adj = _IMA_STEPS, _IMA_INDEX_ADJ
    for i, nib in enumerate(nibbles):
        step = steps[idx]
        diff = step >> 3
        if nib & 1:
            diff += step >> 2
        if nib & 2:
            diff += step >> 1
        if nib & 4:
            diff += step
        pred = pred - diff if nib & 8 else pred + diff
        pred = max(-32768, min(32767, pred))
        idx = max(0, min(88, idx + adj[nib & 7]))
        out[i] = pred
    return out


def ima_adpcm_decode(data: bytes, block_align: int,
                     n_samples: int) -> np.ndarray:
    """Mono IMA ADPCM ``data`` chunk → int16 samples.

    Each ``block_align``-byte block: 4-byte header (int16 predictor,
    uint8 step index, reserved) then 4-bit nibbles, low nibble first.
    The header predictor IS the block's first output sample."""
    out = []
    for off in range(0, len(data), block_align):
        block = data[off:off + block_align]
        if len(block) < 4:
            break
        pred, idx = struct.unpack_from("<hB", block, 0)
        body = np.frombuffer(block, np.uint8, offset=4)
        nibbles = np.empty(len(body) * 2, dtype=np.uint8)
        nibbles[0::2] = body & 0x0F
        nibbles[1::2] = body >> 4
        out.append(np.concatenate([
            np.array([pred], dtype=np.int16),
            _ima_decode_nibbles(nibbles, pred, idx)]))
    x = np.concatenate(out) if out else np.empty(0, np.int16)
    return x[:n_samples]


def ima_adpcm_encode(pcm: np.ndarray,
                     block_align: int = 256) -> Tuple[bytes, int]:
    """int16 mono samples → (IMA ADPCM data bytes, samples_per_block).
    Sequential reference encoder (fixtures/tests only)."""
    spb = (block_align - 4) * 2 + 1
    steps, adj = _IMA_STEPS, _IMA_INDEX_ADJ
    blocks = []
    # seed the step index from the stream's opening slope — otherwise the
    # decoder spends ~30 samples climbing from step 7 (audible transient)
    if len(pcm) > 1:
        d0 = abs(int(pcm[1]) - int(pcm[0]))
        idx = int(min(np.searchsorted(_IMA_STEPS, max(d0 // 2, 1)), 88))
    else:
        idx = 0
    for off in range(0, len(pcm), spb):
        seg = pcm[off:off + spb]
        pred = int(seg[0])
        header = struct.pack("<hBB", pred, idx, 0)
        nibbles = []
        for s in seg[1:]:
            step = int(steps[idx])
            delta = int(s) - pred
            nib = 0
            if delta < 0:
                nib = 8
                delta = -delta
            if delta >= step:
                nib |= 4
                delta -= step
            if delta >= step >> 1:
                nib |= 2
                delta -= step >> 1
            if delta >= step >> 2:
                nib |= 1
            # reconstruct exactly like the decoder
            diff = step >> 3
            if nib & 1:
                diff += step >> 2
            if nib & 2:
                diff += step >> 1
            if nib & 4:
                diff += step
            pred = pred - diff if nib & 8 else pred + diff
            pred = max(-32768, min(32767, pred))
            idx = max(0, min(88, idx + int(adj[nib & 7])))
            nibbles.append(nib)
        if len(nibbles) % 2:
            nibbles.append(0)
        body = bytes((nibbles[i] | (nibbles[i + 1] << 4))
                     for i in range(0, len(nibbles), 2))
        body = body.ljust(block_align - 4, b"\x00")
        blocks.append(header + body)
    return b"".join(blocks), spb


# ---------------------------------------------------------------------------
# WAV container: decode-any + per-format encoders
# ---------------------------------------------------------------------------

_TAG_PCM, _TAG_FLOAT, _TAG_ALAW, _TAG_ULAW, _TAG_IMA = 1, 3, 6, 7, 0x11


def decode_wav_any(payload: bytes) -> Tuple[np.ndarray, int]:
    """Any supported WAV → (float64 channel-mean samples in [-1, 1],
    rate).  Dispatches on the fmt chunk's format tag (module table)."""
    chunks = _riff_chunks(payload)
    fmt = chunks.get(b"fmt ")
    data = chunks.get(b"data")
    if fmt is None or data is None:
        raise ValueError("WAV missing fmt/data chunk")
    tag, ch, rate, _brate, balign, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _TAG_PCM:
        if bits == 8:
            x = (np.frombuffer(data, np.uint8).astype(np.float64) - 128) / 128.0
        elif bits == 16:
            x = np.frombuffer(data, "<i2").astype(np.float64) / 32768.0
        elif bits == 24:
            b = np.frombuffer(data, np.uint8)
            b = b[:len(b) - len(b) % 3].reshape(-1, 3).astype(np.int64)
            v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            v = np.where(v >= 1 << 23, v - (1 << 24), v)
            x = v.astype(np.float64) / float(1 << 23)
        elif bits == 32:
            x = np.frombuffer(data, "<i4").astype(np.float64) / float(1 << 31)
        else:
            raise NotImplementedError(f"{bits}-bit PCM WAV not supported")
    elif tag == _TAG_FLOAT:
        x = np.frombuffer(data, "<f4" if bits == 32 else "<f8"
                          ).astype(np.float64)
    elif tag == _TAG_ALAW:
        x = alaw_decode(data).astype(np.float64) / 32768.0
    elif tag == _TAG_ULAW:
        x = ulaw_decode(data).astype(np.float64) / 32768.0
    elif tag == _TAG_IMA:
        if ch != 1:
            raise NotImplementedError("multi-channel IMA ADPCM WAV")
        fact = chunks.get(b"fact")
        n = (struct.unpack_from("<I", fact)[0] if fact
             else ((len(data) // balign) * ((balign - 4) * 2 + 1)))
        x = ima_adpcm_decode(data, balign, n).astype(np.float64) / 32768.0
    else:
        raise NotImplementedError(
            f"WAV format tag 0x{tag:04x} not supported: PCM/float/A-law/"
            "µ-law/IMA-ADPCM decode natively; MP3-in-WAV needs torchaudio")
    if tag != _TAG_IMA and ch > 1:
        x = x[:len(x) - len(x) % ch].reshape(-1, ch).mean(axis=1)
    return x, rate


def _wav_container(tag: int, ch: int, rate: int, bits: int,
                   block_align: int, data: bytes,
                   n_samples: int | None = None) -> bytes:
    fmt = struct.pack("<HHIIHH", tag, ch, rate,
                      rate * block_align if tag == _TAG_IMA
                      else rate * ch * (bits // 8), block_align, bits)
    if tag == _TAG_IMA:
        spb = (block_align - 4) * 2 + 1
        fmt += struct.pack("<HH", 2, spb)  # cbSize + samples/block
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if n_samples is not None:
        body += b"fact" + struct.pack("<II", 4, n_samples)
    body += b"data" + struct.pack("<I", len(data)) + data
    if len(data) & 1:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def encode_wav_ulaw(samples: np.ndarray, rate: int = 8_000) -> bytes:
    """float64 [-1, 1] mono → G.711 µ-law WAV (format tag 0x0007)."""
    pcm = np.clip(samples * 32767, -32768, 32767).astype(np.int16)
    return _wav_container(_TAG_ULAW, 1, rate, 8, 1, ulaw_encode(pcm),
                          n_samples=len(pcm))


def encode_wav_alaw(samples: np.ndarray, rate: int = 8_000) -> bytes:
    """float64 [-1, 1] mono → G.711 A-law WAV (format tag 0x0006)."""
    pcm = np.clip(samples * 32767, -32768, 32767).astype(np.int16)
    return _wav_container(_TAG_ALAW, 1, rate, 8, 1, alaw_encode(pcm),
                          n_samples=len(pcm))


def encode_wav_ima(samples: np.ndarray, rate: int = 8_000,
                   block_align: int = 256) -> bytes:
    """float64 [-1, 1] mono → IMA ADPCM WAV (format tag 0x0011)."""
    pcm = np.clip(samples * 32767, -32768, 32767).astype(np.int16)
    data, _spb = ima_adpcm_encode(pcm, block_align)
    return _wav_container(_TAG_IMA, 1, rate, 4, block_align, data,
                          n_samples=len(pcm))


def encode_wav_pcm24(samples: np.ndarray, rate: int = 8_000) -> bytes:
    """float64 [-1, 1] mono → 24-bit PCM WAV."""
    v = np.clip(samples * ((1 << 23) - 1), -(1 << 23),
                (1 << 23) - 1).astype(np.int64)
    v = np.where(v < 0, v + (1 << 24), v)
    b = np.empty((len(v), 3), dtype=np.uint8)
    b[:, 0] = v & 0xFF
    b[:, 1] = (v >> 8) & 0xFF
    b[:, 2] = (v >> 16) & 0xFF
    return _wav_container(_TAG_PCM, 1, rate, 24, 3, b.tobytes())


def encode_wav_float32(samples: np.ndarray, rate: int = 8_000) -> bytes:
    """float64 [-1, 1] mono → IEEE float32 WAV (format tag 0x0003)."""
    return _wav_container(_TAG_FLOAT, 1, rate, 32, 4,
                          samples.astype("<f4").tobytes(),
                          n_samples=len(samples))


# ---------------------------------------------------------------------------
# spectral features (STFT → mel filterbank → log energies)
# ---------------------------------------------------------------------------


def mel_filterbank(n_fft: int, n_mels: int, rate: int,
                   fmin: float = 0.0,
                   fmax: Optional[float] = None) -> np.ndarray:
    """Triangular mel filterbank, ``(n_mels, n_fft//2 + 1)`` — the
    standard O'Shaughnessy mel scale ``2595·log10(1 + f/700)``."""
    fmax = fmax or rate / 2.0
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)  # noqa: E731
    imel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)  # noqa: E731
    pts = imel(np.linspace(mel(fmin), mel(fmax), n_mels + 2))
    bins = np.floor((n_fft + 1) * pts / rate).astype(np.int64)
    fb = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(n_mels):
        lo, mid, hi = bins[m], bins[m + 1], bins[m + 2]
        if mid > lo:
            fb[m, lo:mid] = (np.arange(lo, mid) - lo) / (mid - lo)
        if hi > mid:
            fb[m, mid:hi] = (hi - np.arange(mid, hi)) / (hi - mid)
    return fb


def spectral_features(x: np.ndarray, rate: int, n_fft: int = 256,
                      hop: int = 128, n_mels: int = 8) -> np.ndarray:
    """float64 mono samples → ``(n_mels,)`` time-averaged log-mel
    energies: Hann-windowed framing (vectorized stride view), one
    batched ``rfft`` over all frames, triangular mel pooling, log."""
    if len(x) < n_fft:
        x = np.pad(x, (0, n_fft - len(x)))
    n_frames = 1 + (len(x) - n_fft) // hop
    idx = (np.arange(n_fft)[None, :]
           + hop * np.arange(n_frames)[:, None])
    frames = x[idx] * np.hanning(n_fft)[None, :]
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    mels = power @ mel_filterbank(n_fft, n_mels, rate).T
    return np.log10(mels.mean(axis=0) + 1e-10)


def audio_fingerprint(x: np.ndarray, rate: int, n_fft: int = 256,
                      hop: int = 128, n_bands: int = 65) -> int:
    """float64 mono samples → 64-bit robust audio fingerprint.

    The Haitsma-Kalker band-sign family, clip-level variant: Hann STFT
    → ``n_bands`` mel band energies per frame → time-averaged LOG
    energies (the clip's spectral envelope) → one bit per adjacent
    band pair, set when the lower band carries more energy.  Log
    differences cancel gain, and the envelope survives lossy
    re-encoding, so duplicates land within a few bits while clips with
    different spectral content diverge.  Returned as a signed int64
    for Arrow storage."""
    if len(x) < n_fft + hop:
        x = np.pad(x, (0, n_fft + hop - len(x)))
    n_frames = 1 + (len(x) - n_fft) // hop
    idx = (np.arange(n_fft)[None, :]
           + hop * np.arange(n_frames)[:, None])
    frames = x[idx] * np.hanning(n_fft)[None, :]
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    e = power @ mel_filterbank(n_fft, n_bands, rate).T  # (frames, bands)
    env = np.log10(e + 1e-12).mean(axis=0)  # spectral envelope
    votes = env[:-1] > env[1:]  # n_bands-1 bits
    val = 0
    for b in votes:
        val = (val << 1) | int(b)
    return val - (1 << 64) if val >= (1 << 63) else val


# ---------------------------------------------------------------------------
# AU (Sun/NeXT) and AIFF containers
# ---------------------------------------------------------------------------

_AU_ULAW, _AU_PCM8, _AU_PCM16, _AU_PCM24, _AU_PCM32 = 1, 2, 3, 4, 5
_AU_F32, _AU_ALAW = 6, 27


def decode_au(payload: bytes) -> Tuple[np.ndarray, int]:
    """Sun/NeXT ``.au`` → (float64 channel-mean samples, rate).
    Big-endian header ``.snd``; encodings: µ-law, 8/16/24/32-bit
    linear PCM, float32, A-law."""
    if payload[:4] != b".snd":
        raise ValueError("not an AU payload (missing .snd)")
    off, size, enc, rate, ch = struct.unpack_from(">IIIII", payload, 4)
    data = payload[off:off + size] if size != 0xFFFFFFFF else payload[off:]
    if enc == _AU_ULAW:
        x = ulaw_decode(data).astype(np.float64) / 32768.0
    elif enc == _AU_ALAW:
        x = alaw_decode(data).astype(np.float64) / 32768.0
    elif enc == _AU_PCM8:  # AU 8-bit is SIGNED (unlike WAV)
        x = np.frombuffer(data, np.int8).astype(np.float64) / 128.0
    elif enc == _AU_PCM16:
        x = np.frombuffer(data, ">i2").astype(np.float64) / 32768.0
    elif enc == _AU_PCM24:
        b = np.frombuffer(data, np.uint8)
        b = b[:len(b) - len(b) % 3].reshape(-1, 3).astype(np.int64)
        v = (b[:, 0] << 16) | (b[:, 1] << 8) | b[:, 2]
        v = np.where(v >= 1 << 23, v - (1 << 24), v)
        x = v.astype(np.float64) / float(1 << 23)
    elif enc == _AU_PCM32:
        x = np.frombuffer(data, ">i4").astype(np.float64) / float(1 << 31)
    elif enc == _AU_F32:
        x = np.frombuffer(data, ">f4").astype(np.float64)
    else:
        raise NotImplementedError(
            f"AU encoding {enc} not supported (µ-law/A-law/PCM/float "
            "decode natively; ADPCM-in-AU plugs in here)")
    if ch > 1:
        x = x[:len(x) - len(x) % ch].reshape(-1, ch).mean(axis=1)
    return x, rate


def encode_au(samples: np.ndarray, rate: int = 8_000,
              encoding: int = _AU_PCM16) -> bytes:
    """float64 [-1, 1] mono → AU (16-bit PCM or µ-law)."""
    if encoding == _AU_PCM16:
        data = np.clip(samples * 32767, -32768, 32767).astype(
            ">i2").tobytes()
    elif encoding == _AU_ULAW:
        data = ulaw_encode(np.clip(samples * 32767, -32768, 32767)
                           .astype(np.int16))
    else:
        raise ValueError(f"encoder supports PCM16/µ-law, got {encoding}")
    return struct.pack(">IIIIII", 0x2E736E64, 24, len(data), encoding,
                       rate, 1).replace(
        struct.pack(">I", 0x2E736E64), b".snd") + data


def _f80_decode(b: bytes) -> float:
    """80-bit IEEE 754 extended float (AIFF sample rates)."""
    sign = -1.0 if b[0] & 0x80 else 1.0
    exp = ((b[0] & 0x7F) << 8 | b[1]) - 16383
    mant = int.from_bytes(b[2:10], "big")
    if exp == -16383 and mant == 0:
        return 0.0
    return sign * mant * 2.0 ** (exp - 63)


def _f80_encode(v: float) -> bytes:
    if v == 0:
        return b"\x00" * 10
    sign = 0x80 if v < 0 else 0
    v = abs(v)
    exp = 0
    while v >= 2.0:
        v /= 2.0
        exp += 1
    while v < 1.0:
        v *= 2.0
        exp -= 1
    mant = int(v * (1 << 63))
    e = exp + 16383
    return bytes([sign | (e >> 8), e & 0xFF]) + mant.to_bytes(8, "big")


def decode_aiff(payload: bytes) -> Tuple[np.ndarray, int]:
    """AIFF (``FORM``/``AIFF``, big-endian PCM, 80-bit-float rate) →
    (float64 channel-mean samples, rate)."""
    if payload[:4] != b"FORM" or payload[8:12] != b"AIFF":
        raise ValueError("not an AIFF payload")
    pos = 12
    ch = bits = rate = None
    n_frames = 0
    data = None
    while pos + 8 <= len(payload):
        cid = payload[pos:pos + 4]
        (size,) = struct.unpack_from(">I", payload, pos + 4)
        body = payload[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
        if cid == b"COMM":
            ch, n_frames, bits = struct.unpack_from(">HIH", body, 0)
            rate = int(round(_f80_decode(body[8:18])))
        elif cid == b"SSND":
            (off,) = struct.unpack_from(">I", body, 0)
            data = body[8 + off:]
    if ch is None or data is None:
        raise ValueError("AIFF missing COMM/SSND chunk")
    if bits == 16:
        x = np.frombuffer(data, ">i2").astype(np.float64) / 32768.0
    elif bits == 8:
        x = np.frombuffer(data, np.int8).astype(np.float64) / 128.0
    elif bits == 24:
        b = np.frombuffer(data, np.uint8)
        b = b[:len(b) - len(b) % 3].reshape(-1, 3).astype(np.int64)
        v = (b[:, 0] << 16) | (b[:, 1] << 8) | b[:, 2]
        v = np.where(v >= 1 << 23, v - (1 << 24), v)
        x = v.astype(np.float64) / float(1 << 23)
    elif bits == 32:
        x = np.frombuffer(data, ">i4").astype(np.float64) / float(1 << 31)
    else:
        raise NotImplementedError(f"{bits}-bit AIFF not supported")
    x = x[:n_frames * ch]
    if ch > 1:
        x = x.reshape(-1, ch).mean(axis=1)
    return x, rate


def encode_aiff(samples: np.ndarray, rate: int = 8_000,
                bits: int = 16) -> bytes:
    """float64 [-1, 1] mono → AIFF (big-endian PCM)."""
    if bits == 16:
        data = np.clip(samples * 32767, -32768, 32767).astype(
            ">i2").tobytes()
    elif bits == 8:
        data = np.clip(samples * 127, -128, 127).astype(np.int8).tobytes()
    else:
        raise ValueError("encoder supports 8/16-bit")
    comm = struct.pack(">HIH", 1, len(samples), bits) + _f80_encode(
        float(rate))
    ssnd = struct.pack(">II", 0, 0) + data
    body = (b"AIFF" + b"COMM" + struct.pack(">I", len(comm)) + comm
            + b"SSND" + struct.pack(">I", len(ssnd)) + ssnd
            + (b"\x00" if len(ssnd) & 1 else b""))
    return b"FORM" + struct.pack(">I", len(body)) + body
