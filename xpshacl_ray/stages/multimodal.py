"""Multimodal columns: opaque binary payloads + typed metadata, with REAL
decoding for every container the standard library can parse.

Image/audio/video travel as Arrow ``binary`` columns next to a metadata
struct (mime, width/height or sample rate, frame count).  The Ray-side
plumbing — schema, small batch sizes for wide rows, actor-pool stage
shape, output layout — is real and tested, and so is the decode path for
uncompressed containers:

- **netpbm** (the whole P1-P6 family: ASCII + binary bitmap/
  graymap/pixmap, 16-bit maxval) and **BMP** (24-bit BGR, 32-bit BGRA, 8-bit palettized,
  bottom-up and top-down) images decode to ``(h, w, 3)`` uint8 numpy
  arrays (pure numpy header/pixel parsing), with a real
  nearest-neighbour ``resize`` kernel and real color/shape features.
- **WAV** audio decodes to float64 samples with real duration/RMS/
  zero-crossing/peak features: 8/16-bit PCM via the stdlib ``wave``
  module, and 24-bit/float PCM, G.711 µ-law/A-law and IMA ADPCM via the
  pure-numpy codecs in :mod:`.audio` (bit-exact G.711 vs ``audioop``).

- **PNG** decodes with stdlib ``zlib`` + numpy — the full static
  spec: every color type (gray, RGB, palette, gray+alpha, RGBA) at
  every legal bit depth (1/2/4/8/16), all five scanline filters, and
  Adam7 interlacing.
- **JPEG** (baseline sequential DCT, any chroma subsampling, restart
  markers, plus full progressive/SOF2) decodes via the pure-numpy
  codec in :mod:`.jpeg` — Huffman scan + vectorized dequant/IDCT.
- **GIF** (multi-frame, LZW) decodes pure-Python with frame sampling,
  4-pass interlacing, local color tables and partial-canvas frames.
- **QOI** (qoiformat.org) decodes/encodes bit-exactly in :mod:`.qoi`
  — all five op kinds, 64-entry color cache, run chaining.
- **TGA** (Targa 2.0) decodes in :mod:`.tga` — raw + RLE, truecolor/
  palette/gray, 8/16/24/32-bit, both origins.
- **TIFF** (baseline 6.0) decodes in :mod:`.tiff` — IFD walk, strips,
  PackBits and TIFF-variant LZW (early change) with Predictor 2,
  gray/RGB/palette photometrics, both byte orders, 16-bit scaling.
- **MP4** (ISO BMFF) parses for real in :mod:`.mp4` — box walk, sample
  tables resolved to per-sample byte ranges — and Motion-JPEG tracks
  decode END TO END with container-level frame sampling (only the
  sampled frames are decoded, via the in-repo JPEG codec).

Remaining compressed codecs (MP3, inter-frame video like AVC/HEVC)
still raise ``NotImplementedError`` — no codec libraries exist in this
environment; the error message marks exactly where torchaudio/decord
plug in (same actor signature: heavy setup in ``__init__``, batched
decode in ``__call__``, ``batch_size`` small because payload rows are
MBs).

``DecodeStub`` (deterministic sha256-based fake features) remains for
pipeline tests that need arbitrary payload bytes.
"""

from __future__ import annotations

import hashlib
import io
import re
import struct
import wave
import zlib
from typing import Optional, Tuple

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("mime", pa.string()),
        ("payload", pa.binary()),
        ("meta", pa.struct([("width", pa.int32()), ("height", pa.int32()),
                            ("n_frames", pa.int32())])),
    ]
)


# ---------------------------------------------------------------------------
# real codecs (stdlib + numpy only)
# ---------------------------------------------------------------------------


def encode_ppm(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 → binary PPM (P6)."""
    h, w, _ = img.shape
    return b"P6\n%d %d\n255\n" % (w, h) + img.astype(np.uint8).tobytes()


def _pnm_header(payload: bytes, n_fields: int) -> Tuple[List[int], int]:
    """Parse ``n_fields`` whitespace/comment-separated integers after
    the magic; returns (fields, position after the single terminator)."""
    fields, pos = [], 2
    while len(fields) < n_fields:
        while pos < len(payload) and payload[pos:pos + 1].isspace():
            pos += 1
        if payload[pos:pos + 1] == b"#":  # comment to EOL
            while pos < len(payload) and payload[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(payload) and not payload[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(payload[start:pos]))
    return fields, pos + 1


def decode_ppm(payload: bytes) -> np.ndarray:
    """netpbm → (h, w, 3) uint8 — the WHOLE family: P1/P4 bitmap,
    P2/P5 graymap, P3/P6 pixmap (ASCII and binary), 8- and 16-bit
    maxval (16-bit scales to the high byte), comments anywhere in the
    header."""
    if len(payload) < 2 or payload[0:1] != b"P" \
            or payload[1:2] not in b"123456":
        raise ValueError("not a netpbm (P1-P6) payload")
    kind = int(payload[1:2])
    bitmap = kind in (1, 4)
    nch = 3 if kind in (3, 6) else 1
    fields, pos = _pnm_header(payload, 2 if bitmap else 3)
    if bitmap:
        (w, h), maxval = fields, 1
    else:
        w, h, maxval = fields
    n_vals = w * h * nch
    if kind in (1, 2, 3):  # ASCII variants; comments run to end of line
        toks = re.sub(rb"#[^\n]*", b"", payload[pos - 1:]).split()
        if kind == 1:
            # P1 allows unseparated digits ("0110")
            toks = [c for t in toks for c in t.decode("ascii", "replace")]
            vals = np.array([int(c) for c in toks[:n_vals]], np.uint32)
        else:
            vals = np.array([int(t) for t in toks[:n_vals]], np.uint32)
        if len(vals) < n_vals:
            raise ValueError("truncated ASCII netpbm payload")
    elif kind == 4:  # packed bits, rows padded to bytes
        stride = (w + 7) // 8
        raw = np.frombuffer(payload, np.uint8, count=stride * h,
                            offset=pos)
        vals = np.unpackbits(raw.reshape(h, stride),
                             axis=1)[:, :w].reshape(-1).astype(np.uint32)
    elif maxval > 255:  # 16-bit binary, big-endian per the spec
        raw = np.frombuffer(payload, np.uint8, count=n_vals * 2,
                            offset=pos).astype(np.uint32)
        vals = (raw[0::2] << 8) | raw[1::2]
    else:
        vals = np.frombuffer(payload, np.uint8, count=n_vals,
                             offset=pos).astype(np.uint32)
    if bitmap:
        vals = (1 - vals) * 255  # PBM: 1 = black
    elif maxval != 255:
        vals = vals * 255 // maxval
    img = vals.astype(np.uint8).reshape(h, w, nch)
    if nch == 1:
        img = np.repeat(img, 3, axis=2)
    return np.ascontiguousarray(img)


def encode_bmp(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 → 24-bit uncompressed BMP (BI_RGB, bottom-up)."""
    h, w, _ = img.shape
    row = w * 3
    pad = (4 - row % 4) % 4
    body = b"".join(
        img[y, :, ::-1].tobytes() + b"\x00" * pad  # BGR rows, bottom-up
        for y in range(h - 1, -1, -1)
    )
    size = 14 + 40 + len(body)
    header = struct.pack("<2sIHHI", b"BM", size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body),
                       2835, 2835, 0, 0)
    return header + info + body


def decode_bmp(payload: bytes) -> np.ndarray:
    """Uncompressed BMP → (h, w, 3) uint8: 24-bit BGR, 32-bit BGRA
    (alpha dropped), and 8-bit palettized (BGRA palette after the info
    header); bottom-up AND top-down (negative height) row orders,
    4-byte row padding."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    (offset,) = struct.unpack_from("<I", payload, 10)
    header_size, w, h = struct.unpack_from("<Iii", payload, 14)
    planes, bpp = struct.unpack_from("<HH", payload, 26)
    (compression,) = struct.unpack_from("<I", payload, 30)
    if bpp not in (8, 24, 32) or compression != 0:
        raise NotImplementedError(
            f"only 8/24/32-bit uncompressed BMP supported (bpp={bpp}, "
            f"compression={compression})")
    palette = None
    if bpp == 8:
        (used,) = struct.unpack_from("<I", payload, 46)
        n_colors = used or 256
        pal = np.frombuffer(payload, np.uint8, count=n_colors * 4,
                            offset=14 + header_size).reshape(-1, 4)
        palette = pal[:, 2::-1]  # BGRA → RGB
    flip = h > 0
    h = abs(h)
    nch = bpp // 8
    row = w * nch
    stride = (row + 3) & ~3
    out = np.empty((h, w, 3), dtype=np.uint8)
    for y in range(h):
        src = offset + y * stride
        line = np.frombuffer(payload, np.uint8, count=row, offset=src)
        dst = h - 1 - y if flip else y
        if bpp == 8:
            out[dst] = palette[line]
        else:
            out[dst] = line.reshape(w, nch)[:, 2::-1]  # BGR(A)→RGB
    return out


def encode_bmp8(indices: np.ndarray, palette: np.ndarray,
                top_down: bool = False) -> bytes:
    """(h, w) palette indices + (n≤256, 3) palette → 8-bit BMP
    (``top_down=True`` writes a negative-height, top-down file)."""
    h, w = indices.shape
    pal = np.zeros((256, 4), dtype=np.uint8)
    pal[:len(palette), :3] = palette[:, ::-1]  # RGB → BGR_
    stride = (w + 3) & ~3
    rows = range(h) if top_down else range(h - 1, -1, -1)
    body = b"".join(indices[y].astype(np.uint8).tobytes()
                    + b"\x00" * (stride - w) for y in rows)
    offset = 14 + 40 + 1024
    header = struct.pack("<2sIHHI", b"BM", offset + len(body), 0, 0, offset)
    info = struct.pack("<IiiHHIIiiII", 40, w, -h if top_down else h, 1, 8,
                       0, len(body), 2835, 2835, len(palette), 0)
    return header + info + pal.tobytes() + body


def encode_bmp32(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 → 32-bit BGRA BMP (alpha 255)."""
    h, w, _ = img.shape
    bgra = np.zeros((h, w, 4), dtype=np.uint8)
    bgra[:, :, :3] = img[:, :, ::-1]
    bgra[:, :, 3] = 255
    body = b"".join(bgra[y].tobytes() for y in range(h - 1, -1, -1))
    header = struct.pack("<2sIHHI", b"BM", 54 + len(body), 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 32, 0, len(body),
                       2835, 2835, 0, 0)
    return header + info + body


def decode_wav(payload: bytes) -> Tuple[np.ndarray, int]:
    """WAV → (float64 samples in [-1, 1] per channel-mean, rate).

    8/16-bit PCM via the stdlib ``wave`` fast path; everything else the
    container can carry (24-bit/float PCM, G.711 µ-law/A-law, IMA
    ADPCM) via the pure-numpy codecs in :mod:`.audio`."""
    try:
        with wave.open(io.BytesIO(payload), "rb") as f:
            n, ch, width, rate = (f.getnframes(), f.getnchannels(),
                                  f.getsampwidth(), f.getframerate())
            raw = f.readframes(n)
    except wave.Error:  # non-PCM format tag: stdlib wave refuses
        from xpshacl_ray.stages.audio import decode_wav_any

        return decode_wav_any(payload)
    if width == 2:
        x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 1:
        x = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128) / 128.0
    else:  # 24/32-bit PCM: the RIFF-walking decoder handles the widths
        from xpshacl_ray.stages.audio import decode_wav_any

        return decode_wav_any(payload)
    if ch > 1:
        x = x.reshape(-1, ch).mean(axis=1)
    return x, rate


def encode_wav(samples: np.ndarray, rate: int = 16_000) -> bytes:
    """float64 samples in [-1, 1] → 16-bit mono PCM WAV."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(
            np.clip(samples * 32767, -32768, 32767).astype("<i2").tobytes())
    return buf.getvalue()


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    import struct
    import zlib

    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))


def encode_png(img: np.ndarray) -> bytes:
    """(h, w, 3|4) uint8 → PNG (8-bit RGB/RGBA, filter 0, no interlace) —
    stdlib ``zlib`` only; a REAL compressed container."""
    import struct
    import zlib

    h, w, ch = img.shape
    if ch not in (3, 4):
        raise ValueError("encode_png expects RGB or RGBA")
    color_type = 2 if ch == 3 else 6
    depth = 16 if img.dtype == np.uint16 else 8
    return _png_assemble(img.astype(np.uint16), depth, color_type,
                         interlace=False)


def _png_pack_rows(vals: np.ndarray, depth: int) -> bytes:
    """(ph, pw, nch) uint16 channel values → filter-0 scanlines."""
    ph, pw, nch = vals.shape
    flat = vals.reshape(ph, pw * nch)
    if depth == 8:
        rows = flat.astype(np.uint8)
    elif depth == 16:
        rows = np.empty((ph, pw * nch * 2), np.uint8)
        rows[:, 0::2] = (flat >> 8).astype(np.uint8)
        rows[:, 1::2] = (flat & 0xFF).astype(np.uint8)
    else:
        bits = ((flat[:, :, None] >> np.arange(depth - 1, -1, -1)) & 1
                ).astype(np.uint8).reshape(ph, -1)
        rows = np.packbits(bits, axis=1)  # zero-pads rows to bytes
    return b"".join(b"\x00" + rows[y].tobytes() for y in range(ph))


def _png_assemble(vals: np.ndarray, depth: int, color_type: int,
                  interlace: bool, plte: Optional[np.ndarray] = None
                  ) -> bytes:
    import struct
    import zlib

    h, w, _ = vals.shape
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color_type, 0, 0,
                       1 if interlace else 0)
    if interlace:
        raw = b"".join(
            _png_pack_rows(vals[y0::dy, x0::dx], depth)
            for x0, y0, dx, dy in _ADAM7
            if (w - x0 + dx - 1) // dx > 0 and (h - y0 + dy - 1) // dy > 0)
    else:
        raw = _png_pack_rows(vals, depth)
    out = _PNG_SIG + _png_chunk(b"IHDR", ihdr)
    if plte is not None:
        out += _png_chunk(b"PLTE", plte.astype(np.uint8).tobytes())
    return (out + _png_chunk(b"IDAT", zlib.compress(raw, 6))
            + _png_chunk(b"IEND", b""))


def encode_png_gray(img: np.ndarray, depth: int = 8,
                    interlace: bool = False) -> bytes:
    """(h, w) grayscale code values (< 2^depth) → PNG color type 0 at
    any legal depth (1/2/4/8/16), optionally Adam7-interlaced."""
    if depth not in _PNG_DEPTHS[0]:
        raise ValueError(f"illegal grayscale depth {depth}")
    return _png_assemble(img.astype(np.uint16)[:, :, None], depth, 0,
                         interlace)


def encode_png_palette(indices: np.ndarray, palette: np.ndarray,
                       depth: int = 8, interlace: bool = False) -> bytes:
    """(h, w) palette indices + (n, 3) palette → PNG color type 3."""
    if depth not in _PNG_DEPTHS[3]:
        raise ValueError(f"illegal palette depth {depth}")
    return _png_assemble(indices.astype(np.uint16)[:, :, None], depth, 3,
                         interlace, plte=palette)


def encode_png_interlaced(img: np.ndarray) -> bytes:
    """(h, w, 3|4) uint8 (or uint16 for depth 16) → Adam7 PNG."""
    depth = 16 if img.dtype == np.uint16 else 8
    return _png_assemble(img.astype(np.uint16), depth,
                         2 if img.shape[2] == 3 else 6, interlace=True)


def _png_unfilter(raw: np.ndarray, h: int, stride: int,
                  bpp: int) -> np.ndarray:
    """Undo PNG scanline filters (0 None, 1 Sub, 2 Up, 3 Average,
    4 Paeth).  None/Up/Sub are vectorized (Sub via mod-256 cumsum over
    pixel lanes); Average/Paeth fall back to the spec's sequential
    recurrence per row."""
    rows = raw.reshape(h, stride + 1)
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        f = int(rows[y, 0])
        line = rows[y, 1:].copy()
        if f == 0:
            rec = line
        elif f == 1:  # Sub: cumsum per pixel lane, mod 256
            lanes = line.reshape(-1, bpp).astype(np.uint32)
            rec = (np.cumsum(lanes, axis=0) & 0xFF).astype(
                np.uint8).reshape(-1)
        elif f == 2:  # Up
            rec = line + prev
        elif f in (3, 4):
            rec = np.zeros(stride, dtype=np.uint8)
            for i in range(stride):
                a = int(rec[i - bpp]) if i >= bpp else 0
                b = int(prev[i])
                if f == 3:
                    rec[i] = (int(line[i]) + ((a + b) >> 1)) & 0xFF
                else:
                    c = int(prev[i - bpp]) if i >= bpp else 0
                    p = a + b - c
                    pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa_ <= pb and pa_ <= pc_) else (
                        b if pb <= pc_ else c)
                    rec[i] = (int(line[i]) + pred) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter type {f}")
        out[y] = rec
        prev = rec
    return out


#: Adam7 pass grid: (x0, y0, dx, dy)
_ADAM7 = [(0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2)]

#: color type → channel count; valid bit depths per type (PNG 11.2.2)
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}
_PNG_DEPTHS = {0: (1, 2, 4, 8, 16), 2: (8, 16), 3: (1, 2, 4, 8),
               4: (8, 16), 6: (8, 16)}


def _png_pass_pixels(raw: np.ndarray, pw: int, ph: int, depth: int,
                     nch: int) -> np.ndarray:
    """Defilter one (sub-)image's scanlines and unpack to raw channel
    code values, ``(ph, pw, nch)`` uint16 (unscaled)."""
    bits_pp = depth * nch
    stride = (pw * bits_pp + 7) // 8
    bpp = max(1, bits_pp // 8)
    lines = _png_unfilter(raw, ph, stride, bpp)
    if depth == 8:
        return (lines[:, :pw * nch].reshape(ph, pw, nch)
                .astype(np.uint16))
    if depth == 16:
        v = lines.astype(np.uint16)
        v = (v[:, 0::2] << 8) | v[:, 1::2]
        return v[:, :pw * nch].reshape(ph, pw, nch)
    bits = np.unpackbits(lines, axis=1)  # MSB-first groups of `depth`
    vals = np.zeros((ph, stride * 8 // depth), dtype=np.uint16)
    for b in range(depth):
        vals = (vals << 1) | bits[:, b::depth]
    return vals[:, :pw * nch].reshape(ph, pw, nch)


def decode_png(payload: bytes) -> np.ndarray:
    """PNG → (h, w, 3) uint8 — stdlib ``zlib`` + numpy, no imaging libs.

    Full static subset: every color type (grayscale, RGB, palette,
    gray+alpha, RGBA) at every legal bit depth (1/2/4/8/16), all five
    scanline filters, and Adam7 interlacing.  16-bit scales to 8-bit
    (high byte); alpha is dropped; palette indices map through PLTE."""
    import struct
    import zlib

    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos = 8
    w = h = None
    idat, plte = [], None
    while pos + 8 <= len(payload):
        (length,) = struct.unpack(">I", payload[pos:pos + 4])
        tag = payload[pos + 4:pos + 8]
        body = payload[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, color, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", body)
            if color not in _PNG_CHANNELS or depth not in _PNG_DEPTHS[color]:
                raise ValueError(
                    f"illegal PNG depth/color combination "
                    f"(depth={depth}, color_type={color})")
            if interlace > 1:
                raise ValueError("unknown PNG interlace method")
            nch = _PNG_CHANNELS[color]
        elif tag == b"PLTE":
            plte = np.frombuffer(body, np.uint8).reshape(-1, 3)
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
    if w is None or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    vals = np.zeros((h, w, nch), dtype=np.uint16)
    if interlace:
        off = 0
        for x0, y0, dx, dy in _ADAM7:
            pw = (w - x0 + dx - 1) // dx
            ph = (h - y0 + dy - 1) // dy
            if pw <= 0 or ph <= 0:
                continue
            stride = (pw * depth * nch + 7) // 8
            need = ph * (stride + 1)
            vals[y0::dy, x0::dx] = _png_pass_pixels(
                raw[off:off + need], pw, ph, depth, nch)
            off += need
        if off > len(raw):
            raise ValueError("PNG data length mismatch")
    else:
        stride = (w * depth * nch + 7) // 8
        if len(raw) != h * (stride + 1):
            raise ValueError("PNG data length mismatch")
        vals = _png_pass_pixels(raw, w, h, depth, nch)
    if color == 3:
        if plte is None:
            raise ValueError("palette PNG missing PLTE")
        idx = np.clip(vals[:, :, 0], 0, len(plte) - 1)
        return np.ascontiguousarray(plte[idx])
    if depth == 16:
        vals = vals >> 8
    elif depth < 8:
        vals = vals * 255 // ((1 << depth) - 1)
    if color in (0, 4):  # grayscale (+alpha): replicate, drop alpha
        return np.repeat(vals[:, :, :1].astype(np.uint8), 3, axis=2)
    return np.ascontiguousarray(vals[:, :, :3].astype(np.uint8))


def resize_nearest(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbour resize, pure-numpy index gather."""
    h, w = img.shape[:2]
    ys = (np.arange(out_h) * h // out_h).clip(0, h - 1)
    xs = (np.arange(out_w) * w // out_w).clip(0, w - 1)
    return img[ys[:, None], xs[None, :]]


from xpshacl_ray.stages.jpeg import decode_jpeg, encode_jpeg  # noqa: E402
from xpshacl_ray.stages import mp4 as _mp4  # noqa: E402

from xpshacl_ray.stages.tiff import decode_tiff  # noqa: E402
from xpshacl_ray.stages.qoi import decode_qoi  # noqa: E402
from xpshacl_ray.stages.tga import decode_tga  # noqa: E402

_DECODABLE_IMAGE = {"image/x-portable-pixmap": decode_ppm,
                    "image/bmp": decode_bmp,
                    "image/png": decode_png,
                    "image/jpeg": decode_jpeg,
                    "image/tiff": decode_tiff,
                    "image/qoi": decode_qoi,
                    "image/x-tga": decode_tga}
from xpshacl_ray.stages.flac import decode_flac_audio  # noqa: E402
from xpshacl_ray.stages.audio import decode_aiff, decode_au  # noqa: E402

_DECODABLE_AUDIO = {"audio/wav": decode_wav, "audio/x-wav": decode_wav,
                    "audio/flac": decode_flac_audio,
                    "audio/x-flac": decode_flac_audio,
                    "audio/basic": decode_au,
                    "audio/aiff": decode_aiff,
                    "audio/x-aiff": decode_aiff}

#: stsd sample-entry fourccs whose samples are complete JPEG images
_MJPEG_CODECS = {"jpeg", "mjpg", "mjpa", "AVDJ", "dmb1"}


def decode_mp4_frames(payload: bytes, k: int = 3) -> np.ndarray:
    """``video/mp4`` → ``(k, h, w, 3)`` uint8 frames.

    Container-level frame sampling: parse the ISO-BMFF sample tables
    (:func:`xpshacl_ray.stages.mp4.parse_mp4`), pick ``k`` evenly-spaced
    sample indices, and decode ONLY those samples — a video pipeline
    never decodes the whole track to sample frames.  Motion-JPEG tracks
    decode natively via :mod:`.jpeg`; inter-frame codecs (avc1/hev1/...)
    raise ``NotImplementedError`` naming the plug-in point."""
    info = _mp4.parse_mp4(payload)
    vide = [t for t in info["tracks"] if t.get("handler") == "vide"]
    if not vide:
        raise ValueError("MP4 payload has no video track")
    track = vide[0]
    codec = track.get("codec", "")
    if codec not in _MJPEG_CODECS:
        raise NotImplementedError(
            f"MP4 video codec {codec!r} is inter-frame; decord/PyAV plug "
            "in here — MJPEG (jpeg/mjpg sample entries) decodes natively")
    ranges = _mp4.sample_ranges(track)
    if not ranges:
        raise ValueError("MP4 video track has no samples")
    idx = np.unique(np.linspace(0, len(ranges) - 1,
                                num=min(k, len(ranges))).astype(np.int64))
    frames = []
    for i in idx:
        off, size = ranges[int(i)]
        if off + size > len(payload):
            raise ValueError("MP4 sample range past end of payload")
        frames.append(decode_jpeg(payload[off:off + size]))
    return np.stack(frames)


def encode_mjpeg_mp4(frames: np.ndarray, quality: int = 90,
                     samples_per_chunk: int = 3) -> bytes:
    """``(n, h, w, 3)`` uint8 frames → single-track MJPEG MP4 (each
    sample an in-repo-encoded baseline JPEG) — the fixture-side inverse
    of :func:`decode_mp4_frames`."""
    n, h, w = frames.shape[:3]
    encoded = [encode_jpeg(frames[i], quality=quality) for i in range(n)]
    return _mp4.build_mp4(encoded, w, h, codec=b"jpeg",
                          samples_per_chunk=samples_per_chunk)


def _empty_features_table(batch: pa.Table, dim: int) -> pa.Table:
    """Zero-row (media_id, mime, features) output — shared empty-batch
    guard for the decode stages (empty blocks happen downstream of
    filters)."""
    return pa.table({
        "media_id": batch["media_id"],
        "mime": batch["mime"],
        "features": pa.FixedSizeListArray.from_arrays(
            pa.array([], pa.float64()), dim),
    })


def image_features(img: np.ndarray) -> np.ndarray:
    """8 real signals: per-channel mean + std, aspect ratio, luma mean."""
    f = img.astype(np.float64) / 255.0
    mean = f.mean(axis=(0, 1))
    std = f.std(axis=(0, 1))
    luma = float((f * [0.2126, 0.7152, 0.0722]).sum(axis=2).mean())
    aspect = img.shape[1] / img.shape[0]
    return np.array([*mean, *std, aspect, luma])


def audio_features(x: np.ndarray, rate: int) -> np.ndarray:
    """8 real signals: duration, rms, zcr, peak, mean, std, rate, length."""
    n = len(x)
    if n == 0:
        return np.zeros(8)
    zcr = float((np.signbit(x[1:]) != np.signbit(x[:-1])).mean()) if n > 1 else 0.0
    return np.array([
        n / rate, float(np.sqrt((x ** 2).mean())), zcr,
        float(np.abs(x).max()), float(x.mean()), float(x.std()),
        rate / 48_000.0, n / 1e6,
    ])


def make_fake_media_table(n: int = 16, seed: int = 42) -> pa.Table:
    """Deterministic fake media rows (payload = seeded bytes)."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=int(rng.integers(64, 256)),
                             dtype=np.uint8).tobytes() for _ in range(n)]
    return pa.table(
        {
            "media_id": pa.array(range(n), pa.int64()),
            "mime": pa.array(["image/png" if i % 2 == 0 else "audio/wav"
                              for i in range(n)], pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(
                [{"width": 32, "height": 32, "n_frames": 1}] * n,
                MEDIA_SCHEMA.field("meta").type,
            ),
        }
    )


def make_real_media_table(n: int = 12, seed: int = 42) -> pa.Table:
    """Deterministic REAL media rows: round-robin P6 PPM / BMP / PNG /
    baseline JPEG / LZW-predictor TIFF / QOI images, PCM + G.711 µ-law
    + IMA-ADPCM WAV, FLAC, AU and AIFF clips, multi-frame LZW GIFs and
    MJPEG MP4 videos, all synthesized stdlib+numpy."""
    rng = np.random.default_rng(seed)
    ids, mimes, payloads, metas = [], [], [], []
    for i in range(n):
        kind = i % 14
        if kind in (12, 13):
            from xpshacl_ray.stages.audio import encode_aiff, encode_au

            rate = 8_000
            t = np.arange(int(rng.integers(400, 4000))) / rate
            x = 0.5 * np.sin(2 * np.pi * float(rng.integers(100, 900)) * t)
            if kind == 12:
                payloads.append(encode_au(x, rate, encoding=1))  # µ-law
                mimes.append("audio/basic")
            else:
                payloads.append(encode_aiff(x, rate))
                mimes.append("audio/aiff")
            metas.append({"width": 0, "height": 0, "n_frames": len(t)})
            ids.append(i)
            continue
        if kind == 11:
            from xpshacl_ray.stages.qoi import encode_qoi

            w, h = int(rng.integers(8, 40)), int(rng.integers(8, 40))
            yy, xx = np.mgrid[0:h, 0:w]
            img = ((np.stack([yy * 5, xx * 7, yy + xx], -1)
                    + rng.integers(0, 32, (h, w, 3))) % 256).astype(
                np.uint8)
            payloads.append(encode_qoi(img))
            mimes.append("image/qoi")
            metas.append({"width": w, "height": h, "n_frames": 1})
            ids.append(i)
            continue
        if kind == 10:
            from xpshacl_ray.stages.tiff import encode_tiff

            w, h = int(rng.integers(8, 40)), int(rng.integers(8, 40))
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            payloads.append(encode_tiff(img, compression=5, predictor=2,
                                        rows_per_strip=8))
            mimes.append("image/tiff")
            metas.append({"width": w, "height": h, "n_frames": 1})
            ids.append(i)
            continue
        if kind == 9:
            from xpshacl_ray.stages.flac import encode_flac_audio

            rate = 8_000
            t = np.arange(int(rng.integers(400, 4000))) / rate
            x = 0.5 * np.sin(2 * np.pi * float(rng.integers(100, 900)) * t)
            payloads.append(encode_flac_audio(x, rate, blocksize=1024,
                                              lpc_order=4))
            mimes.append("audio/flac")
            metas.append({"width": 0, "height": 0, "n_frames": len(t)})
            ids.append(i)
            continue
        if kind in (7, 8):
            from xpshacl_ray.stages.audio import (
                encode_wav_ima,
                encode_wav_ulaw,
            )

            rate = 8_000
            t = np.arange(int(rng.integers(400, 4000))) / rate
            x = 0.5 * np.sin(2 * np.pi * float(rng.integers(100, 900)) * t)
            enc = encode_wav_ulaw if kind == 7 else encode_wav_ima
            payloads.append(enc(x, rate))
            mimes.append("audio/wav")
            metas.append({"width": 0, "height": 0, "n_frames": len(t)})
            ids.append(i)
            continue
        if kind == 6:
            w, h = int(rng.integers(8, 24)), int(rng.integers(8, 24))
            nf = int(rng.integers(4, 9))
            fr = rng.integers(0, 256, size=(nf, h, w, 3), dtype=np.uint8)
            payloads.append(encode_mjpeg_mp4(fr, quality=90))
            mimes.append("video/mp4")
            metas.append({"width": w, "height": h, "n_frames": nf})
            ids.append(i)
            continue
        if kind == 5:
            w, h = int(rng.integers(8, 40)), int(rng.integers(8, 40))
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            payloads.append(encode_jpeg(
                img, quality=90, subsampling="420" if i % 2 else "444"))
            mimes.append("image/jpeg")
            metas.append({"width": w, "height": h, "n_frames": 1})
            ids.append(i)
            continue
        if kind == 0:
            w, h = int(rng.integers(8, 40)), int(rng.integers(8, 40))
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            payloads.append(encode_ppm(img))
            mimes.append("image/x-portable-pixmap")
            metas.append({"width": w, "height": h, "n_frames": 1})
        elif kind == 1:
            w, h = int(rng.integers(8, 40)), int(rng.integers(8, 40))
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            payloads.append(encode_bmp(img))
            mimes.append("image/bmp")
            metas.append({"width": w, "height": h, "n_frames": 1})
        elif kind == 4:
            n_colors = int(rng.integers(4, 17))
            pal = rng.integers(0, 256, size=(n_colors, 3), dtype=np.uint8)
            w, h = int(rng.integers(6, 24)), int(rng.integers(6, 24))
            nf = int(rng.integers(2, 6))
            fr = rng.integers(0, n_colors, size=(nf, h, w), dtype=np.uint8)
            payloads.append(encode_gif(fr, pal))
            mimes.append("image/gif")
            metas.append({"width": w, "height": h, "n_frames": nf})
        elif kind == 2:
            rate = 8_000
            t = np.arange(int(rng.integers(400, 4000))) / rate
            x = 0.5 * np.sin(2 * np.pi * float(rng.integers(100, 900)) * t)
            payloads.append(encode_wav(x, rate))
            mimes.append("audio/wav")
            metas.append({"width": 0, "height": 0, "n_frames": len(t)})
        else:
            w, h = int(rng.integers(8, 40)), int(rng.integers(8, 40))
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            payloads.append(encode_png(img))
            mimes.append("image/png")
            metas.append({"width": w, "height": h, "n_frames": 1})
        ids.append(i)
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "mime": pa.array(mimes, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(metas, MEDIA_SCHEMA.field("meta").type),
        }
    )


class MediaDecoder:
    """Actor-pool decode/feature-extract stage with REAL codecs for
    PPM/BMP/PNG/JPEG/GIF images (PNG via zlib inflate + scanline
    unfiltering, JPEG via the pure-numpy baseline codec in :mod:`.jpeg`,
    GIF via pure-Python LZW with frame sampling) and PCM WAV audio,
    real MJPEG-MP4 video decode (container parse + sampled-frame JPEG
    decode), and an explicit ``NotImplementedError`` for the remaining
    compressed formats (MP3, inter-frame video codecs).

    ``resize_to=(w, h)`` runs the real nearest-neighbour resize before
    image feature extraction (the decode→resize→featurize shape of a
    production media pipeline).

    ``on_error`` picks the corrupt-payload policy: ``"raise"`` (default,
    one bad row fails the task — right for curated inputs) or
    ``"null"`` (emit a null feature vector and keep streaming — right
    for web-crawled corpora, where a 100 TB run must not die on byte
    1 of a truncated JPEG)."""

    FEATURE_DIM = 8

    def __init__(self, resize_to: Optional[Tuple[int, int]] = None,
                 on_error: str = "raise"):
        if on_error not in ("raise", "null"):
            raise ValueError(f"unknown on_error policy {on_error!r}")
        self.resize_to = resize_to
        self.on_error = on_error
        # compressed-codec libraries (PIL/torchaudio/decord) load HERE,
        # once per actor, when present in the environment

    def _decode_one(self, mime: str, payload: bytes) -> np.ndarray:
        if mime == "image/gif":
            # multi-frame: decode → evenly-spaced 3-frame sample →
            # per-frame features averaged (the frame-sampling shape of a
            # video pipeline, on a REAL stdlib-decoded container)
            frames = sample_frames(decode_gif(payload), 3)
            if self.resize_to is not None:
                frames = np.stack([resize_nearest(f, *self.resize_to)
                                   for f in frames])
            return np.mean([image_features(f) for f in frames], axis=0)
        if mime in _DECODABLE_IMAGE:
            img = _DECODABLE_IMAGE[mime](payload)
            if self.resize_to is not None:
                img = resize_nearest(img, *self.resize_to)
            return image_features(img)
        if mime in _DECODABLE_AUDIO:
            return audio_features(*_DECODABLE_AUDIO[mime](payload))
        if mime in ("video/mp4", "video/quicktime"):
            # container-level frame sampling (3 evenly-spaced samples
            # decoded, never the whole track), per-frame features averaged
            frames = decode_mp4_frames(payload, 3)
            if self.resize_to is not None:
                frames = np.stack([resize_nearest(f, *self.resize_to)
                                   for f in frames])
            return np.mean([image_features(f) for f in frames], axis=0)
        raise NotImplementedError(
            f"no codec for {mime!r} in this environment: PPM/BMP/PNG/JPEG/"
            "GIF/WAV/MJPEG-MP4 decode natively; MP3 and inter-frame video "
            "codecs need torchaudio/decord here")

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _empty_features_table(batch, self.FEATURE_DIM)
        feats, valid = [], []
        for m, p in zip(batch["mime"].to_pylist(),
                        batch["payload"].to_pylist()):
            if self.on_error == "null":
                try:
                    feats.append(self._decode_one(m, p))
                    valid.append(True)
                except (ValueError, NotImplementedError, KeyError,
                        IndexError, EOFError, struct.error, wave.Error,
                        OSError, zlib.error):
                    feats.append(np.zeros(self.FEATURE_DIM))
                    valid.append(False)
            else:
                feats.append(self._decode_one(m, p))
                valid.append(True)
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(np.concatenate(feats), pa.float64()), self.FEATURE_DIM
        )
        if not all(valid):
            # null out the corrupt rows (take with null indices)
            arr = arr.take(pa.array(
                [i if v else None for i, v in enumerate(valid)],
                pa.int64()))
        return (
            batch.select(["media_id", "mime"]).append_column("features", arr)
        )


class DecodeStub:
    """Deterministic fake-feature stage for arbitrary payload bytes (kept
    for pipeline tests; real decoding lives in :class:`MediaDecoder`).

    ``fake=True`` → 8-dim feature from the payload sha256 (real plumbing,
    fake math).  ``fake=False`` → NotImplementedError, the explicit marker
    that a real codec belongs here.
    """

    FEATURE_DIM = 8

    def __init__(self, fake: bool = False):
        self.fake = fake

    def _decode_one(self, payload: bytes) -> np.ndarray:
        if not self.fake:
            raise NotImplementedError(
                "DecodeStub decodes nothing; use MediaDecoder for PPM/BMP/"
                "WAV payloads or construct DecodeStub(fake=True) for the "
                "deterministic test path"
            )
        digest = hashlib.sha256(payload).digest()
        return (
            np.frombuffer(digest[: self.FEATURE_DIM], dtype=np.uint8)
            .astype(np.float64)
            / 255.0
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _empty_features_table(batch, self.FEATURE_DIM)
        feats = [self._decode_one(p) for p in batch["payload"].to_pylist()]
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(np.concatenate(feats), pa.float64()), self.FEATURE_DIM
        )
        return (
            batch.select(["media_id", "mime"]).append_column("features", arr)
        )


def decode_features(
    ds,
    fake: bool = False,
    batch_size: int = 64,
    concurrency=(1, 4),
    real: bool = False,
    resize_to: Optional[Tuple[int, int]] = None,
    on_error: str = "raise",
):
    """Media dataset → (media_id, mime, features).

    ``real=True`` uses :class:`MediaDecoder` (actual PPM/BMP/WAV decoding
    + optional resize); otherwise the sha256 stub path.  Small
    ``batch_size``: payload rows are large, so batch × concurrency must
    fit the worker heap (the multimodal sizing rule).  ``on_error=
    "null"`` keeps streaming past corrupt payloads (null features)
    instead of failing the task — the web-corpus policy.
    """
    if real:
        return ds.map_batches(
            MediaDecoder,
            fn_constructor_kwargs=dict(resize_to=resize_to,
                                       on_error=on_error),
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )
    return ds.map_batches(
        DecodeStub,
        fn_constructor_kwargs=dict(fake=fake),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# GIF (LZW) — pure-Python decode, multi-frame; the frame-sampling container
# ---------------------------------------------------------------------------


def _lzw_encode(indices: np.ndarray, min_code_size: int) -> bytes:
    """Minimal GIF-LZW encoder: emits a CLEAR before every pixel code so
    the code table never grows (the classic 'uncompressed GIF' technique
    — larger output, trivially correct, fine for synthesized fixtures)."""
    clear = 1 << min_code_size
    eoi = clear + 1
    code_size = min_code_size + 1
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code):
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += code_size
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    emit(clear)
    for v in indices:
        emit(int(v))
        emit(clear)  # keep the table (and code size) fixed
    emit(eoi)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _lzw_decode(data: bytes, min_code_size: int) -> np.ndarray:
    """Full GIF-LZW decode (variable code width, CLEAR/EOI, KwKwK case)."""
    clear = 1 << min_code_size
    eoi = clear + 1
    acc = 0
    nbits = 0
    pos = 0
    out = bytearray()

    def reset_table():
        return ({i: bytes([i]) for i in range(clear)}, clear + 2,
                min_code_size + 1)

    table, next_code, code_size = reset_table()
    prev = None
    while True:
        while nbits < code_size:
            if pos >= len(data):
                return np.frombuffer(bytes(out), dtype=np.uint8)
            acc |= data[pos] << nbits
            pos += 1
            nbits += 8
        code = acc & ((1 << code_size) - 1)
        acc >>= code_size
        nbits -= code_size
        if code == clear:
            table, next_code, code_size = reset_table()
            prev = None
            continue
        if code == eoi:
            return np.frombuffer(bytes(out), dtype=np.uint8)
        if prev is None:
            entry = table[code]
        elif code in table:
            entry = table[code]
            table[next_code] = prev + entry[:1]
            next_code += 1
        else:  # KwKwK
            entry = prev + prev[:1]
            table[next_code] = entry
            next_code += 1
        out += entry
        if next_code == (1 << code_size) and code_size < 12:
            code_size += 1
        prev = entry


def _gif_interlace_order(fh: int) -> np.ndarray:
    """GIF 4-pass interlace: canvas row index for each stored row."""
    order = []
    for start, step in ((0, 8), (4, 8), (2, 4), (1, 2)):
        order.extend(range(start, fh, step))
    return np.array(order, dtype=np.int64)


def _gif_pack_table(palette: np.ndarray) -> Tuple[bytes, int]:
    """palette → (padded table bytes, depth) with size 2^depth ≥ len."""
    depth = max(1, int(np.ceil(np.log2(max(2, len(palette))))))
    pal = np.zeros((1 << depth, 3), dtype=np.uint8)
    pal[:len(palette)] = palette
    return pal.tobytes(), depth


def encode_gif(frames: np.ndarray, palette: np.ndarray,
               interlace: bool = False,
               local_palettes: Optional[list] = None) -> bytes:
    """(n_frames, h, w) palette-index uint8 + (n_colors≤256, 3) palette →
    animated GIF89a (one image block per frame).  ``interlace`` stores
    rows in the 4-pass order; ``local_palettes`` (one (n,3) array per
    frame, or None entries for the global table) emits per-frame local
    color tables."""
    n, h, w = frames.shape
    table, depth = _gif_pack_table(palette)
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (depth - 1), 0, 0)
    out += table
    for f in range(n):
        local = local_palettes[f] if local_palettes else None
        iflags = 0x40 if interlace else 0
        if local is not None:
            ltable, ldepth = _gif_pack_table(local)
            iflags |= 0x80 | (ldepth - 1)
        out += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, iflags)
        if local is not None:
            out += ltable
            min_code = max(2, ldepth)
        else:
            min_code = max(2, depth)
        rows = frames[f]
        if interlace:
            rows = rows[_gif_interlace_order(h)]
        out.append(min_code)
        lzw = _lzw_encode(rows.reshape(-1), min_code)
        for i in range(0, len(lzw), 255):
            blk = lzw[i:i + 255]
            out.append(len(blk))
            out += blk
        out.append(0)  # block terminator
    out += b"\x3b"  # trailer
    return bytes(out)


def decode_gif(payload: bytes) -> np.ndarray:
    """GIF87a/89a → (n_frames, h, w, 3) uint8 via pure-Python LZW.

    Global AND per-frame local color tables, 4-pass interlacing, and
    partial-canvas frames (composited onto the previous canvas, the
    do-not-dispose model) all decode; extension blocks are skipped."""
    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF payload")
    w, h, flags, _bg, _ar = struct.unpack_from("<HHBBB", payload, 6)
    pos = 13
    palette = None
    if flags & 0x80:
        table_size = 2 << (flags & 0x07)
        palette = np.frombuffer(payload, np.uint8, count=table_size * 3,
                                offset=pos).reshape(-1, 3)
        pos += table_size * 3
    frames = []
    canvas = np.zeros((h, w, 3), dtype=np.uint8)
    while pos < len(payload):
        b0 = payload[pos]
        pos += 1
        if b0 == 0x3B:  # trailer
            break
        if b0 == 0x21:  # extension: label + sub-blocks, skip
            pos += 1
            while payload[pos]:
                pos += 1 + payload[pos]
            pos += 1
            continue
        if b0 != 0x2C:
            raise ValueError(f"unexpected GIF block 0x{b0:02x}")
        fx, fy, fw, fh, iflags = struct.unpack_from("<HHHHB", payload, pos)
        pos += 9
        pal = palette
        if iflags & 0x80:  # local color table overrides the global one
            lsize = 2 << (iflags & 0x07)
            pal = np.frombuffer(payload, np.uint8, count=lsize * 3,
                                offset=pos).reshape(-1, 3)
            pos += lsize * 3
        if pal is None:
            raise ValueError("GIF frame has neither global nor local "
                             "color table")
        if fx + fw > w or fy + fh > h:
            raise ValueError("GIF frame rectangle exceeds the canvas")
        min_code = payload[pos]
        pos += 1
        data = bytearray()
        while payload[pos]:
            ln = payload[pos]
            data += payload[pos + 1:pos + 1 + ln]
            pos += 1 + ln
        pos += 1
        idx = _lzw_decode(bytes(data), min_code)[:fw * fh]
        rect = pal[np.clip(idx, 0, len(pal) - 1)].reshape(fh, fw, 3)
        if iflags & 0x40:  # interlaced: stored rows map to pass order
            deinter = np.empty_like(rect)
            deinter[_gif_interlace_order(fh)] = rect
            rect = deinter
        canvas[fy:fy + fh, fx:fx + fw] = rect
        frames.append(canvas.copy())
    if not frames:
        raise ValueError("GIF contains no image frames")
    return np.stack(frames)


def sample_frames(frames: np.ndarray, k: int = 3) -> np.ndarray:
    """Evenly-spaced frame sample (first/…/last) — the brief's
    frame-sampling op for multi-frame media."""
    n = len(frames)
    if n <= k:
        return frames
    idx = np.linspace(0, n - 1, k).round().astype(int)
    return frames[idx]


# ---------------------------------------------------------------------------
# video pipeline: container probe + sampled-frame features
# ---------------------------------------------------------------------------


def make_video_table(n: int = 6, seed: int = 9) -> pa.Table:
    """Deterministic (video_id, mime, payload) rows: MJPEG MP4s with
    varying dims / frame counts, plus one ``avc1`` track per 5 rows so
    the honest unsupported-codec path is exercised in-band."""
    rng = np.random.default_rng(seed)
    ids, payloads = [], []
    for i in range(n):
        w, h = int(rng.integers(8, 28)), int(rng.integers(8, 28))
        nf = int(rng.integers(3, 10))
        frames = rng.integers(0, 256, size=(nf, h, w, 3), dtype=np.uint8)
        if i % 5 == 4:
            # same container, inter-frame codec: parse succeeds,
            # decode raises — surfaced as ok=false rows downstream
            from xpshacl_ray.stages.mp4 import build_mp4

            enc = [encode_jpeg(frames[j], quality=90) for j in range(nf)]
            payloads.append(build_mp4(enc, w, h, codec=b"avc1"))
        else:
            payloads.append(encode_mjpeg_mp4(frames, quality=90))
        ids.append(i)
    return pa.table({
        "video_id": pa.array(ids, pa.int64()),
        "mime": pa.array(["video/mp4"] * n, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
    })


class VideoProbe:
    """Actor-pool video stage: ISO-BMFF container probe (codec, dims,
    sample count, duration) + sampled-frame features for decodable
    (MJPEG) tracks.  Undecodable codecs yield ``ok=false`` rows with
    null features — errors travel in-band, the pipeline never dies on
    one bad payload.  Heavy setup (none needed here; a decord/PyAV
    handle would load in ``__init__``) happens once per actor."""

    FEATURE_DIM = MediaDecoder.FEATURE_DIM

    def __init__(self, k: int = 3):
        self.k = k

    def _probe_one(self, payload: bytes) -> dict:
        from xpshacl_ray.stages import mp4 as m

        out = {"codec": None, "width": None, "height": None,
               "n_frames": None, "duration_ms": None, "ok": False,
               "feats": None}
        try:
            info = m.parse_mp4(payload)
            track = next(t for t in info["tracks"]
                         if t.get("handler") == "vide")
            out.update(codec=track.get("codec"),
                       width=track.get("width"),
                       height=track.get("height"),
                       n_frames=track.get("n_samples"),
                       duration_ms=int(round(
                           info.get("duration_s", 0.0) * 1000)))
            frames = decode_mp4_frames(payload, self.k)
            out["feats"] = np.mean([image_features(f) for f in frames],
                                   axis=0)
            out["ok"] = True
        except (ValueError, NotImplementedError, StopIteration):
            pass
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [self._probe_one(p) for p in batch["payload"].to_pylist()]
        cols = {
            "video_id": batch["video_id"],
            "codec": pa.array([r["codec"] for r in rows], pa.string()),
            "width": pa.array([r["width"] for r in rows], pa.int64()),
            "height": pa.array([r["height"] for r in rows], pa.int64()),
            "n_frames": pa.array([r["n_frames"] for r in rows], pa.int64()),
            "duration_ms": pa.array([r["duration_ms"] for r in rows],
                                    pa.int64()),
            "ok": pa.array([r["ok"] for r in rows], pa.bool_()),
        }
        for j in range(self.FEATURE_DIM):
            cols[f"f{j}"] = pa.array(
                [None if r["feats"] is None else float(r["feats"][j])
                 for r in rows], pa.float64())
        return pa.table(cols)


def probe_videos(ds, k: int = 3, batch_size: int = 2, concurrency: int = 2):
    """Video dataset → per-video container metadata + sampled-frame
    features (see :class:`VideoProbe`).  ``batch_size`` stays small:
    payload rows are MBs at production scale."""
    return ds.map_batches(VideoProbe(k), batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency)


class AudioSpectral:
    """Actor-pool audio featurizer: decode (any supported WAV/FLAC
    container) → time-averaged log-mel energies
    (:func:`xpshacl_ray.stages.audio.spectral_features`).  Non-audio
    rows pass through silently-skipped so the stage composes with mixed
    media tables; the mel filterbank is built once per actor."""

    N_MELS = 8

    def __init__(self, n_fft: int = 256, hop: int = 128):
        self.n_fft, self.hop = n_fft, hop

    def __call__(self, batch: pa.Table) -> pa.Table:
        from xpshacl_ray.stages.audio import spectral_features

        ids, mimes, feats = [], [], []
        for mid, mime, payload in zip(batch["media_id"].to_pylist(),
                                      batch["mime"].to_pylist(),
                                      batch["payload"].to_pylist()):
            if mime not in _DECODABLE_AUDIO:  # non-audio or undecodable
                continue
            x, rate = _DECODABLE_AUDIO[mime](payload)
            ids.append(mid)
            mimes.append(mime)
            feats.append(spectral_features(x, rate, self.n_fft, self.hop,
                                           self.N_MELS))
        cols = {"media_id": pa.array(ids, pa.int64()),
                "mime": pa.array(mimes, pa.string())}
        arr = (np.stack(feats) if feats
               else np.empty((0, self.N_MELS)))
        for j in range(self.N_MELS):
            cols[f"m{j}"] = pa.array(arr[:, j], pa.float64())
        return pa.table(cols)


# ---------------------------------------------------------------------------
# perceptual image hashing (DCT pHash) → image near-dup detection
# ---------------------------------------------------------------------------


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis, ``(n, n)``."""
    k = np.arange(n)
    m = np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    m[0] /= np.sqrt(2)
    return m * np.sqrt(2.0 / n)


_DCT32 = _dct_matrix(32)


def resize_area(gray: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Area-average (bin-mean) resize of a 2-D array — the standard
    pre-filter for perceptual hashing (nearest-neighbour aliases)."""
    h, w = gray.shape
    if h < out_h or w < out_w:  # upscale first so every bin is non-empty
        gray = resize_nearest(gray[:, :, None], max(w, out_w),
                              max(h, out_h))[:, :, 0]
        h, w = gray.shape
    ye = (np.arange(out_h + 1) * h // out_h)
    xe = (np.arange(out_w + 1) * w // out_w)
    c = np.add.reduceat(np.add.reduceat(gray.astype(np.float64),
                                        ye[:-1], axis=0), xe[:-1], axis=1)
    area = np.diff(ye)[:, None] * np.diff(xe)[None, :]
    return c / area


def image_phash(img: np.ndarray) -> int:
    """(h, w, 3) uint8 → 64-bit DCT perceptual hash.

    Algorithm (the classic pHash): channel-mean gray → 32×32
    area-average resize → 2-D DCT-II → top-left 8×8 low-frequency block
    → threshold at the median of the 63 AC coefficients → 64 bits
    packed row-major, MSB first (bit 63 = DC).  Returned as a SIGNED
    int64 (two's complement) so it stores in an Arrow int64 column."""
    gray = img.astype(np.float64).mean(axis=2)
    g = resize_area(gray, 32, 32)
    d = _DCT32 @ g @ _DCT32.T
    block = d[:8, :8].reshape(-1)
    med = np.median(block[1:])
    bits = block > med
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    return val - (1 << 64) if val >= (1 << 63) else val


class PHashStage:
    """Actor-pool perceptual-hash stage: decode each image (any
    supported container; GIF → first frame, MJPEG MP4 → first sampled
    frame) → 64-bit pHash.  Audio rows are skipped in-stage.  Output
    ``(media_id, mime, phash64)`` feeds
    :func:`xpshacl_ray.functions.dedup.hash64_near_dups` for image
    near-dup pairs — the whole exchange is 8 bytes per image."""

    def _hash_one(self, mime: str, payload: bytes) -> Optional[int]:
        if mime == "image/gif":
            return image_phash(decode_gif(payload)[0])
        if mime in ("video/mp4", "video/quicktime"):
            return image_phash(decode_mp4_frames(payload, 1)[0])
        if mime in _DECODABLE_IMAGE:
            return image_phash(_DECODABLE_IMAGE[mime](payload))
        return None

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, mimes, hashes = [], [], []
        for mid, mime, payload in zip(batch["media_id"].to_pylist(),
                                      batch["mime"].to_pylist(),
                                      batch["payload"].to_pylist()):
            h = self._hash_one(mime, payload)
            if h is None:
                continue
            ids.append(mid)
            mimes.append(mime)
            hashes.append(h)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "mime": pa.array(mimes, pa.string()),
            "phash64": pa.array(hashes, pa.int64()),
        })


def make_phash_fixture(n_base: int = 6, seed: int = 23) -> pa.Table:
    """Near-dup image fixture: each base image appears as a lossless
    PNG (even media_id) and as a JPEG quality-85 re-encode (odd
    media_id) — perceptually identical, byte-different.  Bases are
    smooth gradients (JPEG-survivable) with per-base offsets so
    DIFFERENT bases hash far apart."""
    rng = np.random.default_rng(seed)
    ids, mimes, payloads = [], [], []
    for i in range(n_base):
        h, w = int(rng.integers(33, 64)), int(rng.integers(33, 64))
        yy, xx = np.mgrid[0:h, 0:w]
        phase = float(rng.uniform(0, 2 * np.pi))
        img = np.stack([
            128 + 100 * np.sin(2 * np.pi * yy / h * (1 + i % 3) + phase),
            128 + 100 * np.cos(2 * np.pi * xx / w * (1 + i % 2) + phase),
            128 + 100 * np.sin(2 * np.pi * (xx + yy) / (h + w) + i),
        ], axis=-1)
        img = np.clip(img + rng.normal(0, 2, img.shape), 0, 255
                      ).astype(np.uint8)
        ids.append(2 * i)
        mimes.append("image/png")
        payloads.append(encode_png(img))
        ids.append(2 * i + 1)
        mimes.append("image/jpeg")
        payloads.append(encode_jpeg(img, quality=95))
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "mime": pa.array(mimes, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
    })


def make_wds_dup_fixture(out_dir: str, n_shards: int = 3,
                         uniques_per_shard: int = 3,
                         seed: int = 29) -> list:
    """On-disk WebDataset fixture WITH cross-shard image near-dups:
    integer member keys; every shard holds ``uniques_per_shard`` fresh
    images (lossless PNG) and every shard after the first also carries
    a JPEG quality-95 re-encode of one image from shard 0 — the
    duplicate lives in a DIFFERENT shard than its original, the case
    shard-local dedup cannot catch.  Idempotent (fixed seed)."""
    import os

    from xpshacl_ray.sources.tar import write_tar_shard

    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    base_imgs = []
    paths = []
    next_id = 0
    for s in range(n_shards):
        members = []
        for _ in range(uniques_per_shard):
            h, w = int(rng.integers(33, 64)), int(rng.integers(33, 64))
            yy, xx = np.mgrid[0:h, 0:w]
            ph = float(rng.uniform(0, 2 * np.pi))
            img = np.clip(np.stack([
                128 + 100 * np.sin(2 * np.pi * yy / h * (1 + next_id % 3)
                                   + ph),
                128 + 100 * np.cos(2 * np.pi * xx / w * (1 + next_id % 2)
                                   + ph),
                128 + 100 * np.sin(2 * np.pi * (xx + yy) / (h + w)
                                   + next_id),
            ], axis=-1) + rng.normal(0, 2, (h, w, 3)), 0, 255
            ).astype(np.uint8)
            base_imgs.append(img)
            members.append((f"{next_id:06d}.png", encode_png(img)))
            next_id += 1
        if s > 0:  # cross-shard near-dup of a shard-0 image
            members.append((f"{next_id:06d}.jpg",
                            encode_jpeg(base_imgs[s - 1], quality=95)))
            next_id += 1
        blob = write_tar_shard(members)
        path = os.path.join(out_dir, f"dup-{s:05d}.tar")
        if not (os.path.exists(path)
                and os.path.getsize(path) == len(blob)):
            with open(path, "wb") as f:
                f.write(blob)
        paths.append(path)
    return paths


def make_corrupt_media_table(n: int = 11,
                             corrupt: Tuple[int, ...] = (0, 3, 6),
                             seed: int = 42) -> pa.Table:
    """The real-media fixture with KNOWN corruption planted: row 0
    truncated to 8 bytes, row 3's magic scrambled, row 6 cut mid-
    container — the ground truth for integrity probing is the
    construction itself, independent of any decoder."""
    t = make_real_media_table(n, seed)
    payloads = t["payload"].to_pylist()
    kinds = {corrupt[0] if len(corrupt) > 0 else -1: "truncate_head",
             corrupt[1] if len(corrupt) > 1 else -1: "bad_magic",
             corrupt[2] if len(corrupt) > 2 else -1: "truncate_mid"}
    for i, kind in kinds.items():
        if i < 0 or i >= n:
            continue
        if kind == "truncate_head":
            payloads[i] = payloads[i][:8]
        elif kind == "bad_magic":
            payloads[i] = b"XXXX" + payloads[i][4:]
        else:
            payloads[i] = payloads[i][:max(len(payloads[i]) // 4, 16)]
    return pa.table({"media_id": t["media_id"], "mime": t["mime"],
                     "payload": pa.array(payloads, pa.binary()),
                     "meta": t["meta"]})


def image_dhash(img: np.ndarray) -> int:
    """Difference hash: gray → 9×8 area resize → 64 bits, bit set when
    the left pixel is brighter than its right neighbour (row-major,
    MSB first).  Cheaper than pHash, robust to global brightness."""
    gray = img.astype(np.float64).mean(axis=2)
    g = resize_area(gray, 9, 8)
    bits = (g[:, :-1] > g[:, 1:]).reshape(-1)
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    return val - (1 << 64) if val >= (1 << 63) else val


def image_ahash(img: np.ndarray) -> int:
    """Average hash: gray → 8×8 area resize → 64 bits, bit set when the
    pixel exceeds the 64-pixel mean (row-major, MSB first)."""
    gray = img.astype(np.float64).mean(axis=2)
    g = resize_area(gray, 8, 8)
    bits = (g > g.mean()).reshape(-1)
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    return val - (1 << 64) if val >= (1 << 63) else val


class AudioFingerprint:
    """Actor-pool audio fingerprint stage: decode (any supported
    WAV/FLAC container) → 64-bit spectral-envelope fingerprint
    (:func:`xpshacl_ray.stages.audio.audio_fingerprint`).  8 bytes per
    clip leave the task — audio near-dup never ships samples."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from xpshacl_ray.stages.audio import audio_fingerprint

        ids, mimes, fps = [], [], []
        for mid, mime, payload in zip(batch["media_id"].to_pylist(),
                                      batch["mime"].to_pylist(),
                                      batch["payload"].to_pylist()):
            if mime not in _DECODABLE_AUDIO:  # non-audio or undecodable
                continue
            x, rate = _DECODABLE_AUDIO[mime](payload)
            ids.append(mid)
            mimes.append(mime)
            fps.append(audio_fingerprint(x, rate))
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "mime": pa.array(mimes, pa.string()),
                         "afp64": pa.array(fps, pa.int64())})


def make_audio_dup_fixture(n_base: int = 5, seed: int = 43) -> pa.Table:
    """Near-dup audio fixture: each base clip (two tones + noise, 16-bit
    PCM WAV, even media_id) re-appears as a G.711 µ-law or FLAC
    re-encode (odd media_id) — same audio, different container/codec;
    distinct bases use different tone pairs, so their spectral
    envelopes are far apart."""
    from xpshacl_ray.stages.audio import encode_wav_ulaw
    from xpshacl_ray.stages.flac import encode_flac_audio

    rng = np.random.default_rng(seed)
    ids, mimes, payloads = [], [], []
    for i in range(n_base):
        n = int(rng.integers(6000, 10000))
        t = np.arange(n) / 8000
        f1 = float(rng.uniform(150, 800))
        f2 = float(rng.uniform(900, 3000))
        x = np.clip(0.5 * np.sin(2 * np.pi * f1 * t)
                    + 0.25 * np.sin(2 * np.pi * f2 * t)
                    + 0.05 * rng.standard_normal(n), -1, 1)
        ids.append(2 * i)
        mimes.append("audio/wav")
        payloads.append(encode_wav(x, 8000))
        ids.append(2 * i + 1)
        if i % 2 == 0:
            mimes.append("audio/wav")
            payloads.append(encode_wav_ulaw(x, 8000))
        else:
            mimes.append("audio/flac")
            payloads.append(encode_flac_audio(x, 8000, blocksize=1024))
    return pa.table({"media_id": pa.array(ids, pa.int64()),
                     "mime": pa.array(mimes, pa.string()),
                     "payload": pa.array(payloads, pa.binary())})


def video_fingerprint(payload: bytes, k: int = 5) -> int:
    """MJPEG-MP4 bytes → 64-bit video fingerprint: dHash each of ``k``
    evenly-spaced sampled frames (container-level sampling — only those
    frames decode), then take the per-bit MAJORITY across frames.
    dHash's gradient bits barely move under JPEG re-encoding (unlike
    pHash's near-median DCT bits), so re-encoded/re-muxed copies land
    within a few bits while different content diverges."""
    frames = decode_mp4_frames(payload, k)
    hs = np.array([image_dhash(f) for f in frames],
                  dtype=np.int64).view(np.uint64)
    bit_idx = np.arange(64, dtype=np.uint64)
    bits = ((hs[:, None] >> bit_idx[None, :]) & np.uint64(1))
    maj = bits.sum(axis=0) * 2 > len(hs)
    val = 0
    for b in maj[::-1]:  # bit 63 first (MSB-first packing)
        val = (val << 1) | int(b)
    return val - (1 << 64) if val >= (1 << 63) else val


class VideoFingerprint:
    """Actor-pool video near-dup stage: (media_id, payload) MP4 rows →
    64-bit fingerprints (8 bytes/video leave the task).  Undecodable
    codecs yield null fingerprints in-band."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, fps = [], []
        for mid, payload in zip(batch["media_id"].to_pylist(),
                                batch["payload"].to_pylist()):
            try:
                fps.append(video_fingerprint(payload))
            except (ValueError, NotImplementedError):
                fps.append(None)
            ids.append(mid)
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "vfp64": pa.array(fps, pa.int64())})


def make_video_dup_fixture(n_base: int = 4, seed: int = 47) -> pa.Table:
    """Near-dup video fixture: each base MJPEG track (even media_id)
    re-appears re-encoded at a different JPEG quality AND re-muxed with
    a different chunking (odd media_id) — same content, different
    bytes; distinct bases use different scene gradients."""
    rng = np.random.default_rng(seed)
    ids, payloads = [], []
    for i in range(n_base):
        h, w = int(rng.integers(33, 56)), int(rng.integers(33, 56))
        nf = int(rng.integers(6, 10))
        yy, xx = np.mgrid[0:h, 0:w]
        ph = float(rng.uniform(0, 2 * np.pi))
        frames = np.stack([np.clip(np.stack([
            128 + 100 * np.sin(2 * np.pi * yy / h * (1 + i % 3)
                               + ph + 0.2 * f),
            128 + 100 * np.cos(2 * np.pi * xx / w * (1 + i % 2) + ph),
            128 + 100 * np.sin(2 * np.pi * (xx + yy) / (h + w) + i),
        ], axis=-1) + rng.normal(0, 2, (h, w, 3)), 0, 255)
            for f in range(nf)]).astype(np.uint8)
        ids.append(2 * i)
        payloads.append(encode_mjpeg_mp4(frames, quality=95,
                                         samples_per_chunk=3))
        ids.append(2 * i + 1)
        payloads.append(encode_mjpeg_mp4(frames, quality=92,
                                         samples_per_chunk=2))
    return pa.table({"media_id": pa.array(ids, pa.int64()),
                     "mime": pa.array(["video/mp4"] * len(ids),
                                      pa.string()),
                     "payload": pa.array(payloads, pa.binary())})


def png_text_chunks(payload: bytes) -> dict:
    """PNG → {keyword: value} from tEXt (latin-1) and iTXt
    (uncompressed UTF-8) chunks — the PNG analog of EXIF/ID3 metadata
    (Software, Author, prompts, ...)."""
    import struct

    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    out = {}
    pos = 8
    while pos + 8 <= len(payload):
        (length,) = struct.unpack(">I", payload[pos:pos + 4])
        tag = payload[pos + 4:pos + 8]
        body = payload[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"tEXt":
            key, _, val = body.partition(b"\x00")
            out[key.decode("latin-1")] = val.decode("latin-1")
        elif tag == b"iTXt":
            key, _, rest = body.partition(b"\x00")
            if rest[:1] == b"\x00":  # uncompressed only
                # skip compression method + language tag + translated kw
                rest = rest[2:]
                _lang, _, rest = rest.partition(b"\x00")
                _tkw, _, val = rest.partition(b"\x00")
                out[key.decode("latin-1")] = val.decode("utf-8",
                                                        "replace")
        elif tag == b"IEND":
            break
    return out


def png_add_text(payload: bytes, texts: dict) -> bytes:
    """Insert tEXt chunks (latin-1) right after IHDR."""
    import struct

    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    (ihdr_len,) = struct.unpack(">I", payload[8:12])
    cut = 8 + 12 + ihdr_len
    chunks = b"".join(_png_chunk(
        b"tEXt", k.encode("latin-1") + b"\x00" + str(v).encode("latin-1"))
        for k, v in sorted(texts.items()))
    return payload[:cut] + chunks + payload[cut:]


def png_strip_text(payload: bytes) -> bytes:
    """Drop every tEXt/zTXt/iTXt/tIME chunk (metadata scrub); pixel
    chunks pass through untouched."""
    import struct

    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    out = bytearray(payload[:8])
    pos = 8
    while pos + 8 <= len(payload):
        (length,) = struct.unpack(">I", payload[pos:pos + 4])
        tag = payload[pos + 4:pos + 8]
        chunk = payload[pos:pos + 12 + length]
        pos += 12 + length
        if tag not in (b"tEXt", b"zTXt", b"iTXt", b"tIME"):
            out += chunk
        if tag == b"IEND":
            break
    return bytes(out)
