"""ISO BMFF (MP4, MPEG-4 Part 12) container handling in pure stdlib.

The last stubbed media family in :mod:`multimodal` was "video": this
module parses the real container — box walk, ``ftyp`` brand, ``mvhd``
movie timescale/duration, per-track ``hdlr``/codec/dimensions/
``mdhd`` timing, and the full sample tables (``stsz``/``stsc``/
``stco``/``co64``) resolved into per-sample byte ranges — i.e. FRAME
SAMPLING at the container level, the operation a training-data
pipeline actually runs over video corpora.

Motion-JPEG tracks (``jpeg``/``mjpg`` sample entries, every sample a
complete JPEG image) then decode END TO END through
:mod:`xpshacl_ray.stages.jpeg` — no media libraries anywhere.
Inter-frame codecs (``avc1``/``hev1``/``mp4v``/...) raise the honest
``NotImplementedError`` naming the exact plug-in point, matching the
repo-wide unsupported-codec contract.

A minimal muxer (:func:`build_mp4`) exists so every parser path is
roundtrip-tested without fixtures from external tools.  The reference
treats media as opaque binary payloads (no decode at all) — the
multimodal surface is this engine's addition.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

#: container boxes whose children are parsed by recursing into the body
_CONTAINERS = {b"moov", b"trak", b"mdia", b"minf", b"stbl"}


def _boxes(data: bytes, start: int, end: int):
    """Yield ``(type, body_start, box_end)`` for the boxes in a range
    (64-bit largesize and to-end-of-file sizes included)."""
    pos = start
    while pos + 8 <= end:
        size = struct.unpack_from(">I", data, pos)[0]
        typ = data[pos + 4:pos + 8]
        body = pos + 8
        if size == 1:
            size = struct.unpack_from(">Q", data, pos + 8)[0]
            body = pos + 16
        elif size == 0:
            size = end - pos
        if size < 8 or pos + size > end:
            raise ValueError(f"malformed MP4 box {typ!r} at byte {pos}")
        yield typ, body, pos + size
        pos += size


def _find(data: bytes, start: int, end: int,
          name: bytes) -> Optional[Tuple[int, int]]:
    for typ, b, e in _boxes(data, start, end):
        if typ == name:
            return b, e
    return None


def _full_box(data: bytes, body: int) -> Tuple[int, int]:
    """(version, flags) of a FullBox body."""
    v = data[body]
    flags = int.from_bytes(data[body + 1:body + 4], "big")
    return v, flags


def _parse_stbl(data: bytes, b: int, e: int, track: dict) -> None:
    for typ, bb, be in _boxes(data, b, e):
        if typ == b"stsd":
            n = struct.unpack_from(">I", data, bb + 4)[0]
            if n >= 1:
                entry = bb + 8
                track["codec"] = data[entry + 4:entry + 8].decode(
                    "ascii", "replace")
                if track.get("handler") == "vide":
                    track["width"] = struct.unpack_from(
                        ">H", data, entry + 32)[0]
                    track["height"] = struct.unpack_from(
                        ">H", data, entry + 34)[0]
        elif typ == b"stsz":
            fixed, count = struct.unpack_from(">II", data, bb + 4)
            track["n_samples"] = count
            if fixed:
                track["sizes"] = [fixed] * count
            else:
                track["sizes"] = list(struct.unpack_from(
                    f">{count}I", data, bb + 12))
        elif typ == b"stsc":
            count = struct.unpack_from(">I", data, bb + 4)[0]
            vals = struct.unpack_from(f">{count * 3}I", data, bb + 8)
            track["stsc"] = [(vals[i * 3], vals[i * 3 + 1])
                             for i in range(count)]
        elif typ == b"stco":
            count = struct.unpack_from(">I", data, bb + 4)[0]
            track["chunk_offsets"] = list(struct.unpack_from(
                f">{count}I", data, bb + 8))
        elif typ == b"co64":
            count = struct.unpack_from(">I", data, bb + 4)[0]
            track["chunk_offsets"] = list(struct.unpack_from(
                f">{count}Q", data, bb + 8))


def parse_mp4(payload: bytes) -> Dict:
    """MP4 bytes -> ``{brand, timescale, duration_s, tracks: [...]}``
    with every track carrying handler / codec / dims / timing / sample
    tables (see module docstring)."""
    if len(payload) < 12 or payload[4:8] != b"ftyp":
        raise ValueError("not an MP4 payload (missing ftyp)")
    out: Dict = {"brand": payload[8:12].decode("ascii", "replace"),
                 "tracks": []}
    moov = _find(payload, 0, len(payload), b"moov")
    if moov is None:
        raise ValueError("MP4 missing moov box")
    for typ, b, e in _boxes(payload, *moov):
        if typ == b"mvhd":
            v, _ = _full_box(payload, b)
            if v == 0:
                ts, dur = struct.unpack_from(">II", payload, b + 12)
            else:
                ts = struct.unpack_from(">I", payload, b + 20)[0]
                dur = struct.unpack_from(">Q", payload, b + 24)[0]
            out["timescale"] = ts
            out["duration_s"] = dur / ts if ts else 0.0
        elif typ == b"trak":
            track: Dict = {}
            mdia = _find(payload, b, e, b"mdia")
            if mdia is None:
                continue
            for t2, b2, e2 in _boxes(payload, *mdia):
                if t2 == b"mdhd":
                    v, _ = _full_box(payload, b2)
                    if v == 0:
                        ts, dur = struct.unpack_from(
                            ">II", payload, b2 + 12)
                    else:
                        ts = struct.unpack_from(">I", payload, b2 + 20)[0]
                        dur = struct.unpack_from(">Q", payload, b2 + 24)[0]
                    track["timescale"] = ts
                    track["duration_s"] = dur / ts if ts else 0.0
                elif t2 == b"hdlr":
                    track["handler"] = payload[b2 + 8:b2 + 12].decode(
                        "ascii", "replace")
                elif t2 == b"minf":
                    stbl = _find(payload, b2, e2, b"stbl")
                    if stbl is not None:
                        _parse_stbl(payload, *stbl, track)
            out["tracks"].append(track)
    return out


def sample_ranges(track: Dict) -> List[Tuple[int, int]]:
    """Resolve stsz/stsc/stco into per-sample ``(offset, size)`` byte
    ranges, in sample order (T.81's cousin spec, 14496-12 8.7)."""
    sizes = track.get("sizes", [])
    stsc = track.get("stsc", [])
    chunks = track.get("chunk_offsets", [])
    if not sizes or not stsc or not chunks:
        return []
    ranges: List[Tuple[int, int]] = []
    si = 0
    for ci in range(1, len(chunks) + 1):
        spc = next((s for fc, s in reversed(stsc) if fc <= ci), None)
        if spc is None:
            raise ValueError(f"stsc has no entry covering chunk {ci}")
        off = chunks[ci - 1]
        for _ in range(spc):
            if si >= len(sizes):
                return ranges
            ranges.append((off, sizes[si]))
            off += sizes[si]
            si += 1
    return ranges


def extract_samples(payload: bytes, track: Dict,
                    limit: Optional[int] = None) -> List[bytes]:
    """The first ``limit`` (default: all) samples of a track as raw
    byte strings — container-level frame extraction."""
    out = []
    for off, size in sample_ranges(track)[:limit]:
        if off + size > len(payload):
            raise ValueError("sample range past end of payload")
        out.append(payload[off:off + size])
    return out


# ---------------------------------------------------------------------------
# minimal muxer (tests / fixtures)
# ---------------------------------------------------------------------------


def _box(typ: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body) + 8) + typ + body


def _full(typ: bytes, version: int, flags: int, body: bytes) -> bytes:
    return _box(typ, bytes([version]) + flags.to_bytes(3, "big") + body)


def build_mp4(frames: List[bytes], width: int, height: int,
              codec: bytes = b"jpeg", timescale: int = 1000,
              sample_delta: int = 40,
              samples_per_chunk: int = 3) -> bytes:
    """Mux pre-encoded video samples (e.g. JPEG images for an MJPEG
    track) into a single-video-track MP4.  ``samples_per_chunk`` splits
    the mdat into several chunks so the stsc/stco resolution is
    genuinely exercised."""
    n = len(frames)
    dur = n * sample_delta

    def moov_with(chunk_offsets: List[int]) -> bytes:
        mvhd = _full(b"mvhd", 0, 0, struct.pack(
            ">IIII", 0, 0, timescale, dur)
            + struct.pack(">I", 0x00010000) + struct.pack(">H", 0x0100)
            + b"\x00" * 10
            + struct.pack(">9I", 0x10000, 0, 0, 0, 0x10000, 0, 0, 0,
                          0x40000000)
            + b"\x00" * 24 + struct.pack(">I", 2))
        tkhd = _full(b"tkhd", 0, 7, struct.pack(
            ">IIIII", 0, 0, 1, 0, dur) + b"\x00" * 16
            + struct.pack(">9I", 0x10000, 0, 0, 0, 0x10000, 0, 0, 0,
                          0x40000000)
            + struct.pack(">II", width << 16, height << 16))
        mdhd = _full(b"mdhd", 0, 0, struct.pack(
            ">IIII", 0, 0, timescale, dur) + struct.pack(">HH", 0x55C4, 0))
        hdlr = _full(b"hdlr", 0, 0, b"\x00" * 4 + b"vide" + b"\x00" * 12
                     + b"mjpeg\x00")
        # VisualSampleEntry: 8-byte box header + 78-byte body (14496-12)
        entry_body = (b"\x00" * 6 + struct.pack(">H", 1)  # data_ref_index
                      + b"\x00" * 16                      # predef/reserved
                      + struct.pack(">HH", width, height)
                      + struct.pack(">II", 0x00480000, 0x00480000)
                      + struct.pack(">I", 0)
                      + struct.pack(">H", 1)              # frame_count
                      + b"\x00" * 32                      # compressorname
                      + struct.pack(">Hh", 24, -1))       # depth, predef
        entry = struct.pack(">I", 8 + len(entry_body)) + codec + entry_body
        stsd = _full(b"stsd", 0, 0, struct.pack(">I", 1) + entry)
        stts = _full(b"stts", 0, 0, struct.pack(">III", 1, n,
                                                sample_delta))
        full_chunks, rem = divmod(n, samples_per_chunk)
        stsc_entries = []
        if full_chunks:
            stsc_entries.append((1, samples_per_chunk))
        if rem:
            stsc_entries.append((full_chunks + 1, rem))
        stsc = _full(b"stsc", 0, 0, struct.pack(
            ">I", len(stsc_entries)) + b"".join(
            struct.pack(">III", fc, s, 1) for fc, s in stsc_entries))
        stsz = _full(b"stsz", 0, 0, struct.pack(">II", 0, n)
                     + struct.pack(f">{n}I", *(len(f) for f in frames)))
        stco = _full(b"stco", 0, 0, struct.pack(
            f">{len(chunk_offsets) + 1}I", len(chunk_offsets),
            *chunk_offsets))
        stbl = _box(b"stbl", stsd + stts + stsc + stsz + stco)
        minf = _box(b"minf", _full(b"vmhd", 0, 1, b"\x00" * 8)
                    + _box(b"dinf", _full(
                        b"dref", 0, 0, struct.pack(">I", 1)
                        + _full(b"url ", 0, 1, b""))) + stbl)
        mdia = _box(b"mdia", mdhd + hdlr + minf)
        trak = _box(b"trak", tkhd + mdia)
        return _box(b"moov", mvhd + trak)

    ftyp = _box(b"ftyp", b"isom" + struct.pack(">I", 0x200)
                + b"isom" + b"mp41")
    n_chunks = -(-n // samples_per_chunk)
    moov_len = len(moov_with([0] * n_chunks))
    mdat_body = len(ftyp) + moov_len + 8
    offsets = []
    off = mdat_body
    for ci in range(n_chunks):
        offsets.append(off)
        for f in frames[ci * samples_per_chunk:
                        (ci + 1) * samples_per_chunk]:
            off += len(f)
    moov = moov_with(offsets)
    assert len(moov) == moov_len  # fixed-width offsets: stable size
    return ftyp + moov + _box(b"mdat", b"".join(frames))
