"""Binary snapshot records for stochastic paths.

Layout (all multi-byte values little-endian):

    bytes 0..3    magic "WSNL"
    bytes 4..7    format version, uint32 (currently 1)
    header        float64 x 12: d, N, L, K, alpha, eps, s, eta, n, T, pair_p, pair_q
    seeds         uint64 x 2: seed, stream_id
    times         float64 x (K+1)
    arrays        three blocks (psi, wick, ipsi2), each time-major:
                  (K+1) x N^d complex values stored as pairs of float64
                  (psi and ipsi2 in frequency space, wick in physical space)

Re-running `wsnl sample` with the recorded seed reproduces the file byte for byte.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import Field, SpectralGrid
from .reference import PaperParams
from .stochastic import StochasticPath

MAGIC = b"WSNL"
VERSION = 1
# magic, version, 12 float64 header fields, 2 uint64 seeds
HEADER_BYTES = 4 + 4 + 12 * 8 + 2 * 8


class SnapshotError(ValueError):
    pass


def write_snapshot(path: StochasticPath, filename: str | Path) -> None:
    grid = path.grid
    params = path.params
    K = len(path.times) - 1
    header = struct.pack(
        "<12d",
        float(grid.d),
        float(grid.N),
        float(grid.L),
        float(K),
        params.alpha,
        params.eps,
        params.s,
        params.eta,
        params.n,
        float(path.times[-1]),
        params.pair[0],
        params.pair[1],
    )
    with open(filename, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(header)
        fh.write(struct.pack("<2Q", path.seed, path.stream_id))
        fh.write(np.asarray(path.times, dtype="<f8").tobytes())
        for snapshots in (path.psi, path.wick, path.ipsi2):
            block = np.stack([f.values for f in snapshots]).astype("<c16")
            fh.write(block.tobytes())


def read_snapshot(filename: str | Path) -> StochasticPath:
    raw = Path(filename).read_bytes()
    if raw[:4] != MAGIC:
        raise SnapshotError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < HEADER_BYTES:
        raise SnapshotError(
            f"snapshot has {len(raw)} bytes, fewer than its {HEADER_BYTES}-byte header"
        )
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    off = 8
    header = struct.unpack_from("<12d", raw, off)
    off += 12 * 8
    d, N, L, K = header[:4]
    # checked before int() can truncate them or the implied length is formed
    if d not in (1.0, 2.0, 3.0):
        raise SnapshotError(f"snapshot header has d = {d}, not 1, 2 or 3")
    if not (N.is_integer() and N >= 4 and N % 2 == 0):
        raise SnapshotError(f"snapshot header has N = {N}, not an even integer >= 4")
    if not (K.is_integer() and K >= 1):
        raise SnapshotError(f"snapshot header has K = {K}, not an integer >= 1")
    d, N, K = int(d), int(N), int(K)
    expected = HEADER_BYTES + (K + 1) * 8 + 3 * (K + 1) * N**d * 16
    if len(raw) != expected:
        raise SnapshotError(
            f"snapshot has {len(raw)} bytes, but its header (d={d}, N={N}, K={K}) "
            f"implies {expected}"
        )
    alpha, eps, s, eta, n, T, pair_p, pair_q = header[4:12]
    seed, stream_id = struct.unpack_from("<2Q", raw, off)
    off += 16
    times = np.frombuffer(raw, dtype="<f8", count=K + 1, offset=off).copy()
    off += (K + 1) * 8
    grid = SpectralGrid(d, L, N)
    params = PaperParams(d=d, alpha=alpha, eps=eps, n=n, eta=eta, pair=(pair_p, pair_q))
    # both are written exactly, so a header that agrees with its data matches
    # them bit for bit
    if s != params.s:
        raise SnapshotError(
            f"snapshot header has s = {s!r}, but its alpha and eps give s = {params.s!r}"
        )
    if T != times[-1]:
        raise SnapshotError(f"snapshot header has T = {T!r}, but its last time is {times[-1]!r}")
    count = (K + 1) * N**d
    blocks = []
    for _ in range(3):
        arr = np.frombuffer(raw, dtype="<c16", count=count, offset=off).copy()
        off += count * 16
        blocks.append(arr.reshape((K + 1,) + grid.shape))
    psi, wick, ipsi2 = blocks
    return StochasticPath(
        params=params,
        grid=grid,
        times=times,
        psi=[Field(grid, v, "frequency") for v in psi],
        wick=[Field(grid, v, "physical") for v in wick],
        ipsi2=[Field(grid, v, "frequency") for v in ipsi2],
        seed=int(seed),
        stream_id=int(stream_id),
    )
