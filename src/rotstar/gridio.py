"""Self-describing binary container and columnar text export for fields."""

import struct

import numpy as np

from .errors import ConfigError
from .fields import AxiField, AxiGrid

_MAGIC = b"AXFD"
_VERSION = 1


def write_field(path, field, name=""):
    """Binary dump: header (dims, R0, index, parity, endian tag) + float64
    payloads, interior patch then starred exterior, row-major."""
    name_b = name.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(b"<")  # endianness tag: little
        fh.write(struct.pack("<B", field.n_index))
        fh.write(struct.pack("<bb", field.parity[0], field.parity[1]))
        fh.write(struct.pack("<d", field.grid.R0))
        fh.write(struct.pack("<d", field.offset))
        fh.write(struct.pack("<II", field.grid.n_int, field.grid.n_ext))
        fh.write(struct.pack("<H", len(name_b)))
        fh.write(name_b)
        fh.write(np.ascontiguousarray(field.int_vals, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(field.star_vals, dtype="<f8").tobytes())


def read_field(path, grid=None):
    """Read a binary dump; returns (AxiField, name)."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ConfigError(f"{path}: not a rotstar field dump")

        def take(size):
            data = fh.read(size)
            if len(data) != size:
                raise ConfigError(f"{path}: truncated field dump")
            return data

        (version,) = struct.unpack("<I", take(4))
        if version != _VERSION:
            raise ConfigError(f"{path}: unsupported version {version}")
        endian = take(1)
        if endian != b"<":
            raise ConfigError(f"{path}: unsupported endianness tag {endian!r}")
        (n_index,) = struct.unpack("<B", take(1))
        pw, pz = struct.unpack("<bb", take(2))
        (R0,) = struct.unpack("<d", take(8))
        (offset,) = struct.unpack("<d", take(8))
        n_int, n_ext = struct.unpack("<II", take(8))
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        int_vals = np.frombuffer(take(8 * n_int * n_int), dtype="<f8").reshape(n_int, n_int)
        star_vals = np.frombuffer(take(8 * n_ext * n_ext), dtype="<f8").reshape(n_ext, n_ext)
    if grid is None:
        grid = AxiGrid(R0, n_int, n_ext)
    elif (grid.R0, grid.n_int, grid.n_ext) != (R0, n_int, n_ext):
        raise ConfigError(f"{path}: grid mismatch")
    fld = AxiField(grid, n_index, int_vals.copy(), star_vals.copy(), (pw, pz), offset)
    return fld, name


def export_text(path, field, patch="interior"):
    """Columnar text: (varpi, z, value) on the chosen patch."""
    g = field.grid
    if patch == "interior":
        cols = np.column_stack(
            [g.WI.ravel(), g.ZI.ravel(), field.int_total().ravel()]
        )
        header = "varpi z value"
    elif patch == "exterior":
        cols = np.column_stack([g.WS.ravel(), g.ZS.ravel(), field.star_vals.ravel()])
        header = "varpi_star z_star tail_star"
    else:
        raise ConfigError(f"unknown patch {patch!r}")
    np.savetxt(path, cols, header=header, comments="# ")
