"""Manifest files for the loader tests: the CSV manifest of a dataset, and
damaged ``.npy`` versions of one matrix with the refusal each must get."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from mvmlc.data import csv_text, write_json, write_matrix_csv


def write_csv_manifest(dataset, out_dir) -> Path:
    """Write ``dataset`` as headerless CSV matrices ``view_<m>.csv``,
    ``labels.csv``, ``view_indicator.csv`` and ``label_indicator.csv`` plus
    ``manifest.json`` in ``out_dir``; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matrices = {f"view_{m}.csv": view for m, view in enumerate(dataset.views)}
    manifest = {"name": dataset.name, "views": list(matrices), "labels": "labels.csv",
                "view_indicator": "view_indicator.csv", "label_indicator": "label_indicator.csv"}
    matrices.update({"labels.csv": dataset.labels, "view_indicator.csv": dataset.view_indicator,
                     "label_indicator.csv": dataset.label_indicator})
    for name, matrix in matrices.items():
        write_matrix_csv(out / name, matrix)
    write_json(out / "manifest.json", manifest)
    return out / "manifest.json"


def npy_bytes(array) -> bytes:
    """The ``.npy`` file ``np.save`` writes for ``array``."""
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def npy_with_header(text: str, data: bytes) -> bytes:
    """A version 1.0 ``.npy`` file whose header is ``text``, padded as
    ``np.save`` pads it, followed by ``data``."""
    text = text.ljust(117) + "\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode("latin1") + data


def malformed_npy(matrix) -> dict[str, tuple[bytes, str]]:
    """Per case, the bytes of a damaged ``.npy`` file in place of the
    float64 ``matrix``, and the text its refusal must start with after
    naming the manifest and the file."""
    rows, cols = matrix.shape
    good = npy_bytes(matrix)
    data = matrix.tobytes()
    declared = f"the header declares {rows} x {cols} float64 values ({len(data)} bytes)"
    return {
        "truncated data": (good[:-8], f"{declared}, the file holds {len(data) - 8} bytes of data"),
        "trailing data": (good + b"\0", f"{declared}, the file holds {len(data) + 1} bytes of data"),
        "truncated header": (good[:60], "EOF: reading array header"),
        "empty file": (b"", "EOF: reading magic string"),
        "CSV text": (csv_text(matrix.tolist()).encode(), "the magic string is not correct"),
        # np.load raises tokenize.TokenError on this header
        "unparsable header": (npy_with_header(
            f"{{'descr': '<f8', 'fortran_order': False, 'shape': ({rows}, {cols}", data),
            "cannot parse the array header (TokenError)"),
        # ast.literal_eval's text for a bare name holds a memory address
        "bare name in the header": (npy_with_header(
            f"{{descr: '<f8', 'fortran_order': False, 'shape': ({rows}, {cols}), }}", data),
            "cannot parse the array header (ValueError)"),
        # np.load raises MemoryError on this header before it reads anything
        "shape larger than the file": (npy_with_header(
            f"{{'descr': '<f8', 'fortran_order': False, 'shape': (10000000000000, {cols}), }}",
            data), f"the header declares 10000000000000 x {cols} float64 values"),
        # a reader that takes the length as given asks the file for 2 GiB
        "header length larger than the file": (
            b"\x93NUMPY\x02\x00" + (2 ** 31).to_bytes(4, "little") + good[10:],
            "EOF: reading array header, expected 2147483648 bytes got "),
        "format version 3": (good[:6] + b"\x03" + good[7:],
                             "unsupported .npy format version (3, 0)"),
        "object dtype": (npy_bytes(matrix.astype(object)),
                         "holds object values, expected bool, integer or float"),
        "complex dtype": (npy_bytes(matrix.astype(complex)), "holds complex128 values"),
        "structured dtype": (npy_bytes(np.zeros(rows, dtype=[("a", "<f8"), ("b", "<f8", (2,))])),
                             "holds [('a', '<f8'), ('b', '<f8', (2,))] values"),
        "unicode dtype": (npy_bytes(np.full(matrix.shape, "x")), "holds <U1 values"),
        "1-D array": (npy_bytes(matrix[:, 0]),
                      f"holds an array of shape ({rows},), expected a 2-D matrix"),
        "3-D array": (npy_bytes(matrix[:, :, None]),
                      f"holds an array of shape ({rows}, {cols}, 1), expected a 2-D matrix"),
        "no rows": (npy_bytes(matrix[:0]), "file holds no data"),
    }
