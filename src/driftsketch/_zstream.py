"""The sealed container of the binary formats: embedding files v2 and v3,
sketch libraries v1-v4.

A sealed file is a head (a text line, or magic, version and a length), a
body, then the 8-byte BLAKE2b checksum of every byte before it (a v1
library seals its JSON payload alone). The body is stored as it is
(embeddings v2, libraries v1-v3) or is one level-1 zlib stream that
inflates to a length B the head declares (embeddings v3, libraries v4).
``seal`` writes the zlib form. ``checked`` gives the bytes before the
checksum, or raises StoreError("checksum-mismatch") for a file cut short,
changed or followed by other bytes. ``Body`` reads a body of either form in
pieces of sizes the caller declares, so a reader can put each piece where
it belongs (a byte plane straight into its matrix) without holding the
whole body. A stream that is corrupt, cut short, inflates to more or fewer
than B bytes, is followed by other bytes, or declares a B beyond what
deflate can expand it to is StoreError("malformed-payload: ..."), found
without inflating more than B + 1 bytes.
"""

import hashlib
import zlib

import numpy as np

from .core import StoreError

# the fixed level: level 6 saves 0.4% more embedding bytes at about 1.4x the time,
# and about 1 KB more of a 9 KB benchmark library
_ZLIB_LEVEL = 1
# the most bytes deflate can inflate one stream byte to: a 258-byte match in 2 bits
_DEFLATE_MAX_RATIO = 1032
# the most bytes fed to or taken from zlib per call: zlib returns at most this
# much output as one block, not as blocks it joins into a second copy
_PIECE = 1 << 15


def seal(head, parts):
    """``head``, one zlib stream of the concatenated byte buffers ``parts``,
    then the BLAKE2b checksum of both; deflated, hashed and joined in parts,
    so no full-size body or file is copied twice."""
    deflate = zlib.compressobj(_ZLIB_LEVEL)
    pieces = [head, *(deflate.compress(part) for part in parts), deflate.flush()]
    checksum = hashlib.blake2b(digest_size=8)
    for piece in pieces:
        checksum.update(piece)
    return b"".join([*pieces, checksum.digest()])


def checked(data):
    """A memoryview of the bytes of sealed `data` before its 8-byte trailer,
    once the trailer is found to be their BLAKE2b checksum."""
    view = memoryview(data)
    if len(view) < 8 or hashlib.blake2b(view[:-8], digest_size=8).digest() != view[-8:]:
        raise StoreError("checksum-mismatch")
    return view[:-8]


class Body:
    """Reads the body of a sealed file in pieces: `stream` itself when
    `size` is None (stored), else the `size` bytes that the zlib stream
    `stream` inflates to.

    ``read`` and ``readinto`` hand out the next bytes of the body, never
    more than ``size`` in all; ``close`` skips the rest and checks that a
    zlib stream ends there with nothing after it.
    """

    def __init__(self, stream, size=None):
        # also keeps every length handed to zlib inside ssize_t
        if size is not None and size > _DEFLATE_MAX_RATIO * len(stream):
            raise StoreError(
                f"malformed-payload: bytes={size} cannot inflate from {len(stream)} stream bytes"
            )
        self._stream, self._fed, self._done = memoryview(stream), 0, 0
        self._zlib = None if size is None else zlib.decompressobj()
        self.size = len(stream) if size is None else size

    def _inflate(self, limit):
        """Up to `limit` > 0 more body bytes; b"" once the body has ended
        or the stream's bytes have run out."""
        if self._zlib is None:
            piece = self._stream[self._done : self._done + limit]
            self._done += len(piece)
            return piece
        while not self._zlib.eof:  # past the end, zlib keeps bytes in unconsumed_tail
            data = self._zlib.unconsumed_tail
            if not data:
                data = self._stream[self._fed : self._fed + _PIECE]
                self._fed += len(data)
            try:
                # with no data left, still asks for output zlib may hold back
                out = self._zlib.decompress(data, limit)
            except zlib.error as exc:
                raise StoreError(f"malformed-payload: corrupt zlib stream ({exc})")
            if out:
                self._done += len(out)
                return out
            if not data:
                return b""
        return b""

    def read(self, n):
        """The next `n` bytes of the body, or all that is left of its
        ``size`` bytes where that is fewer."""
        n = min(n, self.size - self._done)
        pieces = []
        while n > 0:
            piece = self._inflate(min(n, _PIECE))
            if not piece:
                if self._zlib.eof:
                    raise StoreError(f"malformed-payload: the zlib stream inflates to "
                                     f"{self._done} bytes, not bytes={self.size}")
                raise StoreError(
                    f"malformed-payload: the zlib stream ends early, after {self._done} bytes"
                )
            pieces.append(piece)
            n -= len(piece)
        return b"".join(pieces)

    def readinto(self, out):
        """Fill the 2-D uint8 array `out`, of any strides, with the next
        ``out.size`` bytes in C order, a block of whole rows at a time."""
        rows = max(1, _PIECE // max(1, out.shape[1]))
        for start in range(0, out.shape[0], rows):
            block = out[start : start + rows]
            block[...] = np.frombuffer(self.read(block.size), np.uint8).reshape(block.shape)

    def close(self):
        """Skip what is left of the ``size`` bytes, then check that a zlib
        stream ends right there, with nothing after it."""
        while self.read(_PIECE):
            pass
        if self._zlib is None:
            return
        if self._inflate(1):
            raise StoreError(
                f"malformed-payload: the zlib stream inflates to more than bytes={self.size}"
            )
        if not self._zlib.eof:
            raise StoreError(
                f"malformed-payload: the zlib stream ends early, after {self._done} bytes"
            )
        extra = len(self._zlib.unused_data) + len(self._stream) - self._fed
        if extra:
            raise StoreError(f"malformed-payload: {extra} bytes after the zlib stream")
