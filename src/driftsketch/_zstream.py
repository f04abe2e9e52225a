"""The one zlib stream of embedding file v3 and sketch library v4.

Both formats are a head the reader needs first (a text line, or magic,
version and inflated length), one zlib stream of a body of declared length
B, and the 8-byte BLAKE2b checksum of every byte before it. ``seal``
writes that; ``Inflater`` reads the stream back in pieces of sizes the
caller declares, so a reader can put each piece where it belongs (a byte
plane straight into its matrix) without holding the whole body, and turns
every stream that does not inflate to exactly B bytes into a named
StoreError.
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


class Inflater:
    """Reads the `size` bytes one zlib stream inflates to, in pieces.

    ``read`` and ``readinto`` hand out the next bytes of the body; ``close``
    then checks that the stream ends there with nothing after it. A corrupt
    stream, one cut short, one that inflates to more or fewer than `size`
    bytes, bytes after its end, and a `size` beyond what deflate can expand
    the stream to are each ``StoreError("malformed-payload: ...")``, found
    without inflating more than `size` + 1 bytes.
    """

    def __init__(self, stream, size):
        # also keeps every length handed to zlib inside ssize_t
        if size > _DEFLATE_MAX_RATIO * len(stream):
            raise StoreError(
                f"malformed-payload: bytes={size} cannot inflate from {len(stream)} stream bytes"
            )
        self._stream, self._fed = memoryview(stream), 0
        self._size, self._done = size, 0
        self._zlib = zlib.decompressobj()

    def _inflate(self, limit):
        """Up to `limit` > 0 more body bytes; b"" once the stream has ended
        or its bytes have run out."""
        while not self._zlib.eof:  # past the end, zlib keeps bytes in unconsumed_tail
            data = self._zlib.unconsumed_tail
            if not data:
                if self._fed == len(self._stream):
                    return b""
                data = self._stream[self._fed : self._fed + _PIECE]
                self._fed += len(data)
            try:
                out = self._zlib.decompress(data, limit)
            except zlib.error as exc:
                raise StoreError(f"malformed-payload: corrupt zlib stream ({exc})")
            if out:
                self._done += len(out)
                return out
        return b""

    def read(self, n):
        """The next `n` bytes of the body (the caller keeps to `size`)."""
        pieces = []
        while n:
            piece = self._inflate(min(n, _PIECE))
            if not piece:
                if self._zlib.eof:
                    raise StoreError(f"malformed-payload: the zlib stream inflates to "
                                     f"{self._done} bytes, not bytes={self._size}")
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
        """Check that the stream ends right after the `size` bytes read, with
        nothing after it."""
        if self._inflate(1):
            raise StoreError(
                f"malformed-payload: the zlib stream inflates to more than bytes={self._size}"
            )
        if not self._zlib.eof:
            raise StoreError(
                f"malformed-payload: the zlib stream ends early, after {self._done} bytes"
            )
        extra = len(self._zlib.unused_data) + len(self._stream) - self._fed
        if extra:
            raise StoreError(f"malformed-payload: {extra} bytes after the zlib stream")


def inflate(stream, size):
    """The whole `size`-byte body of a zlib stream, checked as ``Inflater`` checks it."""
    inflater = Inflater(stream, size)
    body = inflater.read(size)
    inflater.close()
    return body
