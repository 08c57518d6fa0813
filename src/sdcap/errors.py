"""Exception types shared across the package, and the lines of a text file
read again, one decoded line at a time, to say where it was refused."""


class SdcapError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(SdcapError, ValueError):
    """A physical parameter is missing, non-finite, or out of range."""


class InvalidDeviationError(SdcapError, ValueError):
    """A deviation ratio violates the selected regime."""


class InvalidInputError(SdcapError, ValueError):
    """Structural input problem (empty sets, mismatched horizons, ...)."""


class FormulaError(SdcapError, ValueError):
    """A temporal-logic formula failed to parse or is malformed."""


class EvaluationError(SdcapError, ValueError):
    """A formula references an unknown atom or cannot be evaluated."""


class OracleError(SdcapError, RuntimeError):
    """The numerical oracle could not bracket a solution; indicates a
    mismatch between the closed form and the simulated trajectories."""


class ConfigError(SdcapError, ValueError):
    """A scenario configuration file failed validation; carries a line hint."""


class DecodedLines:
    """The lines of a text stream, with their ends, read again from its start
    and counted (`count`) as they are handed out. A file is re-read from its
    bytes in fixed-size blocks and handed out a line at a time, each decoded
    on its own, so no decoder read-ahead passes the line read and no line
    holds more than its own bytes; lines end, as in a text stream with
    newline="", at b"\\n", b"\\r\\n" or a lone b"\\r", bytes no multi-byte
    UTF-8 character holds. The lines stop before the first one that fails
    to decode."""

    def __init__(self, stream):
        self.count = 0
        self._name = getattr(stream, "name", "input")
        self._failure = f"{self._name}: not {stream.encoding} text"
        self._lines = self._read(stream)

    def _read(self, stream):
        if not hasattr(stream, "buffer"):  # a StringIO: no bytes to decode
            stream.seek(0)
            for line in stream:
                self.count += 1
                yield line
            return
        stream.buffer.seek(0)
        for line in _byte_lines(stream.buffer):
            body = line.rstrip(b"\r\n")  # the codec judges the line's own bytes
            try:
                text = body.decode(stream.encoding)
            except UnicodeDecodeError as exc:
                self._failure = (
                    f"{self._name} line {self.count + 1}: byte {body[exc.start]:#04x} "
                    f"is not {stream.encoding} text ({exc.reason})"
                )
                return
            self.count += 1
            yield text + line[len(body):].decode()

    def __iter__(self):  # the generator itself, so np.loadtxt pulls from it
        return self._lines

    def undecodable(self) -> str:
        """Where the stream first fails to decode, as '<file> line N: ...',
        reading on past the lines handed out so far."""
        for _ in self:
            pass
        return self._failure


# Bytes read at a time when a file is re-read.
_READ_BYTES = 1 << 16


def _byte_lines(buffer):
    """The lines of a binary file, with their ends, read _READ_BYTES at a
    time. The last piece of a block is carried over to the next, since a
    line may go on there, and a b"\\r" ending a block may be the first half
    of a b"\\r\\n"."""
    rest = b""
    while block := buffer.read(_READ_BYTES):
        lines = (rest + block).splitlines(keepends=True)
        rest = lines.pop()
        yield from lines
    if rest:
        yield rest
