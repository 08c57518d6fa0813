"""Exception types shared across the package, where a text file fails to
decode, and the lines before that."""


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


def _byte_lines(stream):
    """The lines of a text stream over a file, read again from its bytes
    without their ends. Lines end where a text stream's do, at b"\\n",
    b"\\r\\n" or a lone b"\\r", bytes that no multi-byte UTF-8 character
    holds."""
    binary = stream.buffer
    binary.seek(0)
    for chunk in binary:
        yield from chunk.removesuffix(b"\n").removesuffix(b"\r").split(b"\r")


def undecodable_line(stream) -> str:
    """Where a text stream over a file first fails to decode, as
    '<file> line N: ...'. The file's bytes are read again one line at a
    time, so only a failed read pays for it."""
    name = getattr(stream, "name", "input")
    for lineno, line in enumerate(_byte_lines(stream), start=1):
        try:
            line.decode(stream.encoding)
        except UnicodeDecodeError as exc:
            return (f"{name} line {lineno}: byte {line[exc.start]:#04x} is not "
                    f"{stream.encoding} text ({exc.reason})")
    return f"{name}: not {stream.encoding} text"


def decoded_lines(stream):
    """The lines of a text stream over a file before the first one that
    fails to decode, read again from its bytes and decoded one at a time,
    without their ends."""
    for line in _byte_lines(stream):
        try:
            yield line.decode(stream.encoding)
        except UnicodeDecodeError:
            return
