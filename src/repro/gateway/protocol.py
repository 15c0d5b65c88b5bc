"""The gateway wire protocol: NDJSON frames, typed errors, codecs.

One request or response per line, each a JSON object carrying the
protocol version.  Requests look like::

    {"v": 1, "op": "submit", "id": 7, "circuit": {...}, ...}

and every response echoes the request ``id`` with either ``"ok": true``
and op-specific fields, or ``"ok": false`` and a typed error::

    {"v": 1, "id": 7, "ok": false,
     "error": {"code": "RETRY_LATER", "message": "...",
               "retry_after_s": 0.05}}

Design rules, enforced here so every entry point shares them:

* **untrusted input never crashes the server** — malformed JSON, a bad
  envelope, an unknown op, oversized payloads, and broken QASM all map
  to :class:`ProtocolError` with a stable :data:`ERROR_CODES` member,
  never a traceback or a hung connection;
* **hard size limits before parsing** — a line, QASM text, circuit, or
  input batch beyond the :data:`MAX_LINE_BYTES` /:data:`MAX_QASM_BYTES`
  /:data:`MAX_QUBITS` /:data:`MAX_GATES` /:data:`MAX_INPUTS` bounds is
  refused with ``OVERSIZED`` (the gate count check runs *after* parsing
  but before any simulation work);
* **integers are not booleans** — ``json.loads`` turns ``true`` into
  Python's ``True``, which ``isinstance(x, int)`` accepts; every integer
  and number field is checked with :func:`is_json_int` /
  :func:`is_json_number`, which refuse it;
* **bit-exact amplitudes** — complex128 matrices cross the wire as
  base64 of their raw little-endian bytes (:func:`encode_array` /
  :func:`decode_array`), so a batch submitted over TCP reproduces the
  in-process result to the last bit.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from ..circuit import Circuit, InputBatch, parse_qasm, to_qasm
from ..circuit.generators import make_circuit
from ..errors import CircuitError, QasmError, ReproError

#: the one protocol version this build speaks; a request carrying any
#: other version is refused with ``UNSUPPORTED_VERSION``
PROTOCOL_VERSION = 1

#: hard upper bound on one NDJSON frame (requests and responses alike);
#: sized for a 16-qubit x 256-input complex128 batch in base64 plus slack
MAX_LINE_BYTES = 512 * 1024 * 1024 // 8  # 64 MiB
#: QASM source beyond this is refused before the parser ever runs
MAX_QASM_BYTES = 1024 * 1024
#: widest circuit the gateway will admit (the service could go further,
#: but an untrusted 40-qubit submit is a memory bomb, not a job)
MAX_QUBITS = 22
#: deepest circuit the gateway will admit
MAX_GATES = 100_000
#: widest input batch (columns) one submit may carry
MAX_INPUTS = 4096

#: every error code a response may carry — the stable, typed surface
#: clients switch on (messages are for humans, codes are for programs)
ERROR_CODES = frozenset(
    {
        "BAD_ENVELOPE",  # not JSON, not an object, missing v/op
        "UNSUPPORTED_VERSION",
        "UNKNOWN_OP",
        "BAD_CIRCUIT",  # circuit spec invalid (family/qubits/fields)
        "BAD_QASM",  # QASM parse failed (carries "line" when known)
        "BAD_INPUTS",  # input batch malformed or inconsistent
        "OVERSIZED",  # a size limit tripped
        "QUOTA_EXCEEDED",  # tenant token bucket empty
        "RETRY_LATER",  # transient backpressure (carries retry_after_s)
        "DRAINING",  # server is shutting down gracefully
        "UNKNOWN_JOB",
        "JOB_FAILED",  # result requested for a failed/quarantined job
        "NOT_CANCELLABLE",
        "TIMEOUT",  # a bounded wait expired server-side
        "STREAM_EXPIRED",  # a stream start fell out of the event window
        "INTERNAL",  # anything else; the message is sanitized
    }
)


class ProtocolError(Exception):
    """A typed wire-protocol refusal.

    Carries a stable ``code`` from :data:`ERROR_CODES` plus optional
    JSON-safe ``extra`` fields (``retry_after_s``, ``line``, ``limit``)
    that land verbatim in the error response.  Raising it anywhere in a
    request handler produces a well-formed error frame, never a
    traceback on the socket.
    """

    def __init__(self, code: str, message: str, **extra) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        self.code = code
        self.extra = extra
        super().__init__(message)

    def to_wire(self) -> dict:
        """The ``error`` object of a refusal response."""
        return {"code": self.code, "message": str(self), **self.extra}


def is_json_int(value) -> bool:
    """Whether a decoded JSON value is an integer (``true`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value) -> bool:
    """Whether a decoded JSON value is a number (``true`` is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def encode_frame(obj: dict) -> bytes:
    """One NDJSON frame: compact JSON plus the terminating newline."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one request line into its envelope dict.

    Refuses oversized lines, non-JSON, non-object payloads, and bad
    ``v``/``op`` fields with typed errors; returns the parsed dict with
    ``op`` guaranteed to be a string.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "OVERSIZED",
            f"frame is {len(line)} bytes (limit {MAX_LINE_BYTES})",
            limit=MAX_LINE_BYTES,
        )
    try:
        obj = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            "BAD_ENVELOPE", f"frame is not valid JSON: {exc}"
        ) from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            "BAD_ENVELOPE",
            f"frame must be a JSON object, got {type(obj).__name__}",
        )
    version = obj.get("v")
    if not is_json_int(version) or version != PROTOCOL_VERSION:
        raise ProtocolError(
            "UNSUPPORTED_VERSION",
            f"protocol version {version!r} not supported "
            f"(this server speaks {PROTOCOL_VERSION})",
            supported=PROTOCOL_VERSION,
        )
    op = obj.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("BAD_ENVELOPE", "missing or non-string 'op'")
    return obj


def ok_response(request_id, **fields) -> dict:
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True, **fields}


def error_response(request_id, error: ProtocolError) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": error.to_wire(),
    }


# ---------------------------------------------------------------------------
# array codec (bit-exact complex128 over JSON)
# ---------------------------------------------------------------------------

def encode_array(array: np.ndarray) -> dict:
    """Wire form of a complex128 matrix: shape + base64 raw bytes.

    Little-endian byte order is forced explicitly so the codec is
    platform-independent; decoding reproduces the exact bits.
    """
    data = np.ascontiguousarray(array, dtype="<c16")
    return {
        "dtype": "c16",
        "shape": list(data.shape),
        "b64": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def decode_array(wire: dict) -> np.ndarray:
    """Inverse of :func:`encode_array`, with typed refusals throughout."""
    if not isinstance(wire, dict):
        raise ProtocolError("BAD_INPUTS", "array must be a JSON object")
    if wire.get("dtype") != "c16":
        raise ProtocolError(
            "BAD_INPUTS", f"unsupported array dtype {wire.get('dtype')!r}"
        )
    shape = wire.get("shape")
    if (
        not isinstance(shape, list)
        or not shape
        or not all(is_json_int(dim) and dim > 0 for dim in shape)
    ):
        raise ProtocolError("BAD_INPUTS", f"bad array shape {shape!r}")
    try:
        raw = base64.b64decode(wire.get("b64", ""), validate=True)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(
            "BAD_INPUTS", f"array payload is not valid base64: {exc}"
        ) from None
    expected = int(np.prod(shape)) * 16
    if len(raw) != expected:
        raise ProtocolError(
            "BAD_INPUTS",
            f"array payload is {len(raw)} bytes, shape {shape} needs "
            f"{expected}",
        )
    return np.frombuffer(raw, dtype="<c16").reshape(shape).astype(
        np.complex128
    )


# ---------------------------------------------------------------------------
# circuit codec
# ---------------------------------------------------------------------------

def circuit_to_wire(circuit: Circuit) -> dict:
    """Wire form of a circuit: its QASM serialization."""
    return {"qasm": to_qasm(circuit)}


def circuit_from_wire(wire) -> Circuit:
    """Build a circuit from an untrusted wire spec.

    Two shapes are accepted: ``{"qasm": "..."}`` (parsed with the typed
    :class:`~repro.errors.QasmError` surfaced as ``BAD_QASM`` carrying
    the offending line) and ``{"family": "ghz", "num_qubits": 4,
    "seed": 0}`` (the benchmark generator registry).  Size limits apply
    before and after parsing.
    """
    if not isinstance(wire, dict):
        raise ProtocolError("BAD_CIRCUIT", "circuit must be a JSON object")
    if "qasm" in wire:
        qasm = wire["qasm"]
        if not isinstance(qasm, str):
            raise ProtocolError("BAD_CIRCUIT", "'qasm' must be a string")
        if len(qasm.encode()) > MAX_QASM_BYTES:
            raise ProtocolError(
                "OVERSIZED",
                f"QASM source exceeds {MAX_QASM_BYTES} bytes",
                limit=MAX_QASM_BYTES,
            )
        try:
            circuit = parse_qasm(qasm)
        except QasmError as exc:
            raise ProtocolError(
                "BAD_QASM", str(exc), line=exc.line
            ) from None
        except CircuitError as exc:
            raise ProtocolError("BAD_QASM", str(exc)) from None
    elif "family" in wire:
        family = wire["family"]
        num_qubits = wire.get("num_qubits")
        seed = wire.get("seed", 0)
        if not isinstance(family, str):
            raise ProtocolError("BAD_CIRCUIT", "'family' must be a string")
        if not is_json_int(num_qubits) or num_qubits < 1:
            raise ProtocolError(
                "BAD_CIRCUIT",
                f"'num_qubits' must be a positive integer, "
                f"got {num_qubits!r}",
            )
        if num_qubits > MAX_QUBITS:
            raise ProtocolError(
                "OVERSIZED",
                f"{num_qubits} qubits exceeds the gateway limit "
                f"of {MAX_QUBITS}",
                limit=MAX_QUBITS,
            )
        if not is_json_int(seed):
            raise ProtocolError("BAD_CIRCUIT", "'seed' must be an integer")
        try:
            circuit = make_circuit(family, num_qubits, seed=seed)
        except KeyError as exc:
            raise ProtocolError("BAD_CIRCUIT", str(exc.args[0])) from None
        except CircuitError as exc:
            raise ProtocolError("BAD_CIRCUIT", str(exc)) from None
    else:
        raise ProtocolError(
            "BAD_CIRCUIT", "circuit needs either 'qasm' or 'family'"
        )
    if circuit.num_qubits > MAX_QUBITS:
        raise ProtocolError(
            "OVERSIZED",
            f"circuit is {circuit.num_qubits}-qubit "
            f"(gateway limit {MAX_QUBITS})",
            limit=MAX_QUBITS,
        )
    if circuit.num_gates > MAX_GATES:
        raise ProtocolError(
            "OVERSIZED",
            f"circuit has {circuit.num_gates} gates "
            f"(gateway limit {MAX_GATES})",
            limit=MAX_GATES,
        )
    return circuit


def inputs_from_wire(wire, circuit: Circuit) -> InputBatch | None:
    """Decode a submit's optional ``inputs`` field against its circuit.

    ``None`` (absent) lets the service generate its default seeded batch;
    an array wire object becomes an :class:`InputBatch` validated for
    qubit count and width limits.
    """
    if wire is None:
        return None
    states = decode_array(wire)
    if states.ndim != 2:
        raise ProtocolError(
            "BAD_INPUTS", f"inputs must be 2-D, got {states.ndim}-D"
        )
    rows, columns = states.shape
    if columns > MAX_INPUTS:
        raise ProtocolError(
            "OVERSIZED",
            f"{columns} input columns exceeds the gateway limit "
            f"of {MAX_INPUTS}",
            limit=MAX_INPUTS,
        )
    if rows != 2 ** circuit.num_qubits:
        raise ProtocolError(
            "BAD_INPUTS",
            f"inputs have {rows} rows but the {circuit.num_qubits}-qubit "
            f"circuit needs {2 ** circuit.num_qubits}",
        )
    try:
        return InputBatch(states)
    except (ReproError, ValueError) as exc:
        raise ProtocolError("BAD_INPUTS", str(exc)) from None
