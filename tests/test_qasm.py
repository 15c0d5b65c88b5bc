"""Unit tests for the OpenQASM 2.0 reader/writer."""

import math

import numpy as np
import pytest

from repro.circuit import Circuit, parse_qasm, to_qasm
from repro.circuit.generators import random_circuit
from repro.errors import QasmError

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'


def test_parse_basic_gates():
    c = parse_qasm(HEADER + "h q[0];\ncx q[0],q[1];\nrz(pi/2) q[2];\n")
    assert c.num_qubits == 3
    assert [g.name for g in c] == ["h", "x", "rz"]
    assert c[1].controls == (0,)
    assert c[2].params == (math.pi / 2,)


def test_parse_parameter_expressions():
    c = parse_qasm(HEADER + "rx(2*pi/3) q[0]; ry(-pi) q[1]; p(0.25+0.5) q[2];")
    assert c[0].params[0] == pytest.approx(2 * math.pi / 3)
    assert c[1].params[0] == pytest.approx(-math.pi)
    assert c[2].params[0] == pytest.approx(0.75)


def test_parse_ignores_comments_barriers_measure():
    src = HEADER + "// a comment\nh q[0]; barrier q;\ncreg c[3];\nmeasure q[0] -> c[0];\nx q[1];"
    c = parse_qasm(src)
    assert [g.name for g in c] == ["h", "x"]


def test_parse_register_broadcast():
    c = parse_qasm(HEADER + "h q;")
    assert len(c) == 3 and all(g.name == "h" for g in c)
    assert sorted(g.qubits[0] for g in c) == [0, 1, 2]


def test_parse_multi_register_offsets():
    src = 'OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncx a[1],b[0];\n'
    c = parse_qasm(src)
    assert c.num_qubits == 4
    assert c[0].controls == (1,) and c[0].qubits == (2,)


def test_parse_rejects_unknown_gate():
    with pytest.raises(QasmError, match="unknown gate"):
        parse_qasm(HEADER + "warp q[0];")


def test_parse_expands_gate_definitions():
    src = HEADER + "gate mygate a { h a; t a; }\nmygate q[1];"
    c = parse_qasm(src)
    assert [g.name for g in c] == ["h", "t"]
    assert all(g.qubits == (1,) for g in c)


def test_parse_expands_parameterized_nested_definitions():
    src = HEADER + (
        "gate inner(t) a { rz(t/2) a; }\n"
        "gate outer(t) a,b { inner(t) a; cx a,b; inner(-t) b; }\n"
        "outer(pi) q[0],q[2];"
    )
    c = parse_qasm(src)
    assert [g.name for g in c] == ["rz", "x", "rz"]
    assert c[0].params[0] == pytest.approx(math.pi / 2)
    assert c[2].params[0] == pytest.approx(-math.pi / 2)
    assert c[1].controls == (0,) and c[1].qubits == (2,)


def test_parse_rejects_recursive_gate_definition():
    src = HEADER + "gate loop a { loop a; }\nloop q[0];"
    with pytest.raises(QasmError, match="too deep"):
        parse_qasm(src)


def test_parse_rejects_unknown_gate_in_body():
    src = HEADER + "gate bad a { warp a; }\nbad q[0];"
    with pytest.raises(QasmError, match="unknown gate 'warp'"):
        parse_qasm(src)


def test_parse_rejects_wrong_custom_arity():
    src = HEADER + "gate two a,b { cx a,b; }\ntwo q[0];"
    with pytest.raises(QasmError, match="takes 2 qubit"):
        parse_qasm(src)


def test_parse_still_rejects_opaque():
    with pytest.raises(QasmError, match="unsupported"):
        parse_qasm(HEADER + "opaque magic a;")


def test_parse_rejects_bad_index():
    with pytest.raises(QasmError, match="out of range"):
        parse_qasm(HEADER + "h q[7];")


def test_parse_rejects_missing_qreg():
    with pytest.raises(QasmError, match="no qreg"):
        parse_qasm("OPENQASM 2.0;\n")


def test_parse_rejects_malicious_parameter():
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "rx(__import__('os')) q[0];")


#: programs the parser once crashed on or silently accepted
MALFORMED_QASM = {
    "divide-by-zero": HEADER + "rz(1/0) q[0];",
    "overflow": HEADER + "rz(9**9**9) q[0];",
    "sqrt-domain": HEADER + "rz(sqrt(-1)) q[0];",
    "ln-domain": HEADER + "rz(ln(0)) q[0];",
    "gate-body-divide-by-zero": HEADER + "gate g(a) x { rz(1/a) x; }\ng(0) q[0];",
    "infinite": HEADER + "rz(1e400) q[0];",
    "nan": HEADER + "rz(1e400-1e400) q[0];",
    "no-header": 'include "qelib1.inc";\nqreg q[3];\nh q[0];',
    "version-2.1": 'OPENQASM 2.1;\ninclude "qelib1.inc";\nqreg q[3];',
    "version-3": "OPENQASM 3;\nqreg q[3];",
    "second-header": HEADER + "h q[0];\nOPENQASM 2.0;\nx q[1];",
    "missing-final-semicolon": HEADER + "h q[0];\nx q[1]",
    "full-width-index": HEADER + "h q[\uff10];",
    "full-width-size": "OPENQASM 2.0;\nqreg q[\uff12];",
    "redeclared-qreg": "OPENQASM 2.0;\nqreg q[2];\nqreg q[3];\nh q[2];",
}


@pytest.mark.parametrize("src", MALFORMED_QASM.values(), ids=list(MALFORMED_QASM))
def test_parse_refuses_malformed_programs(src):
    with pytest.raises(QasmError) as err:
        parse_qasm(src)
    assert err.value.line is not None


def test_comment_after_final_statement_parses():
    c = parse_qasm(HEADER + "h q[0]; // trailing comment")
    assert len(c) == 1


def test_roundtrip_preserves_semantics():
    for seed in range(3):
        c = random_circuit(4, 15, seed=seed)
        c2 = parse_qasm(to_qasm(c))
        assert np.allclose(c2.to_matrix(), c.to_matrix(), atol=1e-10)


def test_roundtrip_gate_counts(small_circuit):
    c2 = parse_qasm(to_qasm(small_circuit))
    assert len(c2) == len(small_circuit)
    assert np.allclose(c2.to_matrix(), small_circuit.to_matrix(), atol=1e-10)


def test_serialize_ccx():
    c = Circuit(3)
    c.ccx(0, 1, 2)
    text = to_qasm(c)
    assert "ccx q[0],q[1],q[2];" in text
