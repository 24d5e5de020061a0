"""The CLI's error contract: any invalid integer flag, malformed --grid,
bad QBC_MAX_QUBITS or input file that is unreadable or holds the wrong
vectors exits with code 2, prints nothing on stdout and exactly one stderr line
containing `error:`, and never a traceback.

Only invalid values are generated, so no example starts a simulation.
"""
import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbc.cli import main

BIG = 10**12

RUN = ["run", "--n", "4", "--t", "2", "--random-inputs"]
PROBE = ["attack", "--strategy", "plus-probe", "--n", "8", "--t", "3", "--random-inputs"]
WORST = ["attack", "--strategy", "blind-server-worst", "--n", "8", "--t", "3", "--random-inputs"]
BIASED = ["attack", "--strategy", "biased-index", "--n", "8", "--t", "3"]
REGRESSION = ["regression", "--n", "4", "--planes", "3", "--t", "3", "--seeds", "1"]
OVERLAP = ["privacy", "--kind", "overlap", "--trials", "10"]
RECOVERY = ["privacy", "--kind", "recovery"]


def below(least: int):
    return st.integers(-BIG, least - 1)


# (base argv, flag, invalid values); the flag is appended, so it
# overrides any value the base gives it
INVALID_FLAGS = [
    (RUN, "--n", below(1)),
    (RUN, "--t", below(1)),
    (RUN, "--trials", below(1)),
    (RUN, "--seed", below(0)),
    (RUN, "--redundancy-m", below(1)),
    (["run", "--protocol", "multiparty"] + RUN[1:], "--m", below(2)),
    (PROBE, "--n", below(1)),
    (PROBE, "--t", below(1)),
    (PROBE, "--trials", below(0)),
    (PROBE, "--seed", below(0)),
    (WORST, "--t", below(1)),
    (WORST, "--trials", below(0)),
    (BIASED, "--n", below(1)),
    (BIASED, "--t", below(1)),  # required, though the strategy reads no readout
    (BIASED, "--trials", below(0)),
    (BIASED, "--focus", st.one_of(below(0), st.integers(8, BIG))),
    (BIASED, "--focus-prob", st.one_of(
        st.floats(max_value=0.0, exclude_max=True),
        st.floats(min_value=1.0, exclude_min=True),
        st.just(float("nan")),
    )),
    (OVERLAP, "--trials", below(1)),
    (OVERLAP, "--seed", below(0)),
    (RECOVERY, "--trials", below(1)),
    (REGRESSION, "--n", below(1)),
    (REGRESSION, "--planes", st.one_of(below(1), st.integers(64, BIG))),
    (REGRESSION, "--t", below(1)),
    (REGRESSION, "--seeds", below(1)),
    (REGRESSION, "--seed", below(0)),
    (["ledger-check"], "--max-n", below(2)),
    (["ledger-check"], "--max-t", below(1)),
    (["ledger-check"], "--m", below(2)),
    (["ledger-check"], "--seed", below(0)),
]


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # argparse's own errors included: main never exits
    return code, out.getvalue(), err.getvalue()


def assert_rejected(argv):
    code, out, err = call(argv)
    assert code == 2, (argv, code, err)
    assert out == "", argv
    assert "Traceback" not in err, err
    assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    return err


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_invalid_integer_flags_exit_2(data):
    base, flag, values = data.draw(st.sampled_from(INVALID_FLAGS))
    assert_rejected(base + [f"{flag}={data.draw(values)}"])


def small_row(kind: str):
    """A valid row with N <= 8: (N, d_y, t <= 3) for overlap, (N, d_x,
    count <= d_x) for recovery."""
    return st.integers(1, 8).flatmap(lambda num: st.integers(0, num).flatmap(
        lambda d: st.tuples(st.just(num), st.just(d),
                            st.integers(1, 3) if kind == "overlap" else st.integers(0, d))))


def bad_row(kind: str):
    """A row that must be rejected: wrong field count, a field that is
    not an integer, N < 1, d outside [0, N], and for overlap t < 1 or
    for recovery a count outside [0, d]."""
    ints = st.integers(-BIG, BIG).map(str)
    junk = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--", "4-", "nan", "1,"])
    wrong_count = st.lists(ints, min_size=1, max_size=5).filter(lambda f: len(f) != 3)
    not_int = st.tuples(junk, ints, ints).flatmap(st.permutations)
    num = st.integers(1, 64)
    out_of_range = [
        st.tuples(below(1), st.integers(0, 8), st.integers(0, 3)),
        num.flatmap(lambda n: st.tuples(st.just(n), st.one_of(below(0), st.integers(n + 1, BIG)),
                                        st.integers(1, 3))),
    ]
    if kind == "overlap":
        out_of_range.append(num.flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n), below(1))))
    else:
        out_of_range.append(num.flatmap(lambda n: st.integers(0, n).flatmap(
            lambda d: st.tuples(st.just(n), st.just(d),
                                st.one_of(below(0), st.integers(d + 1, BIG))))))
    return st.one_of(wrong_count, not_int, *out_of_range).map(
        lambda fields: ",".join(str(f) for f in fields))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_malformed_grids_exit_2(data):
    kind = data.draw(st.sampled_from(["overlap", "recovery"]))
    good = data.draw(st.lists(small_row(kind), max_size=2))
    rows = [",".join(map(str, row)) for row in good]
    rows.insert(data.draw(st.integers(0, len(rows))), data.draw(bad_row(kind)))
    grid = data.draw(st.one_of(st.just(";".join(rows)),
                               st.text(alphabet="; ", max_size=4)))  # or no row at all
    base = OVERLAP if kind == "overlap" else RECOVERY
    assert_rejected(base + [f"--grid={grid}"])


def not_a_cap(raw: str) -> bool:
    text = raw.strip()
    return bool(text) and not (text.isdecimal() and int(text) > 0)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        below(1).map(str),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                min_size=1, max_size=8).filter(not_a_cap),
    ),
    st.sampled_from([RUN, PROBE, REGRESSION, ["ledger-check"]]),
)
def test_bad_qubit_cap_exits_2(raw, argv):
    with mock.patch.dict(os.environ, {"QBC_MAX_QUBITS": raw}):
        assert_rejected(argv)


# (argv, the flag the error must name); the files hold 4-bit vectors,
# `one` one line and `two` two, and every command reads exactly as many
# vectors as it needs: one x, one y per client (`--m` for multiparty);
# `five` holds a 5-bit vector, `bad` a non-0/1 character, `empty`
# nothing, `binary` bytes that are not UTF-8, and `missing` is no file
FILE_COUNT_CASES = [
    (["run", "--n", "4", "--t", "2", "--x-file", "two", "--y-file", "one"], "--x-file"),
    (["run", "--n", "4", "--t", "2", "--x-file", "one", "--y-file", "two"], "--y-file"),
    (["run", "--protocol", "blind-server", "--n", "4", "--t", "2",
      "--x-file", "one", "--y-file", "two"], "--y-file"),
    (["run", "--protocol", "blind-client", "--n", "4", "--t", "2",
      "--x-file", "one", "--y-file", "two"], "--y-file"),
    (["run", "--protocol", "multiparty", "--m", "3", "--n", "4", "--t", "2",
      "--x-file", "one", "--y-file", "two"], "--y-file"),
    (["attack", "--strategy", "plus-probe", "--n", "4", "--t", "2", "--y-file", "two"],
     "--y-file"),
    (["attack", "--strategy", "blind-server-worst", "--n", "4", "--t", "2", "--y-file", "two"],
     "--y-file"),
    (["attack", "--strategy", "plus-probe", "--n", "4", "--t", "2", "--y-file", "one",
      "--random-inputs"], "--y-file"),
    *[(["run", "--n", "4", "--t", "2", "--x-file", name, "--y-file", "one"], "--x-file")
      for name in ("five", "bad", "empty", "binary", "missing")],
    (["run", "--n", "4", "--t", "2", "--x-file", "one", "--y-file", "five"], "--y-file"),
    (["attack", "--strategy", "plus-probe", "--n", "4", "--t", "2", "--y-file", "missing"],
     "--y-file"),
]


@pytest.mark.parametrize("argv,flag", FILE_COUNT_CASES)
def test_input_files_hold_exactly_the_vectors_read(tmp_path, argv, flag):
    files = {"one": b"1010\n", "two": b"1010\n0110\n", "five": b"10101\n", "bad": b"10a0\n",
             "empty": b"", "binary": b"\xff\xfe\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / a) if a in files or a == "missing" else a for a in argv]
    err = assert_rejected(argv)
    assert flag in err
    if "--random-inputs" not in argv:  # the file was read: the error names flag and path
        assert f"error: {flag} {argv[argv.index(flag) + 1]}" in err, err
