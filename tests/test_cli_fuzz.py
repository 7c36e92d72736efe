"""A bounded fuzz of the command line, in process: every subcommand, with
edge values in its options, ends in a defined exit code and at most one
line on stderr, without a traceback or a warning."""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from stablesums.cli import _OPTIONS, main

# Edge values of a real option, and a few plain ones so that campaigns also
# get past their checks.
REALS = ["0", "-0.0", "5e-324", "1e-300", "nan", "inf", "-inf", "1.7e308", "-1.7e308",
         "", "a", "0.5", "1", "1.5", "2"]
SEEDS = ["0", str(2**64 - 1), str(2**64), "-1"]
# Sizes that allocate at most a few MB, or that numpy or the library refuse
# at once: 2**62 doubles exceed numpy's largest array.  A size such as 2**32,
# which numpy would try to allocate, is never passed.
HUGE = [str(2**62), str(2**64)]
REFUSED_SIZES = ["0", "-1", *HUGE, "", "1.5"]
SIZES = {"n": [str(v) for v in (1, 2, 5, 50)] + REFUSED_SIZES,
         "reps": [str(v) for v in (1, 2, 5)] + REFUSED_SIZES,
         "grid": [str(v) for v in (1, 2, 4, 8)] + REFUSED_SIZES,
         "ns": ["2,10", "5,50", "10,2", "2,2", "50"] + REFUSED_SIZES + [f"2,{2**62}"]}
TIMES = ["0.25,0.5,0.75,1.0", "0.5", "1", "0.5,0.5", "0", "-0.0", "5e-324", "nan", "inf",
         "", "a"]
# A tiny run of each campaign that gets past every check; each case
# overrides a few of its options, or drops them.  Sizes are set on every
# run, as their defaults are acceptance scale.
BASE = {"alpha": "1.5", "beta": "0.5", "seed": "0", "family": "exponential",
        "n": "20", "reps": "5", "grid": "8", "ns": "2,10"}
REPORTS = [None, "", "{", "[]", "{}", '{"test_name": "sample"}',
           '{"test_name": "sample", "artifacts": ["samples.csv", "limit_laws.json"]}',
           '{"test_name": "verify-fclt", "artifacts": ["statistics.csv", "limit_laws.json"]}']
ARTIFACTS = {
    "samples.csv": ["", "value\n", "value\n1.0\n", "value\nnan\n", "value\ninf\n",
                    "value\na\n", "x\n1.0\n", "value\n1.0,2.0\n"],
    "statistics.csv": ["", "rep,t,value\n", "rep,t,value\n0,1.0,0.5\n", "rep,t,value\n0,1.0\n",
                       "rep,t,value\n0,nan,0.5\n"],
    "limit_laws.json": ["", "[", "{}", '{"sampled": {"alpha": 1e-300, "beta": 0}}',
                        '{"sampled": {"alpha": 2, "beta": 0}}', '{"1.0": {"alpha": 2}}',
                        '{"1.0": {"alpha": 1.5, "beta": 0.0}}'],
}


def _values(key: str, kind):
    if key == "seed":
        return SEEDS
    if key in SIZES:
        return SIZES[key]
    if key == "times":
        return TIMES
    if isinstance(kind, tuple):
        return list(kind) + ["a", ""]
    return REALS


@st.composite
def _campaign_argv(draw):
    campaign = draw(st.sampled_from(sorted(_OPTIONS)))
    options = {key: kind for key, (kind, _, _) in _OPTIONS[campaign][1].items()
               if key not in ("out_dir", "config")}
    given = {key: BASE[key] for key in options if key in BASE}
    for key in draw(st.lists(st.sampled_from(sorted(options)), max_size=3, unique=True)):
        dropped = [] if key in SIZES else [None]
        given[key] = draw(st.sampled_from(dropped + _values(key, options[key])))
    return [campaign] + [f"--{key.replace('_', '-')}={value}"
                         for key, value in given.items() if value is not None], {}


@st.composite
def _plotdata_argv(draw):
    report = draw(st.sampled_from(REPORTS))
    files = {} if report is None else {"report.json": report}
    for name, texts in ARTIFACTS.items():
        text = draw(st.sampled_from([None] + texts))
        if text is not None:
            files[name] = text
    return ["plotdata", "--report=report.json"], files


def _main(argv: list, files: dict, directory: str):
    """Exit code and stderr of ``main(argv)`` with ``files`` written into
    ``directory`` first and every path in ``argv`` taken in it."""
    for name, text in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
    argv = [arg.replace("report.json", os.path.join(directory, "report.json"))
            for arg in argv]
    if argv[0] != "plotdata":
        argv.append(f"--out-dir={os.path.join(directory, 'out')}")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.one_of(_campaign_argv(), _plotdata_argv()))
def test_command_line_ends_in_a_defined_exit_code(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as directory:
        code, err, caught = _main(argv, files, directory)
    assert code in (0, 1, 2, 3), (argv, code)
    assert caught == [], (argv, caught)
    if code in (2, 3):
        assert err.startswith(f"error: {argv[0]}: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
