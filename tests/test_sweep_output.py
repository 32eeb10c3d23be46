"""Byte-exact sweep output in both formats, and the column-table writer's
round trip: every emitted cell reads back as the double it was made from."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sphermoments import cli

BIM2 = '{"kind":"bimodal_vmf","n":2,"u":[0.6,-0.8],"k":1}'
VMF3 = '{"kind":"vmf","n":3,"u":[0.6,-0.8,0],"k":1}'
PEANUT2 = '{"kind":"peanut","n":2,"A":[[1,0],[0,1]]}'
PEANUT3 = '{"kind":"peanut","n":3,"A":[[1,0,0],[0,1,0],[0,0,1]]}'
BIM5 = '{"kind":"bimodal_vmf","n":5,"u":[0,0,0.6,-0.8,0],"k":1}'
BIM3 = '{"kind":"bimodal_vmf","n":3,"u":[0,0,1],"k":1}'
BIM14 = '{"kind":"bimodal_vmf","n":14,"u":[0,0,0,0,0,0,0,0,0,0,0,0.6,-0.8,0],"k":1}'
VMF2 = '{"kind":"vmf","n":2,"u":[0.6,-0.8],"k":1}'
K_GRID = "0,0.5,2,30,1e5"
T_GRID = "0.05,0.5,1,3,20"
ALL = "fa,ratio,eigenvalues,mean_norm"
MOTILITY = ("--s", "0.9", "--mu", "1.7")
JSON = ("--format", "json")

SWEEP_CASES = {
    "bimodal2_json": ("--dist-json", BIM2, "--parameter", "k", "--grid", K_GRID,
                      "--outputs", ALL, *JSON, *MOTILITY),
    "vmf3_json": ("--dist-json", VMF3, "--parameter", "k", "--grid", K_GRID,
                  "--outputs", ALL, *JSON, *MOTILITY),
    "peanut2_csv": ("--dist-json", PEANUT2, "--parameter", "eigen_ratio", "--grid", T_GRID,
                    "--outputs", ALL, *MOTILITY),
    "peanut2_json": ("--dist-json", PEANUT2, "--parameter", "eigen_ratio", "--grid", T_GRID,
                     "--outputs", ALL, *JSON, *MOTILITY),
    "peanut3_csv": ("--dist-json", PEANUT3, "--parameter", "eigen_ratio", "--grid", T_GRID,
                    "--outputs", ALL, *MOTILITY),
    "peanut3_json": ("--dist-json", PEANUT3, "--parameter", "eigen_ratio", "--grid", T_GRID,
                     "--outputs", ALL, *JSON, *MOTILITY),
    # no FA outside n in {2, 3}: the literal None in CSV, null in JSON
    "bimodal5_csv": ("--dist-json", BIM5, "--parameter", "k", "--grid", "0,1,30", *MOTILITY),
    "bimodal5_json": ("--dist-json", BIM5, "--parameter", "k", "--grid", "0,1,30",
                      *JSON, *MOTILITY),
    "no_outputs_csv": ("--dist-json", BIM3, "--parameter", "k", "--grid", "0,1",
                       "--outputs", "", *MOTILITY),
    "no_outputs_json": ("--dist-json", BIM3, "--parameter", "k", "--grid", "0,1",
                        "--outputs", "", *JSON, *MOTILITY),
    # a repeated output is one column, at its first position
    "repeated_csv": ("--dist-json", BIM3, "--parameter", "k", "--grid", "0,1",
                     "--outputs", "fa,ratio,fa", *MOTILITY),
    "repeated_json": ("--dist-json", BIM3, "--parameter", "k", "--grid", "0,1",
                      "--outputs", "fa,ratio,fa", *JSON, *MOTILITY),
    # alpha underflows at k = 1e300 and s^2/mu = 1e-300: the ratio is +inf
    "nonfinite_csv": ("--dist-json", BIM3, "--parameter", "k", "--grid", "1,1e300",
                      "--s", "1e-150", "--outputs", ALL),
    "nonfinite_json": ("--dist-json", BIM3, "--parameter", "k", "--grid", "1,1e300",
                       "--s", "1e-150", "--outputs", ALL, *JSON),
    # both Bessel-ratio orders in one array pass: k below SMALL_K takes the limits,
    # and at n = 14 k in (34.5, 42] puts order 7 asymptotic and order 8 on Lentz
    "bimodal14_json": ("--dist-json", BIM14, "--parameter", "k",
                       "--grid", "0,5e-324,1e-150,1,34.5,38,42,1e5,1e300", *JSON, *MOTILITY),
    "vmf2_csv": ("--dist-json", VMF2, "--parameter", "k", "--grid", "0,5e-324,1e-150,1,30,1e5",
                 "--outputs", ALL, *MOTILITY),
}

SWEEP_OUTPUT_GOLDEN = {
    "bimodal2_json": (
        '{"schema": "1", "rows": [{"parameter": "k", "value": 0, "fa": 0, "ratio": 1, '
        '"eigenvalue_1": 0.23823529411764707, "eigenvalue_2": 0.23823529411764707, '
        '"mean_norm": 0}, '
        '{"parameter": "k", "value": 0.5, "fa": 0.04240951648394873, '
        '"ratio": 1.0618589641391603, "eigenvalue_1": 0.24538272212888282, '
        '"eigenvalue_2": 0.23108786610641124, "mean_norm": 0}, '
        '{"parameter": "k", "value": 2, "fa": 0.40913422205746219, '
        '"ratio": 1.8662548534446231, "eigenvalue_1": 0.31023603736739791, '
        '"eigenvalue_2": 0.16623455086789596, "mean_norm": 0}, '
        '{"parameter": "k", "value": 30, "fa": 0.96556243680642695, '
        '"ratio": 29.512936021632711, "eigenvalue_1": 0.46085522470890328, '
        '"eigenvalue_2": 0.015615363526390619, "mean_norm": 0}, '
        '{"parameter": "k", "value": 100000, "fa": 0.99998999990000004, '
        '"ratio": 99999.500003750043, "eigenvalue_1": 0.47646582355323547, '
        '"eigenvalue_2": 4.7646820587639706e-06, "mean_norm": 0}]}\n'
    ),
    "vmf3_json": (
        '{"schema": "1", "rows": [{"parameter": "k", "value": 0, "fa": 0, "ratio": 1, '
        '"eigenvalue_1": 0.1588235294117647, "eigenvalue_2": 0.1588235294117647, '
        '"eigenvalue_3": 0.1588235294117647, "mean_norm": 0}, '
        '{"parameter": "k", "value": 0.5, "fa": 0.018866798859466155, '
        '"ratio": 1.0334100738669683, "eigenvalue_1": 0.15623795897448095, '
        '"eigenvalue_2": 0.15623795897448095, "eigenvalue_3": 0.15118679692161929, '
        '"mean_norm": 0.16395341373865283}, '
        '{"parameter": "k", "value": 2, "fa": 0.22657141013517487, '
        '"ratio": 1.5442015519172505, "eigenvalue_1": 0.12800733052626875, '
        '"eigenvalue_2": 0.12800733052626875, "eigenvalue_3": 0.082895481077154318, '
        '"mean_norm": 0.53731472072754782}, '
        '{"parameter": "k", "value": 30, "fa": 0.68252092918532226, '
        '"ratio": 29.000000000000306, "eigenvalue_1": 0.015352941176470592, '
        '"eigenvalue_2": 0.015352941176470592, "eigenvalue_3": 0.00052941176470587689, '
        '"mean_norm": 0.96666666666666679}, '
        '{"parameter": "k", "value": 100000, "fa": 0.70709971003034644, '
        '"ratio": 99999, "eigenvalue_1": 4.7646582352941183e-06, '
        '"eigenvalue_2": 4.7646582352941183e-06, "eigenvalue_3": 4.7647058823529418e-11, '
        '"mean_norm": 0.99999000000000005}]}\n'
    ),
    "peanut2_csv": (
        "parameter,value,fa,ratio,eigenvalue_1,eigenvalue_2,mean_norm\n"
        "eigen_ratio,0.050000000000000003,0.58289339152400155,2.6521739130434776,"
        "0.34600840336134453,0.13046218487394959,0\n"
        "eigen_ratio,0.5,0.23249527748763857,1.3999999999999999,0.27794117647058819,"
        "0.19852941176470587,0\n"
        "eigen_ratio,1,0,1,0.23823529411764707,0.23823529411764707,0\n"
        "eigen_ratio,3,0.34299717028501764,1.6666666666666667,0.29779411764705882,"
        "0.1786764705882353,0\n"
        "eigen_ratio,20,0.58289339152400155,2.652173913043478,0.34600840336134453,"
        "0.13046218487394959,0\n"
    ),
    "peanut2_json": (
        '{"schema": "1", "rows": [{"parameter": "eigen_ratio", '
        '"value": 0.050000000000000003, "fa": 0.58289339152400155, '
        '"ratio": 2.6521739130434776, "eigenvalue_1": 0.34600840336134453, '
        '"eigenvalue_2": 0.13046218487394959, "mean_norm": 0}, '
        '{"parameter": "eigen_ratio", "value": 0.5, "fa": 0.23249527748763857, '
        '"ratio": 1.3999999999999999, "eigenvalue_1": 0.27794117647058819, '
        '"eigenvalue_2": 0.19852941176470587, "mean_norm": 0}, '
        '{"parameter": "eigen_ratio", "value": 1, "fa": 0, "ratio": 1, '
        '"eigenvalue_1": 0.23823529411764707, "eigenvalue_2": 0.23823529411764707, '
        '"mean_norm": 0}, '
        '{"parameter": "eigen_ratio", "value": 3, "fa": 0.34299717028501764, '
        '"ratio": 1.6666666666666667, "eigenvalue_1": 0.29779411764705882, '
        '"eigenvalue_2": 0.1786764705882353, "mean_norm": 0}, '
        '{"parameter": "eigen_ratio", "value": 20, "fa": 0.58289339152400155, '
        '"ratio": 2.652173913043478, "eigenvalue_1": 0.34600840336134453, '
        '"eigenvalue_2": 0.13046218487394959, "mean_norm": 0}]}\n'
    ),
    "peanut3_csv": (
        "parameter,value,fa,ratio,eigenvalue_1,eigenvalue_2,eigenvalue_3,mean_norm\n"
        "eigen_ratio,0.050000000000000003,0.31056906275840768,1.8837209302325582,"
        "0.18826398852223819,0.18826398852223819,0.099942611190817807,0\n"
        "eigen_ratio,0.5,0.13768567816430285,1.2857142857142858,0.1715294117647059,"
        "0.1715294117647059,0.13341176470588237,0\n"
        "eigen_ratio,1,0,1,0.1588235294117647,0.1588235294117647,0.1588235294117647,0\n"
        "eigen_ratio,3,0.27029495135979437,1.5714285714285714,0.20964705882352946,"
        "0.13341176470588237,0.13341176470588237,0\n"
        "eigen_ratio,20,0.53761624322557811,2.5833333333333335,0.26855614973262038,"
        "0.1039572192513369,0.1039572192513369,0\n"
    ),
    "peanut3_json": (
        '{"schema": "1", "rows": [{"parameter": "eigen_ratio", '
        '"value": 0.050000000000000003, "fa": 0.31056906275840768, '
        '"ratio": 1.8837209302325582, "eigenvalue_1": 0.18826398852223819, '
        '"eigenvalue_2": 0.18826398852223819, "eigenvalue_3": 0.099942611190817807, '
        '"mean_norm": 0}, '
        '{"parameter": "eigen_ratio", "value": 0.5, "fa": 0.13768567816430285, '
        '"ratio": 1.2857142857142858, "eigenvalue_1": 0.1715294117647059, '
        '"eigenvalue_2": 0.1715294117647059, "eigenvalue_3": 0.13341176470588237, '
        '"mean_norm": 0}, '
        '{"parameter": "eigen_ratio", "value": 1, "fa": 0, "ratio": 1, '
        '"eigenvalue_1": 0.1588235294117647, "eigenvalue_2": 0.1588235294117647, '
        '"eigenvalue_3": 0.1588235294117647, "mean_norm": 0}, '
        '{"parameter": "eigen_ratio", "value": 3, "fa": 0.27029495135979437, '
        '"ratio": 1.5714285714285714, "eigenvalue_1": 0.20964705882352946, '
        '"eigenvalue_2": 0.13341176470588237, "eigenvalue_3": 0.13341176470588237, '
        '"mean_norm": 0}, '
        '{"parameter": "eigen_ratio", "value": 20, "fa": 0.53761624322557811, '
        '"ratio": 2.5833333333333335, "eigenvalue_1": 0.26855614973262038, '
        '"eigenvalue_2": 0.1039572192513369, "eigenvalue_3": 0.1039572192513369, '
        '"mean_norm": 0}]}\n'
    ),
    "bimodal5_csv": (
        "parameter,value,fa,ratio\n"
        "k,0,None,1\n"
        "k,1,None,1.1406468257332285\n"
        "k,30,None,28.103321033210342\n"
    ),
    "bimodal5_json": (
        '{"schema": "1", "rows": [{"parameter": "k", "value": 0, "fa": null, "ratio": 1}, '
        '{"parameter": "k", "value": 1, "fa": null, "ratio": 1.1406468257332285}, '
        '{"parameter": "k", "value": 30, "fa": null, "ratio": 28.103321033210342}]}\n'
    ),
    "no_outputs_csv": (
        "parameter,value\n"
        "k,0\n"
        "k,1\n"
    ),
    "no_outputs_json": (
        '{"schema": "1", "rows": [{"parameter": "k", "value": 0}, '
        '{"parameter": "k", "value": 1}]}\n'
    ),
    "repeated_csv": (
        "parameter,value,fa,ratio\n"
        "k,0,0,1\n"
        "k,1,0.10508281297232196,1.1945280494653252\n"
    ),
    "repeated_json": (
        '{"schema": "1", "rows": [{"parameter": "k", "value": 0, "fa": 0, "ratio": 1}, '
        '{"parameter": "k", "value": 1, "fa": 0.10508281297232196, '
        '"ratio": 1.1945280494653252}]}\n'
    ),
    "nonfinite_csv": (
        "parameter,value,fa,ratio,eigenvalue_1,eigenvalue_2,eigenvalue_3,mean_norm\n"
        "k,1,0.10508281297232194,1.1945280494653252,3.7392942900133743e-301,"
        "3.130352854993313e-301,3.130352854993313e-301,0\n"
        "k,1.0000000000000001e+300,1,inf,9.9999999999999969e-301,0,0,0\n"
    ),
    "nonfinite_json": (
        '{"schema": "1", "rows": [{"parameter": "k", "value": 1, "fa": 0.10508281297232194, '
        '"ratio": 1.1945280494653252, "eigenvalue_1": 3.7392942900133743e-301, '
        '"eigenvalue_2": 3.130352854993313e-301, "eigenvalue_3": 3.130352854993313e-301, '
        '"mean_norm": 0}, '
        '{"parameter": "k", "value": 1.0000000000000001e+300, "fa": 1, "ratio": "inf", '
        '"eigenvalue_1": 9.9999999999999969e-301, "eigenvalue_2": 0, "eigenvalue_3": 0, '
        '"mean_norm": 0}]}\n'
    ),
    "bimodal14_json": (
        '{"schema": "1", "rows": [{"parameter": "k", "value": 0, "fa": null, "ratio": 1}, '
        '{"parameter": "k", "value": 4.9406564584124654e-324, "fa": null, "ratio": 1}, '
        '{"parameter": "k", "value": 1e-150, "fa": null, "ratio": 1}, {"parameter": "k", '
        '"value": 1, "fa": null, "ratio": 1.0622843326759954}, {"parameter": "k", '
        '"value": 34.5, "fa": null, "ratio": 28.719962404078149}, {"parameter": "k", '
        '"value": 38, "fa": null, "ratio": 32.153101049125468}, {"parameter": "k", '
        '"value": 42, "fa": null, "ratio": 36.090333619949099}, {"parameter": "k", '
        '"value": 100000, "fa": null, "ratio": 99993.500243752424}, {"parameter": "k", '
        '"value": 1.0000000000000001e+300, "fa": null, "ratio": 9.999999999999999e+299}]}\n'
    ),
    "vmf2_csv": (
        "parameter,value,fa,ratio,eigenvalue_1,eigenvalue_2,mean_norm\n"
        "k,0,0,1,0.23823529411764707,0.23823529411764707,0\n"
        "k,4.9406564584124654e-324,0,1,0.23823529411764707,0.23823529411764707,0\n"
        "k,1e-150,0,1,0.23823529411764707,0.23823529411764707,0\n"
        "k,1,0.16149919839709689,1.2597572006371303,0.21269168963305465,0.16883546252046386,"
        "0.44638996589653446\n"
        "k,30,0.98260446791491229,57.973163120623148,0.015615363526390619,"
        "0.00026935503750071676,0.98318955536533525\n"
        "k,100000,0.99999499993749918,199997.99999249986,4.7646820587639706e-06,"
        "2.3823648531198569e-11,0.99999499998749997\n"
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_golden_output(capsys, case):
    code = cli.main(["sweep", *SWEEP_CASES[case]])
    assert code == 0
    assert capsys.readouterr().out == SWEEP_OUTPUT_GOLDEN[case]


# ---------------------------------------------------------------------------
# the column-table writer

EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e-300,
                math.inf, -math.inf, math.nan]


def _same_double(cell, want):
    """Whether a parsed cell is the double ``want`` bit for bit, or the
    spelling "inf", "-inf" or "nan" of a non-finite ``want``."""
    if not math.isfinite(want):
        return cell == format(want)
    return cell not in ("inf", "-inf", "nan") and (
        struct.pack("<d", float(cell)) == struct.pack("<d", want)
    )


def _check_round_trip(matrix):
    columns = {"parameter": "k"}
    columns.update((f"c{j}", matrix[:, j]) for j in range(matrix.shape[1]))
    columns["fa"] = None
    table = cli._Table(columns, matrix.shape[0])

    lines = cli._csv_text(table).split("\n")
    assert lines[0] == ",".join(columns)
    assert lines[-1] == "" and len(lines) == matrix.shape[0] + 2
    for line, want in zip(lines[1:], matrix.tolist()):
        cells = line.split(",")
        assert cells[0] == "k" and cells[-1] == "None"
        assert all(_same_double(c, w) for c, w in zip(cells[1:-1], want))

    text = cli.dumps({"rows": table})
    rows = json.loads(text, parse_int=float)["rows"]  # parse_int keeps "-0" as -0.0
    assert len(rows) == matrix.shape[0]
    dict_rows = []
    for row, want in zip(rows, matrix.tolist()):
        assert row["parameter"] == "k" and row["fa"] is None
        assert all(_same_double(row[f"c{j}"], w) for j, w in enumerate(want))
        cells = {f"c{j}": w for j, w in enumerate(want)}
        dict_rows.append({"parameter": "k", **cells, "fa": None})
    # the recursive emitter spells the same rows the same way
    assert text == cli.dumps({"rows": dict_rows})


def test_table_writer_round_trips_edge_doubles():
    _check_round_trip(np.array([EDGE_DOUBLES, EDGE_DOUBLES[::-1]]).T)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 4)),
              elements=st.floats(allow_subnormal=True) | st.sampled_from(EDGE_DOUBLES)))
def test_table_writer_cells_read_back_bit_for_bit(matrix):
    _check_round_trip(matrix)
