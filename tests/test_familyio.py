import pytest

from kwise import Family, Universe, read_family, write_family


def test_round_trip_canonical():
    u = Universe(5)
    f = Family(u, [0, 3, 17, 30])
    text = write_family(f)
    assert text.splitlines()[0] == "n=5"
    assert read_family(text) == f
    # canonical form: ascending mask order, one line per member
    assert write_family(read_family(text)) == text


def test_empty_set_line():
    f = read_family("n=3\n{}\n1,3\n")
    assert f.members == (0, 0b101)
    assert write_family(f) == "n=3\n{}\n1,3\n"


def test_hex_lines_accepted():
    f = read_family("n=4\n0x0\n0xA\n0xf\n")
    assert f.members == (0, 0b1010, 0b1111)


def test_comments_and_blanks_skipped():
    text = "# preamble\n\nn=3\n# {\"schema\": 1}\n1\n\n2,3\n"
    assert read_family(text).members == (1, 0b110)


def test_header_comment_written_and_reread():
    f = Family(Universe(3), [1, 6])
    text = write_family(f, header={"schema": 1, "k": 3})
    assert text.splitlines()[1].startswith("# {")
    assert read_family(text) == f


def test_duplicates_collapse():
    assert read_family("n=2\n1\n0x1\n").members == (1,)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1,2\n",  # missing header
        "n=zero\n",
        "n=0\n",
        "n=3\n2,1\n",  # not ascending
        "n=3\n1,1\n",  # repeated element
        "n=3\n4\n",  # element out of range
        "n=3\n0x9\n",  # hex mask out of range
        "n=3\n1,a\n",
        "n=3\n0xzz\n",
        # int() alone would read these as n = 10, element 10 and mask 3
        "n=1_0\n",
        "n=10\n1,1_0\n",
        "n=4\n0x_3\n",
        # nor are signs, inner whitespace or non-ASCII digits in the format
        "n=+3\n+1,+2\n",
        "n=3\n+1,+2\n",
        "n= 3\n1, 2\n",
        "n=3\n1, 2\n",
        "n=3\n1 ,2\n",
        "n=3\n\u0661,2\n",
        "n=\u0663\n1\n",
        "n=3\n0x\u0661\n",
        "n=3\n0x 3\n",
        "n=3\n0x+3\n",
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(ValueError):
        read_family(text)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("n=3\n0\n", "element 0 outside universe 1..3"),
        ("n=3\n-2,1\n", "element -2 outside universe 1..3"),
        ("n=3\n1,4\n", "element 4 outside universe 1..3"),
        ("n=3\n2,0\n", "element 0 outside universe 1..3"),
        ("n=3\n2,1\n", "elements must be strictly ascending"),
        ("n=+3\n1\n", "bad universe size line"),
        ("n=3\n1, 2\n", "bad set line"),
        ("n=3\n0x\u0661\n", "bad hex mask line"),
    ],
)
def test_malformed_element_messages(text, message):
    with pytest.raises(ValueError, match=message):
        read_family(text)
