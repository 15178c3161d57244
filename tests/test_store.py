import re

import pytest

from minvan.enumeration import SorouCache, sorou_of_minvan_type
from minvan.store import (
    TypeDatabase,
    csv_report_text,
    latex_report_text,
    load_cache,
    load_db,
    save_cache,
    save_db,
    write_csv_report,
    write_latex_report,
)
from minvan.types import parse_type, render_type

from table1_fixture import T, R3, R5_R3


def test_db_round_trip(db16, tmp_path):
    path = str(tmp_path / "types.db")
    save_db(db16, path)
    loaded = load_db(path)
    assert loaded.max_complete_weight == db16.max_complete_weight
    assert loaded.collapse == db16.collapse
    assert loaded.records == db16.records


def test_db_weight12_record_count(db16, tmp_path):
    assert sum(1 for r in db16.records if r.weight <= 12) == 21


def test_db_bad_header(tmp_path):
    path = tmp_path / "bad.db"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="header"):
        load_db(str(path))


def test_db_truncated_line_reports_lineno(db16, tmp_path):
    path = tmp_path / "trunc.db"
    save_db(db16, str(path))
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit("\t", 2)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="trunc.db:4"):
        load_db(str(path))


def test_db_invariant_violation(db16, tmp_path):
    path = tmp_path / "tampered.db"
    save_db(db16, str(path))
    text = path.read_text().replace("maxweight=16", "maxweight=3", 1)
    path.write_text(text)
    with pytest.raises(ValueError, match="beyond max complete weight"):
        load_db(str(path))


def test_db_rejects_a_partition_that_contradicts_the_type(db16, tmp_path):
    path = tmp_path / "tampered.db"
    save_db(db16, str(path))
    lines = path.read_text().splitlines()
    assert lines[2].startswith("3\t(R3;1:0)\t") and "\t(1;1;1)\t" in lines[2]
    lines[2] = lines[2].replace("\t(1;1;1)\t", "\t(2;1)\t")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"tampered.db:3: partition \(2;1\) != type partition \(1;1;1\)"):
        load_db(str(path))


@pytest.mark.parametrize(
    "padded", ["maxweight=016", "maxweight=\u0661\u0666"], ids=["zero-padded", "arabic-indic-digits"]
)
def test_db_rejects_a_header_that_save_db_would_not_write(db16, tmp_path, padded):
    # Both parse to max weight 16, which save_db writes as maxweight=16.
    path = tmp_path / "tampered.db"
    save_db(db16, str(path))
    path.write_text(path.read_text().replace("maxweight=16", padded, 1))
    with pytest.raises(ValueError, match=r"tampered.db:1: header is not as save_db writes it"):
        load_db(str(path))


@pytest.mark.parametrize("index", [1, 5, None], ids=["after-header", "between-rows", "at-end"])
def test_db_rejects_a_blank_line(db16, tmp_path, index):
    path = tmp_path / "blank.db"
    save_db(db16, str(path))
    lines = path.read_text().splitlines()
    lines.insert(len(lines) if index is None else index, "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"blank.db:{len(lines) if index is None else index + 1}: blank line"):
        load_db(str(path))


ROW_7 = "7\t(R5;1:0;(R3;1:0);(R3;1:0))\t30\t(2;2;1;1;1)\t(4;3)\t1\tFalse"


@pytest.mark.parametrize(
    "tampered",
    [
        ROW_7.replace("(4;3)", "junk(4;3)junk"),
        ROW_7.replace("\t30\t", "\t3_0\t"),
        ROW_7.replace("\t30\t", "\t30;30\t"),
        ROW_7.replace("\t1\t", "\t 1 \t"),
        ROW_7.replace("(2;2;1;1;1)", "((2;2;1;1;1))"),
    ],
    ids=["junk-parities", "relative-order-3_0", "relative-order-30;30", "padded-height", "double-parens"],
)
def test_db_rejects_a_row_that_save_db_would_not_write(db16, tmp_path, tampered):
    # Each tampered row parses to the record of ROW_7; save_db would write
    # that record back as ROW_7, so the row is refused at load.
    path = tmp_path / "tampered.db"
    save_db(db16, str(path))
    lines = path.read_text().splitlines()
    lineno = lines.index(ROW_7) + 1
    lines[lineno - 1] = tampered
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"tampered.db:{lineno}: .*expected {re.escape(repr(ROW_7))}"):
        load_db(str(path))


@pytest.mark.parametrize(
    "edit, lineno, what",
    [
        (lambda ls: [ls[0], ls[2], ls[1], *ls[3:]], 3, "out-of-order"),
        (lambda ls: [*ls[:-2], ls[-1], ls[-2]], 77, "out-of-order"),
        (lambda ls: [*ls, ls[-1]], 78, "duplicate"),
    ],
    ids=["swap-first-two-rows", "swap-last-two-rows", "repeat-last-row"],
)
def test_db_rejects_rows_out_of_order_or_repeated(db16, tmp_path, edit, lineno, what):
    # save_db writes each type once, in sum_key order; a repeated row would
    # count its type twice in the typegen pools and the reports.
    path = tmp_path / "tampered.db"
    save_db(db16, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 77 and lines[-2].startswith("16\t") and lines[-1].startswith("16\t")
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValueError, match=rf"tampered.db:{lineno}: {what} row"):
        load_db(str(path))


def test_commit_weight_keeps_sum_key_order(db16):
    db = TypeDatabase(max_complete_weight=12, records=[r for r in db16.records if r.weight <= 12])
    db.commit_weight(13, db16.records_for_weight(13)[::-1])
    assert db.records == [r for r in db16.records if r.weight <= 13]


def test_commit_weight_rejects_a_record_of_another_weight(db16):
    db = TypeDatabase(max_complete_weight=12)
    with pytest.raises(ValueError, match="records committed at weight 13 must have that weight"):
        db.commit_weight(13, db16.records_for_weight(14))
    assert db.records == [] and db.max_complete_weight == 12


def test_cache_round_trip(tmp_path, shared_cache):
    classes = sorou_of_minvan_type(R5_R3, shared_cache)
    data = {render_type(T(R5_R3)): classes}
    path = str(tmp_path / "sorou.cache")
    save_cache(data, path)
    assert load_cache(path) == data

    save_cache({}, path)
    assert load_cache(path) == {}


def test_cache_round_trip_of_the_database(tmp_path, db16, shared_cache):
    # Every class list of db16, written as the text rendered term by term
    # and read back; the loaded classes share one object per distinct root.
    data = {
        render_type(r.type): sorou_of_minvan_type(r.type.components[0], shared_cache)
        for r in db16.records
    }
    path = tmp_path / "db16.cache"
    save_cache(data, str(path))
    assert path.read_text() == "".join(
        k + "\t" + ",".join("+".join(f"{o}:{p}" for o, p in s) for s in data[k]) + "\n"
        for k in sorted(data)
    )
    loaded = load_cache(str(path))
    assert loaded == data
    terms = [t for classes in loaded.values() for s in classes for t in s]
    assert len({id(t) for t in terms}) == len(set(terms))


def test_cache_hit_equals_recomputation(tmp_path, shared_cache):
    key = render_type(T(R5_R3))
    classes = sorou_of_minvan_type(R5_R3, shared_cache)
    path = str(tmp_path / "sorou.cache")
    save_cache({key: classes}, path)
    warmed = SorouCache(load_cache(path))
    assert sorou_of_minvan_type(R5_R3, warmed) == classes


def test_cache_bad_entry(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text("(R5;1:0;(R3;1:0))\tnot a sorou\n")
    with pytest.raises(ValueError):
        load_cache(str(path))


def _corrupt_cache(tmp_path, shared_cache, edit):
    """A two-key cache of R3 and R5:R3 whose lines `edit` rewrites."""
    data = {render_type(T(m)): sorou_of_minvan_type(m, shared_cache) for m in (R3, R5_R3)}
    path = tmp_path / "corrupt.cache"
    save_cache(data, str(path))
    lines = path.read_text().splitlines()
    assert [line.split("\t")[0] for line in lines] == ["(R3;1:0)", "(R5;1:0;(R3;1:0))"]
    path.write_text("\n".join(edit(lines)) + "\n")
    return str(path)


def test_cache_rejects_a_sum_type_key(tmp_path, shared_cache):
    sum_key = "(R3;1:0)&(R3;1:0)"
    path = _corrupt_cache(tmp_path, shared_cache, lambda ls: [ls[0], sum_key + ls[1][ls[1].index("\t") :]])
    with pytest.raises(ValueError, match="corrupt.cache:2: cache keys must be single minimal types"):
        load_cache(path)


def test_cache_rejects_a_duplicate_key(tmp_path, shared_cache):
    path = _corrupt_cache(tmp_path, shared_cache, lambda ls: [ls[0], ls[0], ls[1]])
    with pytest.raises(ValueError, match="corrupt.cache:2: duplicate cache key"):
        load_cache(path)


def test_cache_rejects_keys_out_of_order(tmp_path, shared_cache):
    path = _corrupt_cache(tmp_path, shared_cache, lambda ls: [ls[1], ls[0]])
    with pytest.raises(ValueError, match="corrupt.cache:2: out-of-order cache key"):
        load_cache(path)


@pytest.mark.parametrize("index", [0, 1, 2], ids=["first", "between-keys", "at-end"])
def test_cache_rejects_a_blank_line(tmp_path, shared_cache, index):
    path = _corrupt_cache(tmp_path, shared_cache, lambda ls: ls[:index] + [""] + ls[index:])
    with pytest.raises(ValueError, match=rf"corrupt.cache:{index + 1}: blank line"):
        load_cache(path)


def test_cache_rejects_a_class_of_the_wrong_weight(tmp_path, shared_cache):
    path = _corrupt_cache(tmp_path, shared_cache, lambda ls: [ls[0], ls[1] + ",1:0+2:1"])
    with pytest.raises(ValueError, match="corrupt.cache:2: class weight differs from type weight 6"):
        load_cache(path)


def test_csv_rows(db16):
    rows = csv_report_text(db16).splitlines()
    assert rows[0] == (
        "Weight,\tTop Prime,\tRelative Order,\tWeight Partition,"
        "\tType,\tHeight,\tParities,\tHasEquisigned"
    )
    assert len(rows) == 1 + len(db16.records)
    assert "6,\t5,\t30,\t(2;1;1;1;1),\t(R_5:R_3),\t1,\t(4;2),\tFalse" in rows
    assert "2,\t2,\t2,\t(1;1),\tR_2,\t1,\t(1;1),\tTrue" in rows
    equisigned_11 = [r for r in rows if "(R_{11}:2R_3,R_5)" in r]
    assert len(equisigned_11) == 1 and equisigned_11[0].endswith("True")
    assert "(8;8)" in equisigned_11[0]


def test_latex_report(db16, tmp_path):
    text = latex_report_text(db16)
    assert text.startswith("\\begin{longtable}")
    assert "(R_5:R_3)" in text
    assert text.rstrip().endswith("\\end{longtable}")
    path = str(tmp_path / "table.tex")
    write_latex_report(db16, path)
    with open(path) as fh:
        assert fh.read() == text


def test_reports_require_statistics(tmp_path):
    with pytest.raises(ValueError):
        write_csv_report(TypeDatabase(), str(tmp_path / "x.csv"))


def test_every_rendered_type_reparses(db16):
    for record in db16.records:
        assert parse_type(render_type(record.type)) == record.type


def test_cache_rejects_a_subtype_at_the_top_prime(tmp_path, shared_cache):
    bad_key = "(R3;1:0;(R3;1:0))"
    path = _corrupt_cache(tmp_path, shared_cache, lambda ls: [ls[0], bad_key + "\t"])
    with pytest.raises(ValueError, match="corrupt.cache:2: subtype top prime must be below p"):
        load_cache(path)


def test_cache_rejects_a_key_that_is_not_its_types_rendering(tmp_path, shared_cache):
    # Lookups render the type, so an entry under another spelling of the
    # same type would never be read.
    swapped = "(R7;1:0;(R3;1:0);(R5;1:0))"
    assert render_type(parse_type(swapped)) == "(R7;1:0;(R5;1:0);(R3;1:0))"
    path = _corrupt_cache(tmp_path, shared_cache, lambda ls: [*ls, swapped + "\t"])
    message = f"corrupt.cache:3: cache key {swapped!r} is not rendered '(R7;1:0;(R5;1:0);(R3;1:0))'"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_cache(path)
