import sys

import pytest

from growthlab.cayley import enumerate_balls
from growthlab.config import (ConfigDocument, ConfigEntry, build_lattice,
                              build_marked_group, build_polytope,
                              empty_document, get_bool, get_choice, get_int,
                              load_config, parse_config_text,
                              refuse_over_budget, require, require_int)
from growthlab.errors import ConfigError


def doc_from(*pairs):
    return ConfigDocument(tuple(ConfigEntry(None, k, v) for k, v in pairs))


def test_basic_grammar():
    doc = parse_config_text(
        "# full-line comment\n"
        "\n"
        "family = free-abelian   # trailing comment\n"
        "rank = 2\n"
        "generator = 1 0\n"
        "generator = 1, 1\n"
    )
    assert doc.get("family").value == "free-abelian"
    assert doc.get("family").line == 3
    assert doc.get("rank").value == "2"
    assert [e.value for e in doc.get_all("generator")] == ["1 0", "1, 1"]
    assert [e.key for e in doc.entries] == [
        "family", "rank", "generator", "generator"]


def test_repeated_single_key_is_refused():
    doc = parse_config_text("kmax = 5\nrank = 2\nkmax = 9\n")
    with pytest.raises(ConfigError) as err:
        doc.get("kmax")
    assert (err.value.line, err.value.field) == (3, "kmax")
    assert doc.get("rank").value == "2"
    assert doc.get("missing") is None


def test_value_may_contain_equals():
    doc = parse_config_text("note = a = b\n")
    assert doc.get("note").value == "a = b"


def test_keys_are_lowercased():
    doc = parse_config_text("KMAX = 4\n")
    assert doc.get("kmax").value == "4"


def test_grammar_errors_carry_position():
    with pytest.raises(ConfigError) as err:
        parse_config_text("family free\n")
    assert err.value.line == 1

    with pytest.raises(ConfigError) as err:
        parse_config_text("\nrank =\n")
    assert err.value.line == 2
    assert err.value.field == "rank"

    with pytest.raises(ConfigError) as err:
        parse_config_text("bad_key = 1\n")
    assert err.value.line == 1

    with pytest.raises(ConfigError):
        parse_config_text("9lives = 1\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.cfg"))
    p = tmp_path / "ok.cfg"
    p.write_text("rank = 3\n")
    assert load_config(str(p)).get("rank").value == "3"


def test_load_config_refuses_non_utf8(tmp_path):
    p = tmp_path / "latin1.cfg"
    p.write_bytes(b"family = free\nrank = \xff2\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert err.value.line == 2
    assert "not UTF-8" in str(err.value)


def test_override_semantics():
    base = parse_config_text(
        "family = free\nrank = 2\ngenerator = 1\ngenerator = 2\n")
    # single values: None is ignored, others replace the file entry
    out = base.override(single={"rank": 5, "kmax": None})
    assert out.get("rank").value == "5"
    assert out.get("rank").line is None
    assert [e.key for e in out.entries] == [
        "family", "generator", "generator", "rank"]
    assert all(e.key != "kmax" for e in out.entries)
    # multi values replace the whole block only when nonempty
    out = base.override(multi={"generator": ["1 2"]})
    assert [e.value for e in out.get_all("generator")] == ["1 2"]
    out = base.override(multi={"generator": []})
    assert len(out.get_all("generator")) == 2


def test_typed_accessors():
    doc = doc_from(("kmax", "7"), ("flag", "yes"), ("mode", "Fast"))
    assert get_int(doc, "kmax") == 7
    assert get_int(doc, "absent", default=3) == 3
    assert get_int(doc, "absent") is None
    assert get_bool(doc, "flag", default=False) is True
    assert get_bool(doc, "absent", default=True) is True
    assert get_choice(doc, "mode", {"fast", "slow"}) == "fast"
    assert get_choice(doc, "absent", {"a"}, default="a") == "a"
    assert require(doc, "kmax").value == "7"
    assert require_int(doc, "kmax", minimum=1) == 7


def test_typed_accessor_errors():
    doc = ConfigDocument((ConfigEntry(4, "kmax", "soon"),
                          ConfigEntry(5, "flag", "maybe"),
                          ConfigEntry(6, "mode", "warp")))
    with pytest.raises(ConfigError) as err:
        get_int(doc, "kmax")
    assert err.value.line == 4 and err.value.field == "kmax"
    with pytest.raises(ConfigError):
        get_bool(doc, "flag", default=False)
    with pytest.raises(ConfigError) as err:
        get_choice(doc, "mode", {"fast", "slow"})
    assert "fast" in str(err.value)
    with pytest.raises(ConfigError) as err:
        require(doc, "family")
    assert err.value.field == "family"
    with pytest.raises(ConfigError):
        get_int(doc_from(("n", "0")), "n", minimum=1)


def test_refuse_unread_names_the_first_unread_entry():
    doc = ConfigDocument((ConfigEntry(2, "kmax", "3"),
                          ConfigEntry(3, "tmax", "99")))
    assert get_int(doc, "kmax") == 3
    with pytest.raises(ConfigError) as err:
        doc.refuse_unread("gauss")
    assert err.value.line == 3 and err.value.field == "tmax"
    assert "this gauss job does not read this key" in str(err.value)
    get_int(doc, "tmax")
    doc.refuse_unread("gauss")
    # the read record is the document's own state: not a constructor
    # argument, and not shared with a copy
    with pytest.raises(TypeError):
        ConfigDocument((), read={"tmax"})
    with pytest.raises(ConfigError):
        ConfigDocument(doc.entries).refuse_unread("gauss")


def test_build_group_stock_families():
    m = build_marked_group(doc_from(("family", "heisenberg")))
    assert len(m.effective_generating_set()) == 4

    m = build_marked_group(doc_from(("family", "symmetric"), ("degree", "3")))
    assert enumerate_balls(m, 4).ball_sizes[-1] == 6

    m = build_marked_group(doc_from(("family", "free-abelian"), ("rank", "2")))
    assert enumerate_balls(m, 2).ball_sizes == (1, 5, 13)

    m = build_marked_group(doc_from(("family", "free"), ("rank", "2")))
    assert enumerate_balls(m, 2).sphere_sizes == (1, 4, 12)

    # symmetrize applies to stock markings too
    m = build_marked_group(doc_from(("family", "heisenberg"),
                                    ("symmetrize", "false")))
    assert len(m.effective_generating_set()) == 2
    m = build_marked_group(doc_from(("family", "symmetric"), ("degree", "3"),
                                    ("symmetrize", "no")))
    assert not m.symmetrize


def test_build_group_custom_generators():
    doc = doc_from(("family", "free-abelian"), ("rank", "2"),
                   ("generator", "2 0"), ("generator", "0, 3"))
    m = build_marked_group(doc)
    assert enumerate_balls(m, 1).ball_sizes[1] == 5

    doc = doc_from(("family", "free-abelian"), ("rank", "1"),
                   ("generator", "1"), ("symmetrize", "false"))
    m = build_marked_group(doc)
    assert enumerate_balls(m, 3).ball_sizes == (1, 2, 3, 4)


def test_build_group_matrix_and_permutation():
    doc = doc_from(("family", "matrix"), ("dim", "2"),
                   ("generator", "1 1 ; 0 1"))
    m = build_marked_group(doc)
    assert enumerate_balls(m, 3).ball_sizes == (1, 3, 5, 7)

    doc = doc_from(("family", "permutation"), ("degree", "3"),
                   ("generator", "2 1 3"), ("generator", "1 3 2"))
    m = build_marked_group(doc)
    assert enumerate_balls(m, 4).ball_sizes[-1] == 6


def test_build_group_errors():
    with pytest.raises(ConfigError) as err:
        build_marked_group(empty_document())
    assert err.value.field == "family"
    with pytest.raises(ConfigError):
        build_marked_group(doc_from(("family", "dihedral")))
    with pytest.raises(ConfigError) as err:
        build_marked_group(doc_from(("family", "free-abelian")))
    assert err.value.field == "rank"
    with pytest.raises(ConfigError) as err:
        build_marked_group(doc_from(("family", "free-abelian"), ("rank", "2"),
                                    ("generator", "1 2 3")))
    assert err.value.field == "generator"
    with pytest.raises(ConfigError):
        build_marked_group(doc_from(("family", "free"), ("rank", "2"),
                                    ("generator", "3")))
    with pytest.raises(ConfigError):
        build_marked_group(doc_from(("family", "matrix"), ("dim", "2")))
    with pytest.raises(ConfigError):
        build_marked_group(doc_from(("family", "matrix"), ("dim", "2"),
                                    ("generator", "1 1 ; 0 1 ; 0 0")))
    with pytest.raises(ConfigError):
        build_marked_group(doc_from(("family", "matrix"), ("dim", "2"),
                                    ("generator", "1 1 ;; 0 1")))
    with pytest.raises(ConfigError):
        build_marked_group(doc_from(("family", "permutation"), ("degree", "3"),
                                    ("generator", "2 2 3")))
    with pytest.raises(ConfigError):
        build_marked_group(doc_from(("family", "symmetric"), ("degree", "1")))


def test_build_polytope():
    P = build_polytope(doc_from(("ambient-dim", "2"), ("vertex", "0 0"),
                                ("vertex", "1 0"), ("vertex", "0 1")))
    assert P.affine_dim() == 2
    P = build_polytope(doc_from(("ambient-dim", "1"), ("vertex", "0"),
                                ("vertex", "4"), ("basis", "2")))
    assert P.vertex_coords == ((0,), (2,))


def test_build_polytope_errors():
    with pytest.raises(ConfigError) as err:
        build_polytope(doc_from(("ambient-dim", "2")))
    assert err.value.field == "vertex"
    with pytest.raises(ConfigError):
        build_polytope(doc_from(("ambient-dim", "2"), ("vertex", "1")))
    with pytest.raises(ConfigError):
        build_polytope(doc_from(("ambient-dim", "2"), ("vertex", "1 0"),
                                ("basis", "1 0 0")))
    # the polytope refuses a vertex off the lattice at its line, and
    # dependent basis rows at the first basis line
    for text, line, field in (
            ("ambient-dim = 1\nvertex = 0\nvertex = 2\nvertex = 0\n"
             "vertex = 3\nbasis = 2\n", 5, "vertex"),
            ("ambient-dim = 2\nvertex = 0 0\nvertex = 1 1\n"
             "basis = 1 0\n", 3, "vertex"),
            ("ambient-dim = 2\nbasis = 1 0\nvertex = 1 0\n"
             "basis = 2 0\n", 2, "basis")):
        with pytest.raises(ConfigError) as err:
            build_polytope(parse_config_text(text))
        assert (err.value.line, err.value.field) == (line, field)


def test_build_lattice():
    L = build_lattice(doc_from(("gram", "2 1"), ("gram", "1 2")))
    assert L.gram == ((2, 1), (1, 2))
    L = build_lattice(doc_from(("rank", "3")))
    assert L.rank == 3
    assert L.gram[0] == (1, 0, 0)
    with pytest.raises(ConfigError) as err:
        build_lattice(doc_from(("gram", "2 1 0"), ("gram", "1 2 0")))
    assert err.value.field == "gram"
    # a form that is not positive definite or not symmetric names the field
    for rows in (("1 2", "2 1"), ("1 2", "0 1")):
        with pytest.raises(ConfigError) as err:
            build_lattice(parse_config_text(
                "".join(f"gram = {r}\n" for r in rows)))
        assert (err.value.line, err.value.field) == (1, "gram")
    with pytest.raises(ConfigError):
        build_lattice(empty_document())


def test_a_cost_past_the_printed_digits_is_written_by_its_power():
    # Python writes an int in at most 4300 digits by default, so a larger
    # cost is written 10^d+, d its digits less one, and every cost within
    # the limit keeps its full decimal
    doc = doc_from(("budget", "5"))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for cost, shown in ((10 ** 4300 - 1, "9" * 4300),
                            (10 ** 4300, "10^4300+"),
                            (10 ** 5000 - 1, "10^4999+"),
                            (3 * 10 ** 5000, "10^5000+")):
            with pytest.raises(ConfigError) as exc:
                refuse_over_budget(doc, "budget", cost, "the {} of {} exceed",
                                   cost, 7)
            assert str(exc.value) == (f"field 'budget': the {shown} of 7 "
                                      "exceed the budget of 5")
    finally:
        sys.set_int_max_str_digits(limit)
