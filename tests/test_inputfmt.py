from pathlib import Path

import pytest

from nccwk.harness.inputfmt import (
    InputError,
    l5_value,
    parse,
    parse_size_expr,
    render,
)

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


ODD_DOC = """
complex C0 {
  k = 1 1 1
  h = 2 2
  alpha = [2 0 0; 1 0 1]
  beta = [0 2 0; 0 1 1]
  unital = true
}

family C {
  n0 = 0
  k = 3^n 3^n 3^n
  h = 2*3^n 2*3^n
  alpha = [2 0 0; 1 0 1]
  beta = [0 2 0; 0 1 1]
  unital = true
}

map psi : C -> C {
  unital = true
  point 1 <- point 1, interior 1
  point 2 <- point 2, interior 1
  point 3 <- point 3, interior 2
  block 1 <- path 1, interior 1 * 2
  block 2 <- path 2, interior 1, interior 2
}

system k0sys { family = C; bonding = psi; degree = 0; constant_from = 0 }
query { kind = identify; system = k0sys }
"""


class TestParse:
    def test_document_parses(self):
        doc = parse(ODD_DOC)
        assert doc.complex_names() == ["C0"]
        assert [n for n, _ in doc.systems] == ["k0sys"]
        assert doc.queries[0].kind == "identify"

    def test_round_trip(self):
        doc = parse(ODD_DOC)
        assert parse(render(doc)) == doc

    def test_sample_documents_round_trip(self):
        for name in ("odd_tower.nccw", "torsion_tower.nccw"):
            text = (SAMPLES / name).read_text()
            doc = parse(text)
            assert parse(render(doc)) == doc

    def test_system_objects_work(self):
        doc = parse(ODD_DOC)
        sys0 = doc.system_object("k0sys")
        assert sys0.group(0).free_rank == 2

    def test_one_line_blocks(self):
        doc = parse("complex X { k = 1; h = 2; alpha = [2]; beta = [2]; unital = true }")
        assert doc.complex_names() == ["X"]

    def test_comments_ignored(self):
        doc = parse("# leading\ncomplex X { k = 1; h = 2; alpha = [2]; beta = [2] } # trailing")
        assert doc.complex_names() == ["X"]


class TestErrors:
    def err(self, text):
        with pytest.raises(InputError) as exc:
            parse(text)
        return exc.value

    def test_negative_multiplicity_positioned(self):
        """A negative entry or a wrong shape is reported at the matrix's own
        line, in a complex and in a family alike."""
        for text, line, message in [
            ("complex X {\n  k = 1\n  h = 2\n  alpha = [-1]\n  beta = [1]\n}",
             4, "multiplicities must be nonnegative"),
            ("complex X {\n  k = 1 1\n  h = 2\n  alpha = [2 0 0]\n  beta = [2 0]\n}",
             4, "alpha must be 1x2"),
            ("complex X {\n  k = 1 1\n  h = 2\n  alpha = [2 0]\n  beta = [2 0; 0 2]\n}",
             5, "beta must be 1x2"),
            ("family C {\n  n0 = 0\n  k = 3^n 3^n\n  h = 2*3^n\n  alpha = [2 0]\n"
             "  beta = [2; 0]\n}", 6, "beta must be 1x2"),
        ]:
            e = self.err(text)
            assert e.line == line and message in str(e), (text, e)

    def test_nonpositive_size_positioned(self):
        """A block size that is not positive, or not defined, at the first
        stage is reported at its own k or h line, not at the block header;
        size accounting across lines stays at the header."""
        for text, line, message in [
            ("complex X {\n  k = 0\n  h = 2\n  alpha = [2]\n  beta = [2]\n}",
             2, "block sizes must be positive"),
            ("complex X {\n  k = 1\n  h = 0\n  alpha = [2]\n  beta = [2]\n}",
             3, "block sizes must be positive"),
            ("family C {\n  n0 = 0\n  k = 3^n\n  h = 0*3^n\n  alpha = [2]\n  beta = [2]\n}",
             4, "family invalid at its first stage: block sizes must be positive"),
            ("family C {\n  n0 = 0\n  k = 3^(n-1)\n  h = 2\n  alpha = [2]\n  beta = [2]\n}",
             3, "family invalid at its first stage: negative exponent -1"),
            ("family C {\n  n0 = 0\n  k = l5(n)\n  h = 2*l5(n)\n  alpha = [2]\n"
             "  beta = [2]\n}", 3, "l5 is defined for stages >= 1"),
            ("complex X {\n  k = 1\n  h = 3\n  alpha = [2]\n  beta = [2]\n}",
             1, "unital complex needs equality in block 1"),
        ]:
            e = self.err(text)
            assert e.line == line and message in str(e), (text, e)
        assert parse("family C {\n  n0 = 1\n  k = l5(n)\n  h = 2*l5(n)\n  alpha = [2]\n"
                     "  beta = [2]\n}").get_family("C").complex_at(1).k == (9,)

    def test_unital_size_violation(self):
        e = self.err("complex X { k = 1 1; h = 3; alpha = [2 0]; beta = [0 2]; unital = true }")
        assert "unital" in str(e) or "size accounting" in str(e)

    def test_unknown_section(self):
        e = self.err("widget X { }")
        assert e.line == 1

    def test_duplicate_name(self):
        self.err("complex X { k = 1; h = 2; alpha = [2]; beta = [2] }\n"
                 "complex X { k = 1; h = 2; alpha = [2]; beta = [2] }")

    def test_map_overfill(self):
        text = ("complex A { k = 1; h = 2; alpha = [2]; beta = [2] }\n"
                "map m : A -> A { unital = false\n  point 1 <- point 1 * 5\n}")
        e = self.err(text)
        assert "overfilled" in str(e)

    def test_unknown_query_target(self):
        text = ("complex A { k = 1; h = 2; alpha = [2]; beta = [2] }\n"
                "query { kind = ktheory; target = B }")
        self.err(text)

    def test_stage_parameter_in_concrete_complex(self):
        e = self.err("complex A { k = 3^n; h = 2*3^n; alpha = [2]; beta = [2] }")
        assert "family" in str(e)

    def test_system_needs_known_family(self):
        text = ("family C { n0 = 0; k = 1; h = 2; alpha = [2]; beta = [2] }\n"
                "map m : C -> C { unital = false }\n"
                "system s { family = D; bonding = m; degree = 0 }")
        self.err(text)

    def test_map_and_system_names_are_identifiers(self):
        cx = "complex A { k = 1; h = 2; alpha = [2]; beta = [2] }\n"
        e = self.err(cx + "map 1m : A -> A { unital = false }")
        assert e.line == 2 and "bad map name" in str(e)
        e = self.err("family C { k = 1; h = 2; alpha = [2]; beta = [2] }\n"
                     "map m : C -> C { unital = false }\n"
                     "system s 2 { family = C; bonding = m; degree = 0 }")
        assert e.line == 3 and "bad system name" in str(e)

    def test_assignment_beyond_target_blocks(self):
        cx = "complex A { k = 1; h = 2; alpha = [2]; beta = [2] }\n"
        e = self.err(cx + "map m : A -> A { unital = false\n"
                          "  point 1 <- point 1\n  point 5 <- point 1\n}")
        assert e.line == 4 and "no point 5" in str(e)
        e = self.err(cx + "map m : A -> A { unital = false\n  block 2 <- path 1\n}")
        assert e.line == 3 and "no block 2" in str(e)

    def test_system_bonding_must_be_a_self_map_of_its_family(self):
        text = ODD_DOC.replace("system k0sys { family = C; bonding = psi;",
                               "map m : C0 -> C0 { point 1 <- point 1; point 2 <- point 2\n"
                               "point 3 <- point 3; block 1 <- path 1; block 2 <- path 2 }\n"
                               "system k0sys { family = C; bonding = m;")
        e = self.err(text)
        line = next(i for i, x in enumerate(text.splitlines(), 1) if x.startswith("system"))
        assert e.line == line and "needs a self-map of family 'C'" in str(e)


class TestSizeExpressions:
    def test_recursion_values(self):
        assert [l5_value(m) for m in (1, 2, 3, 4)] == [9, 41, 309, 3227]
        # literal recursion cross-check
        for m in range(1, 6):
            n = m
            geom = sum(3 ** i for i in range(1, n + 1))
            assert l5_value(n + 1) == 2 * l5_value(n) + 3 ** (n + 1) + 2 * 4 ** (n - 1) + geom * 4 ** n

    def test_arithmetic(self):
        assert parse_size_expr("2*3^n").eval(2) == 18
        assert parse_size_expr("5^(n-1)").eval(3) == 25
        assert parse_size_expr("l5(n)+3^n").eval(2) == 50
        assert parse_size_expr("l5(n+1)").eval(1) == 41

    def test_render_round_trip(self):
        for text in ("2*3^n", "5^(n-1)", "l5(n)+3^n", "7", "2*3^(n+2)-1"):
            e = parse_size_expr(text)
            assert parse_size_expr(e.render()) == e

    def test_bad_expressions(self):
        for text in ("3^", "l5", "n*", "3^^2", "q"):
            with pytest.raises(InputError):
                parse_size_expr(text, 1)

    def test_negative_exponent_at_eval(self):
        e = parse_size_expr("5^(n-1)")
        with pytest.raises(ValueError):
            e.eval(0)


from hypothesis import HealthCheck, given, settings, strategies as st


@st.composite
def unital_complex_blocks(draw):
    p = draw(st.integers(1, 3))
    k = [draw(st.integers(1, 3)) for _ in range(p)]
    l = draw(st.integers(1, 2))
    alpha, beta, h = [], [], []
    for _ in range(l):
        while True:
            a = [draw(st.integers(0, 2)) for _ in range(p)]
            sa = sum(x * y for x, y in zip(a, k))
            if sa > 0:
                break
        # a beta row with the same weighted sum, found by greedy adjustment
        b = list(a)
        alpha.append(a)
        beta.append(b)
        h.append(sa)
    return k, h, alpha, beta


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(unital_complex_blocks(), st.booleans())
def test_generated_documents_round_trip(blocks, unital):
    k, h, alpha, beta = blocks
    lines = ["complex G {"]
    lines.append("  k = " + " ".join(map(str, k)))
    lines.append("  h = " + " ".join(map(str, h)))
    lines.append("  alpha = [" + "; ".join(" ".join(map(str, r)) for r in alpha) + "]")
    lines.append("  beta = [" + "; ".join(" ".join(map(str, r)) for r in beta) + "]")
    lines.append(f"  unital = {'true' if unital else 'false'}")
    lines.append("}")
    doc = parse("\n".join(lines))
    assert parse(render(doc)) == doc
    again = parse(render(doc))
    assert render(again) == render(doc)
