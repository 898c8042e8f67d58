"""Predicate expression tests."""

import operator

import pytest

from repro.relational.predicate import ALWAYS, And, Comparison, col

ROWS = [
    {"provider": "visa", "value": 10.0, "settled": "N"},
    {"provider": "visa", "value": 20.0, "settled": "Y"},
    {"provider": "mc", "value": 5.0, "settled": "N"},
    {"provider": "mc", "value": 7.0, "settled": "N"},
]


class TestPredicates:
    def test_comparisons(self):
        assert (col("value") > 9.0).matches(ROWS[0])
        assert not (col("value") > 10.0).matches(ROWS[0])
        assert (col("value") >= 10.0).matches(ROWS[0])
        assert (col("value") < 11.0).matches(ROWS[0])
        assert (col("value") <= 10.0).matches(ROWS[0])
        assert (col("settled") != "Y").matches(ROWS[0])

    def test_and_or_not(self):
        pred = (col("provider") == "visa") & (col("settled") == "N")
        assert pred.matches(ROWS[0])
        assert not pred.matches(ROWS[1])
        either = (col("provider") == "visa") | (col("value") < 6.0)
        assert either.matches(ROWS[2])
        assert not (~(col("provider") == "visa")).matches(ROWS[0])

    def test_between(self):
        assert col("value").between(5.0, 10.0).matches(ROWS[0])
        assert not col("value").between(11.0, 30.0).matches(ROWS[0])

    def test_in(self):
        assert col("provider").in_(["visa", "amex"]).matches(ROWS[0])
        assert not col("provider").in_(["amex"]).matches(ROWS[0])

    def test_missing_column_never_matches(self):
        assert not (col("missing") == 1).matches(ROWS[0])

    def test_equality_bindings_surface_through_and(self):
        pred = (col("a") == 1) & (col("b") == 2) & (col("c") > 3)
        assert pred.equality_bindings() == {"a": 1, "b": 2}

    def test_columns_collected(self):
        pred = (col("a") == 1) | (col("b") == 2)
        assert pred.columns() == {"a", "b"}

    def test_always(self):
        assert ALWAYS.matches({})

    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    def test_comparison_agrees_with_python_operator(self, op):
        python = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                  "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        for actual in (1, 2, 3):
            assert Comparison("a", op, 2).matches({"a": actual}) == \
                python[op](actual, 2)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown comparison"):
            Comparison("a", "=~", 1)

    def test_and_binds_tighter_than_or(self):
        pred = (col("a") == 1) | (col("b") == 2) & (col("c") == 3)
        assert pred.matches({"a": 1, "b": 0, "c": 0})
        assert pred.matches({"a": 0, "b": 2, "c": 3})
        assert not pred.matches({"a": 0, "b": 2, "c": 0})

    def test_parenthesised_or_under_and(self):
        pred = ((col("a") == 1) | (col("b") == 2)) & (col("c") == 3)
        assert not pred.matches({"a": 1, "b": 0, "c": 0})
        assert pred.matches({"a": 1, "b": 0, "c": 3})

    def test_double_negation(self):
        pred = col("a") == 1
        for row in ({"a": 1}, {"a": 2}):
            assert (~~pred).matches(row) == pred.matches(row)
            assert (~pred).matches(row) != pred.matches(row)

    def test_between_is_inclusive(self):
        pred = col("v").between(2, 4)
        assert [v for v in range(6) if pred.matches({"v": v})] == [2, 3, 4]

    def test_null_never_satisfies_a_comparison_or_range(self):
        row = {"a": None}
        for pred in (col("a") == None, col("a") != 1,  # noqa: E711
                     col("a") < 1, col("a").between(0, 1)):
            assert not pred.matches(row)
        # ...but NOT of a failed comparison does match.
        assert (~(col("a") == 1)).matches(row)

    def test_in_set_takes_any_iterable(self):
        pred = col("a").in_(v for v in (1, 2))
        assert pred.values == frozenset({1, 2})
        assert pred.matches({"a": 2})
        assert not pred.matches({"a": 3})
        assert not pred.matches({})

    def test_and_flattens_nested_conjunctions(self):
        a, b, c = col("a") == 1, col("b") == 2, col("c") == 3
        assert (a & b & c).parts == (a, b, c)
        assert And(a, And(b, c)).parts == (a, b, c)

    def test_bindings_ignore_disjunctions_and_negations(self):
        pred = (col("a") == 1) & ((col("b") == 2) | (col("c") == 3)) \
            & ~(col("d") == 4) & col("e").in_([5])
        assert pred.equality_bindings() == {"a": 1}
        assert ((col("a") == 1) | (col("a") == 2)) \
            .equality_bindings() == {}

    def test_columns_through_every_node(self):
        pred = ~(col("a") == 1) & col("b").between(0, 1) \
            | col("c").in_([2])
        assert pred.columns() == {"a", "b", "c"}
        assert ALWAYS.columns() == set()

    def test_repr_spells_the_tree(self):
        pred = (col("a") == 1) & ~col("b").in_([2, 1]) \
            | col("c").between(0, 9)
        assert repr(pred) == \
            "(((a == 1) AND (NOT (b IN [1, 2]))) OR (0 <= c <= 9))"
        assert repr(ALWAYS) == "TRUE"
        assert repr(col("x")) == "col('x')"

    def test_column_refs_hash_by_name(self):
        assert hash(col("a")) == hash(col("a"))
        assert len({col("a"), col("b")}) == 2
