"""The text mutations the front-door properties feed a parser.

A front door (CPL, SQL) is seeded with the texts of its language already in
the repository; :func:`mutations` turns those seeds into truncations,
character edits, lexeme swaps and splices of two seeds.
"""

from hypothesis import strategies as st


def replace_lexeme(text, pattern, which, piece):
    """``text`` with the lexeme ``pattern`` matches at fraction ``which`` of
    its matches replaced by ``piece`` (``text`` itself when none match)."""
    spans = [match.span() for match in pattern.finditer(text)]
    if not spans:
        return text
    start, end = spans[min(int(len(spans) * which), len(spans) - 1)]
    return text[:start] + piece + text[end:]


def edit_characters(text, edits):
    """``text`` after each ``(where, how, char)`` edit: insert, replace or
    delete at fraction ``where`` of its length."""
    for where, how, char in edits:
        at = min(int(len(text) * where), len(text))
        if how == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + (char if how == "replace" else "") + text[at + 1:]
    return text


def splice(first, second, cut, rest):
    """The head of ``first`` up to fraction ``cut``, then the tail of
    ``second`` from fraction ``rest``."""
    return first[:int(len(first) * cut)] + second[int(len(second) * rest):]


def mutations(seeds, characters, lexemes):
    """One strategy per kind of mutation of a text drawn from ``seeds``:
    truncation, one to three character edits writing ``characters``, a
    lexeme swap (``lexemes`` maps a kind to its pattern and to a strategy for
    what replaces it), and a splice of two seeds."""
    fractions = st.floats(min_value=0.0, max_value=1.0)
    return [
        st.builds(lambda seed, cut: seed[:int(len(seed) * cut)], seeds, fractions),
        st.builds(edit_characters, seeds, st.lists(st.tuples(
            fractions, st.sampled_from(["insert", "replace", "delete"]),
            st.sampled_from(characters)), min_size=1, max_size=3)),
        st.sampled_from(sorted(lexemes)).flatmap(lambda kind: st.builds(
            replace_lexeme, seeds, st.just(lexemes[kind][0]), fractions,
            lexemes[kind][1])),
        st.builds(splice, seeds, seeds, fractions, fractions),
    ]
