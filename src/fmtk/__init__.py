"""fmtk: a toolkit for finite relational structures.

Decides bounded-quantifier-rank equivalence, shrinks words/trees/operation
compositions to small equivalent sub-models around marked elements, and
translates sentences whose models carry small cores into
existential-then-universal prefix form, with brute-force cross-checks at desk
scale.

The names below are imported from their layer on first use (PEP 562), so
that importing ``fmtk`` (as every ``python -m fmtk.cli`` run does) loads no
layer by itself.
"""

_HOMES = {
    "MarkedStructure": "structures",
    "Structure": "structures",
    "Vocabulary": "structures",
    "bowtie": "structures",
    "cartesian_product": "structures",
    "complement": "structures",
    "disjoint_union": "structures",
    "ef_game_equivalent": "equiv",
    "find_embedding": "structures",
    "induced_substructure": "structures",
    "is_isomorphic": "structures",
    "m_equivalent": "equiv",
    "rank_type": "equiv",
    "realized_classes": "equiv",
    "tensor_product": "structures",
    "tree_of_structures": "structures",
    "word_of_structures": "structures",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
