"""Maximal k-wise intersecting families: construction, verification, search.

A family of subsets of {1, .., n} is k-wise intersecting when any k of its
members (repetition allowed) share a common element, and maximal when no
strict superfamily still is. All machinery works in the complement picture,
where the k-wise property becomes "no k members union to the full set" and
cover queries over the subset lattice decide everything.

The package loads lazily: importing it loads no submodule, and each export
loads its defining module on first access. So `python -m kwise verify`
loads only cli, familyio, setcore and verifier, and `kwise greedy` and
`kwise cube` add search but not construction.
"""

__version__ = "0.1.0"

# Each export's defining submodule.
_EXPORTS = {
    name: module
    for module, names in {
        "construction": (
            "BuiltFamily",
            "ConstructionParams",
            "build_family",
            "construction_tops",
            "expected_size",
            "make_partition",
        ),
        "familyio": ("format_set_line", "parse_set_line", "read_family", "write_family"),
        "search": (
            "OracleResult",
            "cube_blocks",
            "greedy_saturate",
            "oracle_min_size",
            "size_table",
        ),
        "setcore": (
            "CoverSearcher",
            "Family",
            "SetMask",
            "Universe",
            "complement_family",
            "elements_of",
            "maximal_elements",
            "submasks",
        ),
        "verifier": (
            "CoverWitness",
            "GapWitness",
            "Verdict",
            "check_kwise",
            "check_saturated",
            "is_maximal_kwise",
            "verify_witness",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # PEP 562: called only for names not in the module's namespace. The
    # value is not cached here, so the package always shows the defining
    # module's current binding.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
