"""Differential oracles: the pairwise occurrence-closure table builder and
the per-node trie-regex emitter, frozen.

:func:`pairwise_tables` is how :class:`repro.nids.prefilter._Chunk` once
built its whole ``prefix_closure`` and ``overlap_texts`` tables up front: a
suffix index for the straddlers, then a loop of every pattern against
every other pattern of the chunk (O(chunk² · len)).  It is kept verbatim
so tests can assert that ``_Chunk.tables(text)``, which derives one text's
entry on its first match, equals ``(prefix_closure[text],
overlap_texts[text])`` for every text, tuple order included.
:func:`per_node_trie_regex` is the emitter from before runs of single-child
trie nodes were emitted as one literal (and before the trie became implicit
in the chunk's sorted texts).  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Set, Tuple


def pairwise_tables(
    texts: Sequence[bytes], ids_by_text: Dict[bytes, Tuple[int, ...]]
) -> Tuple[Dict[bytes, Tuple[int, ...]], Dict[bytes, Tuple[bytes, ...]]]:
    """``(prefix_closure, overlap_texts)`` for one chunk of unique texts."""
    prefix_closure: Dict[bytes, Tuple[int, ...]] = {}
    overlap_texts: Dict[bytes, Tuple[bytes, ...]] = {}
    # ``other`` straddles out of ``text`` iff a proper prefix of ``other``
    # equals a proper suffix of ``text`` (the match then extends past
    # text's end).
    suffix_owners: Dict[bytes, List[bytes]] = {}
    for text in texts:
        for cut in range(1, len(text)):
            suffix_owners.setdefault(text[cut:], []).append(text)
    straddle_for: Dict[bytes, Set[bytes]] = {}
    for other in texts:
        for j in range(1, len(other)):  # proper prefixes: j < len(other)
            owners = suffix_owners.get(other[:j])
            if owners:
                for text in owners:
                    if text is not other:
                        straddle_for.setdefault(text, set()).add(other)
    empty: Set[bytes] = set()
    for text in texts:
        ids = list(ids_by_text[text])
        interior = text[1:]
        straddlers = straddle_for.get(text, empty)
        overlaps = []
        for other in texts:
            if other is text:
                continue
            if text.startswith(other):  # proper prefix (texts are unique)
                ids.extend(ids_by_text[other])
                continue
            if other in straddlers or other in interior:
                overlaps.append(other)
        prefix_closure[text] = tuple(ids)
        overlap_texts[text] = tuple(overlaps)
    return prefix_closure, overlap_texts


def per_node_trie_regex(texts: Sequence[bytes]) -> "re.Pattern[bytes]":
    """The trie regex as it was emitted one trie node per recursive call;
    the run-collapsing emitter must produce the same source bytes."""
    root: Dict = {}
    for text in texts:
        node = root
        for byte in text:
            node = node.setdefault(byte, {})
        node[None] = True  # terminal marker

    def emit(node: Dict) -> bytes:
        terminal = None in node
        branches = [
            re.escape(bytes([byte])) + emit(child)
            for byte, child in sorted(
                (k, v) for k, v in node.items() if k is not None
            )
        ]
        if not branches:
            return b""
        body = b"|".join(branches)
        if terminal:
            return b"(?:" + body + b")?"
        if len(branches) > 1:
            return b"(?:" + body + b")"
        return body

    return re.compile(emit(root))
