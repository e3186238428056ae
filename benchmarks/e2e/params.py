"""Seeded TPC-H substitution parameters (spec §2.4 domains) for all 22
templates, applied by replacing the validation literals in the query
texts of ``repro.workloads.tpch_queries``.

A literal that is no longer in its template is an error: a later edit
to the query texts must not silently turn ``adhoc_small`` into a
fixed-text workload.
"""

from __future__ import annotations

import random
import re

from repro.workloads import tpch_dbgen as G
from repro.workloads import tpch_queries

_NATIONS = [name for name, _ in G.NATIONS]
_REGION_OF = {name: G.REGIONS[r] for name, r in G.NATIONS}
_YEARS = range(1993, 1998)
_Q13_WORD1 = ["special", "pending", "unusual", "express"]
_Q13_WORD2 = ["packages", "requests", "accounts", "deposits"]
#: redraws before a repeated text is accepted (the domain is exhausted)
_REDRAWS = 32


def _date(y: int, m: int = 1, d: int = 1) -> str:
    return f"date '{y:04d}-{m:02d}-{d:02d}'"


def _month(rng: random.Random, first: tuple[int, int], last: tuple[int, int]) -> str:
    """The first day of a month drawn from [first, last] (year, month)."""
    lo = first[0] * 12 + first[1] - 1
    hi = last[0] * 12 + last[1] - 1
    k = rng.randint(lo, hi)
    return _date(k // 12, k % 12 + 1)


def _brand(rng: random.Random) -> str:
    return f"'Brand#{rng.randint(1, 5)}{rng.randint(1, 5)}'"


def _in_list(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _draw(qno: int, rng: random.Random, text: str) -> dict[str, str]:
    """Validation literal -> replacement for one execution of ``qno``."""
    pick = rng.choice
    if qno == 1:
        return {"interval '90' day": f"interval '{rng.randint(60, 120)}' day"}
    if qno == 2:
        return {
            "p_size = 15": f"p_size = {rng.randint(1, 50)}",
            "'%BRASS'": f"'%{pick(G.TYPE_SYL3)}'",
            "'EUROPE'": f"'{pick(G.REGIONS)}'",
        }
    if qno == 3:
        return {
            "'BUILDING'": f"'{pick(G.SEGMENTS)}'",
            "date '1995-03-15'": _date(1995, 3, rng.randint(1, 31)),
        }
    if qno == 4:
        return {"date '1993-07-01'": _month(rng, (1993, 1), (1997, 10))}
    if qno == 5:
        return {"'ASIA'": f"'{pick(G.REGIONS)}'", "date '1994-01-01'": _date(pick(_YEARS))}
    if qno == 6:
        disc = rng.randint(2, 9)
        return {
            "date '1994-01-01'": _date(pick(_YEARS)),
            "between 0.05 and 0.07": f"between 0.{disc - 1:02d} and 0.{disc + 1:02d}",
            "l_quantity < 24": f"l_quantity < {rng.randint(24, 25)}",
        }
    if qno == 7:
        n1, n2 = rng.sample(_NATIONS, 2)
        return {"'FRANCE'": f"'{n1}'", "'GERMANY'": f"'{n2}'"}
    if qno == 8:
        nation = pick(_NATIONS)
        ptype = f"{pick(G.TYPE_SYL1)} {pick(G.TYPE_SYL2)} {pick(G.TYPE_SYL3)}"
        return {
            "'BRAZIL'": f"'{nation}'",
            "'AMERICA'": f"'{_REGION_OF[nation]}'",
            "'ECONOMY ANODIZED STEEL'": f"'{ptype}'",
        }
    if qno == 9:
        return {"'%green%'": f"'%{pick(G.P_NAME_WORDS)}%'"}
    if qno == 10:
        return {"date '1993-10-01'": _month(rng, (1993, 2), (1995, 1))}
    if qno == 11:
        return {"'GERMANY'": f"'{pick(_NATIONS)}'"}
    if qno == 12:
        m1, m2 = rng.sample(G.SHIP_MODE, 2)
        return {
            "('MAIL', 'SHIP')": f"('{m1}', '{m2}')",
            "date '1994-01-01'": _date(pick(_YEARS)),
        }
    if qno == 13:
        return {"'%special%requests%'": f"'%{pick(_Q13_WORD1)}%{pick(_Q13_WORD2)}%'"}
    if qno == 14:
        return {"date '1995-09-01'": _month(rng, (1993, 1), (1997, 12))}
    if qno == 15:
        return {"date '1996-01-01'": _month(rng, (1993, 1), (1997, 10))}
    if qno == 16:
        return {
            "'Brand#45'": _brand(rng),
            "'MEDIUM POLISHED%'": f"'{pick(G.TYPE_SYL1)} {pick(G.TYPE_SYL2)}%'",
            "(49, 14, 23, 45, 19, 3, 36, 9)": _in_list(rng.sample(range(1, 51), 8)),
        }
    if qno == 17:
        container = f"{pick(G.CONTAINER_SYL1)} {pick(G.CONTAINER_SYL2)}"
        return {"'Brand#23'": _brand(rng), "'MED BOX'": f"'{container}'"}
    if qno == 18:
        # the spec draws QUANTITY from a window of four values; the
        # repo scales the threshold with SF, so the window sits on it
        m = re.search(r"sum\(l_quantity\) > (\d+)", text)
        if m is None:
            raise ValueError("Q18: quantity threshold literal not found in the template")
        return {m.group(0): f"sum(l_quantity) > {int(m.group(1)) + rng.randint(0, 3)}"}
    if qno == 19:
        out = {f"'Brand#{b}'": _brand(rng) for b in (12, 23, 34)}
        for base, lo, hi in ((1, 1, 10), (10, 10, 20), (20, 20, 30)):
            q = rng.randint(lo, hi)
            out[f"l_quantity >= {base} and l_quantity <= {base} + 10"] = (
                f"l_quantity >= {q} and l_quantity <= {q} + 10"
            )
        return out
    if qno == 20:
        return {
            "'forest%'": f"'{pick(G.P_NAME_WORDS)}%'",
            "date '1994-01-01'": _date(pick(_YEARS)),
            "'CANADA'": f"'{pick(_NATIONS)}'",
        }
    if qno == 21:
        return {"'SAUDI ARABIA'": f"'{pick(_NATIONS)}'"}
    if qno == 22:
        codes = _in_list(f"'{c}'" for c in rng.sample(range(10, 35), 7))
        return {"('13', '31', '23', '29', '30', '18', '17')": codes}
    raise ValueError(f"no TPC-H template {qno}")


def substitute(qno: int, text: str, mapping: dict[str, str]) -> str:
    """Replace every occurrence of each validation literal in one pass
    (so Q7's nation swap cannot chain), refusing a literal the template
    no longer holds."""
    missing = [old for old in mapping if old not in text]
    if missing:
        raise ValueError(f"Q{qno}: validation literal(s) {missing} not found in the template")
    pattern = "|".join(re.escape(old) for old in sorted(mapping, key=len, reverse=True))
    return re.sub(pattern, lambda m: mapping[m.group(0)], text)


class ParamStream:
    """Per-template streams of query texts with fresh parameters.

    Each template draws from its own generator seeded by (seed, qno), so
    a text depends on the seed and on how many times that template ran,
    not on the order queries were issued in. Draws are without
    replacement until a template's domain runs out."""

    def __init__(self, seed: int, sf: float):
        self.sf = sf
        self._rngs = {q: random.Random(f"params:{seed}:{q}") for q in tpch_queries.ALL_QUERIES}
        self._seen: dict[int, set[str]] = {q: set() for q in tpch_queries.ALL_QUERIES}

    def text(self, qno: int) -> str:
        template = tpch_queries.query(qno, self.sf)
        rng = self._rngs[qno]
        for _ in range(_REDRAWS):
            text = substitute(qno, template, _draw(qno, rng, template))
            if text not in self._seen[qno]:
                break
        self._seen[qno].add(text)
        return text
