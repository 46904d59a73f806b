"""Seeded inputs of the four workloads.

Each workload gives the argv lists of its ops, made from the seed alone;
the program only ever sees the argv. The same seed gives the same ops.
bridge-scan is one whole pass over a fixed set of fractions in a seeded
order, so every run attempts the same ops and its failed count, which
holds the program's known crash class, is the same in every run. The
other workloads are endless streams that a time-bounded run cuts off;
their ops do not fail, and catalog-cli's stream is made of rounds with a
fixed mix, so the mix of any prefix is the same up to the last round.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("bridge-scan", "knot-table", "sweep", "catalog-cli")

SWEEP_MAX_LEN = 7
# bridge-scan takes every 8th of the 302 fractions: 38 ops, 8-13 s at the
# seed commit on a 2-vCPU VM.
BRIDGE_STRIDE = 8
SMOKE_BRIDGE_OPS = 3
SMOKE_SWEEP_MAX_LEN = 3
SMOKE_KNOT_TABLE_MAX_LEN = 4

# One op outside the timed loop that runs the workload's code paths on a
# small input, so lazy set-up is done before timing starts.
WARMUP = {
    "bridge-scan": ["knot", "5/3", "--json"],
    "knot-table": ["verify", "knot-table", "--max-len",
                   str(SMOKE_KNOT_TABLE_MAX_LEN), "--json"],
    "sweep": ["verify", "inequality-sweep", "--max-len",
              str(SMOKE_SWEEP_MAX_LEN), "--json"],
}

VERIFY_SUITES = ("bianchi", "losid", "arithcomp", "elliptic", "gtk-families")
BIANCHI_DS = (1, 2, 3, 7, 11)


def bridge_fractions():
    """Every coprime p/q with 5 <= p <= 31 and 0 < q < p: 302 fractions."""
    return [(p, q) for p in range(5, 32) for q in range(1, p)
            if math.gcd(p, q) == 1]


def bridge_set():
    """Every BRIDGE_STRIDE-th fraction of bridge_fractions(), ordered by p
    and q: a fixed sample spread over the whole range of p."""
    return bridge_fractions()[::BRIDGE_STRIDE]


def bridge_scan(seed, smoke=False):
    """One pass over bridge_set() in a seeded order (its first few on smoke)."""
    fractions = bridge_set()
    random.Random(seed).shuffle(fractions)
    if smoke:
        fractions = fractions[:SMOKE_BRIDGE_OPS]
    return [["knot" if p % 2 else "link", f"{p}/{q}", "--json"] for p, q in fractions]


def knot_table(smoke=False):
    argv = ["verify", "knot-table", "--json"]
    if smoke:
        argv[2:2] = ["--max-len", str(SMOKE_KNOT_TABLE_MAX_LEN)]
    while True:
        yield list(argv)


def sweep(smoke=False):
    max_len = SMOKE_SWEEP_MAX_LEN if smoke else SWEEP_MAX_LEN
    while True:
        yield ["verify", "inequality-sweep", "--max-len", str(max_len), "--json"]


def gtk_family_argv(row):
    """argv of the listed family ``row`` (an entry of gtk_families.json)."""
    return ["gtk", f"{row['theta']['num']}/{row['theta']['den']}",
            repr(row["k"]), "--json"]


def catalog_cli(seed, families):
    """Rounds of 20 commands with a fixed mix, shuffled within each round.

    A round holds 8 ``gtk`` calls at a seeded theta = NUM/DEN pi and k,
    4 ``gtk`` calls at listed families (``families``, the rows of
    gtk_families.json, taken in a seeded cycle), 3 ``bianchi --verify``
    calls at a seeded cycle of d, and one call of each of the five fast
    verify suites.
    """
    rng = random.Random(seed)
    fam_cycle = []
    d_cycle = []
    while True:
        round_ = []
        for _ in range(8):
            den = rng.randint(2, 12)
            num = rng.randint(1, 2 * den - 1)
            k = round(rng.uniform(0.1, 3.0), 6)
            round_.append(["gtk", f"{num}/{den}", repr(k), "--json"])
        for _ in range(4):
            if not fam_cycle:
                fam_cycle = rng.sample(families, len(families))
            round_.append(gtk_family_argv(fam_cycle.pop()))
        for _ in range(3):
            if not d_cycle:
                d_cycle = rng.sample(BIANCHI_DS, len(BIANCHI_DS))
            round_.append(["bianchi", "--d", str(d_cycle.pop()), "--verify", "--json"])
        round_.extend(["verify", suite, "--json"] for suite in VERIFY_SUITES)
        rng.shuffle(round_)
        yield from round_


def ops(workload, seed, families, smoke=False):
    """The ops of ``workload``: a list for bridge-scan, else an endless stream."""
    if workload == "bridge-scan":
        return bridge_scan(seed, smoke)
    if workload == "knot-table":
        return knot_table(smoke)
    if workload == "sweep":
        return sweep(smoke)
    if workload == "catalog-cli":
        return catalog_cli(seed, families)
    raise ValueError(f"unknown workload {workload!r}")
