"""Byte-identical compiler and oracle outputs, pinned by SHA-256 digest.

The formulas are the benchmark family (``clause 1 + 1 n; clause 2 - 1 n``
plus single-variable clauses on 2..n-1 with alternating signs) and its
UNSAT twin, which adds the unit clauses ``- 1`` and ``- n``.  For each
one the compiled base, makespan and two-colored instances are written to
text, the oracles' witnesses are written as solution files, and the
construction checks' names, verdicts and details are joined into one
report text; every text is hashed.  A refactor of the grid layer must
leave every digest unchanged.
"""

import hashlib

import pytest

from gridmapf import files
from gridmapf.formula import parse_formula
from gridmapf.oracle import (
    assignment_minimal_lower_bound,
    exists_individually_optimal,
    exists_makespan_at_most,
    two_colored_decide,
)
from gridmapf.reduction import (
    compile_formula,
    makespan_variant,
    two_colored_variant,
    verify_construction,
)


def family_text(n: int, unsat: bool) -> str:
    clauses = [("+", (1, n)), ("-", (1, n))]
    for v in range(2, n):
        clauses.append(("+" if v % 2 == 0 else "-", (v,)))
    if unsat:
        clauses += [("-", (1,)), ("-", (n,))]
    lines = [f"vars {n}"]
    for cid, (sign, vs) in enumerate(clauses, start=1):
        lines.append(f"clause {cid} {sign} " + " ".join(map(str, vs)))
    return "\n".join(lines) + "\n"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_text(report) -> str:
    return "".join(f"{c.name}|{c.ok}|{c.detail}\n" for c in report.checks)


def witness_text(instance, witness) -> str:
    if not witness.decision:
        return "NO\n"
    return files.write_solution(instance, witness.solution)


def digests(n: int, unsat: bool) -> dict[str, str]:
    base, meta = compile_formula(parse_formula(family_text(n, unsat)))
    mk, mk_meta = makespan_variant(base, meta)
    tc = two_colored_variant(base, meta)
    tc_mk = two_colored_variant(mk, mk_meta)
    bound = assignment_minimal_lower_bound(tc)
    texts = {
        "base.map": files.write_map(base.grid),
        "base.agents": files.write_agents(base),
        "base.meta": files.write_metadata(meta),
        "makespan.map": files.write_map(mk.grid),
        "makespan.agents": files.write_agents(mk),
        "makespan.meta": files.write_metadata(mk_meta),
        "two-colored.agents": files.write_agents(tc),
        "two-colored-makespan.agents": files.write_agents(tc_mk),
        "indopt.solution": witness_text(base, exists_individually_optimal(base)),
        "makespan-le.solution": witness_text(
            mk, exists_makespan_at_most(mk, mk_meta.common_distance)
        ),
        "team-flowtime.solution": f"bound {bound}\n"
        + witness_text(tc, two_colored_decide(tc, "flowtime", bound)),
        "team-makespan.solution": witness_text(
            tc_mk, two_colored_decide(tc_mk, "makespan", mk_meta.common_distance)
        ),
        "base.report": report_text(verify_construction(base, meta)),
        "makespan.report": report_text(verify_construction(mk, mk_meta)),
    }
    return {name: sha(text) for name, text in texts.items()}


GOLDEN: dict[tuple[int, bool], dict[str, str]] = {
    (4, False): {
        "base.agents": (
            "92b0777577cce4c9e85ea18e0a61ba2a323e9d59abe679d17cf86d9deaa7616a"
        ),
        "base.map": (
            "c70bf8dd5b3dc8ec9cef48f29268cdf157ed34e767afad61143df3f1f9f167fe"
        ),
        "base.meta": (
            "ca93626c0761bec9bf80e42163f160a6e461936e1f4ae0b1de5a57937d429b54"
        ),
        "base.report": (
            "d4cd94b403282b608c29a3f12e2253979987cb4ac8e1e5b80c42042000f889c8"
        ),
        "indopt.solution": (
            "7148d403874687d5fcffb05823f1681300d4a035ae683d42b6a4436fc1ba294f"
        ),
        "makespan-le.solution": (
            "833f737555024c240ab6b48c2e420ed2d9e675a16cca79d2b58232d7c3e44591"
        ),
        "makespan.agents": (
            "821cdec203257e935959a64d8a713c74eeb025c964d41c6ccf7b48bf779dc22d"
        ),
        "makespan.map": (
            "099a90e0cabe11423d783c32d6a529e5ab230e514699c551d8d1d6133d5eeee3"
        ),
        "makespan.meta": (
            "6056b46c78f51e9f881412fe9bcd0e81d2e3702509a059150062dd91259f1fb2"
        ),
        "makespan.report": (
            "776283c757920b8aa72e111e5b960bb17b452181ddc87ce3c86cea8898e5bc91"
        ),
        "team-flowtime.solution": (
            "fd3837e88b081515f3a1b7362f89de4b132f86dcb1c7a68e63d17553d947faad"
        ),
        "team-makespan.solution": (
            "833f737555024c240ab6b48c2e420ed2d9e675a16cca79d2b58232d7c3e44591"
        ),
        "two-colored-makespan.agents": (
            "46f4d2988e65940cf652299866a68299a58756df1d8cbdd8d4d4e814b8417eac"
        ),
        "two-colored.agents": (
            "e2c43c70d28eb3d1eb7c8076792c36a6c8e27ea91bd93fce6ac8d7699eabbf9b"
        ),
    },
    (6, False): {
        "base.agents": (
            "3b75f3cc3b226a628149e93233a959555dea3801fa9bc86da865fd4652184e14"
        ),
        "base.map": (
            "7810bc8d1874c9dec8d26d66fb2eeceef8e6ed979e40180f2518e84e417d0861"
        ),
        "base.meta": (
            "7bbe9736817494da4d02363eb042b0dec785f64938edc0fc8bbe23a04b32238c"
        ),
        "base.report": (
            "0d27cd625b0e966cd634cba3507c26a5abccbc0d810371c4cdbfc6f29316cc1e"
        ),
        "indopt.solution": (
            "6e1a8ab15a419bbb5386921286834045f2509466a651dbb1655ee60aedecf704"
        ),
        "makespan-le.solution": (
            "f8dea1126d28a90bf5659b275c20ddb5ba90da7cb42cabd483a71a8894a13697"
        ),
        "makespan.agents": (
            "98eb82ad976f00668ebf5e637d109ebfa753296e77e6e216c955e74a0695a3b1"
        ),
        "makespan.map": (
            "15d8139ca0ce9db14298059bb7351784d94b3fd057c96f9f90bc5a63c97786a5"
        ),
        "makespan.meta": (
            "d54199357f1ac23efc8708d7fcb75e05302bd4e18bc8e808ccc24d66b1431272"
        ),
        "makespan.report": (
            "ea7173bea6e96179a37da9b1515505824395e6375772caa6fc634fc0ea018d99"
        ),
        "team-flowtime.solution": (
            "4abb8c08422080683238b436db1ad31b1002ec8d3ca14f323f677f1a4a7ac6c9"
        ),
        "team-makespan.solution": (
            "f8dea1126d28a90bf5659b275c20ddb5ba90da7cb42cabd483a71a8894a13697"
        ),
        "two-colored-makespan.agents": (
            "bd431eb4746302891607559168db2dbf73d1779aee81366a3a5ff1dc13b529c4"
        ),
        "two-colored.agents": (
            "82aff90c54529e00f154f936b55898bb616424736e8e2142b3bfb823412eb542"
        ),
    },
    (4, True): {
        "base.agents": (
            "a1027192bebfb9b7ebd15fc8140eb8d78ec02b12be7de6c7ac2a6c075f1588ae"
        ),
        "base.map": (
            "cb3010787792d87923affaec3021a24aa13ba2a95000a304b21b7bbe1b510d4a"
        ),
        "base.meta": (
            "c21de9666728eb33f816907a952dbb2e110dc0e89897f22beb5c5186db8fbc2d"
        ),
        "base.report": (
            "bab44de50b46348597cdd00bedee4b8cf7909362fcb802c3b2a5de0661dab708"
        ),
        "indopt.solution": (
            "cfe72034a9f298fb79a6c1f2302673bb449c826d446b3efafdde95e6c48dc3ca"
        ),
        "makespan-le.solution": (
            "cfe72034a9f298fb79a6c1f2302673bb449c826d446b3efafdde95e6c48dc3ca"
        ),
        "makespan.agents": (
            "82ed925ba00dea5d4e3d8634eb302a63359e5b3d888377172226454a95dfbe38"
        ),
        "makespan.map": (
            "9181ba1e83dc938436561cc680a4132902a536ed35451b18330fd9add7abe49c"
        ),
        "makespan.meta": (
            "a47e0bb947c7aead5ccea5eb6b6ee54330001c5e301b3547cf04ac5f89990d6c"
        ),
        "makespan.report": (
            "8ceb9e05cdb247d3ce4da0b8a6553f7cb0851b27e2c6f584b9bf3244f9b00c9f"
        ),
        "team-flowtime.solution": (
            "7b12935f6e6ac8ccb533f026cff7a4b57e338c70c0573144f96d9170be0d5e4f"
        ),
        "team-makespan.solution": (
            "cfe72034a9f298fb79a6c1f2302673bb449c826d446b3efafdde95e6c48dc3ca"
        ),
        "two-colored-makespan.agents": (
            "c8e5fc87897dd6be37e5aaaddc873e6b7893e339cf60b5dd0f040d7f4e958886"
        ),
        "two-colored.agents": (
            "464c7e75cb432f24a81453300b0b1fa0e0882cddd22af71228f5de6872b4bfcc"
        ),
    },
}


@pytest.mark.parametrize("n,unsat", sorted(GOLDEN), ids=lambda v: str(v))
def test_outputs_byte_identical(n, unsat):
    assert digests(n, unsat) == GOLDEN[(n, unsat)]


@pytest.mark.parametrize("n,unsat", sorted(GOLDEN), ids=lambda v: str(v))
def test_meta_files_read_back(n, unsat):
    base, meta = compile_formula(parse_formula(family_text(n, unsat)))
    _, mk_meta = makespan_variant(base, meta)
    for m in (meta, mk_meta):
        assert files.read_metadata(files.write_metadata(m)) == m


def test_every_case_pinned():
    assert sorted(GOLDEN) == [(4, False), (4, True), (6, False)]
