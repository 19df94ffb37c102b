"""The 14 LDBC SNB Interactive Complex (IC) read queries as PSTM traversals.

Each query is a :class:`QueryDef`: a traversal builder plus a parameter
generator drawing from the synthetic dataset. The traversals follow the
official query semantics (https://ldbcouncil.org/ldbc_snb_docs/) with the
simplifications noted per query — the operator mix (multi-hop expansion,
dedup-by-memo, joins, filters, grouping, top-k) matches the official
workload, which is what the performance evaluation exercises.

Query/operator highlights:

* IC1/IC9/IC11 — memo-pruned multi-hop friend expansion (k-hop, Fig 5);
* IC6/IC10/IC14 — bidirectional double-pipelined joins (Fig 3);
* IC3/IC4/IC5/IC12 — partitionable group-count aggregation;
* IC13 — shortest-path via the distance memo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.ldbc import schema as S
from repro.ldbc.generator import SNBDataset
from repro.query.exprs import X
from repro.query.traversal import Traversal

ParamGen = Callable[[SNBDataset, random.Random], Dict[str, Any]]


@dataclass(frozen=True)
class QueryDef:
    """One benchmark query: builder + parameter generator."""

    number: int
    name: str
    description: str
    build: Callable[[], Traversal]
    make_params: ParamGen


def _person_param(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for person-anchored queries (IC7/IC8)."""
    return {"person": dataset.random_person(rng)}


# ---------------------------------------------------------------------------
# IC1 — transitive friends with a given first name (up to 3 hops)
# ---------------------------------------------------------------------------


def build_ic1() -> Traversal:
    # The official query orders by BFS distance first; a discovery distance
    # under async execution is schedule-dependent, so (as Fig 2's Dedup-
    # before-TopK plan does) we emit each friend once and order by the
    # deterministic (lastName, id) tail of the official sort key.
    """Build the IC1 traversal."""
    return (
        Traversal("IC1")
        .v_param("person")
        .khop(S.KNOWS, k=3, dist_binding="dist")
        .filter_(X.binding("dist").ge(1))
        .has_param(S.FIRST_NAME, "firstName")
        .values("lastName", S.LAST_NAME)
        .as_("friend")
        .select("friend", "lastName")
        .order_by(
            (X.binding("lastName"), "asc"),
            (X.binding("friend"), "asc"),
            unique=True,
        )
        .limit(20)
    )


def params_ic1(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for IC1."""
    return {
        "person": dataset.random_person(rng),
        "firstName": rng.choice(
            [dataset.graph.get_vertex_property(p, S.FIRST_NAME)
             for p in rng.sample(dataset.persons, 5)]
        ),
    }


# ---------------------------------------------------------------------------
# IC2 — recent messages by direct friends (date ≤ maxDate, top 20)
# ---------------------------------------------------------------------------


def build_ic2() -> Traversal:
    """Build the IC2 traversal."""
    return (
        Traversal("IC2")
        .v_param("person")
        .out(S.KNOWS)
        .dedup()
        .as_("friend")
        .in_(S.HAS_CREATOR)
        .filter_(X.prop(S.CREATION_DATE).le(X.param("maxDate")))
        .values("date", S.CREATION_DATE)
        .as_("message")
        .select("friend", "message", "date")
        .order_by((X.binding("date"), "desc"), (X.binding("message"), "asc"),
                  unique=True)
        .limit(20)
    )


def params_ic2(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for IC2."""
    return {
        "person": dataset.random_person(rng),
        "maxDate": rng.randrange(S.MAX_DATE // 2, S.MAX_DATE),
    }


# ---------------------------------------------------------------------------
# IC3 — friends (1–2 hops) posting from a given country in a date window
# (simplified from the official two-country variant to one country; the
# operator mix — 2-hop expansion, location filter, per-friend counting —
# is unchanged)
# ---------------------------------------------------------------------------


def build_ic3() -> Traversal:
    """Build the IC3 traversal."""
    return (
        Traversal("IC3")
        .v_param("person")
        .khop(S.KNOWS, k=2, dist_binding="dist")
        .filter_(X.binding("dist").ge(1))
        .as_("friend")
        .in_(S.HAS_CREATOR)
        .filter_(
            X.prop(S.CREATION_DATE).ge(X.param("minDate")).and_(
                X.prop(S.CREATION_DATE).lt(X.param("maxDate"))
            )
        )
        .as_("message")
        .out(S.IS_LOCATED_IN)
        .has_param(S.NAME, "countryName")
        .group_count("friend", limit=20)
    )


def params_ic3(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for IC3."""
    lo = rng.randrange(0, S.MAX_DATE // 2)
    return {
        "person": dataset.random_person(rng),
        "countryName": dataset.random_country_name(rng),
        "minDate": lo,
        "maxDate": lo + S.MAX_DATE // 3,
    }


# ---------------------------------------------------------------------------
# IC4 — new topics: tags on friends' posts in a date window, top 10 by count
# (simplified: drops the "tag unseen before the window" anti-join)
# ---------------------------------------------------------------------------


def build_ic4() -> Traversal:
    """Build the IC4 traversal."""
    return (
        Traversal("IC4")
        .v_param("person")
        .out(S.KNOWS)
        .dedup()
        .in_(S.HAS_CREATOR)
        .has_label(S.POST)
        .filter_(
            X.prop(S.CREATION_DATE).ge(X.param("minDate")).and_(
                X.prop(S.CREATION_DATE).lt(X.param("maxDate"))
            )
        )
        .out(S.HAS_TAG)
        .values("tagName", S.NAME)
        .group_count("tagName", limit=10)
    )


def params_ic4(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for IC4."""
    lo = rng.randrange(0, S.MAX_DATE // 2)
    return {
        "person": dataset.random_person(rng),
        "minDate": lo,
        "maxDate": lo + S.MAX_DATE // 4,
    }


# ---------------------------------------------------------------------------
# IC5 — new groups: forums that friends (1–2 hops) joined after minDate,
# counted by joining friends (simplified: counts memberships per forum
# rather than posts by the joining member)
# ---------------------------------------------------------------------------


def build_ic5() -> Traversal:
    """Build the IC5 traversal."""
    return (
        Traversal("IC5")
        .v_param("person")
        .khop(S.KNOWS, k=2, dist_binding="dist")
        .filter_(X.binding("dist").ge(1))
        .as_("friend")
        .in_(S.HAS_MEMBER, edge_prop=(S.JOIN_DATE, "joinDate"))
        .filter_(X.binding("joinDate").gt(X.param("minDate")))
        .as_("forum")
        .group_count("forum", limit=20)
    )


def params_ic5(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for IC5."""
    return {
        "person": dataset.random_person(rng),
        "minDate": rng.randrange(S.MAX_DATE // 4, 3 * S.MAX_DATE // 4),
    }


# ---------------------------------------------------------------------------
# IC6 — co-occurring tags: posts by friends (1–2 hops) tagged $tagName; count
# the posts' other tags. Executed as the paper's Fig 3 bidirectional join:
# PathA finds the friends, PathB walks tag → posts → creators, and the two
# meet at the creator via the double-pipelined join.
# ---------------------------------------------------------------------------


def build_ic6() -> Traversal:
    """Build the IC6 traversal."""
    path_a = (
        Traversal("IC6.pathA")
        .v_param("person")
        .khop(S.KNOWS, k=2, dist_binding="dist")
        .filter_(X.binding("dist").ge(1))
        .as_("friend")
    )
    path_b = (
        Traversal("IC6.pathB")
        .index_lookup(S.TAG, S.NAME, "tagName")
        .in_(S.HAS_TAG)
        .has_label(S.POST)
        .as_("post")
        .out(S.HAS_CREATOR)
        .as_("creator")
    )
    return (
        Traversal.join("IC6", path_a, "friend", path_b, "creator")
        .goto("post")
        .out(S.HAS_TAG)
        .values("otherTag", S.NAME)
        .filter_(X.binding("otherTag").neq(X.param("tagName")))
        .group_count("otherTag", limit=10)
    )


def params_ic6(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for IC6."""
    return {
        "person": dataset.random_person(rng),
        "tagName": dataset.random_tag_name(rng),
    }


# ---------------------------------------------------------------------------
# IC7 — recent likers of the person's messages (top 20 by like date)
# ---------------------------------------------------------------------------


def build_ic7() -> Traversal:
    """Build the IC7 traversal."""
    return (
        Traversal("IC7")
        .v_param("person")
        .in_(S.HAS_CREATOR)
        .as_("message")
        .in_(S.LIKES, edge_prop=(S.CREATION_DATE, "likeDate"))
        .as_("liker")
        .values("likerName", S.FIRST_NAME)
        .select("liker", "likerName", "message", "likeDate")
        .order_by((X.binding("likeDate"), "desc"), (X.binding("liker"), "asc"))
        .limit(20)
    )


params_ic7 = _person_param


# ---------------------------------------------------------------------------
# IC8 — recent replies to the person's messages (top 20 by reply date)
# ---------------------------------------------------------------------------


def build_ic8() -> Traversal:
    """Build the IC8 traversal."""
    return (
        Traversal("IC8")
        .v_param("person")
        .in_(S.HAS_CREATOR)
        .in_(S.REPLY_OF)
        .as_("reply")
        .values("date", S.CREATION_DATE)
        .out(S.HAS_CREATOR)
        .as_("author")
        .select("author", "reply", "date")
        .order_by((X.binding("date"), "desc"), (X.binding("reply"), "asc"),
                  unique=True)
        .limit(20)
    )


params_ic8 = _person_param


# ---------------------------------------------------------------------------
# IC9 — recent messages by friends within 2 hops before maxDate (top 20)
# ---------------------------------------------------------------------------


def build_ic9() -> Traversal:
    """Build the IC9 traversal."""
    return (
        Traversal("IC9")
        .v_param("person")
        .khop(S.KNOWS, k=2, dist_binding="dist")
        .filter_(X.binding("dist").ge(1))
        .as_("friend")
        .in_(S.HAS_CREATOR)
        .filter_(X.prop(S.CREATION_DATE).lt(X.param("maxDate")))
        .values("date", S.CREATION_DATE)
        .as_("message")
        .select("friend", "message", "date")
        .order_by((X.binding("date"), "desc"), (X.binding("message"), "asc"),
                  unique=True)
        .limit(20)
    )


def params_ic9(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for IC9."""
    return {
        "person": dataset.random_person(rng),
        "maxDate": rng.randrange(S.MAX_DATE // 2, S.MAX_DATE),
    }


# ---------------------------------------------------------------------------
# IC10 — friend recommendation: strict 2-hop friends with a birthday in the
# window, scored by shared interest tags. The interest overlap is computed
# with a bidirectional join on the tag (person's interests ⋈ foaf's
# interests), then counted per candidate.
# ---------------------------------------------------------------------------


def build_ic10() -> Traversal:
    """Build the IC10 traversal."""
    my_tags = (
        Traversal("IC10.mine")
        .v_param("person")
        .out(S.HAS_INTEREST)
        .as_("myTag")
    )
    # Official IC10 restricts to *strict* 2-hop friends; exact-distance
    # classification is schedule-dependent under async discovery, so we use
    # the deduplicated 2-hop reachable set minus the person (documented
    # simplification; the expansion/filter/join/count mix is unchanged).
    foaf_tags = (
        Traversal("IC10.foaf")
        .v_param("person")
        .out(S.KNOWS)
        .out(S.KNOWS)
        .dedup()
        .filter_(X.vertex().neq(X.param("person")))
        .filter_(
            X.prop(S.BIRTHDAY).ge(X.param("birthdayLo")).and_(
                X.prop(S.BIRTHDAY).lt(X.param("birthdayHi"))
            )
        )
        .as_("foaf")
        .out(S.HAS_INTEREST)
        .as_("foafTag")
    )
    return (
        Traversal.join("IC10", my_tags, "myTag", foaf_tags, "foafTag")
        .group_count("foaf", limit=10)
    )


def params_ic10(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for IC10."""
    lo = rng.randrange(0, 330)
    return {
        "person": dataset.random_person(rng),
        "birthdayLo": lo,
        "birthdayHi": lo + 60,
    }


# ---------------------------------------------------------------------------
# IC11 — job referral: friends (1–2 hops) working at companies in $country
# since before $year (top 10 by start year, then friend id)
# ---------------------------------------------------------------------------


def build_ic11() -> Traversal:
    """Build the IC11 traversal."""
    return (
        Traversal("IC11")
        .v_param("person")
        .khop(S.KNOWS, k=2, dist_binding="dist")
        .filter_(X.binding("dist").ge(1))
        .as_("friend")
        .out(S.WORK_AT, edge_prop=(S.WORK_FROM, "workFrom"))
        .filter_(X.binding("workFrom").lt(X.param("year")))
        .as_("company")
        .out(S.IS_LOCATED_IN)
        .has_param(S.NAME, "countryName")
        .select("friend", "company", "workFrom")
        .order_by((X.binding("workFrom"), "asc"), (X.binding("friend"), "asc"))
        .limit(10)
    )


def params_ic11(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for IC11."""
    return {
        "person": dataset.random_person(rng),
        "countryName": dataset.random_country_name(rng),
        "year": rng.randrange(2000, 2014),
    }


# ---------------------------------------------------------------------------
# IC12 — expert search: friends whose comments reply to posts tagged with a
# tag of class $tagClass, counted per friend (top 20)
# ---------------------------------------------------------------------------


def build_ic12() -> Traversal:
    """Build the IC12 traversal."""
    return (
        Traversal("IC12")
        .v_param("person")
        .out(S.KNOWS)
        .dedup()
        .as_("friend")
        .in_(S.HAS_CREATOR)
        .has_label(S.COMMENT)
        .out(S.REPLY_OF)
        .has_label(S.POST)
        .out(S.HAS_TAG)
        .out(S.HAS_TYPE)
        .has_param(S.NAME, "tagClassName")
        .group_count("friend", limit=20)
    )


def params_ic12(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for IC12."""
    return {
        "person": dataset.random_person(rng),
        "tagClassName": dataset.random_tagclass_name(rng),
    }


# ---------------------------------------------------------------------------
# IC13 — shortest path length between two persons over `knows`
# ([None] ⇒ unreachable within 6 hops ⇒ -1), as a meet-in-the-middle join
# (paper Fig 3's join-centric plan): two 3-hop searches, one from each end,
# instead of one 6-hop flood from person1.
#
# Exact: a shortest path of length L ≤ 6 passes through the vertex min(L, 3)
# hops from person1, which lies at most 3 hops before person2, so the
# minimum of d1 + d2 over meeting vertices is the shortest distance, and
# no meeting vertex gives a sum above 6. person1 == person2 meets at
# distance 0 + 0.
# The backward side follows `knows` *into* person2 (direction "in"), so a
# path is only counted along its edges' direction; SNB happens to store
# `knows` both ways, but the plan does not rely on it.
# Both sides emit every improvement, not the first distance reached: an
# async search can reach a vertex first by a longer path, and the join
# must see the shortest d1 and d2 for the min to be exact.
# ---------------------------------------------------------------------------


def build_ic13() -> Traversal:
    """Build the IC13 traversal."""
    fwd = (
        Traversal("IC13.fromP1")
        .v_param("person1")
        .khop(S.KNOWS, k=3, dist_binding="d1", emit="improving")
        .as_("mid1")
    )
    bwd = (
        Traversal("IC13.toP2")
        .v_param("person2")
        .khop(S.KNOWS, k=3, direction="in", dist_binding="d2", emit="improving")
        .as_("mid2")
    )
    return (
        Traversal.join("IC13", fwd, "mid1", bwd, "mid2")
        .project(dist=X.binding("d1").add(X.binding("d2")))
        .min_("dist")
    )


def params_ic13(dataset: SNBDataset, rng: random.Random) -> Dict[str, Any]:
    """Generate parameters for IC13."""
    p1 = dataset.random_person(rng)
    p2 = dataset.random_person(rng)
    while p2 == p1 and len(dataset.persons) > 1:
        p2 = dataset.random_person(rng)
    return {"person1": p1, "person2": p2}


# ---------------------------------------------------------------------------
# IC14 — trusted connection paths between two persons (simplified: the
# minimum combined meeting distance over a bidirectional 2-hop join — both
# endpoints expand simultaneously and meet in the middle, paper Fig 3's
# join-centric plan applied to path search)
#
# Both sides expand `out`, so the side from person2 walks paths *away from*
# it. That equals walking `knows` into person2 only because the generator
# adds every `knows` edge in both directions (generator.py, the friend
# loop); tests/test_ldbc_generator.py fails if it stops doing so.
# ---------------------------------------------------------------------------


def build_ic14() -> Traversal:
    """Build the IC14 traversal."""
    side_a = (
        Traversal("IC14.fromP1")
        .v_param("person1")
        .khop(S.KNOWS, k=2, dist_binding="d1", emit="improving")
        .as_("mid1")
    )
    side_b = (
        Traversal("IC14.fromP2")
        .v_param("person2")
        .khop(S.KNOWS, k=2, dist_binding="d2", emit="improving")
        .as_("mid2")
    )
    return (
        Traversal.join("IC14", side_a, "mid1", side_b, "mid2")
        .project(total=X.binding("d1").add(X.binding("d2")))
        .min_("total")
    )


params_ic14 = params_ic13


IC_QUERIES: Dict[int, QueryDef] = {
    1: QueryDef(1, "IC1", "transitive friends by first name", build_ic1, params_ic1),
    2: QueryDef(2, "IC2", "recent messages by friends", build_ic2, params_ic2),
    3: QueryDef(3, "IC3", "friends posting from a country", build_ic3, params_ic3),
    4: QueryDef(4, "IC4", "new topics on friends' posts", build_ic4, params_ic4),
    5: QueryDef(5, "IC5", "new groups joined by friends", build_ic5, params_ic5),
    6: QueryDef(6, "IC6", "co-occurring tags (join)", build_ic6, params_ic6),
    7: QueryDef(7, "IC7", "recent likers", build_ic7, params_ic7),
    8: QueryDef(8, "IC8", "recent replies", build_ic8, params_ic8),
    9: QueryDef(9, "IC9", "recent messages within 2 hops", build_ic9, params_ic9),
    10: QueryDef(10, "IC10", "friend recommendation (join)", build_ic10, params_ic10),
    11: QueryDef(11, "IC11", "job referral", build_ic11, params_ic11),
    12: QueryDef(12, "IC12", "expert search", build_ic12, params_ic12),
    13: QueryDef(13, "IC13", "shortest knows-path length", build_ic13, params_ic13),
    14: QueryDef(14, "IC14", "trusted connection paths (join)", build_ic14, params_ic14),
}
