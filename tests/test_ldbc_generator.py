"""Tests for the synthetic LDBC SNB dataset generator."""

import pytest

from repro.ldbc import schema as S
from repro.ldbc.generator import (
    SNB_SF1000_SIM,
    SNB_SF300_SIM,
    SNB_TINY,
    SNBConfig,
    generate_snb,
)


@pytest.fixture(scope="module")
def tiny():
    return generate_snb(SNB_TINY)


class TestStructure:
    def test_deterministic(self):
        a = generate_snb(SNB_TINY)
        b = generate_snb(SNB_TINY)
        assert a.graph.vertex_count == b.graph.vertex_count
        assert a.graph.edge_count == b.graph.edge_count
        assert a.persons == b.persons

    def test_entity_counts(self, tiny):
        assert len(tiny.persons) == SNB_TINY.persons
        assert len(tiny.countries) == SNB_TINY.countries
        assert len(tiny.cities) == SNB_TINY.countries * SNB_TINY.cities_per_country
        assert len(tiny.universities) == SNB_TINY.universities
        assert len(tiny.companies) == SNB_TINY.companies
        assert tiny.forums and tiny.posts and tiny.comments and tiny.tags

    def test_all_vertices_have_id_property(self, tiny):
        for vid in list(tiny.graph.vertices())[:200]:
            assert tiny.graph.get_vertex_property(vid, "id") == vid

    def test_person_properties_complete(self, tiny):
        for p in tiny.persons[:20]:
            props = tiny.graph.vertex_properties(p)
            for key in (S.FIRST_NAME, S.LAST_NAME, S.GENDER, S.BIRTHDAY,
                        S.CREATION_DATE, S.LOCATION_IP, S.BROWSER_USED):
                assert key in props

    @staticmethod
    def assert_every_knows_edge_has_its_reverse(g):
        edges = {(p, f) for p in g.vertices()
                 for f in g.out_neighbors(p, S.KNOWS)}
        assert edges
        assert {(f, p) for p, f in edges} == edges

    def test_knows_is_mutual(self, tiny):
        """IC14's backward side expands `out` from person2, which is only
        right while every `knows` edge is stored both ways."""
        self.assert_every_knows_edge_has_its_reverse(tiny.graph)

    def test_knows_is_mutual_at_sf300(self):
        """The same on the graph the LDBC benchmarks run."""
        self.assert_every_knows_edge_has_its_reverse(
            generate_snb(SNB_SF300_SIM).graph)

    def test_every_person_located_in_a_city(self, tiny):
        g = tiny.graph
        for p in tiny.persons[:50]:
            cities = [v for v in g.out_neighbors(p, S.IS_LOCATED_IN)
                      if g.vertex_label(v) == S.CITY]
            assert len(cities) == 1

    def test_place_hierarchy(self, tiny):
        g = tiny.graph
        for city in tiny.cities[:10]:
            countries = g.out_neighbors(city, S.IS_PART_OF)
            assert len(countries) == 1
            assert g.vertex_label(countries[0]) == S.COUNTRY
            continents = g.out_neighbors(countries[0], S.IS_PART_OF)
            assert g.vertex_label(continents[0]) == S.CONTINENT

    def test_posts_have_forum_creator_country_tags(self, tiny):
        g = tiny.graph
        for post in tiny.posts[:30]:
            assert g.in_neighbors(post, S.CONTAINER_OF)  # forum
            creators = g.out_neighbors(post, S.HAS_CREATOR)
            assert len(creators) == 1
            assert g.vertex_label(creators[0]) == S.PERSON
            assert g.out_neighbors(post, S.HAS_TAG)
            located = g.out_neighbors(post, S.IS_LOCATED_IN)
            assert g.vertex_label(located[0]) == S.COUNTRY

    def test_comments_reply_chains_reach_posts(self, tiny):
        g = tiny.graph
        for comment in tiny.comments[:40]:
            node = comment
            for _ in range(100):
                parents = g.out_neighbors(node, S.REPLY_OF)
                assert len(parents) == 1
                node = parents[0]
                if g.vertex_label(node) == S.POST:
                    break
            else:
                pytest.fail("reply chain did not terminate at a post")

    def test_comment_dates_after_their_post(self, tiny):
        g = tiny.graph
        for comment in tiny.comments[:40]:
            parents = g.out_neighbors(comment, S.REPLY_OF)
            c_date = g.get_vertex_property(comment, S.CREATION_DATE)
            p_date = g.get_vertex_property(parents[0], S.CREATION_DATE)
            assert c_date >= p_date or g.vertex_label(parents[0]) == S.COMMENT

    def test_member_edges_carry_join_date(self, tiny):
        g = tiny.graph
        forum = tiny.forums[0]
        edges = g.out_edges(forum, S.HAS_MEMBER)
        assert edges
        assert all(S.JOIN_DATE in e.properties for e in edges)


class TestScaleConfigs:
    def test_sf_ratio_preserved(self):
        assert SNB_SF1000_SIM.persons == 3 * SNB_SF300_SIM.persons

    def test_partitioned_builds_default_indexes(self, tiny):
        pg = tiny.partitioned(4)
        for label, key in S.DEFAULT_INDEXES:
            assert pg.has_index(label, key)

    def test_param_helpers(self, tiny):
        import random

        rng = random.Random(0)
        assert tiny.random_person(rng) in tiny.persons
        assert tiny.random_tag_name(rng).startswith("tag_")
        assert tiny.random_country_name(rng).startswith("country_")
        assert tiny.random_tagclass_name(rng) in [
            "Thing", "Person", "Organisation", "Place", "Work", "Event",
            "Artist", "Politician", "Athlete", "Scientist",
        ]
        assert set(tiny.messages) == set(tiny.posts) | set(tiny.comments)
