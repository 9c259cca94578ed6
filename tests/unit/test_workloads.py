"""Unit tests for the workload generators."""

import pytest

from repro.workloads import (
    ARRAYS_PER_REQUEST,
    ConsistencyWorkload,
    ELEMENTS_PER_ARRAY,
    FIGURE5_TOTAL_SIZES,
    LocalityWorkloadKeys,
    SocialWorkloadGenerator,
    make_arrays,
    sum_arrays,
    total_bytes,
)
from repro.workloads import dags
from repro.workloads.dags import sink_write, string_manipulation


class TestArrayWorkload:
    def test_figure5_sizes_cover_paper_range(self):
        assert FIGURE5_TOTAL_SIZES == ("80KB", "800KB", "8MB", "80MB")
        assert ELEMENTS_PER_ARRAY["80KB"] == 1_000
        assert ELEMENTS_PER_ARRAY["80MB"] == 1_000_000

    def test_make_arrays_shape_and_total_bytes(self):
        arrays = make_arrays("80KB")
        assert len(arrays) == ARRAYS_PER_REQUEST
        assert all(a.size == 1_000 for a in arrays)
        assert total_bytes("80KB") == 80_000

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            make_arrays("1GB")

    def test_sum_arrays_correct(self):
        arrays = make_arrays("80KB", seed=3)
        expected = sum(float(a.sum()) for a in arrays)
        assert sum_arrays(*arrays) == pytest.approx(expected)

    def test_key_helpers(self):
        shared = LocalityWorkloadKeys.shared("8MB")
        assert len(set(shared.keys)) == ARRAYS_PER_REQUEST
        assert all(key.startswith("locality/8MB/shared/") for key in shared.keys)


class TestConsistencyWorkload:
    def test_functions_produce_strings(self):
        class FakeLibrary:
            def put(self, key, value):
                self.written = (key, value)

        assert isinstance(string_manipulation(None, "a", "b"), str)
        library = FakeLibrary()
        result = sink_write(library, "x", "y", "target-key")
        assert library.written[0] == "target-key"
        assert library.written[1] == result

    def test_sample_request_reads_then_sink_writes_a_read_key(self, monkeypatch):
        monkeypatch.setattr(dags, "KEY_COUNT", 100)
        workload = ConsistencyWorkload(dag_count=5, seed=1)
        from repro.cloudburst import Dag

        dag = Dag.chain("d", ["f1", "f2", "f3"])
        function_args, sink_key = workload.sample_request(dag)
        read_keys = [ref.key for args in function_args.values()
                     for ref in args if hasattr(ref, "key")]
        assert sink_key in read_keys
        # The sink's final argument is the key it must write.
        assert function_args["f3"][-1] == sink_key

    def test_key_sampling_respects_populated_range(self):
        workload = ConsistencyWorkload(dag_count=1, seed=2)
        workload._available_keys = 50
        indices = {workload._sample_key_index() for _ in range(500)}
        assert all(index < 50 for index in indices)

    def test_zipf_skew_in_sampling(self, monkeypatch):
        monkeypatch.setattr(dags, "KEY_COUNT", 1_000)
        workload = ConsistencyWorkload(dag_count=1, seed=3)
        draws = [workload._sample_key_index() for _ in range(2_000)]
        assert draws.count(0) > draws.count(500)


class TestSocialWorkload:
    def test_graph_shape(self):
        generator = SocialWorkloadGenerator(user_count=50, followees_per_user=10,
                                            seed_tweet_count=100, seed=1)
        graph = generator.build_graph()
        assert graph.user_count == 50
        assert all(len(followees) == 10 for followees in graph.follows.values())
        assert all(user not in followees
                   for user, followees in graph.follows.items())
        assert len(graph.seed_tweets) == 100

    def test_roughly_half_of_seed_tweets_are_replies(self):
        generator = SocialWorkloadGenerator(user_count=50, seed_tweet_count=400, seed=2)
        graph = generator.build_graph()
        replies = sum(1 for _, _, parent in graph.seed_tweets if parent is not None)
        assert 100 < replies < 300

    def test_followers_of_inverts_follow_edges(self):
        generator = SocialWorkloadGenerator(user_count=20, followees_per_user=3, seed=3)
        graph = generator.build_graph()
        some_user = graph.users[0]
        for follower in graph.followers_of(some_user):
            assert some_user in graph.follows[follower]

    def test_request_stream_mix(self):
        generator = SocialWorkloadGenerator(user_count=50, write_fraction=0.1, seed=4)
        stream = generator.request_stream(1_000)
        posts = sum(1 for request in stream if request.kind == "post")
        assert 50 < posts < 200
        assert all(request.kind in ("post", "timeline") for request in stream)

    def test_popular_users_receive_more_follows(self):
        # Follows are drawn Zipf(social.ZIPF_COEFFICIENT = 1.5) over the users.
        generator = SocialWorkloadGenerator(user_count=100, followees_per_user=10, seed=5)
        graph = generator.build_graph()
        follower_counts = [len(graph.followers_of(user)) for user in graph.users]
        assert max(follower_counts) > 3 * (sum(follower_counts) / len(follower_counts))
