// Unit tests for the parallelism planner (parallel::Plan), the sharded
// collectives (comm/shard), and the sliced optimizer path — the pieces
// whose composition makes a ZeRO-1 sharded step bitwise identical to the
// replicated step (docs/PARALLELISM.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "autograd/parameter.hpp"
#include "comm/allreduce.hpp"
#include "comm/bucket.hpp"
#include "comm/shard.hpp"
#include "common/digest.hpp"
#include "optim/adam.hpp"
#include "optim/sgd.hpp"
#include "parallel/plan.hpp"
#include "rng/sampling.hpp"
#include "sim/shard_cost.hpp"

namespace easyscale {
namespace {

using comm::BucketLayout;
using comm::BucketManager;
using comm::GradientSet;
using parallel::ChunkBounds;
using parallel::Plan;

// --- Fixtures ---------------------------------------------------------

/// A small multi-parameter model surrogate whose sizes do not divide
/// evenly into 16 chunks (forces chunk boundaries inside parameters).
struct Params {
  autograd::Parameter a{"a", tensor::Shape{37}};
  autograd::Parameter b{"b", tensor::Shape{5, 5}};
  autograd::Parameter c{"c", tensor::Shape{3}};
  autograd::Parameter d{"d", tensor::Shape{19}};
  autograd::ParameterStore store;

  Params() {
    store.register_parameter(&a);
    store.register_parameter(&b);
    store.register_parameter(&c);
    store.register_parameter(&d);
  }
};

void randomize(autograd::ParameterStore& store, std::uint64_t seed) {
  rng::Philox gen(seed);
  for (auto* p : store.all()) {
    rng::fill_normal(gen, p->value.data(), 0.0f, 1.0f);
    rng::fill_normal(gen, p->grad.data(), 0.0f, 1.0f);
  }
}

std::uint64_t values_digest(const autograd::ParameterStore& store) {
  Digest d;
  for (const auto* p : store.all()) d.update(p->value.data());
  return d.value();
}

// --- Planner ----------------------------------------------------------

TEST(Planner, PartitionChunksCoversSpaceContiguously) {
  for (std::int64_t n : {0, 1, 15, 16, 17, 100, 8901}) {
    for (int chunks : {1, 2, 7, 16}) {
      const auto bounds = parallel::partition_chunks(n, chunks);
      ASSERT_EQ(static_cast<int>(bounds.size()), chunks);
      std::int64_t expected = 0;
      for (const auto& c : bounds) {
        EXPECT_EQ(c.begin, expected);
        EXPECT_GE(c.end, c.begin);
        expected = c.end;
      }
      EXPECT_EQ(expected, n);
      // Near-equal: chunk sizes differ by at most one element.
      std::int64_t lo = n, hi = 0;
      for (const auto& c : bounds) {
        lo = std::min(lo, c.end - c.begin);
        hi = std::max(hi, c.end - c.begin);
      }
      EXPECT_LE(hi - lo, 1);
    }
  }
}

TEST(Planner, ChunkBoundsIndependentOfShardDegree) {
  Params p;
  const Plan d1 = parallel::make_plan(4, 1, p.store);
  const Plan d2 = parallel::make_plan(4, 2, p.store);
  const Plan d4 = parallel::make_plan(4, 4, p.store);
  EXPECT_EQ(d1.chunks, d2.chunks);
  EXPECT_EQ(d2.chunks, d4.chunks);
  // And of world size: the partition is a function of the model alone.
  EXPECT_EQ(parallel::make_plan(8, 2, p.store).chunks, d2.chunks);
}

TEST(Planner, InterleavedOwnership) {
  Params p;
  const Plan plan = parallel::make_plan(8, 4, p.store);
  EXPECT_EQ(plan.data_replicas(), 2);
  for (int r = 0; r < 8; ++r) EXPECT_EQ(plan.shard_index(r), r % 4);
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
    EXPECT_EQ(plan.chunk_owner(c), static_cast<int>(c) % 4);
    EXPECT_EQ(plan.canonical_rank(c), plan.chunk_owner(c));
  }
}

TEST(Planner, ShardSlicesPartitionTheFlattenedSpace) {
  Params p;
  const Plan plan = parallel::make_plan(4, 4, p.store);
  // Union of all shards' slices covers every element exactly once.
  std::vector<int> covered(static_cast<std::size_t>(p.store.total_numel()),
                           0);
  std::vector<std::int64_t> param_base;
  std::int64_t base = 0;
  for (const auto* prm : p.store.all()) {
    param_base.push_back(base);
    base += prm->value.numel();
  }
  for (int s = 0; s < plan.shard_degree; ++s) {
    for (const auto& sl : parallel::slices_for_shard(plan, p.store, s)) {
      for (std::int64_t i = sl.begin; i < sl.end; ++i) {
        ++covered[static_cast<std::size_t>(param_base[sl.param] + i)];
      }
    }
  }
  for (std::size_t i = 0; i < covered.size(); ++i) {
    EXPECT_EQ(covered[i], 1) << "element " << i;
  }
}

TEST(Planner, GatherMapSourcesAreCanonicalRanks) {
  Params p;
  const Plan plan = parallel::make_plan(4, 2, p.store);
  const auto map = parallel::gather_map(plan, p.store);
  ASSERT_EQ(map.slices.size(), map.source_of_slice.size());
  EXPECT_EQ(comm::slices_numel(map.slices), p.store.total_numel());
  for (const int src : map.source_of_slice) {
    EXPECT_GE(src, 0);
    EXPECT_LT(src, plan.shard_degree);  // canonical ranks are 0..D-1
  }
}

TEST(Planner, RejectsDegreeNotDividingWorld) {
  Params p;
  EXPECT_THROW(parallel::make_plan(4, 3, p.store), Error);
  EXPECT_THROW(parallel::make_plan(4, 0, p.store), Error);
  // Every shard must own at least one chunk.
  EXPECT_THROW(parallel::make_plan(32, 32, p.store, /*num_chunks=*/16),
               Error);
}

TEST(Planner, PlanSerializationRoundTrip) {
  Params p;
  const Plan plan = parallel::make_plan(8, 2, p.store);
  ByteWriter w;
  plan.save(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(Plan::load(r), plan);
}

// --- Sharded collectives ----------------------------------------------

struct World {
  std::vector<Params> ranks;
  std::vector<GradientSet> sets;
  std::vector<GradientSet*> parts;
  BucketLayout layout;

  explicit World(int world_size, std::uint64_t seed = 99) {
    ranks.resize(static_cast<std::size_t>(world_size));
    for (int r = 0; r < world_size; ++r) {
      auto& store = ranks[static_cast<std::size_t>(r)].store;
      randomize(store, seed + static_cast<std::uint64_t>(r));
      sets.push_back(GradientSet::from_store(store));
    }
    for (auto& s : sets) parts.push_back(&s);
    layout = BucketManager(ranks[0].store, 64).initial_layout();
  }
};

std::vector<comm::ShardSlices> owned_for(const Plan& plan,
                                         const autograd::ParameterStore& ps) {
  std::vector<comm::ShardSlices> owned;
  for (int r = 0; r < plan.world_size; ++r) {
    owned.push_back(
        parallel::slices_for_shard(plan, ps, plan.shard_index(r)));
  }
  return owned;
}

TEST(ShardCollectives, ReduceScatterOwnedElementsMatchAllreduceBitwise) {
  World ref(4), shard(4);
  comm::allreduce_average(ref.layout, ref.parts);

  const Plan plan = parallel::make_plan(4, 2, shard.ranks[0].store);
  const auto owned = owned_for(plan, shard.ranks[0].store);
  comm::reduce_scatter_average(shard.layout, shard.parts, owned);

  // Every owned element carries exactly the allreduce_average bits.
  for (int r = 0; r < 4; ++r) {
    for (const auto& sl : owned[static_cast<std::size_t>(r)]) {
      const auto& got = shard.sets[static_cast<std::size_t>(r)]
                            .grads[sl.param];
      const auto& want = ref.sets[static_cast<std::size_t>(r)]
                             .grads[sl.param];
      for (std::int64_t i = sl.begin; i < sl.end; ++i) {
        ASSERT_EQ(got.at(i), want.at(i))
            << "rank " << r << " param " << sl.param << " elem " << i;
      }
    }
  }
}

TEST(ShardCollectives, BucketVariantEqualsWholeCollective) {
  World a(4), b(4);
  const Plan plan = parallel::make_plan(4, 4, a.ranks[0].store);
  const auto owned = owned_for(plan, a.ranks[0].store);
  comm::reduce_scatter_average(a.layout, a.parts, owned);
  const std::vector<GradientSet*> const_parts(b.parts.begin(),
                                              b.parts.end());
  for (std::size_t bk = 0; bk < b.layout.num_buckets(); ++bk) {
    comm::reduce_scatter_average_bucket(b.layout, bk, const_parts, owned);
  }
  for (int r = 0; r < 4; ++r) {
    for (std::size_t t = 0; t < a.sets[0].grads.size(); ++t) {
      EXPECT_EQ(
          digest_floats(a.sets[static_cast<std::size_t>(r)].grads[t].data()),
          digest_floats(b.sets[static_cast<std::size_t>(r)].grads[t].data()));
    }
  }
}

TEST(ShardCollectives, AllGatherPublishesCanonicalBytes) {
  World w(4);
  const Plan plan = parallel::make_plan(4, 2, w.ranks[0].store);
  const auto map = parallel::gather_map(plan, w.ranks[0].store);
  std::vector<autograd::ParameterStore*> stores;
  for (auto& rk : w.ranks) stores.push_back(&rk.store);
  comm::all_gather_params(stores, map.slices, map.source_of_slice);
  // Every store now agrees bitwise, and each slice equals its source's.
  const auto d0 = values_digest(w.ranks[0].store);
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(values_digest(w.ranks[static_cast<std::size_t>(r)].store), d0);
  }
}

TEST(ShardCollectives, ValidationNamesTheBadParameter) {
  World w(2);
  const Plan plan = parallel::make_plan(2, 2, w.ranks[0].store);
  auto owned = owned_for(plan, w.ranks[0].store);

  {  // Wrong owned_of_part arity.
    auto bad = owned;
    bad.pop_back();
    try {
      comm::validate_reduce_scatter_inputs(w.layout, w.parts, bad);
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("owned_of_part"),
                std::string::npos);
    }
  }
  {  // Slice bounds outside the gradient.
    auto bad = owned;
    bad[0].push_back({.param = 0, .begin = 0, .end = 1 << 20});
    EXPECT_THROW(comm::validate_reduce_scatter_inputs(w.layout, w.parts, bad),
                 Error);
  }
  {  // One rank's slices overlapping on a parameter.
    auto bad = owned;
    bad[0].push_back(bad[0].front());
    EXPECT_THROW(comm::validate_reduce_scatter_inputs(w.layout, w.parts, bad),
                 Error);
  }
  {  // all_gather: source index out of range.
    const auto map = parallel::gather_map(plan, w.ranks[0].store);
    std::vector<autograd::ParameterStore*> stores{&w.ranks[0].store,
                                                  &w.ranks[1].store};
    auto sources = map.source_of_slice;
    sources[0] = 7;
    try {
      comm::validate_all_gather_inputs(stores, map.slices, sources);
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("source_of_slice"),
                std::string::npos);
    }
  }
}

TEST(ShardCollectives, CrossRankRepetitionIsAllowed) {
  // Redundant shard columns (data_replicas > 1) own identical chunks; the
  // validator must accept repetition ACROSS ranks.
  World w(4);
  const Plan plan = parallel::make_plan(4, 2, w.ranks[0].store);
  const auto owned = owned_for(plan, w.ranks[0].store);
  EXPECT_EQ(owned[0], owned[2]);  // same shard column
  EXPECT_NO_THROW(
      comm::validate_reduce_scatter_inputs(w.layout, w.parts, owned));
}

// --- Sliced optimizer path --------------------------------------------

template <typename Opt>
void expect_sliced_union_equals_full_step(const typename Opt::Options& cfg) {
  Params full, sliced;
  randomize(full.store, 7);
  randomize(sliced.store, 7);
  Opt opt_full(full.store, cfg);
  Opt opt_sliced(sliced.store, cfg);
  const Plan plan = parallel::make_plan(4, 4, full.store);

  for (int step = 0; step < 3; ++step) {
    opt_full.step();
    // The sliced twin applies the same update as four shard owners would,
    // one step_slices call per optimizer instance per step (each call
    // advances Adam's bias-correction counter once; here one instance
    // plays all four owners, so slices are batched into ONE call).
    comm::ShardSlices all;
    for (int s = 0; s < 4; ++s) {
      const auto part = parallel::slices_for_shard(plan, sliced.store, s);
      all.insert(all.end(), part.begin(), part.end());
    }
    opt_sliced.step_slices(all);
  }
  EXPECT_EQ(values_digest(full.store), values_digest(sliced.store));
  // Optimizer state matches bitwise too.
  ByteWriter wf, ws;
  opt_full.save(wf);
  opt_sliced.save(ws);
  EXPECT_EQ(wf.bytes().size(), ws.bytes().size());
  EXPECT_TRUE(std::equal(wf.bytes().begin(), wf.bytes().end(),
                         ws.bytes().begin()));
}

TEST(ShardOptimizer, SGDSliceUnionMatchesFullStepBitwise) {
  expect_sliced_union_equals_full_step<optim::SGD>(
      {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 1e-4f});
}

TEST(ShardOptimizer, AdamSliceUnionMatchesFullStepBitwise) {
  expect_sliced_union_equals_full_step<optim::Adam>(optim::Adam::Options{});
}

TEST(ShardOptimizer, StateTensorsShadowParameters) {
  Params p;
  optim::SGD sgd(p.store, {.lr = 0.1f, .momentum = 0.9f});
  EXPECT_EQ(sgd.state_tensors().size(), p.store.all().size());
  optim::Adam adam(p.store, optim::Adam::Options{});
  // Adam: m tensors then v tensors, each shadowing param t % P.
  const auto st = adam.state_tensors();
  ASSERT_EQ(st.size(), 2 * p.store.all().size());
  for (std::size_t t = 0; t < st.size(); ++t) {
    EXPECT_EQ(st[t]->numel(),
              p.store.all()[t % p.store.all().size()]->value.numel());
  }
}

// --- Cost model (sim/shard_cost) --------------------------------------

TEST(ShardCost, StateShrinksCommStaysFlat) {
  Params p;
  const std::int64_t n = p.store.total_numel();
  const Plan rep = parallel::make_plan(4, 1, p.store);
  const Plan shd = parallel::make_plan(4, 4, p.store);
  const auto rep_cost = sim::shard_step_cost(rep, 2 * n, 0);
  EXPECT_EQ(rep_cost.param_bytes, 4 * n);
  EXPECT_EQ(rep_cost.state_bytes, 8 * n);  // two state tensors per element
  std::int64_t covered = 0;
  for (int r = 0; r < 4; ++r) {
    const auto cost = sim::shard_step_cost(shd, 2 * n, r);
    EXPECT_LT(cost.memory_high_water(), rep_cost.memory_high_water());
    EXPECT_EQ(cost.comm_bytes, rep_cost.comm_bytes);  // ZeRO-1: same wire
    // Resident state is exactly the owned slices' share of the real plan.
    EXPECT_EQ(cost.state_bytes,
              8 * comm::slices_numel(parallel::slices_for_shard(
                      shd, p.store, shd.shard_index(r))));
    covered += sim::owned_numel(shd, r);
  }
  EXPECT_EQ(covered, n);  // the four shards tile the space exactly
}

TEST(ShardCost, RejectsFractionalStateMultiple) {
  Params p;
  const Plan plan = parallel::make_plan(4, 2, p.store);
  EXPECT_THROW((void)sim::shard_step_cost(plan, p.store.total_numel() + 1, 0),
               Error);
  EXPECT_THROW((void)sim::shard_step_cost(plan, p.store.total_numel(), 9),
               Error);
}

TEST(ShardOptimizer, SliceBoundsAreChecked) {
  Params p;
  optim::SGD sgd(p.store, {.lr = 0.1f});
  EXPECT_THROW(sgd.step_slices({{.param = 99, .begin = 0, .end = 1}}), Error);
  EXPECT_THROW(sgd.step_slices({{.param = 0, .begin = 0, .end = 1 << 20}}),
               Error);
}

}  // namespace
}  // namespace easyscale
