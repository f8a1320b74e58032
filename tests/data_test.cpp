#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <thread>

#include "common/digest.hpp"
#include "data/dataset.hpp"
#include "data/loader.hpp"
#include "data/pipeline.hpp"
#include "data/sampler.hpp"
#include "tensor/ops.hpp"

namespace easyscale::data {
namespace {

std::uint64_t batch_digest(const Batch& b) {
  Digest d;
  if (b.x.defined()) d.update(b.x.data());
  for (auto id : b.ids.data()) d.update_u64(static_cast<std::uint64_t>(id));
  for (auto y : b.y.data()) d.update_u64(static_cast<std::uint64_t>(y));
  if (b.target.defined()) d.update(b.target.data());
  return d.value();
}

TEST(Datasets, ImageGetIsPureFunctionOfIndex) {
  SyntheticImageDataset ds(64, 10, 3, 8, 8, 42);
  const Sample a = ds.get(17);
  const Sample b = ds.get(17);
  EXPECT_EQ(tensor::max_abs_diff(a.x, b.x), 0.0f);
  EXPECT_EQ(a.label, b.label);
  const Sample c = ds.get(18);
  EXPECT_GT(tensor::max_abs_diff(a.x, c.x), 0.0f);
}

TEST(Datasets, SampleSaltKeepsPrototypes) {
  SyntheticImageDataset train(64, 10, 3, 8, 8, 42, 0);
  SyntheticImageDataset test(64, 10, 3, 8, 8, 42, 1);
  // Same index, same label, different sample noise.
  const Sample a = train.get(0);
  const Sample b = test.get(0);
  EXPECT_EQ(a.label, b.label);
  EXPECT_GT(tensor::max_abs_diff(a.x, b.x), 0.0f);
}

TEST(Datasets, DetectionTargetMatchesObject) {
  SyntheticDetectionDataset ds(32, 8, 8, 7);
  for (std::int64_t i = 0; i < 8; ++i) {
    const Sample s = ds.get(i);
    ASSERT_EQ(s.target.size(), 4u);
    EXPECT_GE(s.target[0], 0.0f);
    EXPECT_LE(s.target[0], 1.0f);
    EXPECT_EQ(s.target[3], 1.0f);  // objectness
  }
}

TEST(Datasets, RecIdsWithinRange) {
  SyntheticRecDataset ds(128, 64, 64, 3);
  for (std::int64_t i = 0; i < 32; ++i) {
    const Sample s = ds.get(i);
    EXPECT_LT(s.ids[0], 64);
    EXPECT_LT(s.ids[1], 64);
    EXPECT_EQ(s.label, (i % 2) == 0 ? 1 : 0);
  }
}

TEST(Datasets, QASpanIsPlanted) {
  SyntheticQADataset ds(32, 64, 16, 5);
  for (std::int64_t i = 0; i < 16; ++i) {
    const Sample s = ds.get(i);
    EXPECT_EQ(s.ids[static_cast<std::size_t>(s.label)], 63);
  }
}

/// Property sweep over (world_size, batch_size).
class SamplerPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SamplerPropertyTest, ShardsPartitionTheEpoch) {
  const auto [world, batch] = GetParam();
  const std::int64_t n = 96;
  std::multiset<std::int64_t> seen;
  std::int64_t shard_len = -1;
  for (int r = 0; r < world; ++r) {
    DistributedSampler s(n, world, r, batch, 99);
    std::vector<std::int64_t> shard;
    for (std::int64_t step = 0; step < s.steps_per_epoch(); ++step) {
      for (auto idx : s.batch_indices(step)) shard.push_back(idx);
    }
    if (shard_len < 0) shard_len = static_cast<std::int64_t>(shard.size());
    EXPECT_EQ(static_cast<std::int64_t>(shard.size()), shard_len)
        << "unequal shards";
    seen.insert(shard.begin(), shard.end());
  }
  // Every index in range, near-uniform coverage (padding may duplicate).
  for (auto idx : seen) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, n);
  }
  std::set<std::int64_t> unique(seen.begin(), seen.end());
  EXPECT_GE(static_cast<std::int64_t>(unique.size()),
            shard_len * world - world * batch);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, SamplerPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(1, 4, 8)));

TEST(Sampler, RanksAreDisjointWithinEpoch) {
  const std::int64_t n = 64;  // divisible: no padding duplicates
  std::set<std::int64_t> seen;
  for (int r = 0; r < 4; ++r) {
    DistributedSampler s(n, 4, r, 4, 1);
    for (std::int64_t step = 0; step < s.steps_per_epoch(); ++step) {
      for (auto idx : s.batch_indices(step)) {
        EXPECT_TRUE(seen.insert(idx).second) << "index " << idx << " repeated";
      }
    }
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Sampler, EpochsReshuffle) {
  DistributedSampler s(64, 2, 0, 4, 1);
  const auto e0 = s.batch_indices(0);
  s.set_epoch(1);
  const auto e1 = s.batch_indices(0);
  EXPECT_NE(e0, e1);
  s.set_epoch(0);
  EXPECT_EQ(s.batch_indices(0), e0);  // epochs are reproducible
}

TEST(Sampler, OversizedBatchThrows) {
  EXPECT_THROW(DistributedSampler(16, 4, 0, 8, 1), Error);
}

TEST(Datasets, FillOverwritesAReusedSample) {
  // fill() into a sample that last held another dataset's sample must
  // leave exactly what get() returns.
  SyntheticImageDataset image(16, 10, 3, 8, 8, 42);
  SyntheticDetectionDataset detection(16, 8, 8, 42);
  SyntheticRecDataset rec(16, 64, 64, 42);
  SyntheticQADataset qa(16, 64, 16, 42);
  const Dataset* datasets[] = {&image, &detection, &rec, &qa, &image, &rec};
  Sample reused;
  for (int round = 0; round < 2; ++round) {
    for (const Dataset* ds : datasets) {
      for (std::int64_t i : {3, 4}) {
        ds->fill(i, reused);
        const Sample fresh = ds->get(i);
        ASSERT_EQ(reused.x.defined(), fresh.x.defined()) << ds->name();
        if (fresh.x.defined()) {
          EXPECT_EQ(reused.x.shape(), fresh.x.shape()) << ds->name();
          EXPECT_EQ(std::memcmp(reused.x.raw(), fresh.x.raw(),
                                static_cast<std::size_t>(fresh.x.numel()) *
                                    sizeof(float)),
                    0)
              << ds->name();
        }
        EXPECT_EQ(reused.ids, fresh.ids) << ds->name();
        EXPECT_EQ(reused.label, fresh.label) << ds->name();
        EXPECT_EQ(reused.target, fresh.target) << ds->name();
      }
    }
  }
}

TEST(Augment, AdvanceMatchesActualDraws) {
  AugmentConfig cfg;
  rng::StreamSet a, b;
  a.seed_all(5, 0);
  b.seed_all(5, 0);
  SyntheticImageDataset ds(8, 10, 3, 8, 8, 1);
  tensor::Tensor spare;
  for (std::int64_t i = 0; i < 8; ++i) {
    Sample s = ds.get(i);
    augment_image(cfg, a, s, spare);
  }
  advance_augment_streams(cfg, b, 8);
  EXPECT_EQ(a.state(), b.state());
}

TEST(Augment, DisabledConsumesNothing) {
  AugmentConfig cfg;
  cfg.enabled = false;
  rng::StreamSet a;
  a.seed_all(5, 0);
  const auto before = a.state();
  advance_augment_streams(cfg, a, 100);
  EXPECT_EQ(a.state(), before);
}

TEST(Pipeline, NextMatchesPoolProcessing) {
  SyntheticImageDataset ds(64, 10, 3, 8, 8, 42);
  AugmentConfig aug;
  RankDataPipeline direct(ds, aug, 2, 0, 4, 42);
  RankDataPipeline producer(ds, aug, 2, 0, 4, 42);
  LoaderConfig lc;
  lc.num_workers = 3;
  lc.augment = aug;
  SharedDataWorkerPool pool(ds, lc);
  for (std::int64_t step = 0; step < 6; ++step) {
    pool.enqueue(producer.make_item());
  }
  for (std::int64_t step = 0; step < 6; ++step) {
    const Batch a = direct.next();
    const Batch b = pool.get(0, step);
    EXPECT_EQ(batch_digest(a), batch_digest(b)) << "step " << step;
  }
}

TEST(Pipeline, AssemblerMatchesCollateOfFreshSamples) {
  // One assembler reused across datasets and items must build exactly the
  // batch that collating freshly built, augmented samples gives.
  SyntheticImageDataset image(64, 10, 3, 8, 8, 42);
  SyntheticDetectionDataset detection(64, 8, 8, 42);
  SyntheticRecDataset rec(64, 64, 64, 42);
  SyntheticQADataset qa(64, 64, 16, 42);
  const Dataset* datasets[] = {&image, &detection, &rec, &qa, &image};
  AugmentConfig aug;
  BatchAssembler assembler;
  for (const Dataset* ds : datasets) {
    RankDataPipeline producer(*ds, aug, 2, 1, 4, 42);
    for (int step = 0; step < 3; ++step) {
      const WorkItem item = producer.make_item();
      rng::StreamSet streams;
      streams.set_state(item.rng_state);
      std::vector<Sample> samples;
      tensor::Tensor spare;
      for (std::int64_t idx : item.indices) {
        samples.push_back(ds->get(idx));
        augment_image(aug, streams, samples.back(), spare);
      }
      const Batch expected = collate(samples);
      const Batch got = assembler.assemble(*ds, aug, item);
      EXPECT_EQ(got.size, expected.size) << ds->name();
      EXPECT_EQ(got.x.shape(), expected.x.shape()) << ds->name();
      EXPECT_EQ(got.ids.shape(), expected.ids.shape()) << ds->name();
      EXPECT_EQ(got.target.shape(), expected.target.shape()) << ds->name();
      EXPECT_EQ(batch_digest(got), batch_digest(expected))
          << ds->name() << " step " << step;
    }
  }
}

TEST(Pipeline, StateRoundTripResumesExactly) {
  SyntheticImageDataset ds(48, 10, 3, 8, 8, 7);
  AugmentConfig aug;
  RankDataPipeline p(ds, aug, 3, 1, 4, 7);
  for (int i = 0; i < 5; ++i) (void)p.next();
  ByteWriter w;
  p.save(w);
  const Batch expected = p.next();
  RankDataPipeline q(ds, aug, 3, 1, 4, 7);
  ByteReader r(w.bytes());
  q.load(r);
  EXPECT_EQ(batch_digest(q.next()), batch_digest(expected));
}

TEST(Pipeline, SharedEpochOrderEqualsIndependentSamplers) {
  // 38 samples over 4 ranks pads each shard to 10 (5 steps of 2), so four
  // epochs are 20 steps; the ranks run on their own threads, as on
  // parallel workers, and draw each epoch's permutation from one EpochOrder.
  SyntheticImageDataset ds(38, 4, 3, 8, 8, 11);
  AugmentConfig aug;
  const std::int64_t world = 4, batch = 2, steps = 20, seed = 13;
  const auto make_world = [&] {
    const auto order = std::make_shared<EpochOrder>(ds.size(), seed, true);
    std::vector<RankDataPipeline> ranks;
    for (std::int64_t r = 0; r < world; ++r) {
      ranks.emplace_back(ds, aug, world, r, batch, seed, order);
    }
    return ranks;
  };
  // want[r][step]: rank r's indices from its own, unshared sampler.
  std::vector<std::vector<std::vector<std::int64_t>>> want(world);
  for (std::int64_t r = 0; r < world; ++r) {
    DistributedSampler alone(ds.size(), world, r, batch, seed);
    ASSERT_EQ(alone.steps_per_epoch(), 5);
    for (std::int64_t epoch = 0; epoch < 4; ++epoch) {
      alone.set_epoch(epoch);
      for (std::int64_t s = 0; s < alone.steps_per_epoch(); ++s) {
        want[static_cast<std::size_t>(r)].push_back(alone.batch_indices(s));
      }
    }
  }
  auto shared = make_world();
  std::vector<std::vector<std::vector<std::int64_t>>> got(world);
  std::vector<std::thread> threads;
  for (std::int64_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      for (std::int64_t s = 0; s < steps; ++s) {
        got[static_cast<std::size_t>(r)].push_back(
            shared[static_cast<std::size_t>(r)].make_item().indices);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(got, want);

  // Save every rank mid-epoch 2, restore into a fresh shared world whose
  // order still holds epoch 0, and replay the rest of the four epochs.
  auto first = make_world();
  std::vector<ByteWriter> images(static_cast<std::size_t>(world));
  for (std::int64_t r = 0; r < world; ++r) {
    auto& p = first[static_cast<std::size_t>(r)];
    for (std::int64_t s = 0; s < 12; ++s) (void)p.make_item();
    p.save(images[static_cast<std::size_t>(r)]);
  }
  auto resumed = make_world();
  for (std::int64_t r = 0; r < world; ++r) {
    ByteReader in(images[static_cast<std::size_t>(r)].bytes());
    resumed[static_cast<std::size_t>(r)].load(in);
  }
  for (std::int64_t s = 12; s < steps; ++s) {
    for (std::int64_t r = 0; r < world; ++r) {
      EXPECT_EQ(resumed[static_cast<std::size_t>(r)].make_item().indices,
                want[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)])
          << "rank " << r << " step " << s;
    }
  }
}

TEST(Pipeline, EpochRollsOverAutomatically) {
  SyntheticImageDataset ds(16, 4, 3, 8, 8, 7);
  AugmentConfig aug;
  RankDataPipeline p(ds, aug, 2, 0, 4, 7);
  // shard = 8, batch 4 => 2 steps/epoch; 10 nexts crosses 5 epochs.
  for (int i = 0; i < 10; ++i) (void)p.next();
  EXPECT_EQ(p.cursor(), 10);
}

TEST(Pool, PendingItemsFormTheQueuingBuffer) {
  SyntheticImageDataset ds(64, 10, 3, 8, 8, 42);
  AugmentConfig aug;
  RankDataPipeline producer(ds, aug, 1, 0, 4, 42);
  LoaderConfig lc;
  lc.num_workers = 1;
  lc.augment = aug;
  SharedDataWorkerPool pool(ds, lc);
  pool.enqueue(producer.make_item());
  pool.enqueue(producer.make_item());
  pool.drain();
  EXPECT_EQ(pool.pending_items().size(), 2u);  // processed but unconsumed
  (void)pool.get(0, 0);
  EXPECT_EQ(pool.pending_items().size(), 1u);
  // The remaining pending item can regenerate its batch bit-exactly.
  const auto items = pool.pending_items();
  const Batch live = pool.get(0, 1);
  LoaderConfig lc2;
  lc2.num_workers = 2;
  lc2.augment = aug;
  SharedDataWorkerPool pool2(ds, lc2);
  pool2.enqueue(items[0]);
  EXPECT_EQ(batch_digest(pool2.get(0, 1)), batch_digest(live));
}

TEST(Pool, OutOfOrderProductionDeliversInOrder) {
  SyntheticImageDataset ds(64, 10, 3, 8, 8, 42);
  AugmentConfig aug;
  RankDataPipeline p0(ds, aug, 2, 0, 4, 42);
  RankDataPipeline p1(ds, aug, 2, 1, 4, 42);
  LoaderConfig lc;
  lc.num_workers = 4;
  lc.augment = aug;
  SharedDataWorkerPool pool(ds, lc);
  // Interleave producers; deliveries are keyed, not FIFO.
  for (int s = 0; s < 4; ++s) {
    pool.enqueue(p1.make_item());
    pool.enqueue(p0.make_item());
  }
  RankDataPipeline ref0(ds, aug, 2, 0, 4, 42);
  RankDataPipeline ref1(ds, aug, 2, 1, 4, 42);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(batch_digest(pool.get(0, s)), batch_digest(ref0.next()));
    EXPECT_EQ(batch_digest(pool.get(1, s)), batch_digest(ref1.next()));
  }
}

TEST(Collate, StacksAllFields) {
  Sample a, b;
  a.x = tensor::Tensor(tensor::Shape{2}, {1, 2});
  b.x = tensor::Tensor(tensor::Shape{2}, {3, 4});
  a.ids = {5, 6};
  b.ids = {7, 8};
  a.label = 1;
  b.label = 0;
  a.target = {0.5f};
  b.target = {0.25f};
  const Batch batch = collate({a, b});
  EXPECT_EQ(batch.size, 2);
  EXPECT_EQ(batch.x.at(3), 4.0f);
  EXPECT_EQ(batch.ids.at(2), 7);
  EXPECT_EQ(batch.y.at(0), 1);
  EXPECT_EQ(batch.target.at(1), 0.25f);
}

TEST(Collate, EmptyThrows) {
  EXPECT_THROW(collate({}), Error);
}

TEST(Collate, RaggedSamplesThrow) {
  Sample a;
  a.x = tensor::Tensor(tensor::Shape{2}, {1, 2});
  a.ids = {5, 6};
  a.target = {0.5f};
  Sample bad_x = a, bad_ids = a, bad_target = a;
  bad_x.x = tensor::Tensor(tensor::Shape{3}, {1, 2, 3});
  bad_ids.ids = {5};
  bad_target.target = {};
  EXPECT_THROW((void)collate({a, bad_x}), Error);
  EXPECT_THROW((void)collate({a, bad_ids}), Error);
  EXPECT_THROW((void)collate({a, bad_target}), Error);
  // A field the first sample leaves empty stays out of the batch.
  Sample bare;
  bare.label = 3;
  const Batch b = collate({bare, a});
  EXPECT_FALSE(b.x.defined());
  EXPECT_EQ(b.ids.shape().rank(), 0u);
  EXPECT_FALSE(b.target.defined());
  EXPECT_EQ(b.y.at(0), 3);
}

}  // namespace
}  // namespace easyscale::data
