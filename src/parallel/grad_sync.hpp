// Gradient synchronization of parallel::Trainer, the one training driver.
//
// An EST is a virtual DDP rank time-sliced on a physical worker (§3), so the
// sync has one participant per virtual rank, whatever the packing: each
// participant's gradients swap out into its own GradientSet and the sets
// meet in one bucketed collective.  GradSync owns the bucket layout
// (initial, rebuilt from participant 0's ready order, contribution counts),
// the optional simulated fabric, the overlapped pipeline
// (docs/PERFORMANCE.md) and the one dispatch to a collective, so every
// packing issues the same collectives in the same order.
//
// A step: begin_step, then per participant attach / train_step / collect,
// then reduce; the trainer publishes and steps its optimizers; end_step.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "autograd/step_context.hpp"
#include "comm/async_allreduce.hpp"
#include "comm/resilient.hpp"
#include "comm/shard.hpp"
#include "parallel/plan.hpp"

namespace easyscale::parallel {

class GradSync {
 public:
  /// Replaces the default collective (the Trainer's digest vote): called
  /// with nullptr (the whole layout) on a sequential step and with each
  /// bucket on an overlapped one.
  using Reduction =
      std::function<void(const std::vector<std::size_t>* bucket_ids)>;

  GradSync(const autograd::ParameterStore& params,
           std::int64_t bucket_cap_bytes, std::size_t num_parts,
           bool overlap, bool rebuild_buckets);
  // The pipeline's jobs and trackers hold `this`.
  GradSync(const GradSync&) = delete;
  GradSync& operator=(const GradSync&) = delete;

  [[nodiscard]] const comm::BucketLayout& layout() const { return layout_; }
  [[nodiscard]] bool rebuilt() const { return rebuilt_; }
  [[nodiscard]] const std::vector<int>& contrib_counts() const {
    return contrib_counts_;
  }
  void set_layout(comm::BucketLayout layout, bool rebuilt);
  /// Back to the static layout with the rebuild pending (a D0 restore).
  void reset_layout(const autograd::ParameterStore& params);
  void set_contrib_counts(std::vector<int> counts);

  /// Route the collectives over a fresh fabric of `hosts` ranks with the
  /// default link model; `host_of_part` empty = the identity.  A condemned
  /// host always aborts the step (DeathPolicy::kAbort): the driver must
  /// roll back.
  void reset_fabric(int hosts, std::vector<int> host_of_part = {},
                    std::vector<comm::CommFaultEvent> faults = {});
  [[nodiscard]] bool resilient() const { return transport_ != nullptr; }
  [[nodiscard]] comm::SimTransport* transport() { return transport_.get(); }
  void inject_fault(const comm::CommFaultEvent& event);
  [[nodiscard]] const comm::TransportStats& transport_stats() const;
  [[nodiscard]] std::vector<double> stall_per_host() const;

  /// ZeRO-1: reduce-scatter into `owned[p]` and all-gather with `gather`;
  /// empty `owned` = replicated all-reduce.
  void set_shards(std::vector<comm::ShardSlices> owned, GatherMap gather);
  [[nodiscard]] const comm::ShardSlices& owned_slices(std::size_t p) const {
    return owned_[p];
  }

  /// Overlaps when overlap is on, layout and counts are recorded, and
  /// `allow_overlap` holds.
  void begin_step(bool allow_overlap, Reduction reduction = {});
  /// Hooks the ready recorder (participant 0, recording steps) or the
  /// bucket tracker (overlapped steps) into `ctx`.
  void attach(std::size_t part, autograd::ParameterStore& store,
              autograd::StepContext& ctx);
  /// Swaps the gradients of `store` out into participant `part`'s set.
  void collect(std::size_t part, const autograd::ParameterStore& store);
  void reduce();
  void end_step(const autograd::ParameterStore& params);

  [[nodiscard]] comm::GradientSet& part(std::size_t p) { return sets_[p]; }
  /// Plain reduction of some participants (the vote's representatives).
  void reduce_subset(std::vector<comm::GradientSet*>& parts,
                     const std::vector<std::size_t>* bucket_ids);
  void all_gather(const std::vector<autograd::ParameterStore*>& stores);

  [[nodiscard]] const std::optional<comm::CollectiveReport>&
  last_comm_report() const {
    return last_comm_report_;
  }
  [[nodiscard]] const std::optional<comm::OverlapStats>&
  last_overlap_stats() const {
    return last_overlap_stats_;
  }

 private:
  /// The one dispatch: (plain | fabric) × (all-reduce | reduce-scatter) ×
  /// (whole layout | bucket subset).
  std::optional<comm::CollectiveReport> collective(
      std::vector<comm::GradientSet*>& parts,
      const std::vector<std::size_t>* bucket_ids, bool over_fabric);
  double reduce_bucket(std::size_t bucket);
  [[nodiscard]] const std::vector<int>* hosts() const {
    return host_of_part_.empty() ? nullptr : &host_of_part_;
  }

  std::int64_t cap_bytes_;  // resolved once: the rebuild and a D0 restore
                           // must use the same cap
  bool overlap_;
  bool rebuild_buckets_;
  comm::BucketLayout layout_;
  bool rebuilt_ = false;
  std::vector<int> contrib_counts_;

  std::vector<comm::GradientSet> sets_;  // one per participant
  std::vector<comm::GradientSet*> parts_;
  std::vector<comm::ShardSlices> owned_;
  GatherMap gather_;

  std::unique_ptr<comm::SimTransport> transport_;
  std::unique_ptr<comm::MembershipMonitor> monitor_;
  comm::ResilientConfig resilient_;
  std::vector<int> host_of_part_;

  bool record_ = false;
  bool need_counts_ = false;
  bool overlapped_ = false;
  Reduction reduction_;
  autograd::GradReadyRecorder recorder_;
  comm::CollectiveReport step_report_;
  std::vector<std::size_t> one_bucket_{0};
  std::optional<comm::OverlapCoordinator> coordinator_;
  std::vector<std::optional<comm::BucketReadyTracker>> trackers_;

  std::optional<comm::CollectiveReport> last_comm_report_;
  std::optional<comm::OverlapStats> last_overlap_stats_;
  // Last: its slot thread runs jobs that use the members above.
  std::unique_ptr<comm::AsyncCollectiveEngine> async_;
};

}  // namespace easyscale::parallel
