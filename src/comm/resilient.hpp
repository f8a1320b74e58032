// Failure-aware bucketed ring all-reduce over a simulated Transport.
//
// The resilient collective drives the same NCCL-order ring as
// comm::allreduce_average, but chunk transfers travel through a Transport
// that can drop, stall or corrupt them — or lose a participant outright.
// Detection is deadline-based (receive timeouts + heartbeat silence via
// MembershipMonitor); on any fault the in-flight operation is ABORTED
// (partial reductions are discarded, never published), the group optionally
// shrinks to the survivors, and the collective deterministically
// re-executes from the participants' original, untouched gradients after a
// bounded, jittered backoff.
//
// The determinism consequence is the keystone property: because a retry
// re-runs the exact ring association over the surviving inputs, a run that
// hits a fault mid-collective and recovers produces the SAME BITS as a
// failure-free run at the survivor DoP.  Tests witness this per fault kind.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/allreduce.hpp"
#include "comm/bucket.hpp"
#include "comm/transport.hpp"
#include "common/error.hpp"

namespace easyscale::comm {

/// What to do when a participant is condemned mid-collective.
enum class DeathPolicy : std::uint8_t {
  kShrink = 0,  // survivors re-reduce without the dead rank's contribution
  kAbort = 1,   // throw RankDeathError (ElasticDDP: the step must roll back
                // so the dead worker's ESTs are not silently lost)
};

struct ResilientConfig {
  DeathPolicy on_death = DeathPolicy::kShrink;
  /// Collective re-executions before CollectiveAbortedError.
  int max_attempts = 5;
  BackoffPolicy backoff;
};

/// A participant was condemned while DeathPolicy::kAbort was in force.
class RankDeathError : public Error {
 public:
  RankDeathError(int rank, const std::string& what)
      : Error(what), rank_(rank) {}
  [[nodiscard]] int rank() const { return rank_; }

 private:
  int rank_;
};

/// Retries were exhausted without a clean execution.
class CollectiveAbortedError : public Error {
 public:
  using Error::Error;
};

struct CollectiveIncident {
  LinkFaultKind kind = LinkFaultKind::kDropChunk;
  int rank = 0;     // transport rank the incident was attributed to
  int attempt = 0;  // 1-based attempt during which it was detected
  friend bool operator==(const CollectiveIncident&,
                         const CollectiveIncident&) = default;
};

/// Everything the caller needs for goodput accounting and membership.
struct CollectiveReport {
  bool ok = false;
  int attempts = 0;                // executions incl. the successful one
  std::vector<int> condemned;      // transport ranks declared dead here
  std::vector<int> survivors;      // part indices that hold the result
  double virtual_time_s = 0.0;     // transfer + timeout + backoff time
  double backoff_wait_s = 0.0;     // of which: backoff waits
  std::int64_t capped_backoffs = 0;  // waits clipped at backoff.max_s
  std::vector<CollectiveIncident> incidents;
  /// Share of this collective's virtual comm time hidden under backward
  /// compute, when the overlapped (pipelined) comm path ran it.  0 on the
  /// sequential path.  Filled in by the caller that owns the pipeline
  /// (core::Engine / parallel::Trainer), since only it knows the compute
  /// window.
  double overlap_frac = 0.0;
};

/// Merge `piece` (one bucket's collective, from an overlapped per-bucket
/// job) into the step-level `total` report.  Time and incident accounting
/// add up; `survivors` takes the LAST piece's view (membership only shrinks
/// within a step); `ok` ANDs.
void merge_collective_report(CollectiveReport& total,
                             const CollectiveReport& piece);

/// In-place failure-aware bucketed ring all-reduce + average.
///
/// `host_of_part` maps each part to its transport rank (several virtual
/// participants may share one physical host, as ESTs share a worker);
/// nullptr means the identity mapping and requires
/// parts.size() <= transport.world().  Messages between co-hosted parts
/// are local and bypass the fabric.  Parts hosted by a condemned rank are
/// excluded under kShrink; their gradients are left untouched.
///
/// `bucket_ids` restricts the collective to a subset of `layout`'s buckets
/// (nullptr = all, in layout order).  The overlapped comm path issues one
/// single-bucket call per flushed bucket; because each call re-executes the
/// exact per-bucket ring association, the concatenation of subset calls is
/// bitwise identical to one whole-layout call over the same membership.
CollectiveReport resilient_allreduce_average(
    const BucketLayout& layout, std::vector<GradientSet*>& parts,
    Transport& transport, MembershipMonitor& monitor,
    const ResilientConfig& cfg = {},
    const std::vector<int>* host_of_part = nullptr,
    const std::vector<std::size_t>* bucket_ids = nullptr);

}  // namespace easyscale::comm
