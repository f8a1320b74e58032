#include "fault/peer_checkpoint.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "rng/philox.hpp"

namespace easyscale::fault {

namespace {
constexpr std::uint32_t kPeerFrameMagic = 0x45535046;  // "ESPF"
constexpr std::uint32_t kPeerFrameVersion = 1;
}  // namespace

DigestChain PeerFrame::slab_chain(std::span<const std::uint8_t> payload) {
  DigestChain chain;
  std::uint64_t slab = 0;
  for (std::size_t off = 0; off < payload.size();
       off += static_cast<std::size_t>(kSlabBytes)) {
    const std::size_t len = std::min<std::size_t>(
        static_cast<std::size_t>(kSlabBytes), payload.size() - off);
    chain.push(slab++, digest_bytes(payload.subspan(off, len)));
  }
  return chain;
}

// GCC 12 at -O3 warns (-Wstringop-overflow) that the first write below
// moves "1 or more bytes" past the fresh 4-byte buffer: inlined
// vector::insert(end(), ...) moves the tail after end() on reallocation,
// and the optimizer cannot see that this tail is empty.  It is a false
// positive of the kind of GCC PR 100366, so it is silenced for this
// function only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
std::vector<std::uint8_t> PeerFrame::serialize() const {
  ByteWriter w;
  w.write<std::uint32_t>(kPeerFrameMagic);
  w.write<std::uint32_t>(kPeerFrameVersion);
  w.write<std::int64_t>(epoch);
  w.write<std::int32_t>(owner);
  w.write<std::int32_t>(world);
  w.write<std::uint64_t>(digest_bytes(payload));
  slab_chain(payload).save(w);
  w.write_vector(payload);
  // Whole-frame digest trailer: covers the header fields (epoch, owner,
  // world) that the payload digest and slab chain cannot see, so parse()
  // rejects a flip of ANY byte on the wire.
  w.write<std::uint64_t>(digest_bytes(w.bytes()));
  return w.take();
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

PeerFrame PeerFrame::parse(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  ES_CHECK(r.read<std::uint32_t>() == kPeerFrameMagic,
           "peer frame magic mismatch (torn or foreign bytes)");
  ES_CHECK(r.read<std::uint32_t>() == kPeerFrameVersion,
           "unsupported peer frame version");
  PeerFrame frame;
  frame.epoch = r.read<std::int64_t>();
  frame.owner = r.read<std::int32_t>();
  frame.world = r.read<std::int32_t>();
  ES_CHECK(frame.owner >= 0 && frame.world > 0 && frame.owner < frame.world,
           "peer frame owner/world out of range");
  const auto stored_digest = r.read<std::uint64_t>();
  // DigestChain::load re-verifies every hash link; a flipped byte inside
  // the chain section dies here.
  const DigestChain stored_chain = DigestChain::load(r);
  frame.payload = r.read_vector<std::uint8_t>();
  const auto frame_digest = r.read<std::uint64_t>();
  r.require_exhausted("peer frame");
  ES_CHECK(digest_bytes(std::span<const std::uint8_t>(
               bytes.data(), bytes.size() - sizeof(std::uint64_t))) ==
               frame_digest,
           "peer frame digest mismatch (torn frame)");
  ES_CHECK(digest_bytes(frame.payload) == stored_digest,
           "peer frame payload digest mismatch (torn frame)");
  // Recompute the slab chain: catches a payload edit that a colliding
  // whole-payload digest could in principle slip past, and pins slab
  // boundaries exactly like the per-tensor chains of disk checkpoints.
  ES_CHECK(slab_chain(frame.payload) == stored_chain,
           "peer frame slab chain mismatch (torn frame)");
  return frame;
}

std::vector<int> choose_peers(int owner, int world, int replicas,
                              int ranks_per_node,
                              const std::set<int>& excluded) {
  ES_CHECK(world > 0 && owner >= 0 && owner < world,
           "placement owner/world out of range");
  ES_CHECK(ranks_per_node >= 1, "ranks_per_node must be >= 1");
  std::vector<int> peers;
  if (replicas <= 0) return peers;
  const int owner_node = owner / ranks_per_node;
  for (int step = 1; step < world &&
                     peers.size() < static_cast<std::size_t>(replicas);
       ++step) {
    const int cand = (owner + step) % world;
    if (cand / ranks_per_node == owner_node) continue;  // same-node: no help
    if (excluded.count(cand) != 0) continue;            // quarantined or dead
    peers.push_back(cand);
  }
  return peers;
}

void PeerReplicaStore::put(int owner, std::int64_t epoch,
                           std::vector<std::uint8_t> frame) {
  frames_[{owner, epoch}] = std::move(frame);
}

const std::vector<std::uint8_t>* PeerReplicaStore::find(
    int owner, std::int64_t epoch) const {
  const auto it = frames_.find({owner, epoch});
  return it == frames_.end() ? nullptr : &it->second;
}

bool PeerReplicaStore::drop(int owner, std::int64_t epoch) {
  return frames_.erase({owner, epoch}) != 0;
}

void PeerReplicaStore::gc_below(std::int64_t min_epoch) {
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->first.second < min_epoch) {
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<std::pair<int, std::int64_t>> PeerReplicaStore::entries() const {
  std::vector<std::pair<int, std::int64_t>> out;
  out.reserve(frames_.size());
  for (const auto& [key, bytes] : frames_) out.push_back(key);
  return out;
}

PeerCheckpointService::PeerCheckpointService(comm::Transport& transport,
                                             PeerCheckpointConfig cfg)
    : transport_(&transport), cfg_(cfg), world_(transport.world()) {
  ES_CHECK(world_ >= 1, "peer checkpoint service needs a positive world");
  ES_CHECK(cfg_.replicas >= 0, "replica count cannot be negative");
  ES_CHECK(cfg_.replicas < world_,
           "replicas " << cfg_.replicas << " must be < world " << world_);
  ES_CHECK(cfg_.keep_epochs >= 1, "must retain at least one epoch");
  stores_.resize(static_cast<std::size_t>(world_));
  dead_.assign(static_cast<std::size_t>(world_), 0);
}

const PeerReplicaStore& PeerCheckpointService::store(int rank) const {
  ES_CHECK(rank >= 0 && rank < world_, "rank " << rank << " out of range");
  return stores_[static_cast<std::size_t>(rank)];
}

bool PeerCheckpointService::rank_alive(int rank) const {
  ES_CHECK(rank >= 0 && rank < world_, "rank " << rank << " out of range");
  return dead_[static_cast<std::size_t>(rank)] == 0;
}

void PeerCheckpointService::mark_dead(int rank) {
  ES_CHECK(rank >= 0 && rank < world_, "rank " << rank << " out of range");
  dead_[static_cast<std::size_t>(rank)] = 1;
  // The device's memory dies with it: every frame it held is gone.
  stores_[static_cast<std::size_t>(rank)].clear();
}

bool PeerCheckpointService::drop_random_replica(int holder,
                                                std::uint64_t seed) {
  ES_CHECK(holder >= 0 && holder < world_,
           "holder " << holder << " out of range");
  if (!rank_alive(holder)) return false;
  auto& store = stores_[static_cast<std::size_t>(holder)];
  const auto entries = store.entries();
  if (entries.empty()) return false;
  rng::Philox gen(seed);
  const auto& victim = entries[static_cast<std::size_t>(
      gen.next_below(static_cast<std::uint64_t>(entries.size())))];
  store.drop(victim.first, victim.second);
  ++stats_.replicas_dropped;
  return true;
}

std::vector<std::pair<std::int64_t, std::int64_t>>
PeerCheckpointService::frame_bounds(std::int64_t n) const {
  std::vector<std::pair<std::int64_t, std::int64_t>> bounds;
  bounds.reserve(static_cast<std::size_t>(world_));
  const std::int64_t base = n / world_;
  const std::int64_t rem = n % world_;
  std::int64_t off = 0;
  for (int r = 0; r < world_; ++r) {
    const std::int64_t len = base + (r < rem ? 1 : 0);
    bounds.emplace_back(off, len);
    off += len;
  }
  return bounds;
}

void PeerCheckpointService::stage(std::int64_t epoch,
                                  std::vector<std::uint8_t> snapshot) {
  ES_CHECK(!snapshot.empty(), "cannot stage an empty snapshot");
  // Copy-on-snapshot: the caller's buffer is moved/copied into the inactive
  // staging slot and training may mutate live state immediately.  A staged
  // epoch that was never replicated is simply superseded — it was never
  // blessed, so nothing downstream could have depended on it.
  staged_ = Staged{epoch, std::move(snapshot)};
  ++stats_.epochs_staged;
}

bool PeerCheckpointService::replicate_staged(const std::set<int>& excluded) {
  ES_CHECK(staged_.has_value(), "no staged snapshot to replicate");
  const Staged staged = std::move(*staged_);
  staged_.reset();
  prepared_.reset();

  // Dead ranks are excluded from placement alongside the caller's
  // quarantine list.
  std::set<int> unusable = excluded;
  for (int r = 0; r < world_; ++r) {
    if (!rank_alive(r)) unusable.insert(r);
  }

  const auto bounds = frame_bounds(
      static_cast<std::int64_t>(staged.snapshot.size()));
  PeerCommitRecord record;
  record.epoch = staged.epoch;
  record.snapshot_digest = digest_bytes(staged.snapshot);
  record.frame_digests.resize(static_cast<std::size_t>(world_), 0);

  bool aborted = false;
  for (int owner = 0; owner < world_ && !aborted; ++owner) {
    PeerFrame frame;
    frame.epoch = staged.epoch;
    frame.owner = owner;
    frame.world = world_;
    const auto [off, len] = bounds[static_cast<std::size_t>(owner)];
    frame.payload.assign(
        staged.snapshot.begin() + off,
        staged.snapshot.begin() + off + len);
    const std::vector<std::uint8_t> wire = frame.serialize();
    record.frame_digests[static_cast<std::size_t>(owner)] =
        digest_bytes(wire);

    int copies = 0;
    const bool owner_usable = unusable.count(owner) == 0;
    if (owner_usable) {
      stores_[static_cast<std::size_t>(owner)].put(owner, staged.epoch, wire);
      ++copies;
    }
    // Pushes originate at the owner; a frame whose owner is unusable is
    // distributed by the lowest usable rank (the coordinator holding the
    // staged snapshot).
    int src = owner;
    if (!owner_usable) {
      src = -1;
      for (int r = 0; r < world_; ++r) {
        if (unusable.count(r) == 0) {
          src = r;
          break;
        }
      }
    }
    const auto peers = choose_peers(owner, world_, cfg_.replicas,
                                    cfg_.ranks_per_node, unusable);
    int peer_copies = 0;
    for (const int peer : peers) {
      if (src < 0) break;
      auto result =
          comm::peer_push(*transport_, src, peer, wire, cfg_.transfer);
      stats_.push_retries += result.retries;
      stats_.replicate_virtual_s += result.virtual_time_s;
      if (!result.delivered) continue;  // drained; this peer holds nothing
      stores_[static_cast<std::size_t>(peer)].put(owner, staged.epoch,
                                                  std::move(result.bytes));
      ++stats_.frames_pushed;
      ++peer_copies;
      ++copies;
    }
    // Abort rules: an epoch is only preparable when every frame has at
    // least one copy, and — when replication is on and a peer was placeable
    // — at least one PEER copy (otherwise a single device loss erases the
    // frame and the "replicated" epoch was a lie).
    if (copies == 0 || (cfg_.replicas > 0 && !peers.empty() &&
                        peer_copies == 0)) {
      aborted = true;
    }
  }

  if (aborted) {
    // Drain the half-replicated epoch: every frame already stored for it is
    // removed so no store can later serve bytes from an unblessed epoch.
    for (auto& store : stores_) {
      for (int owner = 0; owner < world_; ++owner) {
        store.drop(owner, staged.epoch);
      }
    }
    ++stats_.epochs_aborted;
    ES_LOG_WARN("peer epoch " << staged.epoch
                              << " aborted during replication (drained)");
    return false;
  }
  prepared_ = Prepared{std::move(record)};
  return true;
}

void PeerCheckpointService::commit_prepared() {
  ES_CHECK(prepared_.has_value(), "no prepared epoch to commit");
  committed_.push_back(std::move(prepared_->record));
  prepared_.reset();
  ++stats_.epochs_committed;
  gc_stores();
}

bool PeerCheckpointService::snapshot(std::int64_t epoch,
                                     std::vector<std::uint8_t> bytes,
                                     const std::set<int>& excluded) {
  stage(epoch, std::move(bytes));
  if (!replicate_staged(excluded)) return false;
  commit_prepared();
  return true;
}

void PeerCheckpointService::gc_stores() {
  if (static_cast<std::int64_t>(committed_.size()) <= cfg_.keep_epochs) {
    return;
  }
  const std::int64_t min_epoch =
      committed_[committed_.size() -
                 static_cast<std::size_t>(cfg_.keep_epochs)]
          .epoch;
  for (auto& store : stores_) store.gc_below(min_epoch);
  // The commit log shrinks with the frames: a record whose frames are GC'd
  // could only ever produce quorum failures.
  committed_.erase(
      std::remove_if(committed_.begin(), committed_.end(),
                     [&](const PeerCommitRecord& rec) {
                       return rec.epoch < min_epoch;
                     }),
      committed_.end());
}

std::optional<PeerCheckpointService::Recovered> PeerCheckpointService::recover(
    int requester, const std::set<int>& excluded) {
  ES_CHECK(requester >= 0 && requester < world_,
           "requester " << requester << " out of range");
  ES_CHECK(rank_alive(requester), "a dead rank cannot run recovery");

  for (auto rec = committed_.rbegin(); rec != committed_.rend(); ++rec) {
    std::vector<std::uint8_t> snapshot;
    int fetched = 0;
    bool complete = true;
    for (int owner = 0; owner < world_ && complete; ++owner) {
      // Candidate holders in deterministic preference order: the requester
      // (free, local), then the owner, then every other usable rank in
      // ring order — covering any historical placement.
      std::vector<int> holders;
      holders.push_back(requester);
      for (int step = 0; step < world_; ++step) {
        const int cand = (owner + step) % world_;
        if (cand == requester) continue;
        holders.push_back(cand);
      }
      bool found = false;
      for (const int holder : holders) {
        if (!rank_alive(holder) || excluded.count(holder) != 0) continue;
        const auto* stored =
            stores_[static_cast<std::size_t>(holder)].find(owner, rec->epoch);
        if (stored == nullptr) continue;
        std::vector<std::uint8_t> wire;
        if (holder == requester) {
          wire = *stored;
        } else {
          auto result = comm::peer_fetch(*transport_, holder, requester,
                                         *stored, cfg_.transfer);
          stats_.fetch_retries += result.retries;
          stats_.fetch_virtual_s += result.virtual_time_s;
          if (!result.delivered) continue;  // drained; try the next holder
          wire = std::move(result.bytes);
        }
        // Trust gate: the copy must hash to the blessed frame digest AND
        // parse cleanly (framing, slab chain, payload digest).
        if (digest_bytes(wire) !=
            rec->frame_digests[static_cast<std::size_t>(owner)]) {
          ES_LOG_WARN("peer frame (owner " << owner << ", epoch "
                                           << rec->epoch << ") at holder "
                                           << holder
                                           << " fails the blessed digest");
          continue;
        }
        PeerFrame frame;
        try {
          frame = PeerFrame::parse(wire);
        } catch (const Error& e) {
          ES_LOG_WARN("peer frame (owner " << owner << ", epoch "
                                           << rec->epoch << ") at holder "
                                           << holder << " is torn: "
                                           << e.what());
          continue;
        }
        if (frame.owner != owner || frame.epoch != rec->epoch ||
            frame.world != world_) {
          continue;
        }
        if (holder != requester) {
          ++fetched;
          ++stats_.frames_fetched;
        }
        snapshot.insert(snapshot.end(), frame.payload.begin(),
                        frame.payload.end());
        found = true;
        break;
      }
      complete = found;
    }
    if (!complete) {
      ++stats_.quorum_failures;
      continue;  // no intact quorum at this epoch: walk back one epoch
    }
    ES_CHECK(digest_bytes(snapshot) == rec->snapshot_digest,
             "reassembled peer snapshot fails the blessed digest");
    Recovered out;
    out.epoch = rec->epoch;
    out.snapshot = std::move(snapshot);
    out.frames_fetched = fetched;
    return out;
  }
  return std::nullopt;
}

}  // namespace easyscale::fault
