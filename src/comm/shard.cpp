#include "comm/shard.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace easyscale::comm {

namespace {

/// Flat offset of each gradient id inside bucket `b`'s flatten, or -1 for
/// gradients outside the bucket.
std::vector<std::int64_t> bucket_offsets(const BucketLayout& layout,
                                         std::size_t b,
                                         const GradientSet& part) {
  std::vector<std::int64_t> off(part.grads.size(), -1);
  std::int64_t cursor = 0;
  for (int id : layout.buckets[b]) {
    off[static_cast<std::size_t>(id)] = cursor;
    cursor += part.grads[static_cast<std::size_t>(id)].numel();
  }
  return off;
}

}  // namespace

std::int64_t slices_numel(const std::vector<optim::ParamSlice>& slices) {
  std::int64_t n = 0;
  for (const auto& s : slices) n += s.end - s.begin;
  return n;
}

void validate_reduce_scatter_inputs(
    const BucketLayout& layout, const std::vector<GradientSet*>& parts,
    const std::vector<ShardSlices>& owned_of_part) {
  validate_allreduce_inputs(layout, parts);
  ES_CHECK(owned_of_part.size() == parts.size(),
           "owned_of_part has " << owned_of_part.size()
                                << " entries, parts has " << parts.size()
                                << " (one slice list per part required)");
  const auto num_grads = parts[0]->grads.size();
  for (std::size_t r = 0; r < owned_of_part.size(); ++r) {
    // Per (rank, param): collect intervals and reject overlap — one rank
    // updating an element twice would double-apply the optimizer step.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> by_param(
        num_grads);
    for (const auto& s : owned_of_part[r]) {
      ES_CHECK(s.param < num_grads,
               "owned_of_part[" << r << "] slice references parameter "
                                << s.param << " outside [0, " << num_grads
                                << ")");
      const std::int64_t n = parts[0]->grads[s.param].numel();
      ES_CHECK(s.begin >= 0 && s.begin <= s.end && s.end <= n,
               "owned_of_part[" << r << "] slice [" << s.begin << ", "
                                << s.end << ") out of range for parameter "
                                << s.param << " (numel " << n << ")");
      by_param[s.param].emplace_back(s.begin, s.end);
    }
    for (std::size_t p = 0; p < by_param.size(); ++p) {
      auto& iv = by_param[p];
      std::sort(iv.begin(), iv.end());
      for (std::size_t i = 1; i < iv.size(); ++i) {
        ES_CHECK(iv[i].first >= iv[i - 1].second,
                 "owned_of_part[" << r << "] slices overlap on parameter "
                                  << p << " ([" << iv[i - 1].first << ", "
                                  << iv[i - 1].second << ") and ["
                                  << iv[i].first << ", " << iv[i].second
                                  << "))");
      }
    }
  }
}

void validate_all_gather_inputs(
    const std::vector<autograd::ParameterStore*>& stores,
    const std::vector<optim::ParamSlice>& slices,
    const std::vector<int>& source_of_slice) {
  ES_CHECK(!stores.empty(), "all_gather over zero stores");
  for (std::size_t r = 0; r < stores.size(); ++r) {
    ES_CHECK(stores[r] != nullptr, "all_gather store " << r << " is null");
    ES_CHECK(stores[r]->size() == stores[0]->size(),
             "all_gather store " << r << " has " << stores[r]->size()
                                 << " parameters, store 0 has "
                                 << stores[0]->size());
  }
  ES_CHECK(source_of_slice.size() == slices.size(),
           "source_of_slice has " << source_of_slice.size()
                                  << " entries, slices has " << slices.size()
                                  << " (one source per slice required)");
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const auto& s = slices[i];
    ES_CHECK(s.param < stores[0]->size(),
             "slices[" << i << "] references parameter " << s.param
                       << " outside [0, " << stores[0]->size() << ")");
    const std::int64_t n = stores[0]->all()[s.param]->numel();
    ES_CHECK(s.begin >= 0 && s.begin <= s.end && s.end <= n,
             "slices[" << i << "] range [" << s.begin << ", " << s.end
                       << ") out of range for parameter " << s.param
                       << " (numel " << n << ")");
    const int src = source_of_slice[i];
    ES_CHECK(src >= 0 && src < static_cast<int>(stores.size()),
             "source_of_slice[" << i << "] = " << src << " outside [0, "
                                << stores.size() << ")");
    for (std::size_t r = 1; r < stores.size(); ++r) {
      ES_CHECK(stores[r]->all()[s.param]->numel() == n,
               "parameter " << s.param << " shape disagrees between store 0 "
                            << "and store " << r
                            << " (all_gather cannot apply)");
    }
  }
}

void reduce_scatter_average_bucket(
    const BucketLayout& layout, std::size_t b,
    const std::vector<GradientSet*>& parts,
    const std::vector<ShardSlices>& owned_of_part) {
  // The all-reduce's flatten + full-world ring association + average:
  // sharding must not change a single summed bit.
  const std::vector<float> reduced = bucket_average(layout, b, parts);
  // Scatter: each part receives only the averaged elements it owns.
  const auto offsets = bucket_offsets(layout, b, *parts[0]);
  for (std::size_t r = 0; r < parts.size(); ++r) {
    for (const auto& s : owned_of_part[r]) {
      const std::int64_t base = offsets[s.param];
      if (base < 0) continue;  // parameter lives in another bucket
      auto& g = parts[r]->grads[s.param];
      std::copy(reduced.begin() + base + s.begin,
                reduced.begin() + base + s.end, g.data().begin() + s.begin);
    }
  }
}

void reduce_scatter_average(const BucketLayout& layout,
                            std::vector<GradientSet*>& parts,
                            const std::vector<ShardSlices>& owned_of_part) {
  validate_reduce_scatter_inputs(layout, parts, owned_of_part);
  for (std::size_t b = 0; b < layout.buckets.size(); ++b) {
    reduce_scatter_average_bucket(layout, b, parts, owned_of_part);
  }
}

void all_gather_params(const std::vector<autograd::ParameterStore*>& stores,
                       const std::vector<optim::ParamSlice>& slices,
                       const std::vector<int>& source_of_slice) {
  validate_all_gather_inputs(stores, slices, source_of_slice);
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const auto& s = slices[i];
    const auto src = static_cast<std::size_t>(source_of_slice[i]);
    const auto& from = stores[src]->all()[s.param]->value;
    for (std::size_t r = 0; r < stores.size(); ++r) {
      if (r == src) continue;
      auto& to = stores[r]->all()[s.param]->value;
      std::copy(from.data().begin() + s.begin, from.data().begin() + s.end,
                to.data().begin() + s.begin);
    }
  }
}

}  // namespace easyscale::comm
