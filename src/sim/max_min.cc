#include "sim/max_min.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace svc::sim {

MaxMinScratch::MaxMinScratch(int num_vertices) {
  dense_of_.assign(num_vertices, -1);
}

void MaxMinScratch::RebuildTopologyCaches(const std::vector<SimFlow>& flows) {
  for (int32_t slot : links_) dense_of_[slot] = -1;
  const size_t slots = dense_of_.size();
  links_.resize(slots + 1);
  crossing_start_.assign(slots + 1, 0);
  const int n = static_cast<int>(flows.size());
  size_t incidences = 0;
  for (const SimFlow& flow : flows) incidences += flow.links.size();
  path_.resize(incidences);
  path_start_.resize(n + 1);

  // Number the links in first-appearance order without a branch per
  // incidence: a slot seen for the first time takes the next dense index,
  // and links_ is written unconditionally one past the last link.
  int32_t* links = links_.data();
  int32_t* path = path_.data();
  int32_t* counts = crossing_start_.data();
  int32_t num_links = 0;
  int32_t next = 0;
  for (int f = 0; f < n; ++f) {
    path_start_[f] = next;
    for (int32_t slot : flows[f].links) {
      const int32_t seen = dense_of_[slot];
      const bool fresh = seen < 0;
      const int32_t dense = fresh ? num_links : seen;
      dense_of_[slot] = dense;
      links[num_links] = slot;
      num_links += fresh;
      path[next++] = dense;
      ++counts[dense];
    }
  }
  path_start_[n] = next;
  links_.resize(num_links);
  crossing_start_.resize(num_links + 1);

  // Counting sort of the (link, flow) incidences by link: crossing_start_
  // holds each link's count, then its range end, and filling every range
  // back to front while walking the flows backwards leaves it at the range
  // start with the flows ascending.
  int32_t end = 0;
  for (int32_t& start : crossing_start_) {
    end += start;
    start = end;
  }
  crossing_.resize(incidences);
  for (int f = n - 1; f >= 0; --f) {
    for (int32_t i = path_start_[f]; i < path_start_[f + 1]; ++i) {
      crossing_[--crossing_start_[path[i]]] = f;
    }
  }
  remaining_.resize(num_links);
  count_.resize(num_links);
  scan_.reserve(num_links);
}

void MaxMinScratch::SortByDesire(const std::vector<SimFlow>& flows) {
  // Unfrozen desires are positive, and positive doubles order like their
  // bit patterns: the keys are sorted as unsigned integers, ties by flow.
  // The buffers are sized for every flow, not just the unfrozen ones, so a
  // draw with fewer zero desires than before does not reallocate them.
  const int n = static_cast<int>(flows.size());
  order_.clear();
  order_.reserve(n);
  sort_buffer_.reserve(n);
  bucket_start_.reserve(2 * static_cast<size_t>(n) + 1);
  uint64_t lo = std::numeric_limits<uint64_t>::max();
  uint64_t hi = 0;
  for (int f = 0; f < n; ++f) {
    if (frozen_[f]) continue;
    const uint64_t bits = std::bit_cast<uint64_t>(flows[f].desired);
    order_.push_back({bits, f});
    lo = std::min(lo, bits);
    hi = std::max(hi, bits);
  }
  const size_t size = order_.size();
  if (size < 2 || lo == hi) return;  // already in flow order

  // One stable counting-sort pass on the leading bits of (bits - lo), about
  // one bucket per key, leaves the keys in ascending buckets and in flow
  // order within each bucket ...
  const int shift = std::max(0, static_cast<int>(std::bit_width(hi - lo)) -
                                   static_cast<int>(std::bit_width(size)));
  const size_t buckets = static_cast<size_t>((hi - lo) >> shift) + 1;
  bucket_start_.assign(buckets + 1, 0);
  for (const DesireKey& key : order_) {
    ++bucket_start_[((key.bits - lo) >> shift) + 1];
  }
  uint32_t largest = 0;
  for (size_t b = 1; b <= buckets; ++b) {
    largest = std::max(largest, bucket_start_[b]);
    bucket_start_[b] += bucket_start_[b - 1];
  }
  sort_buffer_.resize(size);
  for (const DesireKey& key : order_) {
    sort_buffer_[bucket_start_[(key.bits - lo) >> shift]++] = key;
  }
  order_.swap(sort_buffer_);

  // ... so sorting within the buckets finishes the order.  A crowded bucket
  // (bucket b now ends where b + 1 starts) gets a comparison sort on
  // (desire, flow); then one stable insertion pass, in which no key leaves
  // its bucket, sorts the rest.
  constexpr uint32_t kInsertionMax = 16;
  if (largest > kInsertionMax) {
    uint32_t start = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const uint32_t end = bucket_start_[b];
      if (end - start > kInsertionMax) {
        std::sort(order_.data() + start, order_.data() + end,
                  [](const DesireKey& lhs, const DesireKey& rhs) {
                    return lhs.bits != rhs.bits ? lhs.bits < rhs.bits
                                                : lhs.flow < rhs.flow;
                  });
      }
      start = end;
    }
  }
  DesireKey* keys = order_.data();
  for (size_t i = 1; i < size; ++i) {
    if (keys[i - 1].bits <= keys[i].bits) continue;
    const DesireKey key = keys[i];
    size_t hole = i;
    for (; hole > 0 && keys[hole - 1].bits > key.bits; --hole) {
      keys[hole] = keys[hole - 1];
    }
    keys[hole] = key;
  }
}

void MaxMinScratch::Allocate(std::vector<SimFlow>& flows,
                             const std::vector<double>& capacity,
                             bool flows_changed) {
  SVC_TRACE_SPAN("maxmin/solve");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int n = static_cast<int>(flows.size());
  if (dense_of_.size() < capacity.size()) {
    dense_of_.resize(capacity.size(), -1);
  }

  if (flows_changed || !have_topology_cache_) {
    SVC_METRIC_INC("maxmin/cold_solves");
    RebuildTopologyCaches(flows);
    have_topology_cache_ = true;
    have_order_cache_ = false;
    if (obs::MetricsEnabled()) {
      // Mean flows crossing an active link — a congestion/sharing signal
      // the registry exposes alongside the solve counters.
      SVC_METRIC_GAUGE_SET(
          "maxmin/flows_per_link",
          links_.empty()
              ? 0.0
              : static_cast<double>(path_.size()) / links_.size());
    }
  } else {
    SVC_METRIC_INC("maxmin/incremental_solves");
  }

  // The sorted order depends only on the desires (and the flow set, which
  // the topology cache already pins): re-sort only when a desire changed.
  bool desires_same =
      have_order_cache_ && static_cast<int>(last_desired_.size()) == n;
  if (desires_same) {
    for (int f = 0; f < n; ++f) {
      if (flows[f].desired != last_desired_[f]) {
        desires_same = false;
        break;
      }
    }
  }
  if (!desires_same) {
    last_desired_.resize(n);
    for (int f = 0; f < n; ++f) last_desired_[f] = flows[f].desired;
  }

  // Per-call link state.  Every networked flow counts on its links until
  // it freezes; the ones frozen right away leave their links' counts here,
  // and a link left without flows never enters the scan.
  const int32_t* path_start = path_start_.data();
  const int32_t* path = path_.data();
  const int num_links = static_cast<int>(links_.size());
  double* remaining = remaining_.data();
  int32_t* count = count_.data();
  for (int link = 0; link < num_links; ++link) {
    remaining[link] = capacity[links_[link]];
    count[link] = crossing_start_[link + 1] - crossing_start_[link];
  }
  frozen_.assign(n, 0);
  int unfrozen = 0;
  for (int f = 0; f < n; ++f) {
    SimFlow& flow = flows[f];
    flow.rate = 0;
    const bool networked = path_start[f] < path_start[f + 1];
    if (!networked || flow.desired <= 0) {
      // No network on the path (or nothing to send): the flow gets its
      // desire outright.
      flow.rate = std::max(0.0, flow.desired);
      frozen_[f] = 1;
      for (int32_t i = path_start[f]; i < path_start[f + 1]; ++i) {
        --count[path[i]];
      }
    } else {
      ++unfrozen;
    }
  }
  scan_.clear();
  for (int link = 0; link < num_links; ++link) {
    if (count[link] > 0) scan_.push_back(link);
  }

  if (!desires_same) {
    // The front of this order is the candidate set for demand-limited
    // freezing.
    SortByDesire(flows);
    have_order_cache_ = true;
  }
  size_t next_demand = 0;

  auto freeze = [&](int32_t f, double rate) {
    flows[f].rate = rate;
    frozen_[f] = 1;
    --unfrozen;
    for (int32_t i = path_start[f], end = path_start[f + 1]; i < end; ++i) {
      const int32_t link = path[i];
      remaining[link] -= rate;
      if (remaining[link] < 0) remaining[link] = 0;  // fp guard
      --count[link];
    }
  };

  while (unfrozen > 0) {
    // Current bottleneck share over links that still carry unfrozen flows;
    // links whose count reached zero leave the scan for good, and the
    // survivors keep their order so share ties go to the same link.
    double level = kInf;
    int32_t bottleneck = -1;
    int32_t* scan = scan_.data();
    size_t kept = 0;
    for (size_t i = 0, size = scan_.size(); i < size; ++i) {
      const int32_t link = scan[i];
      if (count[link] == 0) continue;
      scan[kept++] = link;
      const double share = remaining[link] / count[link];
      if (share < level) {
        level = share;
        bottleneck = link;
      }
    }
    scan_.resize(kept);
    assert(bottleneck >= 0);

    // Rule 1: batch-freeze demand-limited flows.  Freezing a flow with
    // desired <= level only raises link shares, so one pass is safe.
    bool any_demand_frozen = false;
    while (next_demand < order_.size()) {
      const DesireKey key = order_[next_demand];
      if (frozen_[key.flow]) {
        ++next_demand;
        continue;
      }
      const double desired = std::bit_cast<double>(key.bits);
      if (desired > level) break;
      freeze(key.flow, desired);
      ++next_demand;
      any_demand_frozen = true;
    }
    if (any_demand_frozen) continue;  // shares changed; recompute level

    // Rule 2: saturate the bottleneck link.
    for (int32_t i = crossing_start_[bottleneck];
         i < crossing_start_[bottleneck + 1]; ++i) {
      const int32_t f = crossing_[i];
      if (!frozen_[f]) freeze(f, level);
    }
  }
}

}  // namespace svc::sim
