#include "sim/max_min.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace svc::sim {
namespace {

// Grows `v` to at least `size` elements and never shrinks it, so a warm
// scratch keeps every array at its high-water mark.
template <typename T>
void Grow(std::vector<T>& v, size_t size) {
  if (v.size() < size) v.resize(size);
}

}  // namespace

MaxMinScratch::MaxMinScratch(int num_slots) {
  link_of_.assign(num_slots, -1);
}

void MaxMinScratch::Allocate(std::vector<SimFlow>& flows,
                             const std::vector<double>& capacity) {
  SVC_TRACE_SPAN("maxmin/solve");
  SumOfferedLoad(flows, capacity.size());
  if (flows.size() > static_cast<size_t>(kMaxFilteredFlows) ||
      !Fill(flows, capacity, /*filter=*/true)) {
    SVC_METRIC_INC("maxmin/unfiltered_solves");
    Fill(flows, capacity, /*filter=*/false);
  }
}

void MaxMinScratch::AllocateUnfiltered(std::vector<SimFlow>& flows,
                                       const std::vector<double>& capacity) {
  SumOfferedLoad(flows, capacity.size());
  Fill(flows, capacity, /*filter=*/false);
}

void MaxMinScratch::SumOfferedLoad(const std::vector<SimFlow>& flows,
                                   size_t slots) {
  for (size_t i = 0; i < num_loaded_; ++i) link_of_[loaded_[i]] = -1;
  std::fill_n(load_.begin(), num_loaded_, 0.0);
  if (link_of_.size() < slots) link_of_.resize(slots, -1);
  const size_t links = link_of_.size();
  Grow(loaded_, links + 1);
  Grow(load_, links);
  Grow(sub_links_, links);
  Grow(crossing_start_, links + 1);
  Grow(remaining_, links);
  Grow(count_, links);
  Grow(scan_, links);

  // Number the loaded links in first-appearance order without a branch per
  // incidence: a slot seen for the first time takes the next number, and
  // loaded_ is written unconditionally one past the last link.
  int32_t num_loaded = 0;
  size_t incidences = 0;
  for (const SimFlow& flow : flows) {
    const double desired = std::max(0.0, flow.desired);
    incidences += flow.links.size();
    for (int32_t slot : flow.links) {
      const int32_t seen = link_of_[slot];
      const bool fresh = seen < 0;
      const int32_t link = fresh ? num_loaded : seen;
      link_of_[slot] = link;
      loaded_[num_loaded] = slot;
      load_[link] += desired;
      num_loaded += fresh;
    }
  }
  num_loaded_ = static_cast<size_t>(num_loaded);
  const size_t n = flows.size();
  Grow(sub_flows_, n);
  Grow(path_start_, n + 1);
  Grow(frozen_, n);
  Grow(path_, incidences);
  Grow(crossing_, incidences);
}

bool MaxMinScratch::Fill(std::vector<SimFlow>& flows,
                         const std::vector<double>& capacity, bool filter) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int n = static_cast<int>(flows.size());

  // Number the sub-problem's links, keeping first-appearance order.
  int32_t num_links = 0;
  for (size_t i = 0; i < num_loaded_; ++i) {
    const int32_t slot = loaded_[i];
    const bool contended =
        !filter || load_[i] > capacity[slot] * (1 - kDelta);
    link_of_[slot] = contended ? num_links : -1;
    sub_links_[num_links] = slot;
    num_links += contended;
  }

  // Every flow gets its desire; the flows that cross a sub-problem link
  // with something to send make up the sub-problem's flows, and their
  // paths keep only the sub-problem links (written unconditionally, kept
  // by advancing the cursor).  Most ticks have no sub-problem link at all.
  int32_t num_flows = 0;
  int32_t next = 0;
  for (int f = 0; f < n; ++f) {
    SimFlow& flow = flows[f];
    flow.rate = std::max(0.0, flow.desired);
    if (flow.desired <= 0 || num_links == 0) continue;
    const int32_t start = next;
    for (int32_t slot : flow.links) {
      const int32_t link = link_of_[slot];
      path_[next] = link;
      next += link >= 0;
    }
    if (next == start) continue;
    path_start_[num_flows] = start;
    sub_flows_[num_flows++] = f;
  }
  path_start_[num_flows] = next;
  if (filter && obs::MetricsEnabled()) {
    SVC_METRIC_HIST("maxmin/contended_links", num_links);
    SVC_METRIC_HIST("maxmin/contended_flows", num_flows);
  }

  // Counting sort of the (link, flow) incidences by link: crossing_start_
  // holds each link's count, then its range end, and filling every range
  // back to front while walking the flows backwards leaves it at the range
  // start with the flows ascending.
  std::fill_n(crossing_start_.begin(), num_links + 1, 0);
  for (int32_t i = 0; i < next; ++i) ++crossing_start_[path_[i]];
  int32_t end = 0;
  for (int32_t link = 0; link <= num_links; ++link) {
    end += crossing_start_[link];
    crossing_start_[link] = end;
  }
  for (int32_t h = num_flows - 1; h >= 0; --h) {
    for (int32_t i = path_start_[h]; i < path_start_[h + 1]; ++i) {
      crossing_[--crossing_start_[path_[i]]] = h;
    }
  }

  // Per-call link state.  Every sub-problem flow counts on its links until
  // it freezes, and a link without one never enters the scan.
  int32_t num_scan = 0;
  for (int32_t link = 0; link < num_links; ++link) {
    remaining_[link] = capacity[sub_links_[link]];
    count_[link] = crossing_start_[link + 1] - crossing_start_[link];
    scan_[num_scan] = link;
    num_scan += count_[link] > 0;
  }
  std::fill_n(frozen_.begin(), num_flows, 0);
  int unfrozen = num_flows;

  // The front of this order is the candidate set for demand-limited
  // freezing.
  SortByDesire(flows, num_flows);
  size_t next_demand = 0;

  // Freezes sub flow h at `rate`.  With `watch` set, returns false when a
  // link on its path that still carries unfrozen flows came out with a
  // lower share than before (rounding; see the header).
  auto freeze = [&](int32_t h, double rate, bool watch) {
    flows[sub_flows_[h]].rate = rate;
    frozen_[h] = 1;
    --unfrozen;
    bool shares_kept = true;
    for (int32_t i = path_start_[h], stop = path_start_[h + 1]; i < stop;
         ++i) {
      const int32_t link = path_[i];
      const double before = watch ? remaining_[link] / count_[link] : 0;
      remaining_[link] -= rate;
      if (remaining_[link] < 0) remaining_[link] = 0;  // fp guard
      --count_[link];
      if (watch && count_[link] > 0 &&
          remaining_[link] / count_[link] < before) {
        shares_kept = false;
      }
    }
    return shares_kept;
  };

  while (unfrozen > 0) {
    // Current bottleneck share over links that still carry unfrozen flows;
    // links whose count reached zero leave the scan for good, and the
    // survivors keep their order so share ties go to the same link.
    double level = kInf;
    int32_t bottleneck = -1;
    int32_t kept = 0;
    for (int32_t i = 0; i < num_scan; ++i) {
      const int32_t link = scan_[i];
      if (count_[link] == 0) continue;
      scan_[kept++] = link;
      const double share = remaining_[link] / count_[link];
      if (share < level) {
        level = share;
        bottleneck = link;
      }
    }
    num_scan = kept;
    assert(bottleneck >= 0);

    // Rule 1: batch-freeze demand-limited flows.  Freezing a flow with
    // desired <= level only raises link shares in exact arithmetic, so one
    // pass is safe; the filtered solve checks that rounding kept it so.
    bool any_demand_frozen = false;
    while (next_demand < order_.size()) {
      const DesireKey key = order_[next_demand];
      if (frozen_[key.flow]) {
        ++next_demand;
        continue;
      }
      const double desired = std::bit_cast<double>(key.bits);
      if (desired > level) break;
      if (!freeze(key.flow, desired, filter)) return false;
      ++next_demand;
      any_demand_frozen = true;
    }
    if (any_demand_frozen) continue;  // shares changed; recompute level

    // Rule 2: saturate the bottleneck link.
    for (int32_t i = crossing_start_[bottleneck];
         i < crossing_start_[bottleneck + 1]; ++i) {
      const int32_t h = crossing_[i];
      if (!frozen_[h]) freeze(h, level, /*watch=*/false);
    }
  }
  return true;
}

void MaxMinScratch::SortByDesire(const std::vector<SimFlow>& flows,
                                 int32_t num_flows) {
  // Sub-problem desires are positive, and positive doubles order like
  // their bit patterns: the keys are sorted as unsigned integers, ties by
  // flow.  The buffers are sized for every flow, so a larger sub-problem
  // than before does not reallocate them.
  const size_t n = flows.size();
  order_.clear();
  order_.reserve(n);
  sort_buffer_.reserve(n);
  bucket_start_.reserve(2 * n + 1);
  uint64_t lo = std::numeric_limits<uint64_t>::max();
  uint64_t hi = 0;
  for (int32_t h = 0; h < num_flows; ++h) {
    const uint64_t bits =
        std::bit_cast<uint64_t>(flows[sub_flows_[h]].desired);
    order_.push_back({bits, h});
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

}  // namespace svc::sim
