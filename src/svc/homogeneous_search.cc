#include "svc/homogeneous_search.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/demand_profile.h"
#include "svc/scratch_arena.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace svc::core {
namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

// Flattened per-call DP tables, reused across calls.
//
// opt[v*(n+1) + x] is the paper's combination of Opt(T_v, x) and the uplink
// ratio O_{L_v}(N, x): the minimum achievable value of the maximum occupancy
// over all links of T_v *plus v's uplink* when x VMs are placed in T_v, or
// +inf when no valid placement of x VMs exists.  Folding the uplink in here
// is equivalent to the paper's recurrence (11), which maxes O_{L_vi} in at
// the parent.  opt_len[v] is the number of valid entries in v's row (the
// original per-vertex table size); 0 marks a row not computed this call.
// opt_lo/opt_hi[v] bound the feasible (finite) window of the row, so the
// child-fold skips infeasible prefixes and suffixes without probing them.
//
// There is no choice table (the paper's D_v[i, x]): reconstruction refolds
// each internal vertex of the winning subtree once and derives every
// child's count from the fold's stage rows (SplitCount).
//
// The arena is thread-local so one allocator instance can serve concurrent
// sweep-runner replicas without sharing mutable state.  In level-parallel
// mode the shared tables (opt / opt_len / opt_lo / opt_hi) live in the
// calling thread's arena — workers write disjoint rows — while each
// worker folds in its own thread-local scratch (stage rows / row).
// After warm-up on a topology and request size (the first call, and any
// call that folds a wider vertex than before) no Allocate() call touches
// the heap (see bench/alloc_microbench's allocation-counter benchmark).
struct DpArena {
  // One stage of a child fold, T_v^[j] after the j-th folded child: the
  // row's feasible window, and the maximum of the single-cell children
  // passed over before that child was folded.
  struct Stage {
    int lo;
    int hi;
    double hoisted;
  };

  std::vector<double> opt;
  std::vector<int> opt_len;
  std::vector<int> opt_lo;
  std::vector<int> opt_hi;
  std::vector<double> stage_rows;  // fold stages, stride apart
  std::vector<Stage> stages;
  std::vector<double> row;  // uplink occupancy row scratch
  std::vector<std::pair<topology::VertexId, int>> stack;
  HomogeneousProfile profile;  // table capacity reused across requests
  int stride = 0;

  void Prepare(int num_vertices, int n) {
    PrepareScratch(n);
    const size_t cells = static_cast<size_t>(num_vertices) * stride;
    if (opt.size() < cells) opt.resize(cells);
    if (opt_len.size() < static_cast<size_t>(num_vertices)) {
      opt_len.resize(num_vertices);
      opt_lo.resize(num_vertices);
      opt_hi.resize(num_vertices);
    }
    std::fill(opt_len.begin(), opt_len.begin() + num_vertices, 0);
    stack.clear();
  }

  // Sizes only the per-thread scratch; what level-parallel workers need
  // (their shared rows live in the caller's arena).  Stage rows grow on
  // demand in ReserveStages.
  void PrepareScratch(int n) {
    stride = n + 1;
    if (row.size() < static_cast<size_t>(stride)) row.resize(stride);
  }

  // Room for a fold of count - 1 children: one stage per folded child, plus
  // stage 0.
  void ReserveStages(int count) {
    const size_t cells = static_cast<size_t>(count) * stride;
    if (stage_rows.size() < cells) stage_rows.resize(cells);
    if (stages.size() < static_cast<size_t>(count)) stages.resize(count);
  }

  double* opt_row(topology::VertexId v) {
    return opt.data() + static_cast<size_t>(v) * stride;
  }
  double* stage_row(int j) {
    return stage_rows.data() + static_cast<size_t>(j) * stride;
  }
};

DpArena& LocalArena() {
  thread_local DpArena arena;
  return arena;
}

// Kernel/pruning tallies, accumulated locally per vertex and flushed to the
// metrics registry once per Allocate() (keeps the DP loops free of even the
// disabled-metrics branch).
struct KernelStats {
  int64_t kernel_cells = 0;  // fused occupancy evaluations
  int64_t pruned_cells = 0;  // cells resolved without a quantile evaluation
};

// Everything a per-vertex DP task needs; points into the calling thread's
// arena.  Immutable during a level's fan-out except for the disjoint rows
// each vertex writes.
struct DpShared {
  const topology::Topology* topo;
  const net::LinkLedger* ledger;
  const SlotMap* slots;
  const HomogeneousProfile* profile;
  double* opt;
  int* opt_len;
  int* opt_lo;
  int* opt_hi;
  int stride;
  int n;
  bool optimize;
  bool monotone;  // quantile >= 0: occupancy monotone in the moment adds

  double* opt_row(topology::VertexId v) const {
    return opt + static_cast<size_t>(v) * stride;
  }
  // v's only feasible cell is x = 0: a full machine, a saturated uplink.
  bool single_cell(topology::VertexId v) const {
    return opt_lo[v] == 0 && opt_hi[v] == 0;
  }
};

// Fills row[x] for x in [x_lo, x_hi] with the fused occupancy of v's uplink
// when x of the n VMs land below it (+inf on a condition-(4) violation).
// On the profile's verified monotone segments the feasibility frontier is
// binary-searched, so infeasible spans cost O(log) probes instead of one
// sqrt per cell; segments too short to amortize the search (or profiles
// with a negative quantile, where occupancy is not monotone in the
// variance) are evaluated densely by the batch kernel.
void UplinkRow(const DpShared& s, topology::VertexId v, int x_lo, int x_hi,
               double* row, KernelStats& stats) {
  const double* mean = s.profile->mean_adds();
  const double* var = s.profile->var_adds();
  const double* det = s.profile->det_adds();
  auto batch = [&](int a, int b) {
    if (b < a) return;
    s.ledger->OccupancyWithBatch(v, mean + a, var + a, det + a, b - a + 1,
                                 row + a);
    stats.kernel_cells += b - a + 1;
  };
  auto fill_infeasible = [&](int a, int b) {
    if (b < a) return;
    std::fill(row + a, row + b + 1, kInfeasible);
    stats.pruned_cells += b - a + 1;
  };
  constexpr int kMinSearchLen = 8;  // below this, dense batch is cheaper
  if (!s.monotone || x_hi - x_lo + 1 < kMinSearchLen) {
    batch(x_lo, x_hi);
    return;
  }
  // Rising segment: moments non-decreasing, so feasible cells are a prefix.
  const int rise_end = std::min(x_hi, s.profile->rise_end());
  if (x_lo <= rise_end) {
    const int frontier =
        s.ledger->FeasibleFrontier(v, mean, var, det, x_lo, rise_end);
    batch(x_lo, frontier - 1);
    fill_infeasible(frontier, rise_end);
  }
  // Middle cells between the verified segments: probe densely.
  const int fall_begin =
      std::max(x_lo, std::max(s.profile->fall_begin(), rise_end + 1));
  batch(std::max(x_lo, rise_end + 1), std::min(x_hi, fall_begin - 1));
  // Falling segment: moments non-increasing, so feasible cells are a suffix.
  if (fall_begin <= x_hi) {
    const int first_feasible = s.ledger->FeasibleFrontierDescending(
        v, mean, var, det, fall_begin, x_hi);
    fill_infeasible(fall_begin, first_feasible - 1);
    batch(first_feasible, x_hi);
  }
}

// Folds one child's row into `current`, writing next[k] for every k the
// two windows can reach (cur_lo + child_lo up to min(n, cur_hi + child_hi),
// which the caller has filled with +inf).
//
// In optimize mode the inner loop is the branchless min/max kernel: +inf
// cells are absorbed by the max and never improve the min, and ties keep
// the incumbent exactly as the reference's strict `<` does, so the row is
// bit-identical to the reference recurrence's.
void FoldChild(const DpShared& s, const double* current, int cur_lo,
               int cur_hi, topology::VertexId child, double* next) {
  const int n = s.n;
  const double* child_opt = s.opt_row(child);
  const int child_lo = s.opt_lo[child];
  const int child_hi = s.opt_hi[child];
  if (!s.optimize) {
    // Feasibility mode keeps the first finite pair in (h, e) order, as the
    // reference does.
    for (int h = cur_lo; h <= cur_hi; ++h) {
      if (current[h] == kInfeasible) continue;
      const int e_limit = std::min(child_hi, n - h);
      for (int e = child_lo; e <= e_limit; ++e) {
        if (child_opt[e] != kInfeasible && next[h + e] == kInfeasible) {
          next[h + e] = std::max(current[h], child_opt[e]);
        }
      }
    }
  } else if (cur_hi - cur_lo > child_hi - child_lo) {
    // next[k] is the min of max(current[h], child_opt[e]) over the same
    // {h + e = k} pair set whichever loop runs inside, and min over a set
    // of doubles is order-independent, so the kernel sweeps whichever
    // window is longer: a rack folding 4-slot machine rows wants the
    // vectorized inner loop over its ~n-wide accumulated row, not the
    // 5-cell child row.
    for (int e = child_lo; e <= child_hi; ++e) {
      const double ce = child_opt[e];
      if (ce == kInfeasible) continue;
      const int h_limit = std::min(cur_hi, n - e);
      const double* __restrict cur = current;
      double* __restrict out = next + e;
      for (int h = cur_lo; h <= h_limit; ++h) {
        out[h] = std::min(out[h], std::max(ce, cur[h]));
      }
    }
  } else {
    for (int h = cur_lo; h <= cur_hi; ++h) {
      const double c = current[h];
      if (c == kInfeasible) continue;
      const int e_limit = std::min(child_hi, n - h);
      const double* __restrict ch = child_opt;
      double* __restrict out = next + h;
      for (int e = child_lo; e <= e_limit; ++e) {
        out[e] = std::min(out[e], std::max(c, ch[e]));
      }
    }
  }
}

// The last stage of a child fold: its row, length and feasible window, the
// maximum still to be applied to the row's finite cells, and how many
// children were folded into stage rows.
struct Fold {
  const double* row;
  int len;
  int lo;
  int hi;
  double hoisted;
  int stages;
};

// Folds v's children one at a time (T_v^[i]) into scratch's stage rows.
//
// A child whose feasible window is exactly {0} (single_cell) is not folded:
// its fold would only max its x = 0 cell into every finite cell and pad the
// row with +inf.  Such cells go into one running maximum, `hoisted`, that
// the caller applies to the last stage's finite cells.  That is exact: max
// distributes over the fold's min, and in feasibility mode a finite
// maximum leaves every cell's finiteness as it was.  The row length still
// grows by the child's size, so lengths and feasible windows match a fold
// of every child.
//
// Stage j is the row after the j-th folded child; stage 0 is T_v^[0] = {v}:
// zero VMs, no links.  The DP pass reads only the last stage;
// reconstruction reads them all (with each one's window and hoisted
// maximum in scratch.stages).
Fold FoldChildren(const DpShared& s, topology::VertexId v, DpArena& scratch) {
  const auto& children = s.topo->children(v);
  scratch.ReserveStages(static_cast<int>(children.size()) + 1);
  double* current = scratch.stage_row(0);
  current[0] = 0.0;
  Fold fold{.row = current,
            .len = 1,
            .lo = 0,
            .hi = 0,
            .hoisted = -kInfeasible,
            .stages = 0};
  scratch.stages[0] = {0, 0, fold.hoisted};
  for (topology::VertexId child : children) {
    fold.len = std::min(s.n, fold.len - 1 + s.opt_len[child] - 1) + 1;
    if (s.single_cell(child)) {
      fold.hoisted = std::max(fold.hoisted, s.opt_row(child)[0]);
      continue;
    }
    double* next = scratch.stage_row(++fold.stages);
    // Every pair sums into [reach_lo, reach_hi]; the cells outside it are
    // +inf in the reference and are never read here.
    const int reach_lo = fold.lo + s.opt_lo[child];
    const int reach_hi = std::min(s.n, fold.hi + s.opt_hi[child]);
    if (reach_lo <= reach_hi) {
      std::fill(next + reach_lo, next + reach_hi + 1, kInfeasible);
      FoldChild(s, current, fold.lo, fold.hi, child, next);
    }
    current = next;
    // Rescan the window (cheap: one pass over the cells the fold wrote;
    // dwarfed by the fold's O(window^2) work).
    fold.lo = reach_lo;
    while (fold.lo <= reach_hi && current[fold.lo] == kInfeasible) ++fold.lo;
    fold.hi = reach_hi;
    while (fold.hi > fold.lo && current[fold.hi] == kInfeasible) --fold.hi;
    if (fold.lo > reach_hi) {  // empty row: nothing feasible any more
      fold.lo = 1;
      fold.hi = 0;
    }
    scratch.stages[fold.stages] = {fold.lo, fold.hi, fold.hoisted};
  }
  fold.row = current;
  return fold;
}

// The count of VMs the reference recurrence records for `child` at total r,
// where child turned stage j - 1 into stage j of the last fold.  The
// reference scans h = r - e upward and keeps the first strict improvement,
// so its count is the largest e among the minimizers in optimize mode and
// the largest e of a finite pair in feasibility mode.  The stage rows lack
// the maximum K of the single-cell children folded before `child`, so K is
// put back on both sides: with it, every pair below K ties at K, as it does
// in the reference's rows.
int SplitCount(const DpShared& s, DpArena& arena, topology::VertexId child,
               int j, int r) {
  const double* prev = arena.stage_row(j - 1);
  const DpArena::Stage& from = arena.stages[j - 1];
  const double k = arena.stages[j].hoisted;
  const double target = std::max(k, arena.stage_row(j)[r]);
  const double* child_opt = s.opt_row(child);
  const int e_lo = std::max(s.opt_lo[child], r - from.hi);
  for (int e = std::min(s.opt_hi[child], r - from.lo); e >= e_lo; --e) {
    const double rest = prev[r - e];  // the earlier children's r - e VMs
    if (s.optimize ? std::max(std::max(k, rest), child_opt[e]) == target
                   : rest != kInfeasible && child_opt[e] != kInfeasible) {
      return e;
    }
  }
  assert(false && "reconstruction hit an unreachable table entry");
  return 0;
}

// Computes vertex v's opt row from the children's already-computed rows.
// Pure with respect to the shared tables except for v's own rows, so
// vertices within a level can run concurrently in any order.
void ComputeVertexRow(const DpShared& s, topology::VertexId v,
                      DpArena& scratch, KernelStats& stats) {
  const topology::Topology& topo = *s.topo;
  const int n = s.n;
  double* vopt = s.opt_row(v);

  if (topo.is_machine(v)) {
    // Leaf: S_v = {0..free slots}; no links inside a machine, so the
    // subtree cost is just the uplink's.
    const int cap = std::min(n, s.slots->free_slots(v));
    s.opt_len[v] = cap + 1;
    UplinkRow(s, v, 0, cap, vopt, stats);
  } else {
    const Fold fold = FoldChildren(s, v, scratch);
    // Apply the single-cell children's maximum and v's own uplink (root has
    // none), only across the fold's feasible window — everything outside is
    // already infeasible.
    s.opt_len[v] = fold.len;
    std::fill(vopt, vopt + fold.len, kInfeasible);
    if (fold.lo <= fold.hi) {
      if (v == topo.root()) {
        for (int x = fold.lo; x <= fold.hi; ++x) {
          vopt[x] = std::max(fold.row[x], fold.hoisted);
        }
      } else {
        double* up = scratch.row.data();
        UplinkRow(s, v, fold.lo, fold.hi, up, stats);
        for (int x = fold.lo; x <= fold.hi; ++x) {
          if (fold.row[x] == kInfeasible || up[x] == kInfeasible) continue;
          vopt[x] = std::max(std::max(fold.row[x], fold.hoisted), up[x]);
        }
      }
    }
  }

  // Record the row's feasible window for the parent's fold.
  const int len = s.opt_len[v];
  int lo = 0;
  while (lo < len && vopt[lo] == kInfeasible) ++lo;
  int hi = len - 1;
  while (hi > lo && vopt[hi] == kInfeasible) --hi;
  if (lo >= len) {
    lo = 1;
    hi = 0;
  }
  s.opt_lo[v] = lo;
  s.opt_hi[v] = hi;
}

// Shared state of one level's parallel fan-out.  Workers claim vertices
// through the atomic cursor; the submitting thread participates too, so a
// one-worker pool still makes progress while the caller waits.
struct LevelJob {
  const DpShared* shared;
  const topology::VertexId* vertices;
  int count;
  std::atomic<int> cursor{0};
  std::atomic<int64_t> kernel_cells{0};
  std::atomic<int64_t> pruned_cells{0};
  util::Latch* latch;

  void Drain() {
    DpArena& scratch = LocalArena();
    scratch.PrepareScratch(shared->n);
    KernelStats stats;
    for (int i = cursor.fetch_add(1, std::memory_order_relaxed); i < count;
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      ComputeVertexRow(*shared, vertices[i], scratch, stats);
    }
    kernel_cells.fetch_add(stats.kernel_cells, std::memory_order_relaxed);
    pruned_cells.fetch_add(stats.pruned_cells, std::memory_order_relaxed);
  }
};

}  // namespace

util::Result<Placement> HomogeneousSearchAllocator::Allocate(
    const Request& request, const net::LinkLedger& ledger,
    const SlotMap& slots) const {
  SVC_TRACE_SPAN("alloc/homogeneous_search");
  if (!request.homogeneous()) {
    return {util::ErrorCode::kInvalidArgument,
            std::string(name()) + " handles homogeneous requests only"};
  }
  if (util::Status s = request.Validate(); !s.ok()) return s;
  const int n = request.n();
  if (n > slots.total_free()) {
    return {util::ErrorCode::kCapacity,
            "request needs " + std::to_string(n) + " VMs, only " +
                std::to_string(slots.total_free()) + " slots free"};
  }

  const topology::Topology& topo = ledger.topo();

  DpArena& arena = LocalArena();
  arena.profile.Reset(request);
  const HomogeneousProfile& profile = arena.profile;
  arena.Prepare(topo.num_vertices(), n);

  const DpShared shared{&topo,
                        &ledger,
                        &slots,
                        &profile,
                        arena.opt.data(),
                        arena.opt_len.data(),
                        arena.opt_lo.data(),
                        arena.opt_hi.data(),
                        arena.stride,
                        n,
                        options_.optimize_occupancy,
                        ledger.quantile() >= 0};

  topology::VertexId best_vertex = topology::kNoVertex;
  double best_value = kInfeasible;
  KernelStats stats;
  int64_t parallel_tasks = 0;

  for (int level = 0; level <= topo.height(); ++level) {
    const auto& vertices = topo.vertices_at_level(level);
    const bool parallel =
        options_.pool != nullptr &&
        static_cast<int>(vertices.size()) >= options_.min_parallel_vertices;
    if (parallel) {
      // Fan the per-vertex DP across the pool.  Row values are pure
      // functions of the ledger and the children's rows, so computation
      // order does not matter; the best-subtree reduction below stays in
      // serial level order, keeping placements bit-identical to serial.
      const int fanout = options_.pool->num_threads();
      util::Latch latch(fanout);
      LevelJob job{.shared = &shared,
                   .vertices = vertices.data(),
                   .count = static_cast<int>(vertices.size()),
                   .latch = &latch};
      for (int t = 0; t < fanout; ++t) {
        // The lambda captures one pointer, so std::function's small-buffer
        // path applies and submission stays heap-free.
        options_.pool->Submit([&job] {
          job.Drain();
          job.latch->CountDown();
        });
      }
      job.Drain();  // the caller participates until the cursor drains
      latch.Wait();
      stats.kernel_cells += job.kernel_cells.load(std::memory_order_relaxed);
      stats.pruned_cells += job.pruned_cells.load(std::memory_order_relaxed);
      parallel_tasks += fanout;
    }
    for (topology::VertexId v : vertices) {
      if (!parallel) {
        // Early level termination: once this level holds a best subtree
        // (and the search will stop at this level), a vertex can only win
        // by strictly beating best_value.  Every link's occupancy is
        // monotone in the added moments, so max over the children's
        // base-occupancy cells (their x = 0 entries) lower-bounds the
        // vertex's eventual vopt[n]; if the bound can't beat best_value
        // the whole subtree fold is skipped.  Skipped rows are never read:
        // the level break below runs before any parent could fold them.
        if (options_.lowest_subtree_first &&
            best_vertex != topology::kNoVertex) {
          if (!options_.optimize_occupancy) {
            stats.pruned_cells += n + 1;
            continue;  // first feasible vertex already found
          }
          if (shared.monotone) {
            double bound = 0;
            if (topo.is_machine(v)) {
              if (n > slots.free_slots(v)) bound = kInfeasible;
            } else {
              for (topology::VertexId child : topo.children(v)) {
                bound = std::max(bound, shared.opt_row(child)[0]);
              }
            }
            if (!(bound < best_value)) {
              stats.pruned_cells += n + 1;
              continue;
            }
          }
        }
        ComputeVertexRow(shared, v, arena, stats);
      }

      // Can this subtree host the whole request?
      if (arena.opt_len[v] > n) {
        const double whole = shared.opt_row(v)[n];
        if (whole != kInfeasible) {
          const bool better = options_.optimize_occupancy
                                  ? whole < best_value
                                  : best_vertex == topology::kNoVertex;
          if (better) {
            best_vertex = v;
            best_value = whole;
          }
        }
      }
    }
    if (options_.lowest_subtree_first && best_vertex != topology::kNoVertex) {
      break;  // lowest feasible level found; stop for locality
    }
  }

  SVC_METRIC_ADD("alloc/kernel_cells", stats.kernel_cells);
  SVC_METRIC_ADD("alloc/pruned_cells", stats.pruned_cells);
  if (parallel_tasks > 0) {
    SVC_METRIC_ADD("alloc/level_parallel_tasks", parallel_tasks);
  }

  if (best_vertex == topology::kNoVertex) {
    return {util::ErrorCode::kInfeasible,
            "no subtree satisfies the probabilistic guarantee for " +
                request.Describe()};
  }

  // Reconstruct the chosen split top-down.  The DP pass keeps no per-cell
  // winners, so each visited internal vertex is refolded once, and each
  // child's count is derived from the stage it was folded into
  // (SplitCount); a single-cell child's count is 0.  Cost is bounded by the
  // winning subtree, not the whole fabric.
  Placement placement;
  placement.subtree_root = best_vertex;
  placement.max_occupancy = best_value;
  placement.vm_machine = TakeVmBuffer();
  placement.vm_machine.reserve(n);
  // Explicit stack (arena-owned) to avoid recursion on deep topologies.
  auto& stack = arena.stack;
  stack.emplace_back(best_vertex, n);
  while (!stack.empty()) {
    const auto [v, x] = stack.back();
    stack.pop_back();
    if (x == 0) continue;
    if (topo.is_machine(v)) {
      for (int k = 0; k < x; ++k) placement.vm_machine.push_back(v);
      continue;
    }
    int stage = FoldChildren(shared, v, arena).stages;
    const auto& children = topo.children(v);
    int remaining = x;
    for (size_t i = children.size(); i-- > 0;) {
      if (shared.single_cell(children[i])) continue;
      const int e = SplitCount(shared, arena, children[i], stage--, remaining);
      if (e > 0) stack.emplace_back(children[i], e);
      remaining -= e;
    }
    assert(stage == 0 && remaining == 0 && "vertex itself holds no VMs");
  }
  assert(static_cast<int>(placement.vm_machine.size()) == n);
  return placement;
}

}  // namespace svc::core
