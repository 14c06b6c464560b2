#include "pap/runner.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>

#include "core/timer.hpp"
#include "obs/obs.hpp"

namespace peachy::pap {

std::string to_string(Schedule s) {
  switch (s) {
    case Schedule::kStatic: return "static";
    case Schedule::kStaticChunk1: return "static,1";
    case Schedule::kDynamic: return "dynamic";
    case Schedule::kGuided: return "guided";
    case Schedule::kWorkStealing: return "work-stealing";
  }
  return "?";
}

namespace {

void apply_schedule(Schedule s) {
  switch (s) {
    case Schedule::kStatic: omp_set_schedule(omp_sched_static, 0); break;
    case Schedule::kStaticChunk1: omp_set_schedule(omp_sched_static, 1); break;
    case Schedule::kDynamic: omp_set_schedule(omp_sched_dynamic, 1); break;
    case Schedule::kGuided: omp_set_schedule(omp_sched_guided, 1); break;
    case Schedule::kWorkStealing: break;  // runs on the task runtime
  }
}

// Tile span on the executing thread's tracer lane (any scheduling policy).
inline void obs_tile(std::int64_t t0, const Tile& t, int iter) {
  obs::Tracer::global().complete("tile", "pap", t0, now_ns(),
                                 {{"iter", iter}, {"y0", t.y0}, {"x0", t.x0}});
}

}  // namespace

int checkerboard_wave(const Tile& t) {
  // Even-parity colours (0,0), (1,1) first, then odd-parity (0,1), (1,0).
  return 2 * ((t.ty + t.tx) & 1) + (t.ty & 1);
}

Runner::Runner(TileGrid tiles, RunOptions options)
    : tiles_(tiles), options_(options) {
  if (options_.checkerboard) {
    // Four-colour waves keep in-place kernels race-free only when no two
    // same-wave tiles can write into the same cell, which requires tiles at
    // least 2 cells wide/tall (see "Checkerboard waves" in DESIGN.md).
    PEACHY_REQUIRE(tiles_.tile_h() >= 2 && tiles_.tile_w() >= 2,
                   "checkerboard waves need tiles >= 2x2, got "
                       << tiles_.tile_h() << "x" << tiles_.tile_w());
  }
  waves_.resize(options_.checkerboard ? kCheckerboardWaves : 1);
  for (int i = 0; i < tiles_.count(); ++i) {
    const int wave = options_.checkerboard ? checkerboard_wave(tiles_.tile(i))
                                           : 0;
    waves_[static_cast<std::size_t>(wave)].push_back(i);
  }
  if (options_.trace != nullptr) {
    const int lanes_needed = lane_count();
    PEACHY_REQUIRE(options_.trace->workers() >= lanes_needed,
                   "trace has " << options_.trace->workers()
                                << " lanes, run may use " << lanes_needed);
  }
}

TaskArena& Runner::arena() const {
  return options_.arena != nullptr ? *options_.arena : TaskArena::shared();
}

int Runner::lane_count() const {
  if (options_.schedule == Schedule::kWorkStealing) {
    int lanes = static_cast<int>(arena().lanes());
    if (options_.threads > 0) lanes = std::min(lanes, options_.threads);
    return std::max(1, lanes);
  }
  return options_.threads > 0 ? options_.threads : omp_get_max_threads();
}

// Runs the kernel once on each listed tile, one task per tile, and returns
// whether any tile changed. With `record_changed`, changed tiles are also
// appended to their lane's changed_ list (lazy activation).
int Runner::run_tiles(const std::vector<int>& ids, const TileKernel& kernel,
                      int iter, bool record_changed) {
  if (ids.empty()) return 0;  // e.g. a lazy wave with no active tile
  TraceRecorder* trace = options_.trace;
  const bool obs_on = obs::enabled();  // hoisted: one gate per wave
  const auto run_one = [&](std::size_t k, int lane) {
    const Tile t = tiles_.tile(ids[k]);
    const std::int64_t t0 = (trace || obs_on) ? now_ns() : 0;
    const bool changed = kernel(t, iter);
    if (trace) {
      trace->record(
          TaskRecord{iter, lane, t.y0, t.x0, t.h, t.w, t0, now_ns()});
    }
    if (obs_on) obs_tile(t0, t, iter);
    if (changed && record_changed)
      changed_[static_cast<std::size_t>(lane)].push_back(t.index);
    return changed;
  };

  if (options_.schedule == Schedule::kWorkStealing) {
    std::atomic<int> changed_any{0};
    TaskArena::ForOptions fo;
    fo.max_workers =
        options_.threads > 0 ? static_cast<std::size_t>(options_.threads) : 0;
    fo.grain = 1;  // one tile per task, the analogue of dynamic,1
    arena().parallel_for(
        ids.size(),
        [&](std::size_t lo, std::size_t hi) {
          int local_changed = 0;
          for (std::size_t k = lo; k < hi; ++k)
            local_changed |= run_one(k, TaskArena::current_lane()) ? 1 : 0;
          if (local_changed) changed_any.store(1, std::memory_order_relaxed);
        },
        fo);
    return changed_any.load(std::memory_order_relaxed);
  }

  int changed_any = 0;
  const int m = static_cast<int>(ids.size());
#pragma omp parallel for schedule(runtime) reduction(| : changed_any) \
    num_threads(options_.threads > 0 ? options_.threads : omp_get_max_threads())
  for (int k = 0; k < m; ++k) {
    changed_any |=
        run_one(static_cast<std::size_t>(k), omp_get_thread_num()) ? 1 : 0;
  }
  return changed_any;
}

// Executes every tile, one wave after another, and returns whether any
// tile changed.
int Runner::execute_eager(const TileKernel& kernel, int iter,
                          std::size_t* tasks) {
  int changed_any = 0;
  for (const std::vector<int>& wave : waves_)
    changed_any |= run_tiles(wave, kernel, iter, /*record_changed=*/false);
  *tasks += static_cast<std::size_t>(tiles_.count());
  return changed_any;
}

// Lazy execution: only tiles in the activation bitmap run; tiles that
// change wake themselves and their 4 neighbours for the next iteration.
// All scratch (worklist, per-lane changed tiles, both bitmaps) is reused
// across iterations — steady state performs no allocation.
int Runner::execute_lazy(const TileKernel& kernel, int iter,
                         std::size_t* tasks) {
  for (const std::vector<int>& wave : waves_) {
    work_.clear();
    for (int i : wave)
      if (active_[static_cast<std::size_t>(i)]) work_.push_back(i);
    run_tiles(work_, kernel, iter, /*record_changed=*/true);
    *tasks += work_.size();
  }

  // Build the next activation set serially (cheap: O(changed tiles)) into
  // the double buffer, then swap.
  std::fill(next_active_.begin(), next_active_.end(), 0);
  int changed_any = 0;
  int nb[4];
  for (auto& lane : changed_) {
    for (int idx : lane) {
      changed_any = 1;
      next_active_[static_cast<std::size_t>(idx)] = 1;
      const int count = tiles_.neighbors(idx, nb);
      for (int j = 0; j < count; ++j)
        next_active_[static_cast<std::size_t>(nb[j])] = 1;
    }
    lane.clear();
  }
  active_.swap(next_active_);
  return changed_any;
}

RunResult Runner::run(const TileKernel& kernel) {
  PEACHY_CHECK(kernel != nullptr);
  RunResult result;
  WallTimer timer;

  const bool ws = options_.schedule == Schedule::kWorkStealing;
  RuntimeCounters before;
  if (ws) before = arena().counters();

  if (options_.lazy) {
    const std::size_t n = static_cast<std::size_t>(tiles_.count());
    active_.assign(n, 1);
    next_active_.assign(n, 0);
    work_.clear();
    work_.reserve(n);
    changed_.resize(static_cast<std::size_t>(lane_count()));
  }

  for (int iter = 0;; ++iter) {
    if (options_.max_iterations > 0 && iter >= options_.max_iterations) break;
    obs::Span span("pap.iteration", "pap");
    const std::size_t tasks_before = result.tasks;
    if (!ws) apply_schedule(options_.schedule);
    const int changed = options_.lazy
                            ? execute_lazy(kernel, iter, &result.tasks)
                            : execute_eager(kernel, iter, &result.tasks);
    span.arg("iter", iter);
    span.arg("changed", changed);
    span.arg("tasks", static_cast<std::int64_t>(result.tasks - tasks_before));
    ++result.iterations;
    if (options_.on_iteration) options_.on_iteration(iter, changed != 0);
    if (!changed) {
      result.stable = true;
      break;
    }
  }

  if (ws) result.steals = (arena().counters() - before).steals;
  result.elapsed_ns = timer.elapsed_ns();
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter& runs = reg.counter("pap.runs");
    static obs::Counter& iters = reg.counter("pap.iterations");
    static obs::Counter& tile_tasks = reg.counter("pap.tile_tasks");
    static obs::Histogram& iter_ns = reg.histogram("pap.run_ns");
    runs.add(1);
    iters.add(static_cast<std::uint64_t>(result.iterations));
    tile_tasks.add(result.tasks);
    iter_ns.observe(result.elapsed_ns);
  }
  return result;
}

}  // namespace peachy::pap
