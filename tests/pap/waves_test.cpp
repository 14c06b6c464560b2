// Checkerboard waves: the invariant that makes in-place kernels race-free
// (no two tiles of one wave write the same cell), the Runner honouring the
// wave order, and an in-place sandpile run on the work-stealing arena,
// whose std::atomic synchronization ThreadSanitizer can see.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/task_runtime.hpp"
#include "pap/runner.hpp"
#include "sandpile/field.hpp"
#include "sandpile/kernels.hpp"

namespace peachy::pap {
namespace {

struct Geometry {
  int height, width, tile_h, tile_w;
};

// Every tile geometry the Runner and sandpile variant tests run, including
// clipped edge tiles (30x46 / 7x11, 26x42 / 16, 30x70 / 7x16).
const Geometry kGeometries[] = {
    {8, 8, 2, 2},     {8, 8, 4, 4},     {16, 16, 8, 8},   {16, 16, 16, 16},
    {24, 24, 8, 8},   {24, 24, 16, 16}, {26, 42, 8, 8},   {26, 42, 16, 16},
    {30, 46, 4, 16},  {30, 46, 16, 4},  {30, 46, 7, 11},  {30, 70, 7, 16},
    {32, 32, 8, 8},   {40, 40, 8, 8},   {40, 40, 16, 16}, {48, 48, 8, 8},
    {64, 64, 8, 8},   {64, 64, 16, 16}, {128, 128, 16, 16},
};

// Describes the first cell written by two tiles of the same wave, or
// returns "" if every wave's write footprints are disjoint. A tile's write
// footprint is what an in-place 5-point stencil touches: each of its cells
// and their up/down/left/right neighbours (the sink ring included).
std::string first_conflict(const TileGrid& grid,
                           const std::function<int(const Tile&)>& wave_of) {
  const int ph = grid.height() + 2, pw = grid.width() + 2;
  int waves = 0;
  for (int i = 0; i < grid.count(); ++i)
    waves = std::max(waves, wave_of(grid.tile(i)) + 1);
  for (int wave = 0; wave < waves; ++wave) {
    std::vector<int> writer(static_cast<std::size_t>(ph * pw), -1);
    for (int i = 0; i < grid.count(); ++i) {
      const Tile t = grid.tile(i);
      if (wave_of(t) != wave) continue;
      for (int y = t.y0; y < t.y0 + t.h; ++y) {
        for (int x = t.x0; x < t.x0 + t.w; ++x) {
          const int cells[5][2] = {
              {y, x}, {y - 1, x}, {y + 1, x}, {y, x - 1}, {y, x + 1}};
          for (const auto& c : cells) {
            int& w = writer[static_cast<std::size_t>((c[0] + 1) * pw +
                                                     c[1] + 1)];
            if (w != -1 && w != t.index) {
              std::ostringstream os;
              os << "wave " << wave << ": tiles " << w << " and " << t.index
                 << " both write cell (" << c[0] << "," << c[1] << ")";
              return os.str();
            }
            w = t.index;
          }
        }
      }
    }
  }
  return "";
}

TEST(CheckerboardWaves, SameWaveFootprintsAreDisjoint) {
  for (const Geometry& g : kGeometries) {
    const TileGrid grid(g.height, g.width, g.tile_h, g.tile_w);
    for (int i = 0; i < grid.count(); ++i) {
      const Tile t = grid.tile(i);
      const int wave = checkerboard_wave(t);
      EXPECT_GE(wave, 0);
      EXPECT_LT(wave, kCheckerboardWaves);
      // Even-parity tiles run in the first half of the waves.
      EXPECT_EQ(wave < kCheckerboardWaves / 2, ((t.ty + t.tx) & 1) == 0)
          << "tile (" << t.ty << "," << t.tx << ")";
    }
    EXPECT_EQ(first_conflict(grid, checkerboard_wave), "")
        << g.height << "x" << g.width << " grid, " << g.tile_h << "x"
        << g.tile_w << " tiles";
  }
}

TEST(CheckerboardWaves, UnsafeWavesCollide) {
  // Two colours put diagonal neighbours in one wave: tile (0,0) pushes
  // right into the cell that tile (1,1) pushes up into.
  const auto parity = [](const Tile& t) { return (t.ty + t.tx) & 1; };
  EXPECT_NE(first_conflict(TileGrid(16, 16, 8, 8), parity), "");
  // The reason Runner requires checkerboard tiles of at least 2x2: with a
  // 1-cell extent, two same-wave tiles a tile apart share the cell between.
  EXPECT_NE(first_conflict(TileGrid(8, 8, 1, 8), checkerboard_wave), "");
  EXPECT_NE(first_conflict(TileGrid(8, 8, 8, 1), checkerboard_wave), "");
  EXPECT_NE(first_conflict(TileGrid(8, 8, 1, 1), checkerboard_wave), "");
}

TEST(CheckerboardWaves, RunnerExecutesWavesInOrder) {
  // Each wave's tiles all start after every tile of the previous wave has
  // started, for eager and lazy runs on both runtimes.
  const TileGrid grid(30, 46, 7, 11);
  TaskArena arena(4);
  for (const Schedule s : {Schedule::kDynamic, Schedule::kWorkStealing}) {
    for (const bool lazy : {false, true}) {
      RunOptions opt;
      opt.schedule = s;
      opt.arena = &arena;
      opt.threads = 4;
      opt.lazy = lazy;
      opt.checkerboard = true;
      opt.max_iterations = 1;
      std::atomic<int> clock{0};
      // Start stamp per tile, counted from 1; 0 = never ran.
      std::vector<std::atomic<int>> started(
          static_cast<std::size_t>(grid.count()));
      Runner runner(grid, opt);
      const RunResult r = runner.run([&](const Tile& t, int) {
        started[static_cast<std::size_t>(t.index)] = clock.fetch_add(1) + 1;
        return false;
      });
      EXPECT_EQ(r.tasks, static_cast<std::size_t>(grid.count()));
      std::vector<int> first(kCheckerboardWaves, grid.count() + 1);
      std::vector<int> last(kCheckerboardWaves, -1);
      for (int i = 0; i < grid.count(); ++i) {
        const int wave = checkerboard_wave(grid.tile(i));
        const int at = started[static_cast<std::size_t>(i)];
        ASSERT_GT(at, 0) << "tile " << i << " never ran";
        first[static_cast<std::size_t>(wave)] =
            std::min(first[static_cast<std::size_t>(wave)], at);
        last[static_cast<std::size_t>(wave)] =
            std::max(last[static_cast<std::size_t>(wave)], at);
      }
      for (int wave = 1; wave < kCheckerboardWaves; ++wave) {
        EXPECT_LT(last[static_cast<std::size_t>(wave - 1)],
                  first[static_cast<std::size_t>(wave)])
            << to_string(s) << (lazy ? " lazy" : " eager") << ", wave "
            << wave;
      }
    }
  }
}

TEST(CheckerboardWaves, WorkStealingInPlaceSandpileMatchesReference) {
  // The in-place kernel on the TSan-visible runtime: a lost grain from two
  // same-wave tiles writing one cell shows up as a different fixed point
  // (and, under the tsan preset, as a reported race).
  sandpile::Field expected = sandpile::center_pile(40, 40, 3000);
  sandpile::stabilize_reference(expected);
  TaskArena arena(4);
  for (const bool lazy : {false, true}) {
    sandpile::Field f = sandpile::center_pile(40, 40, 3000);
    sandpile::AsyncEngine engine(f);
    RunOptions opt;
    opt.schedule = Schedule::kWorkStealing;
    opt.arena = &arena;
    opt.lazy = lazy;
    opt.checkerboard = true;
    Runner runner(TileGrid(40, 40, 8, 8), opt);
    const RunResult r = runner.run(engine.kernel(true));
    EXPECT_TRUE(r.stable) << (lazy ? "lazy" : "eager");
    EXPECT_TRUE(f.same_interior(expected)) << (lazy ? "lazy" : "eager");
  }
}

}  // namespace
}  // namespace peachy::pap
