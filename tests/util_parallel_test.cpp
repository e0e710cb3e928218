#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/metrics.hpp"

namespace mcdft::util {
namespace {

TEST(Parallel, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
  EXPECT_GE(ResolveThreadCount(0), 1u);  // env var or hardware count
}

TEST(Parallel, VisitsEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 9u}) {
    for (std::size_t count : {0u, 1u, 3u, 17u, 100u}) {
      std::vector<std::atomic<int>> hits(count);
      ParallelFor(threads, count,
                  [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads";
      }
    }
  }
}

TEST(Parallel, RangesPartitionContiguously) {
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ParallelForRange(4, 10, [&](std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(begin, end);
  });
  std::sort(ranges.begin(), ranges.end());
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, 10u);
  for (std::size_t i = 0; i + 1 < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].second, ranges[i + 1].first);  // no gaps, no overlap
  }
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(ParallelFor(4, 16,
                           [](std::size_t i) {
                             if (i == 11) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(Parallel, NestedSectionsRunInline) {
  // A parallel section inside a pool worker must not deadlock waiting on
  // the queue its own worker is occupying; it runs serial inline.
  std::atomic<int> total{0};
  ParallelFor(4, 8, [&](std::size_t) {
    ParallelFor(4, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(Parallel, SectionNeverWaitsOnTasksQueuedBehindAnotherSection) {
  // Section A holds every pool worker until section B is done, so B's
  // pool tasks sit in the queue behind A's.  B's caller must run those
  // ranges itself rather than wait for tasks that have not started.
  const std::size_t ways = std::max<std::size_t>(
      4, static_cast<std::size_t>(
             metrics::GetGauge("util.parallel.workers").Value()) + 1);
  std::atomic<bool> b_done{false};
  std::atomic<std::size_t> a_running{0};
  std::atomic<std::size_t> a_exited{0};
  std::thread a([&] {
    ParallelForRange(ways, ways, [&](std::size_t begin, std::size_t) {
      if (begin == 0) return;
      a_running.fetch_add(1);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!b_done.load() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      a_exited.fetch_add(1);
    });
  });
  for (int i = 0; i < 5'000 && a_running.load() < ways - 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(a_running.load(), ways - 1);

  std::vector<std::atomic<int>> hits(8);
  ParallelFor(4, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  const std::size_t a_exited_when_b_returned = a_exited.load();
  b_done.store(true);
  a.join();
  EXPECT_EQ(a_exited_when_b_returned, 0u) << "B waited for A's ranges";
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, DeterministicOrderedReduction) {
  // The canonical usage pattern: workers fill their own slots, the caller
  // reduces in index order afterwards — identical for any thread count.
  auto run = [](std::size_t threads) {
    std::vector<double> slots(1000);
    ParallelFor(threads, slots.size(), [&](std::size_t i) {
      slots[i] = 1.0 / (1.0 + static_cast<double>(i));
    });
    return std::accumulate(slots.begin(), slots.end(), 0.0);
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

}  // namespace
}  // namespace mcdft::util
