#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace nvmsec {
namespace {

TEST(ThreadPoolTest, HardwareWorkersIsPositive) {
  EXPECT_GE(hardware_workers(), 1u);
}

TEST(ThreadPoolTest, ParallelForEachVisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(4, kN, [&visits](std::size_t i, std::size_t) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEachResultsIndependentOfScheduling) {
  // Results written by index are identical however the indices were
  // interleaved — the determinism contract the experiment runner builds on.
  constexpr std::size_t kN = 257;
  std::vector<std::uint64_t> out(kN, 0);
  parallel_for(4, kN, [&out](std::size_t i, std::size_t) {
    // Uneven per-index work so dynamic claiming actually interleaves.
    std::uint64_t acc = i;
    for (std::size_t k = 0; k < (i % 7) * 1000; ++k) acc = acc * 6364136223846793005ULL + 1;
    out[i] = acc;
  });
  std::vector<std::uint64_t> serial(kN, 0);
  for (std::size_t i = 0; i < kN; ++i) {
    std::uint64_t acc = i;
    for (std::size_t k = 0; k < (i % 7) * 1000; ++k) acc = acc * 6364136223846793005ULL + 1;
    serial[i] = acc;
  }
  EXPECT_EQ(out, serial);
}

TEST(ThreadPoolTest, ParallelForEachHandlesZeroAndFewerItemsThanWorkers) {
  std::atomic<int> counter{0};
  parallel_for(8, 0, [&counter](std::size_t, std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 0);
  parallel_for(8, 3, [&counter](std::size_t, std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, ParallelForEachRethrowsSmallestFailingIndex) {
  for (std::size_t threads : {1u, 4u}) {
    std::atomic<int> attempted{0};
    try {
      parallel_for(threads, 100, [&attempted](std::size_t i, std::size_t) {
        ++attempted;
        if (i == 17 || i == 63) {
          throw std::runtime_error("failed at " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "expected an exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failed at 17") << threads << " threads";
    }
    // Every index was still attempted (no early abandonment of siblings),
    // at one thread as at four.
    EXPECT_EQ(attempted.load(), 100) << threads << " threads";
  }
}

TEST(ThreadPoolTest, OneThreadRunsAscendingOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_on_caller = true;
  std::vector<WorkerUtilization> utilization;
  parallel_for(
      1, 5,
      [&](std::size_t i, std::size_t thread) {
        order.push_back(i);
        all_on_caller = all_on_caller && thread == 0;
        all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
      },
      &utilization);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(all_on_caller);
  ASSERT_EQ(utilization.size(), 1u);
  EXPECT_EQ(utilization[0].tasks, 5u);
}

TEST(ThreadPoolTest, UtilizationHasOneSlotPerThreadThatRan) {
  for (const auto& [threads, n] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 10}, {3, 10}, {4, 2}, {8, 8}}) {
    std::vector<WorkerUtilization> utilization(99);  // stale contents go
    parallel_for(threads, n, [](std::size_t, std::size_t) {}, &utilization);
    EXPECT_EQ(utilization.size(), std::min(threads, n))
        << threads << " threads, " << n << " indices";
    std::uint64_t tasks = 0;
    for (const WorkerUtilization& u : utilization) tasks += u.tasks;
    EXPECT_EQ(tasks, n) << threads << " threads, " << n << " indices";
  }
}

TEST(ThreadPoolTest, ThreadSlotsIdentifyOneThreadEach) {
  // Every call gets its thread's slot: in range, the caller's is 0, and one
  // slot never names two threads — so per-slot state needs no lock.
  for (const auto& [threads, n] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 10}, {3, 200}, {4, 2}, {8, 8}}) {
    const std::size_t slots = std::min(threads, n);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> owner(slots);
    std::vector<std::atomic<int>> in_use(slots);
    std::atomic<bool> ok{true};
    parallel_for(threads, n, [&](std::size_t, std::size_t thread) {
      if (thread >= slots || in_use[thread]++ != 0) {
        ok = false;
        return;
      }
      if (owner[thread] == std::thread::id{}) {
        owner[thread] = std::this_thread::get_id();
      }
      if (owner[thread] != std::this_thread::get_id() ||
          (thread == 0) != (std::this_thread::get_id() == caller)) {
        ok = false;
      }
      --in_use[thread];
    });
    EXPECT_TRUE(ok.load()) << threads << " threads, " << n << " indices";
  }
}

TEST(ThreadPoolTest, TasksActuallyRunConcurrentlyWhenWorkersAllow) {
  // Two indices that each wait for the other can only finish if two
  // threads run them simultaneously.
  std::atomic<int> arrived{0};
  const auto rendezvous = [&arrived](std::size_t, std::size_t) {
    ++arrived;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (arrived.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("rendezvous timed out");
      }
      std::this_thread::yield();
    }
  };
  EXPECT_NO_THROW(parallel_for(2, 2, rendezvous));
}

}  // namespace
}  // namespace nvmsec
