#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

namespace nvmsec {

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  std::vector<WorkerUtilization>* utilization) {
  if (utilization != nullptr) utilization->clear();
  if (n == 0) return;
  const std::size_t drivers = std::clamp<std::size_t>(threads, 1, n);
  if (utilization != nullptr) utilization->resize(drivers);

  // One exception slot per index, written at most once, by its claimer.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  const auto drive = [&](std::size_t driver) {
    WorkerUtilization* const slot =
        utilization != nullptr ? &(*utilization)[driver] : nullptr;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const std::chrono::steady_clock::time_point start =
          slot != nullptr ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (slot != nullptr) {
        slot->busy_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        ++slot->tasks;
      }
    }
  };

  {
    // jthreads join on destruction, including when a later spawn throws.
    std::vector<std::jthread> helpers;
    helpers.reserve(drivers - 1);
    for (std::size_t d = 1; d < drivers; ++d) helpers.emplace_back(drive, d);
    drive(0);
  }

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

std::size_t hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace nvmsec
