#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace limoncello {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    constexpr int kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(0, kN, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " with " << threads << " threads";
    }
  }
}

TEST(ThreadPoolTest, ParallelForRespectsGrainAndNonzeroBegin) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(
      10, 50,
      [&](std::int64_t i) { hits[static_cast<std::size_t>(i)].fetch_add(1); },
      8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), i < 10 ? 0 : 1);
  }
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](std::int64_t) { ++calls; });
  pool.ParallelFor(7, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_on_caller = true;
  pool.ParallelFor(0, 64, [&](std::int64_t) {
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  });
  EXPECT_TRUE(all_on_caller);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  for (int job = 0; job < 100; ++job) {
    pool.ParallelFor(0, 10, [&](std::int64_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 100 * 45);
}

// A worker that joins a job after the caller has decided the job is done
// could carry that job's fn and end into the next job's cursor. The test
// above cannot see it: its callables are temporaries at one stack address
// over one range. Here every job has its own range and its own callable,
// all kept alive, so a stray call lands on the wrong job's counters and
// after that job's ParallelFor returned.
TEST(ThreadPoolTest, BackToBackJobsRunEachIndexOnceAndNeverLate) {
  constexpr int kJobs = 2000;
  constexpr std::size_t kMaxIndex = 64;
  struct Job {
    std::vector<std::atomic<int>> hits =
        std::vector<std::atomic<int>>(kMaxIndex);
    std::atomic<bool> returned{false};
    std::atomic<int> late_calls{0};
  };
  std::vector<Job> jobs(kJobs);
  std::vector<std::function<void(std::int64_t)>> fns;
  fns.reserve(kJobs);
  for (Job& job : jobs) {
    fns.push_back([&job](std::int64_t i) {
      if (job.returned.load()) job.late_calls.fetch_add(1);
      job.hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
  }
  const auto range = [](int j) {
    const std::int64_t begin = (j * 7) % 23;
    return std::pair<std::int64_t, std::int64_t>{begin,
                                                 begin + 9 + (j * 5) % 31};
  };

  ThreadPool pool(4);
  for (int j = 0; j < kJobs; ++j) {
    const auto [begin, end] = range(j);
    pool.ParallelFor(begin, end, fns[static_cast<std::size_t>(j)]);
    jobs[static_cast<std::size_t>(j)].returned.store(true);
  }

  for (int j = 0; j < kJobs; ++j) {
    const auto [begin, end] = range(j);
    const Job& job = jobs[static_cast<std::size_t>(j)];
    EXPECT_EQ(job.late_calls.load(), 0) << "job " << j;
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(kMaxIndex); ++i) {
      EXPECT_EQ(job.hits[static_cast<std::size_t>(i)].load(),
                i >= begin && i < end ? 1 : 0)
          << "job " << j << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelInvokeRunsAllThunks) {
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> thunks;
  for (int i = 0; i < 5; ++i) {
    thunks.push_back([&] { ran.fetch_add(1); });
  }
  ParallelInvoke(std::move(thunks));
  EXPECT_EQ(ran.load(), 5);
  ParallelInvoke({});  // empty is a no-op
}

TEST(ResolveThreadCountTest, ExplicitRequestWins) {
  SetDefaultThreadCount(3);
  setenv("LIMONCELLO_THREADS", "5", 1);
  EXPECT_EQ(ResolveThreadCount(2), 2);
  SetDefaultThreadCount(0);
  unsetenv("LIMONCELLO_THREADS");
}

TEST(ResolveThreadCountTest, ProcessDefaultBeatsEnvironment) {
  setenv("LIMONCELLO_THREADS", "5", 1);
  SetDefaultThreadCount(3);
  EXPECT_EQ(ResolveThreadCount(0), 3);
  SetDefaultThreadCount(0);
  EXPECT_EQ(ResolveThreadCount(0), 5);
  unsetenv("LIMONCELLO_THREADS");
}

TEST(ResolveThreadCountTest, BadEnvironmentFallsBackToHardware) {
  setenv("LIMONCELLO_THREADS", "not-a-number", 1);
  EXPECT_GE(ResolveThreadCount(0), 1);
  setenv("LIMONCELLO_THREADS", "-2", 1);
  EXPECT_GE(ResolveThreadCount(0), 1);
  unsetenv("LIMONCELLO_THREADS");
  EXPECT_GE(ResolveThreadCount(0), 1);
}

}  // namespace
}  // namespace limoncello
