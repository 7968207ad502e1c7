#pragma once
// A small fixed-size thread pool with a blocking parallel_for.
//
// Its two users, the rounds of a `Machine` collective and the rungs of the
// replica-exchange ladder, hand it coarse independent chunks, so a simple
// mutex-protected queue is sufficient; there is no work stealing. The pool
// is created once and reused — creating threads per call would dominate the
// millisecond-scale rounds it serves.
//
// Trace-context propagation: when work is enqueued from inside an active
// obs::Span, each queued task captures a flow id at enqueue (emitting a
// Chrome-trace 's' event under the submitter's span) and the worker emits
// the matching 'f' head inside its "threadpool.task" span — so Perfetto
// draws arrows from the submitting span to every task it fanned out,
// giving parallel phases per-task attribution across threads.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace orp {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs body(i) for i in [0, count) distributed over the pool in blocks,
  /// and additionally on the calling thread. Blocks until all iterations
  /// finish. The first exception thrown by any iteration is rethrown.
  /// Called from one of this pool's own workers, it runs every iteration
  /// inline: queued helpers could wait behind workers that all wait alike.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const noexcept;

  /// Process-wide pool, sized from hardware concurrency on first use.
  static ThreadPool& global();

 private:
  struct ForLoop;
  /// A queued job plus the trace-flow id captured at enqueue (0 when the
  /// submitter was not inside a span or tracing is off).
  struct Task {
    std::function<void()> fn;
    std::uint64_t flow = 0;
  };
  void worker_main();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace orp
