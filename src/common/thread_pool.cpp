#include "common/thread_pool.hpp"

#include <atomic>
#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace orp {
namespace {

// Cached instrument references: looked up once, bumped on every enqueue /
// task run.
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& gauge = obs::Registry::global().gauge("threadpool.queue_depth");
  return gauge;
}

obs::Histogram& task_latency_histogram() {
  static obs::Histogram& histogram =
      obs::Registry::global().histogram("threadpool.task_ns");
  return histogram;
}

/// The pool whose worker the current thread is; null on other threads.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 1 ? hw - 1 : 0;  // the calling thread also participates
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const noexcept { return current_pool == this; }

void ThreadPool::worker_main() {
  current_pool = this;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_gauge().sub(1);
    {
      // The span gives the flow head a slice to land on; Perfetto links
      // the submitter's 's' event to this task via the shared flow id.
      obs::Span span("threadpool.task", "pool");
      obs::flow_end(task.flow, "threadpool.task", "pool");
      obs::ScopedTimer timer(task_latency_histogram());
      task.fn();
    }
  }
}

// Shared state for one parallel_for invocation. Iterations are handed out
// as dynamic chunks via an atomic cursor so uneven per-index costs (e.g. BFS
// from high-eccentricity sources) still balance.
struct ThreadPool::ForLoop {
  std::atomic<std::size_t> next{0};
  std::size_t count = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<int> pending{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  void run_chunks() {
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) break;
      const std::size_t end = std::min(count, begin + chunk);
      try {
        for (std::size_t i = begin; i < end; ++i) (*body)(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
        next.store(count, std::memory_order_relaxed);  // cancel remaining work
      }
    }
  }
};

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t participants = workers_.size() + 1;
  if (participants == 1 || count == 1 || on_worker_thread()) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  auto loop = std::make_shared<ForLoop>();
  loop->count = count;
  loop->chunk = std::max<std::size_t>(1, count / (participants * 4));
  loop->body = &body;
  const int helpers =
      static_cast<int>(std::min(workers_.size(), count - 1));
  loop->pending.store(helpers, std::memory_order_relaxed);

  // Counted before enqueueing so a fast worker's sub() cannot observe the
  // gauge below zero.
  queue_depth_gauge().add(helpers);
  {
    std::lock_guard lock(mutex_);
    for (int i = 0; i < helpers; ++i) {
      // Flow capture at enqueue: one id per helper task, the 's' event
      // lands inside the caller's current span (if any).
      queue_.push_back(Task{[loop] {
                              loop->run_chunks();
                              if (loop->pending.fetch_sub(
                                      1, std::memory_order_acq_rel) == 1) {
                                std::lock_guard done(loop->done_mutex);
                                loop->done_cv.notify_all();
                              }
                            },
                            obs::flow_begin("threadpool.task", "pool")});
    }
  }
  cv_.notify_all();

  loop->run_chunks();  // the caller works too
  {
    std::unique_lock done(loop->done_mutex);
    loop->done_cv.wait(done, [&] {
      return loop->pending.load(std::memory_order_acquire) == 0;
    });
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace orp
