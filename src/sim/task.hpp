// Coroutine types for simulation processes.
//
// Two flavours, following the structured-concurrency split used by most
// C++ coroutine libraries:
//
//  * `Co<T>` — a lazy child coroutine. Calling a Co function allocates the
//    frame but runs nothing; `co_await`ing it transfers control in, and
//    completion symmetrically transfers back to the awaiter. Strictly
//    serial: use it for any async function called from exactly one parent
//    (e.g. LustreClient::write).
//
//  * `Task` — a root process with its own logical thread of control.
//    Started with Engine::spawn; runs concurrently with its spawner.
//    `co_await task` joins it (many joiners allowed).
//
// Lifetime: the Task frame is reference-counted. Each Task object holds one
// reference, and the Engine holds one from spawn until the coroutine's
// final suspend. Whoever drops the count to zero destroys the frame, so
// joiners may safely outlive completion and fire-and-forget spawns free
// themselves. Exceptions propagate to the awaiter; a root task that fails
// with no joiner surfaces its exception from Engine::run().
//
// Allocation: both promise types inherit FramePooled (arena.hpp), so
// coroutine frames created while an Engine is alive are recycled through
// that engine's free-list arena instead of malloc. Frames must not outlive
// the engine (same rule the ref-counting already imposes on Task handles).
#pragma once

#include <coroutine>
#include <exception>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/arena.hpp"
#include "sim/engine.hpp"
#include "support/error.hpp"

namespace pfsc::sim {

// ---------------------------------------------------------------------------
// Task: spawnable root process.
// ---------------------------------------------------------------------------

class TaskPromise;

class Task {
 public:
  using promise_type = TaskPromise;

  Task() = default;
  explicit Task(std::coroutine_handle<TaskPromise> h);
  Task(const Task& other);
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task other) noexcept {
    std::swap(h_, other.h_);
    return *this;
  }
  ~Task();

  bool valid() const { return h_ != nullptr; }
  bool done() const;

  /// Awaitable join: resumes when the task finishes (immediately if it
  /// already has); rethrows the task's exception, if any.
  auto operator co_await() const;

  std::coroutine_handle<TaskPromise> handle() const { return h_; }

 private:
  std::coroutine_handle<TaskPromise> h_;
};

class TaskPromise : public FramePooled {
 public:
  Task get_return_object();
  std::suspend_always initial_suspend() noexcept { return {}; }

  auto final_suspend() noexcept {
    struct Final {
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<TaskPromise> h) noexcept {
        TaskPromise& p = h.promise();
        p.done_ = true;
        if (Engine* eng = p.engine_) {
          eng->note_root_done(p.live_index_);
          if (p.first_waiter_) {
            eng->schedule(p.first_waiter_, eng->now());
            for (auto waiter : p.extra_waiters_) eng->schedule(waiter, eng->now());
          } else if (p.exception_) {
            eng->note_unhandled(p.exception_);
          }
          p.first_waiter_ = nullptr;
          p.extra_waiters_.clear();
          if (p.release_ref()) {  // drop the engine's reference
            h.destroy();
            return true;
          }
        }
        return true;  // remaining Task owners destroy the frame
      }
      void await_resume() const noexcept {}
    };
    return Final{};
  }

  void return_void() noexcept {}
  void unhandled_exception() noexcept { exception_ = std::current_exception(); }

  // -- bookkeeping used by Task / Engine --------------------------------
  void add_ref() noexcept { ++refs_; }
  /// Drop one reference; returns true if the caller must destroy the frame.
  bool release_ref() noexcept { return --refs_ == 0; }
  bool done() const noexcept { return done_; }
  bool spawned() const noexcept { return engine_ != nullptr; }
  const std::exception_ptr& exception() const noexcept { return exception_; }
  // Joiner list with an inline first slot: almost every task has 0 or 1
  // joiners, so the common case never touches the overflow vector.
  void add_waiter(std::coroutine_handle<> h) {
    if (!first_waiter_) {
      first_waiter_ = h;
    } else {
      extra_waiters_.push_back(h);
    }
  }
  void bind(Engine& eng, std::size_t live_index) noexcept {
    engine_ = &eng;
    live_index_ = live_index;
    add_ref();  // the engine's reference, dropped at final suspend
  }
  std::size_t live_index() const noexcept { return live_index_; }
  void set_live_index(std::size_t i) noexcept { live_index_ = i; }

 private:
  Engine* engine_ = nullptr;
  std::size_t live_index_ = static_cast<std::size_t>(-1);
  int refs_ = 0;
  bool done_ = false;
  std::exception_ptr exception_;
  std::coroutine_handle<> first_waiter_;
  std::vector<std::coroutine_handle<>> extra_waiters_;
};

inline Task TaskPromise::get_return_object() {
  return Task{std::coroutine_handle<TaskPromise>::from_promise(*this)};
}

inline Task::Task(std::coroutine_handle<TaskPromise> h) : h_(h) {
  if (h_) h_.promise().add_ref();
}
inline Task::Task(const Task& other) : h_(other.h_) {
  if (h_) h_.promise().add_ref();
}
inline Task::~Task() {
  if (h_ && h_.promise().release_ref()) h_.destroy();
}
inline bool Task::done() const { return h_ && h_.promise().done(); }

inline auto Task::operator co_await() const {
  struct Join {
    Task task;  // keep the frame alive across the join
    bool await_ready() const noexcept { return task.handle().promise().done(); }
    void await_suspend(std::coroutine_handle<> h) {
      task.handle().promise().add_waiter(h);
    }
    void await_resume() const {
      if (const auto& e = task.handle().promise().exception()) {
        std::rethrow_exception(e);
      }
    }
  };
  PFSC_ASSERT(valid());
  PFSC_ASSERT(handle().promise().spawned());  // joining an unspawned task deadlocks
  return Join{*this};
}

// ---------------------------------------------------------------------------
// Co<T>: lazy child coroutine with symmetric transfer back to the awaiter.
// ---------------------------------------------------------------------------

template <typename T>
class CoPromise;

/// Lazy child coroutine; see file header.
template <typename T = void>
class Co {
 public:
  using promise_type = CoPromise<T>;

  Co() = default;
  explicit Co(std::coroutine_handle<promise_type> h) : h_(h) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co(Co&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  ~Co() {
    if (h_) h_.destroy();
  }

  bool valid() const { return h_ != nullptr; }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().set_continuation(cont);
        return h;  // symmetric transfer into the child
      }
      T await_resume() {
        if (const auto& e = h.promise().exception()) std::rethrow_exception(e);
        if constexpr (!std::is_void_v<T>) {
          return std::move(h.promise().value());
        }
      }
    };
    PFSC_ASSERT(valid());
    return Awaiter{h_};
  }

 private:
  std::coroutine_handle<promise_type> h_;
};

template <typename T>
class CoPromiseCore : public FramePooled {
 public:
  std::suspend_always initial_suspend() noexcept { return {}; }
  auto final_suspend() noexcept {
    struct Final {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<CoPromise<T>> h) noexcept {
        auto cont = h.promise().continuation();
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    return Final{};
  }
  void unhandled_exception() noexcept { exception_ = std::current_exception(); }
  void set_continuation(std::coroutine_handle<> h) noexcept { continuation_ = h; }
  std::coroutine_handle<> continuation() const noexcept { return continuation_; }
  const std::exception_ptr& exception() const noexcept { return exception_; }

 private:
  std::coroutine_handle<> continuation_;
  std::exception_ptr exception_;
};

template <typename T>
class CoPromise : public CoPromiseCore<T> {
 public:
  Co<T> get_return_object() {
    return Co<T>{std::coroutine_handle<CoPromise>::from_promise(*this)};
  }
  template <typename U>
  void return_value(U&& v) {
    value_ = std::forward<U>(v);
  }
  T& value() { return value_; }

 private:
  T value_{};
};

template <>
class CoPromise<void> : public CoPromiseCore<void> {
 public:
  Co<void> get_return_object() {
    return Co<void>{std::coroutine_handle<CoPromise>::from_promise(*this)};
  }
  void return_void() noexcept {}
};

/// Join every task in `tasks` (helper for fan-out/fan-in patterns), then
/// rethrow the first failure: no task is still running when join_all
/// returns or throws, so tasks may point into the awaiter's frame.
inline Co<void> join_all(std::vector<Task> tasks) {
  std::exception_ptr failure;
  for (auto& t : tasks) {
    try {
      co_await t;
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace pfsc::sim
