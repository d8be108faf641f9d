// Coroutine process runtime for the EFD simulator.
//
// A process automaton (the paper's A^C_i or A^S_i) is written as a C++20
// coroutine of type Co<void> taking a Context&. Every
//
//     co_await ctx.read(addr) / ctx.write(addr, v) / ctx.query() /
//     ctx.yield() / ctx.decide(v)
//
// is exactly ONE step of the model: the coroutine suspends, and the step is
// performed when (and only when) the scheduler next selects this process.
// Local computation between awaits is free, matching the standard model in
// which a step is a single shared-memory access (or FD query) plus arbitrary
// local transitions.
//
// Subroutines compose: a helper `Co<Value> collect(Context&, ...)` can be
// `co_await`ed from another coroutine; its steps bubble up to the scheduler
// transparently (continuation chaining with symmetric transfer).
//
// AUTHORING RULES (violations are lifetime bugs):
//  * a coroutine takes its parameters BY VALUE (except Context&, which is a
//    stable heap object owned by the World) — reference parameters dangle
//    once the caller's full-expression ends;
//  * never pass an aggregate-struct prvalue (e.g. PaxosInstance{...}) as an
//    argument inside a `co_await f(...)` expression: GCC 12.2 destroys that
//    temporary twice. Bind it to a named local first (string and Value
//    prvalues are unaffected; see /tmp reproductions in the repo history);
//  * a lambda must never itself be a coroutine: its captures live in the
//    lambda object, which typically dies right after being passed to
//    World::spawn. Factories return lambdas that CALL a standalone
//    coroutine function (see e.g. algo/leader_consensus.cpp).
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "sim/arena.hpp"
#include "sim/ids.hpp"
#include "sim/regid.hpp"
#include "sim/value.hpp"

namespace efd {

/// What a suspended process is waiting to do on its next scheduled step.
/// Fits in 3 bits (Trace packs it with kOpMask) — at most 8 kinds.
enum class OpKind : std::uint8_t {
  kRead,     ///< read a shared register; step result = register value
  kWrite,    ///< write a shared register; step result = Nil
  kQuery,    ///< query the failure detector (S-processes only)
  kYield,    ///< null local step (used by busy-wait loops); result = Nil
  kDecide,   ///< decide step: records the decision value
  kSend,     ///< enqueue a message to a mailbox (message substrates); result = Nil
  kRecv,     ///< dequeue from own mailbox; result = message or Nil when empty
  kDeliver,  ///< move one in-flight message onto its mailbox (link daemons)
};

struct PendingOp {
  OpKind kind{OpKind::kYield};
  RegAddr addr;  ///< interned register/mailbox/link handle
  Value value;   ///< value for kWrite/kDecide/kSend
};

template <class T>
class Co;

namespace detail {

template <class T>
struct CoPromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr error{};

  // Coroutine frames come from the thread's current FrameArena (installed by
  // World entry points) and fall back to the global heap otherwise. The
  // sized delete is ignored on purpose: frame_free reads the size from the
  // block's own header, so frames can be freed from any thread/scope.
  static void* operator new(std::size_t bytes) { return frame_alloc(bytes); }
  static void operator delete(void* p) noexcept { frame_free(p); }
  static void operator delete(void* p, std::size_t) noexcept { frame_free(p); }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <class P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { error = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started coroutine returning T, usable as a process body (T=void)
/// or as an awaitable subroutine. Move-only; owns its frame.
template <class T>
class Co {
 public:
  struct promise_type : detail::CoPromiseBase<T> {
    std::optional<T> result;
    Co get_return_object() {
      return Co{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { result.emplace(std::move(v)); }
  };

  Co() noexcept = default;
  Co(Co&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Co& operator=(Co&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(h_); }
  [[nodiscard]] bool done() const noexcept { return !h_ || h_.done(); }
  [[nodiscard]] std::coroutine_handle<promise_type> handle() const noexcept { return h_; }

  /// Awaiting a Co<T> starts it and yields T when it finishes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // start (or resume into) the subroutine
      }
      T await_resume() {
        if (h.promise().error) std::rethrow_exception(h.promise().error);
        return std::move(*h.promise().result);
      }
    };
    return Awaiter{h_};
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) noexcept : h_(h) {}
  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  std::coroutine_handle<promise_type> h_{};

  friend struct promise_type;
};

template <>
class Co<void> {
 public:
  struct promise_type : detail::CoPromiseBase<void> {
    Co get_return_object() {
      return Co{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() noexcept {}
  };

  Co() noexcept = default;
  Co(Co&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Co& operator=(Co&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(h_); }
  [[nodiscard]] bool done() const noexcept { return !h_ || h_.done(); }
  [[nodiscard]] std::coroutine_handle<promise_type> handle() const noexcept { return h_; }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() {
        if (h.promise().error) std::rethrow_exception(h.promise().error);
      }
    };
    return Awaiter{h_};
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) noexcept : h_(h) {}
  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  std::coroutine_handle<promise_type> h_{};

  friend struct promise_type;
};

/// A process body.
using Proc = Co<void>;

/// Per-process mailbox between the coroutine and the World executor.
///
/// The coroutine side registers pending operations via the awaitable
/// factories; the World side inspects `pending()`, performs the operation,
/// and calls `deliver(result)`, which resumes the innermost suspended frame.
class Context {
 public:
  explicit Context(Pid pid) noexcept : pid_(pid) {}
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] Pid pid() const noexcept { return pid_; }

  // ---- coroutine-side awaitable factories (each is one model step) ----

  struct StepAwaiter {
    Context* ctx;
    PendingOp op;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      ctx->pending_ = std::move(op);
      ctx->has_pending_ = true;
      ctx->resume_target_ = h;
    }
    Value await_resume() noexcept { return std::move(ctx->result_); }
  };

  [[nodiscard]] StepAwaiter read(RegAddr addr) noexcept {
    return {this, {OpKind::kRead, addr, Value{}}};
  }
  [[nodiscard]] StepAwaiter write(RegAddr addr, Value v) noexcept {
    return {this, {OpKind::kWrite, addr, std::move(v)}};
  }
  [[nodiscard]] StepAwaiter query() noexcept { return {this, {OpKind::kQuery, {}, Value{}}}; }
  [[nodiscard]] StepAwaiter yield() noexcept { return {this, {OpKind::kYield, {}, Value{}}}; }
  [[nodiscard]] StepAwaiter decide(Value v) noexcept {
    return {this, {OpKind::kDecide, {}, std::move(v)}};
  }
  [[nodiscard]] StepAwaiter send(RegAddr to, Value v) noexcept {
    return {this, {OpKind::kSend, to, std::move(v)}};
  }
  [[nodiscard]] StepAwaiter recv(RegAddr mbox) noexcept {
    return {this, {OpKind::kRecv, mbox, Value{}}};
  }
  [[nodiscard]] StepAwaiter deliver(RegAddr link) noexcept {
    return {this, {OpKind::kDeliver, link, Value{}}};
  }

  // ---- world-side protocol ----

  [[nodiscard]] bool has_pending() const noexcept { return has_pending_; }
  [[nodiscard]] const PendingOp& pending() const noexcept { return pending_; }

  /// Consumes the pending op, stores the step result, and resumes the process
  /// until it registers its next op or finishes.
  void deliver(Value result) {
    assert(has_pending_);
    has_pending_ = false;
    result_ = std::move(result);
    auto h = std::exchange(resume_target_, {});
    h.resume();
  }

  [[nodiscard]] bool decided() const noexcept { return decided_; }
  [[nodiscard]] const Value& decision() const noexcept { return decision_; }
  void record_decision(Value v) noexcept {
    decided_ = true;
    decision_ = std::move(v);
  }

  /// Returns the mailbox to its freshly-constructed state so World::respawn
  /// can reuse the Context object (it is a stable heap address handed by
  /// reference into coroutine frames, so it must not be reallocated).
  void reset() noexcept {
    pending_ = PendingOp{};
    has_pending_ = false;
    result_ = Value{};
    resume_target_ = {};
    decided_ = false;
    decision_ = Value{};
  }

 private:
  Pid pid_;
  PendingOp pending_{};
  bool has_pending_ = false;
  Value result_;
  std::coroutine_handle<> resume_target_{};
  bool decided_ = false;
  Value decision_;
};

// ---- common multi-step helpers (each register access is one step) ----

/// Reads base[0..n-1] one register at a time; returns the n collected values.
Co<Value> collect(Context& ctx, Sym base, int n);

/// Repeated double collect of base[0..n-1] until two identical collects.
/// Returns the stable view. May take unboundedly many steps under contention
/// (standard for register-based snapshots); our algorithms only use it where
/// the paper's constructions tolerate that.
Co<Value> double_collect(Context& ctx, Sym base, int n);

/// Busy-waits (one read step per iteration) until `addr` is non-Nil; returns
/// the first non-Nil value observed.
Co<Value> await_nonnil(Context& ctx, RegAddr addr);

}  // namespace efd
