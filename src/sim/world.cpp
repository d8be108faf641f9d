#include "sim/world.hpp"

#include <algorithm>

#include "fd/detectors.hpp"

namespace efd {

World World::failure_free(int num_s) {
  return World(FailurePattern(num_s), TrivialFd{}.history(FailurePattern(num_s), 0));
}

void World::spawn(Pid pid, const ProcBody& body) {
  if (exists(pid)) throw std::invalid_argument("World::spawn: duplicate pid " + pid.to_string());
  if (pid.index < 0) throw std::invalid_argument("World::spawn: negative index");
  if (pid.is_s() && pid.index >= pattern_.n()) {
    throw std::invalid_argument("World::spawn: S-process index beyond failure pattern");
  }
  auto& v = pid.is_c() ? c_slots_ : s_slots_;
  if (static_cast<std::size_t>(pid.index) >= v.size()) {
    v.resize(static_cast<std::size_t>(pid.index) + 1);
  }
  Slot& s = v[static_cast<std::size_t>(pid.index)];
  s.ctx = std::make_unique<Context>(pid);
  {
    FrameArena::Scope scope(arena_.get());
    s.proc = body(*s.ctx);
  }
  if (!s.proc.valid()) {
    s.ctx.reset();
    throw std::invalid_argument("World::spawn: body produced no coroutine");
  }
  pids_.insert(std::upper_bound(pids_.begin(), pids_.end(), pid), pid);
  if (pid.is_c()) {
    num_c_ = std::max(num_c_, pid.index + 1);
  } else {
    num_s_ = std::max(num_s_, pid.index + 1);
  }
}

void World::respawn(Pid pid, const ProcBody& body) {
  Slot& s = slot(pid);  // throws if pid was never spawned
  FrameArena::Scope scope(arena_.get());
  // Drop the old frame first: it lands on a freelist the new frame of the
  // same body (same size class) is immediately recycled from.
  s.proc = Proc{};
  s.ctx->reset();
  s.primed = false;
  s.steps = 0;
  s.proc = body(*s.ctx);
  if (!s.proc.valid()) {
    throw std::invalid_argument("World::respawn: body produced no coroutine");
  }
}

const PendingOp* World::pending_op(Pid pid) {
  Slot& s = slot(pid);
  prime(s);
  if (s.proc.done() || !s.ctx->has_pending()) return nullptr;
  return &s.ctx->pending();
}

void World::redeliver_all(Pid pid, const std::vector<Value>& results) {
  if (!pid.is_c()) throw std::logic_error("World::redeliver_all: C-processes only");
  Slot& s = slot(pid);
  prime(s);
  FrameArena::Scope scope(arena_.get());
  for (const Value& result : results) {
    if (s.proc.done() || !s.ctx->has_pending()) {
      throw std::logic_error("World::redeliver_all: " + pid.to_string() + " has no pending op");
    }
    if (s.ctx->pending().kind == OpKind::kDecide) {
      s.ctx->record_decision(s.ctx->pending().value);
    }
    s.ctx->deliver(Value(result));
    if (s.proc.handle().promise().error) {
      std::rethrow_exception(s.proc.handle().promise().error);
    }
  }
  s.steps += static_cast<int>(results.size());
}

const World::Slot& World::slot(Pid pid) const {
  const auto& v = pid.is_c() ? c_slots_ : s_slots_;
  if (pid.index < 0 || static_cast<std::size_t>(pid.index) >= v.size() ||
      !v[static_cast<std::size_t>(pid.index)].ctx) {
    throw std::out_of_range("World: unknown pid " + pid.to_string());
  }
  return v[static_cast<std::size_t>(pid.index)];
}

World::Slot& World::slot(Pid pid) {
  auto& v = pid.is_c() ? c_slots_ : s_slots_;
  if (pid.index < 0 || static_cast<std::size_t>(pid.index) >= v.size() ||
      !v[static_cast<std::size_t>(pid.index)].ctx) {
    throw std::out_of_range("World: unknown pid " + pid.to_string());
  }
  return v[static_cast<std::size_t>(pid.index)];
}

void World::prime(Slot& s) {
  if (s.primed) return;
  s.primed = true;
  // Run local initialization up to the first operation; this consumes no
  // step. Resuming can start subroutine frames, hence the arena scope.
  FrameArena::Scope scope(arena_.get());
  s.proc.handle().resume();
  if (auto err = s.proc.handle().promise().error) std::rethrow_exception(err);
}

bool World::step(Pid pid) {
  Slot& s = slot(pid);
  if (pid.is_s() && !pattern_.alive(pid.index, now_)) {
    ++stats_.crashed_attempts;  // no time advance, no trace record
    return false;
  }
  prime(s);

  OpKind op_kind = OpKind::kYield;
  RegAddr addr;
  bool null_step = false;
  bool terminated = false;
  Value traced_value;   // only populated when tracing
  Value traced_result;  // only populated when tracing

  if (s.proc.done() || !s.ctx->has_pending()) {
    // Terminated (typically after a decide): null steps forever.
    null_step = true;
    ++stats_.null_steps;
  } else {
    // The pending op stays valid until deliver() resumes the coroutine;
    // everything needed after the resume is copied out first.
    const PendingOp& op = s.ctx->pending();
    op_kind = op.kind;
    addr = op.addr;
    Value result;
    switch (op_kind) {
      case OpKind::kRead:
        result = mem_.read(addr);
        ++stats_.reads;
        break;
      case OpKind::kWrite:
        mem_.write(addr, op.value);
        ++stats_.writes;
        break;
      case OpKind::kQuery:
        if (!pid.is_s()) throw std::logic_error("FD query from C-process " + pid.to_string());
        result = history_->at(pid.index, now_);
        ++stats_.queries;
        break;
      case OpKind::kYield:
        ++stats_.yields;
        break;
      case OpKind::kDecide:
        s.ctx->record_decision(op.value);
        ++stats_.decides;
        break;
      case OpKind::kSend:
        result = substrate().apply_send(mem_, pid, addr, op.value);
        ++stats_.sends;
        break;
      case OpKind::kRecv:
        result = substrate().apply_recv(mem_, addr);
        ++stats_.recvs;
        break;
      case OpKind::kDeliver:
        result = substrate().apply_deliver(mem_, addr);
        ++stats_.delivers;
        break;
    }
    if (tracing_) {
      traced_value = op.value;
      traced_result = result;
    }
    {
      FrameArena::Scope scope(arena_.get());
      s.ctx->deliver(std::move(result));
    }
    if (auto err = s.proc.handle().promise().error) std::rethrow_exception(err);
    ++s.steps;
    // Mark the step that completes the coroutine: checkers retire the
    // process here even when it never decided (quitters).
    terminated = s.proc.done();
  }

  ++stats_.steps;
  if (observer_ != nullptr) {
    observer_->on_step(pid, op_kind, null_step, !null_step && op_kind == OpKind::kDecide,
                       terminated);
  }
  if (tracing_) {
    trace_.append(now_, pid, op_kind, addr, traced_value, traced_result, null_step, terminated);
  }
  ++now_;
  return true;
}

bool World::all_c_decided() const {
  for (const Slot& s : c_slots_) {
    if (s.ctx && !s.ctx->decided()) return false;
  }
  return true;
}

ValueVec World::output_vector() const {
  ValueVec out(static_cast<std::size_t>(num_c_));
  for (std::size_t i = 0; i < c_slots_.size(); ++i) {
    const Slot& s = c_slots_[i];
    if (s.ctx && s.ctx->decided()) out[i] = s.ctx->decision();
  }
  return out;
}

}  // namespace efd
