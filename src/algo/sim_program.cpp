#include "algo/sim_program.hpp"

#include <stdexcept>
#include <string>

namespace efd {
namespace {

SimAction::Kind to_sim_kind(OpKind k) {
  switch (k) {
    case OpKind::kRead:
      return SimAction::Kind::kRead;
    case OpKind::kWrite:
      return SimAction::Kind::kWrite;
    case OpKind::kQuery:
      return SimAction::Kind::kQuery;
    case OpKind::kYield:
      return SimAction::Kind::kYield;
    case OpKind::kDecide:
      return SimAction::Kind::kDecide;
    case OpKind::kSend:
    case OpKind::kRecv:
    case OpKind::kDeliver:
      // No SimAction models a message op: halting here would make every
      // searcher and simulation treat a sending process as finished.
      throw std::logic_error(
          std::string("ReplayProgram: the body's next op is a ") +
          (k == OpKind::kSend ? "send" : k == OpKind::kRecv ? "recv" : "deliver") +
          "; SimPrograms model registers, FD queries, yield and decide only");
  }
  return SimAction::Kind::kHalt;
}

}  // namespace

Value ReplayProgram::init(int index, const Value& input) const {
  return vec(Value(index), input);
}

SimAction ReplayProgram::action(const Value& state) const {
  const auto& st = state.as_vec();
  const int index = static_cast<int>(st[0].int_or(0));
  const Value& input = st[1];

  Context ctx(cpid(index));
  Proc proc = body_(index, input, ctx);
  if (!proc.valid()) throw std::logic_error("ReplayProgram: body produced no coroutine");
  proc.handle().resume();  // prime to the first pending op
  if (auto err = proc.handle().promise().error) std::rethrow_exception(err);

  for (std::size_t t = 2; t < st.size(); ++t) {
    if (proc.done() || !ctx.has_pending()) {
      return SimAction{};  // already halted earlier than the recorded history
    }
    ctx.deliver(st[t]);
    if (auto err = proc.handle().promise().error) std::rethrow_exception(err);
  }

  if (proc.done() || !ctx.has_pending()) return SimAction{};
  const PendingOp& op = ctx.pending();
  return SimAction{to_sim_kind(op.kind), op.addr, op.value};
}

Value ReplayProgram::transition(const Value& state, const Value& result) const {
  ValueVec st = state.as_vec();
  st.push_back(result);
  return Value(std::move(st));
}

Proc run_sim_program(Context& ctx, SimProgramPtr prog, int index, Value input) {
  Value state = prog->init(index, input);
  for (;;) {
    const SimAction act = prog->action(state);
    Value result;
    switch (act.kind) {
      case SimAction::Kind::kRead:
        result = co_await ctx.read(act.addr);
        break;
      case SimAction::Kind::kWrite:
        co_await ctx.write(act.addr, act.value);
        break;
      case SimAction::Kind::kQuery:
        result = co_await ctx.query();
        break;
      case SimAction::Kind::kYield:
        co_await ctx.yield();
        break;
      case SimAction::Kind::kDecide:
        co_await ctx.decide(act.value);
        break;
      case SimAction::Kind::kHalt:
        co_return;
    }
    state = prog->transition(state, result);
  }
}

Co<Value> run_until_decision(Context& ctx, SimProgramPtr prog, int index, Value input) {
  Value state = prog->init(index, input);
  for (;;) {
    const SimAction act = prog->action(state);
    Value result;
    switch (act.kind) {
      case SimAction::Kind::kRead:
        result = co_await ctx.read(act.addr);
        break;
      case SimAction::Kind::kWrite:
        co_await ctx.write(act.addr, act.value);
        break;
      case SimAction::Kind::kQuery:
        result = co_await ctx.query();
        break;
      case SimAction::Kind::kYield:
        co_await ctx.yield();
        break;
      case SimAction::Kind::kDecide:
        co_return act.value;
      case SimAction::Kind::kHalt:
        throw std::logic_error("run_until_decision: program halted without deciding");
    }
    state = prog->transition(state, result);
  }
}

ProcBody make_sim_program_body(SimProgramPtr prog, int index, Value input) {
  return [prog = std::move(prog), index, input = std::move(input)](Context& ctx) {
    return run_sim_program(ctx, std::move(prog), index, input);
  };
}

}  // namespace efd
