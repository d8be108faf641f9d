// Substrates: pluggable step semantics for the World's communication ops.
//
// The paper's model is asynchronous shared memory; the ROADMAP's second
// substrate is asynchronous message passing (Biely-Robinson-Schmid style).
// A Substrate is the strategy object World::step consults for the three
// communication ops that are NOT plain register accesses:
//
//     kSend    — enqueue a message onto a mailbox;
//     kRecv    — dequeue the mailbox head (Nil when empty);
//     kDeliver — move one in-flight message from a per-link channel onto its
//                destination mailbox (link-daemon step; message backends only).
//
// Two implementations ship:
//  * ShmSubstrate — mailboxes ARE registers: a mailbox is one register
//    holding the full pending FIFO as a vector Value, so every send/recv is
//    exactly one register mutation (one undo_write inverts it). This is the
//    "registers-as-mailboxes" emulation the differential tests compare
//    against, and the default a World lazily installs on first MP op.
//  * MsgSubstrate (sim/msg_world.hpp) — a native ChannelFabric with per-link
//    FIFO channels and explicit delivery steps.
//
// Explorer contract (what record/replay + the incremental explorer need from
// any backend; see EXPERIMENTS.md E19):
//  * one step mutates at most ONE mailbox cell, and cell_state()/
//    restore_cell() observe and exactly invert that mutation (the undo-log
//    protocol mem.read()/written()/undo_write() implements for registers);
//  * peek_recv() reports the value the NEXT recv on a mailbox would return
//    without mutating anything (the explorer's blocked-recv test);
//  * hash_acc() is a commutative accumulator over the substrate's own state,
//    built from cell_content_hash terms keyed by mailbox NAME hashes, so
//    World::state_hash() is byte-identical across backends holding the same
//    mailbox contents (ShmSubstrate keeps no state: its mailboxes already
//    live in the RegisterFile's accumulator).
// Send/recv steps are never taken world-side only from a frame that ran
// ahead (world-side state cannot be re-applied safely): the explorer
// respawns the process instead (ahead_matches in core/solvability.cpp).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/channel.hpp"  // LinkFaultKind / LinkFaultCounters
#include "sim/ids.hpp"
#include "sim/memory.hpp"
#include "sim/value.hpp"

namespace efd {

enum class SubstrateKind : std::uint8_t {
  kShm,  ///< registers-as-mailboxes emulation
  kMsg,  ///< native message passing (per-link FIFO channels)
};

class Substrate {
 public:
  virtual ~Substrate() = default;

  [[nodiscard]] virtual SubstrateKind kind() const noexcept = 0;
  /// Tape provenance token ("shm" / "msg"); parsed by sim/replay.
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  // ---- step semantics (one model step each; at most one cell mutated) ----

  /// Appends `msg` to `mbox`'s pending FIFO (or to the (sender, mbox) link's
  /// in-flight channel when the backend delivers asynchronously). Returns the
  /// step result (always Nil).
  virtual Value apply_send(RegisterFile& mem, Pid sender, RegAddr mbox, const Value& msg) = 0;

  /// Pops and returns `mbox`'s pending head; Nil when the mailbox is empty.
  /// An empty-mailbox recv still TOUCHES the mailbox cell (an explicitly
  /// emptied mailbox is distinguishable from a never-used one, on every
  /// backend, so state hashes agree).
  virtual Value apply_recv(RegisterFile& mem, RegAddr mbox) = 0;

  /// Moves the head of `link`'s in-flight channel onto its destination
  /// mailbox; returns the delivered message (Nil when the channel is empty).
  /// Backends without explicit delivery throw std::logic_error.
  virtual Value apply_deliver(RegisterFile& mem, RegAddr link) = 0;

  // ---- explorer contract ----

  /// The value the next apply_recv(mbox) would return, without mutating.
  [[nodiscard]] virtual Value peek_recv(const RegisterFile& mem, RegAddr mbox) const = 0;

  /// Observes a mailbox cell before a send/recv step: `out` receives the
  /// cell's current content (the pending FIFO as a vector Value; Nil when
  /// untouched); returns whether the cell was ever touched. The pair feeds
  /// restore_cell on backtrack.
  [[nodiscard]] virtual bool cell_state(const RegisterFile& mem, RegAddr mbox,
                                        Value& out) const = 0;

  /// Exact inverse of the one send/recv mutation performed since
  /// (prev, prev_present) was observed via cell_state on the same mailbox.
  virtual void restore_cell(RegisterFile& mem, RegAddr mbox, const Value& prev,
                            bool prev_present) = 0;

  /// Commutative accumulator over substrate-held mailbox state (0 when the
  /// substrate keeps none). Folded into World::state_hash().
  [[nodiscard]] virtual std::uint64_t hash_acc() const noexcept = 0;

  // ---- link-fault adversary (message backends only) ----

  /// Charges `amount` link faults of `kind` against `link` (tape `linkfaults`
  /// directives and plan-v1 `link` actions land here). Backends without
  /// faultable links throw std::logic_error — a lossy tape replayed into a
  /// register world is a hard error, not a silent no-op.
  virtual void apply_link_fault(RegAddr /*link*/, LinkFaultKind /*kind*/, int /*amount*/) {
    throw std::logic_error("substrate: link faults require a message substrate");
  }

  /// Consumed-fault tallies (all zero for backends without faultable links).
  [[nodiscard]] virtual LinkFaultCounters link_fault_counters() const noexcept { return {}; }
};

/// Registers-as-mailboxes: mailbox == one register whose value is the whole
/// pending FIFO (a vector Value). Stateless — everything lives in `mem`, so
/// undo is the register undo and hash_acc() is 0.
class ShmSubstrate final : public Substrate {
 public:
  [[nodiscard]] SubstrateKind kind() const noexcept override { return SubstrateKind::kShm; }
  [[nodiscard]] const char* name() const noexcept override { return "shm"; }

  Value apply_send(RegisterFile& mem, Pid /*sender*/, RegAddr mbox, const Value& msg) override {
    ValueVec q;
    const Value cur = mem.read(mbox);
    if (cur.is_vec()) cur.unpack_vec(q);  // Nil (never used) => empty queue
    q.push_back(msg);
    mem.write(mbox, Value(std::move(q)));
    return Value{};
  }

  Value apply_recv(RegisterFile& mem, RegAddr mbox) override {
    const Value cur = mem.read(mbox);
    if (!cur.is_vec() || cur.size() == 0) {
      // Empty recv still touches the cell: write an (empty) queue so the
      // footprint/hash matches a message backend marking the mailbox used.
      mem.write(mbox, Value(ValueVec{}));
      return Value{};
    }
    ValueVec q;
    cur.unpack_vec(q);
    Value head = std::move(q.front());
    q.erase(q.begin());
    mem.write(mbox, Value(std::move(q)));
    return head;
  }

  Value apply_deliver(RegisterFile&, RegAddr) override {
    throw std::logic_error("ShmSubstrate: deliver steps require a message substrate");
  }

  [[nodiscard]] Value peek_recv(const RegisterFile& mem, RegAddr mbox) const override {
    const Value cur = mem.read(mbox);
    return cur.size() > 0 ? cur.at(0) : Value{};
  }

  [[nodiscard]] bool cell_state(const RegisterFile& mem, RegAddr mbox,
                                Value& out) const override {
    out = mem.read(mbox);
    return mem.written(mbox);
  }

  void restore_cell(RegisterFile& mem, RegAddr mbox, const Value& prev,
                    bool prev_present) override {
    mem.undo_write(mbox, prev, prev_present);
  }

  [[nodiscard]] std::uint64_t hash_acc() const noexcept override { return 0; }
};

}  // namespace efd
