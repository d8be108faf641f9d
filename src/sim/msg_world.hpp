// Message-passing worlds: the MsgSubstrate backend and its builders.
//
// Conventions (shared with the differential tests and the MP scenarios):
//  * mailbox j is addressed "mb[j]" — process p_{j+1}'s inbox;
//  * the (sender i, mailbox j) link is addressed "ch[i][j]";
//  * in daemon mode, link (i, j)'s delivery daemon is S-process
//    q_{mp_link_s_index(m, i, j) + 1} = q_{i*m + j + 1}: a delivery is just
//    another schedulable step, recorded on tapes as that daemon's pid, so
//    RecordingScheduler, replay_tape and crash points work unchanged.
//    Crashing a daemon severs its link permanently — a PARTITION is nothing
//    but a set of daemon crashes in the ordinary FailurePattern, and
//    FaultPlan storms/triggers reach them with no new machinery.
//  * eager mode has no links and no daemons: a send lands on the mailbox
//    instantly. Exhaustive exploration runs eager mode (the sends-instant
//    subfamily; see EXPERIMENTS.md E19), record/replay and fuzzing drive both.
//
// The SAME coroutine bodies (ctx.send / ctx.recv) run against ShmSubstrate
// (registers-as-mailboxes) and MsgSubstrate: that is the cross-backend
// differential axis tests/test_substrate.cpp sweeps.
#pragma once

#include <memory>
#include <vector>

#include "sim/channel.hpp"
#include "sim/substrate.hpp"
#include "sim/world.hpp"

namespace efd {

/// Mailbox j's address, canonical name "mb[j]".
[[nodiscard]] RegAddr mp_mailbox(int j);
/// Link (sender i, mailbox j)'s address, canonical name "ch[i][j]".
[[nodiscard]] RegAddr mp_link(int sender, int mbox);
/// S-index of link (sender, mbox)'s delivery daemon in an m-mailbox world.
[[nodiscard]] constexpr int mp_link_s_index(int m, int sender, int mbox) noexcept {
  return sender * m + mbox;
}

/// The native message-passing substrate: a ChannelFabric behind the
/// Substrate contract.
class MsgSubstrate final : public Substrate {
 public:
  explicit MsgSubstrate(ChannelFabric fabric) : fabric_(std::move(fabric)) {}

  [[nodiscard]] SubstrateKind kind() const noexcept override { return SubstrateKind::kMsg; }
  [[nodiscard]] const char* name() const noexcept override { return "msg"; }

  Value apply_send(RegisterFile&, Pid sender, RegAddr mbox, const Value& msg) override {
    fabric_.send(sender, mbox, msg);
    return Value{};
  }
  Value apply_recv(RegisterFile&, RegAddr mbox) override { return fabric_.recv(mbox); }
  Value apply_deliver(RegisterFile&, RegAddr link) override { return fabric_.deliver(link); }

  [[nodiscard]] Value peek_recv(const RegisterFile&, RegAddr mbox) const override {
    return fabric_.peek(mbox);
  }
  [[nodiscard]] bool cell_state(const RegisterFile&, RegAddr mbox, Value& out) const override {
    return fabric_.state(mbox, out);
  }
  void restore_cell(RegisterFile&, RegAddr mbox, const Value& prev,
                    bool prev_present) override {
    fabric_.restore(mbox, prev, prev_present);
  }
  [[nodiscard]] std::uint64_t hash_acc() const noexcept override { return fabric_.hash_acc(); }

  void apply_link_fault(RegAddr link, LinkFaultKind kind, int amount) override {
    fabric_.charge_fault(link, kind, amount);
  }
  [[nodiscard]] LinkFaultCounters link_fault_counters() const noexcept override {
    return fabric_.fault_counters();
  }

  [[nodiscard]] const ChannelFabric& fabric() const noexcept { return fabric_; }
  [[nodiscard]] ChannelFabric& fabric() noexcept { return fabric_; }

 private:
  ChannelFabric fabric_;
};

/// The world's MsgSubstrate, or nullptr when another backend is installed.
/// (Fault-charging helpers and the lossy-pair tests reach the fabric here.)
[[nodiscard]] MsgSubstrate* msg_substrate(World& w);

/// The standard mailbox set mb[0..m-1].
[[nodiscard]] std::vector<RegAddr> mp_mailboxes(int m);

/// Installs an EAGER MsgSubstrate (n senders, m mailboxes, no links) on `w`.
void install_msg_eager(World& w, int n, int m);

/// Installs the registers-as-mailboxes ShmSubstrate explicitly (rather than
/// relying on World's lazy default), so both differential backends follow
/// the same code path from the first step.
void install_shm_mailboxes(World& w);

/// A delivery daemon body for one link: an endless loop of deliver steps.
/// Spawn it as S-process mp_link_s_index(m, sender, mbox).
[[nodiscard]] ProcBody make_link_daemon(RegAddr link);

/// Daemon-mode MP world: installs a MsgSubstrate with per-link in-flight
/// channels and spawns the n*m link daemons at S-indices
/// [s_base, s_base + n*m). The pattern must cover them; S-indices below
/// s_base are free for scenario S-processes (e.g. consensus servers — put
/// them FIRST so a lowest-correct-index leader detector elects a server,
/// not a daemon).
[[nodiscard]] World make_mp_world(int n, int m, FailurePattern pattern, HistoryPtr history,
                                  int s_base = 0);

/// Severs link (sender, mbox) from time `t` on: crashes its daemon.
void sever_link(FailurePattern& pattern, int m, int sender, int mbox, Time t, int s_base = 0);

/// A partition at time `t` between `group` and its complement in an n-process,
/// m-mailbox world: every cross-group link's daemon crashes at t (messages
/// already delivered stay; in-flight ones on severed links are lost). The
/// returned pattern covers n*m + extra_s S-processes, all others correct.
[[nodiscard]] FailurePattern mp_partition(int n, int m, const std::vector<int>& group,
                                          Time t, int extra_s = 0);

}  // namespace efd
