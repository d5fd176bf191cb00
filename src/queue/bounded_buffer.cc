#include "queue/bounded_buffer.h"

#include <algorithm>
#include <utility>

namespace realrate {

BoundedBuffer::BoundedBuffer(QueueId id, std::string name, int64_t capacity_bytes)
    : id_(id), name_(std::move(name)), capacity_(capacity_bytes) {
  RR_EXPECTS(capacity_bytes > 0);
}

bool BoundedBuffer::TryPush(int64_t bytes) {
  RR_EXPECTS(bytes > 0);
  // An item larger than the whole queue can never fit: a producer would block on
  // WaitForSpace forever waiting for room that cannot exist (silent livelock). Loud
  // contract violation instead — size items to the queue, not vice versa.
  RR_EXPECTS(bytes <= capacity_);
  if (round_push_ != nullptr) {
    // Staked round: the gate proved this push fits in every interleaving, so the op
    // is stake-local (no shared mutable state, no wake — there are no waiters by the
    // gate's admission rules). Exceeding the planned bound is a plan-contract bug.
    RR_CHECK(round_push_->staged_bytes + bytes <= round_push_->budget_bytes);
    round_push_->staged_bytes += bytes;
    ++round_push_->staged_ops;
    return true;
  }
  ++change_epoch_;
  if (fill_ + bytes > capacity_) {
    ++full_hits_;
    return false;
  }
  ApplyFillDelta(bytes);
  total_pushed_ += bytes;
  WakeAll(waiting_consumers_);
  RR_ENSURES(fill_ <= capacity_);
  return true;
}

int64_t BoundedBuffer::TryPop(int64_t bytes) {
  RR_EXPECTS(bytes > 0);
  if (round_pop_ != nullptr) {
    // The plan bounds total pop bytes by the round-start fill, so a staked pop
    // always returns its full request — exactly what the sequential engine would
    // return (fill can only be higher there: same-round pushes land, pops match).
    RR_CHECK(round_pop_->staged_bytes + bytes <= round_pop_->budget_bytes);
    round_pop_->staged_bytes += bytes;
    ++round_pop_->staged_ops;
    return bytes;
  }
  ++change_epoch_;
  const int64_t n = std::min(bytes, fill_);
  if (n == 0) {
    ++empty_hits_;
    return 0;
  }
  ApplyFillDelta(-n);
  total_popped_ += n;
  WakeAll(waiting_producers_);
  RR_ENSURES(fill_ >= 0);
  return n;
}

bool BoundedBuffer::TryPopExact(int64_t bytes) {
  RR_EXPECTS(bytes > 0);
  // Mirror of the TryPush contract: an exact pop larger than the whole queue can
  // never succeed, so a consumer would block on WaitForData forever.
  RR_EXPECTS(bytes <= capacity_);
  if (round_pop_ != nullptr) {
    RR_CHECK(round_pop_->staged_bytes + bytes <= round_pop_->budget_bytes);
    round_pop_->staged_bytes += bytes;
    ++round_pop_->staged_ops;
    return true;
  }
  ++change_epoch_;
  if (fill_ < bytes) {
    ++empty_hits_;
    return false;
  }
  ApplyFillDelta(-bytes);
  total_popped_ += bytes;
  WakeAll(waiting_producers_);
  return true;
}

void BoundedBuffer::InstallRoundStakes(RoundStake* push, RoundStake* pop) {
  RR_EXPECTS(round_push_ == nullptr && round_pop_ == nullptr);
  RR_EXPECTS(push != nullptr || pop != nullptr);
  // Admission sanity, mirroring the gate: the claimed bounds must fit the current
  // fill/headroom, and no waiter may be parked here (a staked op would have to wake
  // it mid-round — a cross-core effect the round contract forbids).
  RR_EXPECTS(push == nullptr || fill_ + push->budget_bytes <= capacity_);
  RR_EXPECTS(pop == nullptr || pop->budget_bytes <= fill_);
  RR_EXPECTS(waiting_producers_.empty() && waiting_consumers_.empty());
  round_push_ = push;
  round_pop_ = pop;
}

void BoundedBuffer::SettleRoundStakes() {
  // Applied pushes before pops so the transient fill never exceeds reality; the
  // settled state — fill, totals, change epoch — equals the sequential engine's
  // end-of-round state exactly. No wakes: nothing was waiting (install-time
  // invariant) and staked ops cannot block.
  if (round_push_ != nullptr && round_push_->staged_ops > 0) {
    ApplyFillDelta(round_push_->staged_bytes);
    total_pushed_ += round_push_->staged_bytes;
    change_epoch_ += static_cast<uint64_t>(round_push_->staged_ops);
  }
  if (round_pop_ != nullptr && round_pop_->staged_ops > 0) {
    ApplyFillDelta(-round_pop_->staged_bytes);
    total_popped_ += round_pop_->staged_bytes;
    change_epoch_ += static_cast<uint64_t>(round_pop_->staged_ops);
  }
  RR_ENSURES(fill_ >= 0 && fill_ <= capacity_);
  round_push_ = nullptr;
  round_pop_ = nullptr;
}

void BoundedBuffer::WaitForSpace(ThreadId thread) {
  RR_EXPECTS(thread != kInvalidThreadId);
  waiting_producers_.push_back(thread);
}

void BoundedBuffer::WaitForData(ThreadId thread) {
  RR_EXPECTS(thread != kInvalidThreadId);
  waiting_consumers_.push_back(thread);
}

void BoundedBuffer::WakeAll(std::vector<ThreadId>& waiters) {
  if (waiters.empty()) {
    return;
  }
  // Swap out first: a woken thread's work model may re-register during the callback,
  // and a callback may wake this list again (a nested WakeAll swaps out whatever
  // re-registered). The list's block comes back when nothing re-registered, so the
  // next wait reuses it instead of allocating.
  std::vector<ThreadId> to_wake;
  to_wake.swap(waiters);
  if (wake_fn_) {
    for (ThreadId t : to_wake) {
      wake_fn_(t);
    }
  }
  if (waiters.empty()) {
    to_wake.clear();
    waiters.swap(to_wake);
  }
}

}  // namespace realrate
