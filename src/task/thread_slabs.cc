#include "task/thread_slabs.h"

#include <new>
#include <utility>

namespace realrate {

void ThreadSlabs::Bind(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(thread->slabs_ == nullptr);     // One binding at a time.
  RR_EXPECTS(thread->id() == slot_count());  // Append-only: slot == ThreadId.
  const SimThread& t = *thread;
  state_.push_back(t.state());
  policy_.push_back(t.policy());
  cpu_.push_back(t.cpu());
  granted_ppt_.push_back(t.proportion().ppt());
  rm_rank_.push_back(PeriodRank(t.period()));
  deadline_nanos_.push_back((t.period_start() + t.period()).nanos());
  budget_.push_back(t.budget_remaining());
  importance_.push_back(t.importance());
  const auto i = static_cast<size_t>(t.id());
  CountSlot(i, +1);
  if (state_[i] == ThreadState::kRunnable) {
    BumpRunnable(1);
  }
  thread->slabs_ = this;
}

bool ThreadSlabs::MatchesObject(const SimThread& t) const {
  if (t.slabs_ != this) {
    return false;
  }
  const size_t i = static_cast<size_t>(t.id());
  return state_[i] == t.state() && policy_[i] == t.policy() && cpu_[i] == t.cpu() &&
         granted_ppt_[i] == t.proportion().ppt() && rm_rank_[i] == PeriodRank(t.period()) &&
         deadline_nanos_[i] == (t.period_start() + t.period()).nanos() &&
         budget_[i] == t.budget_remaining() && importance_[i] == t.importance();
}

ThreadArena::~ThreadArena() {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    (*it)->~SimThread();
  }
}

SimThread* ThreadArena::Create(ThreadId id, std::string name, std::unique_ptr<WorkModel> work) {
  if (used_in_last_ == kRecordsPerChunk) {
    chunks_.push_back(std::make_unique<std::byte[]>(kRecordsPerChunk * sizeof(SimThread)));
    used_in_last_ = 0;
  }
  void* p = chunks_.back().get() + used_in_last_ * sizeof(SimThread);
  ++used_in_last_;
  SimThread* t = new (p) SimThread(id, std::move(name), std::move(work));
  records_.push_back(t);
  return t;
}

}  // namespace realrate
