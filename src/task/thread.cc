#include "task/thread.h"

#include <utility>

#include "task/thread_slabs.h"

namespace realrate {

const char* ToString(ThreadState state) {
  switch (state) {
    case ThreadState::kRunnable:
      return "runnable";
    case ThreadState::kRunning:
      return "running";
    case ThreadState::kBlocked:
      return "blocked";
    case ThreadState::kSleeping:
      return "sleeping";
    case ThreadState::kExited:
      return "exited";
  }
  return "?";
}

const char* ToString(ThreadClass cls) {
  switch (cls) {
    case ThreadClass::kRealTime:
      return "real-time";
    case ThreadClass::kAperiodicRealTime:
      return "aperiodic-real-time";
    case ThreadClass::kRealRate:
      return "real-rate";
    case ThreadClass::kMiscellaneous:
      return "miscellaneous";
    case ThreadClass::kInteractive:
      return "interactive";
  }
  return "?";
}

SimThread::SimThread(ThreadId id, std::string name, std::unique_ptr<WorkModel> work)
    : id_(id), name_(std::move(name)), work_(std::move(work)) {
  RR_EXPECTS(work_ != nullptr);
}

// --- Hot-field setters: canonical write, then write-through to the slab columns ---

void SimThread::set_state(ThreadState s) {
  state_ = s;
  if (slabs_ != nullptr) {
    slabs_->MirrorState(id_, s);
  }
}

void SimThread::set_policy(SchedPolicy p) {
  policy_ = p;
  if (slabs_ != nullptr) {
    slabs_->MirrorPolicy(id_, p);
  }
}

void SimThread::set_importance(double w) {
  RR_EXPECTS(w > 0);
  importance_ = w;
  if (slabs_ != nullptr) {
    slabs_->MirrorImportance(id_, w);
  }
}

void SimThread::set_cpu(CpuId core) {
  RR_EXPECTS(core >= 0);
  cpu_ = core;
  if (slabs_ != nullptr) {
    slabs_->MirrorCpu(id_, core);
  }
}

void SimThread::SetReservation(Proportion proportion, Duration period) {
  RR_EXPECTS(proportion.ppt() >= 0 && proportion.ppt() <= Proportion::kFull);
  RR_EXPECTS(period.IsPositive());
  proportion_ = proportion;
  period_ = period;
  if (slabs_ != nullptr) {
    slabs_->MirrorGrantedPpt(id_, proportion.ppt());
  }
}

}  // namespace realrate
