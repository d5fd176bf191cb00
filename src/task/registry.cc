#include "task/registry.h"

#include <utility>

namespace realrate {

SimThread* ThreadRegistry::Create(std::string name, std::unique_ptr<WorkModel> work) {
  const auto id = static_cast<ThreadId>(raw_.size());
  SimThread* thread = arena_.Create(id, std::move(name), std::move(work));
  raw_.push_back(thread);
  thread->work().Bind(thread);
  if (use_slabs_) {
    slabs_.Bind(thread);
  }
  return thread;
}

SimThread* ThreadRegistry::Find(ThreadId id) {
  if (id < 0 || static_cast<size_t>(id) >= raw_.size()) {
    return nullptr;
  }
  return raw_[static_cast<size_t>(id)];
}

const SimThread* ThreadRegistry::Find(ThreadId id) const {
  if (id < 0 || static_cast<size_t>(id) >= raw_.size()) {
    return nullptr;
  }
  return raw_[static_cast<size_t>(id)];
}

SimThread* ThreadRegistry::FindByName(const std::string& name) {
  for (SimThread* t : raw_) {
    if (t->name() == name) {
      return t;
    }
  }
  return nullptr;
}

}  // namespace realrate
