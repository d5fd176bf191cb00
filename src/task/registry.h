// Owns every SimThread in a simulation and allocates thread ids.
#ifndef REALRATE_TASK_REGISTRY_H_
#define REALRATE_TASK_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "task/thread.h"
#include "task/thread_slabs.h"

namespace realrate {

// Thread records are allocated from a ThreadArena (contiguous chunks in creation
// order, stable addresses) and — unless constructed with use_slabs = false — bound to
// hot-field slabs at Create, so column sweeps cover exactly the registry's thread set
// in creation order. `use_slabs = false` builds the pre-slab AoS configuration the
// differential harness and the golden slab-equivalence test compare against.
class ThreadRegistry {
 public:
  explicit ThreadRegistry(bool use_slabs = true) : use_slabs_(use_slabs) {}

  // Creates a thread owned by the registry; returns a stable non-owning pointer.
  SimThread* Create(std::string name, std::unique_ptr<WorkModel> work);

  SimThread* Find(ThreadId id);
  const SimThread* Find(ThreadId id) const;
  SimThread* FindByName(const std::string& name);

  size_t size() const { return raw_.size(); }
  // Iteration in creation order (deterministic). Returns a reference to the
  // registry's own pointer index — O(1); the Machine walks this on hot paths
  // (placement, rebalancing, idle-suspension checks), so no per-call vector is
  // materialized. The reference is invalidated by Create().
  const std::vector<SimThread*>& All() const { return raw_; }

  // The hot-field slabs every registry thread is bound to, or nullptr when this
  // registry was built without them. Append-only columns indexed by ThreadId, so
  // slot order == creation order.
  ThreadSlabs* slabs() { return use_slabs_ ? &slabs_ : nullptr; }
  const ThreadSlabs* slabs() const { return use_slabs_ ? &slabs_ : nullptr; }

 private:
  const bool use_slabs_;
  // Declared before arena_ so it outlives the threads bound to it.
  ThreadSlabs slabs_;
  ThreadArena arena_;
  std::vector<SimThread*> raw_;  // Indexed by ThreadId; maintained by Create().
};

}  // namespace realrate

#endif  // REALRATE_TASK_REGISTRY_H_
