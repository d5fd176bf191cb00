// The request stream's memory footprint: one resident copy, from generation
// through delivery. GenerateRequests writes a Poisson stream into one allocation
// of its exact size, and a scenario's `replay` borrows the caller's stream, so
// neither a standalone farm nor a cluster run copies it.
//
// This suite replaces the global operator new and delete with a counter of live
// and peak bytes, which is why it is an executable of its own: the counter sees
// every allocation the process makes. Each check opens a PeakWindow and bounds
// the most bytes that were live at once above the window's starting point.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_farm.h"
#include "workloads/arrivals.h"
#include "workloads/web_farm.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

// Each block carries its requested size just ahead of the pointer handed out,
// in a header as wide as the block's alignment.
constexpr size_t kDefaultAlign = alignof(std::max_align_t);

void* Allocate(size_t size, size_t align) {
  const size_t header = std::max(align, kDefaultAlign);
  void* raw = align <= kDefaultAlign
                  ? std::malloc(header + size)
                  : std::aligned_alloc(align, (header + size + align - 1) / align * align);
  if (raw == nullptr) {
    throw std::bad_alloc();
  }
  char* block = static_cast<char*>(raw) + header;
  std::memcpy(block - sizeof(size_t), &size, sizeof(size_t));
  const auto bytes = static_cast<int64_t>(size);
  const int64_t live = g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return block;
}

void Release(void* block, size_t align) {
  if (block == nullptr) {
    return;
  }
  size_t size = 0;
  std::memcpy(&size, static_cast<char*>(block) - sizeof(size_t), sizeof(size_t));
  g_live_bytes.fetch_sub(static_cast<int64_t>(size), std::memory_order_relaxed);
  std::free(static_cast<char*>(block) - std::max(align, kDefaultAlign));
}

}  // namespace

void* operator new(size_t size) { return Allocate(size, kDefaultAlign); }
void* operator new[](size_t size) { return Allocate(size, kDefaultAlign); }
void* operator new(size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<size_t>(align));
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size, kDefaultAlign);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* block) noexcept { Release(block, kDefaultAlign); }
void operator delete[](void* block) noexcept { Release(block, kDefaultAlign); }
void operator delete(void* block, size_t) noexcept { Release(block, kDefaultAlign); }
void operator delete[](void* block, size_t) noexcept { Release(block, kDefaultAlign); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  Release(block, kDefaultAlign);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  Release(block, kDefaultAlign);
}
void operator delete(void* block, std::align_val_t align) noexcept {
  Release(block, static_cast<size_t>(align));
}
void operator delete[](void* block, std::align_val_t align) noexcept {
  Release(block, static_cast<size_t>(align));
}
void operator delete(void* block, size_t, std::align_val_t align) noexcept {
  Release(block, static_cast<size_t>(align));
}
void operator delete[](void* block, size_t, std::align_val_t align) noexcept {
  Release(block, static_cast<size_t>(align));
}

namespace realrate {
namespace {

// The most bytes live at once since construction, above what was live then.
class PeakWindow {
 public:
  PeakWindow() : base_(g_live_bytes.load()) { g_peak_bytes.store(base_); }
  int64_t Extra() const { return g_peak_bytes.load() - base_; }

 private:
  const int64_t base_;
};

int64_t BytesOf(size_t records) {
  return static_cast<int64_t>(records * sizeof(RequestRecord));
}

TEST(MemoryFootprintTest, TheCounterSeesAllocations) {
  PeakWindow window;
  { const std::vector<RequestRecord> block(1000); }
  EXPECT_EQ(window.Extra(), BytesOf(1000));
}

TEST(MemoryFootprintTest, GeneratingAPoissonStreamHoldsOnlyTheResult) {
  // A flat rate, and a curve with a dead zone and a flash crowd: either way the
  // generator's peak is its result plus a small constant, not a second array.
  ArrivalConfig flat;
  flat.seed = 99;
  flat.requests_per_sec = 20'000.0;
  ArrivalConfig curved = flat;
  curved.load_curve = {{Duration::Zero(), 1.0},
                       {Duration::Seconds(2), 0.0},
                       {Duration::Seconds(3), 3.0}};
  curved.bytes_alpha = 1.5;
  constexpr int64_t kSlack = 4096;
  for (const ArrivalConfig* config : {&flat, &curved}) {
    PeakWindow window;
    const std::vector<RequestRecord> stream = GenerateRequests(*config, Duration::Seconds(5));
    ASSERT_GT(stream.size(), 50'000u);
    EXPECT_EQ(stream.capacity(), stream.size());
    EXPECT_LE(window.Extra(), BytesOf(stream.capacity()) + kSlack)
        << stream.size() << " records";
  }
}

// An overloaded farm (2x its capacity): most of the stream drops at admission,
// so what the run itself allocates (latency samples for the served half,
// queues, threads, the trace) stays well below one copy of the stream.
WebFarmParams OverloadedFarm() {
  WebFarmParams params;
  params.num_cpus = 2;
  params.num_workers = 4;
  params.run_for = Duration::Seconds(8);
  params.arrivals.seed = 99;
  params.arrivals.requests_per_sec = 2.0 * WebFarmCapacityRps(params);
  return params;
}

TEST(MemoryFootprintTest, AFarmReplayIsBorrowedNotCopied) {
  WebFarmParams params = OverloadedFarm();
  const std::vector<RequestRecord> stream =
      GenerateRequests(params.arrivals, params.run_for);
  ASSERT_GT(stream.size(), 50'000u);
  PeakWindow window;
  params.replay = stream;
  const WebFarmResult result = RunWebFarmScenario(params);
  EXPECT_LT(window.Extra(), BytesOf(stream.size()));
  EXPECT_EQ(result.offered, static_cast<int64_t>(stream.size()));
  EXPECT_GT(result.served, 0);
}

TEST(MemoryFootprintTest, AClusterReplayIsBorrowedNotCopied) {
  for (const int machines : {1, 4}) {
    ClusterFarmParams params;
    params.num_machines = machines;
    params.farm = OverloadedFarm();
    params.farm.arrivals.requests_per_sec = 2.0 * ClusterFarmCapacityRps(params);
    params.farm.run_for = Duration::Seconds(8 / machines);
    const std::vector<RequestRecord> stream =
        GenerateRequests(params.farm.arrivals, params.farm.run_for);
    ASSERT_GT(stream.size(), 50'000u) << "M=" << machines;
    PeakWindow window;
    params.farm.replay = stream;
    const ClusterFarmResult result = RunClusterFarmScenario(params);
    EXPECT_LT(window.Extra(), BytesOf(stream.size())) << "M=" << machines;
    EXPECT_EQ(result.offered, static_cast<int64_t>(stream.size())) << "M=" << machines;
    EXPECT_GT(result.served, 0) << "M=" << machines;
  }
}

}  // namespace
}  // namespace realrate
