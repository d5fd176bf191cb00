// A farm run's memory footprint: one resident copy of the request stream, from
// generation through delivery, plus 8 bytes per served request. GenerateRequests
// writes a stream into one allocation of its exact size, a scenario's `replay`
// borrows the caller's stream, so neither a standalone farm nor a cluster run
// copies it, and the latency samples are stored in blocks that never move, so
// neither grows by reallocation nor assembles a second copy of them.
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

TEST(MemoryFootprintTest, GeneratingParetoSessionsHoldsTheResultAndItsSortBuffer) {
  // 30 s at 1000 sessions/s: ~158k records from ~30k sessions.
  ArrivalConfig sessions;
  sessions.kind = ArrivalConfig::Kind::kParetoSessions;
  sessions.seed = 99;
  sessions.sessions_per_sec = 1000.0;
  const Duration horizon = Duration::Seconds(30);
  // The session starts are the first walk over the generator, a Poisson process
  // at the session rate: a Poisson stream at that rate has one record per start.
  ArrivalConfig starts_only = sessions;
  starts_only.kind = ArrivalConfig::Kind::kPoisson;
  starts_only.requests_per_sec = sessions.sessions_per_sec;
  const auto starts =
      static_cast<int64_t>(GenerateRequests(starts_only, horizon).size());
  constexpr int64_t kSlack = 4096;
  PeakWindow window;
  const std::vector<RequestRecord> stream = GenerateRequests(sessions, horizon);
  ASSERT_GT(stream.size(), 100'000u);
  EXPECT_EQ(stream.capacity(), stream.size());
  // The result, stable_sort's half-size buffer, and the starts (8 bytes each),
  // which are still live during the sort.
  EXPECT_LE(window.Extra(),
            BytesOf(stream.size()) + BytesOf(stream.size()) / 2 + 8 * starts + kSlack)
      << stream.size() << " records, " << starts << " sessions";
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

// The latency samples' share of a run: 8 bytes per served request, plus the
// block store's map of block pointers (a pointer per 64 samples, with room to
// grow and the old map live while it does) at half a byte per sample.
int64_t SampleBytes(int64_t served) { return 8 * served + served / 2; }

TEST(MemoryFootprintTest, AFarmRunHoldsEightBytesPerServedRequest) {
  // farm_steady's shape (4 cores, 8 workers, 0.75x) for 20 s: ~112k served. A
  // growing vector of samples would hold its old and new buffers at once, at
  // least 4 bytes per sample more than this bound allows.
  WebFarmParams params;
  params.run_for = Duration::Seconds(20);
  params.arrivals.seed = 99;
  params.arrivals.requests_per_sec = 0.75 * WebFarmCapacityRps(params);
  const std::vector<RequestRecord> stream =
      GenerateRequests(params.arrivals, params.run_for);
  // The run's own state: queues, threads, the simulator and the controller.
  constexpr int64_t kFarmState = 256 * 1024;
  PeakWindow window;
  params.replay = stream;
  const WebFarmResult result = RunWebFarmScenario(params);
  ASSERT_GT(result.served, 100'000);
  EXPECT_LE(window.Extra(), SampleBytes(result.served) + kFarmState)
      << result.served << " served";
}

TEST(MemoryFootprintTest, AClusterAssemblesItsLatenciesWithoutASecondCopy) {
  // Four 2-core nodes at 0.9x for 10 s: ~107k served. The nodes' samples move
  // into the cluster-wide set block by block. The bound leaves room for one
  // node's share (1/M of the samples) over them; a second copy of them all
  // needs M times that.
  constexpr int kMachines = 4;
  ClusterFarmParams params;
  params.num_machines = kMachines;
  params.farm.num_cpus = 2;
  params.farm.num_workers = 4;
  params.farm.run_for = Duration::Seconds(10);
  params.farm.arrivals.seed = 99;
  params.farm.arrivals.requests_per_sec = 0.9 * ClusterFarmCapacityRps(params);
  const std::vector<RequestRecord> stream =
      GenerateRequests(params.farm.arrivals, params.farm.run_for);
  // Four nodes' state, and the router's per-node batch buffers.
  constexpr int64_t kClusterState = 512 * 1024;
  PeakWindow window;
  params.farm.replay = stream;
  const ClusterFarmResult result = RunClusterFarmScenario(params);
  ASSERT_GT(result.served, 100'000);
  EXPECT_LE(window.Extra(), 8 * result.served * (kMachines + 1) / kMachines + kClusterState)
      << result.served << " served";
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
