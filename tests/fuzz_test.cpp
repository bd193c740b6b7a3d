// Property/fuzz tests: randomized object graphs against a shadow model
// across many collections, and randomized channel traffic against an
// exactly-once ledger — each swept over seeds with parameterized gtest.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <variant>
#include <vector>

#include "cml/cml.h"
#include "gc/heap.h"
#include "mp/sim_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace {

using mp::arch::Rng;
using mp::gc::GlobalRoot;
using mp::gc::Value;
using mp::threads::CountdownLatch;
using mp::threads::Scheduler;

// Seed-sweep control.  The default lists are fixed so CI runs are stable
// and failures name a reproducible test case; MPNJ_FUZZ_SEED=<base> re-aims
// the whole sweep at a fresh seed region (base, base+1, ...) and
// MPNJ_FUZZ_ITERS=<n> widens or narrows it — e.g. a nightly job can run
// MPNJ_FUZZ_SEED=$RANDOM MPNJ_FUZZ_ITERS=64 without recompiling.
std::vector<std::uint64_t> sweep_seeds(
    std::initializer_list<std::uint64_t> dflt) {
  const char* seed_env = std::getenv("MPNJ_FUZZ_SEED");
  const char* iters_env = std::getenv("MPNJ_FUZZ_ITERS");
  std::vector<std::uint64_t> seeds(dflt);
  if (seed_env == nullptr && iters_env == nullptr) return seeds;
  const std::uint64_t base =
      seed_env != nullptr ? std::strtoull(seed_env, nullptr, 0) : 1;
  const std::uint64_t n =
      iters_env != nullptr ? std::strtoull(iters_env, nullptr, 0)
                           : seeds.size();
  seeds.clear();
  for (std::uint64_t i = 0; i < n; i++) seeds.push_back(base + i);
  return seeds;
}

// ---------- GC graph fuzz ----------
//
// Builds a random object graph (records, mutable arrays, refs, ints,
// cycles) while randomly dropping roots and forcing minor/major
// collections; a shadow model in plain C++ is compared against the real
// heap after every collection.  Every node carries a unique id in field 0.

struct ShadowNode {
  bool mutable_obj = false;
  // children[i]: either an int payload (long) or a node id (int).
  std::vector<std::variant<long, int>> children;
};

class GcGraphFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcGraphFuzz, RandomGraphMatchesShadowAcrossCollections) {
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(1);
  cfg.heap.nursery_bytes = 64 * 1024;  // frequent collections
  cfg.heap.old_bytes = 16u << 20;
  mp::SimPlatform platform(cfg);

  platform.run([&] {
    auto& h = platform.heap();
    Rng rng(GetParam());

    std::map<int, ShadowNode> shadow;
    std::vector<std::pair<GlobalRoot, int>> roots;  // (handle, node id)
    int next_id = 1;

    auto sample_child = [&]() -> std::variant<long, int> {
      if (roots.empty() || rng.below(2) == 0) {
        return static_cast<long>(rng.below(1000));
      }
      return roots[rng.below(roots.size())].second;
    };
    auto value_of = [&](const std::variant<long, int>& c) -> Value {
      if (std::holds_alternative<long>(c)) {
        return Value::from_int(std::get<long>(c));
      }
      for (auto& [root, id] : roots) {
        if (id == std::get<int>(c)) return root.get();
      }
      ADD_FAILURE() << "child id not found among roots";
      return Value::nil();
    };

    // Structural comparison of the real heap against the shadow model.
    std::function<void(Value, int, std::set<int>&)> check =
        [&](Value v, int id, std::set<int>& visited) {
          ASSERT_TRUE(v.is_ptr());
          ASSERT_EQ(v.field(0).as_int(), id);
          if (!visited.insert(id).second) return;  // cycle: already checked
          const ShadowNode& node = shadow.at(id);
          ASSERT_EQ(v.length(), node.children.size() + 1);
          for (std::size_t i = 0; i < node.children.size(); i++) {
            const Value child = v.field(i + 1);
            if (std::holds_alternative<long>(node.children[i])) {
              ASSERT_TRUE(child.is_int());
              ASSERT_EQ(child.as_int(), std::get<long>(node.children[i]));
            } else {
              check(child, std::get<int>(node.children[i]), visited);
            }
          }
        };
    auto check_all = [&] {
      std::set<int> visited;
      for (auto& [root, id] : roots) check(root.get(), id, visited);
    };

    constexpr int kOps = 2500;
    constexpr std::size_t kMaxRoots = 24;
    for (int op = 0; op < kOps; op++) {
      switch (rng.below(10)) {
        case 0:
        case 1:
        case 2:
        case 3: {  // allocate an immutable record node
          const int id = next_id++;
          ShadowNode node;
          const std::size_t n = rng.below(4);
          std::vector<Value> fields = {Value::from_int(id)};
          for (std::size_t i = 0; i < n; i++) {
            node.children.push_back(sample_child());
            fields.push_back(value_of(node.children.back()));
          }
          GlobalRoot root(h, h.alloc_record(fields));
          shadow[id] = std::move(node);
          if (roots.size() < kMaxRoots) {
            roots.emplace_back(std::move(root), id);
          } else {
            const std::size_t victim = rng.below(roots.size());
            roots[victim] = {std::move(root), id};
          }
          break;
        }
        case 4:
        case 5: {  // allocate a mutable array node
          const int id = next_id++;
          ShadowNode node;
          node.mutable_obj = true;
          const std::size_t n = 1 + rng.below(6);
          GlobalRoot root(h, h.alloc_array(n + 1, Value::from_int(0)));
          h.store(root.get(), 0, Value::from_int(id));
          for (std::size_t i = 0; i < n; i++) {
            node.children.push_back(static_cast<long>(0));
            h.store(root.get(), i + 1, Value::from_int(0));
          }
          shadow[id] = std::move(node);
          if (roots.size() < kMaxRoots) {
            roots.emplace_back(std::move(root), id);
          } else {
            roots[rng.below(roots.size())] = {std::move(root), id};
          }
          break;
        }
        case 6: {  // mutate a random array node (store-list barrier path)
          std::vector<std::size_t> arrays;
          for (std::size_t i = 0; i < roots.size(); i++) {
            if (shadow.at(roots[i].second).mutable_obj) arrays.push_back(i);
          }
          if (arrays.empty()) break;
          const std::size_t r = arrays[rng.below(arrays.size())];
          ShadowNode& node = shadow.at(roots[r].second);
          const std::size_t slot = rng.below(node.children.size());
          const auto child = sample_child();
          node.children[slot] = child;
          h.store(roots[r].first.get(), slot + 1, value_of(child));
          break;
        }
        case 7: {  // drop a root (its subtree may become garbage)
          if (roots.size() > 2) {
            roots.erase(roots.begin() +
                        static_cast<long>(rng.below(roots.size())));
          }
          break;
        }
        case 8: {  // minor collection + full check
          h.collect_now(false);
          check_all();
          break;
        }
        case 9: {  // occasionally a major collection
          if (rng.below(4) == 0) {
            h.collect_now(true);
            check_all();
          }
          break;
        }
      }
    }
    h.collect_now(true);
    check_all();
    EXPECT_GT(h.stats().minor_gcs, 5u);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GcGraphFuzz,
    ::testing::ValuesIn(sweep_seeds({1u, 2u, 3u, 17u, 99u, 12345u})));

// ---------- channel ledger fuzz ----------
//
// Producers send tagged values on randomly chosen channels; consumers
// drain them with select_receive.  Every value must be delivered exactly
// once, for any machine size and seed.

struct ChanFuzzCase {
  std::uint64_t seed;
  int procs;
};

// Without a printer gtest dumps the raw bytes, and the struct's tail
// padding (uninitialised) would land in the test names that
// gtest_discover_tests records, changing them from build to build.
void PrintTo(const ChanFuzzCase& c, std::ostream* os) {
  *os << "seed " << c.seed << " on " << c.procs << " procs";
}

class ChannelFuzz : public ::testing::TestWithParam<ChanFuzzCase> {};

TEST_P(ChannelFuzz, ExactlyOnceDeliveryUnderRandomTraffic) {
  const auto [seed, procs] = GetParam();
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(procs);
  cfg.machine.seed = seed;
  mp::SimPlatform platform(cfg);

  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 32;
  constexpr int kChannels = 3;
  static_assert(kProducers * kPerProducer % kConsumers == 0);

  std::multiset<int> received;
  Scheduler::run(platform, {}, [&](Scheduler& s) {
    std::vector<std::unique_ptr<mp::cml::Channel<int>>> chans;
    std::vector<mp::cml::Channel<int>*> ptrs;
    for (int i = 0; i < kChannels; i++) {
      chans.push_back(std::make_unique<mp::cml::Channel<int>>(s));
      ptrs.push_back(chans.back().get());
    }
    mp::threads::Mutex ledger_lock(s);
    CountdownLatch latch(s, kProducers + kConsumers);
    for (int prod = 0; prod < kProducers; prod++) {
      s.fork([&, prod] {
        for (int i = 0; i < kPerProducer; i++) {
          const int tag = prod * 1000 + i;
          const auto ch = s.platform().rng().below(kChannels);
          if (s.platform().rng().below(3) == 0) {
            ptrs[ch]->send_event(tag).sync(s);  // event form
          } else {
            ptrs[ch]->send(tag);
          }
          if (i % 7 == 0) s.yield();
        }
        latch.count_down();
      });
    }
    for (int cons = 0; cons < kConsumers; cons++) {
      s.fork([&] {
        for (int i = 0; i < kProducers * kPerProducer / kConsumers; i++) {
          const int v = mp::cml::select_receive<int>(ptrs);
          ledger_lock.lock();
          received.insert(v);
          ledger_lock.unlock();
        }
        latch.count_down();
      });
    }
    latch.await();
  });

  ASSERT_EQ(received.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  for (int prod = 0; prod < kProducers; prod++) {
    for (int i = 0; i < kPerProducer; i++) {
      EXPECT_EQ(received.count(prod * 1000 + i), 1u)
          << "value " << prod * 1000 + i << " lost or duplicated";
    }
  }
}

// Default sweep: the historical (seed, procs) pairs.  Under
// MPNJ_FUZZ_SEED / MPNJ_FUZZ_ITERS the seeds come from sweep_seeds and the
// machine sizes cycle through the same proc counts.
std::vector<ChanFuzzCase> channel_sweep() {
  const int procs_cycle[] = {2, 4, 8, 16, 3, 6};
  const std::vector<std::uint64_t> seeds =
      sweep_seeds({1u, 2u, 3u, 4u, 5u, 99u});
  std::vector<ChanFuzzCase> cases;
  for (std::size_t i = 0; i < seeds.size(); i++) {
    cases.push_back(ChanFuzzCase{seeds[i], procs_cycle[i % 6]});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChannelFuzz, ::testing::ValuesIn(channel_sweep()),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "procs" +
             std::to_string(info.param.procs);
    });

}  // namespace
