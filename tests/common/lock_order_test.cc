#include "common/lock_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/reentrant_shared_mutex.h"

// These tests exercise inconsistent lock orders on purpose (the validator
// under test must flag them). ThreadSanitizer's own deadlock detector would
// flag the same seeded patterns and fail the binary, so it is turned off
// here; TSan's data-race detection stays fully active.
#if defined(__SANITIZE_THREAD__)
#define PIPES_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PIPES_TEST_UNDER_TSAN 1
#endif
#endif
#ifdef PIPES_TEST_UNDER_TSAN
extern "C" const char* __tsan_default_options() {
  return "detect_deadlocks=0";
}
#endif

namespace pipes {
namespace {

using lockorder::LockOrderValidator;
using lockorder::LockOrderViolation;

/// Every test starts from an empty lock-order graph and violation log. Lock
/// class *names* stay interned across tests, so each test uses its own
/// "test.<case>.*" names to keep its edges disjoint anyway.
class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& v = LockOrderValidator::Instance();
    v.SetEnabled(true);
    v.ResetGraphForTest();
    v.ClearViolations();
  }

  static std::vector<LockOrderViolation> ViolationsOfKind(
      LockOrderViolation::Kind kind) {
    std::vector<LockOrderViolation> out;
    for (const auto& v : LockOrderValidator::Instance().violations()) {
      if (v.kind == kind) out.push_back(v);
    }
    return out;
  }

  static bool HasEdge(const std::string& from, const std::string& to) {
    const auto edges = LockOrderValidator::Instance().edges();
    return std::any_of(edges.begin(), edges.end(), [&](const auto& e) {
      return e.from == from && e.to == to;
    });
  }
};

#if PIPES_LOCK_ORDER_CHECKS

TEST_F(LockOrderTest, RecordsHeldBeforeEdges) {
  Mutex a("test.edge.A");
  Mutex b("test.edge.B");
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_TRUE(HasEdge("test.edge.A", "test.edge.B"));
  EXPECT_FALSE(HasEdge("test.edge.B", "test.edge.A"));
  EXPECT_EQ(LockOrderValidator::Instance().violation_count(), 0u);

  // The edge remembers the full holding context of its first recording.
  for (const auto& e : LockOrderValidator::Instance().edges()) {
    if (e.from == "test.edge.A" && e.to == "test.edge.B") {
      ASSERT_EQ(e.while_holding.size(), 1u);
      EXPECT_EQ(e.while_holding[0], "test.edge.A");
    }
  }
}

TEST_F(LockOrderTest, DetectsAbbaCycleWithoutDeadlocking) {
  Mutex a("test.cycle.A");
  Mutex b("test.cycle.B");
  {
    MutexLock la(a);
    MutexLock lb(b);  // records A -> B
  }
  {
    MutexLock lb(b);
    MutexLock la(a);  // closes the cycle; single-threaded, so no hang
  }
  auto cycles = ViolationsOfKind(LockOrderViolation::Kind::kCycle);
  ASSERT_EQ(cycles.size(), 1u);
  const auto& v = cycles[0];
  EXPECT_NE(v.message.find("test.cycle.A"), std::string::npos);
  EXPECT_NE(v.message.find("test.cycle.B"), std::string::npos);
  // Both acquisition stacks are reported: ours and the one recorded with the
  // original A -> B edge.
  ASSERT_FALSE(v.holding.empty());
  EXPECT_EQ(v.holding[0], "test.cycle.B");
  ASSERT_FALSE(v.prior_holding.empty());
  EXPECT_EQ(v.prior_holding[0], "test.cycle.A");
}

TEST_F(LockOrderTest, CycleReportedOncePerClassPair) {
  Mutex a("test.dedupe.A");
  Mutex b("test.dedupe.B");
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  for (int i = 0; i < 3; ++i) {
    MutexLock lb(b);
    MutexLock la(a);
  }
  EXPECT_EQ(ViolationsOfKind(LockOrderViolation::Kind::kCycle).size(), 1u);
}

TEST_F(LockOrderTest, ReentrantReacquisitionIsNotReported) {
  ReentrantSharedMutex s("test.reent.S");
  s.lock();
  s.lock();  // reentrant write
  s.lock_shared();  // read inside write
  s.unlock_shared();
  s.unlock();
  s.unlock();
  EXPECT_EQ(LockOrderValidator::Instance().violation_count(), 0u);
  // Re-acquisition of the same instance records no self-edge either.
  EXPECT_FALSE(HasEdge("test.reent.S", "test.reent.S"));
}

TEST_F(LockOrderTest, SelfDeadlockOnNonReentrantClass) {
  // Driven through the raw API: actually re-locking a std::mutex would hang.
  const auto* cls = lockorder::RegisterLockClass("test.self.M");
  int dummy = 0;
  auto& v = LockOrderValidator::Instance();
  v.Acquire(cls, &dummy, /*shared=*/false);
  v.Acquire(cls, &dummy, /*shared=*/false);  // same instance, not reentrant
  v.Release(cls, &dummy);
  v.Release(cls, &dummy);
  auto self = ViolationsOfKind(LockOrderViolation::Kind::kSelfDeadlock);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_NE(self[0].message.find("test.self.M"), std::string::npos);
}

TEST_F(LockOrderTest, TwoThreadsRegisteringOneNameGetOneClass) {
  // Both threads race to intern one name, then keep registering it from
  // their own caches; the first registration (and its rank) wins for both.
  const lockorder::LockClass* got[2] = {nullptr, nullptr};
  std::atomic<int> ready{0};
  auto register_many = [&](int t, int rank) {
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    got[t] = lockorder::RegisterLockClass("test.intern.M", rank);
    for (int i = 0; i < 1000; ++i) {
      if (lockorder::RegisterLockClass("test.intern.M", rank) != got[t]) {
        got[t] = nullptr;
        return;
      }
    }
  };
  std::thread a(register_many, 0, 10);
  std::thread b(register_many, 1, 20);
  a.join();
  b.join();
  ASSERT_NE(got[0], nullptr);
  EXPECT_EQ(got[0], got[1]);
  const int rank = lockorder::LockClassRank(got[0]);
  EXPECT_TRUE(rank == 10 || rank == 20) << rank;

  // The name, not the buffer holding it, picks the class: a copy finds the
  // same class, and a reused buffer holding another name does not.
  std::string copy = "test.intern.M";
  EXPECT_EQ(lockorder::RegisterLockClass(copy.c_str(), 30), got[0]);
  EXPECT_EQ(lockorder::LockClassRank(got[0]), rank);
  char buf[32] = "test.intern.A";
  const auto* first = lockorder::RegisterLockClass(buf);
  std::strcpy(buf, "test.intern.B");
  const auto* second = lockorder::RegisterLockClass(buf);
  EXPECT_NE(first, second);
  EXPECT_STREQ(lockorder::LockClassName(second), "test.intern.B");
}

TEST_F(LockOrderTest, SiblingInstancesOfOneClassDoNotFormEdges) {
  // Two handler locks of the same class nest during dependency evaluation;
  // that must not create a self-loop "class -> class".
  Mutex a("test.sibling.M");
  Mutex b("test.sibling.M");
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_FALSE(HasEdge("test.sibling.M", "test.sibling.M"));
  EXPECT_EQ(LockOrderValidator::Instance().violation_count(), 0u);
}

TEST_F(LockOrderTest, RankInversionReported) {
  Mutex outer("test.rank.outer", 10);
  Mutex inner("test.rank.inner", 20);
  {
    MutexLock li(inner);
    MutexLock lo(outer);  // rank 10 while holding rank 20
  }
  auto inversions =
      ViolationsOfKind(LockOrderViolation::Kind::kRankInversion);
  ASSERT_EQ(inversions.size(), 1u);
  EXPECT_NE(inversions[0].message.find("test.rank.outer"), std::string::npos);
  EXPECT_NE(inversions[0].message.find("test.rank.inner"), std::string::npos);
  // The sanctioned order is silent.
  {
    MutexLock lo(outer);
    MutexLock li(inner);
  }
  EXPECT_EQ(ViolationsOfKind(LockOrderViolation::Kind::kRankInversion).size(),
            1u);
}

TEST_F(LockOrderTest, SharedAcquisitionsRecordNoWantEdges) {
  ReentrantSharedMutex s("test.shared.S");
  Mutex m("test.shared.M");
  // Shared *want* while holding m: no edge m -> S.
  {
    MutexLock lm(m);
    SharedLock ls(s);
  }
  EXPECT_FALSE(HasEdge("test.shared.M", "test.shared.S"));
  // But a shared *hold* participates in edges of later exclusive wants.
  {
    SharedLock ls(s);
    MutexLock lm(m);
  }
  EXPECT_TRUE(HasEdge("test.shared.S", "test.shared.M"));
  EXPECT_EQ(LockOrderValidator::Instance().violation_count(), 0u);
}

TEST_F(LockOrderTest, TryLockTracksHoldButRecordsNoEdge) {
  Mutex a("test.try.A");
  Mutex b("test.try.B");
  {
    MutexLock la(a);
    ASSERT_TRUE(b.try_lock());  // non-blocking: cannot deadlock, no edge
    b.unlock();
  }
  EXPECT_FALSE(HasEdge("test.try.A", "test.try.B"));
  // The try-held lock still shows up on the held side of later edges.
  Mutex c("test.try.C");
  {
    ASSERT_TRUE(a.try_lock());
    MutexLock lc(c);
    a.unlock();
  }
  EXPECT_TRUE(HasEdge("test.try.A", "test.try.C"));
}

TEST_F(LockOrderTest, RuntimeKillSwitchStopsTracking) {
  auto& v = LockOrderValidator::Instance();
  Mutex a("test.disabled.A");
  Mutex b("test.disabled.B");
  v.SetEnabled(false);
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);  // would be a cycle if tracking were on
  }
  EXPECT_EQ(v.violation_count(), 0u);
  EXPECT_FALSE(HasEdge("test.disabled.A", "test.disabled.B"));
  v.SetEnabled(true);
}

TEST_F(LockOrderTest, UpgradeReportingIgnoresKillSwitch) {
  // An upgrade attempt is fatal; the report it prints first must survive
  // the runtime kill switch.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto& v = LockOrderValidator::Instance();
  v.SetEnabled(false);
  ReentrantSharedMutex s("test.upgrade.S");
  EXPECT_DEATH(
      {
        s.lock_shared();
        s.lock();
      },
      "\\[lock-order\\] upgrade: .*'test\\.upgrade\\.S'");
  v.SetEnabled(true);
}

#else  // !PIPES_LOCK_ORDER_CHECKS

TEST_F(LockOrderTest, CompileTimeKillSwitchCompilesHooksOut) {
  // With the validator configured out, instrumented locks must not record
  // anything — not even for a textbook ABBA pattern.
  Mutex a("test.off.A");
  Mutex b("test.off.B");
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  auto& v = LockOrderValidator::Instance();
  EXPECT_EQ(v.violation_count(), 0u);
  EXPECT_TRUE(v.edges().empty());
}

TEST_F(LockOrderTest, UpgradeReportingSurvivesCompileTimeKillSwitch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ReentrantSharedMutex s("test.off.S");
  EXPECT_DEATH(
      {
        s.lock_shared();
        s.lock();
      },
      "\\[lock-order\\] upgrade: .*'test\\.off\\.S'");
}

#endif  // PIPES_LOCK_ORDER_CHECKS

}  // namespace
}  // namespace pipes
