// TraceJournal: bounded ring semantics (wrap-around keeps the newest
// events, drop accounting stays exact), Tail ordering, the capacity-0
// counting no-op mode, event formatting, and concurrent recording.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_journal.h"

namespace wazi::obs {
namespace {

TEST(TraceJournalTest, RecordsInOrderBelowCapacity) {
  TraceJournal j(16);
  for (int i = 0; i < 5; ++i) {
    j.Record(TraceEventKind::kSnapshotSwap, /*epoch=*/1, /*shard=*/i,
             /*a=*/i * 10);
  }
  EXPECT_EQ(j.capacity(), 16u);
  EXPECT_EQ(j.recorded(), 5);
  EXPECT_EQ(j.dropped(), 0);
  const std::vector<TraceEvent> tail = j.Tail(16);
  ASSERT_EQ(tail.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(tail[i].shard, i);
    EXPECT_EQ(tail[i].a, i * 10);
    EXPECT_EQ(tail[i].kind, TraceEventKind::kSnapshotSwap);
  }
  // Timestamps are stamped and non-decreasing.
  for (size_t i = 1; i < tail.size(); ++i) {
    EXPECT_GE(tail[i].t_ns, tail[i - 1].t_ns);
  }
}

TEST(TraceJournalTest, WrapAroundKeepsNewestAndCountsDrops) {
  TraceJournal j(8);
  for (int i = 0; i < 20; ++i) {
    j.Record(TraceEventKind::kCacheEvict, /*epoch=*/0, /*shard=*/-1,
             /*a=*/i);
  }
  EXPECT_EQ(j.recorded(), 20);
  EXPECT_EQ(j.dropped(), 12);  // 20 recorded - 8 retained
  const std::vector<TraceEvent> tail = j.Tail(8);
  ASSERT_EQ(tail.size(), 8u);
  // The retained window is the 8 NEWEST events, oldest first.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(tail[i].a, 12 + i);
  }
}

TEST(TraceJournalTest, TailSmallerThanRetainedReturnsNewest) {
  TraceJournal j(8);
  for (int i = 0; i < 6; ++i) {
    j.Record(TraceEventKind::kDriftRebuild, /*epoch=*/0, /*shard=*/0,
             /*a=*/i);
  }
  const std::vector<TraceEvent> tail = j.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].a, 4);
  EXPECT_EQ(tail[1].a, 5);
}

TEST(TraceJournalTest, ZeroCapacityIsCountingNoOp) {
  TraceJournal j(0);
  for (int i = 0; i < 100; ++i) {
    j.Record(TraceEventKind::kQueryTrace, 0, -1, i);
  }
  EXPECT_EQ(j.capacity(), 0u);
  EXPECT_EQ(j.recorded(), 100);
  EXPECT_EQ(j.dropped(), 100);  // nothing retained, everything dropped
  EXPECT_TRUE(j.Tail(10).empty());
}

TEST(TraceJournalTest, KindNamesAreStableSnakeCase) {
  EXPECT_STREQ(KindName(TraceEventKind::kSnapshotSwap), "snapshot_swap");
  EXPECT_STREQ(KindName(TraceEventKind::kDriftRebuild), "drift_rebuild");
  EXPECT_STREQ(KindName(TraceEventKind::kMigrationPlan), "migration_plan");
  EXPECT_STREQ(KindName(TraceEventKind::kMigrationCapture),
               "migration_capture");
  EXPECT_STREQ(KindName(TraceEventKind::kMigrationCatchUp),
               "migration_catch_up");
  EXPECT_STREQ(KindName(TraceEventKind::kMigrationCutover),
               "migration_cutover");
  EXPECT_STREQ(KindName(TraceEventKind::kMigrationRetire),
               "migration_retire");
  EXPECT_STREQ(KindName(TraceEventKind::kAdmissionDispatch),
               "admission_dispatch");
  EXPECT_STREQ(KindName(TraceEventKind::kCacheEvict), "cache_evict");
  EXPECT_STREQ(KindName(TraceEventKind::kQueryTrace), "query_trace");
}

TEST(TraceJournalTest, FormatEventMentionsKindAndFields) {
  TraceEvent e;
  e.t_ns = 1500000;  // +1.5ms from an origin of 0
  e.kind = TraceEventKind::kMigrationPlan;
  e.epoch = 3;
  e.shard = -1;
  e.a = 2;
  e.b = 6;
  e.c = 1;
  const std::string line = FormatEvent(e, /*origin_ns=*/0);
  EXPECT_NE(line.find("migration_plan"), std::string::npos) << line;
  EXPECT_NE(line.find(" e3"), std::string::npos) << line;
  EXPECT_NE(line.find("moved=2"), std::string::npos) << line;
  EXPECT_NE(line.find("carried=6"), std::string::npos) << line;
  EXPECT_NE(line.find("incremental"), std::string::npos) << line;
  EXPECT_NE(line.find("+1.500ms"), std::string::npos) << line;
}

TEST(TraceJournalTest, ConcurrentRecordersNeverLoseAccounting) {
  TraceJournal j(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&j, t] {
      for (int i = 0; i < kPerThread; ++i) {
        j.Record(TraceEventKind::kSnapshotSwap, /*epoch=*/0,
                 /*shard=*/t, /*a=*/i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(j.recorded(), static_cast<int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(j.dropped(), j.recorded() - 64);
  const std::vector<TraceEvent> tail = j.Tail(64);
  EXPECT_EQ(tail.size(), 64u);
  // Every retained event is a real record, not a torn slot.
  for (const TraceEvent& e : tail) {
    EXPECT_GE(e.shard, 0);
    EXPECT_LT(e.shard, kThreads);
    EXPECT_GE(e.a, 0);
    EXPECT_LT(e.a, kPerThread);
    EXPECT_EQ(e.kind, TraceEventKind::kSnapshotSwap);
  }
}

}  // namespace
}  // namespace wazi::obs
