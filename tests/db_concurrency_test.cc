// Concurrency-model tests: per-table latching, WAL group commit, and
// crash recovery under concurrent committers. Tests named *Stress* carry
// the ctest "stress" label and are the TSan targets (scripts/verify.sh
// runs them under HEDC_SANITIZE=thread).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "db/wal.h"

namespace hedc::db {
namespace {

class DbConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hedc_conc_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WalPath() const { return (dir_ / "db.wal").string(); }

  std::filesystem::path dir_;
};

int64_t CountRows(Database* db, const std::string& table) {
  auto r = db->Execute("SELECT COUNT(*) AS n FROM " + table);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return -1;
  return r.value().Get(0, "n").AsInt();
}

// Writers on distinct tables must not serialize or corrupt each other,
// including while a DDL thread churns scratch tables through the
// exclusive catalog latch.
TEST_F(DbConcurrencyTest, ConcurrentWritersDistinctTablesStress) {
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 200;
  Database db;
  ASSERT_TRUE(db.OpenWal(WalPath()).ok());
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_TRUE(db.Execute("CREATE TABLE w" + std::to_string(w) +
                           " (id INT PRIMARY KEY, v INT)")
                    .ok());
  }

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, w] {
      std::string table = "w" + std::to_string(w);
      for (int i = 1; i <= kOpsPerWriter; ++i) {
        auto ins = db.Execute("INSERT INTO " + table + " VALUES (?, ?)",
                              {Value::Int(i), Value::Int(0)});
        ASSERT_TRUE(ins.ok()) << ins.status().ToString();
        auto upd =
            db.Execute("UPDATE " + table + " SET v = ? WHERE id = ?",
                       {Value::Int(i), Value::Int(i)});
        ASSERT_TRUE(upd.ok()) << upd.status().ToString();
      }
    });
  }
  // DDL churn: create/drop scratch tables behind the exclusive latch.
  threads.emplace_back([&db] {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          db.Execute("CREATE TABLE scratch (id INT PRIMARY KEY)").ok());
      ASSERT_TRUE(db.Execute("DROP TABLE scratch").ok());
    }
  });
  for (std::thread& t : threads) t.join();

  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(CountRows(&db, "w" + std::to_string(w)), kOpsPerWriter);
  }

  // Recovery sees exactly the same state.
  Database recovered;
  ASSERT_TRUE(recovered.OpenWal(WalPath()).ok());
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(CountRows(&recovered, "w" + std::to_string(w)),
              kOpsPerWriter);
  }
}

// SELECTs share the table latch; they must never observe a torn row
// while writers mutate the same table.
TEST_F(DbConcurrencyTest, ReadersVsWritersStress) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE rw (id INT PRIMARY KEY, a INT, "
                         "b INT)")
                  .ok());
  std::atomic<bool> stop{false};
  std::thread writer([&db, &stop] {
    for (int i = 1; i <= 500 && !stop.load(); ++i) {
      // a and b always move together; a reader must never see them differ.
      ASSERT_TRUE(db.Execute("INSERT INTO rw VALUES (?, ?, ?)",
                             {Value::Int(i), Value::Int(i), Value::Int(i)})
                      .ok());
      ASSERT_TRUE(
          db.Execute("UPDATE rw SET a = ?, b = ? WHERE id = ?",
                     {Value::Int(i + 1), Value::Int(i + 1), Value::Int(i)})
              .ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&db, &stop] {
      while (!stop.load()) {
        auto rs = db.Execute("SELECT id, a, b FROM rw");
        ASSERT_TRUE(rs.ok());
        for (size_t i = 0; i < rs.value().num_rows(); ++i) {
          EXPECT_EQ(rs.value().Get(i, "a").AsInt(),
                    rs.value().Get(i, "b").AsInt());
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(CountRows(&db, "rw"), 500);
}

// Group commit: concurrent appenders' records all reach the log, and
// each thread's own records stay in program order.
TEST_F(DbConcurrencyTest, GroupCommitDurableAndOrderedStress) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  {
    Database db;
    ASSERT_TRUE(db.OpenWal(WalPath()).ok());
    for (int w = 0; w < kThreads; ++w) {
      ASSERT_TRUE(db.Execute("CREATE TABLE g" + std::to_string(w) +
                             " (id INT PRIMARY KEY)")
                      .ok());
    }
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&db, w] {
        for (int i = 1; i <= kPerThread; ++i) {
          ASSERT_TRUE(db.Execute("INSERT INTO g" + std::to_string(w) +
                                     " VALUES (?)",
                                 {Value::Int(i)})
                          .ok());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  std::vector<WalRecord> records;
  ASSERT_TRUE(WriteAheadLog::ReadAll(WalPath(), &records).ok());
  std::vector<int64_t> last_id(kThreads, 0);
  int inserts = 0;
  for (const WalRecord& rec : records) {
    if (rec.op != WalOp::kInsert) continue;
    ++inserts;
    int w = rec.table.back() - '0';
    ASSERT_GE(w, 0);
    ASSERT_LT(w, kThreads);
    int64_t id = rec.row[0].AsInt();
    // Append() returns only once durable, so a thread's next record can
    // never be logged ahead of its previous one.
    EXPECT_GT(id, last_id[w]) << "reordered records in " << rec.table;
    last_id[w] = id;
  }
  EXPECT_EQ(inserts, kThreads * kPerThread);
}

// A transaction spanning several tables takes their latches in sorted
// order on rollback; concurrent single-table writers keep running.
TEST_F(DbConcurrencyTest, MultiTableTransactionRollbackStress) {
  Database db;
  ASSERT_TRUE(db.OpenWal(WalPath()).ok());
  for (const char* t : {"ta", "tb", "tc"}) {
    ASSERT_TRUE(db.Execute(std::string("CREATE TABLE ") + t +
                           " (id INT PRIMARY KEY)")
                    .ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&db, &stop] {
    for (int i = 1; !stop.load(); ++i) {
      ASSERT_TRUE(
          db.Execute("INSERT INTO tc VALUES (?)", {Value::Int(i)}).ok());
    }
  });
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(db.Begin().ok());
    ASSERT_TRUE(db.Execute("INSERT INTO ta VALUES (?)",
                           {Value::Int(round + 1)})
                    .ok());
    ASSERT_TRUE(db.Execute("INSERT INTO tb VALUES (?)",
                           {Value::Int(round + 1)})
                    .ok());
    if (round % 2 == 0) {
      ASSERT_TRUE(db.Rollback().ok());
    } else {
      ASSERT_TRUE(db.Commit().ok());
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(CountRows(&db, "ta"), 25);
  EXPECT_EQ(CountRows(&db, "tb"), 25);

  Database recovered;
  ASSERT_TRUE(recovered.OpenWal(WalPath()).ok());
  EXPECT_EQ(CountRows(&recovered, "ta"), 25);
  EXPECT_EQ(CountRows(&recovered, "tb"), 25);
}

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define HEDC_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define HEDC_UNDER_SANITIZER 1
#endif
#endif

// Crash durability: fork a child that commits from several threads and
// acknowledges each durable Execute over a pipe, SIGKILL it mid-stream,
// then replay the WAL. Every acknowledged record must be recovered
// (acked ⊆ replayed); a torn tail is tolerated but never a lost commit.
TEST_F(DbConcurrencyTest, WalCrashKillMidBatchStress) {
#ifdef HEDC_UNDER_SANITIZER
  GTEST_SKIP() << "fork+SIGKILL is not sanitizer-friendly";
#else
  constexpr int kThreads = 3;
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);

  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: hammer commits, ack each one after Execute returns
    // (i.e. after the WAL says it is durable).
    ::close(pipe_fds[0]);
    Database db;
    if (!db.OpenWal(WalPath()).ok()) ::_exit(1);
    for (int w = 0; w < kThreads; ++w) {
      if (!db.Execute("CREATE TABLE k" + std::to_string(w) +
                      " (id INT PRIMARY KEY)")
               .ok()) {
        ::_exit(1);
      }
    }
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&db, w, fd = pipe_fds[1]] {
        for (int64_t i = 1; i <= 100000; ++i) {
          if (!db.Execute("INSERT INTO k" + std::to_string(w) +
                              " VALUES (?)",
                          {Value::Int(i)})
                   .ok()) {
            break;
          }
          int64_t token = static_cast<int64_t>(w) * 1000000 + i;
          if (::write(fd, &token, sizeof(token)) != sizeof(token)) break;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ::_exit(0);
  }

  // Parent: let the child commit for a while, then kill it mid-flight.
  ::close(pipe_fds[1]);
  ::usleep(200 * 1000);
  ::kill(child, SIGKILL);
  int wait_status = 0;
  ::waitpid(child, &wait_status, 0);

  std::set<std::pair<int, int64_t>> acked;
  int64_t token = 0;
  while (::read(pipe_fds[0], &token, sizeof(token)) == sizeof(token)) {
    acked.insert({static_cast<int>(token / 1000000), token % 1000000});
  }
  ::close(pipe_fds[0]);
  ASSERT_GT(acked.size(), 0u) << "child never acked a commit";

  // Replay: recovery must tolerate the torn tail and must contain every
  // acknowledged record.
  Database recovered;
  ASSERT_TRUE(recovered.OpenWal(WalPath()).ok());
  std::set<std::pair<int, int64_t>> replayed;
  for (int w = 0; w < kThreads; ++w) {
    auto rs = recovered.Execute("SELECT id FROM k" + std::to_string(w));
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    for (size_t i = 0; i < rs.value().num_rows(); ++i) {
      replayed.insert({w, rs.value().Get(i, "id").AsInt()});
    }
  }
  for (const auto& ack : acked) {
    EXPECT_TRUE(replayed.count(ack) > 0)
        << "lost committed record: table k" << ack.first << " id "
        << ack.second;
  }
#endif
}

// Morsel-parallel scans racing DML on the same table plus DDL churn on
// the catalog. The scan workers run on the executor's internal pool
// while the caller holds the shared table latch; writers take the
// exclusive latch; the DDL thread creates/drops scratch tables through
// the catalog latch. Invariant: the paired columns a and b always move
// together, so no scan — serial or parallel — may observe them differing,
// and parallel scans must return each row at most once.
TEST_F(DbConcurrencyTest, ParallelScanVsDmlAndDdlStress) {
  Database db;
  {
    ExecOptions opts = db.exec_options();
    opts.morsel_rows = 64;  // many morsels -> real parallel dispatch
    opts.scan_threads = 4;
    db.set_exec_options(opts);
  }
  ASSERT_TRUE(db.Execute("CREATE TABLE ev (id INT PRIMARY KEY, a INT, "
                         "b INT, tag TEXT)")
                  .ok());
  // Seed above the parallel threshold so scans fan out from the start.
  for (int i = 1; i <= 6000; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO ev VALUES (?, ?, ?, 'seed')",
                           {Value::Int(i), Value::Int(i), Value::Int(i)})
                    .ok());
  }

  std::atomic<bool> stop{false};
  std::thread writer([&db, &stop] {
    for (int i = 6001; i <= 6500 && !stop.load(); ++i) {
      ASSERT_TRUE(db.Execute("INSERT INTO ev VALUES (?, ?, ?, 'hot')",
                             {Value::Int(i), Value::Int(i), Value::Int(i)})
                      .ok());
      ASSERT_TRUE(
          db.Execute("UPDATE ev SET a = ?, b = ? WHERE id = ?",
                     {Value::Int(i + 1), Value::Int(i + 1), Value::Int(i)})
              .ok());
      if (i % 5 == 0) {
        ASSERT_TRUE(db.Execute("DELETE FROM ev WHERE id = ?",
                               {Value::Int(i - 3000)})
                        .ok());
      }
    }
    stop.store(true);
  });
  std::thread ddl([&db, &stop] {
    for (int i = 0; !stop.load(); ++i) {
      std::string name = "scratch" + std::to_string(i % 3);
      ASSERT_TRUE(
          db.Execute("CREATE TABLE " + name + " (id INT PRIMARY KEY)").ok());
      ASSERT_TRUE(db.Execute("DROP TABLE " + name).ok());
    }
  });
  std::vector<std::thread> scanners;
  for (int s = 0; s < 3; ++s) {
    scanners.emplace_back([&db, &stop] {
      while (!stop.load()) {
        // Unindexed predicate -> morsel-parallel full scan.
        auto rs = db.Execute("SELECT id, a, b FROM ev WHERE a >= 0");
        ASSERT_TRUE(rs.ok()) << rs.status().ToString();
        std::set<int64_t> seen;
        for (size_t i = 0; i < rs.value().num_rows(); ++i) {
          int64_t id = rs.value().Get(i, "id").AsInt();
          EXPECT_TRUE(seen.insert(id).second) << "row " << id << " twice";
          EXPECT_EQ(rs.value().Get(i, "a").AsInt(),
                    rs.value().Get(i, "b").AsInt());
        }
      }
    });
  }
  writer.join();
  ddl.join();
  for (std::thread& t : scanners) t.join();

  // 500 hot inserts minus 100 deletes on top of the 6000 seed rows.
  EXPECT_EQ(CountRows(&db, "ev"), 6000 + 500 - 100);
}

}  // namespace
}  // namespace hedc::db
