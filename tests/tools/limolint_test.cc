// Fixture-driven self-tests for limolint: every rule has at least one bad
// fixture that must be caught and one good fixture that must stay clean,
// plus the limolint:allow escape hatch and rule scoping. Fixtures live in
// limolint_fixtures/ (skipped by LintTree) and are linted here under
// synthetic repo paths so scoping rules apply as they would in the tree.
#include "limolint_lib.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "limolint_callgraph.h"
#include "test_temp_path.h"

#include <gtest/gtest.h>

namespace limoncello::limolint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(LIMOLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> Lint(const std::string& fixture,
                          const std::string& as_path) {
  return LintFile(as_path, ReadFixture(fixture));
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

// The call-graph rules never run through LintFile; program-rule fixtures
// are analyzed whole-program style, each fixture mapped to a synthetic
// repo path like real sources.
std::vector<Finding> Analyze(
    const std::vector<std::pair<std::string, std::string>>& fixtures) {
  std::vector<SourceFile> sources;
  for (const auto& fx : fixtures) {
    sources.push_back(SourceFile{fx.second, ReadFixture(fx.first)});
  }
  return AnalyzeProgram(sources);
}

bool AnyMessageContains(const std::vector<Finding>& findings,
                        const std::string& needle) {
  for (const Finding& f : findings) {
    if (f.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(LimolintRawThread, RawMutexOutsideUtilIsFlagged) {
  const auto findings = Lint("bad_raw_mutex.cc", "src/fleet/bad_raw_mutex.cc");
  EXPECT_GE(CountRule(findings, "raw-thread"), 3)
      << FormatFindings(findings);  // <mutex> include, lock_guard, member
  EXPECT_EQ(CountRule(findings, "raw-thread"),
            static_cast<int>(findings.size()))
      << "only raw-thread should fire: " << FormatFindings(findings);
}

TEST(LimolintRawThread, RawThreadInTestsIsFlagged) {
  const auto findings =
      Lint("bad_raw_thread.cc", "tests/fleet/bad_raw_thread.cc");
  EXPECT_GE(CountRule(findings, "raw-thread"), 2) << FormatFindings(findings);
}

TEST(LimolintRawThread, UtilDirectoriesAreExempt) {
  EXPECT_TRUE(Lint("bad_raw_mutex.cc", "src/util/bad_raw_mutex.cc").empty());
  EXPECT_TRUE(
      Lint("bad_raw_thread.cc", "tests/util/bad_raw_thread.cc").empty());
}

TEST(LimolintRawThread, AnnotatedWrapperIsClean) {
  const auto findings = Lint("good_wrapper.cc", "src/fleet/good_wrapper.cc");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LimolintAssert, NakedAssertIsFlaggedOnce) {
  const auto findings = Lint("bad_assert.cc", "src/tax/bad_assert.cc");
  ASSERT_EQ(findings.size(), 1u) << FormatFindings(findings);
  EXPECT_EQ(findings[0].rule, "no-assert");
  EXPECT_EQ(findings[0].line, 8);  // static_assert two lines later is fine
}

TEST(LimolintAssert, ChecksCommentsAndStringsAreClean) {
  const auto findings = Lint("good_check.cc", "src/tax/good_check.cc");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LimolintDeterminism, WallClockInSimIsFlagged) {
  const auto findings =
      Lint("bad_wallclock.cc", "src/sim/bad_wallclock.cc");
  EXPECT_EQ(CountRule(findings, "determinism"), 2)  // system_clock, time()
      << FormatFindings(findings);
}

TEST(LimolintDeterminism, AmbientRngInCoreIsFlagged) {
  const auto findings = Lint("bad_rand.cc", "src/core/bad_rand.cc");
  EXPECT_EQ(CountRule(findings, "determinism"), 3)
      << FormatFindings(findings);  // random_device, mt19937, std::rand
}

TEST(LimolintDeterminism, ScopeIsLimitedToSimFleetCore) {
  // The same wall-clock code is legitimate outside the deterministic dirs.
  EXPECT_TRUE(Lint("bad_wallclock.cc", "bench/bad_wallclock.cc").empty());
  EXPECT_TRUE(
      Lint("good_bench_clock.cc", "bench/good_bench_clock.cc").empty());
}

TEST(LimolintDeterminism, FaultsAndRecoveryAreInScope) {
  // Fault schedules and the recovery journal replay on fixed seeds; wall
  // clocks there break reproducibility just like in the simulator.
  EXPECT_EQ(CountRule(Lint("bad_wallclock.cc", "src/faults/bad_wallclock.cc"),
                      "determinism"),
            2);
  EXPECT_EQ(
      CountRule(Lint("bad_wallclock.cc", "src/recovery/bad_wallclock.cc"),
                "determinism"),
      2);
}

TEST(LimolintDeterminism, WordBoundedMatcherIgnoresSubstrings) {
  // sim_time(...) and randomize(...) contain banned words as substrings.
  const auto findings = Lint("good_rng.cc", "src/sim/good_rng.cc");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LimolintIostream, IostreamInSrcHeaderIsFlagged) {
  const auto findings =
      Lint("bad_iostream.h", "src/workloads/bad_iostream.h");
  ASSERT_EQ(findings.size(), 1u) << FormatFindings(findings);
  EXPECT_EQ(findings[0].rule, "iostream-header");
}

TEST(LimolintGuard, WrongGuardNameIsFlagged) {
  const auto findings = Lint("bad_guard.h", "src/sim/bad_guard.h");
  ASSERT_EQ(CountRule(findings, "include-guard"), 1)
      << FormatFindings(findings);
  EXPECT_NE(findings[0].message.find("LIMONCELLO_SIM_BAD_GUARD_H_"),
            std::string::npos)
      << findings[0].message;
}

TEST(LimolintGuard, GuardIsCheckedAgainstTheLintPath) {
  // The same header under a different name has a now-wrong guard.
  const auto findings = Lint("bad_iostream.h", "src/workloads/renamed.h");
  EXPECT_EQ(CountRule(findings, "include-guard"), 1)
      << FormatFindings(findings);
}

TEST(LimolintGuard, PragmaOnceIsFlagged) {
  const auto findings =
      Lint("bad_pragma_once.h", "src/sim/bad_pragma_once.h");
  EXPECT_EQ(CountRule(findings, "include-guard"), 1)
      << FormatFindings(findings);
}

TEST(LimolintGuard, CanonicalGuardIsClean) {
  const auto findings = Lint("good_header.h", "src/sim/good_header.h");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LimolintMsrWrite, DroppedActuationResultsAreFlagged) {
  const auto findings =
      Lint("bad_unchecked_write.cc", "src/fleet/bad_unchecked_write.cc");
  // Write, DisableAll, EnableAll (->), chained receiver, multi-line call.
  EXPECT_EQ(CountRule(findings, "unchecked-msr-write"), 5)
      << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "unchecked-msr-write"),
            static_cast<int>(findings.size()))
      << "only unchecked-msr-write should fire: "
      << FormatFindings(findings);
}

TEST(LimolintMsrWrite, MultiLineCallIsFlaggedAtItsFirstLine) {
  const auto findings =
      Lint("bad_unchecked_write.cc", "src/fleet/bad_unchecked_write.cc");
  bool found_opening_line = false;
  for (const Finding& f : findings) {
    found_opening_line |= f.line == 19;  // control.SetEngine(0,
    EXPECT_NE(f.line, 20) << "continuation line is not a statement start";
    EXPECT_NE(f.line, 21) << "allow(unchecked-msr-write) must suppress";
  }
  EXPECT_TRUE(found_opening_line) << FormatFindings(findings);
}

TEST(LimolintMsrWrite, CheckedAndConsumedResultsAreClean) {
  const auto findings =
      Lint("good_checked_write.cc", "tests/msr/good_checked_write.cc");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LimolintRawFileIo, DroppedFileIoResultsAreFlagged) {
  const auto findings =
      Lint("bad_raw_file_io.cc", "src/fleet/bad_raw_file_io.cc");
  // fopen, write, std::fwrite, pwrite, multi-line open.
  EXPECT_EQ(CountRule(findings, "raw-file-io"), 5)
      << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "raw-file-io"),
            static_cast<int>(findings.size()))
      << "only raw-file-io should fire: " << FormatFindings(findings);
}

TEST(LimolintRawFileIo, MultiLineCallIsFlaggedAtItsFirstLineAndAllowWorks) {
  const auto findings =
      Lint("bad_raw_file_io.cc", "src/fleet/bad_raw_file_io.cc");
  bool found_opening_line = false;
  for (const Finding& f : findings) {
    found_opening_line |= f.line == 11;  // open(path,
    EXPECT_NE(f.line, 12) << "continuation line is not a statement start";
    EXPECT_NE(f.line, 13) << "allow(raw-file-io) must suppress";
  }
  EXPECT_TRUE(found_opening_line) << FormatFindings(findings);
}

TEST(LimolintRawFileIo, CheckedAndMemberCallsAreClean) {
  const auto findings =
      Lint("good_checked_file_io.cc", "tests/msr/good_checked_file_io.cc");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LimolintRawFileIo, RecoveryDirectoryIsExempt) {
  // The journal implementation owns the raw-fd write path; the same code
  // linted under src/recovery/ must pass untouched.
  EXPECT_TRUE(
      Lint("bad_raw_file_io.cc", "src/recovery/bad_raw_file_io.cc").empty());
}

TEST(LimolintHotStruct, VectorMembersInMarkedStructAreFlagged) {
  const auto findings =
      Lint("bad_hot_struct.cc", "src/fleet/bad_hot_struct.cc");
  // Two direct members plus one in a nested struct (depth tracking).
  EXPECT_EQ(CountRule(findings, "hot-struct-vector"), 3)
      << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "hot-struct-vector"),
            static_cast<int>(findings.size()))
      << "only hot-struct-vector should fire: " << FormatFindings(findings);
  for (const Finding& f : findings) {
    EXPECT_NE(f.line, 12) << "allow(hot-struct-vector) must suppress";
    EXPECT_NE(f.line, 16) << "accessor signatures are not members";
    EXPECT_NE(f.line, 21) << "unmarked structs are out of scope";
  }
}

TEST(LimolintHotStruct, ScalarsAccessorsAndUnmarkedStructsAreClean) {
  const auto findings =
      Lint("good_hot_struct.cc", "src/fleet/good_hot_struct.cc");
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LimolintHotStruct, RegionClosesWithTheStructBody) {
  // After the marked struct's closing brace the rule must disarm: the
  // cold struct at the bottom of the bad fixture carries a vector too.
  const auto findings =
      Lint("bad_hot_struct.cc", "src/fleet/bad_hot_struct.cc");
  for (const Finding& f : findings) {
    EXPECT_LT(f.line, 18) << FormatFindings(findings);
  }
}

TEST(LimolintAllow, MatchingAllowSuppressesAndWrongRuleDoesNot) {
  const auto findings = Lint("allow_escape.cc", "src/fleet/allow_escape.cc");
  ASSERT_EQ(findings.size(), 1u) << FormatFindings(findings);
  EXPECT_EQ(findings[0].rule, "raw-thread");
  EXPECT_EQ(findings[0].line, 12);  // the allow(no-assert) line still fires
}

TEST(LimolintHotPathAlloc, ReachableAllocationsAreFlaggedWithAPath) {
  const auto findings =
      Analyze({{"bad_hot_alloc.cc", "src/fleet/bad_hot_alloc.cc"}});
  // push_back in the callee, std::string construction and new in the root.
  EXPECT_EQ(CountRule(findings, "hot-path-alloc"), 3)
      << FormatFindings(findings);
  EXPECT_EQ(CountRule(findings, "hot-path-alloc"),
            static_cast<int>(findings.size()))
      << "only hot-path-alloc should fire: " << FormatFindings(findings);
  EXPECT_TRUE(AnyMessageContains(findings, "HotLoop -> Helper"))
      << "finding in a callee must carry the call path: "
      << FormatFindings(findings);
}

TEST(LimolintHotPathAlloc, ColdCalleesAndAllowedLinesAreClean) {
  const auto findings =
      Analyze({{"good_hot_alloc.cc", "src/fleet/good_hot_alloc.cc"}});
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LimolintHotPathBlocking, ReachableBlockingCallsAreFlagged) {
  const auto findings =
      Analyze({{"bad_hot_blocking.cc", "src/fleet/bad_hot_blocking.cc"}});
  // write + fsync through the callee, usleep in the root itself.
  EXPECT_EQ(CountRule(findings, "hot-path-blocking"), 3)
      << FormatFindings(findings);
  EXPECT_TRUE(AnyMessageContains(findings, "HotTick -> Persist"))
      << FormatFindings(findings);
}

TEST(LimolintHotPathBlocking, AllowedAppendAndUnreachableFlushAreClean) {
  const auto findings =
      Analyze({{"good_hot_blocking.cc", "src/fleet/good_hot_blocking.cc"}});
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LimolintLockCycle, OppositeOrdersAndHeldRendezvousAreFlagged) {
  const auto findings =
      Analyze({{"bad_lock_cycle.cc", "src/fleet/bad_lock_cycle.cc"}});
  EXPECT_EQ(CountRule(findings, "lock-cycle"), 2) << FormatFindings(findings);
  EXPECT_TRUE(AnyMessageContains(findings, "lock order cycle"))
      << FormatFindings(findings);
  EXPECT_TRUE(AnyMessageContains(findings, "held across"))
      << FormatFindings(findings);
  // Lock names are qualified by their owning type.
  EXPECT_TRUE(AnyMessageContains(findings, "Engine::a_"))
      << FormatFindings(findings);
}

TEST(LimolintLockCycle, ConsistentOrderAndScopedGuardAreClean) {
  const auto findings =
      Analyze({{"good_lock_cycle.cc", "src/fleet/good_lock_cycle.cc"}});
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LimolintProgramAllow, AllowIsPerRuleOnADualViolationLine) {
  // One line allocates AND blocks; only the alloc carries an allow, so
  // exactly the blocking finding must survive.
  const auto findings =
      Analyze({{"allow_two_rules.cc", "src/fleet/allow_two_rules.cc"}});
  ASSERT_EQ(findings.size(), 1u) << FormatFindings(findings);
  EXPECT_EQ(findings[0].rule, "hot-path-blocking");
  EXPECT_EQ(findings[0].line, 11);
}

TEST(LimolintCrossTu, ReachabilitySpansTranslationUnits) {
  // Alone, each half is clean: the caller has no constructs, the callee
  // has no hot root.
  EXPECT_TRUE(
      Analyze({{"xtu_caller.cc", "src/fleet/xtu_caller.cc"}}).empty());
  EXPECT_TRUE(
      Analyze({{"xtu_callee.cc", "src/core/xtu_callee.cc"}}).empty());
  // Together the hot root in one file reaches the allocation in the other.
  const auto findings =
      Analyze({{"xtu_caller.cc", "src/fleet/xtu_caller.cc"},
               {"xtu_callee.cc", "src/core/xtu_callee.cc"}});
  ASSERT_EQ(findings.size(), 1u) << FormatFindings(findings);
  EXPECT_EQ(findings[0].rule, "hot-path-alloc");
  EXPECT_EQ(findings[0].file, "src/core/xtu_callee.cc");
  EXPECT_TRUE(
      AnyMessageContains(findings, "XtuHot -> XtuHelper -> MakeScratch"))
      << FormatFindings(findings);
}

TEST(LimolintCallGraph, MarkersAttachToTheTaggedFunctions) {
  ProgramModel model = ProgramModel::Build(
      {SourceFile{"src/fleet/good_hot_alloc.cc",
                  ReadFixture("good_hot_alloc.cc")}});
  bool saw_hot = false, saw_cold = false, saw_plain = false;
  for (const FunctionSummary& fn : model.Functions()) {
    if (fn.qualified == "HotLoop") {
      saw_hot = true;
      EXPECT_TRUE(fn.hot_root);
      EXPECT_FALSE(fn.cold_path);
      EXPECT_GE(fn.num_calls, 2u);  // Setup and Scalar
    } else if (fn.qualified == "Setup") {
      saw_cold = true;
      EXPECT_TRUE(fn.cold_path);
      EXPECT_FALSE(fn.hot_root);
    } else if (fn.qualified == "Scalar") {
      saw_plain = true;
      EXPECT_FALSE(fn.hot_root);
      EXPECT_FALSE(fn.cold_path);
    }
  }
  EXPECT_TRUE(saw_hot && saw_cold && saw_plain);
}

TEST(LimolintJson, FindingsRoundTripThroughABaselineFile) {
  const auto findings =
      Analyze({{"bad_hot_alloc.cc", "src/fleet/bad_hot_alloc.cc"},
               {"bad_lock_cycle.cc", "src/fleet/bad_lock_cycle.cc"}});
  ASSERT_FALSE(findings.empty());
  const std::string path = TestTempPath("limolint_roundtrip.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << FindingsJson(findings);
  }
  std::vector<Finding> baseline;
  ASSERT_TRUE(LoadBaselineFile(path, &baseline));
  ASSERT_EQ(baseline.size(), findings.size());
  std::size_t matched = 0;
  const auto fresh = SubtractBaseline(findings, baseline, &matched);
  EXPECT_TRUE(fresh.empty())
      << "a findings file must baseline itself: " << FormatFindings(fresh);
  EXPECT_EQ(matched, findings.size());
}

TEST(LimolintJson, BaselineEntriesAbsorbAtMostOneFindingEach) {
  Finding f;
  f.file = "src/fleet/x.cc";
  f.line = 7;
  f.rule = "hot-path-alloc";
  f.message = "push_back() on a hot path";
  // Two identical findings against a one-entry baseline: one survives.
  const auto fresh = SubtractBaseline({f, f}, {f});
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].line, 7);
  // A baseline entry with a different line matches nothing.
  Finding moved = f;
  moved.line = 8;
  EXPECT_EQ(SubtractBaseline({f}, {moved}).size(), 1u);
}

TEST(LimolintJson, MalformedBaselineIsRejected) {
  const std::string path = TestTempPath("limolint_bad.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"version\":1,\"findings\":[{\"file\":\"a\",";  // truncated
  }
  std::vector<Finding> baseline;
  EXPECT_FALSE(LoadBaselineFile(path, &baseline));
  EXPECT_TRUE(baseline.empty());
  EXPECT_FALSE(LoadBaselineFile(TestTempPath("does_not_exist.json"),
                                &baseline));
}

TEST(LimolintMeta, EveryRuleHasAFailingFixture) {
  std::set<std::string> caught;
  for (const Finding& f :
       Lint("bad_raw_mutex.cc", "src/fleet/bad_raw_mutex.cc")) {
    caught.insert(f.rule);
  }
  for (const Finding& f : Lint("bad_assert.cc", "src/tax/bad_assert.cc")) {
    caught.insert(f.rule);
  }
  for (const Finding& f :
       Lint("bad_wallclock.cc", "src/sim/bad_wallclock.cc")) {
    caught.insert(f.rule);
  }
  for (const Finding& f :
       Lint("bad_iostream.h", "src/workloads/bad_iostream.h")) {
    caught.insert(f.rule);
  }
  for (const Finding& f : Lint("bad_guard.h", "src/sim/bad_guard.h")) {
    caught.insert(f.rule);
  }
  for (const Finding& f :
       Lint("bad_unchecked_write.cc", "src/fleet/bad_unchecked_write.cc")) {
    caught.insert(f.rule);
  }
  for (const Finding& f :
       Lint("bad_raw_file_io.cc", "src/fleet/bad_raw_file_io.cc")) {
    caught.insert(f.rule);
  }
  for (const Finding& f :
       Lint("bad_hot_struct.cc", "src/fleet/bad_hot_struct.cc")) {
    caught.insert(f.rule);
  }
  // The call-graph rules only fire at program level.
  for (const Finding& f :
       Analyze({{"bad_hot_alloc.cc", "src/fleet/bad_hot_alloc.cc"},
                {"bad_hot_blocking.cc", "src/fleet/bad_hot_blocking.cc"},
                {"bad_lock_cycle.cc", "src/fleet/bad_lock_cycle.cc"}})) {
    caught.insert(f.rule);
  }
  for (const Rule& rule : Rules()) {
    EXPECT_TRUE(caught.count(rule.name) == 1)
        << "no failing fixture exercises rule " << rule.name;
  }
}

TEST(LimolintTree, RepoIsCleanAndFixturesAreSkipped) {
  const auto findings = LintTree(LIMOLINT_SOURCE_ROOT);
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LimolintSummary, TableCountsPerRule) {
  const auto findings = Lint("bad_rand.cc", "src/core/bad_rand.cc");
  const std::string table = SummaryTable(findings);
  for (const Rule& rule : Rules()) {
    EXPECT_NE(table.find(rule.name), std::string::npos) << table;
  }
  EXPECT_NE(table.find("3"), std::string::npos) << table;
}

}  // namespace
}  // namespace limoncello::limolint
