// Self-tests for tools/pipes_analyze: each check must fire on its seeded
// fixture (tests/tools/fixtures/bad_*), stay silent on the clean fixture,
// and — the real acceptance criterion — stay silent on this repository.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "pipes_analyze/analyzer.h"
#include "pipes_analyze/source_model.h"

namespace pipes::analyze {
namespace {

#ifndef PIPES_ANALYZE_FIXTURE_DIR
#error "build must define PIPES_ANALYZE_FIXTURE_DIR"
#endif
#ifndef PIPES_ANALYZE_SOURCE_ROOT
#error "build must define PIPES_ANALYZE_SOURCE_ROOT"
#endif

std::vector<Finding> RunOn(const std::string& fixture,
                           const std::vector<std::string>& checks) {
  Options opts;
  opts.root = std::string(PIPES_ANALYZE_FIXTURE_DIR) + "/" + fixture;
  return RunChecks(opts, checks);
}

std::string Render(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) out += f.ToString() + "\n";
  return out;
}

// --- fixture-driven check tests --------------------------------------------

TEST(PipesAnalyzeFixtures, CleanFixturePassesAllChecks) {
  std::vector<Finding> findings = RunOn("clean", AllCheckNames());
  EXPECT_TRUE(findings.empty()) << Render(findings);
}

TEST(PipesAnalyzeFixtures, GuardCoverageFlagsUnwaivedMember) {
  std::vector<Finding> findings = RunOn("bad_guards", {"guard-coverage"});
  ASSERT_EQ(findings.size(), 1u) << Render(findings);
  EXPECT_EQ(findings[0].check, "guard-coverage");
  EXPECT_EQ(findings[0].file, "src/common/account.h");
  EXPECT_NE(findings[0].message.find("cached_total_"), std::string::npos);
  // The annotated, lock, waived and sharded-counter members must not be
  // flagged.
  EXPECT_EQ(findings[0].message.find("balance_"), std::string::npos);
  EXPECT_EQ(Render(findings).find("audited_"), std::string::npos);
  EXPECT_EQ(Render(findings).find("deposits_"), std::string::npos);
}

TEST(PipesAnalyzeFixtures, LayeringFlagsInversionAndTestInclude) {
  std::vector<Finding> findings = RunOn("bad_layering", {"layering"});
  ASSERT_EQ(findings.size(), 2u) << Render(findings);
  // Sorted by file: src/common/clock.h (layer inversion) first.
  EXPECT_EQ(findings[0].file, "src/common/clock.h");
  EXPECT_NE(findings[0].message.find("'common' must not include"),
            std::string::npos);
  EXPECT_EQ(findings[1].file, "src/metadata/registry.h");
  EXPECT_NE(findings[1].message.find("test or bench headers"),
            std::string::npos);
}

TEST(PipesAnalyzeFixtures, LockRankFlagsAliasedRankAndInvertedEdge) {
  std::vector<Finding> findings = RunOn("bad_lock_rank", {"lock-rank"});
  ASSERT_EQ(findings.size(), 2u) << Render(findings);
  std::string all = Render(findings);
  EXPECT_NE(all.find("kRankAlias"), std::string::npos) << all;
  EXPECT_NE(all.find("duplicates kRankInner"), std::string::npos) << all;
  EXPECT_NE(all.find("contradicts the rank table"), std::string::npos) << all;
}

TEST(PipesAnalyzeFixtures, JournalFlagsTagMissingFromReplay) {
  std::vector<Finding> findings = RunOn("bad_journal", {"journal"});
  ASSERT_EQ(findings.size(), 1u) << Render(findings);
  EXPECT_NE(findings[0].message.find("kDrop"), std::string::npos);
  EXPECT_NE(findings[0].message.find("ApplyRecord"), std::string::npos);
  EXPECT_NE(findings[0].message.find("data loss"), std::string::npos);
}

TEST(PipesAnalyzeFixtures, KillPointsFlagsDuplicateUntestedAndStale) {
  std::vector<Finding> findings = RunOn("bad_kill_points", {"kill-points"});
  ASSERT_EQ(findings.size(), 3u) << Render(findings);
  std::string all = Render(findings);
  EXPECT_NE(all.find("duplicates"), std::string::npos) << all;
  EXPECT_NE(all.find("'fix.untested' is not in the kKillSites"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("'fix.stale'"), std::string::npos) << all;
}

TEST(PipesAnalyzeFixtures, DeterminismFlagsWallClockAndEntropyButNotWaived) {
  std::vector<Finding> findings = RunOn("bad_determinism", {"determinism"});
  ASSERT_EQ(findings.size(), 3u) << Render(findings);
  std::string all = Render(findings);
  // The unwaived steady_clock read and the random_device draw.
  EXPECT_NE(all.find("ticker.cc:9"), std::string::npos) << all;
  EXPECT_NE(all.find("'random_device'"), std::string::npos) << all;
  // The waived read on line 14 must NOT be flagged...
  EXPECT_EQ(all.find("ticker.cc:14"), std::string::npos) << all;
  // ...but the waiver under src/testing/ is ignored: the harness may not
  // opt out of determinism.
  EXPECT_NE(all.find("src/testing/harness.cc"), std::string::npos) << all;
  EXPECT_NE(all.find("may not waive"), std::string::npos) << all;
}

TEST(PipesAnalyzeFixtures, SimSeamsFlagsIncludesPastTheHarnessFacade) {
  std::vector<Finding> findings = RunOn("bad_sim_seams", {"sim-seams"});
  ASSERT_EQ(findings.size(), 2u) << Render(findings);
  std::string all = Render(findings);
  EXPECT_NE(all.find("metadata/persistence.h"), std::string::npos) << all;
  EXPECT_NE(all.find("common/journal.h"), std::string::npos) << all;
  // The published seam include is allowed.
  EXPECT_EQ(all.find("sim_harness.h"), std::string::npos) << all;
}

TEST(PipesAnalyzeFixtures, UnknownCheckNameYieldsUsageFinding) {
  std::vector<Finding> findings = RunOn("clean", {"no-such-check"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "usage");
}

// --- the tree itself -------------------------------------------------------

// The gate this tool exists for: the repository's own sources must be clean
// under every check. A failure here is either a real regression (fix the
// code) or a reviewed exception (add a waiver / regenerate the snapshot —
// see DESIGN.md §3.8).
TEST(PipesAnalyzeTree, RepositoryIsClean) {
  Options opts;
  opts.root = PIPES_ANALYZE_SOURCE_ROOT;
  std::vector<Finding> findings = RunChecks(opts, AllCheckNames());
  EXPECT_TRUE(findings.empty()) << Render(findings);
}

// --- source-model unit tests ----------------------------------------------

TEST(SourceModel, LexSkipsPreprocessorAndDigitSeparators) {
  std::vector<Token> toks =
      Lex("#define FOO 1\nint x = 1'000'000;\n#include \"a.h\"\nint y;\n");
  std::vector<std::string> texts;
  for (const Token& t : toks) texts.push_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{"int", "x", "=", "1'000'000",
                                             ";", "int", "y", ";"}));
}

TEST(SourceModel, LexKeepsStringContentAndLineNumbers) {
  std::vector<Token> toks = Lex("a\n\"two\nlines\"\nb\n");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[1].kind, TokKind::kString);
  EXPECT_EQ(toks[1].text, "two\nlines");
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 4);
}

TEST(SourceModel, MatchingCloseHandlesNesting) {
  std::vector<Token> toks = Lex("{ a { b } ( c ) }");
  EXPECT_EQ(MatchingClose(toks, 0), toks.size() - 1);
}

TEST(SourceModel, FindingToStringFormat) {
  Finding f{"layering", "src/a.h", 12, "boom"};
  EXPECT_EQ(f.ToString(), "src/a.h:12: [layering] boom");
}

}  // namespace
}  // namespace pipes::analyze
