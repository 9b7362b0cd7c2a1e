#include "src/query/parser.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::A;
using ::stateslice::testing::B;

TEST(ParserTest, PaperMotivatingExampleQ1) {
  const ParseResult r = ParseQuery(
      "SELECT A.* FROM Temperature A, Humidity B "
      "WHERE A.LocationId = B.LocationId WINDOW 1 min");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.window.kind, WindowKind::kTime);
  EXPECT_EQ(r.query.window.extent, SecondsToTicks(60));
  EXPECT_TRUE(r.query.Unfiltered());
}

TEST(ParserTest, PaperMotivatingExampleQ2) {
  const ParseResult r = ParseQuery(
      "SELECT A.* FROM Temperature A, Humidity B "
      "WHERE A.LocationId = B.LocationId AND A.Value > 0.7 WINDOW 60 min");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.window.extent, SecondsToTicks(3600));
  ASSERT_FALSE(r.query.selection_a.IsTrue());
  EXPECT_TRUE(r.query.selection_a.Eval(A(1, 0.0, 0, 0.8)));
  EXPECT_FALSE(r.query.selection_a.Eval(A(1, 0.0, 0, 0.6)));
  EXPECT_TRUE(r.query.selection_b.IsTrue());
}

TEST(ParserTest, SecondsAreDefaultUnit) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW 5");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.window.extent, SecondsToTicks(5));
}

TEST(ParserTest, MillisecondsUnit) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW 250 ms");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.window.extent, SecondsToTicks(0.25));
}

TEST(ParserTest, CountWindows) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW 100 rows");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.window.kind, WindowKind::kCount);
  EXPECT_EQ(r.query.window.extent, 100);
}

TEST(ParserTest, FilterOnStreamB) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k AND B.Value < 0.5 "
      "WINDOW 10 s");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.query.selection_a.IsTrue());
  EXPECT_FALSE(r.query.selection_b.IsTrue());
  EXPECT_TRUE(r.query.selection_b.Eval(B(1, 0.0, 0, 0.4)));
}

TEST(ParserTest, MultipleFiltersAndTogether) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k AND A.v > 0.2 "
      "AND A.v < 0.8 WINDOW 10 s");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.query.selection_a.Eval(A(1, 0.0, 0, 0.5)));
  EXPECT_FALSE(r.query.selection_a.Eval(A(1, 0.0, 0, 0.9)));
  EXPECT_FALSE(r.query.selection_a.Eval(A(1, 0.0, 0, 0.1)));
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  const ParseResult r = ParseQuery(
      "select * from S1 a, S2 b where a.k = b.k window 3 sec");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.window.extent, SecondsToTicks(3));
}

TEST(ParserTest, ReversedJoinOrderAccepted) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE B.k = A.k WINDOW 3 s");
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(ParserTest, StreamNamesUsableWithoutAliases) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM Temp, Hum WHERE Temp.k = Hum.k AND Temp.v > 0.5 "
      "WINDOW 2 s");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.query.selection_a.IsTrue());
}

TEST(ParserTest, ErrorMissingWindow) {
  const ParseResult r =
      ParseQuery("SELECT * FROM S1 A, S2 B WHERE A.k = B.k");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("window"), std::string::npos);
}

TEST(ParserTest, ErrorJoinOnSameStream) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = A.k WINDOW 2 s");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("both streams"), std::string::npos);
}

TEST(ParserTest, ErrorUnknownAliasInFilter) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k AND C.v > 1 WINDOW 2 s");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown alias"), std::string::npos);
}

TEST(ParserTest, ErrorBadNumber) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW abc s");
  EXPECT_FALSE(r.ok);
}

TEST(ParserTest, HourUnits) {
  for (const char* unit : {"h", "hr", "hrs", "hour", "hours"}) {
    const ParseResult r = ParseQuery(
        std::string("SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW 2 ") +
        unit);
    ASSERT_TRUE(r.ok) << unit << ": " << r.error;
    EXPECT_EQ(r.query.window.extent, SecondsToTicks(2 * 3600)) << unit;
  }
}

TEST(ParserTest, ErrorNonPositiveWindow) {
  // Zero, negative, and rounds-to-zero windows all surface as ok=false
  // with a message — never a CHECK abort.
  for (const char* window : {"0 s", "-5 min", "0 rows", "-3 hours",
                             "0.4 rows"}) {
    const ParseResult r = ParseQuery(
        std::string("SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW ") +
        window);
    EXPECT_FALSE(r.ok) << window;
    EXPECT_NE(r.error.find("window must be positive"), std::string::npos)
        << window << ": " << r.error;
  }
}

TEST(ParserTest, ErrorNonFiniteOrOverflowingWindow) {
  // Regression pin for a fuzz finding: NaN/inf magnitudes and magnitudes
  // whose tick/row conversion overflows int64 used to reach the
  // static_cast in SecondsToTicks/Count — undefined behavior that only
  // looked rejected because x86 happens to produce INT64_MIN. They must be
  // rejected by validation, with ok=false and a message.
  // (Exponent forms like "1e300" tokenize as two tokens and are rejected
  // earlier as an unknown unit, so the overflow pins use digit strings.)
  for (const char* window :
       {"nan s", "inf s", "-inf min",
        "1000000000000000000000000000 s",        // 1e27 s  -> 1e33 ticks
        "9000000000000000000000000000000 rows",  // 9e30 rows
        "100000000000000000 hours"}) {           // 1e17 h  -> 3.6e26 ticks
    const ParseResult r = ParseQuery(
        std::string("SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW ") +
        window);
    EXPECT_FALSE(r.ok) << window;
    EXPECT_NE(r.error.find("window magnitude out of range"),
              std::string::npos)
        << window << ": " << r.error;
  }
}

TEST(ParserTest, LargeButRepresentableWindowStillParses) {
  // Just inside the validation bound: a century-scale window is absurd but
  // representable, and must not be caught by the overflow rejection.
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW 1000000000 s");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.window.extent, SecondsToTicks(1e9));
}

TEST(ParserTest, ToCqlRoundTrip) {
  // Parse -> ToCql -> parse reproduces window and selections exactly.
  const char* texts[] = {
      "SELECT A.* FROM Temperature A, Humidity B "
      "WHERE A.LocationId = B.LocationId WINDOW 1 min",
      "SELECT A.* FROM T A, H B WHERE A.loc = B.loc AND A.Value > 0.7 "
      "WINDOW 60 min",
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k AND A.v > 0.25 "
      "AND A.v < 0.75 AND B.w < 0.5 WINDOW 250 ms",
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW 100 rows",
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW 3 hours",
  };
  for (const char* text : texts) {
    const ParseResult first = ParseQuery(text);
    ASSERT_TRUE(first.ok) << text << ": " << first.error;
    const std::optional<std::string> cql = first.query.ToCql();
    ASSERT_TRUE(cql.has_value()) << text;
    const ParseResult second = ParseQuery(*cql);
    ASSERT_TRUE(second.ok) << *cql << ": " << second.error;
    EXPECT_EQ(second.query.window, first.query.window) << *cql;
    EXPECT_EQ(second.query.selection_a.description(),
              first.query.selection_a.description())
        << *cql;
    EXPECT_EQ(second.query.selection_b.description(),
              first.query.selection_b.description())
        << *cql;
  }
}

TEST(ParserTest, ToCqlRejectsNonDialectQueries) {
  ContinuousQuery q;
  q.window = WindowSpec::TimeSeconds(10);
  q.selection_a = Predicate::Range(0.2, 0.8);  // not a parser conjunct
  EXPECT_FALSE(q.ToCql().has_value());
  q.selection_a = Predicate();
  q.window.extent = 1;  // one tick: finer than the millisecond unit
  EXPECT_FALSE(q.ToCql().has_value());
}

TEST(ParserTest, ErrorUnknownUnit) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW 5 lightyears");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unit"), std::string::npos);
}

TEST(ParserTest, ErrorTrailingGarbage) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k WINDOW 5 s GROUP BY x");
  EXPECT_FALSE(r.ok);
}

TEST(ParserTest, ThreeWayFromList) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM Routes R, Trains T, Buses U "
      "WHERE R.k = T.k AND T.k = U.k AND U.Value > 0.5 WINDOW 10 s");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.num_streams(), 3);
  EXPECT_EQ(r.query.stream_names,
            (std::vector<std::string>{"Routes", "Trains", "Buses"}));
  EXPECT_EQ(r.query.join_anchors, (std::vector<int>{0, 1}));
  EXPECT_TRUE(r.query.selection_a.IsTrue());
  EXPECT_TRUE(r.query.selection_b.IsTrue());
  ASSERT_EQ(r.query.extra_selections.size(), 1u);
  EXPECT_FALSE(r.query.extra_selections[0].IsTrue());
}

TEST(ParserTest, FourWayNonAdjacentAnchors) {
  // D joins B (not C): the left-deep tree anchors stream 3 to stream 1.
  const ParseResult r = ParseQuery(
      "SELECT * FROM A A, B B, C C, D D "
      "WHERE A.k = B.k AND B.k = C.k AND D.k = B.k WINDOW 5 s");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.num_streams(), 4);
  EXPECT_EQ(r.query.join_anchors, (std::vector<int>{0, 1, 1}));
}

TEST(ParserTest, JoinConditionsInterleaveWithFilters) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM A A, B B, C C "
      "WHERE A.v > 0.1 AND C.k = A.k AND B.k = A.k AND C.v < 0.9 "
      "WINDOW 10 s");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.join_anchors, (std::vector<int>{0, 0}));
  EXPECT_FALSE(r.query.selection_a.IsTrue());
  ASSERT_EQ(r.query.extra_selections.size(), 1u);
  EXPECT_FALSE(r.query.extra_selections[0].IsTrue());
}

TEST(ParserTest, ErrorDuplicateStreamName) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S1 B WHERE A.k = B.k WINDOW 2 s");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("duplicate stream name 'S1'"), std::string::npos)
      << r.error;
}

TEST(ParserTest, ErrorDuplicateStreamAlias) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 X, S2 X WHERE X.k = X.k WINDOW 2 s");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("duplicate stream alias 'X'"), std::string::npos)
      << r.error;
}

TEST(ParserTest, ErrorAliasShadowsStreamName) {
  // An alias equal to another entry's stream name would make qualified
  // references ambiguous (IndexOf binds by FROM order); both directions
  // are rejected.
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 S2, S2 S3 WHERE S3.k = S1.k WINDOW 2 s");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("ambiguous stream reference 'S2'"),
            std::string::npos)
      << r.error;
  const ParseResult rev = ParseQuery(
      "SELECT * FROM S1 A, A B WHERE B.k = A.k WINDOW 2 s");
  EXPECT_FALSE(rev.ok);
  EXPECT_NE(rev.error.find("ambiguous stream reference 'A'"),
            std::string::npos)
      << rev.error;
}

TEST(ParserTest, ErrorFilterOnStreamOutsideFromList) {
  // A selection referencing a stream that is not in the FROM list is a
  // user error surfaced as ok=false, for binary and N-way lists alike.
  const ParseResult binary = ParseQuery(
      "SELECT * FROM S1 A, S2 B WHERE A.k = B.k AND Z.v > 1 WINDOW 2 s");
  EXPECT_FALSE(binary.ok);
  EXPECT_NE(binary.error.find("unknown alias 'Z'"), std::string::npos)
      << binary.error;
  const ParseResult three = ParseQuery(
      "SELECT * FROM S1 A, S2 B, S3 C "
      "WHERE A.k = B.k AND B.k = C.k AND Q.v > 1 WINDOW 2 s");
  EXPECT_FALSE(three.ok);
  EXPECT_NE(three.error.find("unknown alias 'Q'"), std::string::npos)
      << three.error;
}

TEST(ParserTest, ErrorDisconnectedStream) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B, S3 C WHERE A.k = B.k WINDOW 2 s");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("'S3' is not connected"), std::string::npos)
      << r.error;
}

TEST(ParserTest, ErrorDoublyJoinedStream) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B, S3 C "
      "WHERE A.k = C.k AND B.k = C.k AND A.k = B.k WINDOW 2 s");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("more than one join condition"), std::string::npos)
      << r.error;
}

TEST(ParserTest, ErrorCountWindowBeyondTwoStreams) {
  const ParseResult r = ParseQuery(
      "SELECT * FROM S1 A, S2 B, S3 C "
      "WHERE A.k = B.k AND B.k = C.k WINDOW 10 rows");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("binary-only"), std::string::npos) << r.error;
}

TEST(ParserTest, ErrorTooManyStreams) {
  std::string text = "SELECT * FROM S0 S0";
  for (int s = 1; s <= kMaxStreams; ++s) {
    text += ", S" + std::to_string(s) + " S" + std::to_string(s);
  }
  text += " WHERE S0.k = S1.k WINDOW 2 s";
  const ParseResult r = ParseQuery(text);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("stream limit"), std::string::npos) << r.error;
}

TEST(ParserTest, MultiwayToCqlRoundTrip) {
  const char* texts[] = {
      "SELECT * FROM R R, T T, U U WHERE R.k = T.k AND T.k = U.k "
      "AND U.Value > 0.5 WINDOW 10 s",
      "SELECT * FROM A A, B B, C C, D D WHERE A.k = B.k AND B.k = C.k "
      "AND D.k = B.k AND A.Value < 0.25 WINDOW 1500 ms",
  };
  for (const char* text : texts) {
    const ParseResult first = ParseQuery(text);
    ASSERT_TRUE(first.ok) << text << ": " << first.error;
    const std::optional<std::string> cql = first.query.ToCql();
    ASSERT_TRUE(cql.has_value()) << text;
    const ParseResult second = ParseQuery(*cql);
    ASSERT_TRUE(second.ok) << *cql << ": " << second.error;
    EXPECT_EQ(second.query.window, first.query.window) << *cql;
    EXPECT_EQ(second.query.stream_names, first.query.stream_names) << *cql;
    EXPECT_EQ(second.query.join_anchors, first.query.join_anchors) << *cql;
    ASSERT_EQ(second.query.num_streams(), first.query.num_streams());
    for (int s = 0; s < first.query.num_streams(); ++s) {
      EXPECT_EQ(second.query.selection(s).description(),
                first.query.selection(s).description())
          << *cql << " stream " << s;
    }
  }
}

TEST(ParserTest, ParsedMultiwayQueryRunsEndToEnd) {
  // Full integration: parse a 3-way query, build its tree, run a 3-stream
  // workload, verify against the brute-force oracle.
  ParseResult r = ParseQuery(
      "SELECT * FROM A A, B B, C C WHERE A.loc = B.loc AND B.loc = C.loc "
      "AND C.Value > 0.3 WINDOW 3 s");
  ASSERT_TRUE(r.ok) << r.error;
  std::vector<ContinuousQuery> queries = {r.query};
  queries[0].id = 0;
  queries[0].name = "Q1";

  WorkloadSpec spec;
  spec.duration_s = 10;
  const MultiWorkload workload = GenerateMultiWorkload(spec, 3);
  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptTree(queries), options);
  testing::RunPlan(&built, workload);
  EXPECT_EQ(built.collectors[0]->ResultMultiset(),
            testing::MultiwayOracle(
                {&workload.streams[0], &workload.streams[1],
                 &workload.streams[2]},
                workload.condition, queries[0]));
}

TEST(ParserTest, ParsedQueryRunsEndToEnd) {
  // Full integration: parse two queries, share them with a state-slice
  // chain, run a workload, verify against the oracle.
  ParseResult r1 = ParseQuery(
      "SELECT * FROM T A, H B WHERE A.loc = B.loc WINDOW 2 s");
  ParseResult r2 = ParseQuery(
      "SELECT * FROM T A, H B WHERE A.loc = B.loc AND A.Value > 0.5 "
      "WINDOW 6 s");
  ASSERT_TRUE(r1.ok && r2.ok);
  std::vector<ContinuousQuery> queries = {r1.query, r2.query};
  queries[0].id = 0;
  queries[0].name = "Q1";
  queries[1].id = 1;
  queries[1].name = "Q2";

  WorkloadSpec spec;
  spec.duration_s = 8;
  const Workload workload = GenerateWorkload(spec);
  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  testing::RunPlan(&built, workload);
  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(built.collectors[q.id]->ResultMultiset(),
              testing::OracleJoin(workload.stream_a, workload.stream_b,
                                  workload.condition, q));
  }
}

}  // namespace
}  // namespace stateslice
