/// Unit tests for the alert::analysis_tools analyzer library: lexer token
/// classification, waiver parsing and stale-waiver reporting, rule
/// behaviour on synthetic sources, and output-format well-formedness. The
/// fixture self-test (lint.analyzer_selftest) covers end-to-end parity with
/// the retired Python linter; these tests pin the pieces in isolation.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/file_data.hpp"
#include "lint/index.hpp"
#include "lint/lexer.hpp"
#include "lint/output.hpp"
#include "lint/rules.hpp"
#include "obs/json_value.hpp"

namespace lint = alert::analysis_tools;

namespace {

std::vector<lint::Finding> run_rules(const std::string& rel_path,
                                     const std::string& source,
                                     const lint::AnalyzerConfig& config = {}) {
  const lint::FileData file = lint::build_file_data(rel_path, source);
  lint::Sink sink;
  const std::vector<lint::FileData> files{file};
  for (const auto& rule : lint::make_default_rules(config)) {
    rule->check_file(file, sink);
    rule->finish(files, sink);
  }
  return sink.take();
}

std::vector<std::string> rule_ids(const std::vector<lint::Finding>& fs) {
  std::vector<std::string> out;
  for (const lint::Finding& f : fs) out.push_back(f.rule);
  return out;
}

/// Like run_rules but for the whole-program families: builds the shared
/// ProgramIndex/CallGraph the analyzer would and runs finish_program.
std::vector<lint::Finding> run_program_rules(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const lint::AnalyzerConfig& config = {}) {
  std::vector<lint::FileData> files;
  for (const auto& [rel_path, source] : sources) {
    files.push_back(lint::build_file_data(rel_path, source));
  }
  lint::Sink sink;
  const lint::ProgramIndex index(files);
  const lint::CallGraph graph(index, &config);
  for (const auto& rule : lint::make_default_rules(config)) {
    rule->finish_program(index, graph, sink);
  }
  return sink.take();
}

// --- lexer ----------------------------------------------------------------

TEST(Lexer, ClassifiesTokenKinds) {
  const lint::TokenStream ts = lint::lex(
      "int x = 42; // trailing\n/* block */ \"str\" 'c' ptr->field\n");
  std::map<lint::TokenKind, int> counts;
  for (const lint::Token& t : ts) ++counts[t.kind];
  EXPECT_EQ(counts[lint::TokenKind::LineComment], 1);
  EXPECT_EQ(counts[lint::TokenKind::BlockComment], 1);
  EXPECT_EQ(counts[lint::TokenKind::String], 1);
  EXPECT_EQ(counts[lint::TokenKind::CharLiteral], 1);
  EXPECT_EQ(counts[lint::TokenKind::Number], 1);
  // "->" must lex as one punct token, not two.
  bool arrow = false;
  for (const lint::Token& t : ts) arrow |= t.text == "->";
  EXPECT_TRUE(arrow);
}

TEST(Lexer, RawStringsSwallowFakeCode) {
  // rand() inside a raw string is data, not code — and the delimiter form
  // must not end at the first plain quote.
  const lint::TokenStream ts =
      lint::lex("auto s = R\"x(rand() \" still inside)x\"; int after;");
  int strings = 0;
  bool saw_rand_ident = false;
  for (const lint::Token& t : ts) {
    strings += t.kind == lint::TokenKind::String;
    saw_rand_ident |=
        t.kind == lint::TokenKind::Identifier && t.text == "rand";
  }
  EXPECT_EQ(strings, 1);
  EXPECT_FALSE(saw_rand_ident);
}

TEST(Lexer, PreprocessorFoldsContinuations) {
  const lint::TokenStream ts =
      lint::lex("#define TWO_LINES(a) \\\n  (a + 1)\nint code;\n");
  ASSERT_FALSE(ts.empty());
  EXPECT_EQ(ts[0].kind, lint::TokenKind::Preprocessor);
  EXPECT_NE(ts[0].text.find("(a + 1)"), std::string::npos);
  // '#' mid-line is not a directive.
  const lint::TokenStream ts2 = lint::lex("int a = 1 # 2;\n");
  for (const lint::Token& t : ts2) {
    EXPECT_NE(t.kind, lint::TokenKind::Preprocessor);
  }
}

TEST(Lexer, DigitSeparatorsStayOneNumber) {
  const lint::TokenStream ts = lint::lex("auto n = 1'000'000u;");
  for (const lint::Token& t : ts) {
    if (t.kind == lint::TokenKind::Number) {
      EXPECT_EQ(t.text, "1'000'000u");
      return;
    }
  }
  FAIL() << "no number token";
}

TEST(Lexer, LineCommentSplicesAcrossBackslashNewline) {
  // Translation phase 2: the splice keeps the next physical line inside
  // the comment, so rand() there is never code — and the line numbering
  // of real tokens afterwards must stay physical.
  const lint::TokenStream ts =
      lint::lex("// splices onward \\\nrand();\nint after = 1;\n");
  ASSERT_FALSE(ts.empty());
  EXPECT_EQ(ts[0].kind, lint::TokenKind::LineComment);
  EXPECT_NE(ts[0].text.find("rand()"), std::string::npos);
  for (const lint::Token& t : ts) {
    EXPECT_FALSE(t.kind == lint::TokenKind::Identifier && t.text == "rand");
    if (t.text == "after") {
      EXPECT_EQ(t.line, 3u);
    }
  }
  // Same splice inside a string literal: one token, correct line after.
  const lint::TokenStream ts2 =
      lint::lex("const char* s = \"a \\\nb\";\nint next = 2;\n");
  int strings = 0;
  for (const lint::Token& t : ts2) {
    strings += t.kind == lint::TokenKind::String;
    if (t.text == "next") {
      EXPECT_EQ(t.line, 3u);
    }
  }
  EXPECT_EQ(strings, 1);
}

TEST(Lexer, SkipsUtf8BomBeforeFirstToken) {
  const lint::TokenStream ts = lint::lex("\xEF\xBB\xBF#include <x>\n");
  ASSERT_FALSE(ts.empty());
  // Without the skip, the BOM bytes glue onto the '#' and the directive
  // lexes as garbage instead of a Preprocessor token.
  EXPECT_EQ(ts[0].kind, lint::TokenKind::Preprocessor);
  EXPECT_EQ(ts[0].line, 1u);
  EXPECT_EQ(ts[0].column, 1u);
  // A BOM mid-file is not a BOM; only the leading one is skipped.
  const lint::TokenStream plain = lint::lex("#include <x>\n");
  EXPECT_EQ(plain[0].kind, lint::TokenKind::Preprocessor);
}

// --- waivers --------------------------------------------------------------

TEST(FileData, ParsesWaiversIncludingIncludeLines) {
  const lint::FileData f = lint::build_file_data(
      "net/x.cpp",
      "#include \"core/y.hpp\"  // alert-lint: allow(module-layering)\n"
      "int a;  // alert-lint: allow(rule-a, rule-b)\n"
      "int b;  // unrelated comment\n");
  EXPECT_TRUE(f.waived(1, "module-layering"));
  EXPECT_TRUE(f.waived(2, "rule-a"));
  EXPECT_TRUE(f.waived(2, "rule-b"));
  EXPECT_FALSE(f.waived(2, "rule-c"));
  EXPECT_FALSE(f.waived(3, "rule-a"));
}

TEST(Sink, FlagsWaiversThatSuppressNothing) {
  const lint::FileData f = lint::build_file_data(
      "core/w.cpp",
      "int a;  // alert-lint: allow(raw-stdout)\n"
      "int b;  // alert-lint: allow(raw-stdout)\n"
      "int c;  // alert-lint: allow(no-such-rule)\n"
      "int d;  // alert-lint: allow(lock-discipline)\n");
  lint::Sink sink;
  sink.emit({"raw-stdout", "stdout write"}, f, 1, 1, "absorbed");
  // lock-discipline is switched off for this scan: its waiver is not judged.
  sink.flag_stale_waivers({f}, {"lock-discipline"});
  const std::vector<lint::Finding> fs = sink.take();
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "stale-waiver");
  EXPECT_EQ(fs[0].line, 2u);
  EXPECT_EQ(fs[1].line, 3u);
  EXPECT_NE(fs[1].message.find("no-such-rule"), std::string::npos);
  EXPECT_EQ(sink.waived_count(), 1u);
}

// --- rules on synthetic sources -------------------------------------------

TEST(Rules, UnorderedIterationOnlyInDigestSensitiveDirs) {
  const std::string src =
      "#include <unordered_map>\n"
      "int f() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  int t = 0;\n"
      "  for (const auto& [k, v] : m) t += v;\n"
      "  return t;\n"
      "}\n";
  EXPECT_EQ(rule_ids(run_rules("core/agg.cpp", src)),
            std::vector<std::string>{"unordered-iteration-ordering"});
  // Same code outside a canonical-output path is allowed.
  EXPECT_TRUE(run_rules("net/agg.cpp", src).empty());
}

TEST(Rules, PointerOrderingFlagsDefaultComparatorsOnly) {
  const std::string bad =
      "#include <set>\n"
      "struct N { int id; };\n"
      "std::set<N*> addresses_fn();\n";
  const std::vector<lint::Finding> fs = run_rules("loc/p.cpp", bad);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "pointer-ordering");
  const std::string good =
      "#include <set>\n"
      "struct N { int id; };\n"
      "struct ById { bool operator()(const N* a, const N* b) const; };\n"
      "std::set<N*, ById> addresses_fn();\n";
  EXPECT_TRUE(run_rules("loc/p.cpp", good).empty());
}

TEST(Rules, MutableGlobalContexts) {
  const std::vector<lint::Finding> fs = run_rules(
      "routing/g.cpp",
      "int g_bad = 0;\n"
      "constexpr int kOk = 1;\n"
      "int ok_fn() {\n"
      "  static int counter = 0;\n"
      "  int local = 2;\n"
      "  return ++counter + local;\n"
      "}\n");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].line, 1u);
  EXPECT_EQ(fs[1].line, 4u);
  // Allowlisted files may hold process-wide state.
  EXPECT_TRUE(run_rules("util/check.cpp", "int g_failures = 0;\n").empty());
}

TEST(Rules, ModuleLayeringBackEdgeAndUnknownModule) {
  const std::vector<lint::Finding> back = run_rules(
      "util/low.cpp", "#include \"routing/high.hpp\"\nint a_fn();\n");
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].rule, "module-layering");
  EXPECT_NE(back[0].message.find("back-edge"), std::string::npos);
  const std::vector<lint::Finding> unknown = run_rules(
      "util/low.cpp", "#include \"mystery/x.hpp\"\nint a_fn();\n");
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_NE(unknown[0].message.find("not in the layering table"),
            std::string::npos);
  // Allowed edge and intra-module edge are clean.
  EXPECT_TRUE(
      run_rules("routing/r.cpp", "#include \"net/packet.hpp\"\nint a_fn();\n")
          .empty());
  EXPECT_TRUE(run_rules("routing/r.cpp",
                        "#include \"routing/other.hpp\"\nint a_fn();\n")
                  .empty());
}

TEST(Rules, ExhaustiveEnumTagDrivesSwitchChecks) {
  const std::string src =
      "// alert-lint: exhaustive-enum\n"
      "enum class Mode { A, B };\n"
      "int f(Mode m) {\n"
      "  switch (m) {\n"
      "    case Mode::A: return 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  const std::vector<lint::Finding> fs = run_rules("sim/m.cpp", src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "exhaustive-enum");
  EXPECT_NE(fs[0].message.find("B"), std::string::npos);
  // Without the tag the same switch is fine.
  const std::string untagged =
      "enum class Mode { A, B };\n"
      "int f(Mode m) {\n"
      "  switch (m) {\n"
      "    case Mode::A: return 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  EXPECT_TRUE(run_rules("sim/m.cpp", untagged).empty());
  // Shaped like net/network.hpp: a forward declaration first, a fixed
  // underlying type, and ///< enumerator comments.
  const std::string network_like =
      "enum class DropReason : std::uint8_t;\n"
      "// alert-lint: exhaustive-enum\n"
      "enum class DropReason : std::uint8_t {\n"
      "  OutOfRange,  ///< receiver out of range\n"
      "  NodeDown,    ///< crashed radio\n"
      "};\n"
      "int g(DropReason why) {\n"
      "  switch (why) {\n"
      "    case DropReason::OutOfRange: return 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  const std::vector<lint::Finding> drop = run_rules("net/n.hpp", network_like);
  ASSERT_EQ(drop.size(), 1u);
  EXPECT_EQ(drop[0].rule, "exhaustive-enum");
  EXPECT_EQ(drop[0].line, 8u);
  EXPECT_NE(drop[0].message.find("NodeDown"), std::string::npos);
}

TEST(Rules, FindingsDedupAcrossIdenticalHitsOnOneLine) {
  // Two printf calls on one line: one finding, like the retired linter.
  const std::vector<lint::Finding> fs = run_rules(
      "core/out.cpp", "void f() { printf(\"a\"); printf(\"b\"); }\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "raw-stdout");
}

// --- symbol index and call graph ------------------------------------------

TEST(Index, CollectsFunctionsLambdasLocksAndWrites) {
  const std::string src =
      "struct Worker {\n"
      "  void run();\n"
      "};\n"
      "void Worker::run() {\n"
      "  int shared = 0;\n"
      "  std::mutex m;\n"
      "  pool.parallel_for(4, [&](int i) {\n"
      "    std::lock_guard<std::mutex> hold(m);\n"
      "    shared += i;\n"
      "  });\n"
      "  helper();\n"
      "  items_.push_back(shared);\n"
      "}\n"
      "void helper() {}\n";
  const lint::FileData f = lint::build_file_data("sim/w.cpp", src);
  const lint::FileIndex idx = lint::index_file(f);
  ASSERT_EQ(idx.functions.size(), 2u);
  const lint::FunctionInfo& run = idx.functions[0];
  EXPECT_EQ(run.qualified, "Worker::run");
  ASSERT_EQ(run.lambdas.size(), 1u);
  EXPECT_TRUE(run.lambdas[0].worker);
  EXPECT_TRUE(run.lambdas[0].has_default_ref());
  bool calls_helper = false;
  for (const lint::CallSite& c : run.calls) calls_helper |= c.callee == "helper";
  EXPECT_TRUE(calls_helper);
  // The only recorded writes: the guarded worker write and the member
  // push_back — declaration initializers (`int shared = 0`) are not writes.
  ASSERT_EQ(run.writes.size(), 2u);
  EXPECT_EQ(run.writes[0].target, "shared");
  EXPECT_TRUE(run.writes[0].in_worker);
  EXPECT_EQ(run.writes[0].held_mutexes.count("m"), 1u);
  EXPECT_EQ(run.writes[1].target, "items_");
  EXPECT_FALSE(run.writes[1].in_worker);
  EXPECT_TRUE(run.writes[1].held_mutexes.empty());
}

TEST(Index, RecordsClockUsesAndRngVars) {
  const std::string src =
      "long stamp() { return std::chrono::steady_clock::now().count(); }\n"
      "void draw() { Rng task_rng(7); task_rng.next(); }\n";
  const lint::FileData f = lint::build_file_data("util/t.cpp", src);
  const lint::FileIndex idx = lint::index_file(f);
  ASSERT_EQ(idx.functions.size(), 2u);
  ASSERT_EQ(idx.functions[0].clock_uses.size(), 1u);
  EXPECT_EQ(idx.functions[0].clock_uses[0].line, 1u);
  EXPECT_TRUE(idx.functions[1].clock_uses.empty());
  EXPECT_EQ(idx.rng_vars.count("task_rng"), 1u);
}

TEST(CallGraph, ReachabilityAndChains) {
  const std::string src =
      "void leaf() {}\n"
      "void mid() { leaf(); }\n"
      "void root() { mid(); }\n"
      "void island() {}\n";
  std::vector<lint::FileData> files;
  files.push_back(lint::build_file_data("sim/c.cpp", src));
  const lint::ProgramIndex index(files);
  const lint::CallGraph graph(index);
  const std::size_t root = index.by_name("root").front();
  const std::size_t leaf = index.by_name("leaf").front();
  const std::size_t island = index.by_name("island").front();
  const lint::CallGraph::ReverseReach rev = graph.reach_reverse({leaf});
  EXPECT_TRUE(rev.reached[root]);
  EXPECT_FALSE(rev.reached[island]);
  EXPECT_EQ(graph.chain(rev, root), "root -> mid -> leaf");
}

TEST(CallGraph, BareCallResolutionFollowsUnqualifiedLookup) {
  // A bare call cannot land on another class's member; a member of the
  // enclosing class hides free functions of the same name.
  const std::string a =
      "struct JsonWriter {\n"
      "  void field();\n"
      "  void value();\n"
      "};\n"
      "void JsonWriter::field() { value(); }\n"
      "void JsonWriter::value() {}\n"
      "void emit_all() { value(); }\n";
  const std::string b =
      "struct Parser {\n"
      "  void value();\n"
      "};\n"
      "void Parser::value() {}\n";
  std::vector<lint::FileData> files;
  files.push_back(lint::build_file_data("obs/a.cpp", a));
  files.push_back(lint::build_file_data("obs/b.cpp", b));
  const lint::ProgramIndex index(files);
  const lint::CallGraph graph(index);
  const auto has_edge = [&](const std::string& from, const std::string& to) {
    const std::size_t fi = index.by_qualified(from).front();
    for (const lint::CallGraph::Edge& e : graph.edges()[fi]) {
      if (index.functions()[e.target].qualified == to) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_edge("JsonWriter::field", "JsonWriter::value"));
  EXPECT_FALSE(has_edge("JsonWriter::field", "Parser::value"));
  // From a free function, a bare name resolves to free functions only —
  // neither class's member is callable without an object.
  const std::size_t emit = index.by_name("emit_all").front();
  EXPECT_TRUE(graph.edges()[emit].empty());
}

TEST(CallGraph, ModuleDagPrunesImpossibleEdges) {
  // obs never includes campaign, so a bare-name hit there is a collision;
  // a method-style call may still cross backwards (callback interfaces).
  const std::string obs_src =
      "void trace_flush() { load_entry(); }\n"
      "struct Tracer {\n"
      "  void emit();\n"
      "};\n"
      "void Tracer::emit() { sink.store(1); }\n";
  const std::string campaign_src =
      "void load_entry() {}\n"
      "struct Cache {\n"
      "  void store(int v);\n"
      "};\n"
      "void Cache::store(int v) { (void)v; }\n";
  std::vector<lint::FileData> files;
  files.push_back(lint::build_file_data("obs/t.cpp", obs_src));
  files.push_back(lint::build_file_data("campaign/c.cpp", campaign_src));
  const lint::ProgramIndex index(files);
  const lint::AnalyzerConfig config;
  const lint::CallGraph pruned(index, &config);
  const lint::CallGraph open(index, nullptr);
  const std::size_t flush = index.by_name("trace_flush").front();
  const std::size_t emit = index.by_qualified("Tracer::emit").front();
  EXPECT_FALSE(open.edges()[flush].empty());    // name collision kept
  EXPECT_TRUE(pruned.edges()[flush].empty());   // DAG kills the bare edge
  EXPECT_FALSE(pruned.edges()[emit].empty());   // method edge survives
}

// --- whole-program rule families ------------------------------------------

TEST(ProgramRules, RngDisciplineFlagsSeedingAndWorkerSharing) {
  const std::string src =
      "void a() { Rng rng(time(nullptr)); }\n"
      "void b(Rng& rng) { pool.submit([&rng] { rng.next(); }); }\n"
      "void c(unsigned seed) { Rng rng(seed); }\n";
  const std::vector<lint::Finding> fs =
      run_program_rules({{"util/r.cpp", src}});
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "rng-discipline");
  EXPECT_EQ(fs[0].line, 1u);
  EXPECT_EQ(fs[1].line, 2u);
  // The RNG implementation itself is exempt.
  EXPECT_TRUE(run_program_rules({{"util/rng.cpp", src}}).empty());
}

TEST(ProgramRules, WallclockInSimDirectAndTransitive) {
  const std::string util_src =
      "long sample() { return clock(); }\n";
  const std::string sim_src =
      "long measure() { return sample(); }\n";
  const std::vector<lint::Finding> fs = run_program_rules(
      {{"sim/m.cpp", sim_src}, {"util/h.cpp", util_src}});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "wallclock-in-sim");
  EXPECT_EQ(fs[0].path, "sim/m.cpp");
  EXPECT_NE(fs[0].message.find("measure -> sample"), std::string::npos);
  // The same clock read behind the obs profiling allowlist is sanctioned.
  EXPECT_TRUE(run_program_rules(
                  {{"sim/m.cpp", sim_src}, {"obs/h.cpp", util_src}})
                  .empty());
  // A direct read is reported in every simulated-time directory.
  EXPECT_EQ(rule_ids(run_rules("net/h.cpp", util_src)),
            std::vector<std::string>{"wallclock-in-sim"});
  EXPECT_TRUE(run_rules("util/h.cpp", util_src).empty());
}

TEST(ProgramRules, LockDisciplineNeedsACommonMutex) {
  const std::string bad =
      "void tally(ThreadPool& pool) {\n"
      "  int total = 0;\n"
      "  pool.parallel_for(4, [&](int i) { total += i; });\n"
      "  total += 1;\n"
      "}\n";
  const std::vector<lint::Finding> fs =
      run_program_rules({{"core/t.cpp", bad}});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "lock-discipline");
  EXPECT_EQ(fs[0].line, 3u);
  const std::string good =
      "void tally(ThreadPool& pool) {\n"
      "  std::mutex m;\n"
      "  int total = 0;\n"
      "  pool.parallel_for(4, [&](int i) {\n"
      "    std::scoped_lock hold(m);\n"
      "    total += i;\n"
      "  });\n"
      "  std::scoped_lock hold(m);\n"
      "  total += 1;\n"
      "}\n";
  EXPECT_TRUE(run_program_rules({{"core/t.cpp", good}}).empty());
}

// --- output formats -------------------------------------------------------

lint::ScanReport sample_report() {
  lint::ScanReport r;
  lint::Finding f;
  f.rule = "wallclock-in-sim";
  f.path = "sim/a.cpp";
  f.line = 7;
  f.column = 3;
  f.message = "host clock with \"quotes\" and\nnewline";
  r.findings.push_back(f);
  r.files_scanned = 2;
  r.waived = 1;
  return r;
}

TEST(Output, JsonIsWellFormedAndEscaped) {
  std::ostringstream out;
  lint::write_json(out, sample_report());
  const auto doc = alert::obs::parse_json(out.str());
  ASSERT_TRUE(doc.has_value());
  const auto* findings = doc->find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->size(), 1u);
  EXPECT_EQ(findings->at(0).find("rule")->as_string(), "wallclock-in-sim");
  EXPECT_EQ(findings->at(0).find("line")->as_u64(), 7u);
}

TEST(Output, SarifHasRequiredShape) {
  std::ostringstream out;
  const std::vector<lint::RuleInfo> rules{
      {"wallclock-in-sim", "host clock read"}};
  lint::write_sarif(out, sample_report(), rules);
  const auto doc = alert::obs::parse_json(out.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("version")->as_string(), "2.1.0");
  const auto& run = doc->find("runs")->at(0);
  EXPECT_EQ(run.find("tool")->find("driver")->find("name")->as_string(),
            "alertsim-analyzer");
  const auto& result = run.find("results")->at(0);
  EXPECT_EQ(result.find("ruleId")->as_string(), "wallclock-in-sim");
  EXPECT_EQ(result.find("level")->as_string(), "error");
  const auto& region = result.find("locations")
                           ->at(0)
                           .find("physicalLocation")
                           ->find("region");
  EXPECT_EQ(region->find("startLine")->as_u64(), 7u);
}

}  // namespace
