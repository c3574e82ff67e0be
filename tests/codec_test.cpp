// Tests for the NDJSON request/response codec of the admission service.

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/registry.hpp"
#include "svc/batch.hpp"
#include "svc/codec.hpp"
#include "svc/json.hpp"
#include "task/io.hpp"
#include "task/task.hpp"

namespace reconf {
namespace {

// ------------------------------------------------------------ parsing ----

TEST(CodecParse, InlineTasksForm) {
  const auto req = svc::parse_request_line(
      R"({"id":"r1","device":100,"tasks":[)"
      R"({"c":126,"d":700,"t":700,"a":9,"name":"fir"},)"
      R"({"c":200,"d":500,"t":500,"a":7}]})");
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.device.width, 100);
  ASSERT_EQ(req.taskset.size(), 2u);
  EXPECT_EQ(req.taskset[0].wcet, 126);
  EXPECT_EQ(req.taskset[0].deadline, 700);
  EXPECT_EQ(req.taskset[0].period, 700);
  EXPECT_EQ(req.taskset[0].area, 9);
  EXPECT_EQ(req.taskset[0].name, "fir");
  EXPECT_EQ(req.taskset[1].name, "");
}

TEST(CodecParse, EmbeddedTasksetForm) {
  const auto req = svc::parse_request_line(
      R"({"id":7,"taskset":"taskset v1\ndevice 10\ntask t1 210 500 500 7\n"})");
  EXPECT_EQ(req.id, "7");  // integer ids are stringified
  EXPECT_EQ(req.device.width, 10);
  ASSERT_EQ(req.taskset.size(), 1u);
  EXPECT_EQ(req.taskset[0].name, "t1");
  EXPECT_EQ(req.taskset[0].wcet, 210);
}

TEST(CodecParse, RoundTripsThroughIoWriter) {
  // Any taskset the v1 writer emits must be acceptable as an embedded
  // "taskset" payload — the codec is layered on task/io.hpp.
  const TaskSet ts({make_task(2.10, 5, 5, 7, "a"), make_task(3.00, 10, 10, 6)});
  const Device dev{10};
  const std::string text = io::to_string(ts, dev);
  const std::string line =
      "{\"id\":\"rt\",\"taskset\":\"" + svc::json_escape(text) + "\"}";
  const auto req = svc::parse_request_line(line);
  EXPECT_EQ(req.device.width, dev.width);
  ASSERT_EQ(req.taskset.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(req.taskset[i].wcet, ts[i].wcet);
    EXPECT_EQ(req.taskset[i].deadline, ts[i].deadline);
    EXPECT_EQ(req.taskset[i].period, ts[i].period);
    EXPECT_EQ(req.taskset[i].area, ts[i].area);
    EXPECT_EQ(req.taskset[i].name, ts[i].name);
  }
}

TEST(CodecParse, TestsArraySelectsAnalyzers) {
  const auto req = svc::parse_request_line(
      R"({"id":"r9","device":100,"tasks":[{"c":1,"d":2,"t":2,"a":1}],)"
      R"("tests":["gn2","dp"]})");
  EXPECT_EQ(req.tests, (std::vector<std::string>{"gn2", "dp"}));
  // Absent => empty => the serving default lineup.
  const auto plain = svc::parse_request_line(
      R"({"device":100,"tasks":[{"c":1,"d":2,"t":2,"a":1}]})");
  EXPECT_TRUE(plain.tests.empty());
}

TEST(CodecParse, MissingIdDefaultsToEmpty) {
  const auto req = svc::parse_request_line(
      R"({"device":10,"tasks":[{"c":1,"d":2,"t":2,"a":1}]})");
  EXPECT_EQ(req.id, "");
  EXPECT_EQ(req.taskset.size(), 1u);
}

TEST(CodecParse, StringEscapes) {
  const auto req = svc::parse_request_line(
      R"({"id":"a\"b\\cA","device":10,"tasks":[]})");
  EXPECT_EQ(req.id, "a\"b\\cA");
  EXPECT_TRUE(req.taskset.empty());
}

void expect_rejected(const std::string& line, const std::string& fragment) {
  try {
    (void)svc::parse_request_line(line);
    FAIL() << "expected CodecError for: " << line;
  } catch (const svc::CodecError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(CodecParse, RejectsMalformedInput) {
  expect_rejected("", "unexpected end");
  expect_rejected("not json", "invalid literal");
  expect_rejected("[1,2,3]", "must be a JSON object");
  expect_rejected(R"({"id":"x"})", "requires either");
  expect_rejected(R"({"device":10})", "requires either");
  expect_rejected(R"({"device":10,"tasks":[]} trailing)", "trailing");
  expect_rejected(R"({"device":0,"tasks":[]})", "device must be positive");
  expect_rejected(R"({"device":-4,"tasks":[]})", "device must be positive");
  expect_rejected(R"({"device":10.5,"tasks":[]})", "must be an integer");
  expect_rejected(R"({"device":9999999999,"tasks":[]})", "out of range");
  expect_rejected(R"({"device":10,"tasks":{}})", "tasks must be an array");
  expect_rejected(R"({"device":10,"tasks":[[1,2,3,4]]})", "must be an object");
  expect_rejected(R"({"device":10,"tasks":[{"c":1,"d":2,"t":2}]})",
                  "requires keys");
  expect_rejected(R"({"device":10,"tasks":[{"c":-1,"d":2,"t":2,"a":1}]})",
                  "must be positive");
  expect_rejected(R"({"device":10,"tasks":[{"c":1.5,"d":2,"t":2,"a":1}]})",
                  "must be an integer");
  expect_rejected(
      R"({"device":10,"tasks":[{"c":1,"d":2,"perid":2,"a":1}]})",
      "unknown key");
  expect_rejected(R"({"device":10,"tasks":[],"taskset":"x"})", "excludes");
  expect_rejected(R"({"taskset":"garbage"})", "parse error");
  expect_rejected(R"({"taskset":42})", "must be a string");
  expect_rejected(R"({"frobnicate":1,"device":10,"tasks":[]})", "unknown key");
  expect_rejected(R"({"id":"x","device":10,"tasks":[)", "unexpected end");
  expect_rejected("{\"id\":\"\x01\",\"device\":10,\"tasks\":[]}",
                  "control character");
}

TEST(CodecParse, StatsRequestForm) {
  const svc::BatchRequest r =
      svc::parse_request_line(R"({"id":"s1","stats":true})");
  EXPECT_EQ(r.id, "s1");
  EXPECT_TRUE(r.stats);
  EXPECT_TRUE(r.tests.empty());
  // Analysis requests are not stats requests.
  EXPECT_FALSE(svc::parse_request_line(
                   R"({"device":10,"tasks":[{"c":1,"d":2,"t":2,"a":1}]})")
                   .stats);
}

TEST(CodecParse, StatsRequestRejectsFalseAndMixing) {
  expect_rejected(R"({"id":"s","stats":false})", "literal true");
  expect_rejected(R"({"id":"s","stats":1})", "literal true");
  expect_rejected(R"({"id":"s","stats":"yes"})", "literal true");
  expect_rejected(R"({"stats":true,"device":10,"tasks":[]})", "excludes");
  expect_rejected(R"({"stats":true,"taskset":"x"})", "excludes");
  expect_rejected(R"({"stats":true,"tests":["dp"]})", "excludes");
}

TEST(CodecParse, TestsArrayRejectsUnknownAndMalformed) {
  expect_rejected(
      R"({"device":10,"tasks":[],"tests":["gnX"]})", "unknown analyzer 'gnX'");
  // The error is actionable: it lists what IS registered.
  expect_rejected(
      R"({"device":10,"tasks":[],"tests":["gnX"]})", "registered analyzers:");
  expect_rejected(R"({"device":10,"tasks":[],"tests":[]})", "non-empty");
  expect_rejected(R"({"device":10,"tasks":[],"tests":"dp"})", "non-empty");
  expect_rejected(R"({"device":10,"tasks":[],"tests":[42]})",
                  "tests[0] must be a string");
}

TEST(CodecParse, ErrorsCarryRequestIdWhenRecoverable) {
  try {
    (void)svc::parse_request_line(
        R"({"id":"r7","device":100,"tasks":[{"c":0,"d":2,"t":2,"a":1}]})");
    FAIL() << "expected CodecError";
  } catch (const svc::CodecError& e) {
    EXPECT_EQ(e.id(), "r7");
  }
  // id declared after the failing field must still be recovered.
  try {
    (void)svc::parse_request_line(R"({"device":-1,"tasks":[],"id":"late"})");
    FAIL() << "expected CodecError";
  } catch (const svc::CodecError& e) {
    EXPECT_EQ(e.id(), "late");
  }
  // Invalid JSON: no id is recoverable.
  try {
    (void)svc::parse_request_line("{broken");
    FAIL() << "expected CodecError";
  } catch (const svc::CodecError& e) {
    EXPECT_EQ(e.id(), "");
  }
}

// The number and duplicate-key rules below are a contract of the wire
// protocol (README, "The NDJSON wire protocol"), not accidents of a parser.

TEST(CodecParse, LenientNumbersReadAsIntegers) {
  // Leading zeros and a leading '+' still make an integer.
  const auto req = svc::parse_request_line(
      R"({"id":"n","device":10,"tasks":[{"c":01,"d":+2,"t":3,"a":1}]})");
  ASSERT_EQ(req.taskset.size(), 1u);
  EXPECT_EQ(req.taskset[0].wcet, 1);
  EXPECT_EQ(req.taskset[0].deadline, 2);
  EXPECT_EQ(svc::parse_request_line(
                R"({"id":+7,"device":10,"tasks":[]})").id, "7");
  // A '.' or an exponent makes a real, even when it is whole.
  expect_rejected(R"({"device":1e2,"tasks":[]})", "device must be an integer");
  expect_rejected(R"({"device":1.0,"tasks":[]})", "device must be an integer");
  // Past i64 is not an integer; past double is not a number at all.
  expect_rejected(R"({"device":9223372036854775808,"tasks":[]})",
                  "device must be an integer");
  expect_rejected(R"({"device":1e999,"tasks":[]})", "unparsable number");
  expect_rejected(R"({"device":-0,"tasks":[]})", "device must be positive");
}

TEST(CodecParse, FirstIdWins) {
  EXPECT_EQ(svc::parse_request_line(
                R"({"id":"a","id":"b","device":10,"tasks":[]})").id, "a");
  // A later id is not even type-checked.
  EXPECT_EQ(svc::parse_request_line(
                R"({"id":"a","id":true,"device":10,"tasks":[]})").id, "a");
}

TEST(CodecParse, LastDeviceAndLastTasksWin) {
  const auto req = svc::parse_request_line(
      R"({"device":-1,"tasks":{},"device":12,)"
      R"("tasks":[{"c":1,"d":2,"t":2,"a":1},{"c":3,"d":4,"t":4,"a":2}]})");
  EXPECT_EQ(req.device.width, 12);
  ASSERT_EQ(req.taskset.size(), 2u);
  EXPECT_EQ(req.taskset[1].wcet, 3);
  // The earlier values were never checked; the last ones are.
  expect_rejected(R"({"device":12,"tasks":[],"device":0})",
                  "device must be positive");
}

TEST(CodecParse, DuplicateTaskKeyKeepsLastValue) {
  const auto req = svc::parse_request_line(
      R"({"device":10,"tasks":[{"c":1,"d":5,"t":5,"a":1,"c":4,)"
      R"("name":"x","name":"y"}]})");
  ASSERT_EQ(req.taskset.size(), 1u);
  EXPECT_EQ(req.taskset[0].wcet, 4);
  EXPECT_EQ(req.taskset[0].name, "y");
  // Every occurrence is still checked, in order.
  expect_rejected(R"({"device":10,"tasks":[{"c":0,"c":1,"d":5,"t":5,"a":1}]})",
                  "tasks[0].c must be positive");
}

TEST(CodecParse, UnknownKeyOutranksEarlierDeviceErrorAndKeepsLateId) {
  try {
    (void)svc::parse_request_line(R"({"device":-1,"x":1,"id":"late"})");
    FAIL() << "expected CodecError";
  } catch (const svc::CodecError& e) {
    EXPECT_STREQ(e.what(), "bad request: unknown key 'x'");
    EXPECT_EQ(e.id(), "late");
  }
}

// ------------------------------------------------- parity with the DOM ----
//
// The request codec reads a line in one pass. Its reference is the DOM walk
// it replaced: json::parse the whole line, then walk the tree. Both must
// give every line the same BatchRequest, or the same error text and id.

namespace dom {

using svc::CodecError;
using svc::json::Value;

[[noreturn]] void bad_request(const std::string& what) {
  throw CodecError("bad request: " + what);
}

long long require_positive_int(const Value& v, const std::string& what) {
  if (v.kind != Value::Kind::kNumber || !v.integral) {
    bad_request(what + " must be an integer");
  }
  if (v.integer <= 0) bad_request(what + " must be positive");
  return v.integer;
}

Task parse_task_object(const Value& v, std::size_t index) {
  const std::string where = "tasks[" + std::to_string(index) + "]";
  if (v.kind != Value::Kind::kObject) bad_request(where + " must be an object");
  long long c = 0, d = 0, t = 0, a = 0;
  bool has_c = false, has_d = false, has_t = false, has_a = false;
  std::string name;
  for (const auto& [key, val] : v.members) {
    if (key == "c") {
      c = require_positive_int(val, where + ".c");
      has_c = true;
    } else if (key == "d") {
      d = require_positive_int(val, where + ".d");
      has_d = true;
    } else if (key == "t") {
      t = require_positive_int(val, where + ".t");
      has_t = true;
    } else if (key == "a") {
      a = require_positive_int(val, where + ".a");
      has_a = true;
    } else if (key == "name") {
      if (val.kind != Value::Kind::kString) {
        bad_request(where + ".name must be a string");
      }
      name = val.text;
    } else {
      bad_request(where + " has unknown key '" + key + "'");
    }
  }
  if (!has_c || !has_d || !has_t || !has_a) {
    bad_request(where + " requires keys c, d, t, a");
  }
  try {
    return io::make_task_checked(name.empty() ? "-" : name, c, d, t, a, where);
  } catch (const std::exception& e) {
    bad_request(e.what());
  }
}

std::vector<std::string> parse_tests_array(const Value& v) {
  if (v.kind != Value::Kind::kArray || v.items.empty()) {
    bad_request("tests must be a non-empty array of analyzer ids");
  }
  const auto& registry = analysis::AnalyzerRegistry::instance();
  std::vector<std::string> out;
  for (std::size_t i = 0; i < v.items.size(); ++i) {
    const Value& item = v.items[i];
    if (item.kind != Value::Kind::kString) {
      bad_request("tests[" + std::to_string(i) + "] must be a string");
    }
    if (registry.find(item.text) == nullptr) {
      bad_request("unknown analyzer '" + item.text +
                  "'; registered analyzers: " + registry.id_list());
    }
    out.push_back(item.text);
  }
  return out;
}

svc::BatchRequest parse_request_members(const Value& doc, std::string id) {
  svc::BatchRequest out;
  out.id = std::move(id);
  const Value* device = nullptr;
  const Value* tasks = nullptr;
  const Value* taskset_text = nullptr;
  for (const auto& [key, val] : doc.members) {
    if (key == "id") {
      // already extracted
    } else if (key == "device") {
      device = &val;
    } else if (key == "tasks") {
      tasks = &val;
    } else if (key == "taskset") {
      taskset_text = &val;
    } else if (key == "tests") {
      out.tests = parse_tests_array(val);
    } else if (key == "stats") {
      if (val.kind != Value::Kind::kBool || !val.boolean) {
        bad_request("stats must be the literal true");
      }
      out.stats = true;
    } else {
      bad_request("unknown key '" + key + "'");
    }
  }
  if (out.stats) {
    if (device != nullptr || tasks != nullptr || taskset_text != nullptr ||
        !out.tests.empty()) {
      bad_request("'stats' excludes 'tasks'/'device'/'taskset'/'tests'");
    }
    return out;
  }
  if (taskset_text != nullptr) {
    if (tasks != nullptr || device != nullptr) {
      bad_request("'taskset' excludes 'tasks'/'device'");
    }
    if (taskset_text->kind != Value::Kind::kString) {
      bad_request("taskset must be a string in the task/io.hpp v1 format");
    }
    try {
      io::ParsedTaskSet parsed = io::from_string(taskset_text->text);
      out.taskset = std::move(parsed.taskset);
      out.device = parsed.device;
    } catch (const std::exception& e) {
      bad_request(e.what());
    }
    return out;
  }
  if (device == nullptr || tasks == nullptr) {
    bad_request("requires either 'taskset' or both 'device' and 'tasks'");
  }
  const long long width = require_positive_int(*device, "device");
  if (width > std::numeric_limits<Area>::max()) {
    bad_request("device width out of range");
  }
  out.device = Device{static_cast<Area>(width)};
  if (tasks->kind != Value::Kind::kArray) bad_request("tasks must be an array");
  std::vector<Task> parsed;
  for (std::size_t i = 0; i < tasks->items.size(); ++i) {
    parsed.push_back(parse_task_object(tasks->items[i], i));
  }
  out.taskset = TaskSet(std::move(parsed));
  return out;
}

svc::BatchRequest parse_request_line(const std::string& line) {
  if (line.size() > svc::kMaxRequestLine) {
    throw CodecError("bad request: line exceeds " +
                     std::to_string(svc::kMaxRequestLine) + " bytes");
  }
  Value doc;
  try {
    doc = svc::json::parse(line);
  } catch (const svc::json::JsonError& e) {
    throw CodecError(e.what());
  }
  if (doc.kind != Value::Kind::kObject) {
    bad_request("request line must be a JSON object");
  }
  std::string id;
  for (const auto& [key, val] : doc.members) {
    if (key != "id") continue;
    if (val.kind == Value::Kind::kString) {
      id = val.text;
    } else if (val.kind == Value::Kind::kNumber && val.integral) {
      id = std::to_string(val.integer);
    } else {
      bad_request("id must be a string or integer");
    }
    break;
  }
  try {
    return parse_request_members(doc, id);
  } catch (const CodecError& e) {
    throw CodecError(e.what(), id);
  }
}

}  // namespace dom

/// Everything a parse result carries, as one comparable string.
template <typename Parse>
std::string outcome(Parse parse, const std::string& line) {
  std::string out;
  try {
    const svc::BatchRequest r = parse(line);
    out = "ok id=" + r.id + " device=" + std::to_string(r.device.width) +
          " stats=" + (r.stats ? "1" : "0") + " tests=";
    for (const std::string& t : r.tests) out += t + ",";
    out += " tasks=";
    for (const Task& t : r.taskset) {
      out += std::to_string(t.wcet) + "/" + std::to_string(t.deadline) + "/" +
             std::to_string(t.period) + "/" + std::to_string(t.area) + "/" +
             t.name + ";";
    }
  } catch (const svc::CodecError& e) {
    out = std::string("error id=") + e.id() + " what=" + e.what();
  }
  return out;
}

/// Runs lines through both parsers; reports the first few disagreements.
class ParityCheck {
 public:
  void check(const std::string& line) {
    const std::string want = outcome(dom::parse_request_line, line);
    const std::string got = outcome(svc::parse_request_line, line);
    ++lines_;
    if (want.compare(0, 3, "ok ") == 0) ++accepted_;
    if (got == want) return;
    if (++mismatches_ <= 5) {
      ADD_FAILURE() << "line: " << line << "\n  dom:      " << want
                    << "\n  one pass: " << got;
    }
  }
  [[nodiscard]] std::size_t lines() const { return lines_; }
  [[nodiscard]] std::size_t accepted() const { return accepted_; }
  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }

 private:
  std::size_t lines_ = 0;
  std::size_t accepted_ = 0;
  std::size_t mismatches_ = 0;
};

/// Seeded request lines in the shapes the mutations start from, every
/// token separated by random whitespace when asked.
class LineGen {
 public:
  explicit LineGen(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }
  bool one_in(std::uint64_t n) { return below(n) == 0; }

  /// A benchmark-shaped line: {"id":"N","device":W,"tasks":[...n tasks]}.
  std::string wire_line(std::size_t n) {
    std::string out = "{\"id\":\"" + std::to_string(below(100000)) +
                      "\",\"device\":" + std::to_string(50 + below(100)) +
                      ",\"tasks\":[";
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t t = 100 + below(900);
      out += j == 0 ? "{\"c\":" : ",{\"c\":";
      out += std::to_string(1 + below(t)) + ",\"d\":" + std::to_string(t) +
             ",\"t\":" + std::to_string(t) +
             ",\"a\":" + std::to_string(1 + below(20)) + "}";
    }
    return out + "]}";
  }

  /// A request built member by member from the schema, with the lenient
  /// numbers, escapes, duplicate keys and reorderings the codec must treat
  /// exactly as the DOM walk did.
  std::string schema_line() {
    spaced_ = one_in(3);
    std::vector<std::pair<std::string, std::string>> members;
    if (!one_in(5)) members.emplace_back("device", number(1, 200));
    if (!one_in(5)) members.emplace_back("tasks", tasks());
    if (one_in(10)) members.emplace_back("taskset", taskset());
    if (one_in(6)) members.emplace_back("tests", tests());
    if (one_in(12)) members.emplace_back("stats", pick({"true", "false", "1"}));
    if (one_in(15)) members.emplace_back("x", deep());
    for (std::size_t k = members.size(); k > 1; --k) {
      std::swap(members[k - 1], members[below(k)]);
    }
    if (one_in(4) && !members.empty()) {
      members.push_back(members[below(members.size())]);  // duplicate key
    }
    const std::size_t ids = one_in(6) ? 2 : one_in(8) ? 0 : 1;
    for (std::size_t k = 0; k < ids; ++k) {
      // Mostly first, sometimes last: the id must be found either way.
      const auto at = one_in(2) ? members.begin() : members.end();
      members.insert(at, {"id", id()});
    }
    return object(members);
  }

  /// Up to `edits` byte deletions, insertions or swaps.
  std::string mutate(std::string line, int edits) {
    static const std::string kBytes = "{}[]\":,\\ \t\n01-+.eE5xtfnu\x01\xc3";
    for (int k = 0; k < edits && !line.empty(); ++k) {
      const std::size_t at = below(line.size());
      switch (below(3)) {
        case 0: line.erase(at, 1); break;
        case 1: line.insert(at, 1, kBytes[below(kBytes.size())]); break;
        default: std::swap(line[at], line[below(line.size())]); break;
      }
    }
    return line;
  }

  /// [[[...1...]]] nested `depth` arrays deep.
  static std::string nested(int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') + "1" +
           std::string(static_cast<std::size_t>(depth), ']');
  }

 private:
  std::string ws() {
    if (!spaced_) return {};
    static const char* const kWs[] = {"", " ", "\t", "\r\n ", "  "};
    return kWs[below(5)];
  }

  std::string pick(std::initializer_list<const char*> options) {
    return *(options.begin() + below(options.size()));
  }

  std::string number(std::uint64_t lo, std::uint64_t hi) {
    if (one_in(8)) {
      return pick({"01", "+5", "-0", "1e2", "1.0", "9223372036854775808",
                   "1e999", "-3", "0", "2147483648", "00", "1e-400", "7."});
    }
    return std::to_string(lo + below(hi - lo + 1));
  }

  std::string quoted(const std::string& body) {
    static const char* const kEscapes[] = {"\\\"", "\\u00e9", "\xc3\xa9",
                                           "\\\\", "\\n", "\\/"};
    if (!one_in(4)) return "\"" + body + "\"";
    return "\"" + body + kEscapes[below(6)] + body + "\"";
  }

  std::string id() {
    switch (below(8)) {
      case 0: return number(1, 99);
      case 1: return pick({"true", "null", "[]", "{}", "1.5"});
      default: return quoted("r" + std::to_string(below(1000)));
    }
  }

  std::string task() {
    if (one_in(40)) return pick({"[1,2,3,4]", "7", "\"task\"", "null"});
    const std::uint64_t t = 2 + below(500);
    std::vector<std::pair<std::string, std::string>> members = {
        {"c", one_in(30) ? number(0, 3) : std::to_string(1 + below(t))},
        {"d", std::to_string(t)},
        {"t", one_in(30) ? number(0, 3) : std::to_string(t)},
        {"a", one_in(40) ? "2147483648" : std::to_string(1 + below(20))}};
    if (one_in(4)) members.emplace_back("name", quoted("fir"));
    if (one_in(20)) members.emplace_back("name", pick({"\"-\"", "\"\"", "3"}));
    if (one_in(30)) members.emplace_back("perid", "5");
    if (one_in(25)) members.erase(members.begin() + below(4));
    if (one_in(5)) members.push_back(members[below(members.size())]);
    for (std::size_t k = members.size(); k > 1; --k) {
      std::swap(members[k - 1], members[below(k)]);
    }
    return object(members);
  }

  std::string tasks() {
    if (one_in(30)) return pick({"{}", "3", "\"x\""});
    const std::size_t n = one_in(4) ? 32 : below(5);
    std::string out = "[" + ws();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != 0) out += ws() + "," + ws();
      out += task();
    }
    return out + ws() + "]";
  }

  std::string tests() {
    if (one_in(8)) return pick({"[]", "\"dp\"", "[42]", "[\"gnX\"]"});
    std::string out = "[";
    const std::size_t n = 1 + below(3);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != 0) out += ",";
      out += pick({"\"dp\"", "\"gn1\"", "\"gn2\"", "\"dp\"", "\"gnX\"", "0"});
    }
    return out + "]";
  }

  std::string taskset() {
    return pick({"\"taskset v1\\ndevice 10\\ntask t1 210 500 500 7\\n\"",
                 "\"garbage\"", "42", "\"taskset v1\\ndevice 10\\n\""});
  }

  std::string deep() { return nested(60 + static_cast<int>(below(8))); }

  std::string object(
      const std::vector<std::pair<std::string, std::string>>& members) {
    std::string out = ws() + "{";
    for (std::size_t k = 0; k < members.size(); ++k) {
      if (k != 0) out += ",";
      out += ws() + "\"" + members[k].first + "\"" + ws() + ":" + ws() +
             members[k].second + ws();
    }
    return out + "}" + ws();
  }

  std::mt19937_64 rng_;
  bool spaced_ = false;
};

/// Every request literal of the CodecParse suite above.
const std::vector<std::string>& literal_lines() {
  static const std::vector<std::string> lines = {
      R"({"id":"r1","device":100,"tasks":[)"
      R"({"c":126,"d":700,"t":700,"a":9,"name":"fir"},)"
      R"({"c":200,"d":500,"t":500,"a":7}]})",
      R"({"id":7,"taskset":"taskset v1\ndevice 10\ntask t1 210 500 500 7\n"})",
      R"({"id":"rt","taskset":"taskset v1\ndevice 10\n)"
      R"(task a 210 500 500 7\ntask - 300 1000 1000 6\n"})",
      R"({"id":"r9","device":100,"tasks":[{"c":1,"d":2,"t":2,"a":1}],)"
      R"("tests":["gn2","dp"]})",
      R"({"device":100,"tasks":[{"c":1,"d":2,"t":2,"a":1}]})",
      R"({"device":10,"tasks":[{"c":1,"d":2,"t":2,"a":1}]})",
      R"({"id":"a\"b\\cA","device":10,"tasks":[]})",
      "",
      "not json",
      "[1,2,3]",
      R"({"id":"x"})",
      R"({"device":10})",
      R"({"device":10,"tasks":[]} trailing)",
      R"({"device":0,"tasks":[]})",
      R"({"device":-4,"tasks":[]})",
      R"({"device":10.5,"tasks":[]})",
      R"({"device":9999999999,"tasks":[]})",
      R"({"device":10,"tasks":{}})",
      R"({"device":10,"tasks":[[1,2,3,4]]})",
      R"({"device":10,"tasks":[{"c":1,"d":2,"t":2}]})",
      R"({"device":10,"tasks":[{"c":-1,"d":2,"t":2,"a":1}]})",
      R"({"device":10,"tasks":[{"c":1.5,"d":2,"t":2,"a":1}]})",
      R"({"device":10,"tasks":[{"c":1,"d":2,"perid":2,"a":1}]})",
      R"({"device":10,"tasks":[],"taskset":"x"})",
      R"({"taskset":"garbage"})",
      R"({"taskset":42})",
      R"({"frobnicate":1,"device":10,"tasks":[]})",
      R"({"id":"x","device":10,"tasks":[)",
      "{\"id\":\"\x01\",\"device\":10,\"tasks\":[]}",
      R"({"id":"s1","stats":true})",
      R"({"id":"s","stats":false})",
      R"({"id":"s","stats":1})",
      R"({"id":"s","stats":"yes"})",
      R"({"stats":true,"device":10,"tasks":[]})",
      R"({"stats":true,"taskset":"x"})",
      R"({"stats":true,"tests":["dp"]})",
      R"({"device":10,"tasks":[],"tests":["gnX"]})",
      R"({"device":10,"tasks":[],"tests":[]})",
      R"({"device":10,"tasks":[],"tests":"dp"})",
      R"({"device":10,"tasks":[],"tests":[42]})",
      R"({"id":"r7","device":100,"tasks":[{"c":0,"d":2,"t":2,"a":1}]})",
      R"({"device":-1,"tasks":[],"id":"late"})",
      "{broken",
      R"({"id":"n","device":10,"tasks":[{"c":01,"d":+2,"t":3,"a":1}]})",
      R"({"id":+7,"device":10,"tasks":[]})",
      R"({"device":1e2,"tasks":[]})",
      R"({"device":1.0,"tasks":[]})",
      R"({"device":9223372036854775808,"tasks":[]})",
      R"({"device":1e999,"tasks":[]})",
      R"({"device":-0,"tasks":[]})",
      R"({"id":"a","id":"b","device":10,"tasks":[]})",
      R"({"id":"a","id":true,"device":10,"tasks":[]})",
      R"({"device":-1,"tasks":{},"device":12,)"
      R"("tasks":[{"c":1,"d":2,"t":2,"a":1},{"c":3,"d":4,"t":4,"a":2}]})",
      R"({"device":12,"tasks":[],"device":0})",
      R"({"device":10,"tasks":[{"c":1,"d":5,"t":5,"a":1,"c":4,)"
      R"("name":"x","name":"y"}]})",
      R"({"device":10,"tasks":[{"c":0,"c":1,"d":5,"t":5,"a":1}]})",
      R"({"device":-1,"x":1,"id":"late"})",
      R"({"id":"n","device":10,"tasks":[{"c":1e999,"d":5,"t":5,"a":1}]})",
      R"({"id":"s","taskset":"task)",
      R"({"id":"t","stats":)",
  };
  return lines;
}

TEST(CodecParity, LiteralsAndBenchmarkShapes) {
  ParityCheck parity;
  for (const std::string& line : literal_lines()) parity.check(line);
  LineGen gen(0x5eed);
  for (int k = 0; k < 200; ++k) {
    parity.check(gen.wire_line(3));
    parity.check(gen.wire_line(32));
  }
  EXPECT_EQ(parity.mismatches(), 0u) << "of " << parity.lines() << " lines";
}

TEST(CodecParity, EveryTruncationOfAGn2Line) {
  ParityCheck parity;
  LineGen gen(0x6e32);
  const std::string line = gen.wire_line(32);
  ASSERT_GT(line.size(), 900u);
  for (std::size_t cut = 0; cut <= line.size(); ++cut) {
    parity.check(line.substr(0, cut));
  }
  EXPECT_EQ(parity.accepted(), 1u);  // only the whole line
  EXPECT_EQ(parity.mismatches(), 0u) << "of " << parity.lines() << " lines";
}

TEST(CodecParity, NestingAtTheCap) {
  // 64 levels is the cap; 65 is a syntax error, wherever it sits.
  ParityCheck parity;
  for (const int depth : {62, 63, 64, 65}) {
    const std::string deep = LineGen::nested(depth);
    parity.check(deep);
    parity.check(R"({"id":"d","device":10,"tasks":[],"x":)" + deep + "}");
    parity.check(R"({"id":)" + deep + R"(,"device":10,"tasks":[]})");
    parity.check(R"({"device":10,"tasks":)" + deep + R"(,"id":"d"})");
    parity.check(R"({"device":10,"tasks":[{"c":)" + deep +
                 R"(}],"x":1,"id":"d"})");
    parity.check(R"({"tests":)" + deep + R"(,"id":"d"})");
  }
  EXPECT_EQ(parity.mismatches(), 0u) << "of " << parity.lines() << " lines";
  // Both parsers share the reader, so pin the cap itself too.
  expect_rejected(LineGen::nested(64), "must be a JSON object");
  expect_rejected(LineGen::nested(65),
                  "json error at byte 65: nesting too deep");
}

TEST(CodecParity, SeededSchemaMutations) {
  ParityCheck parity;
  LineGen gen(20261017);
  const std::vector<std::string>& literals = literal_lines();
  for (int k = 0; k < 12000; ++k) {
    std::string line;
    switch (gen.below(4)) {
      case 0: line = literals[gen.below(literals.size())]; break;
      case 1: line = gen.wire_line(gen.one_in(2) ? 3 : 32); break;
      default: line = gen.schema_line(); break;
    }
    const int edits = gen.one_in(3) ? 0 : 1 + static_cast<int>(gen.below(3));
    parity.check(gen.mutate(std::move(line), edits));
  }
  EXPECT_EQ(parity.mismatches(), 0u) << "of " << parity.lines() << " lines";
  // The corpus reaches both outcomes in bulk.
  EXPECT_GT(parity.accepted(), 1000u);
  EXPECT_GT(parity.lines() - parity.accepted(), 4000u);
}

// --------------------------------------------------------- responses ----

TEST(CodecFormat, VerdictLineContainsAllFields) {
  svc::BatchVerdict v;
  v.id = "r\"1";
  v.accepted = true;
  v.accepted_by = "GN2";
  v.hash = 0xABCDEF0123456789ull;
  v.cache_hit = true;
  const TaskSet ts({make_task(2.10, 5, 5, 7)});
  const std::string line = svc::format_verdict_line(v, &ts);

  EXPECT_NE(line.find(R"("id":"r\"1")"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("verdict":"schedulable")"), std::string::npos);
  EXPECT_NE(line.find(R"("accepted_by":"GN2")"), std::string::npos);
  EXPECT_NE(line.find(R"("cache":"hit")"), std::string::npos);
  EXPECT_NE(line.find(R"("hash":"abcdef0123456789")"), std::string::npos);
  EXPECT_NE(line.find(R"("n":1)"), std::string::npos);
}

TEST(CodecFormat, RejectionOmitsAcceptedBy) {
  svc::BatchVerdict v;
  v.id = "r2";
  const std::string line = svc::format_verdict_line(v, nullptr);
  EXPECT_NE(line.find(R"("verdict":"inconclusive")"), std::string::npos);
  EXPECT_EQ(line.find("accepted_by"), std::string::npos);
  EXPECT_NE(line.find(R"("cache":"miss")"), std::string::npos);
  EXPECT_EQ(line.find("\"n\":"), std::string::npos);
}

TEST(CodecFormat, SubReportsRenderedInExecutionOrder) {
  svc::BatchVerdict v;
  v.id = "r3";
  v.accepted = true;
  v.accepted_by = "gn2";
  v.sub = {{"dp", true, false, 1.5},
           {"gn2", true, true, 12.25},
           {"gn1", false, false, 0.0}};
  const std::string line = svc::format_verdict_line(v, nullptr);
  const auto dp = line.find(R"({"test":"dp","verdict":"inconclusive")");
  const auto gn2 = line.find(R"({"test":"gn2","verdict":"schedulable")");
  const auto gn1 = line.find(R"({"test":"gn1","skipped":true})");
  EXPECT_NE(dp, std::string::npos) << line;
  EXPECT_NE(gn2, std::string::npos) << line;
  EXPECT_NE(gn1, std::string::npos) << line;
  EXPECT_LT(dp, gn2);
  EXPECT_LT(gn2, gn1);
  EXPECT_NE(line.find(R"("micros":12.2)"), std::string::npos) << line;
}

TEST(CodecFormat, CacheHitOmitsSubReports) {
  svc::BatchVerdict v;
  v.id = "r4";
  v.cache_hit = true;
  const std::string line = svc::format_verdict_line(v, nullptr);
  EXPECT_EQ(line.find("\"sub\""), std::string::npos) << line;
}

TEST(CodecFormat, ErrorLine) {
  const std::string line = svc::format_error_line("x", "bad \"stuff\"\n");
  EXPECT_EQ(line, R"({"id":"x","error":"bad \"stuff\"\n"})");
}

TEST(CodecFormat, JsonEscapeControlCharacters) {
  EXPECT_EQ(svc::json_escape(std::string("a\x01z")), "a\\u0001z");
  EXPECT_EQ(svc::json_escape("tab\there"), "tab\\there");
}

TEST(CodecFormat, ShedLine) {
  EXPECT_EQ(svc::format_shed_line("r9", "queue"),
            R"({"id":"r9","shed":"queue"})");
  EXPECT_EQ(svc::format_shed_line("", "deadline"),
            R"({"id":"","shed":"deadline"})");
}

// ----------------------------------------------------------- hardening ----

TEST(CodecHardening, DeeplyNestedJsonIsRejectedNotStackOverflowed) {
  // 1000 nested arrays: must fail with a depth error, not crash the parser.
  std::string line = R"({"id":"d","device":10,"tasks":)";
  for (int i = 0; i < 1000; ++i) line += '[';
  for (int i = 0; i < 1000; ++i) line += ']';
  line += '}';
  try {
    (void)svc::parse_request_line(line);
    FAIL() << "deep nesting accepted";
  } catch (const svc::CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("deep"), std::string::npos)
        << e.what();
  }
}

TEST(CodecHardening, NonFiniteNumbersAreRejected) {
  // 1e999 overflows double to +inf; a non-finite value must never leak into
  // tick arithmetic.
  EXPECT_THROW(
      (void)svc::parse_request_line(
          R"({"id":"n","device":10,"tasks":[{"c":1e999,"d":5,"t":5,"a":1}]})"),
      svc::CodecError);
}

TEST(CodecHardening, OversizedRequestLineIsRejected) {
  std::string line = R"({"id":"big","device":10,"tasks":[],"pad":")";
  line.append(svc::kMaxRequestLine, 'x');
  line += "\"}";
  try {
    (void)svc::parse_request_line(line);
    FAIL() << "oversized line accepted";
  } catch (const svc::CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos);
  }
}

TEST(CodecHardening, TruncatedRequestsErrorPerKind) {
  // Truncations of each request form must throw (with the id when it was
  // recoverable), never return a half-parsed request.
  const std::string full =
      R"({"id":"r1","device":100,"tasks":[{"c":5,"d":9,"t":9,"a":1}]})";
  for (const std::size_t cut :
       {std::size_t{10}, std::size_t{25}, std::size_t{40}, full.size() - 2}) {
    EXPECT_THROW((void)svc::parse_request_line(full.substr(0, cut)),
                 svc::CodecError)
        << "cut at " << cut;
  }
  EXPECT_THROW((void)svc::parse_request_line(R"({"id":"s","taskset":"task)"),
               svc::CodecError);
  EXPECT_THROW((void)svc::parse_request_line(R"({"id":"t","stats":)"),
               svc::CodecError);
}

TEST(CodecHardening, StreamFramerSplitsAndCaps) {
  const std::string text = "short\n\nlast-no-newline";
  svc::StreamFramer framer;
  std::string line;
  svc::LineStatus status;
  framer.feed(text.data(), 3);  // tears the first line
  EXPECT_FALSE(framer.next(line, status));
  framer.feed(text.data() + 3, text.size() - 3);
  ASSERT_TRUE(framer.next(line, status));
  EXPECT_EQ(status, svc::LineStatus::kLine);
  EXPECT_EQ(line, "short");
  ASSERT_TRUE(framer.next(line, status));
  EXPECT_EQ(status, svc::LineStatus::kLine);
  EXPECT_EQ(line, "");
  EXPECT_FALSE(framer.next(line, status));
  // The final unterminated line is still a line — a stream ending without a
  // trailing newline must not lose its last request.
  ASSERT_TRUE(framer.finish(line, status));
  EXPECT_EQ(status, svc::LineStatus::kLine);
  EXPECT_EQ(line, "last-no-newline");
  EXPECT_FALSE(framer.finish(line, status));
}

TEST(CodecHardening, StreamFramerDrainsOversizedWithBoundedMemory) {
  std::string text(100, 'a');
  text += '\n';
  text += "after";
  // Cap of 10: the kept prefix is exactly the cap, the rest of the line is
  // drained unbuffered, and framing continues at the following line.
  svc::StreamFramer framer(10);
  std::vector<std::pair<std::string, svc::LineStatus>> lines;
  std::string line;
  svc::LineStatus status;
  for (std::size_t off = 0; off < text.size(); off += 7) {
    framer.feed(text.data() + off, std::min<std::size_t>(7, text.size() - off));
    while (framer.next(line, status)) lines.emplace_back(line, status);
    EXPECT_LE(framer.buffered(), 10u) << "after " << off + 7 << " bytes";
  }
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].second, svc::LineStatus::kOversized);
  EXPECT_EQ(lines[0].first, std::string(10, 'a'));
  ASSERT_TRUE(framer.finish(line, status));
  EXPECT_EQ(status, svc::LineStatus::kLine);
  EXPECT_EQ(line, "after");
}

}  // namespace
}  // namespace reconf
