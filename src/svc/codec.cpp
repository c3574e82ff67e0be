#include "svc/codec.hpp"

#include <cstdio>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/registry.hpp"
#include "svc/json.hpp"
#include "task/io.hpp"

namespace reconf::svc {

namespace {

// ------------------------------------------------------------- request ----

using Kind = json::Value::Kind;

enum class IntCheck { kOk, kNotInteger, kNotPositive };

/// Reads the next value as a positive integer into `out`; any other value
/// is consumed and reported.
IntCheck read_positive_int(json::Reader& r, long long& out) {
  if (r.next_kind() != Kind::kNumber) {
    r.skip_value();
    return IntCheck::kNotInteger;
  }
  const json::Number n = r.read_number();
  if (!n.integral) return IntCheck::kNotInteger;
  if (n.integer <= 0) return IntCheck::kNotPositive;
  out = n.integer;
  return IntCheck::kOk;
}

std::string int_error(std::string what, IntCheck check) {
  return what + (check == IntCheck::kNotInteger ? " must be an integer"
                                                : " must be positive");
}

/// The required task keys, in the order of their `seen` bits.
constexpr std::string_view kTaskKeys = "cdta";

/// Index of `key` in kTaskKeys, or -1.
int task_key_slot(std::string_view key) noexcept {
  if (key.size() != 1) return -1;
  switch (key[0]) {
    case 'c': return 0;
    case 'd': return 1;
    case 't': return 2;
    case 'a': return 3;
    default: return -1;
  }
}

std::string task_where(std::size_t index) {
  return "tasks[" + std::to_string(index) + "]";
}

/// One pass over a request line, straight into a BatchRequest. A schema
/// error does not stop the scan: a JSON syntax error later in the line, or
/// a bad id anywhere in it, outranks it. So each error is recorded where it
/// is found and thrown once the line has been read, in this order:
///   1. JSON syntax (no id),
///   2. the type of the first "id" (no id),
///   3. the first error of the member loop, in member order: "tests",
///      "stats" and unknown keys,
///   4. the stats, taskset, device and tasks checks, in that order, on the
///      last "device", "tasks" and "taskset" members.
/// Every other "id" is skipped; the last "tests" wins; within one task the
/// last value of a duplicated key wins, but every one is checked in order.
class RequestScan {
 public:
  explicit RequestScan(const std::string& line) : r_(line) {}

  BatchRequest run() {
    try {
      if (r_.next_kind() != Kind::kObject) {
        r_.skip_value();
        r_.finish();
        throw CodecError("bad request: request line must be a JSON object");
      }
      r_.open_object();
      while (r_.next_member(key_)) read_member();
      r_.finish();
    } catch (const json::JsonError& e) {
      throw CodecError(e.what());
    }
    return checked();
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw CodecError("bad request: " + what, out_.id);
  }

  void read_member() {
    if (key_ == "id") {
      read_id();
    } else if (id_bad_ || !member_error_.empty()) {
      r_.skip_value();  // the answer is decided; only the syntax is left
    } else if (key_ == "device") {
      read_device();
    } else if (key_ == "tasks") {
      read_tasks();
    } else if (key_ == "taskset") {
      has_taskset_ = true;
      taskset_is_string_ = r_.next_kind() == Kind::kString;
      if (taskset_is_string_) {
        taskset_text_ = r_.read_string();
      } else {
        r_.skip_value();
      }
    } else if (key_ == "tests") {
      read_tests();
    } else if (key_ == "stats") {
      // Introspection request: only {"id":...,"stats":true} is valid.
      // stats:false is rejected rather than treated as a no-op analysis
      // request — the caller clearly meant something, and guessing which
      // half is the same trap as a typo'd task key.
      bool is_true = false;
      if (r_.next_kind() == Kind::kBool) {
        is_true = r_.read_bool();
      } else {
        r_.skip_value();
      }
      if (is_true) {
        out_.stats = true;
      } else {
        member_error_ = "stats must be the literal true";
      }
    } else {
      member_error_ = "unknown key '" + std::string(key_) + "'";
      r_.skip_value();
    }
  }

  void read_id() {
    if (has_id_) {
      r_.skip_value();
      return;
    }
    has_id_ = true;
    const Kind kind = r_.next_kind();
    if (kind == Kind::kString) {
      out_.id = r_.read_string();
    } else if (kind == Kind::kNumber) {
      const json::Number n = r_.read_number();
      if (n.integral) {
        out_.id = std::to_string(n.integer);
      } else {
        id_bad_ = true;
      }
    } else {
      r_.skip_value();
      id_bad_ = true;
    }
  }

  void read_device() {
    has_device_ = true;
    device_error_.clear();
    long long width = 0;
    const IntCheck check = read_positive_int(r_, width);
    if (check != IntCheck::kOk) {
      device_error_ = int_error("device", check);
    } else if (width > std::numeric_limits<Area>::max()) {
      device_error_ = "device width out of range";
    } else {
      out_.device = Device{static_cast<Area>(width)};
    }
  }

  void read_tasks() {
    has_tasks_ = true;
    tasks_.clear();
    tasks_error_.clear();
    if (r_.next_kind() != Kind::kArray) {
      r_.skip_value();
      tasks_error_ = "tasks must be an array";
      return;
    }
    r_.open_array();
    for (std::size_t i = 0; r_.next_item(); ++i) {
      if (tasks_error_.empty()) {
        read_task(i);
      } else {
        r_.skip_value();
      }
    }
  }

  void read_task(std::size_t index) {
    if (r_.next_kind() != Kind::kObject) {
      r_.skip_value();
      tasks_error_ = task_where(index) + " must be an object";
      return;
    }
    Task task;
    long long cdta[4] = {};  // by kTaskKeys
    unsigned seen = 0;       // one bit per kTaskKeys entry
    r_.open_object();
    while (r_.next_member(key_)) {
      if (!tasks_error_.empty()) {
        r_.skip_value();
        continue;
      }
      const int slot = task_key_slot(key_);
      if (slot >= 0) {
        const IntCheck check = read_positive_int(r_, cdta[slot]);
        if (check != IntCheck::kOk) {
          tasks_error_ = int_error(
              task_where(index) + "." + kTaskKeys[slot], check);
        }
        seen |= 1u << slot;
      } else if (key_ == "name") {
        if (r_.next_kind() == Kind::kString) {
          // "-" is the v1 text format's "no name", here as there.
          const std::string_view name = r_.read_string();
          task.name.assign(name == "-" ? std::string_view{} : name);
        } else {
          r_.skip_value();
          tasks_error_ = task_where(index) + ".name must be a string";
        }
      } else {
        tasks_error_ =
            task_where(index) + " has unknown key '" + std::string(key_) + "'";
        r_.skip_value();
      }
    }
    if (!tasks_error_.empty()) return;
    if (seen != 0xFu) {
      tasks_error_ = task_where(index) + " requires keys c, d, t, a";
      return;
    }
    // The one io::make_task_checked rule the positivity checks leave open,
    // in its wording.
    if (cdta[3] > std::numeric_limits<Area>::max()) {
      tasks_error_ = task_where(index) + ": area out of range";
      return;
    }
    task.wcet = cdta[0];
    task.deadline = cdta[1];
    task.period = cdta[2];
    task.area = static_cast<Area>(cdta[3]);
    tasks_.push_back(std::move(task));
  }

  /// Validates a "tests" array: non-empty, strings only, every id
  /// registered. Unknown ids are rejected here — with the registered ids
  /// listed — so a typo'd lineup turns into a correlatable error response
  /// instead of an exception inside a shard worker.
  void read_tests() {
    constexpr const char* kNotArray =
        "tests must be a non-empty array of analyzer ids";
    out_.tests.clear();
    if (r_.next_kind() != Kind::kArray) {
      r_.skip_value();
      member_error_ = kNotArray;
      return;
    }
    r_.open_array();
    const auto& registry = analysis::AnalyzerRegistry::instance();
    std::size_t i = 0;
    for (; r_.next_item(); ++i) {
      if (!member_error_.empty()) {
        r_.skip_value();
      } else if (r_.next_kind() != Kind::kString) {
        r_.skip_value();
        member_error_ = "tests[" + std::to_string(i) + "] must be a string";
      } else {
        std::string id(r_.read_string());
        if (registry.find(id) == nullptr) {
          member_error_ = "unknown analyzer '" + id +
                          "'; registered analyzers: " + registry.id_list();
        } else {
          out_.tests.push_back(std::move(id));
        }
      }
    }
    if (i == 0) member_error_ = kNotArray;
  }

  /// Stages 2-4 of the ranking, once the whole line has been read.
  BatchRequest checked() {
    if (id_bad_) {
      throw CodecError("bad request: id must be a string or integer");
    }
    if (!member_error_.empty()) fail(member_error_);
    if (out_.stats) {
      if (has_device_ || has_tasks_ || has_taskset_ || !out_.tests.empty()) {
        fail("'stats' excludes 'tasks'/'device'/'taskset'/'tests'");
      }
      return std::move(out_);
    }
    if (has_taskset_) {
      if (has_tasks_ || has_device_) {
        fail("'taskset' excludes 'tasks'/'device'");
      }
      if (!taskset_is_string_) {
        fail("taskset must be a string in the task/io.hpp v1 format");
      }
      try {
        io::ParsedTaskSet parsed = io::from_string(taskset_text_);
        out_.taskset = std::move(parsed.taskset);
        out_.device = parsed.device;
      } catch (const std::exception& e) {
        fail(e.what());
      }
      return std::move(out_);
    }
    if (!has_device_ || !has_tasks_) {
      fail("requires either 'taskset' or both 'device' and 'tasks'");
    }
    if (!device_error_.empty()) fail(device_error_);
    if (!tasks_error_.empty()) fail(tasks_error_);
    out_.taskset = TaskSet(std::move(tasks_));
    return std::move(out_);
  }

  json::Reader r_;
  std::string_view key_;  ///< current member key, until the next read
  BatchRequest out_;
  bool has_id_ = false;
  bool id_bad_ = false;
  std::string member_error_;
  bool has_device_ = false;
  std::string device_error_;
  bool has_tasks_ = false;
  std::vector<Task> tasks_;
  std::string tasks_error_;
  bool has_taskset_ = false;
  bool taskset_is_string_ = false;
  std::string taskset_text_;
};

}  // namespace

void StreamFramer::feed(const char* data, std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    const auto* nl = static_cast<const char*>(
        std::memchr(data + i, '\n', n - i));
    if (discarding_) {
      // Over-cap line: drop bytes unbuffered until its newline.
      if (nl == nullptr) return;
      i = static_cast<std::size_t>(nl - data) + 1;
      ready_.emplace_back(std::move(oversized_prefix_),
                          LineStatus::kOversized);
      oversized_prefix_.clear();
      discarding_ = false;
      continue;
    }
    const std::size_t end =
        nl != nullptr ? static_cast<std::size_t>(nl - data) : n;
    const std::size_t len = end - i;
    if (partial_.size() + len > max_len_) {
      // Keep exactly the cap's worth of prefix (id recovery), discard the
      // rest of this line.
      partial_.append(data + i, max_len_ - partial_.size());
      oversized_prefix_ = std::move(partial_);
      partial_.clear();
      if (nl != nullptr) {
        ready_.emplace_back(std::move(oversized_prefix_),
                            LineStatus::kOversized);
        oversized_prefix_.clear();
        i = end + 1;
      } else {
        discarding_ = true;
        i = n;
      }
      continue;
    }
    partial_.append(data + i, len);
    if (nl != nullptr) {
      ready_.emplace_back(std::move(partial_), LineStatus::kLine);
      partial_.clear();
      i = end + 1;
    } else {
      i = n;
    }
  }
}

bool StreamFramer::next(std::string& line, LineStatus& status) {
  if (ready_head_ >= ready_.size()) {
    if (!ready_.empty()) {
      ready_.clear();
      ready_head_ = 0;
    }
    return false;
  }
  line = std::move(ready_[ready_head_].first);
  status = ready_[ready_head_].second;
  ++ready_head_;
  return true;
}

bool StreamFramer::finish(std::string& line, LineStatus& status) {
  if (next(line, status)) return true;
  if (discarding_) {
    line = std::move(oversized_prefix_);
    oversized_prefix_.clear();
    discarding_ = false;
    status = LineStatus::kOversized;
    return true;
  }
  if (!partial_.empty()) {
    line = std::move(partial_);
    partial_.clear();
    status = LineStatus::kLine;
    return true;
  }
  return false;
}

std::size_t StreamFramer::buffered() const noexcept {
  std::size_t total = partial_.size() + oversized_prefix_.size();
  for (std::size_t i = ready_head_; i < ready_.size(); ++i) {
    total += ready_[i].first.size();
  }
  return total;
}

BatchRequest parse_request_line(const std::string& line) {
  if (line.size() > kMaxRequestLine) {
    throw CodecError("bad request: line exceeds " +
                     std::to_string(kMaxRequestLine) + " bytes");
  }
  return RequestScan(line).run();
}

// ------------------------------------------------------------ response ----

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string format_verdict_line(const BatchVerdict& verdict,
                                const TaskSet* taskset) {
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                static_cast<unsigned long long>(verdict.hash));

  std::string out = "{\"id\":\"" + json_escape(verdict.id) + "\"";
  out += ",\"verdict\":\"";
  out += verdict.accepted ? "schedulable" : "inconclusive";
  out += "\"";
  if (!verdict.accepted_by.empty()) {
    out += ",\"accepted_by\":\"" + json_escape(verdict.accepted_by) + "\"";
  }
  out += ",\"cache\":\"";
  out += verdict.cache_hit ? "hit" : "miss";
  out += "\",\"hash\":\"";
  out += hash_hex;
  out += "\"";
  if (taskset != nullptr) {
    char buf[96];
    std::snprintf(buf, sizeof buf, ",\"n\":%zu,\"ut\":%.6g,\"us\":%.6g",
                  taskset->size(), taskset->time_utilization(),
                  taskset->system_utilization());
    out += buf;
  }
  if (!verdict.sub.empty()) {
    out += ",\"sub\":[";
    for (std::size_t i = 0; i < verdict.sub.size(); ++i) {
      const SubVerdict& s = verdict.sub[i];
      if (i != 0) out += ",";
      out += "{\"test\":\"" + json_escape(s.test) + "\"";
      if (!s.ran) {
        out += ",\"skipped\":true}";
        continue;
      }
      out += ",\"verdict\":\"";
      out += s.accepted ? "schedulable" : "inconclusive";
      char buf[48];
      std::snprintf(buf, sizeof buf, "\",\"micros\":%.3g}", s.micros);
      out += buf;
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string format_error_line(const std::string& id,
                              const std::string& message) {
  return "{\"id\":\"" + json_escape(id) + "\",\"error\":\"" +
         json_escape(message) + "\"}";
}

std::string format_shed_line(const std::string& id,
                             const std::string& reason) {
  return "{\"id\":\"" + json_escape(id) + "\",\"shed\":\"" +
         json_escape(reason) + "\"}";
}

std::string recover_request_id(const std::string& text) {
  const std::size_t key = text.find("\"id\"");
  if (key == std::string::npos) return {};
  std::size_t i = key + 4;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  if (i >= text.size() || text[i] != ':') return {};
  ++i;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  if (i >= text.size()) return {};
  if (text[i] == '"') {
    std::string id;
    for (++i; i < text.size() && text[i] != '"'; ++i) {
      if (text[i] == '\\') return {};  // escaped ids: not worth guessing
      id.push_back(text[i]);
    }
    return i < text.size() ? id : std::string{};
  }
  std::string digits;
  if (text[i] == '-') digits.push_back(text[i++]);
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    digits.push_back(text[i++]);
  }
  return digits == "-" ? std::string{} : digits;
}

}  // namespace reconf::svc
