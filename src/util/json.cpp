#include "util/json.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/faultpoint.hpp"

namespace mcdft::util::json {

Value Value::Bool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Number(double d) {
  Value v;
  v.type_ = Type::kNumber;
  v.num_ = d;
  return v;
}

Value Value::Str(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

Value Value::Array() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::Object() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

namespace {

[[noreturn]] void TypeMismatch(const char* wanted) {
  throw JsonError(std::string("value is not ") + wanted);
}

}  // namespace

bool Value::AsBool() const {
  if (!IsBool()) TypeMismatch("a bool");
  return bool_;
}

double Value::AsDouble() const {
  if (!IsNumber()) TypeMismatch("a number");
  return num_;
}

const std::string& Value::AsString() const {
  if (!IsString()) TypeMismatch("a string");
  return str_;
}

std::size_t Value::Size() const {
  if (IsArray()) return items_.size();
  if (IsObject()) return members_.size();
  TypeMismatch("an array or object");
}

Value& Value::PushBack(Value v) {
  if (!IsArray()) TypeMismatch("an array");
  items_.push_back(std::move(v));
  return items_.back();
}

const Value& Value::At(std::size_t i) const {
  if (!IsArray()) TypeMismatch("an array");
  if (i >= items_.size()) {
    throw JsonError("array index " + std::to_string(i) + " out of range");
  }
  return items_[i];
}

const std::vector<Value>& Value::Items() const {
  if (!IsArray()) TypeMismatch("an array");
  return items_;
}

Value& Value::Set(std::string key, Value v) {
  if (!IsObject()) TypeMismatch("an object");
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
  return members_.back().second;
}

const Value* Value::Find(std::string_view key) const {
  if (!IsObject()) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::Get(std::string_view key) const {
  const Value* v = Find(key);
  if (v == nullptr) throw JsonError("missing member '" + std::string(key) + "'");
  return *v;
}

const std::vector<std::pair<std::string, Value>>& Value::Members() const {
  if (!IsObject()) TypeMismatch("an object");
  return members_;
}

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no Inf/NaN; null is the least-surprising stand-in
    return;
  }
  char buf[64];
  const auto append = [&](std::to_chars_result r) { out.append(buf, r.ptr); };
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    append(std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed,
                         0));  // printf "%.0f"
    return;
  }
  // The "%.{p}g" text (chars_format::general) at the smallest precision p
  // that round-trips, else "%.17g".  No p below the shortest round-trip
  // digit count can round-trip, so the search starts there; it may need
  // one more digit where the shortest digits are not the nearest p-digit
  // rounding (the narrower gap below a power of two).
  const std::to_chars_result shortest = std::to_chars(
      buf, buf + sizeof buf, v, std::chars_format::scientific);
  int prec = 0;
  for (const char* c = buf; c != shortest.ptr && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++prec;
  }
  for (; prec < 17; ++prec) {
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof buf, v, std::chars_format::general, prec);
    double back = 0.0;
    std::from_chars(buf, r.ptr, back);
    if (back == v) {
      append(r);
      return;
    }
  }
  append(std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                       17));
}

void SerializeTo(const Value& v, std::string& out, int indent, int depth) {
  const bool pretty = indent > 0;
  const std::string pad = pretty ? std::string(indent * (depth + 1), ' ') : "";
  const std::string close_pad = pretty ? std::string(indent * depth, ' ') : "";
  const char* nl = pretty ? "\n" : "";
  switch (v.GetType()) {
    case Value::Type::kNull: out += "null"; break;
    case Value::Type::kBool: out += v.AsBool() ? "true" : "false"; break;
    case Value::Type::kNumber: AppendNumber(out, v.AsDouble()); break;
    case Value::Type::kString: AppendEscaped(out, v.AsString()); break;
    case Value::Type::kArray: {
      if (v.Items().empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < v.Items().size(); ++i) {
        out += pad;
        SerializeTo(v.Items()[i], out, indent, depth + 1);
        if (i + 1 < v.Items().size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      break;
    }
    case Value::Type::kObject: {
      if (v.Members().empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < v.Members().size(); ++i) {
        out += pad;
        AppendEscaped(out, v.Members()[i].first);
        out += pretty ? ": " : ":";
        SerializeTo(v.Members()[i].second, out, indent, depth + 1);
        if (i + 1 < v.Members().size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      break;
    }
  }
}

/// Recursive-descent parser over a string_view with offset diagnostics.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value ParseDocument() {
    Value v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) {
    throw JsonError(what + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value ParseValue() {
    SkipWhitespace();
    switch (Peek()) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return Value::Str(ParseString());
      case 't':
        if (Consume("true")) return Value::Bool(true);
        Fail("invalid literal");
      case 'f':
        if (Consume("false")) return Value::Bool(false);
        Fail("invalid literal");
      case 'n':
        if (Consume("null")) return Value::Null();
        Fail("invalid literal");
      default: return ParseNumber();
    }
  }

  Value ParseObject() {
    Expect('{');
    Value obj = Value::Object();
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      obj.Set(std::move(key), ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return obj;
    }
  }

  Value ParseArray() {
    Expect('[');
    Value arr = Value::Array();
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.PushBack(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return arr;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else Fail("invalid \\u escape");
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs are passed
          // through as two separate 3-byte sequences; good enough for the
          // ASCII-dominated documents this library handles).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: Fail("invalid escape character");
      }
    }
  }

  Value ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) Fail("expected a value");
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (ec != std::errc() || end != text_.data() + pos_) {
      Fail("malformed number");
    }
    return Value::Number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Value::Serialize(int indent) const {
  std::string out;
  SerializeTo(*this, out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

Value Parse(std::string_view text) { return Parser(text).ParseDocument(); }

Value ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw JsonError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str());
}

namespace {

/// Owns the tmp file across the write: closes the fd and unlinks the file
/// on *every* exit path (including the injected ones) unless the rename
/// succeeded and `Commit()` was called.
class TmpFileGuard {
 public:
  explicit TmpFileGuard(std::string path) : path_(std::move(path)) {}
  TmpFileGuard(const TmpFileGuard&) = delete;
  TmpFileGuard& operator=(const TmpFileGuard&) = delete;
  ~TmpFileGuard() {
    if (fd_ >= 0) ::close(fd_);
    if (!committed_) ::unlink(path_.c_str());
  }

  void SetFd(int fd) { fd_ = fd; }
  void CloseFd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  void Commit() { committed_ = true; }

 private:
  std::string path_;
  int fd_ = -1;
  bool committed_ = false;
};

}  // namespace

void WriteTextFileAtomic(const std::string& text, const std::string& path,
                         const std::string& faultpoint_prefix) {
  const std::string tmp = path + ".tmp";
  TmpFileGuard guard(tmp);

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw JsonError("cannot open '" + tmp + "' for writing");
  guard.SetFd(fd);

  // Injected short write: persist a truncated prefix, skip the fsync and
  // rename, and fail exactly like a crash mid-write would.
  std::size_t limit = text.size();
  if (faultpoint::ShouldFail(faultpoint_prefix + ".short")) {
    limit = text.size() / 2;
    std::size_t done = 0;
    while (done < limit) {
      const ssize_t n = ::write(fd, text.data() + done, limit - done);
      if (n < 0) break;
      done += static_cast<std::size_t>(n);
    }
    throw JsonError("injected short write on '" + tmp + "'");
  }

  std::size_t written = 0;
  while (written < limit) {
    const ssize_t n = ::write(fd, text.data() + written, limit - written);
    if (n < 0) throw JsonError("failed writing '" + tmp + "'");
    written += static_cast<std::size_t>(n);
  }
  if (faultpoint::ShouldFail(faultpoint_prefix + ".fsync") ||
      ::fsync(fd) != 0) {
    throw JsonError("fsync failed on '" + tmp + "'");
  }
  guard.CloseFd();

  if (faultpoint::ShouldFail(faultpoint_prefix + ".rename") ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    throw JsonError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  guard.Commit();

  // Persist the rename itself: fsync the containing directory.
  std::string dir = path;
  const std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort; the data itself is already durable
    ::close(dfd);
  }
}

void WriteFileAtomic(const Value& value, const std::string& path, int indent) {
  WriteTextFileAtomic(value.Serialize(indent) + "\n", path);
}

}  // namespace mcdft::util::json
