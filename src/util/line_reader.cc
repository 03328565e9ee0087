#include "util/line_reader.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <system_error>
#include <utility>

namespace flos {

namespace {

// Stays below glibc's 64 KiB free-consolidation threshold: freeing a
// buffer that large right after a caller freed millions of small nodes
// (ReadEdgeList's dedup set) consolidates them all, +15% load time on a
// 5M-edge file. The buffer grows only for longer lines.
constexpr size_t kInitialBufferBytes = size_t{1} << 15;

bool IsSeparator(char c) { return c == ' ' || c == '\t' || c == '\r'; }

}  // namespace

Result<LineReader> LineReader::Open(const std::string& path,
                                    std::string_view what) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return Status::IoError("cannot open " + std::string(what) + ": " + path);
  }
  // Next() reads whole chunks into its own buffer; a stdio buffer would
  // only add a copy.
  std::setvbuf(file, nullptr, _IONBF, 0);
  return LineReader(file, path);
}

LineReader::LineReader(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)), buffer_(kInitialBufferBytes) {}

bool LineReader::Next() {
  if (!status_.ok()) return false;
  size_t scan = begin_;
  while (true) {
    const char* newline = static_cast<const char*>(
        std::memchr(buffer_.data() + scan, '\n', end_ - scan));
    if (newline != nullptr) {
      line_begin_ = begin_;
      line_size_ = static_cast<size_t>(newline - buffer_.data()) - begin_;
      begin_ += line_size_ + 1;
      break;
    }
    if (eof_) {
      if (begin_ == end_) return false;
      line_begin_ = begin_;  // a final line without '\n'
      line_size_ = end_ - begin_;
      begin_ = end_;
      break;
    }
    // No newline buffered: keep the partial line, make room, read more.
    if (begin_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
    scan = end_;
    const size_t got =
        std::fread(buffer_.data() + end_, 1, buffer_.size() - end_,
                   file_.get());
    end_ += got;
    if (got == 0) {
      if (std::ferror(file_.get()) != 0) {
        status_ = Status::IoError(path_ + ": read failed after line " +
                                  std::to_string(line_no_));
        return false;
      }
      eof_ = true;
    }
  }
  ++line_no_;
  cursor_ = 0;
  if (std::memchr(buffer_.data() + line_begin_, '\0', line_size_) !=
      nullptr) {
    status_ = Status::Corruption(At("NUL byte inside the line"));
    return false;
  }
  return true;
}

std::string LineReader::At(std::string_view what) const {
  return path_ + ":" + std::to_string(line_no_) + ": " + std::string(what);
}

Status LineReader::Fail(std::string_view what) const {
  if (!status_.ok()) return status_;
  return Status::Corruption(At(what));
}

char LineReader::Peek() {
  const std::string_view rest = line().substr(cursor_);
  for (const char c : rest) {
    if (!IsSeparator(c)) return c;
    ++cursor_;
  }
  return '\0';
}

std::string_view LineReader::NextToken() {
  Peek();
  const std::string_view rest = line().substr(cursor_);
  size_t size = 0;
  while (size < rest.size() && !IsSeparator(rest[size])) ++size;
  cursor_ += size;
  return rest.substr(0, size);
}

Status LineReader::ExpectWord(std::string_view word) {
  if (NextToken() != word) {
    return Fail("expected '" + std::string(word) + "'");
  }
  return Status::OK();
}

template <typename T>
Status LineReader::ParseNumber(std::string_view what, T* out) {
  const std::string_view token = NextToken();
  if (token.empty()) return Fail("expected " + std::string(what));
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, *out);
  const char* problem = nullptr;
  if (ec == std::errc::result_out_of_range) {
    problem = "out-of-range ";
  } else if (ec != std::errc() || stop != end) {
    problem = "malformed ";  // also a leading minus on an integer
  } else if (!std::isfinite(static_cast<double>(*out))) {
    problem = "non-finite ";
  }
  if (problem == nullptr) return Status::OK();
  return Fail(problem + std::string(what) + " '" + std::string(token) + "'");
}

Status LineReader::ParseU64(std::string_view what, uint64_t* out) {
  return ParseNumber(what, out);
}

Status LineReader::ParseDouble(std::string_view what, double* out) {
  return ParseNumber(what, out);
}

Status LineReader::ExpectEnd() {
  if (Peek() != '\0') {
    return Fail("trailing garbage: '" +
                std::string(line().substr(cursor_)) + "'");
  }
  return Status::OK();
}

}  // namespace flos
