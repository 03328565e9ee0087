// Fail-closed reader for the line-oriented text formats: edge lists, shard
// maps, label files and knn_cli batch files.
//
// The reader owns the policy those formats share, so each format's parser
// states only its own grammar (which lines are comments, which tokens a
// row holds):
//
//   - lines may be of any length; a line ends at '\n' or at end of file;
//   - a NUL byte inside a line is an error, never a silent line end;
//   - every parse error is a `Corruption` whose message starts with
//     `<path>:<line>:`, so a corrupt file can never load as a smaller one;
//   - number tokens are whole tokens: a leading minus (for integers),
//     overflow, trailing garbage ("12abc") and non-finite values ("nan",
//     "inf") are rejected.
//
// Tokens are separated by spaces, tabs and carriage returns (so CRLF files
// read like LF files). Loop as `while (reader.Next()) {...}`, then check
// status(): Next() also returns false on an unreadable line.

#ifndef FLOS_UTIL_LINE_READER_H_
#define FLOS_UTIL_LINE_READER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace flos {

class LineReader {
 public:
  /// Opens `path` for reading; `what` names the format in the IoError
  /// ("cannot open <what>: <path>").
  static Result<LineReader> Open(const std::string& path,
                                 std::string_view what);

  /// Advances to the next line. Returns false at end of file, and also when
  /// the line is unreadable (a NUL byte, an I/O error); status() then holds
  /// the error.
  bool Next();

  /// OK unless Next() stopped on an error.
  const Status& status() const { return status_; }

  /// The whole current line, without its '\n'; valid until the next Next().
  std::string_view line() const {
    return {buffer_.data() + line_begin_, line_size_};
  }

  /// "<path>:<line>: <what>", for errors raised by the caller's own checks.
  std::string At(std::string_view what) const;

  /// Corruption(At(what)) — or, after Next() failed, that failure, so a
  /// "missing row" error never hides the unreadable line that caused it.
  Status Fail(std::string_view what) const;

  // Token cursor over the current line.

  /// First character of the next token, or '\0' when the line has none
  /// left (a line cannot contain NUL, so '\0' always means "end").
  char Peek();

  /// Consumes the token `word`, which must stand alone (not a prefix).
  Status ExpectWord(std::string_view word);

  /// Parses the next token as a decimal uint64; `what` names it in errors.
  Status ParseU64(std::string_view what, uint64_t* out);

  /// Parses the next token as a finite decimal double.
  Status ParseDouble(std::string_view what, double* out);

  /// Fails with "trailing garbage" unless the line has no tokens left.
  Status ExpectEnd();

 private:
  struct FileCloser {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };

  LineReader(std::FILE* file, std::string path);

  /// Consumes and returns the next token; empty at end of line.
  std::string_view NextToken();

  template <typename T>
  Status ParseNumber(std::string_view what, T* out);

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string path_;
  /// Unconsumed input is buffer_[begin_, end_); the current line is
  /// buffer_[line_begin_, line_begin_ + line_size_), its cursor at cursor_.
  std::vector<char> buffer_;
  size_t begin_ = 0;
  size_t end_ = 0;
  bool eof_ = false;
  size_t line_begin_ = 0;
  size_t line_size_ = 0;
  size_t cursor_ = 0;
  uint64_t line_no_ = 0;
  Status status_;
};

}  // namespace flos

#endif  // FLOS_UTIL_LINE_READER_H_
