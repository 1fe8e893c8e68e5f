// Byte-buffer serialization for message payloads.
//
// Messages between logical processors carry plain bytes, exactly as on the
// CM-5's active-message layer: the sender marshals, the handler unmarshals.
// Writer appends fixed-width little-endian integers and length-prefixed
// blobs; Reader consumes them in the same order. Both are deliberately free
// of any polymorphism — message formats are defined by the call sequence.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace gbd {

/// Appends primitive values to a growable byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) { append(&v, sizeof v); }

  void u64(std::uint64_t v) { append(&v, sizeof v); }

  void i64(std::int64_t v) { append(&v, sizeof v); }

  /// Length-prefixed byte blob.
  void bytes(const void* data, std::size_t n) {
    u64(n);
    append(data, n);
  }

  void str(const std::string& s) { bytes(s.data(), s.size()); }

  /// Length-prefixed vector of 32-bit words.
  void words(const std::vector<std::uint32_t>& w) { words(w.data(), w.size()); }

  /// Length-prefixed run of 32-bit words from a raw buffer.
  void words(const std::uint32_t* w, std::size_t n) {
    u64(n);
    append(w, n * sizeof(std::uint32_t));
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Consumes values written by Writer, in order. Bounds-checked.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& buf) : buf_(buf.data()), size_(buf.size()) {}
  Reader(const std::uint8_t* data, std::size_t n) : buf_(data), size_(n) {}

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }

  std::uint32_t u32() {
    std::uint32_t v;
    copy(&v, sizeof v);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v;
    copy(&v, sizeof v);
    return v;
  }

  std::int64_t i64() {
    std::int64_t v;
    copy(&v, sizeof v);
    return v;
  }

  std::string str() {
    std::size_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint32_t> words() {
    std::size_t n = u64();
    std::vector<std::uint32_t> w(n);
    copy(w.data(), n * sizeof(std::uint32_t));
    return w;
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::size_t n) { GBD_CHECK_MSG(size_ - pos_ >= n, "message payload underrun"); }

  void copy(void* out, std::size_t n) {
    need(n);
    if (n > 0) std::memcpy(out, buf_ + pos_, n);  // an empty words() passes null
    pos_ += n;
  }

  const std::uint8_t* buf_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace gbd
