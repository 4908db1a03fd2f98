#pragma once
// Records as field lists, run forwards by a writer and backwards by a reader.
//
// Each record that crosses a process boundary (the PFRM frames of
// serve/wire.h) or lands on disk (the PFCK blobs of checkpoint.h) is
// described once, in its own namespace, as
//
//   template <class Io, detail::Of<Record> R> void fields(Io& io, R& r);
//
// a list of calls such as io.u32(r.kind) and io.str(r.name). ByteWriter
// runs it over a const record to append the bytes, ByteReader over a
// mutable one to parse them, so no field can be written without being read
// at the same width and place. Integers are little-endian. An enum field
// carries its ordinal, and the reader refuses any ordinal at or past the
// enum's kCount_: a peer that knows more enumerators is refused, never
// misread, and appending an enumerator needs no decoder edit.

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "factor/pivot_trace.h"
#include "matrix/matrix.h"
#include "obs/taxonomy.h"

namespace pfact::robustness::detail {

// R is the record T, const (written) or not (read).
template <class R, class T>
concept Of = std::same_as<std::remove_const_t<R>, T>;

// A field's wire integer: an integer or bool itself, an enum's ordinal, a
// duration's tick count.
template <class T>
std::uint64_t to_wire(const T& v) {
  if constexpr (requires { v.count(); }) return v.count();
  else return static_cast<std::uint64_t>(v);
}

// The inverse of to_wire; false for an enum ordinal at or past kCount_.
template <class T>
bool from_wire(std::uint64_t raw, T& v) {
  if constexpr (std::is_enum_v<T>) if (raw >= obs::kCountOf<T>) return false;
  if constexpr (requires { v.count(); }) v = T(raw);
  else v = static_cast<T>(raw);
  return true;
}

// One pivot decision, in a result frame's trace and a PFCK body's alike.
template <class Io, Of<factor::PivotEvent> R>
void fields(Io& io, R& e) {
  io.u64(e.column);
  io.u64(e.pivot_pos);
  io.u64(e.pivot_row);
  io.u32(e.action);
}

// Appends bytes: put_* for the scalar and storage codecs, and the field
// methods a record's field list calls, each the mirror of ByteReader's.
class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v) { put_le(v, 4); }
  void put_u64(std::uint64_t v) { put_le(v, 8); }
  void put_bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  void put_string(std::string_view s) {
    put_u64(s.size());
    buf_.append(s);
  }
  // Grows the buffer by `n` bytes and returns where they start, for a
  // section whose exact size is known before it is filled.
  char* extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }
  // Rewrites bytes at `pos`: a header whose length and CRC are known only
  // once the payload behind it is written.
  void overwrite(std::size_t pos, std::string_view bytes) {
    buf_.replace(pos, bytes.size(), bytes);
  }
  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

  // An integer, bool, enum or duration, at a fixed width.
  template <class T>
  void u8(const T& v) { put_u8(static_cast<std::uint8_t>(to_wire(v))); }
  template <class T>
  void u32(const T& v) { put_u32(static_cast<std::uint32_t>(to_wire(v))); }
  template <class T>
  void u64(const T& v) { put_u64(to_wire(v)); }
  void i32(int v) { put_u32(static_cast<std::uint32_t>(v)); }
  // A double as its bit pattern.
  void f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  // A u64 length, then the bytes.
  void str(std::string_view v) { put_string(v); }
  // A string that the reader refuses unless it equals `expected`.
  void tag(std::string_view expected) { put_string(expected); }
  // Every remaining byte of the record, unprefixed: its last field.
  void rest(std::string_view v) { put_bytes(v.data(), v.size()); }
  // A value that travels as the length-prefixed string encode(v); the
  // reader rebuilds it with decode(bytes, v), whose false (or throw)
  // refuses the record.
  template <class T, class Encode, class Decode>
  void encoded(const T& v, Encode encode, Decode) { put_string(encode(v)); }
  // A value whose bytes Codec::encode writes and Codec::decode parses.
  template <class T, class Codec>
  void bulk(const T& v, Codec) { Codec::encode(*this, v); }
  // A u64 count, then each event's fields; a u64 size, then each image.
  void trace(const factor::PivotTrace& t) {
    put_u64(t.size());
    for (const factor::PivotEvent& e : t.events()) fields(*this, e);
  }
  void perm(const Permutation& p) {
    put_u64(p.size());
    for (std::size_t i : p.map()) put_u64(i);
  }

 private:
  void put_le(std::uint64_t v, int n) {
    char b[8];
    for (int i = 0; i < n; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, n);
  }

  std::string buf_;
};

// Parses bytes: get_* for the codecs, and the field methods. A refused
// field fails the reader, after which every read returns zero or empty.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t size() const { return data_.size(); }
  void fail() {
    ok_ = false;
    pos_ = data_.size();
  }

  std::uint8_t get_u8() {
    if (pos_ == data_.size()) {
      fail();
      return 0;
    }
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t get_u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t get_u64() { return get_le(8); }
  bool get_bytes(void* dst, std::size_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      fail();
      return false;
    }
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  // A u64 length, then that many bytes, viewed in place.
  std::string_view get_view() {
    const std::uint64_t n = get_u64();
    if (n > data_.size() - pos_) fail();
    const std::string_view v = data_.substr(pos_, ok_ ? n : 0);
    pos_ += v.size();
    return v;
  }

  template <class T>
  void u8(T& v) { set(get_u8(), v); }
  template <class T>
  void u32(T& v) { set(get_u32(), v); }
  template <class T>
  void u64(T& v) { set(get_u64(), v); }
  void i32(int& v) { v = static_cast<int>(get_u32()); }
  void f64(double& v) { v = std::bit_cast<double>(get_u64()); }
  void str(std::string& v) { v.assign(get_view()); }
  void tag(std::string_view expected) {
    if (get_view() != expected) fail();
  }
  void rest(std::string_view& v) {
    v = data_.substr(pos_);
    pos_ = data_.size();
  }
  template <class T, class Encode, class Decode>
  void encoded(T& v, Encode, Decode decode) {
    const std::string_view s = get_view();
    if (ok_ && !decode(s, v)) fail();
  }
  template <class T, class Codec>
  void bulk(T& v, Codec) {
    if (ok_ && !Codec::decode(*this, v)) fail();
  }
  // A count past the record's size is refused before anything is read or
  // allocated (an event is 28 bytes, an image 8).
  void trace(factor::PivotTrace& t) {
    const std::uint64_t n = get_u64();
    if (n > data_.size()) return fail();
    for (std::uint64_t i = 0; i < n && ok_; ++i) {
      factor::PivotEvent e;
      fields(*this, e);
      t.record(e);
    }
  }
  void perm(Permutation& p) {
    const std::uint64_t n = get_u64();
    if (n > data_.size()) return fail();
    std::vector<std::size_t> map(n);
    for (std::size_t& i : map) u64(i);
    p = Permutation(std::move(map));
  }

 private:
  std::uint64_t get_le(int n) {
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) v |= std::uint64_t{get_u8()} << (8 * i);
    return v;
  }
  template <class T>
  void set(std::uint64_t raw, T& v) {
    if (!from_wire(raw, v)) fail();
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

template <class R>
void write_fields(ByteWriter& w, const R& r) {
  fields(w, r);
}

template <class R>
std::string encode_fields(const R& r) {
  ByteWriter w;
  write_fields(w, r);
  return w.take();
}

// Parses `bytes` as a fresh record's fields, moved into `out` only if all
// of it parsed. False when a field is refused or throws (a Rational that is
// not a number), the bytes run short, or bytes are left over.
template <class R>
bool decode_fields(std::string_view bytes, R& out) {
  ByteReader io(bytes);
  R r;
  try {
    fields(io, r);
  } catch (const std::exception&) {
    return false;
  }
  if (!io.ok() || !io.exhausted()) return false;
  out = std::move(r);
  return true;
}

}  // namespace pfact::robustness::detail
